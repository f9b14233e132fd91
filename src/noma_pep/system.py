"""The description of one downlink NOMA system and its SNR convention.

SystemConfig is what the analytic code, the optimizer, the simulator and
the CLI all read.  MIN_WEIGHT_TRIALS is the fewest trials that SIC weight
tables are estimated from, which a caller checks before it simulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .constellation import Constellation

MIN_WEIGHT_TRIALS = 100_000


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one downlink NOMA system.

    alpha          power allocation coefficients, strictly descending,
                   summing to 1 (user 1 = weakest channel, most power)
    P              total transmit power
    channel        fading law of every user.  The user count is
                   len(alpha) (num_users), and the noise variance is not
                   part of the system: an SNR sets it (noise_var_for_snr)
    constellation  shared symbol alphabet of unit average power, so that
                   P alone sets the transmit power; every user draws its
                   symbols uniformly from it
    """

    alpha: tuple[float, ...]
    P: float
    channel: ChannelModel
    constellation: Constellation

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("alpha must be a non-empty vector")
        if not np.all(a > 0):
            raise ValueError("power coefficients must be positive")
        # of positive terms, so inf at worst and never NaN; numpy need not
        # warn of the overflow
        with np.errstate(over="ignore"):
            total = a.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"power coefficients must sum to 1, got {total!r}")
        if np.any(np.diff(a) >= 0):
            raise ValueError("power coefficients must be strictly descending")
        if not 0 < self.P < math.inf:
            raise ValueError(f"total power must be finite and positive, got {self.P}")
        if abs(self.constellation.avg_power - 1.0) > 1e-12:
            raise ValueError(
                "constellation must have unit average power, got "
                f"{self.constellation.avg_power!r}; P scales the symbols"
            )

    @property
    def num_users(self) -> int:
        return len(self.alpha)

    def noise_var_for_snr(self, snr_db: float) -> float:
        """SNR convention: snr_db = 10*log10(P / sigma_n^2)."""
        return self.P / linear_snr(snr_db, self.P)


def linear_snr(snr_db: float, P: float = 1.0) -> float:
    """10**(snr_db/10), the ratio P / sigma_n^2 of the SNR convention.

    Raises ValueError unless it and the noise variance P / 10**(snr_db/10)
    are finite and positive, so that an SNR too large or too small for a
    float fails as a configuration error.
    """
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not (0.0 < ratio < math.inf and 0.0 < P / ratio < math.inf):
        raise ValueError(
            f"SNR {snr_db} dB is out of range: the linear SNR and the noise "
            f"variance at total power {P} must be finite and positive")
    return ratio


def _require_weight_trials(trials: int) -> None:
    """Raise ValueError unless trials suffice for sic_weight_tables."""
    if trials < MIN_WEIGHT_TRIALS:
        raise ValueError(f"need at least {MIN_WEIGHT_TRIALS} trials for "
                         f"weight estimation, got {trials}")
