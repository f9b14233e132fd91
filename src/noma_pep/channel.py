"""Ordered-statistics model of the per-user Rayleigh channels.

Users are indexed by channel strength: user 1 owns the weakest of the L
i.i.d. complex Gaussian gains, user L the strongest.  The Rayleigh scale
convention throughout is f(x) = (x / sigma_h_sq) * exp(-x^2 / (2 sigma_h_sq)),
so E[|h|^2] = 2 * sigma_h_sq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ChannelModel",
    "ordered_magnitude_pdf",
    "ordered_snr_pdf",
    "sample_ordered_channels",
]


@dataclass(frozen=True)
class ChannelModel:
    """Rayleigh fading parameters shared by all L users.

    num_users    L
    sigma_h_sq   Rayleigh density parameter; E[|h|^2] = 2*sigma_h_sq
    noise_var    receiver noise variance sigma_n^2 (total, both dimensions)
    """

    num_users: int
    sigma_h_sq: float = 0.5
    noise_var: float = 1.0

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError(f"need at least one user, got {self.num_users}")
        if not 0 < self.sigma_h_sq < math.inf:
            raise ValueError(
                f"sigma_h_sq must be finite and positive, got {self.sigma_h_sq}"
            )
        if not 0 < self.noise_var < math.inf:
            raise ValueError(
                f"noise_var must be finite and positive, got {self.noise_var}"
            )

    def with_noise(self, noise_var: float) -> "ChannelModel":
        return replace(self, noise_var=noise_var)


def _check_user(l: int, L: int):
    if not 1 <= l <= L:
        raise ValueError(f"user index {l} out of range 1..{L}")


def _rayleigh_pdf(omega, sigma_sq):
    return (omega / sigma_sq) * np.exp(-(omega**2) / (2.0 * sigma_sq))


def _rayleigh_cdf(omega, sigma_sq):
    return 1.0 - np.exp(-(omega**2) / (2.0 * sigma_sq))


def ordered_magnitude_pdf(l: int, model: ChannelModel, omega) -> np.ndarray | float:
    """Density of the l-th smallest of L i.i.d. Rayleigh magnitudes.

    Standard order-statistics form
        L!/((l-1)!(L-l)!) * f(w) * F(w)^(l-1) * (1-F(w))^(L-l)
    with Rayleigh f, F of parameter model.sigma_h_sq.  Vectorized over omega.
    """
    L = model.num_users
    _check_user(l, L)
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("omega must be non-negative")
    s = model.sigma_h_sq
    coef = math.factorial(L) / (math.factorial(l - 1) * math.factorial(L - l))
    f = _rayleigh_pdf(w, s)
    cdf = _rayleigh_cdf(w, s)
    out = coef * f * cdf ** (l - 1) * (1.0 - cdf) ** (L - l)
    return out if out.ndim else float(out)


def ordered_snr_pdf(l: int, L: int, gamma_bar: float, gamma) -> np.ndarray | float:
    """Density of the l-th smallest of L i.i.d. exponential SNRs.

    Binomial-expanded form
        A_l * sum_j C(l-1, j) (-1)^j (1/gbar) exp(-gamma/gbar)^(j+L-l+1)
    with A_l = L!/((l-1)!(L-l)!).  gamma_bar is the unordered per-user mean.
    """
    _check_user(l, L)
    if gamma_bar <= 0:
        raise ValueError(f"gamma_bar must be positive, got {gamma_bar}")
    g = np.asarray(gamma, dtype=float)
    a_l = math.factorial(L) / (math.factorial(l - 1) * math.factorial(L - l))
    out = np.zeros_like(g)
    for j in range(l):
        z = j + L - l + 1
        out = out + math.comb(l - 1, j) * (-1.0) ** j * np.exp(-z * g / gamma_bar)
    out = a_l * out / gamma_bar
    return out if out.ndim else float(out)


def sample_ordered_channels(
    model: ChannelModel, seed: int, size: int = 1
) -> np.ndarray:
    """Draw channel magnitudes for all L users, sorted ascending.

    Each gain is complex circular Gaussian with per-complex variance
    2*sigma_h_sq.  Deterministic for a fixed seed.  Returns an (size, L)
    array of magnitudes, each row ascending; column l-1 belongs to user l.
    """
    rng = np.random.default_rng(seed)
    shape = (int(size), model.num_users)
    std = math.sqrt(model.sigma_h_sq)  # per real dimension
    h = rng.normal(scale=std, size=shape) + 1j * rng.normal(scale=std, size=shape)
    return np.sort(np.abs(h), axis=1)
