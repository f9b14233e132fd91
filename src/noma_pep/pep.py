"""Exact pairwise error probabilities for power-domain NOMA with SIC.

The decision statistic for user l compares its own symbol hypothesis
against the post-cancellation signal, so the conditional pairwise error
probability is Q(|h_l| * beta_l / upsilon_l) where beta_l collects the
useful-signal energy plus the real projections of residual interference
(weaker users' symbols and imperfectly cancelled stronger users'
differences) onto the symbol difference.

Unconditional values average Q over the ordered channel.  The l-th
smallest of L i.i.d. exponential SNRs is a sum of independent
exponentials with rates proportional to c_i = L-i+1 (Renyi), so Craig's
form of Q turns the average into a finite integral of positive factors,

    PEP(l, L, r) = (1/pi) int_0^{pi/2} prod_{i<=l}
                   c_i sin^2(t) / (c_i sin^2(t) + sigma_h^2 r^2) dt,

with r = beta/upsilon, and 1 minus that value for r < 0.  One kernel
evaluates it with a fixed trapezoid rule after substituting tan(t) = e^v;
its relative error stays below 1e-13 for L <= 10 and PEP values down to
1e-49.  It is the authoritative evaluator here; the
printed closed forms are kept verbatim and compared against it (see
closed_form_consistency_report), because their constant prefactors are
not mutually consistent.

Hypothesis averaging (average_pep) takes the stronger users' imperfect
SIC as one residual table: residual patterns x_k - x_hat_k of users
1..l-1 mapped to their probabilities, None being perfect SIC.  How a
table is obtained is left to the caller (see optimize.residual_tables).
It calls pep_quadrature once per hypothesis, but the kernel evaluates
each distinct beta/upsilon once per process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .constellation import Constellation

__all__ = [
    "ErrorHypothesis",
    "NumericalError",
    "EnumerationCapError",
    "q_function",
    "upsilon_factor",
    "beta_factor",
    "conditional_pep",
    "pep_user1_closed",
    "pep_user_l_closed",
    "pep_quadrature",
    "average_pep",
    "closed_form_consistency_report",
]

ENUMERATION_CAP = 10**6
# Distinct kernel arguments memoized per process: about 14 MB when full.
KERNEL_CACHE_SIZE = 1 << 16

# Trapezoid rule for the Craig-form integral in v = log(tan(t)): every
# factor becomes 1/(1 + a (1 + e^(-2v))) and dt = dv / (2 cosh v), an
# integrand analytic in the strip |Im v| < pi/2, so a step of 0.2 leaves
# a discretization error near exp(-pi^2/0.2) and [-40, 40] cuts off tails
# below e^-40.
_STEP = 0.2
_NODES = _STEP * np.arange(-200, 201)
_CSC_SQ = 1.0 + np.exp(-2.0 * _NODES)  # 1/sin^2(t) at each node
_WEIGHTS = _STEP / (2.0 * math.pi * np.cosh(_NODES))  # (1/pi) dt per node
# Above this x = sigma_h^2 r^2, (x / c) * _CSC_SQ can overflow at the
# outer nodes, whose factor is then 1/inf = 0, the right value.
_X_OVERFLOW = np.finfo(float).max / _CSC_SQ.max()


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class EnumerationCapError(ValueError):
    """Hypothesis enumeration too large; use the Monte Carlo simulator."""


def q_function(x) -> np.ndarray | float:
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2)).

    Single tail primitive used by every error-probability path, so the
    Q-versus-erfc convention cannot drift between formulas.
    """
    # Imported here: no CLI recipe calls q_function, and scipy.special
    # would roughly double the CLI's import time and add ~17 MB of RSS.
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


@dataclass(frozen=True)
class ErrorHypothesis:
    """One conditioned pairwise error event at user l.

    user                1-based index of the user whose pair is tested
    tx_symbol           transmitted symbol of user l
    detected_symbol     competing hypothesis, must differ from tx_symbol
    interferer_symbols  symbols of the weaker users l+1..L (not cancelled)
    prior_deltas        residual differences x_k - x_hat_k of the stronger
                        users 1..l-1 after SIC; zeros mean perfect SIC
    """

    user: int
    tx_symbol: complex
    detected_symbol: complex
    interferer_symbols: tuple[complex, ...] = ()
    prior_deltas: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.user < 1:
            raise ValueError(f"user index must be >= 1, got {self.user}")
        if self.tx_symbol == self.detected_symbol:
            raise ValueError("tx and detected symbol coincide; not an error event")
        if len(self.prior_deltas) != self.user - 1:
            raise ValueError(
                f"user {self.user} needs {self.user - 1} prior deltas, "
                f"got {len(self.prior_deltas)}"
            )

    @property
    def delta(self) -> complex:
        return self.tx_symbol - self.detected_symbol


def _total_users(h: ErrorHypothesis) -> int:
    return h.user + len(h.interferer_symbols)


def _check_alpha(alpha, L: int):
    a = np.asarray(alpha, dtype=float)
    if a.shape != (L,):
        raise ValueError(f"expected {L} power coefficients, got shape {a.shape}")
    if np.any(a <= 0):
        raise ValueError("power coefficients must be positive")
    return a


def beta_factor(h: ErrorHypothesis, alpha, P: float) -> float:
    """Decision-statistic mean scale for user l's pairwise error event.

    Combines the own-signal term sqrt(alpha_l P)|dlt|^2 with the real
    projections of weaker-user interference and of the stronger users'
    SIC residuals onto the symbol difference.
    """
    L = _total_users(h)
    a = _check_alpha(alpha, L)
    l = h.user
    dlt = h.delta
    own = math.sqrt(a[l - 1] * P) * abs(dlt) ** 2
    interf = sum(
        math.sqrt(a[n] * P) * x.conjugate()
        for n, x in zip(range(l, L), h.interferer_symbols)
    )
    residual = sum(
        math.sqrt(a[q] * P) * d.conjugate() for q, d in enumerate(h.prior_deltas)
    )
    return own + 2.0 * (dlt * (interf + residual)).real


def upsilon_factor(delta: complex, sigma_n_sq: float) -> float:
    """Noise scale sqrt(2) * sigma_n * |dlt| of the pairwise statistic."""
    if sigma_n_sq <= 0:
        raise ValueError(f"noise variance must be positive, got {sigma_n_sq}")
    return math.sqrt(2.0 * sigma_n_sq) * abs(delta)


def conditional_pep(
    h: ErrorHypothesis, alpha, P: float, sigma_n_sq: float, channel_mag: float
) -> float:
    """Pairwise error probability conditioned on the channel magnitude."""
    if channel_mag < 0:
        raise ValueError(f"channel magnitude must be non-negative, got {channel_mag}")
    beta = beta_factor(h, alpha, P)
    ups = upsilon_factor(h.delta, sigma_n_sq)
    return float(q_function(channel_mag * beta / ups))


def pep_user1_closed(gamma: float, zeta: float, sigma_h: float) -> float:
    """Closed-form Rayleigh-averaged pairwise error probability,

        0.5 * (1 - gamma*sigma_h / sqrt(2*zeta^2 + gamma^2*sigma_h^2)).

    Exact when sigma_h is the root-mean-square magnitude of the fading
    amplitude being averaged over (sigma_h^2 = E[|h|^2]).  For the
    weakest of L i.i.d. users pass sigma_h = sqrt(2*sigma_h_sq / L).
    """
    if zeta <= 0:
        raise ValueError(f"zeta must be positive, got {zeta}")
    if sigma_h <= 0:
        raise ValueError(f"sigma_h must be positive, got {sigma_h}")
    gs = gamma * sigma_h
    return 0.5 * (1.0 - gs / math.sqrt(2.0 * zeta**2 + gs**2))


def pep_user_l_closed(
    l: int, L: int, beta: float, upsilon: float, sigma_h: float
) -> float:
    """Verbatim closed-form sum for the l-th ordered user,

        L!/(sigma_h^2 (l-1)!(L-l)!) * sum_j C(l-1,j) (-1)^(2(l-1)-j)
          / [L-l+j+1] * (1 - beta*sigma_h / sqrt(beta^2 sigma_h^2
                                                 + [L-l+j+1] upsilon^2)).

    Kept exactly as printed; its 1/sigma_h^2 prefactor disagrees with the
    quadrature average by a constant factor, so the return value is a raw
    sum, not necessarily a probability.  pep_quadrature is authoritative;
    closed_form_consistency_report documents the observed ratio.
    """
    if not 1 <= l <= L:
        raise ValueError(f"user index {l} out of range 1..{L}")
    if upsilon <= 0 or sigma_h <= 0:
        raise ValueError("upsilon and sigma_h must be positive")
    pref = math.factorial(L) / (
        sigma_h**2 * math.factorial(l - 1) * math.factorial(L - l)
    )
    total = 0.0
    for j in range(l):
        c = L - l + j + 1
        sign = (-1.0) ** (2 * (l - 1) - j)
        bs = beta * sigma_h
        total += (
            math.comb(l - 1, j)
            * sign
            / c
            * (1.0 - bs / math.sqrt(bs**2 + c * upsilon**2))
        )
    return pref * total


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _pep_kernel(l: int, L: int, ratio: float, sigma_h_sq: float) -> float:
    """Unconditional PEP of the l-th of L ordered users at beta/upsilon.

    Evaluates the Craig-form product integral on the fixed nodes and maps
    r < 0 to 1 minus the value at |r|.  Memoized for the process: most
    hypotheses of an average share their beta/upsilon, and a non-finite
    input or result raises before anything is stored.
    """
    if not math.isfinite(ratio):
        raise NumericalError(
            f"beta/upsilon is not finite for user {l} of {L}: {ratio}"
        )
    x = sigma_h_sq * ratio * ratio
    if x > _X_OVERFLOW:
        # numpy would warn of the overflow; only so large an x pays for
        # silencing it
        with np.errstate(over="ignore"):
            pep = _craig_integral(l, L, x)
    else:
        pep = _craig_integral(l, L, x)
    if not math.isfinite(pep):
        raise NumericalError(
            f"pairwise error probability is not finite for user {l} of {L}"
        )
    return 1.0 - pep if ratio < 0 else pep


def _craig_integral(l: int, L: int, x: float) -> float:
    """The Craig-form product integral on the fixed nodes, for r >= 0 at
    x = sigma_h^2 r^2 (see _pep_kernel)."""
    factors = 1.0 / (1.0 + (x / L) * _CSC_SQ)
    for c in range(L - 1, L - l, -1):
        factors /= 1.0 + (x / c) * _CSC_SQ
    return float(_WEIGHTS @ factors)


def pep_quadrature(
    l: int, L: int, beta: float, upsilon: float, model: ChannelModel
) -> float:
    """Unconditional pairwise error probability of one hypothesis.

    Scalar entry to the package's single PEP kernel: the average of
    Q(beta*|h_l|/upsilon) over the l-th ordered Rayleigh magnitude, to a
    relative error below 1e-13.  Raises NumericalError when beta/upsilon
    or the result is not finite.
    """
    if not 1 <= l <= L:
        raise ValueError(f"user index {l} out of range 1..{L}")
    if L != model.num_users:
        raise ValueError(f"L={L} does not match model.num_users={model.num_users}")
    if upsilon <= 0:
        raise ValueError(f"upsilon must be positive, got {upsilon}")
    return _pep_kernel(l, L, float(beta) / float(upsilon), model.sigma_h_sq)


def average_pep(
    l: int,
    L: int,
    tx: int,
    rx: int,
    alpha,
    P: float,
    model: ChannelModel,
    constellation: Constellation,
    residuals=None,
    *,
    sigma_n_sq: float,
) -> float:
    """Pairwise error probability of user l averaged over hypotheses.

    Averages the PEP of the (tx, rx) symbol-index pair uniformly over all
    M^(L-l) weaker-user symbol tuples and over the stronger users' SIC
    residuals.  Calls are per hypothesis, and evaluations are per
    distinct beta/upsilon.
    residuals maps a tuple of l-1 complex residuals x_k - x_hat_k to its
    probability (the weights sum to 1); None means perfect SIC, the
    all-zero pattern with weight 1.
    sigma_n_sq is the receiver noise variance, which the SNR sets:
    P / 10**(snr_db/10) (SystemConfig.noise_var_for_snr).  model gives
    only the fading law.
    """
    if tx == rx:
        raise ValueError("tx and rx indices coincide; not a pairwise error event")
    if not 1 <= l <= L:
        raise ValueError(f"user index {l} out of range 1..{L}")
    if L != model.num_users:
        raise ValueError(f"L={L} does not match model.num_users={model.num_users}")
    a = _check_alpha(alpha, L)
    pts = constellation.points_array()
    m = constellation.size
    n_tuples = m ** (L - l)
    if n_tuples > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{n_tuples} interferer tuples exceed the enumeration cap "
            f"({ENUMERATION_CAP}); use the Monte Carlo simulator instead"
        )
    if residuals is None:  # perfect SIC
        residuals = {(0j,) * (l - 1): 1.0}
    if not residuals:
        raise ValueError("the residual table must not be empty")
    if any(len(pattern) != l - 1 for pattern in residuals):
        raise ValueError(
            f"residual patterns of user {l} must have length {l - 1}")
    weight_sum = sum(residuals.values())
    if not math.isclose(weight_sum, 1.0, abs_tol=1e-9):
        raise ValueError(f"residual weights must sum to 1, got {weight_sum}")
    dlt = complex(pts[tx] - pts[rx])
    ups = upsilon_factor(dlt, sigma_n_sq)
    amp = np.sqrt(a * P)

    # beta is affine in the symbols: the own term, one term per weaker
    # user's symbol and one per SIC residual pattern, so the weaker users'
    # terms of all tuples come from one Cartesian sum.
    proj = 2.0 * (dlt * pts.conj()).real
    interf = np.zeros(1)
    for n in range(l, L):
        interf = (interf[:, None] + amp[n] * proj).ravel()
    own = amp[l - 1] * abs(dlt) ** 2
    # Python floats: a huge or infinite residual makes an inf or NaN beta
    # without a numpy warning, and the kernel raises NumericalError for it
    amps = amp.tolist()
    total = 0.0
    for deltas, w in residuals.items():
        residual = 2.0 * (
            dlt * sum(a * d.conjugate() for a, d in zip(amps, deltas))
        ).real
        acc = 0.0
        for beta in (own + residual + interf).tolist():
            acc += pep_quadrature(l, L, beta, ups, model)
        total += float(w) * acc
    return total / n_tuples


def closed_form_consistency_report(
    sigma_h_sq: float = 0.5,
    max_users: int = 3,
    betas=(0.25, 0.5, 1.0, 2.0),
    upsilons=(0.05, 0.2, 1.0),
) -> list[dict]:
    """Tabulate the verbatim closed form against the kernel reference.

    One row per (l, L, beta, upsilon) with both values and their ratio.
    The ratio is expected to be constant in (beta, upsilon); its value
    documents the closed form's constant-prefactor discrepancy.
    """
    rows = []
    sigma_h = math.sqrt(sigma_h_sq)
    for L in range(1, max_users + 1):
        model_l = ChannelModel(num_users=L, sigma_h_sq=sigma_h_sq)
        for l in range(1, L + 1):
            for beta in betas:
                for ups in upsilons:
                    closed = pep_user_l_closed(l, L, beta, ups, sigma_h)
                    quadr = pep_quadrature(l, L, beta, ups, model_l)
                    rows.append(
                        {
                            "l": l,
                            "L": L,
                            "beta": beta,
                            "upsilon": ups,
                            "closed_form_verbatim": closed,
                            "quadrature": quadr,
                            "ratio": closed / quadr if quadr else math.inf,
                        }
                    )
    return rows
