"""High-SNR bounds and effective diversity estimation.

The conditional pairwise error probability Q(|h| beta / upsilon) is
bounded by exp(-gamma beta^2 / (4 |dlt|^2)) with gamma = |h|^2/sigma_n^2,
and averaging that bound over the ordered SNR density gives a closed
expression whose leading power of 1/gamma_bar is the user's diversity
order.
"""

from __future__ import annotations

import math

import numpy as np

from .pep import NumericalError

__all__ = [
    "chernoff_conditional",
    "chernoff_average",
    "pep_upper_bound",
    "effective_diversity",
]


def chernoff_conditional(gamma: float, beta: float, delta_abs_sq: float):
    """Exponential bound exp(-gamma * beta^2 / (4 * delta_abs_sq)).

    Dominates Q(|h| beta / upsilon) for beta >= 0; for negative beta the
    Gaussian tail exceeds 1/2 and the exponential no longer bounds it.
    """
    if delta_abs_sq <= 0:
        raise ValueError(f"delta_abs_sq must be positive, got {delta_abs_sq}")
    g = np.asarray(gamma, dtype=float)
    out = np.exp(-g * beta**2 / (4.0 * delta_abs_sq))
    return out if out.ndim else float(out)


def _check_args(l: int, L: int, gamma_bar: float):
    if not 1 <= l <= L:
        raise ValueError(f"user index {l} out of range 1..{L}")
    if gamma_bar <= 0:
        raise ValueError(f"gamma_bar must be positive, got {gamma_bar}")


def chernoff_average(
    l: int, L: int, gamma_bar: float, beta: float, delta_abs_sq: float
) -> float:
    """Exact average of the exponential bound over the ordered SNR density.

    The l-th ordered SNR is gamma_bar * sum_{i<=l} E_i/c_i with i.i.d.
    unit exponentials E_i and c_i = L-i+1 (Renyi), so the average is its
    moment generating function at b = beta^2/(4*delta_abs_sq),

        prod_{i<=l} c_i / (c_i + gamma_bar*b),

    a product of positive factors that stays accurate at any SNR where
    the equivalent alternating partial-fraction sum cancels.
    Upper-bounds the true unconditional PEP for beta >= 0.
    """
    _check_args(l, L, gamma_bar)
    if delta_abs_sq <= 0:
        raise ValueError(f"delta_abs_sq must be positive, got {delta_abs_sq}")
    b = beta**2 / (4.0 * delta_abs_sq)
    return math.prod(c / (c + gamma_bar * b) for c in range(L, L - l, -1))


def pep_upper_bound(
    l: int,
    L: int,
    gamma_bar: float,
    beta: float,
    delta_abs_sq: float,
    form: str = "rederived",
) -> float:
    """High-SNR double-sum bound on the unconditional PEP.

    Both variants replace exp(-gamma/gamma_bar) by (1 - gamma/gamma_bar)
    before integrating term by term; the linearization is only meaningful
    for gamma << gamma_bar, i.e. at high average SNR.

      rederived  each term carries (4*delta_abs_sq/beta^2)^(z-k+1), which
                 is what term-by-term integration produces; use this one
                 for diversity statements
      verbatim   the same sum with the factor (4*delta_abs_sq/beta^2)
                 unexponentiated, kept for reference; dimensionally
                 inconsistent across k

    The sum cancels catastrophically at high SNR, so it is taken exactly
    in rationals of the float inputs and rounded once; NumericalError is
    raised when the exact value is too large for a float.  Cross-check
    against chernoff_average, which integrates the bound without the
    linearization.
    """
    _check_args(l, L, gamma_bar)
    if form not in ("rederived", "verbatim"):
        raise ValueError(f"unknown form {form!r}")
    if beta == 0:
        raise ValueError("beta must be nonzero for the high-SNR bound")
    if delta_abs_sq <= 0:
        raise ValueError(f"delta_abs_sq must be positive, got {delta_abs_sq}")
    if not all(map(math.isfinite, (gamma_bar, beta, delta_abs_sq))):
        raise ValueError("gamma_bar, beta and delta_abs_sq must be finite")
    # loaded here, so that a run that evaluates no bound never loads
    # decimal, which fractions imports
    from fractions import Fraction
    g = Fraction(gamma_bar)
    inv_b = 4 * Fraction(delta_abs_sq) / Fraction(beta) ** 2
    a_l = math.factorial(L) // (math.factorial(l - 1) * math.factorial(L - l))
    total = Fraction(0)
    for j in range(l):
        z = j + L - l + 1
        for k in range(z + 1):
            term = (
                math.comb(l - 1, j)
                * math.comb(z, k)
                * (-1) ** (j + z + k)
                * g ** (k - z)
                * math.factorial(z - k)
            )
            if form == "rederived":
                term *= inv_b ** (z - k + 1)
            else:
                term *= inv_b
            total += term
    try:
        return float(a_l * total / g)
    except OverflowError:
        raise NumericalError(
            f"the {form} high-SNR bound of user {l} of {L} is too large "
            "for a float") from None


def effective_diversity(
    snr_db, pep, method: str = "finite_difference"
) -> np.ndarray:
    """Effective diversity estimates along a PEP curve, one per grid point.

    ratio_form         -log(pep) / log(gamma_bar) at each point, with
                       gamma_bar the linear-scale average SNR
    finite_difference  -dlog(pep)/dlog(gamma_bar) between consecutive
                       positive-PEP points, reported at the right one

    An entry is NaN where the estimate is undefined: the first point of
    a finite difference, a point with pep = 0, and the gamma_bar = 1
    point of the ratio form; nothing is warned.  Raises ValueError for
    a grid that is not strictly increasing, an SNR whose gamma_bar is
    not finite and positive (as linear_snr does), a pep outside [0, 1],
    fewer than two positive-PEP points, or an estimate that is not
    finite.
    """
    if method not in ("ratio_form", "finite_difference"):
        raise ValueError(f"unknown method {method!r}")
    snr = np.asarray(snr_db, dtype=float)
    pep = np.asarray(pep, dtype=float)
    if snr.ndim != 1 or snr.shape != pep.shape:
        raise ValueError("snr_db and pep must be 1-D arrays of equal length")
    if not np.all(np.diff(snr) > 0):
        raise ValueError("snr grid must be strictly increasing")
    with np.errstate(over="ignore", under="ignore"):
        gamma = 10.0 ** (snr / 10.0)
    in_range = np.isfinite(gamma) & (gamma > 0.0)
    if not np.all(in_range):
        raise ValueError(
            f"SNR {snr[~in_range][0]} dB is out of range: the linear SNR "
            "must be finite and positive")
    probability = (pep >= 0.0) & (pep <= 1.0)
    if not np.all(probability):
        raise ValueError(f"pep must be a probability, got {pep[~probability][0]}")
    keep = pep > 0
    if np.sum(keep) < 2:
        raise ValueError("need at least two positive-PEP points")
    at = np.flatnonzero(keep)
    log_g = np.log(gamma[keep])
    log_p = np.log(pep[keep])
    with np.errstate(divide="ignore", invalid="ignore"):
        if method == "ratio_form":
            unit = log_g == 0.0
            at, d_eff = at[~unit], -log_p[~unit] / log_g[~unit]
        else:
            at, d_eff = at[1:], -np.diff(log_p) / np.diff(log_g)
    if not np.all(np.isfinite(d_eff)):
        bad = d_eff[~np.isfinite(d_eff)][0]
        raise ValueError(f"d_eff must be finite, got {bad}")
    out = np.full(pep.size, np.nan)
    out[at] = d_eff
    return out
