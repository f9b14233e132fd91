import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from noma_pep import (
    ChannelModel,
    SystemConfig,
    average_pep,
    chernoff_average,
    chernoff_conditional,
    effective_diversity,
    ordered_snr_pdf,
    pep_upper_bound,
    q_function,
    qpsk_constellation,
)


def test_chernoff_conditional_values():
    assert chernoff_conditional(0.0, 1.0, 2.0) == 1.0
    assert chernoff_conditional(5.0, 0.0, 2.0) == 1.0
    # unit exponent
    assert abs(chernoff_conditional(8.0, 1.0, 2.0) - math.exp(-1.0)) < 1e-15
    with pytest.raises(ValueError):
        chernoff_conditional(1.0, 1.0, 0.0)


def test_chernoff_dominates_q_tail():
    # exp(-gamma beta^2/(4 dsq)) >= Q(m beta/upsilon) with
    # gamma = m^2/sn2 and upsilon^2 = 2 sn2 dsq, for beta >= 0.
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = rng.uniform(0, 3)
        beta = rng.uniform(0, 3)
        dsq = rng.uniform(0.5, 4)
        sn2 = rng.uniform(1e-4, 1.0)
        gamma = m**2 / sn2
        ups = math.sqrt(2 * sn2 * dsq)
        assert chernoff_conditional(gamma, beta, dsq) >= q_function(m * beta / ups)


def test_chernoff_average_closed_form_single_user():
    gbar, beta, dsq = 50.0, 0.8, 2.0
    b = beta**2 / (4 * dsq)
    assert abs(chernoff_average(1, 1, gbar, beta, dsq) - 1 / (1 + gbar * b)) < 1e-14


@pytest.mark.parametrize("l,L", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_chernoff_average_matches_quadrature(l, L):
    gbar, beta, dsq = 30.0, 0.7, 2.0
    b = beta**2 / (4 * dsq)
    val, _ = quad(
        lambda g: ordered_snr_pdf(l, L, gbar, g) * math.exp(-b * g),
        0, np.inf, limit=200,
    )
    assert abs(chernoff_average(l, L, gbar, beta, dsq) - val) < 1e-10


def test_upper_bound_single_user_forms():
    gbar, beta, dsq = 1e4, 1.0, 2.0
    b = beta**2 / (4 * dsq)
    x = gbar * b
    rederived = pep_upper_bound(1, 1, gbar, beta, dsq)
    assert abs(rederived - (1 / x - 1 / x**2)) < 1e-12 / x
    # approaches the exact exponential average at high SNR
    exact = chernoff_average(1, 1, gbar, beta, dsq)
    assert abs(rederived - exact) / exact < 1e-5


@pytest.mark.parametrize("l,L", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_upper_bound_matches_linearized_integral(l, L):
    # The double sum is the exact term-by-term integral of the bound with
    # exp(-gamma/gbar) linearized to (1 - gamma/gbar).
    gbar, beta, dsq = 200.0, 0.9, 2.0
    b = beta**2 / (4 * dsq)
    a_l = math.factorial(L) / (math.factorial(l - 1) * math.factorial(L - l))

    def integrand(g):
        total = 0.0
        for j in range(l):
            z = j + L - l + 1
            total += (
                math.comb(l - 1, j) * (-1.0) ** j / gbar
                * (1 - g / gbar) ** z * math.exp(-b * g)
            )
        return a_l * total

    val, _ = quad(integrand, 0, 60 * gbar, limit=400)
    got = pep_upper_bound(l, L, gbar, beta, dsq)
    assert abs(got - val) < 1e-8 * max(abs(got), 1e-12)


def test_upper_bound_truncated_oracle_high_snr():
    # The linearization is only valid for gamma << gbar; truncating the
    # integral at gbar changes nothing at high SNR because exp(-b*gbar)
    # is negligible there.
    l, L = 2, 3
    gbar, beta, dsq = 1e4, 1.0, 2.0
    b = beta**2 / (4 * dsq)
    a_l = math.factorial(L) / (math.factorial(l - 1) * math.factorial(L - l))

    def integrand(g):
        total = 0.0
        for j in range(l):
            z = j + L - l + 1
            total += (
                math.comb(l - 1, j) * (-1.0) ** j / gbar
                * (1 - g / gbar) ** z * math.exp(-b * g)
            )
        return a_l * total

    truncated, _ = quad(integrand, 0, gbar, limit=400)
    got = pep_upper_bound(l, L, gbar, beta, dsq)
    assert abs(got - truncated) / truncated < 1e-6


def test_upper_bound_verbatim_differs_dimensionally():
    # The unexponentiated factor makes the verbatim form disagree with
    # the defining integral except when 4*dsq/beta^2 happens to be 1.
    gbar, beta, dsq = 1e3, 1.0, 2.0
    reder = pep_upper_bound(2, 3, gbar, beta, dsq, form="rederived")
    verb = pep_upper_bound(2, 3, gbar, beta, dsq, form="verbatim")
    assert not math.isclose(reder, verb, rel_tol=1e-3)
    with pytest.raises(ValueError):
        pep_upper_bound(2, 3, gbar, beta, dsq, form="bogus")


def test_upper_bound_slope_approaches_order():
    beta, dsq = 1.0, 2.0
    for l, L in [(1, 3), (2, 3), (3, 3)]:
        b1 = pep_upper_bound(l, L, 10**4.0, beta, dsq)
        b2 = pep_upper_bound(l, L, 10**4.5, beta, dsq)
        slope = -(math.log10(b2) - math.log10(b1)) / 0.5
        assert abs(slope - l) < 0.1


def test_upper_bound_vanishes_at_infinite_snr():
    assert pep_upper_bound(2, 3, 1e12, 1.0, 2.0) < 1e-9


def _mp_chernoff_average(l, L, x):
    """The partial-fraction form A_l sum_j C(l-1,j) (-1)^j / (z_j + x),
    with x = gamma_bar*b, at a precision that absorbs its cancellation."""
    with mpmath.workdps(150):
        total = sum(mpmath.binomial(l - 1, j) * (-1) ** j
                    / (j + L - l + 1 + mpmath.mpf(x)) for j in range(l))
        return l * mpmath.binomial(L, l) * total


def _mp_upper_bound(l, L, x):
    """The linearized bound integrated term by term: for each density term
    int_0^inf (1 - t)^z e^(-x t) dt = sum_k C(z,k) (-1)^k k! / x^(k+1)."""
    with mpmath.workdps(150):
        x = mpmath.mpf(x)
        total = 0
        for j in range(l):
            z = j + L - l + 1
            total += mpmath.binomial(l - 1, j) * (-1) ** j * sum(
                mpmath.binomial(z, k) * (-1) ** k * mpmath.factorial(k)
                / x ** (k + 1) for k in range(z + 1))
        return l * mpmath.binomial(L, l) * total


@pytest.mark.parametrize("L", range(1, 11))
def test_bounds_positive_and_accurate_up_to_100_db(L):
    # b = beta^2/(4 dsq) = 1/8 exactly; the alternating sums cancel about
    # (gamma_bar*b)^(l-1), which once drove both bounds negative.
    beta, dsq = 1.0, 2.0
    for snr in range(0, 101, 10):
        gbar = 10.0 ** (snr / 10)
        x = mpmath.mpf(gbar) / 8
        for l in range(1, L + 1):
            exact = _mp_chernoff_average(l, L, x)
            got = chernoff_average(l, L, gbar, beta, dsq)
            assert got > 0 and abs(got - exact) <= 1e-12 * exact, (l, snr)
            if gbar / 8 < 10:  # outside the linearization's validity region
                continue
            exact = _mp_upper_bound(l, L, x)
            got = pep_upper_bound(l, L, gbar, beta, dsq)
            assert got > 0 and abs(got - exact) <= 1e-12 * exact, (l, snr)


def test_effective_diversity_exact_power_law():
    snrs = [10.0, 15.0, 20.0, 25.0]
    peps = [10 ** (-s / 10) for s in snrs]  # PEP = 1/gbar
    fd = effective_diversity(snrs, peps, "finite_difference")
    assert fd.shape == (4,) and math.isnan(fd[0])
    assert np.all(np.abs(fd[1:] - 1.0) < 1e-12)
    ratio = effective_diversity(snrs, peps, "ratio_form")
    assert np.all(np.abs(ratio - 1.0) < 1e-12)


def test_effective_diversity_power_law_with_constant():
    snrs = [20.0, 40.0, 60.0, 80.0, 100.0]
    c0 = 2.0
    peps = [c0 * (10 ** (-3 * s / 10)) for s in snrs]
    fd = effective_diversity(snrs, peps, "finite_difference")
    assert np.all(np.abs(fd[1:] - 3.0) < 1e-12)
    ratio = effective_diversity(snrs, peps, "ratio_form")
    # converges to 3 from below as gbar grows
    assert np.all(np.diff(ratio) > 0)
    assert abs(ratio[-1] - 3.0) < 0.05


def test_effective_diversity_skips_zero_pep():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = effective_diversity([10.0, 20.0, 30.0], [1e-2, 0.0, 1e-4],
                                  "finite_difference")
    # the difference spans the zero point and is reported at 30 dB
    assert np.isnan(est[:2]).all()
    assert abs(est[2] - 1.0) < 1e-12
    assert caught == []


def test_effective_diversity_zero_pep_between_positive_points():
    snrs = [10.0, 20.0, 30.0, 40.0]
    peps = [1e-1, 1e-3, 0.0, 1e-7]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fd = effective_diversity(snrs, peps, "finite_difference")
        ratio = effective_diversity(snrs, peps, "ratio_form")
    assert caught == []
    assert math.isnan(fd[0]) and math.isnan(fd[2])
    assert abs(fd[1] - 2.0) < 1e-12
    assert abs(fd[3] - 2.0) < 1e-12  # 20 -> 40 dB, across the gap
    assert math.isnan(ratio[2])
    assert np.all(np.abs(ratio[[0, 1, 3]] - [1.0, 1.5, 1.75]) < 1e-12)


@pytest.mark.parametrize("method", ["finite_difference", "ratio_form"])
@pytest.mark.parametrize("snrs,peps", [
    ([0.0, 10.0, 4000.0], [0.1, 0.01, 1e-5]),  # 10**400 overflows
    ([-4000.0, 10.0, 20.0], [0.1, 0.01, 1e-5]),  # 10**-400 underflows
])
def test_effective_diversity_rejects_out_of_range_snr(snrs, peps, method):
    # These grids used to read slopes of 0 (or -0.0) without a word.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="SNR .* out of range"):
            effective_diversity(snrs, peps, method)


def test_effective_diversity_gamma_bar_one_reads_nan():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ratio = effective_diversity([0.0, 10.0], [0.5, 1e-2], "ratio_form")
    assert math.isnan(ratio[0]) and abs(ratio[1] - 2.0) < 1e-12
    assert caught == []


def test_effective_diversity_validation():
    with pytest.raises(ValueError, match="two positive-PEP"):
        effective_diversity([10.0], [1e-2])
    with pytest.raises(ValueError, match="two positive-PEP"):
        effective_diversity([10.0, 20.0], [1e-2, 0.0])
    with pytest.raises(ValueError, match="unknown method"):
        effective_diversity([10.0, 20.0], [1e-2, 1e-3], method="slope")
    for snrs in ([20.0, 10.0], [10.0, 10.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            effective_diversity(snrs, [1e-2, 1e-3])
    for bad in (-1e-3, 1.5, math.nan):
        with pytest.raises(ValueError, match="probability"):
            effective_diversity([10.0, 20.0], [1e-2, bad])
    # both points sit at gamma_bar = 1 in double precision: 0/0 slope
    with pytest.raises(ValueError, match="d_eff must be finite"):
        effective_diversity([0.0, 1e-300], [0.3, 0.3])


def test_noma_curve_diversity_monotone():
    # Pair-averaged perfect-SIC curves: the finite-difference diversity
    # climbs toward the user order over 20..40 dB.
    cfg = SystemConfig(alpha=(0.7, 0.2, 0.1), P=1.0,
                       channel=ChannelModel(sigma_h_sq=0.5),
                       constellation=qpsk_constellation(1.0))
    snrs = [20.0, 25.0, 30.0, 35.0, 40.0]
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    for l in (1, 2, 3):
        peps = []
        for snr in snrs:
            peps.append(
                float(np.mean([average_pep(cfg, snr, l, a, b)
                               for a, b in pairs]))
            )
        fd = effective_diversity(snrs, peps, "finite_difference")[1:]
        assert all(b >= a - 1e-9 for a, b in zip(fd, fd[1:]))
        assert abs(fd[-1] - l) < 0.25
