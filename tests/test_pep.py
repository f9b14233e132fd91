import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import noma_pep.pep as pep_mod
from noma_pep import (
    ChannelModel,
    Constellation,
    EnumerationCapError,
    ErrorHypothesis,
    NumericalError,
    SystemConfig,
    average_pep,
    beta_factor,
    closed_form_consistency_report,
    conditional_pep,
    ordered_magnitude_pdf,
    pair_classes,
    pep_quadrature,
    pep_table,
    pep_user1_closed,
    pep_user_l_closed,
    q_function,
    qpsk_constellation,
    upsilon_factor,
)

S = 1 / math.sqrt(2)
X0 = complex(S, S)
X1 = complex(-S, S)
X2 = complex(-S, -S)


def test_q_function_values():
    assert q_function(0.0) == 0.5
    # independent tail oracle
    assert abs(q_function(3.0) - norm.sf(3.0)) < 1e-15
    assert abs(q_function(3.0) - 1.3499e-3) < 1e-7
    assert abs(q_function(-1.0) - (1 - norm.sf(1.0))) < 1e-15


def test_gamma_no_interferers_is_delta_sq():
    h = ErrorHypothesis(user=1, tx_symbol=X0, detected_symbol=X1)
    # delta = sqrt(2), |delta|^2 = 2
    assert abs(beta_factor(h, (1.0,), 1.0) - 2.0) < 1e-12


def test_gamma_two_user_hand_value():
    h = ErrorHypothesis(
        user=1, tx_symbol=X0, detected_symbol=X1, interferer_symbols=(X0,)
    )
    got = beta_factor(h, (0.8, 0.2), 1.0)
    # brute-force complex arithmetic, written out independently
    delta = X0 - X1
    expected = math.sqrt(0.8) * abs(delta) ** 2 + 2 * (
        delta * (math.sqrt(0.2) * X0.conjugate())
    ).real
    assert abs(got - expected) < 1e-12
    assert abs(expected - (2 * math.sqrt(0.8) + 2 * math.sqrt(0.2))) < 1e-12


def test_degenerate_pair_rejected():
    with pytest.raises(ValueError):
        ErrorHypothesis(user=1, tx_symbol=X0, detected_symbol=X0)


def test_beta_last_user_perfect_sic():
    h = ErrorHypothesis(
        user=3, tx_symbol=X0, detected_symbol=X2, prior_deltas=(0j, 0j)
    )
    beta = beta_factor(h, (0.7, 0.2, 0.1), 1.0)
    assert abs(beta - math.sqrt(0.1) * 4.0) < 1e-12


def test_beta_three_user_hand_value():
    h = ErrorHypothesis(
        user=2,
        tx_symbol=X0,
        detected_symbol=X1,
        interferer_symbols=(X0,),
        prior_deltas=(0j,),
    )
    got = beta_factor(h, (0.7, 0.2, 0.1), 1.0)
    delta = X0 - X1
    expected = (
        math.sqrt(0.2) * abs(delta) ** 2
        + 2 * (delta * (math.sqrt(0.1) * X0.conjugate())).real
    )
    assert abs(got - expected) < 1e-12


def test_beta_with_residual_terms():
    d1 = X0 - X1
    h = ErrorHypothesis(
        user=2,
        tx_symbol=X0,
        detected_symbol=X1,
        interferer_symbols=(X2,),
        prior_deltas=(d1,),
    )
    got = beta_factor(h, (0.7, 0.2, 0.1), 1.0)
    delta = X0 - X1
    expected = math.sqrt(0.2) * abs(delta) ** 2 + 2 * (
        (delta * (math.sqrt(0.1) * X2.conjugate())).real
        + (delta * (math.sqrt(0.7) * d1.conjugate())).real
    )
    assert abs(got - expected) < 1e-12


def test_beta_length_validation():
    h = ErrorHypothesis(user=2, tx_symbol=X0, detected_symbol=X1,
                        interferer_symbols=(X2,), prior_deltas=(0j,))
    with pytest.raises(ValueError):
        beta_factor(h, (0.7, 0.3), 1.0)  # expects 3 coefficients


def test_conditional_pep_edges():
    h = ErrorHypothesis(user=1, tx_symbol=X0, detected_symbol=X1)
    assert conditional_pep(h, (1.0,), 1.0, 0.5, 0.0) == 0.5
    # choose magnitude so that the Q argument is exactly 3
    beta = beta_factor(h, (1.0,), 1.0)
    ups = upsilon_factor(X0 - X1, 0.5)
    mag = 3.0 * ups / beta
    got = conditional_pep(h, (1.0,), 1.0, 0.5, mag)
    assert abs(got - norm.sf(3.0)) < 1e-13
    with pytest.raises(ValueError):
        conditional_pep(h, (1.0,), 1.0, 0.5, -1.0)


def test_user1_closed_values():
    assert pep_user1_closed(0.0, 1.0, 1.0) == 0.5
    expected = 0.5 * (1 - 2 / math.sqrt(6.0))
    assert abs(pep_user1_closed(2.0, 1.0, 1.0) - expected) < 1e-12
    assert abs(expected - 0.091752) < 5e-7
    # noiseless limit
    assert pep_user1_closed(2.0, 1e-12, 1.0) < 1e-20
    with pytest.raises(ValueError):
        pep_user1_closed(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        pep_user1_closed(1.0, 1.0, -1.0)


def test_user1_closed_monotonicity():
    gammas = np.linspace(0.1, 5, 40)
    vals = [pep_user1_closed(g, 1.0, 1.0) for g in gammas]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    zetas = np.linspace(0.1, 5, 40)
    vals = [pep_user1_closed(1.0, z, 1.0) for z in zetas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_user1_closed_high_snr_slope():
    # PEP ~ zeta^2/(gamma^2 sigma^2) at high ratio: slope -1 versus 1/SNR
    # since zeta^2 is proportional to the noise variance.
    g, sh = 2.0, 1.0
    z1, z2 = 1e-3, 1e-4  # one decade of SNR
    p1 = pep_user1_closed(g, z1, sh)
    p2 = pep_user1_closed(g, z2, sh)
    slope = (math.log10(p1) - math.log10(p2)) / 2.0  # zeta^2 spans 2 decades
    assert abs(slope - 1.0) < 0.01


def test_user_l_closed_single_user_form():
    beta, ups, sh = 0.8, 0.3, 0.9
    got = pep_user_l_closed(1, 1, beta, ups, sh)
    expected = (1 / sh**2) * (
        1 - beta * sh / math.sqrt(beta**2 * sh**2 + ups**2)
    )
    assert abs(got - expected) < 1e-14


def test_user_l_closed_beta_zero():
    sh = 0.8
    for l, L in [(1, 1), (2, 3), (3, 3)]:
        got = pep_user_l_closed(l, L, 0.0, 0.5, sh)
        coef = math.factorial(L) / (
            sh**2 * math.factorial(l - 1) * math.factorial(L - l)
        )
        expected = coef * sum(
            math.comb(l - 1, j) * (-1.0) ** j / (L - l + j + 1) for j in range(l)
        )
        assert abs(got - expected) < 1e-14


def test_sign_parity_identity():
    for l in range(1, 6):
        for j in range(l):
            assert (-1.0) ** (2 * (l - 1) - j) == (-1.0) ** j


def test_quadrature_beta_zero_is_half():
    model = ChannelModel(sigma_h_sq=0.5)
    for L in (1, 2, 3):
        for l in range(1, L + 1):
            assert abs(pep_quadrature(l, L, 0.0, 0.3, model) - 0.5) < 1e-9


def test_quadrature_matches_mapped_closed_form():
    # The weakest of L Rayleigh users is Rayleigh with E[|h|^2] = 2*s2/L;
    # the closed form is exact with sigma_h = sqrt(E[|h|^2]).
    model = ChannelModel(sigma_h_sq=0.5)
    for L in (1, 2, 4):
        mapped = math.sqrt(2 * 0.5 / L)
        for beta in (0.3, 1.0, 2.5):
            for ups in (0.05, 0.4):
                q = pep_quadrature(1, L, beta, ups, model)
                cf = pep_user1_closed(beta, ups, mapped)
                assert abs(q - cf) < 1e-9


def test_quadrature_decreasing_in_beta():
    model = ChannelModel(sigma_h_sq=0.5)
    betas = np.linspace(0.05, 3, 25)
    vals = [pep_quadrature(2, 3, b, 0.2, model) for b in betas]
    assert all(0 <= v <= 1 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_quadrature_against_sampling_oracle():
    # One sorted 1e7-sample draw per L serves every rank l: the column
    # means of Q(beta*mag/upsilon) are the Monte Carlo estimates of the
    # ordered averages the quadrature computes.  |h|^2 of a circular
    # Gaussian gain is exponential with mean 2 sigma_h^2, so the draw
    # sorts scaled standard exponentials instead of Gaussian magnitudes;
    # it does not use the simulator's spacings (Renyi) either.
    n = 10_000_000
    model = ChannelModel(sigma_h_sq=0.5)
    for L in (1, 2, 3, 4):
        gains = np.random.default_rng(50 + L).standard_exponential((n, L))
        gains.sort(axis=1)
        gains *= 2.0 * model.sigma_h_sq
        mags = np.sqrt(gains, out=gains)
        for l in range(1, L + 1):
            for beta, ups in ((0.9, 0.25), (0.3, 0.6)):
                draws = q_function(mags[:, l - 1] * beta / ups)
                mc = float(np.mean(draws))
                se = float(np.std(draws) / math.sqrt(n))
                q = pep_quadrature(l, L, beta, ups, model)
                assert abs(q - mc) < 3 * se, (l, L, beta, ups, q, mc, se)


def test_high_snr_user_ordering():
    # Averaged over interferer tuples at high SNR, weaker users (lower
    # diversity, more interference) keep strictly larger error rates.
    c = qpsk_constellation(1.0)
    alpha = (0.7, 0.2, 0.1)
    for snr_db in (30.0, 40.0):
        model = ChannelModel(sigma_h_sq=0.5)
        peps = [
            average_pep(l, 3, 0, 1, alpha, 1.0, model, c,
                        sigma_n_sq=10 ** (-snr_db / 10))
            for l in (1, 2, 3)
        ]
        assert peps[0] > peps[1] > peps[2]


def test_quadrature_negative_beta():
    model = ChannelModel(sigma_h_sq=0.5)
    v = pep_quadrature(1, 2, -0.8, 0.2, model)
    w = pep_quadrature(1, 2, 0.8, 0.2, model)
    assert abs((v + w) - 1.0) < 1e-9  # Q(-x) = 1 - Q(x) under the average
    assert v > 0.5


def test_average_pep_last_user_singleton():
    c = qpsk_constellation(1.0)
    model = ChannelModel(sigma_h_sq=0.5)
    alpha = (0.7, 0.2, 0.1)
    got = average_pep(3, 3, 0, 1, alpha, 1.0, model, c, sigma_n_sq=1e-2)
    beta = math.sqrt(0.1) * 2.0
    ups = upsilon_factor(c.points[0] - c.points[1], 1e-2)
    assert abs(got - pep_quadrature(3, 3, beta, ups, model)) < 1e-12


def test_average_pep_rotation_symmetry():
    # Rotating the whole constellation by 90 degrees maps index i to i+1
    # (mod 4) under the fixed Gray layout, so tuple-averaged PEP values
    # are identical for rotated pairs.
    c = qpsk_constellation(1.0)
    model = ChannelModel(sigma_h_sq=0.5)
    alpha = (0.8, 0.2)
    base = average_pep(1, 2, 0, 1, alpha, 1.0, model, c, sigma_n_sq=1e-2)
    for k in (1, 2, 3):
        rot = average_pep(1, 2, k, (k + 1) % 4, alpha, 1.0, model, c,
                          sigma_n_sq=1e-2)
        assert abs(rot - base) < 1e-12


def test_average_pep_below_half_above_zero_db():
    c = qpsk_constellation(1.0)
    alpha = (0.7, 0.2, 0.1)
    model = ChannelModel(sigma_h_sq=0.5)
    for snr_db in (1.0, 10.0, 20.0):
        for l in (1, 2, 3):
            v = average_pep(l, 3, 0, 1, alpha, 1.0, model, c,
                            sigma_n_sq=10 ** (-snr_db / 10))
            assert 0.0 < v < 0.5


def test_average_pep_rejects_degenerate_pair():
    c = qpsk_constellation(1.0)
    model = ChannelModel(sigma_h_sq=0.5)
    with pytest.raises(ValueError):
        average_pep(1, 2, 0, 0, (0.8, 0.2), 1.0, model, c, sigma_n_sq=1e-2)


def test_average_pep_needs_the_noise_variance():
    # the channel model holds no noise level, so none can be assumed
    c = qpsk_constellation(1.0)
    model = ChannelModel(sigma_h_sq=0.5)
    with pytest.raises(TypeError, match="sigma_n_sq"):
        average_pep(1, 2, 0, 1, (0.8, 0.2), 1.0, model, c)


def test_average_pep_enumeration_cap(monkeypatch):
    c = qpsk_constellation(1.0)
    model = ChannelModel(sigma_h_sq=0.5)
    monkeypatch.setattr(pep_mod, "ENUMERATION_CAP", 10)
    with pytest.raises(EnumerationCapError):
        average_pep(1, 3, 0, 1, (0.7, 0.2, 0.1), 1.0, model, c,
                    sigma_n_sq=1e-2)


def test_average_pep_weighted_validation():
    c = qpsk_constellation(1.0)
    model = ChannelModel(sigma_h_sq=0.5)
    with pytest.raises(ValueError, match="empty"):
        average_pep(2, 2, 0, 1, (0.8, 0.2), 1.0, model, c, residuals={},
                    sigma_n_sq=1e-2)
    with pytest.raises(ValueError, match="sum to 1"):
        average_pep(2, 2, 0, 1, (0.8, 0.2), 1.0, model, c,
                    residuals={(0j,): 0.5}, sigma_n_sq=1e-2)
    with pytest.raises(ValueError, match="length 1"):
        average_pep(2, 2, 0, 1, (0.8, 0.2), 1.0, model, c,
                    residuals={(): 1.0}, sigma_n_sq=1e-2)


@pytest.mark.parametrize("alpha", [(math.nan, 0.2), (0.8, math.nan),
                                   (0.8, 0.0), (-0.8, 0.2)])
def test_average_pep_rejects_nonpositive_or_nan_alpha(alpha):
    c = qpsk_constellation(1.0)
    model = ChannelModel(sigma_h_sq=0.5)
    for l in (1, 2):
        with pytest.raises(ValueError, match="must be positive"):
            average_pep(l, 2, 0, 1, alpha, 1.0, model, c, sigma_n_sq=1e-2)
    with pytest.raises(ValueError, match="must be positive"):
        beta_factor(ErrorHypothesis(1, X0, X1, (X0,)), alpha, 1.0)


def test_average_pep_pair_cache_is_keyed_by_alphabet():
    # the cached pair constants of two alphabets, used interleaved, give
    # each call the value a fresh computation gives
    alphabets = [qpsk_constellation(1.0), qpsk_constellation(2.0)]
    model = ChannelModel(sigma_h_sq=0.5)
    residuals = {(0j,): 0.75, (complex(1, 1),): 0.25}
    calls = [(l, tx, rx, c, residuals if l == 2 else None)
             for tx, rx in itertools.permutations(range(4), 2)
             for l in (1, 2) for c in alphabets]

    def value(l, tx, rx, c, res):
        return average_pep(l, 2, tx, rx, (0.8, 0.2), 1.0, model, c, res,
                           sigma_n_sq=1e-2)

    interleaved = [value(*call) for call in calls]
    for call, got in zip(calls, interleaved):
        pep_mod._pair.cache_clear()
        pep_mod._pep_kernel.cache_clear()
        assert value(*call) == got, call
    assert interleaved[0] != interleaved[1]  # the alphabets differ


def test_weighted_mode_mixes_linearly():
    c = qpsk_constellation(1.0)
    model = ChannelModel(sigma_h_sq=0.5)
    alpha = (0.8, 0.2)
    d = complex(c.points[0] - c.points[1])
    p_perfect = average_pep(2, 2, 0, 1, alpha, 1.0, model, c,
                            sigma_n_sq=1e-2)
    p_pattern = average_pep(2, 2, 0, 1, alpha, 1.0, model, c,
                            residuals={(d,): 1.0}, sigma_n_sq=1e-2)
    mixed = average_pep(2, 2, 0, 1, alpha, 1.0, model, c,
                        residuals={(0j,): 0.75, (d,): 0.25}, sigma_n_sq=1e-2)
    assert abs(mixed - (0.75 * p_perfect + 0.25 * p_pattern)) < 1e-12


def test_consistency_report_constant_ratio():
    rows = closed_form_consistency_report(sigma_h_sq=0.5)
    ratios = np.array([r["ratio"] for r in rows])
    assert np.max(np.abs(ratios - ratios.mean())) < 1e-6 * abs(ratios.mean())
    # the observed constant equals 2/sigma_h_sq for the verbatim prefactor
    assert abs(ratios.mean() - 2 / 0.5) < 1e-6


# ------------------------------------------------- kernel accuracy oracles


def _mpmath_pep(l, L, r, sigma_h_sq):
    """Partial-fraction closed form of the ordered-user PEP in mpmath.

    The l-th smallest of L exponential SNRs has a density that is an
    alternating sum of exponentials; each term averages Q in closed form.
    Past r ~ 1e3 the sum cancels about 50 digits, hence the 220-digit
    working precision.
    """
    with mpmath.workdps(220):
        r = mpmath.mpf(r)
        s2 = mpmath.mpf(sigma_h_sq)
        total = mpmath.mpf(0)
        for j in range(l):
            z = L - l + j + 1
            g = r * r * s2 / z
            # 1 - sqrt(g/(1+g)) without the cancellation at large g
            tail = 1 / ((1 + g) * (1 + mpmath.sqrt(g / (1 + g))))
            total += mpmath.binomial(l - 1, j) * (-1) ** j * tail / (2 * z)
        pep = mpmath.factorial(L) / (
            mpmath.factorial(l - 1) * mpmath.factorial(L - l)) * total
        return 1 - pep if r < 0 else pep


def _quad_pep(l, L, model, r):
    """The ordered magnitude density times Q, integrated by scipy quad."""
    upper = math.sqrt(2.0 * model.sigma_h_sq * 90.0)
    pts = [math.sqrt(model.sigma_h_sq)]
    if r:
        w_q = 1.0 / abs(r)
        if w_q < upper:
            pts += [w_q, min(6.0 * w_q, 0.999 * upper)]
    value, _ = quad(
        lambda w: ordered_magnitude_pdf(l, L, model, w) * q_function(r * w),
        0.0, upper, epsabs=0.0, epsrel=1e-13, limit=400,
        points=sorted(set(pts)),
    )
    return value


RATIOS = [0.0] + [s * 10.0**k for k in range(-8, 4) for s in (1.0, -1.0)]


@pytest.mark.parametrize("sigma_h_sq", [0.5, 1.0])
def test_kernel_matches_mpmath_oracle(sigma_h_sq):
    worst = 0.0
    model = ChannelModel(sigma_h_sq=sigma_h_sq)
    for L in range(1, 11):
        for l in range(1, L + 1):
            for r in RATIOS:
                exact = _mpmath_pep(l, L, r, sigma_h_sq)
                got = pep_quadrature(l, L, r, 1.0, model)
                worst = max(worst, float(abs(got - exact) / exact))
    assert worst < 1e-12, worst


def test_kernel_matches_quad_oracle():
    for sigma_h_sq in (0.5, 1.0):
        model = ChannelModel(sigma_h_sq=sigma_h_sq)
        for L in range(1, 5):
            for l in range(1, L + 1):
                for r in (-2.0, -0.1, 0.0, 0.05, 0.3, 1.0, 3.0, 10.0, 30.0):
                    ref = _quad_pep(l, L, model, r)
                    got = pep_quadrature(l, L, r, 1.0, model)
                    assert abs(got - ref) <= 1e-10 * ref, (l, L, r, got, ref)


@pytest.mark.parametrize("beta, ups", [(math.nan, 0.3), (math.inf, 0.3),
                                       (-math.inf, 0.3), (0.5, math.nan)])
def test_quadrature_non_finite_ratio_raises(beta, ups):
    model = ChannelModel(sigma_h_sq=0.5)
    with pytest.raises(NumericalError):
        pep_quadrature(1, 2, beta, ups, model)


def test_average_pep_non_finite_power_raises():
    c = qpsk_constellation(1.0)
    model = ChannelModel(sigma_h_sq=0.5)
    with pytest.raises(NumericalError):
        average_pep(1, 2, 0, 1, (0.8, 0.2), math.nan, model, c,
                    sigma_n_sq=1e-2)


# ------------------------------------------------- per-process kernel memo


def test_kernel_memo_returns_the_cold_value():
    c = qpsk_constellation(1.0)
    model = ChannelModel(sigma_h_sq=0.5)
    args = (1, 3, 0, 1, (0.7, 0.2, 0.1), 1.0, model, c)
    pep_mod._pep_kernel.cache_clear()
    cold = average_pep(*args, sigma_n_sq=1e-2)
    misses = pep_mod._pep_kernel.cache_info().misses
    warm = average_pep(*args, sigma_n_sq=1e-2)
    info = pep_mod._pep_kernel.cache_info()
    assert warm == cold
    assert info.hits > 0 and info.misses == misses


@pytest.mark.parametrize("ratio, sigma_h_sq", [(math.nan, 0.5), (math.inf, 0.5),
                                               (-math.inf, 0.5),
                                               (0.5, math.nan)])
def test_kernel_memo_stores_no_failure(ratio, sigma_h_sq):
    pep_mod._pep_kernel.cache_clear()
    for _ in range(2):
        with pytest.raises(NumericalError):
            pep_mod._pep_kernel(1, 2, ratio, sigma_h_sq)
    assert pep_mod._pep_kernel.cache_info().currsize == 0


def test_kernel_memo_bound():
    assert pep_mod._pep_kernel.cache_info().maxsize == 1 << 16


# ------------------------------- hypothesis averaging against the old loop


def _looped_average_pep(l, L, tx, rx, alpha, P, model, c, patterns,
                        sigma_n_sq):
    """One ErrorHypothesis and one scalar PEP per interferer tuple."""
    pts = [complex(p) for p in c.points]
    ups = upsilon_factor(pts[tx] - pts[rx], sigma_n_sq)
    total = 0.0
    for weight, deltas in patterns:
        acc = 0.0
        for combo in itertools.product(range(c.size), repeat=L - l):
            h = ErrorHypothesis(
                user=l, tx_symbol=pts[tx], detected_symbol=pts[rx],
                interferer_symbols=tuple(pts[i] for i in combo),
                prior_deltas=deltas,
            )
            acc += pep_quadrature(l, L, beta_factor(h, alpha, P), ups, model)
        total += weight * acc / c.size ** (L - l)
    return total


@pytest.mark.parametrize("L", [3, 4])
@pytest.mark.parametrize("mode", ["perfect", "pattern", "weighted"])
def test_average_pep_matches_per_tuple_loop(L, mode):
    c = qpsk_constellation(1.0)
    alpha = tuple(np.array([2.0 ** (L - i) for i in range(L)]) / (2**L - 1))
    pts = [complex(p) for p in c.points]
    diffs = [0j] + [a - b for a in pts for b in pts if a != b]
    rng = np.random.default_rng(7 + L)
    worst = 0.0
    model = ChannelModel(sigma_h_sq=0.5)
    for snr_db in (0.0, 20.0, 40.0):
        sigma_n_sq = 10 ** (-snr_db / 10)
        for l in range(1, L + 1):
            if mode == "perfect":
                table = None
                patterns = [(1.0, (0j,) * (l - 1))]
            elif mode == "pattern":
                deltas = tuple(diffs[i] for i in rng.integers(1, 13, l - 1))
                table = {deltas: 1.0}
                patterns = [(1.0, deltas)]
            else:
                table = {}
                for _ in range(4):
                    key = tuple(diffs[i] for i in rng.integers(0, 13, l - 1))
                    table[key] = table.get(key, 0.0) + 0.25
                patterns = list((w, k) for k, w in table.items())
            for tx, rx in ((0, 1), (0, 2), (3, 1)):
                old = _looped_average_pep(l, L, tx, rx, alpha, 1.0, model, c,
                                          patterns, sigma_n_sq)
                new = average_pep(l, L, tx, rx, alpha, 1.0, model, c, table,
                                  sigma_n_sq=sigma_n_sq)
                worst = max(worst, abs(new - old) / old)
    assert worst < 1e-13, worst


def test_qpsk_pair_classes_are_the_adjacent_and_the_diagonal_pairs():
    adjacent = [(0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (3, 2)]
    diagonal = [(0, 2), (1, 3), (2, 0), (3, 1)]
    for power in (1.0, 2.0, 0.3):
        assert pair_classes(qpsk_constellation(power)) == [adjacent, diagonal]


def test_pair_classes_follow_the_geometry():
    # a rectangle has no 90-degree symmetry: its horizontal, vertical and
    # diagonal pairs differ by |delta|, so they make three classes
    rectangle = Constellation(
        points=(1 + 0.5j, -1 + 0.5j, -1 - 0.5j, 1 - 0.5j),
        bit_labels=("00", "01", "11", "10"), avg_power=1.25)
    assert pair_classes(rectangle) == [[(0, 1), (1, 0), (2, 3), (3, 2)],
                                       [(0, 2), (1, 3), (2, 0), (3, 1)],
                                       [(0, 3), (1, 2), (2, 1), (3, 0)]]
    # points with no symmetry at all: (tx, rx) and (rx, tx) have the same
    # |delta| but negated projections, so every pair is its own class
    irregular = Constellation(points=(2.0, 1j, -1.0, -0.5 - 1j),
                              bit_labels=("00", "01", "11", "10"),
                              avg_power=1.8125)
    assert pair_classes(irregular) == [
        [pair] for pair in itertools.permutations(range(4), 2)]


@pytest.mark.parametrize("L", range(1, 7))
def test_pair_class_members_match_their_representative(L):
    # The members of a class average the same hypotheses in another
    # order, so they differ only by summation rounding: at most
    # 2 n 2^-53 relative for n = M^(L-l) positive terms.
    qpsk = qpsk_constellation(1.0)
    classes = pair_classes(qpsk)
    weights = np.array([2.0 ** (L - i) for i in range(L)])
    alpha = tuple(weights / weights.sum())
    for sigma_h_sq in (0.5, 1.0, 2.0):
        cfg = SystemConfig(alpha=alpha, P=1.0,
                           channel=ChannelModel(sigma_h_sq=sigma_h_sq),
                           constellation=qpsk)
        for snr_db in (-10.0, 0.0, 15.0, 30.0, 60.0):
            table = pep_table(cfg, snr_db)
            for l in range(1, L + 1):
                bound = 2 * 4 ** (L - l) * 2.0**-53
                for (tx, rx), *members in classes:
                    want = table[l - 1, tx, rx]
                    for t, r in members:
                        gap = abs(table[l - 1, t, r] - want) / want
                        assert gap <= bound, (sigma_h_sq, snr_db, l, t, r)
