import concurrent.futures
import dataclasses
import importlib
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noma_pep import (
    ChannelModel,
    Constellation,
    PatternCounts,
    SimStats,
    SystemConfig,
    average_pep,
    bit_error_rate,
    empirical_detection_prob,
    empirical_pep,
    pep_quadrature,
    qpsk_constellation,
    sample_ordered_channels,
    sic_detect,
    sic_patterns,
    sic_weight_tables,
    simulate,
    stats_rows,
    superposed_signal,
    upsilon_factor,
)
from noma_pep.optimize import _descending_grid

QPSK = qpsk_constellation(1.0)
sim = importlib.import_module("noma_pep.simulate")


def make_cfg(alpha, sigma_h_sq=0.5):
    ch = ChannelModel(sigma_h_sq=sigma_h_sq)
    return SystemConfig(alpha=tuple(alpha), P=1.0, channel=ch,
                        constellation=QPSK)


class TestConfigValidation:
    def test_alpha_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_cfg((0.7, 0.2))

    def test_alpha_must_descend(self):
        with pytest.raises(ValueError):
            make_cfg((0.5, 0.5))
        with pytest.raises(ValueError):
            make_cfg((0.2, 0.8))

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            make_cfg((1.2, -0.2))

    @pytest.mark.parametrize("alpha", [(math.inf, -math.inf),
                                       (1.7e308, 1.6e308)])
    def test_huge_alpha_is_rejected_without_a_numpy_warning(self, alpha):
        # the pytest settings make a RuntimeWarning an error: the sum of
        # (inf, -inf) is NaN and that of (1.7e308, 1.6e308) overflows
        with pytest.raises(ValueError, match="positive|sum to 1"):
            make_cfg(alpha)

    def test_channel_user_count(self):
        # alpha states the user count once; the channel holds none, so
        # one fading law serves every L, and no allocation means no user
        ch = ChannelModel(sigma_h_sq=0.5)
        for alpha in ((1.0,), (0.8, 0.2), (0.7, 0.2, 0.1)):
            assert SystemConfig(alpha=alpha, P=1.0, channel=ch,
                                constellation=QPSK).num_users == len(alpha)
        with pytest.raises(ValueError):
            SystemConfig(alpha=(), P=1.0, channel=ch, constellation=QPSK)

    def test_constellation_must_have_unit_energy(self):
        # P alone scales the symbols; a 4x alphabet would scale them twice
        ch = ChannelModel(sigma_h_sq=0.5)
        with pytest.raises(ValueError, match="unit average power"):
            SystemConfig(alpha=(1.0,), P=1.0, channel=ch,
                         constellation=qpsk_constellation(4.0))

    def test_validation_happens_before_trials(self):
        cfg = make_cfg((0.8, 0.2))
        with pytest.raises(ValueError):
            simulate(cfg, 10.0, 0, seed=1)


def test_superposed_signal_energy():
    cfg = make_cfg((0.7, 0.2, 0.1))
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 4, size=(1_000_000, 3))
    s = superposed_signal(cfg, idx)
    # cross-user terms average out for uniform symbols
    assert abs(float(np.mean(np.abs(s) ** 2)) - 1.0) < 0.01


def test_seed_determinism():
    cfg = make_cfg((0.7, 0.2, 0.1))
    a = simulate(cfg, 10.0, 50_000, seed=42)
    b = simulate(cfg, 10.0, 50_000, seed=42)
    assert np.array_equal(a.pairwise_counts, b.pairwise_counts)
    assert np.array_equal(a.detected_counts, b.detected_counts)
    assert np.array_equal(a.bit_errors, b.bit_errors)
    c = simulate(cfg, 10.0, 50_000, seed=43)
    assert not np.array_equal(a.detected_counts, c.detected_counts)
    patterns = sic_patterns(cfg, 10.0, 50_000, seed=42)
    _assert_same_stats(sic_patterns(cfg, 10.0, 50_000, seed=42), patterns)
    assert (sic_patterns(cfg, 10.0, 50_000, seed=43).delta_pattern_counts
            != patterns.delta_pattern_counts)


def test_worker_count_invariance(monkeypatch):
    monkeypatch.setattr(sim, "BATCH_TRIALS", 100_000)  # three batches
    cfg = make_cfg((0.8, 0.2))
    a = simulate(cfg, 10.0, 300_000, seed=9, workers=1)
    b = simulate(cfg, 10.0, 300_000, seed=9, workers=2)
    assert np.array_equal(a.pairwise_counts, b.pairwise_counts)
    assert np.array_equal(a.detected_counts, b.detected_counts)
    assert np.array_equal(a.bit_errors, b.bit_errors)
    _assert_same_stats(sic_patterns(cfg, 10.0, 300_000, seed=9, workers=2),
                       sic_patterns(cfg, 10.0, 300_000, seed=9, workers=1))


def test_detected_rows_partition_trials():
    cfg = make_cfg((0.7, 0.2, 0.1))
    stats = simulate(cfg, 5.0, 200_000, seed=3)
    for u in range(3):
        np.testing.assert_array_equal(
            stats.detected_counts[u].sum(axis=1), stats.tx_counts[u]
        )
        assert stats.tx_counts[u].sum() == stats.trials
    # detection probabilities for one tx symbol partition to 1
    for l in (1, 2, 3):
        total = sum(empirical_detection_prob(stats, l, 0, rx) for rx in range(4))
        assert abs(total - 1.0) < 1e-12


def test_noiseless_sic_all_correct():
    # With well-separated power coefficients and no noise, the
    # minimum-distance chain decodes every user exactly.
    cfg = make_cfg((0.7, 0.2, 0.1))
    stats = simulate(cfg, 300.0, 1_000, seed=5)
    assert int(stats.symbol_errors.sum()) == 0
    assert int(stats.bit_errors.sum()) == 0
    tables = sic_weight_tables(sic_patterns(cfg, 300.0, 100_000, seed=5),
                               QPSK)
    for (l, tx), weights in tables.items():
        assert weights[tuple(0j for _ in range(l - 1))] > 0.999999


def test_sic_detect_noiseless_scalar():
    cfg = make_cfg((0.7, 0.2, 0.1))
    pts = QPSK.points_array()
    coeff = np.sqrt(np.array(cfg.alpha))
    rng = np.random.default_rng(8)
    for _ in range(200):
        idx = rng.integers(0, 4, size=3)
        h = complex(rng.normal(), rng.normal())
        r = h * complex(pts[idx] @ coeff)
        for l in (1, 2, 3):
            det, priors = sic_detect(r, h, cfg, l)
            assert det == idx[l - 1]
            assert priors == tuple(idx[: l - 1])


def test_sic_detect_user_one_no_cancellation():
    cfg = make_cfg((0.7, 0.2, 0.1))
    det, priors = sic_detect(0.3 + 0.1j, 0.5 + 0.2j, cfg, 1)
    assert priors == ()


def test_forced_wrong_decision_leaves_residual():
    # Subtracting a wrong first-user decision leaves the power-scaled
    # difference term in the post-cancellation signal.
    cfg = make_cfg((0.8, 0.2))
    pts = QPSK.points_array()
    h = 0.9 - 0.4j
    x1, x2 = pts[0], pts[3]
    r = h * (math.sqrt(0.8) * x1 + math.sqrt(0.2) * x2)  # noiseless
    wrong = pts[1]
    after = r - math.sqrt(0.8) * h * wrong
    expected = math.sqrt(0.2) * h * x2 + math.sqrt(0.8) * h * (x1 - wrong)
    assert abs(after - expected) < 1e-14


def test_single_user_ber_matches_rayleigh_oracle():
    # Exact Gray-QPSK bit error rate over Rayleigh fading:
    # 0.5 * (1 - sqrt(g/(2+g))) with g = P * E[|h|^2] / sigma_n^2.
    cfg = make_cfg((1.0,))
    snr_db = 40.0
    g = 10 ** (snr_db / 10)  # E[|h|^2] = 1 at sigma_h_sq = 0.5
    exact = 0.5 * (1 - math.sqrt(g / (2 + g)))
    trials = 2_000_000
    stats = simulate(cfg, snr_db, trials, seed=21)
    ber = bit_error_rate(stats, 1, QPSK.bits_per_symbol)
    se = math.sqrt(exact / (trials * 2))
    assert abs(ber - exact) < 4 * se


def test_single_user_pairwise_matches_quadrature():
    cfg = make_cfg((1.0,))
    snr_db = 10.0
    stats = simulate(cfg, snr_db, 1_000_000, seed=2)
    est = empirical_pep(stats, 1, 0, 1)
    beta = abs(QPSK.points[0] - QPSK.points[1]) ** 2
    ups = upsilon_factor(QPSK.points[0] - QPSK.points[1],
                         cfg.noise_var_for_snr(snr_db))
    analytic = pep_quadrature(1, 1, beta, ups, cfg.channel)
    assert abs(est.pep - analytic) < 3 * est.ci_half_width


def test_empirical_pep_zero_events():
    cfg = make_cfg((1.0,))
    stats = simulate(cfg, 300.0, 200_000, seed=1)
    est = empirical_pep(stats, 1, 0, 2)
    assert est.pep == 0.0
    assert est.low_confidence
    assert est.ci_half_width == 3.0 / est.conditioning_trials
    with pytest.raises(ValueError):
        empirical_pep(stats, 1, 0, 0)


def test_delta_weights_basics():
    cfg = make_cfg((0.7, 0.2, 0.1))
    tables = sic_weight_tables(sic_patterns(cfg, 40.0, 200_000, seed=4),
                               QPSK)
    assert list(tables) == [(l, tx) for l in (1, 2, 3) for tx in range(4)]
    for (l, tx), w in tables.items():
        assert abs(sum(w.values()) - 1.0) < 1e-12
        if l == 1:
            assert w == {(): 1.0}
        assert w[tuple(0j for _ in range(l - 1))] > 0.99


def test_delta_weights_need_enough_trials():
    cfg = make_cfg((0.8, 0.2))
    counts = sic_patterns(cfg, 10.0, 1_000, seed=4)
    with pytest.raises(ValueError, match="at least 100000 trials"):
        sic_weight_tables(counts, QPSK)


def test_weighted_average_pep_tracks_simulation():
    # End-to-end: conditioned weight tables make the hypothesis-averaged
    # quadrature PEP follow the live SIC chain.  The tables and the
    # counters come from the same trials.
    cfg = make_cfg((0.7, 0.2, 0.1))
    snr_db = 20.0
    stats = simulate(cfg, snr_db, 1_000_000, seed=6)
    tables = sic_weight_tables(sic_patterns(cfg, snr_db, 1_000_000, seed=6),
                               QPSK)
    for l in (2, 3):
        w = tables[l, 0]
        analytic = average_pep(l, 3, 0, 1, cfg.alpha, 1.0, cfg.channel, QPSK,
                               residuals=w,
                               sigma_n_sq=cfg.noise_var_for_snr(snr_db))
        est = empirical_pep(stats, l, 0, 1)
        assert abs(analytic - est.pep) / est.pep < 0.10


def test_ber_non_increasing_in_snr():
    cfg = make_cfg((0.7, 0.2, 0.1))
    trials = 1_000_000
    bers = {}
    for snr in (5.0, 15.0, 25.0):
        stats = simulate(cfg, snr, trials, seed=12)
        bers[snr] = [bit_error_rate(stats, l, 2) for l in (1, 2, 3)]
    for l in range(3):
        seq = [bers[s][l] for s in (5.0, 15.0, 25.0)]
        slack = 2 * 1.96 * math.sqrt(max(seq) / (trials * 2))
        assert seq[0] >= seq[1] - slack >= seq[2] - 2 * slack


def test_more_power_helps_user_one():
    snr = 15.0
    bers = []
    for a1 in (0.6, 0.75, 0.9):
        cfg = make_cfg((a1, round(1 - a1, 6)))
        stats = simulate(cfg, snr, 300_000, seed=13)
        bers.append(bit_error_rate(stats, 1, 2))
    assert bers[0] > bers[1] > bers[2]


@pytest.mark.parametrize("cls, extra", [
    (PatternCounts, 0), (SimStats, 3)])
def test_result_types_are_keyword_only(cls, extra):
    # A positional construction would silently reorder fields.  Every
    # field is given (snr_db, trials, the patterns or the `extra` count
    # arrays), so only the keyword-only rule rejects the call.
    patterns = [[{}]] if cls is PatternCounts else []
    with pytest.raises(TypeError, match="positional"):
        cls(10.0, 1, *patterns, *[np.zeros(1)] * extra)


def test_merge_rejects_mismatched_runs():
    # Another SNR or another user count, for both result types.
    cfg = make_cfg((0.8, 0.2))
    for count in (simulate, sic_patterns):
        a = count(cfg, 10.0, 10_000, seed=1)
        for other in (count(cfg, 20.0, 10_000, seed=1),
                      count(make_cfg((0.7, 0.2, 0.1)), 10.0, 10_000,
                            seed=1)):
            with pytest.raises(ValueError, match="different configurations"):
                a.merge(other)


def test_stats_rows_schema():
    cfg = make_cfg((0.8, 0.2))
    stats = simulate(cfg, 10.0, 100_000, seed=1)
    rows = stats_rows(stats, QPSK.bits_per_symbol)
    metrics = {r["metric"] for r in rows if r["user"] == 1}
    assert "ber" in metrics and "ser" in metrics
    assert "pep_0to1" in metrics
    for r in rows:
        assert set(r) == {"snr_db", "user", "metric", "value",
                          "ci_half_width", "trials"}
        assert 0.0 <= r["value"] <= 1.0


def metrics_of(residual, scale, pts):
    """Squared distances |residual - scale * point|^2 up to a common term,
    one row per sample and one column per point of pts."""
    w = residual * np.conj(scale)
    return -2.0 * np.real(w[:, None] * np.conj(pts)[None, :]) + (
        np.abs(scale) ** 2
    )[:, None] * (np.abs(pts) ** 2)[None, :]


def _reference_draw(cfg, n, seed, batch):
    """Batch `batch` of a run seeded `seed` as the simulator draws it.

    SeedSequence(seed, spawn_key=(batch,)) spawns the gain, symbol and
    noise streams, each drawn here in one call.  The gains are real and
    positive: |h|^2 of the k-th weakest user is Renyi's sum of the first
    k standard exponentials E_i, each weighted 2 sigma_h^2/(L-i+1).  The
    noise is (n, L, 2) standard normals, the real and imaginary parts.
    Returns (h, symbol indices, complex standard-normal noise).
    """
    gains, symbols, noise = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(seed, spawn_key=(batch,)).spawn(3)]
    L = cfg.num_users
    e = gains.standard_exponential(size=(n, L))
    g = np.cumsum(e * (2.0 * cfg.channel.sigma_h_sq / np.arange(L, 0, -1)),
                  axis=1)
    tx_idx = symbols.integers(0, cfg.constellation.size, size=(n, L))
    z = noise.standard_normal(size=(n, L, 2))
    return np.sqrt(g), tx_idx, z[..., 0] + 1j * z[..., 1]


def _old_style_draw(cfg, n, seed):
    """A batch drawn the long way: complex Gaussian gains with their
    phases, stably sorted by |h|, symbol indices and complex noise, all
    from one stream.  Same law as _reference_draw, other numbers."""
    rng = np.random.default_rng(seed)
    L = cfg.num_users
    std_h = math.sqrt(cfg.channel.sigma_h_sq)
    h = rng.normal(scale=std_h, size=(n, L)) + 1j * rng.normal(
        scale=std_h, size=(n, L)
    )
    h = np.take_along_axis(h, np.argsort(np.abs(h), axis=1, kind="stable"), axis=1)
    tx_idx = rng.integers(0, cfg.constellation.size, size=(n, L))
    noise = rng.standard_normal((n, L)) + 1j * rng.standard_normal((n, L))
    return h, tx_idx, noise


def _reference_batch(cfg, snr_db, sigma_n_sq, draws):
    """Full-batch SIC chain the blocked simulator must reproduce exactly.

    draws is (h, symbol indices, standard complex noise), as
    _reference_draw or _old_style_draw give them.  Decides every SIC stage
    by the minimum of the full distance metric row on r = h s + sigma_n
    z, and counts pairwise events one hypothesis at a time.  Returns the
    SimStats, the PatternCounts of the same trials (patterns keyed by
    pattern code, in increasing code order), its own per-symbol transmit
    counts and symbol error counts, which SimStats derives from
    detected_counts, and decisions[u], shape (n, u), the symbol indices
    that user u+1's stages 1..u decided.
    """
    h, tx_idx, z = draws
    n, L = tx_idx.shape
    m = cfg.constellation.size
    pts = cfg.constellation.points_array()
    coeff = np.sqrt(np.asarray(cfg.alpha) * cfg.P)
    noise = math.sqrt(sigma_n_sq / 2.0) * z
    s = pts[tx_idx] @ coeff

    tx_counts = np.zeros((L, m), dtype=np.int64)
    symbol_errors = np.zeros(L, dtype=np.int64)
    decisions = [None] * L
    stats = SimStats(
        snr_db=snr_db,
        trials=n,
        detected_counts=np.zeros((L, m, m), dtype=np.int64),
        pairwise_counts=np.zeros((L, m, m), dtype=np.int64),
        bit_errors=np.zeros(L, dtype=np.int64),
    )
    patterns = PatternCounts(snr_db=snr_db, trials=n,
                             delta_pattern_counts=[{} for _ in range(L)])
    rows = np.arange(n)
    for u in range(L):
        hu = h[:, u]
        residual = hu * s + noise[:, u]
        det = decisions[u] = np.empty((n, u), dtype=np.int64)
        for k in range(u):
            dk = np.argmin(metrics_of(residual, coeff[k] * hu, pts), axis=1)
            residual = residual - coeff[k] * hu * pts[dk]
            det[:, k] = dk
        metrics = metrics_of(residual, coeff[u] * hu, pts)
        du = np.argmin(metrics, axis=1)
        txu = tx_idx[:, u]
        tx_counts[u] = np.bincount(txu, minlength=m)
        stats.detected_counts[u] = np.bincount(
            txu * m + du, minlength=m * m
        ).reshape(m, m)
        symbol_errors[u] = int(np.sum(du != txu))
        stats.bit_errors[u] = int(cfg.constellation._bit_diff[txu, du].sum())
        m_true = metrics[rows, txu]
        for b in range(m):
            ev = (metrics[:, b] <= m_true) & (txu != b)
            stats.pairwise_counts[u, :, b] = np.bincount(txu[ev], minlength=m)
        code = txu.astype(np.int64).copy()
        mult = m
        for k in range(u):
            code += (tx_idx[:, k] * m + det[:, k]) * mult
            mult *= m * m
        counts = np.bincount(code)
        patterns.delta_pattern_counts[u] = {
            int(c): int(counts[c]) for c in np.nonzero(counts)[0]
        }
    return stats, patterns, tx_counts, symbol_errors, decisions


REFERENCE_ALPHA = {1: (1.0,), 2: (0.8, 0.2), 3: (0.7, 0.2, 0.1),
                   4: (0.5, 0.3, 0.15, 0.05)}


def _assert_same_stats(got, want):
    """got equals want field for field: two SimStats, dtypes included, or
    two PatternCounts, dict order included."""
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        elif f.name == "delta_pattern_counts":
            assert [list(d.items()) for d in a] == [
                list(d.items()) for d in b], f.name
        else:
            assert a == b, f.name


def _assert_matches_reference(got, cfg, snr_db, n, seed, batch,
                              patterns=None):
    """got (a SimStats) and patterns, if given, equal the reference chain
    on batch `batch` of a run seeded `seed`."""
    want, want_patterns, tx_counts, symbol_errors, _ = _reference_batch(
        cfg, snr_db, cfg.noise_var_for_snr(snr_db),
        _reference_draw(cfg, n, seed, batch))
    _assert_same_stats(got, want)
    for name, counts in (("tx_counts", tx_counts),
                         ("symbol_errors", symbol_errors)):
        a = getattr(got, name)
        assert a.dtype == counts.dtype, name
        np.testing.assert_array_equal(a, counts, err_msg=name)
    if patterns is not None:
        _assert_same_stats(patterns, want_patterns)


# Every trial draws its symbols uniformly; the "mode" id names that.
@pytest.mark.parametrize("n", [1, 100_003])
@pytest.mark.parametrize("mode", ["uniform_random"])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_blocked_batch_matches_reference_chain(L, mode, n):
    # 100_003 rows span several detector blocks, the last one partial.
    # The counters and the residual patterns of a batch both equal the
    # reference chain's.
    cfg = make_cfg(REFERENCE_ALPHA[L])
    snrs = (0.0, 20.0, 40.0)
    for snr_db in snrs:
        seed = 1000 * L + int(snr_db)
        (got,) = sim._run_batch([(cfg, snr_db)], n, seed, 0)
        (patterns,) = sim._run_pattern_batch([(cfg, snr_db)], n, seed, 0)
        _assert_matches_reference(got, cfg, snr_db, n, seed, 0, patterns)
    # One call detects every SNR from the same draws; each point must
    # equal a reference batch drawn afresh at that SNR, seed and batch.
    seed = 1000 * L + 99
    points = [(cfg, s) for s in snrs]
    shared = sim._run_batch(points, n, seed, 2)
    patterns = sim._run_pattern_batch(points, n, seed, 2)
    assert len(shared) == len(patterns) == len(snrs)
    for snr_db, got, counts in zip(snrs, shared, patterns):
        _assert_matches_reference(got, cfg, snr_db, n, seed, 2, counts)


def _binning_grid(name):
    """(configs, SNRs) of a point list long enough that sic_patterns bins
    every pattern user: the 49-point two-user fig4 grid (sigma_h^2 = 1,
    30 dB), or a 40-point three-user grid whose user 2 takes two binning
    passes and user 3 four."""
    L, step, sigma_h_sq, snrs = {"fig4": (2, 0.01, 1.0, [30.0]),
                                 "two-passes": (3, 0.04, 0.5, [20.0])}[name]
    cfgs = [make_cfg(a, sigma_h_sq) for a in _descending_grid(L, step)]
    points = len(cfgs) * len(snrs)
    assert all(min(points, sim._pass_points(L, u)) * u >= sim.MIN_BIN_STAGES
               for u in range(1, L))
    assert (points > sim._pass_points(L, 1)) == (name == "two-passes")
    return cfgs, snrs


# The short point lists run the chain; the named grids bin (_binning_grid).
@pytest.mark.parametrize("offset", [-1, 0, 1, 7])
@pytest.mark.parametrize("L,grid", [
    *(pytest.param(L, None, id=str(L)) for L in (1, 2, 3, 4, 5)),
    pytest.param(2, "fig4", id="fig4-grid"),
    pytest.param(3, "two-passes", id="L3-two-pass-grid")])
def test_block_boundaries_match_reference_chain(L, grid, offset,
                                                monkeypatch):
    # Batches one row short of a block, exactly one block, one row over,
    # and two blocks and seven rows; the config list repeats c1 after c2,
    # so every block rebuilds c1's superposition.  At five users user 5's
    # key space (2^18) exceeds TABLE_CELLS and is counted sparsely; user
    # 4's (2^14) does not.  A grid draws BLOCK_ROWS blocks too.  Its first
    # and last points are checked against the reference chain, and its
    # binned patterns at every point against the chain of sic_patterns,
    # which MIN_BIN_STAGES above any pass's stages forces.
    if grid is None:
        c1 = make_cfg(REFERENCE_ALPHA.get(L, (0.5, 0.25, 0.13, 0.08, 0.04)))
        c2 = dataclasses.replace(c1, P=2.5)
        points = [(c1, 5.0), (c2, 20.0), (c1, 30.0)]
    else:
        cfgs, snrs = _binning_grid(grid)
        points = [(c, s) for c in cfgs for s in snrs]
    n = (2 if offset == 7 else 1) * sim.BLOCK_ROWS + offset
    seed = 500 + 10 * L + offset
    stats = sim._run_batch(points, n, seed, L)
    counts = sim._run_pattern_batch(points, n, seed, L)
    assert len(stats) == len(counts) == len(points)
    for i, ((cfg, snr_db), got, patterns) in enumerate(
            zip(points, stats, counts)):
        if grid is None or i in (0, len(points) - 1):
            _assert_matches_reference(got, cfg, snr_db, n, seed, L,
                                      patterns)
    if grid is not None:
        _chained(monkeypatch)
        chained = sim._run_pattern_batch(points, n, seed, L)
        assert len(chained) == len(points)
        for got, want in zip(counts, chained):
            _assert_same_stats(got, want)


@pytest.mark.parametrize("rows", [1_000, 1 << 16])
@pytest.mark.parametrize("run", ["simulate", "binned-grid", "chained-list"])
def test_counters_do_not_depend_on_the_row_block(run, rows, monkeypatch):
    # A batch is a pure function of its seed, whatever rows a block has:
    # blocks of 1,000 and 2^16 rows give the default block's counters,
    # dict order included.  n is a multiple of none of the block sizes.
    # A binned run draws BLOCK_ROWS blocks too, fewer rows than the fig4
    # grid's pass table has cells at 1,000.  Five SNRs at three users run
    # the chain.
    n = 100_003
    if run == "binned-grid":
        cfgs, snrs = _binning_grid("fig4")
    else:
        cfgs, snrs = [make_cfg((0.7, 0.2, 0.1))], [0.0, 10.0, 20.0, 30.0, 40.0]
    count = simulate if run == "simulate" else sic_patterns
    want = count(cfgs, snrs, n, seed=8)
    drawn = []
    real = sim._draw_batch

    def spy(cfg, n, seed, batch, rows):
        drawn.append(rows)
        return real(cfg, n, seed, batch, rows)

    monkeypatch.setattr(sim, "_draw_batch", spy)
    monkeypatch.setattr(sim, "BLOCK_ROWS", rows)
    got = count(cfgs, snrs, n, seed=8)
    assert drawn == [rows]
    for got_cfg, want_cfg in zip(got, want, strict=True):
        for a, b in zip(got_cfg, want_cfg, strict=True):
            _assert_same_stats(a, b)


@st.composite
def _split_runs(draw):
    """A run and the ways to cut it that must not change its counters:
    (config, SNRs, trials, seed, batch trials, block rows, where the SNR
    list splits into two calls, workers)."""
    L = draw(st.integers(1, 4))
    weights = sorted(draw(st.lists(st.integers(1, 50), min_size=L,
                                   max_size=L, unique=True)), reverse=True)
    alpha = [w / sum(weights) for w in weights]
    alpha[-1] = 1.0 - sum(alpha[:-1])
    snrs = draw(st.lists(st.sampled_from([-10.0, 0.0, 7.5, 20.0, 40.0]),
                         min_size=1, max_size=3))
    # one to four batches, the last one of any size: at most 30,000 trials
    batch_trials = draw(st.sampled_from([1_000, 4_099, 7_500]))
    trials = (draw(st.integers(0, 3)) * batch_trials
              + draw(st.integers(1, batch_trials)))
    return (make_cfg(alpha), snrs, trials, draw(st.integers(0, 2 ** 32)),
            batch_trials, draw(st.sampled_from([257, 1_000, 4_096])),
            draw(st.integers(0, len(snrs))), draw(st.sampled_from([1, 2])))


@settings(derandomize=True, max_examples=30, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=_split_runs())
def test_counters_do_not_depend_on_blocks_splits_or_workers(run):
    # Batches of at most 7,500 trials, so that most runs cross a batch
    # boundary.  Blocks of other rows, the SNR list cut into two calls
    # and two workers must give simulate's counters and sic_patterns'
    # patterns, dict order included, of one call with the default block
    # in one process.
    cfg, snrs, trials, seed, batch_trials, rows, cut, workers = run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "BATCH_TRIALS", batch_trials)
        for count in (simulate, sic_patterns):
            want = count(cfg, snrs, trials, seed)
            with pytest.MonkeyPatch.context() as blocks:
                blocks.setattr(sim, "BLOCK_ROWS", rows)
                got = [result for part in (snrs[:cut], snrs[cut:]) if part
                       for result in count(cfg, part, trials, seed,
                                           workers=workers)]
            for a, b in zip(got, want, strict=True):
                _assert_same_stats(a, b)


def _reference_run(cfg, snr_db, sizes, seed):
    """Merged reference batches 0, 1, ... of a run seeded seed, of the
    given sizes: (SimStats, PatternCounts)."""
    total = None
    for i, n in enumerate(sizes):
        batch = _reference_batch(cfg, snr_db, cfg.noise_var_for_snr(snr_db),
                                 _reference_draw(cfg, n, seed, i))[:2]
        total = batch if total is None else [
            t.merge(b) for t, b in zip(total, batch)]
    return tuple(total)


@pytest.mark.parametrize("workers", [1, 2])
def test_batches_spanning_blocks_match_reference_chain(workers,
                                                       monkeypatch):
    # Three batches of several blocks each, the last batch partial: the
    # merged counters equal the reference chain's batch by batch.
    monkeypatch.setattr(sim, "BATCH_TRIALS", 100_000)
    cfg = make_cfg((0.7, 0.2, 0.1))
    snrs = [10.0, 25.0]
    got = simulate(cfg, snrs, 250_001, seed=31, workers=workers)
    counts = sic_patterns(cfg, snrs, 250_001, seed=31, workers=workers)
    for snr_db, stats, patterns in zip(snrs, got, counts):
        want, want_patterns = _reference_run(
            cfg, snr_db, [100_000, 100_000, 50_001], 31)
        _assert_same_stats(stats, want)
        _assert_same_stats(patterns, want_patterns)


@pytest.mark.parametrize("draw,dtype,tail", [
    pytest.param("normal", np.float64, (3,), id="normal-float64"),
    pytest.param("integers", np.int64, (3,), id="integers-int64"),
    pytest.param("standard_normal", np.float64, (3,),
                 id="standard_normal-float64"),
    pytest.param("standard_normal", np.float64, (3, 2),
                 id="standard_normal-float64-noise"),
    pytest.param("standard_exponential", np.float64, (3,),
                 id="standard_exponential-float64")])
def test_generator_streams_the_same_in_row_blocks(draw, dtype, tail):
    # The simulator draws the gains (standard exponentials), the symbols
    # and the noise ((rows, L, 2) standard normals) one block of rows at a
    # time, and a batch must not depend on BLOCK_ROWS: it relies on
    # numpy's Generator giving the same values drawn in row blocks as in
    # one call, and on the stream continuing where the last block stopped.
    n = 2 * sim.BLOCK_ROWS + 7
    calls = {"normal": lambda rng, size: rng.normal(scale=0.7, size=size),
             "integers": lambda rng, size: rng.integers(0, 4, size=size),
             "standard_normal": lambda rng, size: rng.standard_normal(
                 out=np.empty(size)),
             "standard_exponential": lambda rng, size:
                 rng.standard_exponential(out=np.empty(size))}
    one, blocked = np.random.default_rng(9), np.random.default_rng(9)
    whole = calls[draw](one, (n, *tail))
    rows = np.concatenate([
        calls[draw](blocked, (min(sim.BLOCK_ROWS, n - start), *tail))
        for start in range(0, n, sim.BLOCK_ROWS)])
    assert whole.dtype == rows.dtype == dtype, (
        f"Generator.{draw} no longer returns {np.dtype(dtype)}")
    assert np.array_equal(whole, rows), (
        f"Generator.{draw} gives other values in blocks of BLOCK_ROWS rows "
        "than in one call, so simulated batches would change")
    after = one.standard_normal(5), blocked.standard_normal(5)
    assert np.array_equal(*after), (
        f"Generator.{draw} leaves the stream elsewhere after row blocks")


def _batch_draws(cfg, n, seed, batch):
    """Copies of every block that sim._draw_batch yields, concatenated."""
    blocks = [(signs.copy(), q.copy())
              for signs, q in sim._draw_batch(cfg, n, seed, batch,
                                              sim.BLOCK_ROWS)]
    return (np.concatenate([b[0] for b in blocks], axis=1),
            np.concatenate([b[1] for b in blocks], axis=2))


def test_neighbouring_seeds_do_not_share_batches(monkeypatch):
    # Seeding batch i with seed + i would make batch 1 of seed s repeat
    # batch 0 of seed s + 1; spawned streams keep them apart.
    cfg = make_cfg((0.8, 0.2))
    n, s = 20_000, 5
    signs, q = _batch_draws(cfg, n, s, 1)
    next_signs, next_q = _batch_draws(cfg, n, s + 1, 0)
    assert not np.array_equal(signs, next_signs)
    assert not np.any(q == next_q)
    # The same through simulate: the second batch of a two-batch run
    # (its counters less those of the first) is not a run at seed s + 1.
    monkeypatch.setattr(sim, "BATCH_TRIALS", n)
    two = simulate(cfg, 10.0, 2 * n, seed=s)
    first = simulate(cfg, 10.0, n, seed=s)
    following = simulate(cfg, 10.0, n, seed=s + 1)
    second = two.detected_counts - first.detected_counts
    assert second.sum() == following.detected_counts.sum() == 2 * n
    assert not np.array_equal(second, following.detected_counts)


class _Failed(Exception):
    """Raised by a monkeypatched simulator step."""


def _counting(real, fail_at=None):
    """real, counting its calls in .calls and raising _Failed on call
    number fail_at (from 1), if given."""
    def step(*args):
        step.calls += 1
        if step.calls == fail_at:
            raise _Failed(f"call {fail_at}")
        return real(*args)

    step.calls = 0
    return step


@pytest.mark.parametrize("count", [simulate, sic_patterns])
@pytest.mark.parametrize("call", [1, 3])
def test_draw_failure_reaches_the_caller_and_joins_the_helper(count, call,
                                                              monkeypatch):
    # The helper thread draws the blocks.  An exception there, on the
    # first block or mid-batch, reaches the caller with its own type, in
    # place of a short batch, and leaves no thread behind.
    monkeypatch.setattr(sim, "_gain_magnitudes",
                        _counting(sim._gain_magnitudes, call))
    threads = threading.active_count()
    with pytest.raises(_Failed, match=f"call {call}"):
        count(make_cfg((0.7, 0.2, 0.1)), [0.0, 20.0], 5 * sim.BLOCK_ROWS,
              seed=1)
    assert threading.active_count() == threads


@pytest.mark.parametrize("count,step", [(simulate, "_detect_batch"),
                                        (sic_patterns, "_pattern_keys")])
def test_detection_failure_stops_and_joins_the_helper(count, step,
                                                      monkeypatch):
    # An exception in the detection of block 0 or 1 stops the helper
    # within a block of it, instead of drawing the rest of the batch.
    monkeypatch.setattr(sim, step, _counting(getattr(sim, step), 2))
    draws = _counting(sim._gain_magnitudes)
    monkeypatch.setattr(sim, "_gain_magnitudes", draws)
    threads = threading.active_count()
    with pytest.raises(_Failed):
        count(make_cfg((0.7, 0.2, 0.1)), [0.0, 20.0], 10 * sim.BLOCK_ROWS,
              seed=1)
    assert threading.active_count() == threads
    assert draws.calls <= 1 + sim.SLOTS


def test_blocks_are_drawn_one_ahead_and_closing_joins_the_helper(
        monkeypatch):
    # While the caller holds block i, the helper may draw block i+1 into
    # the other slot of the ring, but not block i+2, which would
    # overwrite block i: a held block keeps its values however long it is
    # held.  Closing the generator early stops and joins the helper.
    cfg = make_cfg((0.7, 0.2, 0.1))
    rows, n = sim.BLOCK_ROWS, 6 * sim.BLOCK_ROWS
    want_signs, want_q = _batch_draws(cfg, n, 4, 0)
    draws = _counting(sim._gain_magnitudes)
    monkeypatch.setattr(sim, "_gain_magnitudes", draws)
    threads = threading.active_count()
    blocks = sim._blocks(sim._plan([(cfg, 10.0)]), cfg, n, 4, 0, rows)
    for i, (signs, q, _) in enumerate(blocks):
        time.sleep(0.02)  # time for the helper to run ahead
        assert draws.calls <= i + sim.SLOTS
        np.testing.assert_array_equal(signs,
                                      want_signs[:, i * rows:(i + 1) * rows])
        np.testing.assert_array_equal(q, want_q[..., i * rows:(i + 1) * rows])
        if i == 2:
            break
    assert threading.active_count() == threads + 1
    blocks.close()
    assert threading.active_count() == threads
    assert draws.calls <= 2 + sim.SLOTS
    simulate(cfg, 10.0, n, seed=4)
    assert threading.active_count() == threads


def test_helpers_under_stress_keep_every_counter(monkeypatch):
    # Three counters at once, each with its own helper: six threads on
    # fewer cores, switching every microsecond.  Every block of 1,000 rows
    # is still detected once, in order, from the slot it was drawn into,
    # so each run equals the reference chain.
    monkeypatch.setattr(sim, "BLOCK_ROWS", 1_000)
    cfg, n, seeds = make_cfg((0.7, 0.2, 0.1)), 30_001, [41, 42, 43]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(seeds)) as pool:
            runs = [pool.submit(simulate, cfg, 10.0, n, seed)
                    for seed in seeds]
            got = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for seed, stats in zip(seeds, got):
        _assert_same_stats(stats, _reference_run(cfg, 10.0, [n], seed)[0])


def test_renyi_gains_have_the_ordered_exponential_law():
    # Bounds fixed before the first run.  4e5 trials of L = 4 users at
    # sigma_h^2 = 0.7.  Means within 4 standard errors of the exact
    # Renyi mean; variances within 4 standard errors of the exact one,
    # the standard error of a sample variance being at most
    # sqrt(8/n) of it because these sums of exponentials have a kurtosis
    # of at most 9 (the exponential's).  Against the sorted complex gains
    # of channel.sample_ordered_channels (2e5 trials): means within 4
    # combined standard errors, and a two-sample Kolmogorov-Smirnov
    # distance below 2.3 sqrt(1/n1 + 1/n2), a false alarm rate below 1e-4.
    L, sigma_h_sq, n, n_oracle = 4, 0.7, 400_000, 200_000
    g = sim._gain_magnitudes(np.random.default_rng(11), sigma_h_sq,
                             np.empty((n, L))) ** 2
    w = 2 * sigma_h_sq / np.arange(L, 0, -1)
    mean, var = np.cumsum(w), np.cumsum(w ** 2)
    assert np.all(np.diff(g, axis=0) >= 0)  # ascending by user
    got_mean, got_var = g.mean(axis=1), g.var(axis=1, ddof=1)
    assert np.all(np.abs(got_mean - mean) < 4 * np.sqrt(var / n))
    assert np.all(np.abs(got_var / var - 1) < 4 * math.sqrt(8 / n))

    oracle = sample_ordered_channels(
        L, ChannelModel(sigma_h_sq=sigma_h_sq), 12, size=n_oracle).T ** 2
    se = np.sqrt(got_var / n + oracle.var(axis=1, ddof=1) / n_oracle)
    assert np.all(np.abs(got_mean - oracle.mean(axis=1)) < 4 * se)
    for mine, theirs in zip(g, oracle):
        mine, theirs = np.sort(mine), np.sort(theirs)
        grid = np.concatenate([mine, theirs])
        gap = np.abs(np.searchsorted(mine, grid, side="right") / n
                     - np.searchsorted(theirs, grid, side="right") / n_oracle)
        assert gap.max() < 2.3 * math.sqrt(1 / n + 1 / n_oracle)


def test_simulate_agrees_with_an_old_style_batch():
    # The same law drawn the long way (complex gains with phases, a stable
    # sort by |h|, complex noise, one stream) and detected by the argmin
    # chain: every per-user SER, BER and pairwise rate within 3 combined
    # 95% Wald half-widths.  Bounds fixed before the first run.
    cfg = make_cfg((0.7, 0.2, 0.1))
    n = 300_000
    snrs = [0.0, 10.0, 20.0]
    got = simulate(cfg, snrs, n, seed=23)
    draws = _old_style_draw(cfg, n, 24)
    for snr_db, stats in zip(snrs, got):
        old, *_ = _reference_batch(cfg, snr_db,
                                     cfg.noise_var_for_snr(snr_db), draws)
        want = {(r["user"], r["metric"]): r
                for r in stats_rows(old, QPSK.bits_per_symbol)}
        rows = stats_rows(stats, QPSK.bits_per_symbol)
        assert {(r["user"], r["metric"]) for r in rows} == set(want)
        for r in rows:
            w = want[r["user"], r["metric"]]
            width = math.hypot(r["ci_half_width"], w["ci_half_width"])
            assert abs(r["value"] - w["value"]) <= 3 * width, (snr_db, r, w)


@pytest.mark.parametrize("mode", ["uniform_random"])
@pytest.mark.parametrize("workers", [1, 2])
def test_snr_list_equals_separate_calls(workers, mode, monkeypatch):
    # 25_001 trials in batches of 10_000 make three batches, the last one
    # partial; 20 dB appears twice.
    monkeypatch.setattr(sim, "BATCH_TRIALS", 10_000)
    cfg = make_cfg((0.7, 0.2, 0.1))
    snrs = [20.0, 0.0, 35.0, 20.0]
    got = simulate(cfg, snrs, 25_001, seed=17, workers=workers)
    assert isinstance(got, list) and len(got) == len(snrs)
    for snr_db, stats in zip(snrs, got):
        want = simulate(cfg, snr_db, 25_001, seed=17)
        _assert_same_stats(stats, want)


@pytest.mark.parametrize("snr_db", [20.0, [20.0, 0.0, 35.0]])
@pytest.mark.parametrize("trials,batch_trials", [(25_001, 10_000),
                                                 (25_001, 1_000_000)])
@pytest.mark.parametrize("mode", ["uniform_random"])
@pytest.mark.parametrize("workers", [1, 2])
def test_config_list_equals_separate_calls(workers, mode, trials,
                                           batch_trials, snr_db, monkeypatch):
    # Three batches (the last one partial) or one batch; the allocations
    # differ in alpha and P and one of them appears twice.
    monkeypatch.setattr(sim, "BATCH_TRIALS", batch_trials)
    base = make_cfg((0.7, 0.2, 0.1))
    cfgs = [base, dataclasses.replace(base, alpha=(0.6, 0.3, 0.1)),
            dataclasses.replace(base, P=2.5), base]
    got = simulate(cfgs, snr_db, trials, seed=17, workers=workers)
    assert isinstance(got, list) and len(got) == len(cfgs)
    for cfg, result in zip(cfgs, got):
        want = simulate(cfg, snr_db, trials, seed=17)
        if isinstance(snr_db, list):
            assert isinstance(result, list) and len(result) == len(snr_db)
            for stats, expected in zip(result, want):
                _assert_same_stats(stats, expected)
        else:
            _assert_same_stats(result, want)


def test_one_batch_spreads_points_over_workers(monkeypatch):
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    cfg = make_cfg((0.8, 0.2))
    cfgs = [cfg, dataclasses.replace(cfg, alpha=(0.9, 0.1))]
    simulate(cfgs, [5.0, 15.0], 2_000, seed=3, workers=2)
    assert pools == [2]
    # A single point has nothing to spread: no pool starts.
    simulate(cfg, 5.0, 2_000, seed=3, workers=2)
    assert pools == [2]


@pytest.mark.parametrize("change", [
    {"channel": ChannelModel(sigma_h_sq=1.0)},
    # unit energy, but other bit labels
    {"constellation": dataclasses.replace(
        QPSK, bit_labels=("00", "01", "10", "11"))},
])
def test_config_list_rejects_other_differences_before_drawing(change,
                                                              monkeypatch):
    def no_draws(*args):
        raise AssertionError("simulate drew a batch")

    monkeypatch.setattr(sim, "_run_batch", no_draws)
    cfg = make_cfg((0.8, 0.2))
    other = dataclasses.replace(cfg, alpha=(0.9, 0.1), **change)
    with pytest.raises(ValueError, match="only in alpha and P"):
        simulate([cfg, other], 10.0, 2_000, seed=1)
    with pytest.raises(ValueError, match="configuration"):
        simulate([], 10.0, 2_000, seed=1)


@pytest.mark.parametrize("snr_db", [
    math.nan, -math.inf, math.inf, [], [10.0, math.nan], (-math.inf,),
])
def test_simulate_rejects_bad_snr_before_drawing(snr_db, monkeypatch):
    def no_draws(*args):
        raise AssertionError("simulate drew a batch")

    monkeypatch.setattr(sim, "_run_batch", no_draws)
    cfg = make_cfg((0.8, 0.2))
    with pytest.raises(ValueError, match="SNR"):
        simulate(cfg, snr_db, 2_000, seed=1)


@pytest.mark.parametrize("counter, batch", [
    (simulate, "_run_batch"), (sic_patterns, "_run_pattern_batch")])
def test_counters_reject_more_than_16_users_before_drawing(counter, batch,
                                                          monkeypatch):
    # User 17's pattern keys would need 66 bits.
    def no_draws(*args):
        raise AssertionError("the counter drew a batch")

    monkeypatch.setattr(sim, batch, no_draws)
    cfg = make_cfg(np.arange(17, 0, -1) / 153)
    with pytest.raises(ValueError, match="at most 16 users"):
        counter(cfg, 10.0, 2_000, seed=1, workers=1)


@pytest.mark.parametrize("counter", [simulate, sic_patterns])
def test_counters_run_16_users(counter):
    cfg = make_cfg(np.arange(16, 0, -1) / 136)
    result = counter(cfg, 10.0, 2_000, seed=1)
    assert result.trials == 2_000
    if counter is simulate:
        per_user = result.detected_counts.sum(axis=(1, 2)).tolist()
    else:
        per_user = [sum(d.values()) for d in result.delta_pattern_counts]
    assert per_user == [2_000] * 16


@pytest.mark.parametrize("workers", [0, -3])
def test_simulate_rejects_workers_below_one_before_drawing(workers,
                                                           monkeypatch):
    def no_draws(*args):
        raise AssertionError("simulate drew a batch")

    monkeypatch.setattr(sim, "_run_batch", no_draws)
    with pytest.raises(ValueError, match="workers"):
        simulate(make_cfg((0.8, 0.2)), 10.0, 2_000, seed=1, workers=workers)


def test_pattern_counting_memory_stays_bounded():
    # Six users give 4^11 possible pattern codes; counting them with a
    # dense table would take 32 MB for any number of trials.
    alpha = tuple(np.array([32.0, 16, 8, 4, 2, 1]) / 63)
    cfg = make_cfg(alpha)
    tracemalloc.start()
    try:
        stats = sic_patterns(cfg, 20.0, 2_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    for u in range(6):
        assert sum(stats.delta_pattern_counts[u].values()) == 2_000


def _alphabet(points):
    """The points scaled to unit average power, as SystemConfig requires."""
    pts = np.asarray(points, dtype=complex)
    pts /= math.sqrt(np.mean(np.abs(pts) ** 2))
    return Constellation(points=tuple(complex(p) for p in pts),
                         bit_labels=("00", "01", "11", "10"), avg_power=1.0)


@pytest.mark.parametrize("points", [
    (1, 1j, -1, -1j),  # QPSK rotated onto the axes
    (1 + 1j, -2 + 1j, -1 - 1j, 1 - 1j),  # one per quadrant, not mirrored
    (1 + 1j, -1 + 1j, 1 + 1j, 1 - 1j),  # second quadrant empty
])
def test_simulator_rejects_alphabets_it_cannot_slice(points):
    c = _alphabet(points)
    ch = ChannelModel(sigma_h_sq=0.5)
    cfg = SystemConfig(alpha=(0.8, 0.2), P=1.0, channel=ch, constellation=c)
    with pytest.raises(ValueError, match="quadrant"):
        simulate(cfg, 10.0, 1_000, seed=1)
    with pytest.raises(ValueError, match="quadrant"):
        sic_detect(0.3 + 0.1j, 0.5 + 0.2j, cfg, 2)


def test_quadrant_table_is_shared_and_read_only():
    # The alphabet record (quadrant map, negative bits, axis magnitudes)
    # is cached per alphabet and read-only.
    slicer = sim._slicer(QPSK)
    assert sim._slicer(qpsk_constellation(1.0)) is slicer
    for table in slicer:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 3
    # A rejected alphabet is not cached: it raises on every call.
    rotated = _alphabet((1, 1j, -1, -1j))
    for _ in range(2):
        with pytest.raises(ValueError, match="quadrant"):
            sim._slicer(rotated)


def test_quadrant_table_matches_minimum_distance():
    pts = QPSK.points_array()
    quadrant, negative, magnitude = sim._slicer(QPSK)
    for j, p in enumerate(pts):
        assert quadrant[2 * (p.real < 0) + (p.imag < 0)] == j
        assert negative[:, j].tolist() == [p.real < 0, p.imag < 0]
        assert magnitude[:, 0].tolist() == [abs(p.real), abs(p.imag)]
    # A rectangle with one point per quadrant slices the same way, with
    # its own magnitude on each axis.
    rect = sim._slicer(_alphabet((2 + 1j, -2 + 1j, -2 - 1j, 2 - 1j)))
    np.testing.assert_array_equal(rect.quadrant, quadrant)
    np.testing.assert_array_equal(rect.negative, negative)
    assert rect.magnitude[0, 0] == 2 * rect.magnitude[1, 0]


def test_axis_steps_hand_values():
    # QPSK points are (+-a, +-a) with a = 1/sqrt(2); at L = 2 (0.8, 0.2)
    # stage 1 subtracts +-sqrt(0.8) a and stage 2 +-sqrt(0.2) a per axis.
    cfg = make_cfg((0.8, 0.2))
    a = math.sqrt(0.5)
    steps = sim._axis_steps(cfg)
    np.testing.assert_allclose(
        steps, [[math.sqrt(0.8) * a, math.sqrt(0.2) * a]] * 2, rtol=1e-15)
    # Every superposition is a signed sum of the steps, axis by axis.
    pts = QPSK.points_array()
    idx = np.array([(a1, a2) for a1 in range(4) for a2 in range(4)])
    s = superposed_signal(cfg, idx)
    np.testing.assert_allclose(s.real, np.sign(pts[idx].real) @ steps[0],
                               rtol=1e-15, atol=1e-15)
    np.testing.assert_allclose(s.imag, np.sign(pts[idx].imag) @ steps[1],
                               rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_sic_detect_equals_argmin_chain(L):
    # One SIC model: slicing r/h per axis decides, stage by stage, as the
    # sequential minimum-distance chain on r does.
    cfg = make_cfg(REFERENCE_ALPHA[L])
    pts = QPSK.points_array()
    coeff = np.sqrt(np.asarray(cfg.alpha) * cfg.P)
    rng = np.random.default_rng(40 + L)
    n = 5_000  # 20,000 samples over the four user counts
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    noise = rng.normal(size=n) + 1j * rng.normal(size=n)
    r = h * (pts[rng.integers(0, 4, size=(n, L))] @ coeff) + 0.3 * noise
    chain = np.empty((n, L), dtype=np.int64)
    residual = r
    for k in range(L):
        chain[:, k] = np.argmin(metrics_of(residual, coeff[k] * h, pts),
                                axis=1)
        residual = residual - coeff[k] * h * pts[chain[:, k]]
    users = rng.integers(1, L + 1, size=n)
    for i, l in enumerate(users.tolist()):
        det, priors = sic_detect(r[i], h[i], cfg, l)
        assert (det, priors) == (chain[i, l - 1], tuple(chain[i, :l - 1]))


def test_exact_zero_component_counts_as_non_negative():
    cfg = make_cfg((0.8, 0.2))
    steps = sim._axis_steps(cfg)
    # With h = 1, y = r.  Stage 1 decides point 0 (+a, +a) and leaves a
    # real part of exactly zero and a negative imaginary part, which the
    # own stage slices to point 3 (+a, -a), not point 2 (-a, -a).
    r = complex(steps[0, 0], steps[1, 0] - steps[1, 1])
    assert sic_detect(r, 1.0, cfg, 2) == (3, (0,))
    for zero in (0.0, -0.0):
        assert sic_detect(complex(zero, -0.3), 1.0, cfg, 1) == (3, ())
    leaf = sim._sic_chain(np.array([[0.0, -0.0], [-1.0, 1.0]]), steps, 0)
    np.testing.assert_array_equal(leaf, [[0, 0], [1, 0]])


def test_simulate_peak_memory_stays_within_seven_batch_arrays():
    # The draw and the detection work in per-block buffers.  The peak must
    # stay below 7 float arrays of the batch's n x L size.
    cfg = make_cfg((0.7, 0.2, 0.1))
    simulate(cfg, [0.0, 20.0], 2_000, seed=1)  # imports and caches
    n = 200_000
    tracemalloc.start()
    try:
        simulate(cfg, [0.0, 20.0], n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * n * cfg.num_users * 8


@pytest.mark.parametrize("count", [simulate, sic_patterns])
def test_peak_memory_stays_within_four_batch_arrays(count):
    # A 1M-trial batch streams through blocks of BLOCK_ROWS rows, so its
    # peak stays below four float arrays of the batch's n x L size.
    cfg = make_cfg((0.7, 0.2, 0.1))
    count(cfg, [0.0, 20.0], 2_000, seed=1)  # imports and caches
    n = 1_000_000
    tracemalloc.start()
    try:
        count(cfg, [0.0, 20.0], n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * cfg.num_users * 8
    # blocks sized for a per-core L2 cache keep it below 8 MiB; blocks of
    # 2^16 rows peaked at 18.3 MiB (simulate) and 15.5 MiB (sic_patterns)
    assert peak < 8 << 20


@pytest.mark.parametrize("count", [simulate, sic_patterns])
def test_peak_memory_does_not_grow_with_the_batch(count):
    # Bounds fixed before the first measurement.  A batch keeps nothing of
    # its own size: the draw and the detection hold one block of
    # BLOCK_ROWS rows at a time.  So a 1M-trial batch peaks no higher than
    # a 250k-trial one, give or take one float column of a block, and
    # both stay below 16 float arrays of a block's BLOCK_ROWS x L size.
    cfg = make_cfg((0.7, 0.2, 0.1))
    count(cfg, [0.0, 20.0], 2_000, seed=1)  # imports and caches
    peaks = {}
    for n in (250_000, 1_000_000):
        tracemalloc.start()
        try:
            count(cfg, [0.0, 20.0], n, seed=1)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1_000_000] <= peaks[250_000] + sim.BLOCK_ROWS * 8
    assert peaks[1_000_000] < 16 * sim.BLOCK_ROWS * cfg.num_users * 8


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
def test_out_of_range_snr_is_rejected_before_drawing(snr_db, monkeypatch):
    # 10**400 overflows a float and 10**-400 underflows to zero
    def no_draws(*args):
        raise AssertionError("simulate drew a batch")

    monkeypatch.setattr(sim, "_run_batch", no_draws)
    cfg = make_cfg((0.8, 0.2))
    with pytest.raises(ValueError, match="SNR"):
        cfg.noise_var_for_snr(snr_db)
    with pytest.raises(ValueError, match="SNR"):
        simulate(cfg, [10.0, snr_db], 2_000, seed=1)
    assert sim.linear_snr(20.0) == 100.0
    assert cfg.noise_var_for_snr(20.0) == 1.0 / 10.0 ** 2.0


# ------------------------------------------------------------ sic_patterns


def _chained(monkeypatch):
    """Make sic_patterns run every user's chain, however many points."""
    monkeypatch.setattr(sim, "MIN_BIN_STAGES", math.inf)


@pytest.mark.parametrize("L,grid", [
    *(pytest.param(L, None, id=str(L)) for L in (1, 2, 3, 4)),
    pytest.param(2, "fig4", id="fig4-grid"),
    pytest.param(3, "two-passes", id="L3-two-pass-grid")])
def test_sic_patterns_equal_simulate(L, grid, monkeypatch):
    # Several allocations and SNRs in one call, over four batches.  The
    # short lists run the chain and must give the patterns of the trials
    # simulate counts, as the reference chain decides them; the grids bin
    # (see _binning_grid) and must give at every point what the chain
    # gives.
    monkeypatch.setattr(sim, "BATCH_TRIALS", 10_000)
    if grid is None:
        base = make_cfg(REFERENCE_ALPHA[L])
        cfgs = [base, dataclasses.replace(base, P=2.5)]
        if L > 1:
            a = REFERENCE_ALPHA[L]
            cfgs.append(dataclasses.replace(
                base, alpha=(a[0] + 0.05, a[1] - 0.05) + a[2:]))
        snrs, one = [0.0, 15.0, 30.0], 1
    else:
        cfgs, snrs = _binning_grid(grid)
        base, one = cfgs[0], 0
    got = sic_patterns(cfgs, snrs, 30_001, seed=21)
    assert len(got) == len(cfgs)
    if grid is None:
        want = [[_reference_run(c, s, [10_000] * 3 + [1], 21)[1]
                 for s in snrs] for c in cfgs]
    else:
        with monkeypatch.context() as patch:
            _chained(patch)
            want = sic_patterns(cfgs, snrs, 30_001, seed=21)
    for counts, expected in zip(got, want, strict=True):
        assert len(counts) == len(snrs)
        for g, w in zip(counts, expected, strict=True):
            assert isinstance(g, PatternCounts)
            _assert_same_stats(g, w)
    # A single configuration and SNR returns one PatternCounts.
    _assert_same_stats(sic_patterns(base, snrs[one], 30_001, seed=21),
                       want[0][one])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trials,batch_trials,grid", [
    pytest.param(300_001, 100_000, None, id="300001-100000"),
    pytest.param(30_001, 1_000_000, None, id="30001-1000000"),
    pytest.param(300_001, 100_000, "fig4", id="300001-100000-fig4-grid"),
    pytest.param(30_001, 1_000_000, "fig4", id="30001-1000000-fig4-grid"),
    pytest.param(300_001, 100_000, "two-passes",
                 id="300001-100000-L3-two-pass-grid"),
    pytest.param(30_001, 1_000_000, "two-passes",
                 id="30001-1000000-L3-two-pass-grid")])
def test_sic_patterns_batches_and_workers(trials, batch_trials, grid, workers,
                                          monkeypatch):
    # Four batches, the last one row long, or one batch whose points
    # spread over the workers.  The grids bin (see _binning_grid).  Spread
    # over two workers, each process bins its half of a grid, user 2 of
    # the three-user grid in one pass instead of two, and the counts must
    # not change.  The short list must give the reference chain's
    # patterns batch by batch, and a grid at every point what the chain
    # gives in one process.
    monkeypatch.setattr(sim, "BATCH_TRIALS", batch_trials)
    if grid is None:
        base = make_cfg((0.7, 0.2, 0.1))
        cfgs = [base, dataclasses.replace(base, alpha=(0.6, 0.3, 0.1))]
        snrs = [5.0, 20.0]
    else:
        cfgs, snrs = _binning_grid(grid)
    got = sic_patterns(cfgs, snrs, trials, seed=8, workers=workers)
    if grid is None:
        sizes = [min(batch_trials, trials - start)
                 for start in range(0, trials, batch_trials)]
        want = [[_reference_run(c, s, sizes, 8)[1] for s in snrs]
                for c in cfgs]
    else:
        with monkeypatch.context() as patch:
            _chained(patch)
            want = sic_patterns(cfgs, snrs, trials, seed=8)
    for counts, expected in zip(got, want, strict=True):
        for g, w in zip(counts, expected, strict=True):
            _assert_same_stats(g, w)


def _bad_calls():
    base = make_cfg((0.8, 0.2))
    other = dataclasses.replace(base, alpha=(0.9, 0.1),
                                channel=ChannelModel(sigma_h_sq=1.0))
    ch = ChannelModel(sigma_h_sq=0.5)
    rotated = SystemConfig(alpha=(0.8, 0.2), P=1.0, channel=ch,
                           constellation=_alphabet((1, 1j, -1, -1j)))
    call = dict(cfg=base, snr_db=10.0, trials=2_000, seed=1)
    return {
        "no configuration": {**call, "cfg": []},
        "no SNR": {**call, "snr_db": []},
        "other channel": {**call, "cfg": [base, other]},
        "no trial": {**call, "trials": 0},
        "no worker": {**call, "workers": 0},
        "SNR overflow": {**call, "snr_db": [10.0, 4000.0]},
        "SNR not finite": {**call, "snr_db": math.nan},
        "not QPSK": {**call, "cfg": rotated},
    }


@pytest.mark.parametrize("case", list(_bad_calls()))
def test_sic_patterns_rejects_what_simulate_rejects(case, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(sim, "_run_batch", no_draws)
    monkeypatch.setattr(sim, "_run_pattern_batch", no_draws)
    kwargs = _bad_calls()[case]
    with pytest.raises(ValueError) as want:
        simulate(**kwargs)
    with pytest.raises(ValueError) as got:
        sic_patterns(**kwargs)
    assert str(got.value) == str(want.value)


def test_sic_patterns_peak_memory_stays_within_six_batch_arrays():
    # As simulate, and one float array stricter.
    cfg = make_cfg((0.7, 0.2, 0.1))
    sic_patterns(cfg, [0.0, 20.0], 2_000, seed=1)  # imports and caches
    n = 200_000
    tracemalloc.start()
    try:
        sic_patterns(cfg, [0.0, 20.0], n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * n * cfg.num_users * 8


def test_binned_sic_patterns_stay_within_six_batch_arrays():
    # The bound of the test above, for the 499-point default fig4 grid,
    # which bins in eight passes.
    cfgs = [make_cfg(a, 1.0) for a in _descending_grid(2, 0.001)]
    sic_patterns(cfgs[:3], 30.0, 2_000, seed=1)  # imports and caches
    n = 200_000
    tracemalloc.start()
    try:
        sic_patterns(cfgs, 30.0, n, seed=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * n * 2 * 8


def _mixed_points(L, count, seed):
    """count (config, SNR) points of L users, random allocations, at SNRs
    from -10 dB, where sigma > 1 and sigma q can overflow, to 40 dB."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        a = np.sort(rng.dirichlet(np.full(L, 2.0)))[::-1]
        a[-1] = 1.0 - a[:-1].sum()
        if np.all(np.diff(a) < 0) and a[-1] > 0:
            snr_db = float(rng.choice([-10.0, 0.0, 12.5, 40.0]))
            points.append((make_cfg(a), snr_db))
    return points


@pytest.mark.parametrize("L", [2, 3, 4])
def test_breakpoints_are_where_the_chain_steps(L):
    # At each breakpoint t_k of every point, sign word and pattern user,
    # the in-order position of stages 0..u-1 is at least k, and at the
    # float below t_k it is less than k.  The chain runs as the simulator
    # runs it, on (2, n) samples of one point at a time.
    points = _mixed_points(L, 6, 70 + L)
    plan = sim._plan(points)
    for u in range(1, L):
        K = (1 << u) - 1
        t = sim._breakpoints(plan, u)
        assert t.shape == (2, 1 << L, K, len(points))
        pos = sim._positions(u)
        k = np.arange(1, K + 1)
        for p, (steps, table, sigma) in enumerate(plan):
            for q, reached in ((t[..., p], True),
                               (np.nextafter(t[..., p], -np.inf), False)):
                y = np.multiply(q, sigma).reshape(2, -1)
                y += np.repeat(table, K, axis=1)
                got = pos[sim._sic_chain(y, steps, u - 1)].reshape(q.shape)
                assert np.all((got >= k) == reached), (u, p)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_binning_gives_the_chain_keys_at_special_q(L):
    # NaN, +-inf, +-0.0, q = +-1e308, for which sigma q overflows at
    # -10 dB, every breakpoint, the float below each, and random q, with
    # random sign words: one binned block must give every point and
    # pattern user the keys of the chain on the same samples.
    points = _mixed_points(L, 6, 80 + L)
    plan = sim._plan(points)
    rng = np.random.default_rng(90 + L)
    for u in range(1, L):
        t = sim._breakpoints(plan, u).ravel()
        qu = np.concatenate([[np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308,
                              -1e308], t, np.nextafter(t, -np.inf),
                             10.0 * rng.standard_normal(500)])
        q = rng.standard_normal((2, L, qu.size))
        q[0, u], q[1, u] = qu, rng.permutation(qu)
        signs = rng.integers(0, 1 << L, size=(2, qu.size)).astype(np.uint8)
        bins = sim._BinTally(plan, u, qu.size)
        bins.add(signs, q)
        for (steps, table, sigma), (keys, counts) in zip(plan,
                                                         bins.counts()):
            with np.errstate(over="ignore"):
                y = np.multiply(q[:, u], sigma)
            y += np.take_along_axis(table, signs.astype(np.intp), axis=1)
            want, got = sim._KeyTally(u), sim._KeyTally(u)
            want.add(sim._pattern_keys(sim._sign_key(signs, u),
                                       sim._sic_chain(y, steps, u - 1), u))
            got.add(keys, counts)
            np.testing.assert_array_equal(got.dense, want.dense)


@pytest.mark.parametrize("L,count,binned", [
    (2, 5, []), (2, 19, []), (2, 20, [2]),
    (3, 5, []), (3, 9, []), (3, 10, [3]), (3, 19, [3]), (3, 20, [2, 3]),
    (4, 20, []), (4, 64, [])])
def test_binning_replaces_at_least_min_bin_stages(L, count, binned,
                                                  monkeypatch):
    # User u+1 is binned only when one pass replaces at least
    # MIN_BIN_STAGES chain stages: its points times the u stages before
    # the user's own.  The five SNRs of pep --sic-mode weighted at L = 3
    # stay on the chain, and so does every list at four users, where a
    # pass holds at most 15 points for user 2, 5 for user 3 and 2 for
    # user 4.
    made = []
    real = sim._BinTally

    def spy(plan, u, n):
        made.append(u)
        return real(plan, u, n)

    monkeypatch.setattr(sim, "_BinTally", spy)
    sic_patterns(make_cfg(REFERENCE_ALPHA[L]),
                 list(np.linspace(0.0, 40.0, count)), 2_000, seed=1)
    assert [u + 1 for u in made] == binned


def test_weight_tables_equal_per_symbol_delta_weights():
    # At 5 dB user 3 sees many residual patterns for every own symbol.
    # The tables of sic_patterns equal those of the reference chain's
    # patterns on the same trials, table and pattern order included, one
    # per user and own symbol, in that order.
    cfg = make_cfg((0.7, 0.2, 0.1))
    counts = sic_patterns(cfg, 5.0, 150_000, seed=12)
    tables = sic_weight_tables(counts, QPSK)
    assert list(tables) == [(l, tx) for l in (1, 2, 3) for tx in range(4)]
    assert len(tables[3, 0]) > 4
    assert tables[3, 0] != tables[3, 1]  # conditioned on the own symbol
    _, patterns = _reference_run(cfg, 5.0, [150_000], 12)
    assert [list(t.items())
            for t in sic_weight_tables(patterns, QPSK).values()
            ] == [list(t.items()) for t in tables.values()]


@pytest.mark.parametrize("L", [3, 4])
def test_weight_tables_decode_the_reference_chain(L):
    # An oracle that never builds a pattern code: the reference chain's
    # per-trial symbols and stage decisions, each delta pts[sent] -
    # pts[decided], grouped by the user's own symbol.  Counts are
    # integers, so the weights must be exactly equal.  At 0 dB every user
    # sees many patterns.
    cfg = make_cfg(REFERENCE_ALPHA[L])
    n, seed, snr_db = 100_003, 60 + L, 0.0
    draws = _reference_draw(cfg, n, seed, 0)
    *_, decisions = _reference_batch(
        cfg, snr_db, cfg.noise_var_for_snr(snr_db), draws)
    sent = draws[1]
    pts = QPSK.points_array()
    (counts,) = sim._run_pattern_batch([(cfg, snr_db)], n, seed, 0)
    tables = sic_weight_tables(counts, QPSK)
    for u in range(L):
        rows, trials = np.unique(
            np.column_stack([sent[:, :u + 1], decisions[u]]), axis=0,
            return_counts=True)
        want = {}
        for row, k in zip(rows, trials.tolist()):
            own, tx, det = int(row[u]), row[:u], row[u + 1:]
            pattern = tuple(complex(d) for d in pts[tx] - pts[det])
            table = want.setdefault(own, {})
            table[pattern] = table.get(pattern, 0) + k
        for own, table in want.items():
            total = sum(table.values())
            assert tables[u + 1, own] == {p: k / total
                                          for p, k in table.items()}, (u, own)
        assert sorted(want) == [0, 1, 2, 3]
    assert len(tables[L, 0]) > 10
