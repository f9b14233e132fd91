import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest

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
    sic_delta_weights,
    sic_detect,
    sic_patterns,
    sic_weight_tables,
    simulate,
    stats_rows,
    superposed_signal,
    upsilon_factor,
)

QPSK = qpsk_constellation(1.0)
sim = importlib.import_module("noma_pep.simulate")


def make_cfg(alpha, sigma_h_sq=0.5):
    ch = ChannelModel(num_users=len(alpha), sigma_h_sq=sigma_h_sq)
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

    def test_channel_user_count(self):
        ch = ChannelModel(num_users=3, sigma_h_sq=0.5)
        with pytest.raises(ValueError):
            SystemConfig(alpha=(0.8, 0.2), P=1.0, channel=ch,
                         constellation=QPSK)

    def test_constellation_must_have_unit_energy(self):
        # P alone scales the symbols; a 4x alphabet would scale them twice
        ch = ChannelModel(num_users=1, sigma_h_sq=0.5)
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
    assert a.delta_pattern_counts == b.delta_pattern_counts
    c = simulate(cfg, 10.0, 50_000, seed=43)
    assert not np.array_equal(a.detected_counts, c.detected_counts)


def test_worker_count_invariance():
    cfg = make_cfg((0.8, 0.2))
    a = simulate(cfg, 10.0, 300_000, seed=9, workers=1, batch_size=100_000)
    b = simulate(cfg, 10.0, 300_000, seed=9, workers=2, batch_size=100_000)
    assert np.array_equal(a.pairwise_counts, b.pairwise_counts)
    assert np.array_equal(a.detected_counts, b.detected_counts)
    assert np.array_equal(a.bit_errors, b.bit_errors)
    assert a.delta_pattern_counts == b.delta_pattern_counts


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
    for u in range(3):
        weights = sic_delta_weights(
            simulate(cfg, 300.0, 100_000, seed=5), u + 1, QPSK
        )
        zero_pattern = tuple(0j for _ in range(u))
        assert weights[zero_pattern] > 0.999999


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
    model = cfg.channel.with_noise(cfg.noise_var_for_snr(snr_db))
    est = empirical_pep(stats, 1, 0, 1)
    beta = abs(QPSK.points[0] - QPSK.points[1]) ** 2
    ups = upsilon_factor(QPSK.points[0] - QPSK.points[1], model.noise_var)
    analytic = pep_quadrature(1, 1, beta, ups, model)
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
    stats = simulate(cfg, 40.0, 200_000, seed=4)
    w1 = sic_delta_weights(stats, 1, QPSK)
    assert w1 == {(): 1.0}
    tables = sic_weight_tables(stats, QPSK)
    assert set(tables) == {(l, tx) for l in (1, 2, 3) for tx in range(4)}
    for l in (2, 3):
        w = sic_delta_weights(stats, l, QPSK)
        assert abs(sum(w.values()) - 1.0) < 1e-12
        assert w[tuple(0j for _ in range(l - 1))] > 0.99
        for tx in range(4):
            wt = sic_delta_weights(stats, l, QPSK, tx=tx)
            assert abs(sum(wt.values()) - 1.0) < 1e-12
            assert tables[(l, tx)] == wt


def test_delta_weights_need_enough_trials():
    cfg = make_cfg((0.8, 0.2))
    stats = simulate(cfg, 10.0, 1_000, seed=4)
    with pytest.raises(ValueError):
        sic_delta_weights(stats, 2, QPSK)


def test_weighted_average_pep_tracks_simulation():
    # End-to-end: conditioned weight tables make the hypothesis-averaged
    # quadrature PEP follow the live SIC chain.
    cfg = make_cfg((0.7, 0.2, 0.1))
    snr_db = 20.0
    stats = simulate(cfg, snr_db, 1_000_000, seed=6)
    model = cfg.channel.with_noise(cfg.noise_var_for_snr(snr_db))
    for l in (2, 3):
        w = sic_delta_weights(stats, l, QPSK, tx=0)
        analytic = average_pep(l, 3, 0, 1, cfg.alpha, 1.0, model, QPSK,
                               residuals=w)
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


def test_merge_rejects_mismatched_runs():
    cfg = make_cfg((0.8, 0.2))
    a = simulate(cfg, 10.0, 10_000, seed=1)
    b = simulate(cfg, 20.0, 10_000, seed=1)
    with pytest.raises(ValueError):
        a.merge(b)


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


def _reference_batch(cfg, snr_db, sigma_n_sq, n, seed):
    """Full-batch SIC chain the blocked simulator must reproduce exactly.

    Sorts gains by |h|, decides every SIC stage by the minimum of the full
    distance metric row, and counts pairwise events one hypothesis at a
    time.  Returns the SimStats plus its own per-symbol transmit counts
    and symbol error counts, which SimStats derives from detected_counts.
    """
    rng = np.random.default_rng(seed)
    L = cfg.num_users
    m = cfg.constellation.size
    pts = cfg.constellation.points_array()
    coeff = np.sqrt(np.asarray(cfg.alpha) * cfg.P)
    std_h = math.sqrt(cfg.channel.sigma_h_sq)
    std_n = math.sqrt(sigma_n_sq / 2.0)

    h = rng.normal(scale=std_h, size=(n, L)) + 1j * rng.normal(
        scale=std_h, size=(n, L)
    )
    h = np.take_along_axis(h, np.argsort(np.abs(h), axis=1, kind="stable"), axis=1)
    tx_idx = rng.integers(0, m, size=(n, L))
    noise = rng.normal(scale=std_n, size=(n, L)) + 1j * rng.normal(
        scale=std_n, size=(n, L)
    )
    s = pts[tx_idx] @ coeff

    tx_counts = np.zeros((L, m), dtype=np.int64)
    symbol_errors = np.zeros(L, dtype=np.int64)
    stats = SimStats(
        snr_db=snr_db,
        trials=n,
        detected_counts=np.zeros((L, m, m), dtype=np.int64),
        pairwise_counts=np.zeros((L, m, m), dtype=np.int64),
        bit_errors=np.zeros(L, dtype=np.int64),
        delta_pattern_counts=[{} for _ in range(L)],
    )
    rows = np.arange(n)
    for u in range(L):
        hu = h[:, u]
        residual = hu * s + noise[:, u]
        det = np.empty((n, u), dtype=np.int64)
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
        stats.delta_pattern_counts[u] = {
            int(c): int(counts[c]) for c in np.nonzero(counts)[0]
        }
    return stats, tx_counts, symbol_errors


REFERENCE_ALPHA = {1: (1.0,), 2: (0.8, 0.2), 3: (0.7, 0.2, 0.1),
                   4: (0.5, 0.3, 0.15, 0.05)}


def _assert_same_stats(got, want):
    for f in dataclasses.fields(SimStats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert a == b, f.name
    assert [list(d) for d in got.delta_pattern_counts] == [
        list(d) for d in want.delta_pattern_counts
    ]


def _assert_matches_reference(got, cfg, snr_db, n, seed):
    want, tx_counts, symbol_errors = _reference_batch(
        cfg, snr_db, cfg.noise_var_for_snr(snr_db), n, seed)
    _assert_same_stats(got, want)
    for name, counts in (("tx_counts", tx_counts),
                         ("symbol_errors", symbol_errors)):
        a = getattr(got, name)
        assert a.dtype == counts.dtype, name
        np.testing.assert_array_equal(a, counts, err_msg=name)


# Every trial draws its symbols uniformly; the "mode" id names that.
@pytest.mark.parametrize("n", [1, 100_003])
@pytest.mark.parametrize("mode", ["uniform_random"])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_blocked_batch_matches_reference_chain(L, mode, n):
    # 100_003 rows span two detector blocks, the second one partial.
    cfg = make_cfg(REFERENCE_ALPHA[L])
    quadrant = sim._quadrant_table(cfg.constellation)
    snrs = (0.0, 20.0, 40.0)
    for snr_db in snrs:
        seed = 1000 * L + int(snr_db)
        (got,) = sim._run_batch([(cfg, snr_db)], quadrant, n, seed)
        _assert_matches_reference(got, cfg, snr_db, n, seed)
    # One call detects every SNR from the same draws; each point must
    # equal a reference batch drawn afresh at that SNR and seed.
    seed = 1000 * L + 99
    shared = sim._run_batch([(cfg, s) for s in snrs], quadrant, n, seed)
    assert len(shared) == len(snrs)
    for snr_db, got in zip(snrs, shared):
        _assert_matches_reference(got, cfg, snr_db, n, seed)


@pytest.mark.parametrize("mode", ["uniform_random"])
@pytest.mark.parametrize("workers", [1, 2])
def test_snr_list_equals_separate_calls(workers, mode):
    # 25_001 trials in batches of 10_000 make three batches, the last one
    # partial; 20 dB appears twice.
    cfg = make_cfg((0.7, 0.2, 0.1))
    snrs = [20.0, 0.0, 35.0, 20.0]
    got = simulate(cfg, snrs, 25_001, seed=17, workers=workers,
                   batch_size=10_000)
    assert isinstance(got, list) and len(got) == len(snrs)
    for snr_db, stats in zip(snrs, got):
        want = simulate(cfg, snr_db, 25_001, seed=17, batch_size=10_000)
        _assert_same_stats(stats, want)


@pytest.mark.parametrize("snr_db", [20.0, [20.0, 0.0, 35.0]])
@pytest.mark.parametrize("trials,batch_size", [(25_001, 10_000),
                                               (25_001, 1_000_000)])
@pytest.mark.parametrize("mode", ["uniform_random"])
@pytest.mark.parametrize("workers", [1, 2])
def test_config_list_equals_separate_calls(workers, mode, trials, batch_size,
                                           snr_db):
    # Three batches (the last one partial) or one batch; the allocations
    # differ in alpha and P and one of them appears twice.
    base = make_cfg((0.7, 0.2, 0.1))
    cfgs = [base, dataclasses.replace(base, alpha=(0.6, 0.3, 0.1)),
            dataclasses.replace(base, P=2.5), base]
    got = simulate(cfgs, snr_db, trials, seed=17, workers=workers,
                   batch_size=batch_size)
    assert isinstance(got, list) and len(got) == len(cfgs)
    for cfg, result in zip(cfgs, got):
        want = simulate(cfg, snr_db, trials, seed=17, batch_size=batch_size)
        if isinstance(snr_db, list):
            assert isinstance(result, list) and len(result) == len(snr_db)
            for stats, expected in zip(result, want):
                _assert_same_stats(stats, expected)
        else:
            _assert_same_stats(result, want)


def test_one_batch_spreads_points_over_workers(monkeypatch):
    pools = []

    class RecordingPool(sim.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
    cfg = make_cfg((0.8, 0.2))
    cfgs = [cfg, dataclasses.replace(cfg, alpha=(0.9, 0.1))]
    simulate(cfgs, [5.0, 15.0], 2_000, seed=3, workers=2)
    assert pools == [2]
    # A single point has nothing to spread: no pool starts.
    simulate(cfg, 5.0, 2_000, seed=3, workers=2)
    assert pools == [2]


@pytest.mark.parametrize("change", [
    {"channel": ChannelModel(num_users=2, sigma_h_sq=1.0)},
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
        stats = simulate(cfg, 20.0, 2_000, seed=1)
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
    ch = ChannelModel(num_users=2, sigma_h_sq=0.5)
    cfg = SystemConfig(alpha=(0.8, 0.2), P=1.0, channel=ch, constellation=c)
    with pytest.raises(ValueError, match="quadrant"):
        simulate(cfg, 10.0, 1_000, seed=1)
    with pytest.raises(ValueError, match="quadrant"):
        sic_detect(0.3 + 0.1j, 0.5 + 0.2j, cfg, 2)


def test_quadrant_table_matches_minimum_distance():
    pts = QPSK.points_array()
    table = sim._quadrant_table(QPSK)
    for j, p in enumerate(pts):
        assert table[2 * (p.real < 0) + (p.imag < 0)] == j
    # A rectangle with one point per quadrant slices the same way.
    rect = _alphabet((2 + 1j, -2 + 1j, -2 - 1j, 2 - 1j))
    np.testing.assert_array_equal(sim._quadrant_table(rect), table)


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
    # The batch is kept as gain-normalised noise (2 arrays of n x L floats)
    # and sign bits; detection reuses per-block buffers.  The peak must
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


def _assert_same_patterns(got, want):
    """got (PatternCounts) holds want's (SimStats) patterns, order included."""
    assert isinstance(got, PatternCounts)
    assert (got.snr_db, got.trials) == (want.snr_db, want.trials)
    assert [list(d.items()) for d in got.delta_pattern_counts] == [
        list(d.items()) for d in want.delta_pattern_counts
    ]


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_sic_patterns_equal_simulate(L):
    # Several allocations and SNRs in one call, over four batches.
    base = make_cfg(REFERENCE_ALPHA[L])
    cfgs = [base, dataclasses.replace(base, P=2.5)]
    if L > 1:
        a = REFERENCE_ALPHA[L]
        cfgs.append(dataclasses.replace(
            base, alpha=(a[0] + 0.05, a[1] - 0.05) + a[2:]))
    snrs = [0.0, 15.0, 30.0]
    got = sic_patterns(cfgs, snrs, 30_001, seed=21, batch_size=10_000)
    want = simulate(cfgs, snrs, 30_001, seed=21, batch_size=10_000)
    assert len(got) == len(cfgs)
    for counts, stats in zip(got, want):
        assert len(counts) == len(snrs)
        for g, w in zip(counts, stats):
            _assert_same_patterns(g, w)
    # A single configuration and SNR returns one PatternCounts.
    _assert_same_patterns(
        sic_patterns(base, 15.0, 30_001, seed=21, batch_size=10_000),
        want[0][1])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trials,batch_size", [(300_001, 100_000),
                                               (30_001, 1_000_000)])
def test_sic_patterns_batches_and_workers(trials, batch_size, workers):
    # Four batches, the last one row long, or one batch whose points
    # spread over the workers.
    base = make_cfg((0.7, 0.2, 0.1))
    cfgs = [base, dataclasses.replace(base, alpha=(0.6, 0.3, 0.1))]
    got = sic_patterns(cfgs, [5.0, 20.0], trials, seed=8, workers=workers,
                       batch_size=batch_size)
    want = simulate(cfgs, [5.0, 20.0], trials, seed=8, batch_size=batch_size)
    for counts, stats in zip(got, want):
        for g, w in zip(counts, stats):
            _assert_same_patterns(g, w)


def _bad_calls():
    base = make_cfg((0.8, 0.2))
    other = dataclasses.replace(base, alpha=(0.9, 0.1),
                                channel=ChannelModel(2, sigma_h_sq=1.0))
    ch = ChannelModel(num_users=2, sigma_h_sq=0.5)
    rotated = SystemConfig(alpha=(0.8, 0.2), P=1.0, channel=ch,
                           constellation=_alphabet((1, 1j, -1, -1j)))
    call = dict(cfg=base, snr_db=10.0, trials=2_000, seed=1)
    return {
        "no configuration": {**call, "cfg": []},
        "no SNR": {**call, "snr_db": []},
        "other channel": {**call, "cfg": [base, other]},
        "no trial": {**call, "trials": 0},
        "no worker": {**call, "workers": 0},
        "no batch row": {**call, "batch_size": 0},
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
    # As simulate, and one float array stricter: the drawing sets the peak.
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


def test_weight_tables_equal_per_symbol_delta_weights():
    # At 5 dB user 3 sees many residual patterns for every own symbol.
    cfg = make_cfg((0.7, 0.2, 0.1))
    stats = simulate(cfg, 5.0, 150_000, seed=12)
    counts = sic_patterns(cfg, 5.0, 150_000, seed=12)
    tables = sic_weight_tables(counts, QPSK)
    want = [((l, tx), sic_delta_weights(stats, l, QPSK, tx=tx))
            for l in (1, 2, 3) for tx in range(4)]
    assert list(tables) == [key for key, _ in want]
    for (key, table), (_, expected) in zip(tables.items(), want):
        assert list(table.items()) == list(expected.items()), key
    assert len(tables[3, 0]) > 4
    assert list(sic_weight_tables(stats, QPSK).items()) == list(tables.items())
    marginal = sic_delta_weights(counts, 3, QPSK)
    assert marginal == sic_delta_weights(stats, 3, QPSK)
