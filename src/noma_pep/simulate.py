"""Monte Carlo link simulator for downlink NOMA with imperfect SIC.

Each trial superposes the users' symbols with power-domain weights,
passes the sum through each user's ordered Rayleigh channel plus AWGN, and
runs the sequential minimum-distance SIC receiver at every user.  SIC
decision errors propagate; there is no genie correction.

A batch draws all of its random numbers first, then detects in row
blocks of BLOCK_ROWS trials, so the temporaries of the detector stay
small whatever the batch size.  The draws depend neither on the SNR nor
on the power allocation: the noise is drawn as standard normals and
scaled per block, and the superposition is built per allocation from
the drawn symbols.  So one batch serves every SNR point and every
allocation (alpha, P) of a call (common random numbers), and only the
superposition and the detection run per point.  Each SIC stage decides
by the signs of the real and imaginary parts of the derotated residual,
which is the minimum-distance decision for alphabets with one point per
quadrant, mirrored across both axes (QPSK); simulate and sic_detect
reject any other alphabet.  Only the user's own stage computes the full
distance metrics, which the pairwise counters need.

Counters are plain integers so that merging partial runs is exact
component-wise addition: a run split into batches gives byte-identical
results for any worker count, because batch i always draws from seed+i,
and an SNR point or an allocation gives the same counters alone or in a
list.  Residual patterns are counted over the codes that occur, so their
memory grows with the number of trials, not with the M^(2L) code space.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel
from .constellation import Constellation

__all__ = [
    "SystemConfig",
    "SimStats",
    "PepEstimate",
    "simulate",
    "sic_detect",
    "superposed_signal",
    "empirical_pep",
    "empirical_detection_prob",
    "bit_error_rate",
    "sic_delta_weights",
    "sic_weight_tables",
    "stats_rows",
]

DEFAULT_BATCH_SIZE = 1_000_000
MIN_WEIGHT_TRIALS = 100_000
BLOCK_ROWS = 1 << 16  # detector rows per block; counters do not depend on it


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one downlink NOMA system.

    alpha          power allocation coefficients, strictly descending,
                   summing to 1 (user 1 = weakest channel, most power)
    P              total transmit power
    channel        fading model; channel.num_users must equal len(alpha)
    constellation  shared symbol alphabet; every user draws its symbols
                   uniformly from it
    """

    alpha: tuple[float, ...]
    P: float
    channel: ChannelModel
    constellation: Constellation

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("alpha must be a non-empty vector")
        if abs(a.sum() - 1.0) > 1e-12:
            raise ValueError(f"power coefficients must sum to 1, got {a.sum()!r}")
        if not np.all(a > 0):
            raise ValueError("power coefficients must be positive")
        if np.any(np.diff(a) >= 0):
            raise ValueError("power coefficients must be strictly descending")
        if self.channel.num_users != a.size:
            raise ValueError(
                f"channel has {self.channel.num_users} users, alpha has {a.size}"
            )
        if not 0 < self.P < math.inf:
            raise ValueError(f"total power must be finite and positive, got {self.P}")

    @property
    def num_users(self) -> int:
        return len(self.alpha)

    def noise_var_for_snr(self, snr_db: float) -> float:
        """SNR convention: snr_db = 10*log10(P / sigma_n^2)."""
        return self.P / 10.0 ** (snr_db / 10.0)


@dataclass
class SimStats:
    """Accumulated counters of one simulation run.

    detected_counts[u, a, b]  trials where user u+1 sent symbol a and the
                              full SIC detector output b (rows sum to the
                              per-symbol transmit counts)
    pairwise_counts[u, a, b]  trials where hypothesis b beat the true
                              symbol a in the binary metric comparison at
                              user u+1 (b != a; not mutually exclusive
                              across b, so rows do not sum to trials)
    bit_errors[u]             bit errors of user u+1's detected symbols
    delta_pattern_counts[u]   map from an encoded (own symbol, SIC stage
                              decisions) key at user u+1 to its count;
                              keyed by the user's own transmitted symbol
                              because SIC error directions correlate
                              with it through the uncancelled own signal

    The user count, alphabet size, transmit counts and symbol errors are
    exact integer sums of detected_counts.
    """

    snr_db: float
    trials: int
    detected_counts: np.ndarray
    pairwise_counts: np.ndarray
    bit_errors: np.ndarray
    delta_pattern_counts: list[dict[int, int]]

    @property
    def num_users(self) -> int:
        return self.detected_counts.shape[0]

    @property
    def m(self) -> int:
        return self.detected_counts.shape[1]

    @property
    def tx_counts(self) -> np.ndarray:
        """tx_counts[u, a]: trials where user u+1 sent symbol a."""
        return self.detected_counts.sum(axis=2)

    @property
    def symbol_errors(self) -> np.ndarray:
        """symbol_errors[u]: trials where user u+1 detected a wrong symbol."""
        d = self.detected_counts
        return d.sum(axis=(1, 2)) - np.trace(d, axis1=1, axis2=2)

    def merge(self, other: "SimStats") -> "SimStats":
        if (self.detected_counts.shape, self.snr_db) != (
            other.detected_counts.shape,
            other.snr_db,
        ):
            raise ValueError("cannot merge stats from different configurations")
        patterns = []
        for mine, theirs in zip(self.delta_pattern_counts,
                                other.delta_pattern_counts):
            d = dict(mine)
            for code, cnt in theirs.items():
                d[code] = d.get(code, 0) + cnt
            patterns.append(d)
        return SimStats(
            snr_db=self.snr_db,
            trials=self.trials + other.trials,
            detected_counts=self.detected_counts + other.detected_counts,
            pairwise_counts=self.pairwise_counts + other.pairwise_counts,
            bit_errors=self.bit_errors + other.bit_errors,
            delta_pattern_counts=patterns,
        )


@dataclass(frozen=True)
class PepEstimate:
    """Empirical pairwise error rate with a 95% Wald half-width."""

    pep: float
    ci_half_width: float
    error_events: int
    conditioning_trials: int
    low_confidence: bool


def superposed_signal(cfg: SystemConfig, symbol_indices: np.ndarray) -> np.ndarray:
    """Power-weighted superposition sum_l sqrt(alpha_l P) x_l per trial.

    symbol_indices has shape (n, L); returns a complex (n,) vector.
    """
    pts = cfg.constellation.points_array()
    coeff = np.sqrt(np.asarray(cfg.alpha) * cfg.P)
    return pts[np.asarray(symbol_indices)] @ coeff


def _decision_metrics(residual, scale, pts):
    """Squared distances |residual - scale * point|^2 up to a common term.

    Row j holds hypothesis j, shape (M, n), so every row is one pass over
    the samples.  Dropping |residual|^2 leaves the ordering and all
    pairwise metric differences unchanged.
    """
    w = residual * np.conj(scale)
    gain = np.abs(scale) ** 2
    energy = np.abs(pts) ** 2
    metrics = np.empty((pts.size, residual.size))
    for j in range(pts.size):
        metrics[j] = -2.0 * np.real(w * np.conj(pts[j])) + gain * energy[j]
    return metrics


def _quadrant_table(constellation: Constellation) -> np.ndarray:
    """Symbol index of each quadrant, keyed 2*(re < 0) + (im < 0).

    Slicing each axis of the derotated residual by sign is the
    minimum-distance decision only when the alphabet has one point per
    quadrant and the points mirror each other across both axes, as QPSK
    does; any other alphabet raises ValueError.
    """
    pts = constellation.points_array()
    re, im = np.abs(pts.real), np.abs(pts.imag)
    key = 2 * (pts.real < 0) + (pts.imag < 0)
    if (
        pts.size != 4
        or sorted(key.tolist()) != [0, 1, 2, 3]
        or not (re[0] > 0 and np.all(re == re[0]))
        or not (im[0] > 0 and np.all(im == im[0]))
    ):
        raise ValueError(
            "the SIC simulator slices each axis by sign and needs one "
            "point per quadrant, mirrored across both axes (QPSK)"
        )
    table = np.empty(4, dtype=np.int64)
    table[key] = np.arange(4)
    return table


def _sic_stages(cfg: SystemConfig, quadrant, residual, h, u: int):
    """Sequential SIC chain of user u+1 over its received samples.

    Detects users 1..u in power order, each by the quadrant (table from
    _quadrant_table) of the residual derotated by its power-scaled gain,
    and subtracts each decision before the next stage.  A component that
    is exactly zero counts as non-negative.  Returns the stage decisions,
    shape (n, u), and user u+1's own decision metrics, shape (M, n).
    """
    pts = cfg.constellation.points_array()
    coeff = np.sqrt(np.asarray(cfg.alpha) * cfg.P)
    decisions = np.empty((residual.size, u), dtype=np.int64)
    for k in range(u):
        scale = coeff[k] * h
        w = residual * np.conj(scale)
        dk = quadrant[2 * (w.real < 0) + (w.imag < 0)]
        residual = residual - scale * pts[dk]
        decisions[:, k] = dk
    return decisions, _decision_metrics(residual, coeff[u] * h, pts)


def _superposition(cfg: SystemConfig, tx_idx) -> np.ndarray:
    """superposed_signal of every trial, built in blocks of BLOCK_ROWS rows
    so that its (n, L) complex temporary stays small."""
    s = np.empty(tx_idx.shape[0], dtype=np.complex128)
    for start in range(0, s.size, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        s[rows] = superposed_signal(cfg, tx_idx[rows])
    return s


def _run_batch(points, quadrant, n: int, seed: int) -> list[SimStats]:
    """Counters of one batch of n trials at each (config, SNR) point, in order.

    The configs of points differ at most in alpha and P, so the batch is
    drawn once and every point detects the same gains, symbols and
    standard-normal noise, with its config's superposition and its own
    noise level.
    """
    cfg = points[0][0]
    rng = np.random.default_rng(seed)
    L = cfg.num_users
    m = cfg.constellation.size
    std_h = math.sqrt(cfg.channel.sigma_h_sq)

    # Draw order is fixed (gains, symbols, noise) so a batch is a pure
    # function of (channel, constellation, n, seed).
    # rng.normal(scale=s) returns s times the standard normal it draws,
    # so scaling z below is bitwise equal to drawing the noise at each
    # SNR's scale.
    h = np.empty((n, L), dtype=np.complex128)
    h.real = rng.normal(scale=std_h, size=(n, L))
    h.imag = rng.normal(scale=std_h, size=(n, L))
    order = np.argsort(h.real**2 + h.imag**2, axis=1, kind="stable")
    h = np.take_along_axis(h, order, axis=1)
    tx_idx = rng.integers(0, m, size=(n, L))
    z = np.empty((n, L), dtype=np.complex128)
    z.real = rng.standard_normal(size=(n, L))
    z.imag = rng.standard_normal(size=(n, L))
    stats, built = [], None
    for c, snr_db in points:
        if c != built:
            s, built = _superposition(c, tx_idx), c
        stats.append(_detect_batch(c, quadrant, snr_db, h, tx_idx, s, z))
    return stats


def _first_argmin(metrics):
    """np.argmin(metrics, axis=0) as a running minimum over the rows.

    A later row wins only when strictly smaller, so ties go to the first
    index, as in np.argmin; the metrics are finite.
    """
    low = metrics[0]
    best = np.zeros(metrics.shape[1], dtype=np.int64)
    for j in range(1, metrics.shape[0]):
        best = np.where(metrics[j] < low, j, best)
        low = np.minimum(low, metrics[j])
    return best


def _detect_batch(cfg, quadrant, snr_db, h, tx_idx, s, z) -> SimStats:
    """Run every user's SIC chain over a drawn batch at one SNR."""
    n, L = h.shape
    m = cfg.constellation.size
    std_n = math.sqrt(cfg.noise_var_for_snr(snr_db) / 2.0)

    # events[u, a, d, e]: trials of user u+1 that sent a, detected d, and
    # in which hypothesis b scored no worse than a exactly when bit b of e
    # is set.
    events = np.zeros((L, (m * m) << m), dtype=np.int64)
    patterns = []
    code = np.empty(n, dtype=np.int64)
    for u in range(L):
        for start in range(0, n, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            hu = h[rows, u]
            det, metrics = _sic_stages(
                cfg, quadrant, hu * s[rows] + std_n * z[rows, u], hu, u
            )
            txu = tx_idx[rows, u]
            sent = metrics[txu, np.arange(txu.size)]
            key = (txu * m + _first_argmin(metrics)) << m
            for b in range(m):
                key += (metrics[b] <= sent) << b
            events[u] += np.bincount(key, minlength=(m * m) << m)

            # Key: own transmitted symbol in the lowest base-m digit, then
            # one base-m^2 digit per SIC stage for the (tx, detected) pair.
            c = code[rows]
            c[:] = txu
            mult = m
            for k in range(u):
                c += (tx_idx[rows, k] * m + det[:, k]) * mult
                mult *= m * m
        values, counts = np.unique(code, return_counts=True)
        patterns.append(dict(zip(values.tolist(), counts.tolist())))

    events = events.reshape(L, m, m, 1 << m)
    detected = events.sum(axis=3)
    beats = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    pairwise = events.sum(axis=2) @ beats
    # The sent symbol always scores no worse than itself; b = a is no event.
    pairwise[:, np.arange(m), np.arange(m)] = 0
    return SimStats(
        snr_db=snr_db,
        trials=n,
        detected_counts=detected,
        pairwise_counts=pairwise,
        bit_errors=(detected * cfg.constellation._bit_diff).sum(axis=(1, 2)),
        delta_pattern_counts=patterns,
    )


def simulate(
    cfg: SystemConfig | Sequence[SystemConfig],
    snr_db: float | Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> SimStats | list:
    """Run `trials` superposition/SIC trials at one SNR or at each of several.

    With a single snr_db, returns its SimStats.  With a sequence, returns
    one SimStats per entry, in order, each equal field for field to a
    separate call with the same trials, seed and batch_size.  The points
    share every batch's draws (common random numbers), so the batch is
    drawn once and only the detection runs per point.

    cfg may also be a sequence of configurations that differ only in
    alpha and P; the call then returns one result (a SimStats, or a list
    of them for an SNR sequence) per configuration, in order, each equal
    to a separate call.  The configurations share the draws too: only
    the superposition and the detection run per configuration.

    Deterministic for fixed (cfg, snr_db, trials, seed, batch_size):
    trials are split into fixed batches and batch i is seeded seed+i, so
    the result is independent of the worker count.  Several batches are
    spread over `workers` processes; a single batch with several
    (configuration, SNR) points spreads the points instead, each process
    drawing the same batch.  Raises ValueError before any draw when an
    SNR is not finite, a sequence is empty, the configurations differ in
    more than alpha and P, or the alphabet cannot be sliced per axis (see
    _quadrant_table), and for fewer than one trial, worker or batch row.
    """
    many = not isinstance(cfg, SystemConfig)
    cfgs = list(cfg) if many else [cfg]
    single = np.ndim(snr_db) == 0
    snrs = [snr_db] if single else list(snr_db)
    if not cfgs:
        raise ValueError("need at least one configuration")
    if not snrs:
        raise ValueError("need at least one SNR point")
    if not all(math.isfinite(s) for s in snrs):
        raise ValueError(f"SNR values must be finite, got {snr_db!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    drawn = [(c.channel, c.constellation) for c in cfgs]
    if any(d != drawn[0] for d in drawn):
        raise ValueError(
            "configurations of one call may differ only in alpha and P")
    quadrant = _quadrant_table(cfgs[0].constellation)
    sizes = []
    left = trials
    while left > 0:
        sizes.append(min(batch_size, left))
        left -= batch_size

    # With several batches each task is one batch at every point.  A
    # single batch is split into at most `workers` contiguous chunks of
    # points; every chunk redraws the same batch, so the split does not
    # change the counters.
    points = [(c, s) for c in cfgs for s in snrs]
    parts = min(workers, len(points)) if len(sizes) == 1 else 1
    chunks = [points[k * len(points) // parts:(k + 1) * len(points) // parts]
              for k in range(parts)]
    args = [(chunk, quadrant, nb, seed + i)
            for i, nb in enumerate(sizes) for chunk in chunks]
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
            results = list(pool.map(_run_batch_star, args))
    else:
        results = [_run_batch(*a) for a in args]

    if parts > 1:  # the chunks of the one batch, back in point order
        results = [[p for chunk in results for p in chunk]]
    totals = results[0]
    for batch in results[1:]:
        totals = [t.merge(q) for t, q in zip(totals, batch)]
    n_snr = len(snrs)
    per_cfg = [totals[i:i + n_snr] for i in range(0, len(totals), n_snr)]
    if single:
        per_cfg = [r[0] for r in per_cfg]
    return per_cfg if many else per_cfg[0]


def _run_batch_star(args):
    return _run_batch(*args)


def sic_detect(r: complex, h: complex, cfg: SystemConfig, l: int):
    """Sequential SIC detection of one received sample at user l.

    Runs the simulator's SIC chain on the single sample: users 1..l-1 in
    power order, each decision subtracted before the next stage, then
    user l's own symbol.  Returns the pair
    (detected_index, prior_decision_indices).  Raises ValueError when the
    alphabet cannot be sliced per axis.
    """
    if not 1 <= l <= cfg.num_users:
        raise ValueError(f"user index {l} out of range 1..{cfg.num_users}")
    priors, metrics = _sic_stages(
        cfg,
        _quadrant_table(cfg.constellation),
        np.array([complex(r)]),
        np.array([complex(h)]),
        l - 1,
    )
    return int(np.argmin(metrics[:, 0])), tuple(priors[0].tolist())


def empirical_pep(stats: SimStats, l: int, tx: int, rx: int) -> PepEstimate:
    """Pairwise error rate of the (tx -> rx) hypothesis at user l.

    Counts trials where the rx hypothesis beat the transmitted symbol in
    the binary decision metric, conditioned on tx being sent.  The 95%
    half-width is the Wald interval; with zero observed events it falls
    back to the rule-of-three upper bound 3/n so the estimate still
    carries an honest uncertainty.
    """
    if stats.trials == 0:
        raise ValueError("stats contain no trials")
    if tx == rx:
        raise ValueError("tx and rx coincide; not a pairwise error event")
    u = l - 1
    n = int(stats.tx_counts[u, tx])
    if n == 0:
        raise ValueError(f"no trials with symbol {tx} transmitted by user {l}")
    k = int(stats.pairwise_counts[u, tx, rx])
    p = k / n
    if k == 0:
        half = 3.0 / n
    else:
        half = 1.959963984540054 * math.sqrt(p * (1.0 - p) / n)
    return PepEstimate(
        pep=p,
        ci_half_width=half,
        error_events=k,
        conditioning_trials=n,
        low_confidence=k < 100,
    )


def empirical_detection_prob(stats: SimStats, l: int, tx: int, rx: int) -> float:
    """Probability that the full detector outputs rx when tx was sent."""
    u = l - 1
    n = int(stats.tx_counts[u, tx])
    if n == 0:
        raise ValueError(f"no trials with symbol {tx} transmitted by user {l}")
    return int(stats.detected_counts[u, tx, rx]) / n


def bit_error_rate(stats: SimStats, l: int, bits_per_symbol: int) -> float:
    return int(stats.bit_errors[l - 1]) / (stats.trials * bits_per_symbol)


def decode_delta_pattern(
    code: int, stages: int, constellation: Constellation
) -> tuple[int, tuple[complex, ...]]:
    """Expand an encoded key into (own symbol index, delta values)."""
    pts = constellation.points_array()
    m = constellation.size
    own = code % m
    code //= m
    deltas = []
    for _ in range(stages):
        pair = code % (m * m)
        code //= m * m
        tx, det = divmod(pair, m)
        deltas.append(complex(pts[tx] - pts[det]))
    return own, tuple(deltas)


def sic_delta_weights(
    stats: SimStats, l: int, constellation: Constellation, tx: int | None = None
):
    """Normalized weights of the prior-delta patterns observed at user l.

    With tx given, weights are conditioned on user l having transmitted
    that symbol; SIC error directions correlate strongly with the own
    symbol, so hypothesis averaging should use the table conditioned on
    the pair's transmitted symbol.  With tx=None the marginal table over
    all transmitted symbols is returned.

    Patterns that differ only in which symbol pair produced the same
    delta value are aggregated, since the error statistic depends on the
    delta alone.  Weights sum to 1.
    """
    if stats.trials < MIN_WEIGHT_TRIALS:
        raise ValueError(
            f"need at least {MIN_WEIGHT_TRIALS} trials for weight estimation, "
            f"got {stats.trials}"
        )
    u = l - 1
    table: dict[tuple[complex, ...], float] = {}
    for code, cnt in stats.delta_pattern_counts[u].items():
        own, pattern = decode_delta_pattern(code, u, constellation)
        if tx is not None and own != tx:
            continue
        table[pattern] = table.get(pattern, 0.0) + cnt
    total = sum(table.values())
    if total == 0:
        raise ValueError(f"no trials with symbol {tx} transmitted by user {l}")
    return {pat: cnt / total for pat, cnt in table.items()}


def sic_weight_tables(stats: SimStats, constellation: Constellation):
    """Residual weight tables of every user and transmitted symbol.

    Maps (l, tx) to sic_delta_weights(stats, l, constellation, tx=tx),
    the table weighted-mode hypothesis averaging takes for the pairs of
    user l that transmit tx.
    """
    return {
        (l, tx): sic_delta_weights(stats, l, constellation, tx=tx)
        for l in range(1, stats.num_users + 1)
        for tx in range(constellation.size)
    }


def stats_rows(stats: SimStats, bits_per_symbol: int) -> list[dict]:
    """Flatten a SimStats into CSV-ready rows.

    Columns: snr_db, user, metric, value, ci_half_width, trials.  Metrics
    are ber, ser and pep_{tx}to{rx} for every ordered symbol pair.
    """
    rows = []
    for u in range(stats.num_users):
        l = u + 1
        nbits = stats.trials * bits_per_symbol
        ber = int(stats.bit_errors[u]) / nbits
        ber_half = 1.959963984540054 * math.sqrt(max(ber * (1 - ber), 0.0) / nbits)
        rows.append(
            {
                "snr_db": stats.snr_db,
                "user": l,
                "metric": "ber",
                "value": ber,
                "ci_half_width": ber_half,
                "trials": stats.trials,
            }
        )
        ser = int(stats.symbol_errors[u]) / stats.trials
        ser_half = 1.959963984540054 * math.sqrt(
            max(ser * (1 - ser), 0.0) / stats.trials
        )
        rows.append(
            {
                "snr_db": stats.snr_db,
                "user": l,
                "metric": "ser",
                "value": ser,
                "ci_half_width": ser_half,
                "trials": stats.trials,
            }
        )
        for a in range(stats.m):
            for b in range(stats.m):
                if a == b or stats.tx_counts[u, a] == 0:
                    continue
                est = empirical_pep(stats, l, a, b)
                rows.append(
                    {
                        "snr_db": stats.snr_db,
                        "user": l,
                        "metric": f"pep_{a}to{b}",
                        "value": est.pep,
                        "ci_half_width": est.ci_half_width,
                        "trials": est.conditioning_trials,
                    }
                )
    return rows
