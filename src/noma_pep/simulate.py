"""Monte Carlo link simulator for downlink NOMA with imperfect SIC.

Each trial superposes the users' symbols with power-domain weights,
passes the sum through each user's ordered Rayleigh channel plus AWGN, and
runs the sequential minimum-distance SIC receiver at every user.  SIC
decision errors propagate; there is no genie correction.

A batch draws all of its random numbers first (gains, symbols, noise)
and keeps only what detection reads: each trial's per-axis symbol
signs and the gain-normalised noise q = z/h of every user, stored as
contiguous real arrays.  Neither depends on the SNR or on the power
allocation, so one batch serves every SNR point and every allocation
(alpha, P) of a call (common random numbers), and only the detection
runs per point.  Dividing r = h s + sigma z by h leaves y = s + sigma q
per user, and along each axis the superposition s is a signed sum of
the steps sqrt(alpha_k P) a (a the magnitude of the axis components of
the alphabet).  Every SIC stage, the user's own included, decides the
sign of each axis of the residual of y and subtracts its step with
that sign, which is the minimum-distance chain for alphabets with one
point per quadrant, mirrored across both axes (QPSK); simulate and
sic_detect reject any other alphabet.  Detection runs in row blocks of
BLOCK_ROWS trials in reused buffers, so its temporaries stay small
whatever the batch size.  For the pairwise counters the own stage keeps
three bits per trial: whether the hypothesis that flips the real part,
the imaginary part or both of the sent symbol scores no worse than it.

Two counters share one batching path.  simulate runs every user's full chain
and keeps every counter of SimStats; sic_patterns keeps only the SIC
residual patterns (PatternCounts), which is all that weighted-mode
hypothesis averaging reads, so it stops each user's chain before the
own stage and counts user 1's patterns, its own symbols, once per batch.
Both validate, split trials into batches, seed them, spread them over
workers and merge them in the same code, share the chain, the pattern
key and its decoding, and give user for user the same patterns.

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
    "linear_snr",
    "SimStats",
    "PatternCounts",
    "PepEstimate",
    "simulate",
    "sic_patterns",
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
        return SimStats(
            snr_db=self.snr_db,
            trials=self.trials + other.trials,
            detected_counts=self.detected_counts + other.detected_counts,
            pairwise_counts=self.pairwise_counts + other.pairwise_counts,
            bit_errors=self.bit_errors + other.bit_errors,
            delta_pattern_counts=_merged_patterns(self, other),
        )


@dataclass
class PatternCounts:
    """SIC residual patterns of one run, as sic_patterns counts them.

    delta_pattern_counts has SimStats' meaning and equals, dict order
    included, that of simulate with the same arguments.
    """

    snr_db: float
    trials: int
    delta_pattern_counts: list[dict[int, int]]

    def merge(self, other: "PatternCounts") -> "PatternCounts":
        if (len(self.delta_pattern_counts), self.snr_db) != (
            len(other.delta_pattern_counts),
            other.snr_db,
        ):
            raise ValueError(
                "cannot merge counts from different configurations")
        return PatternCounts(
            snr_db=self.snr_db,
            trials=self.trials + other.trials,
            delta_pattern_counts=_merged_patterns(self, other),
        )


def _merged_patterns(mine, theirs) -> list[dict[int, int]]:
    """Per-user sums of two runs' pattern counts, mine's codes first."""
    patterns = []
    for a, b in zip(mine.delta_pattern_counts, theirs.delta_pattern_counts):
        d = dict(a)
        for code, cnt in b.items():
            d[code] = d.get(code, 0) + cnt
        patterns.append(d)
    return patterns


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


def _quadrant_table(constellation: Constellation) -> np.ndarray:
    """Symbol index of each quadrant, keyed 2*(re < 0) + (im < 0).

    Slicing each axis of the gain-normalised residual by sign is the
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


def _axis_steps(cfg: SystemConfig) -> np.ndarray:
    """Per-axis SIC steps of cfg, shape (2, L).

    steps[0, k] and steps[1, k] are sqrt(alpha_k P) times the magnitude of
    the real and of the imaginary part of the points of an alphabet that
    _quadrant_table accepts.  Along each axis of y = r/h, user k+1's
    signal is +steps[:, k] or -steps[:, k]: the superposition is a signed
    sum of the steps, SIC stage k subtracts its step with the sign it
    decided, and the stage thresholds are the partial sums.
    """
    p = cfg.constellation.points_array()[0]
    coeff = np.sqrt(np.asarray(cfg.alpha) * cfg.P)
    return np.array([abs(p.real) * coeff, abs(p.imag) * coeff])


def _sic_chain(y, steps, u: int, work=None) -> np.ndarray:
    """User u+1's SIC chain on both axes of its gain-normalised samples.

    y has shape (2, n): the real and imaginary parts of r/h.  Stage k,
    for k = 0..u in power order, decides the sign of each axis of the
    residual, a component that is exactly zero counting as non-negative;
    stages k < u then subtract steps[:, k] with the decided signs, and
    stage u is the user's own decision.  Overwrites y with the residual
    of the own stage and returns the decisions per axis, shape (2, n):
    bit k is set where stage k decided negative.  work, if given, is a
    float scratch array shaped like y.
    """
    leaf = np.zeros(y.shape, dtype=np.min_scalar_type((2 << u) - 1))
    for k in range(u + 1):
        neg = y < 0
        leaf += neg * leaf.dtype.type(1 << k)
        if k < u:
            # exactly -steps where negative and +steps elsewhere
            delta = np.multiply(neg, -2.0 * steps[:, k, None], out=work)
            delta += steps[:, k, None]
            y -= delta
    return leaf


def _stage_symbols(quadrant, re, im, k: int):
    """Symbol indices of stage (or user) k+1 from per-axis sign bits.

    Bit k of re (im) is set where the real (imaginary) part is negative.
    """
    return quadrant[2 * ((re >> k) & 1) + ((im >> k) & 1)]


def _run_batch(points, quadrant, n: int, seed: int) -> list[SimStats]:
    """Counters of one batch of n trials at each (config, SNR) point, in order.

    The configs of points differ at most in alpha and P, so the batch is
    drawn once and every point detects the same gains, symbols and
    standard-normal noise, with its config's superposition and its own
    noise level.
    """
    signs, q = _draw_batch(points[0][0], n, seed)
    return [_detect_batch(c, quadrant, snr_db, steps, signs, s, q)
            for c, snr_db, steps, s in _superpositions(points, signs)]


def _run_pattern_batch(points, quadrant, n: int, seed: int
                       ) -> list[PatternCounts]:
    """Residual patterns of one batch at each (config, SNR) point, in order.

    Draws the batch as _run_batch does and gives the same patterns, but
    runs user u+1's chain only through the stages before its own and
    never builds the other counters.  User 1 has no earlier stage: its
    patterns are its own symbols, counted once for every point, and the
    symbol half of every user's key is built once per batch.
    """
    signs, q = _draw_batch(points[0][0], n, seed)
    sign_keys = [_sign_key(signs, u) for u in range(q.shape[1])]
    own = _pattern_counts(sign_keys[0], quadrant, 0)
    counts = []
    for c, snr_db, steps, s in _superpositions(points, signs):
        sigma = _noise_scale(c, snr_db)
        patterns = [dict(own)]
        for u in range(1, len(sign_keys)):
            keys = np.empty_like(sign_keys[u])
            blocks = _chain_blocks(q, s, sigma, steps, u, u - 1)
            for rows, leaf, _, _ in blocks:
                _pattern_keys(sign_keys[u][rows], leaf, u, out=keys[rows])
            patterns.append(_pattern_counts(keys, quadrant, u))
        counts.append(PatternCounts(snr_db=snr_db, trials=n,
                                    delta_pattern_counts=patterns))
    return counts


def _superpositions(points, signs):
    """Yield (config, snr_db, steps, s) for each point of a drawn batch.

    steps are the config's axis steps and s, shape (2, n), both axes of
    the superposition of the batch's symbols under it.  s is one buffer,
    rebuilt only when the config changes from the previous point.
    """
    n = signs.shape[1]
    s = np.empty((2, n))
    built = None
    for c, snr_db in points:
        if c != built:
            steps, built = _axis_steps(c), c
            # table[x, j]: axis x of the superposition of symbols whose
            # signs along x are the bits of j, a signed sum of the steps
            j = np.arange(1 << c.num_users)[:, None]
            table = steps @ (1 - 2 * ((j >> np.arange(c.num_users)) & 1)).T
            # take() is faster than indexing; a block at a time keeps the
            # intp copy of its indices small
            for start in range(0, n, BLOCK_ROWS):
                rows = slice(start, start + BLOCK_ROWS)
                for x in range(2):
                    s[x, rows] = table[x].take(signs[x, rows])
        yield c, snr_db, steps, s


def _draw_batch(cfg: SystemConfig, n: int, seed: int):
    """Draw one batch and keep what detection reads of it.

    Returns signs, shape (2, n), where bit k of signs[0] (signs[1]) is set
    when user k+1's symbol has a negative real (imaginary) part, and the
    gain-normalised noise q = z/h, shape (2, L, n): the real and the
    imaginary parts of each user's standard-normal noise over its ordered
    gain.  Neither depends on the SNR or on (alpha, P).
    """
    rng = np.random.default_rng(seed)
    L = cfg.num_users
    m = cfg.constellation.size
    std_h = math.sqrt(cfg.channel.sigma_h_sq)

    # Draw order is fixed (gains, symbols, noise) so a batch is a pure
    # function of (channel, constellation, n, seed).
    hr = rng.normal(scale=std_h, size=(n, L))
    hi = rng.normal(scale=std_h, size=(n, L))
    g = hr * hr
    g += hi * hi
    # 1/h = (hr - j hi)/g; dividing before the sort lets g go first
    hr /= g
    hi /= g
    order = np.argsort(g, axis=1, kind="stable")
    del g
    hr = np.take_along_axis(hr, order, axis=1)
    hi = np.take_along_axis(hi, order, axis=1)
    del order

    tx = rng.integers(0, m, size=(n, L))
    pts = cfg.constellation.points_array()
    signs = np.zeros((2, n), dtype=np.min_scalar_type((1 << L) - 1))
    for x, negative in enumerate((pts.real < 0, pts.imag < 0)):
        for k in range(L):
            signs[x] += (negative << k).astype(signs.dtype)[tx[:, k]]
    del tx

    # The noise is drawn in row blocks, the same stream as one draw, so
    # that q and the gains are the only whole-batch float arrays.
    q = np.empty((2, L, n))
    for part in range(2):  # real parts of z, then imaginary parts
        for start in range(0, n, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            z = rng.standard_normal(size=(min(BLOCK_ROWS, n - start), L)).T
            ur, ui = hr[rows].T, hi[rows].T
            if part == 0:
                np.multiply(z, ur, out=q[0, :, rows])
                np.multiply(z, ui, out=q[1, :, rows])
                np.negative(q[1, :, rows], out=q[1, :, rows])
            else:
                q[0, :, rows] += z * ui
                q[1, :, rows] += z * ur
    return signs, q


def _noise_scale(cfg: SystemConfig, snr_db: float) -> float:
    """Standard deviation of each axis of the noise at snr_db."""
    return math.sqrt(cfg.noise_var_for_snr(snr_db) / 2.0)


def _chain_blocks(q, s, sigma: float, steps, u: int, last: int):
    """Run user u+1's SIC chain through stage `last`, block by block.

    The chain works on y = s + sigma * q[:, u], both axes of r/h, in row
    blocks of BLOCK_ROWS trials.  Yields (rows, leaf, y, work) per block:
    the block's trial slice, the decisions of stages 0..last (see
    _sic_chain), the residual after the stages before `last`, and a
    scratch array shaped like y.  y and work are buffers reused by the
    next block.
    """
    n = q.shape[2]
    y_buf = np.empty((2, min(n, BLOCK_ROWS)))
    work_buf = np.empty_like(y_buf)
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        size = min(BLOCK_ROWS, n - start)
        y = np.multiply(q[:, u, rows], sigma, out=y_buf[:, :size])
        y += s[:, rows]
        work = work_buf[:, :size]
        yield rows, _sic_chain(y, steps, last, work), y, work


def _key_dtype(u: int) -> np.dtype:
    """Dtype of user u+1's pattern keys.

    A key holds, from bit 0 up, the real and then the imaginary sign bits
    of users 1..u+1's symbols, then those of stages 1..u's decisions,
    w = u+1 bits per group of symbols.  It is at least 16 bits wide
    because np.unique sorts uint8 far more slowly.
    """
    widest = (1 << 4 * u + 2) - 1
    return np.promote_types(np.uint16, np.min_scalar_type(widest))


def _sign_key(signs, u: int, out=None):
    """The symbol half of user u+1's pattern keys, from the batch's signs."""
    w = u + 1
    if out is None:
        out = np.empty(signs.shape[1], dtype=_key_dtype(u))
    np.bitwise_and(signs[0], (1 << w) - 1, out=out)
    out += (signs[1] & ((1 << w) - 1)) * out.dtype.type(1 << w)
    return out


def _pattern_keys(sign_key, leaf, u: int, out):
    """User u+1's pattern keys: sign_key (see _sign_key) plus the
    decisions of stages 1..u, the low u bits of leaf (see _sic_chain)."""
    w, digit = u + 1, out.dtype.type
    np.add(sign_key, (leaf[0] & ((1 << u) - 1)) * digit(1 << 2 * w), out=out)
    out += (leaf[1] & ((1 << u) - 1)) * digit(1 << 3 * w - 1)
    return out


def _pattern_counts(keys, quadrant, u: int) -> dict[int, int]:
    """Count user u+1's pattern keys by code, in increasing code order.

    Pattern code: own transmitted symbol in the lowest base-m digit, then
    one base-m^2 digit per SIC stage for the (tx, detected) pair.
    """
    m = len(quadrant)
    w = u + 1
    values, counts = np.unique(keys, return_counts=True)
    sr = values.astype(np.int64)
    si, dr, di = sr >> w, sr >> 2 * w, sr >> 3 * w - 1
    code = _stage_symbols(quadrant, sr, si, u)
    mult = m
    for k in range(u):
        code += (_stage_symbols(quadrant, sr, si, k) * m
                 + _stage_symbols(quadrant, dr, di, k)) * mult
        mult *= m * m
    order = np.argsort(code)
    return dict(zip(code[order].tolist(), counts[order].tolist()))


def _detect_batch(cfg, quadrant, snr_db, steps, signs, s, q) -> SimStats:
    """Run every user's SIC chain over a drawn batch at one SNR.

    User u+1's chain works on y = s + sigma * q[:, u], both axes of r/h,
    where s, shape (2, n), is the superposition of the batch's symbols
    under cfg (see _chain_blocks).
    """
    L, n = q.shape[1:]
    m = cfg.constellation.size
    sigma = _noise_scale(cfg, snr_db)
    pts = cfg.constellation.points_array()
    half = np.abs([[pts[0].real], [pts[0].imag]])

    # keyed[u, e]: trials of user u+1 with event key e.  From bit 0 up, e
    # holds the real and the imaginary sign of the sent symbol a (a set
    # bit is negative), those of the own decision d, and three bits set
    # when the hypothesis that differs from a in the real part, in the
    # imaginary part or in both scored no worse than a.
    keyed = np.zeros((L, 128), dtype=np.int64)
    patterns = []
    for u in range(L):
        keys = np.empty(n, dtype=_key_dtype(u))
        for rows, leaf, y, work in _chain_blocks(q, s, sigma, steps, u, u):
            sent = (signs[:, rows] & (1 << u)) != 0
            # t: the axes of Re(x * conj(a)), x the own residual; a
            # hypothesis beats a when the terms it flips sum to <= 0
            t = np.multiply(sent, -2.0 * half, out=work)
            t += half
            t *= y
            axis = np.uint8(4) * (leaf >= (1 << u))
            axis += sent
            axis += np.uint8(16) * (t <= 0)
            key = axis[0] + np.uint8(2) * axis[1]
            key += np.uint8(64) * (np.add(t[0], t[1], out=y[0]) <= 0)
            keyed[u] += np.bincount(key, minlength=128)

            pk = _sign_key(signs[:, rows], u, out=keys[rows])
            _pattern_keys(pk, leaf, u, out=pk)
        patterns.append(_pattern_counts(keys, quadrant, u))

    # events[u, a, d, f]: the keyed counts by sent symbol, decision and
    # the three hypothesis bits.  flips[a, b] is 1, 2 or 3 when b differs
    # from a in the real part, the imaginary part or both, and b beat a
    # in the trials whose bit flips - 1 of f is set.
    e = np.arange(128)
    events = np.zeros((L, m, m, 8), dtype=np.int64)
    events[:, _stage_symbols(quadrant, e, e >> 1, 0),
           _stage_symbols(quadrant, e >> 2, e >> 3, 0), e >> 4] = keyed
    neg = np.array([pts.real < 0, pts.imag < 0], dtype=np.int64)
    flips = (neg[0, :, None] != neg[0]) + 2 * (neg[1, :, None] != neg[1])
    mask = (flips[..., None] > 0) & (
        (np.arange(8) >> np.maximum(flips - 1, 0)[..., None]) & 1 == 1)
    detected = events.sum(axis=3)
    return SimStats(
        snr_db=snr_db,
        trials=n,
        detected_counts=detected,
        pairwise_counts=np.einsum("uadf,abf->uab", events,
                                  mask.astype(np.int64)),
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
    SNR is not finite or out of range for a configuration (see
    linear_snr), a sequence is empty, the configurations differ in
    more than alpha and P, or the alphabet cannot be sliced per axis (see
    _quadrant_table), and for fewer than one trial, worker or batch row.
    """
    return _run_batches(_run_batch, cfg, snr_db, trials, seed, workers,
                        batch_size)


def sic_patterns(
    cfg: SystemConfig | Sequence[SystemConfig],
    snr_db: float | Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> PatternCounts | list:
    """SIC residual patterns of the trials simulate would run.

    Takes simulate's arguments, validates them, draws and spreads its
    batches and shapes its result the same way, with a PatternCounts in
    place of each SimStats: its delta_pattern_counts equal simulate's,
    dict order included.  It is what sic_weight_tables needs, for a
    fraction of the detection work: no user's own stage runs.
    """
    return _run_batches(_run_pattern_batch, cfg, snr_db, trials, seed,
                        workers, batch_size)


def _run_batches(run, cfg, snr_db, trials, seed, workers, batch_size):
    """Validate, batch, seed, spread and merge a run of the counter `run`.

    run(points, quadrant, n, seed) counts one batch at every (config,
    SNR) point; _run_batch and _run_pattern_batch are the two counters.
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
    for c in cfgs:
        for s in snrs:
            c.noise_var_for_snr(s)
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
    args = [(run, chunk, quadrant, nb, seed + i)
            for i, nb in enumerate(sizes) for chunk in chunks]
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
            results = list(pool.map(_call, args))
    else:
        results = [_call(a) for a in args]

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


def _call(args):
    run, *rest = args
    return run(*rest)


def sic_detect(r: complex, h: complex, cfg: SystemConfig, l: int):
    """Sequential SIC detection of one received sample at user l.

    Runs the simulator's SIC chain on the single sample y = r/h: users
    1..l-1 in power order, each decision subtracted before the next
    stage, then user l's own symbol, every stage sliced per axis.
    Returns the pair (detected_index, prior_decision_indices).  Raises
    ValueError when the alphabet cannot be sliced per axis.
    """
    if not 1 <= l <= cfg.num_users:
        raise ValueError(f"user index {l} out of range 1..{cfg.num_users}")
    quadrant = _quadrant_table(cfg.constellation)
    r, h = complex(r), complex(h)
    # y = r * conj(h) / |h|^2, as the simulator normalises its noise; a
    # zero gain gives NaN, which every stage decides as non-negative
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.float64(h.real * h.real + h.imag * h.imag)
        ur, ui = h.real / g, h.imag / g
        y = np.array([[r.real * ur + r.imag * ui],
                      [r.imag * ur - r.real * ui]])
        leaf = _sic_chain(y, _axis_steps(cfg), l - 1)
    re, im = int(leaf[0, 0]), int(leaf[1, 0])
    *priors, own = (int(_stage_symbols(quadrant, re, im, k))
                    for k in range(l))
    return own, tuple(priors)


def _wald_half_width(p: float, n: int) -> float:
    """95% Wald half-width of a proportion p observed over n trials."""
    return 1.959963984540054 * math.sqrt(max(p * (1 - p), 0.0) / n)


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
    return PepEstimate(
        pep=p,
        ci_half_width=3.0 / n if k == 0 else _wald_half_width(p, n),
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
    stats: SimStats | PatternCounts, l: int, constellation: Constellation,
    tx: int | None = None
):
    """Normalized weights of the prior-delta patterns observed at user l.

    With tx given, weights are conditioned on user l having transmitted
    that symbol; SIC error directions correlate strongly with the own
    symbol, so hypothesis averaging should use the table conditioned on
    the pair's transmitted symbol.  With tx=None the marginal table over
    all transmitted symbols is returned.

    Patterns that differ only in which symbol pair produced the same
    delta value are aggregated, since the error statistic depends on the
    delta alone.  Weights sum to 1.  stats is a SimStats or a
    PatternCounts.
    """
    _check_weight_trials(stats)
    tables = _residual_counts(stats.delta_pattern_counts[l - 1], l - 1,
                              constellation, by_own=tx is not None)
    return _normalised(tables.get(tx, {}), l, tx)


def sic_weight_tables(stats: SimStats | PatternCounts,
                      constellation: Constellation):
    """Residual weight tables of every user and transmitted symbol.

    Maps (l, tx) to sic_delta_weights(stats, l, constellation, tx=tx),
    the table weighted-mode hypothesis averaging takes for the pairs of
    user l that transmit tx, decoding each pattern code once.  stats is
    a SimStats or a PatternCounts.
    """
    _check_weight_trials(stats)
    weights = {}
    for u, counts in enumerate(stats.delta_pattern_counts):
        tables = _residual_counts(counts, u, constellation, by_own=True)
        for tx in range(constellation.size):
            weights[u + 1, tx] = _normalised(tables.get(tx, {}), u + 1, tx)
    return weights


def _check_weight_trials(stats) -> None:
    if stats.trials < MIN_WEIGHT_TRIALS:
        raise ValueError(
            f"need at least {MIN_WEIGHT_TRIALS} trials for weight estimation, "
            f"got {stats.trials}"
        )


def _residual_counts(counts: dict[int, int], u: int,
                     constellation: Constellation, by_own: bool):
    """Trials per residual pattern of user u+1's pattern counts.

    Returns {own symbol: {pattern: count}} when by_own, else {None:
    {pattern: count}} over every own symbol; patterns keep the order in
    which their first code comes.
    """
    tables: dict = {}
    for code, cnt in counts.items():
        own, pattern = decode_delta_pattern(code, u, constellation)
        table = tables.setdefault(own if by_own else None, {})
        table[pattern] = table.get(pattern, 0.0) + cnt
    return tables


def _normalised(table: dict, l: int, tx: int | None) -> dict:
    total = sum(table.values())
    if total == 0:
        raise ValueError(f"no trials with symbol {tx} transmitted by user {l}")
    return {pat: cnt / total for pat, cnt in table.items()}


def stats_rows(stats: SimStats, bits_per_symbol: int) -> list[dict]:
    """Flatten a SimStats into CSV-ready rows.

    Columns: snr_db, user, metric, value, ci_half_width, trials.  Metrics
    are ber, ser and pep_{tx}to{rx} for every ordered symbol pair.
    """
    keys = ("snr_db", "user", "metric", "value", "ci_half_width", "trials")
    symbol_errors = stats.symbol_errors
    rows = []
    for u in range(stats.num_users):
        l = u + 1
        for metric, errors, n in (
            ("ber", stats.bit_errors[u], stats.trials * bits_per_symbol),
            ("ser", symbol_errors[u], stats.trials),
        ):
            p = int(errors) / n
            rows.append((l, metric, p, _wald_half_width(p, n), stats.trials))
        for a in range(stats.m):
            for b in range(stats.m):
                if a == b or stats.tx_counts[u, a] == 0:
                    continue
                est = empirical_pep(stats, l, a, b)
                rows.append((l, f"pep_{a}to{b}", est.pep, est.ci_half_width,
                             est.conditioning_trials))
    return [dict(zip(keys, (stats.snr_db,) + row)) for row in rows]
