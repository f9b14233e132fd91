"""Monte Carlo link simulator for downlink NOMA with imperfect SIC.

Each trial superposes the users' symbols with power-domain weights,
passes the sum through each user's ordered Rayleigh channel plus AWGN, and
runs the sequential minimum-distance SIC receiver at every user.  SIC
decision errors propagate; there is no genie correction.

A batch runs as a pipeline over blocks of BLOCK_ROWS trials and keeps
nothing of its own size.  At 2^14 rows each (2, b) float array of a block is 256 KiB, so a
block's working set stays in a per-core L2 cache.  One helper thread
per batch draws the blocks one ahead of the detection, into a ring of
SLOTS preallocated buffers (see _ahead); numpy's draws and ufunc loops
release the GIL, so drawing block i+1 overlaps detecting block i.  Only
the helper reads the batch's streams, in block order, so the counters
do not depend on the thread either.  Batch i of a run
seeded s draws from three Generators that SeedSequence(s, spawn_key=(i,))
spawns, one each for the gains, the symbols and the noise, so no two
batches of one run or of neighbouring seeds share a stream.  Each block
draws its rows of every stream: the ordered gain magnitudes |h| as
Renyi's sums of exponentials (no sort, no channel phase), the symbols as
per-axis sign bits, and the noise, from which it builds the
gain-normalised noise q = z/|h| of every user and detects every SNR
point and every allocation (alpha, P) of the call on it while it is in
cache.  Neither q nor the signs depend on the SNR or on the allocation,
so one batch serves every point (common random numbers), and only the
detection runs per point.  The coherent receiver
sees r/h = s + sigma z e^{-j phi}/|h|, and z e^{-j phi} has the law of z,
so the per-user samples y = s + sigma q have the law of r/h.  Along each
axis the superposition s is a signed sum of the steps sqrt(alpha_k P) a
(a the magnitude of the axis components of the alphabet).  Every SIC
stage, the user's own included, decides the sign of each axis of the
residual of y and subtracts its step with that sign, which is the
minimum-distance chain for alphabets with one point per quadrant,
mirrored across both axes (QPSK); simulate and sic_detect reject any
other alphabet.  For the pairwise counters the own stage keeps three
bits per trial: whether the hypothesis that flips the real part, the
imaginary part or both of the sent symbol scores no worse than it.

Two counters share one batching path, and each keeps only what its
callers read.  simulate runs every user's full chain and returns a
SimStats of the detection counters.  sic_patterns keeps only the SIC
residual patterns (PatternCounts), the one input of sic_weight_tables
and so of weighted-mode hypothesis averaging; with simulate's arguments
it draws simulate's batches, so its patterns are those of the trials
simulate counts.  sic_patterns counts user 1's patterns, its own
symbols, once for all points.  For a few points it stops each later
user's chain before the own stage.  For many, such as an allocation
grid, it bins instead: along each axis the decisions of the stages
before user u+1's own are a step function of the gain-normalised noise
q that never steps down, and its steps sit at a few breakpoints per
point and sign word, which a bisection over the float64 order finds
exactly by running the chain itself.  Each trial's q is binned once
against the breakpoints of every point, and every point's patterns are
read from the counts of the bins (_BinTally).  Both counters validate,
split trials into batches, seed them, spread them over workers and
merge them in the same code, and share the chain.

Counters are plain integers so that merging partial runs is exact
component-wise addition.  A run is split into batches of BATCH_TRIALS
trials, the last one possibly shorter, and batch i always draws from
the streams of spawn key (i,) of the seed, so a run is a function of
its configurations, SNRs, trials and seed alone: it gives byte-identical
results for any worker count, and an SNR point or an allocation gives
the same counters alone or in a list.  Every counter builds up block by
block in state that does not grow with the batch: simulate's in a fixed
table of event counts, and residual patterns in a dense table when a
user's key space has at most TABLE_CELLS keys, and otherwise over the
keys that occur, never over the M^(2L) code space.  The rows of a block
and the cells of a table are separate constants: neither changes a
counter.  What the simulator reads of the alphabet, axis by axis, it
reads from one validated record (_slicer).
"""

from __future__ import annotations

import collections
import functools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .constellation import Constellation
from .system import SystemConfig, _require_weight_trials

__all__ = [
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
    "sic_weight_tables",
    "stats_rows",
]

BATCH_TRIALS = 1_000_000  # trials per batch; unlike BLOCK_ROWS, sets counters
BLOCK_ROWS = 1 << 14  # detector rows per block; counters do not depend on it
SLOTS = 2  # blocks of a batch in flight: one detected, the next one drawn
TABLE_CELLS = 1 << 16  # cells of one dense count table (_KeyTally, _BinTally)
MIN_BIN_STAGES = 20  # chain stages a binning pass must replace; measured
# sic_patterns' keys of user L take 4L - 2 bits of a uint64; simulate
# keeps the limit, so that both counters take the same configurations
MAX_USERS = 16


@dataclass(kw_only=True)
class PatternCounts:
    """SIC residual patterns of one run, as sic_patterns counts them.

    delta_pattern_counts[u]   map from an encoded (own symbol, SIC stage
                              decisions) key at user u+1 to its count;
                              keyed by the user's own transmitted symbol
                              because SIC error directions correlate
                              with it through the uncancelled own signal

    The fields are keyword-only, so a positional construction fails
    instead of reordering them.
    """

    snr_db: float
    trials: int
    delta_pattern_counts: list[dict[int, int]]

    def merge(self, other: PatternCounts) -> PatternCounts:
        """The counts of both runs, self's pattern codes first."""
        if (len(self.delta_pattern_counts), self.snr_db) != (
            len(other.delta_pattern_counts),
            other.snr_db,
        ):
            raise ValueError(
                "cannot merge counts from different configurations")
        patterns = []
        for a, b in zip(self.delta_pattern_counts, other.delta_pattern_counts):
            d = dict(a)
            for code, cnt in b.items():
                d[code] = d.get(code, 0) + cnt
            patterns.append(d)
        return replace(self, trials=self.trials + other.trials,
                       delta_pattern_counts=patterns)


@dataclass(kw_only=True)
class SimStats:
    """Accumulated detection counters of one simulation run.

    detected_counts[u, a, b]  trials where user u+1 sent symbol a and the
                              full SIC detector output b (rows sum to the
                              per-symbol transmit counts)
    pairwise_counts[u, a, b]  trials where hypothesis b beat the true
                              symbol a in the binary metric comparison at
                              user u+1 (b != a; not mutually exclusive
                              across b, so rows do not sum to trials)
    bit_errors[u]             bit errors of user u+1's detected symbols

    The user count, alphabet size, transmit counts and symbol errors are
    exact integer sums of detected_counts.  The residual patterns of the
    same trials are sic_patterns' with the same arguments.  The fields
    are keyword-only, as PatternCounts' are.
    """

    snr_db: float
    trials: int
    detected_counts: np.ndarray
    pairwise_counts: np.ndarray
    bit_errors: np.ndarray

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

    def merge(self, other: SimStats) -> SimStats:
        """The counters of both runs."""
        if (self.detected_counts.shape, self.snr_db) != (
                other.detected_counts.shape, other.snr_db):
            raise ValueError(
                "cannot merge counts from different configurations")
        return replace(
            self,
            trials=self.trials + other.trials,
            detected_counts=self.detected_counts + other.detected_counts,
            pairwise_counts=self.pairwise_counts + other.pairwise_counts,
            bit_errors=self.bit_errors + other.bit_errors,
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


class _Slicer(NamedTuple):
    """What the SIC simulator reads of an alphabet, axis by axis.

    quadrant[2 * (re < 0) + (im < 0)]  symbol index of each quadrant
    negative[x, a]                      1 where axis x (real, imaginary)
                                        of point a is negative, else 0
    magnitude[x, 0]                     |axis x| of every point
    """

    quadrant: np.ndarray
    negative: np.ndarray
    magnitude: np.ndarray


@functools.lru_cache(maxsize=8)
def _slicer(constellation: Constellation) -> _Slicer:
    """The _Slicer of an alphabet.

    Slicing each axis of the gain-normalised residual by sign is the
    minimum-distance decision only when the alphabet has one point per
    quadrant and the points mirror each other across both axes, as QPSK
    does; any other alphabet raises ValueError, on every call, since
    only accepted alphabets are cached.  The arrays are read-only because
    every caller of one alphabet shares them.
    """
    pts = constellation.points_array()
    negative = np.array([pts.real < 0, pts.imag < 0], dtype=np.int64)
    magnitude = np.abs([pts.real, pts.imag])
    key = 2 * negative[0] + negative[1]
    if (
        pts.size != 4
        or sorted(key.tolist()) != [0, 1, 2, 3]
        or not np.all(magnitude > 0)
        or not np.all(magnitude == magnitude[:, :1])
    ):
        raise ValueError(
            "the SIC simulator slices each axis by sign and needs one "
            "point per quadrant, mirrored across both axes (QPSK)"
        )
    quadrant = np.empty(4, dtype=np.int64)
    quadrant[key] = np.arange(4)
    slicer = _Slicer(quadrant, negative, magnitude[:, :1].copy())
    for table in slicer:
        table.flags.writeable = False
    return slicer


def _axis_steps(cfg: SystemConfig) -> np.ndarray:
    """Per-axis SIC steps of cfg, shape (2, L).

    steps[0, k] and steps[1, k] are sqrt(alpha_k P) times the magnitude of
    the real and of the imaginary part of the points (see _slicer).
    Along each axis of y = r/h, user k+1's signal is +steps[:, k] or
    -steps[:, k]: the superposition is a signed sum of the steps, SIC
    stage k subtracts its step with the sign it decided, and the stage
    thresholds are the partial sums.
    """
    return (_slicer(cfg.constellation).magnitude
            * np.sqrt(np.asarray(cfg.alpha) * cfg.P))


def _sic_chain(y, steps, u: int, work=None) -> np.ndarray:
    """User u+1's SIC chain on both axes of its gain-normalised samples.

    y has shape (2, n): the real and imaginary parts of r/h.  Stage k,
    for k = 0..u in power order, decides the sign of each axis of the
    residual, a component that is exactly zero counting as non-negative;
    stages k < u then subtract steps[:, k] with the decided signs, and
    stage u is the user's own decision.  Overwrites y with the residual
    of the own stage and returns the decisions per axis, shaped like y:
    bit k is set where stage k decided negative.  work, if given, is a
    float scratch array shaped like y.  Points with steps of their own
    run at once with steps of shape (2, L, P) and y of shape (2, n, P).
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


def _run_batch(points, n: int, seed: int, batch: int) -> list[SimStats]:
    """Counters of batch `batch` (n trials) of a run seeded `seed`, at each
    (config, SNR) point, in order.

    The configs of points differ at most in alpha and P, so the batch is
    drawn once and every point detects the same gains, symbols and
    standard-normal noise, with its config's superposition and its own
    noise level, block by block (see _blocks).
    """
    cfg = points[0][0]
    magnitude = _slicer(cfg.constellation).magnitude
    keyed = np.zeros((len(points), cfg.num_users, 128), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # see _draw_batch
        for block in _blocks(_plan(points), cfg, n, seed, batch, BLOCK_ROWS):
            _detect_batch(block, magnitude, keyed)
    return [_sim_stats(c, snr_db, n, keyed[i])
            for i, (c, snr_db) in enumerate(points)]


def _run_pattern_batch(points, n: int, seed: int, batch: int
                       ) -> list[PatternCounts]:
    """Residual patterns of one batch at each (config, SNR) point, in order.

    Draws the batch in BLOCK_ROWS blocks as _run_batch does, from the
    same streams.  User 1 has no earlier stage: its patterns are its own
    symbols, counted once for every point.  User u+1 is counted by
    _BinTally, which bins each trial once for all points, when one
    binning pass replaces at least MIN_BIN_STAGES chain stages (the
    points it holds times the u stages before the user's own), and
    otherwise by running its chain through those stages, point by point.
    """
    cfg = points[0][0]
    L = cfg.num_users
    plan = _plan(points)
    own = _KeyTally(0)
    tallies = [[_KeyTally(u) for u in range(1, L)] for _ in points]
    binned = {u: _BinTally(plan, u, n) for u in range(1, L)
              if min(len(points), _pass_points(L, u)) * u >= MIN_BIN_STAGES}
    chained = [u for u in range(1, L) if u not in binned]
    with np.errstate(over="ignore", invalid="ignore"):  # see _draw_batch
        for signs, q, chains in _blocks(plan, cfg, n, seed, batch,
                                        BLOCK_ROWS):
            own.add(_sign_key(signs, 0))
            for bins in binned.values():
                bins.add(signs, q)
            if not chained:
                continue
            sign_keys = {u: _sign_key(signs, u) for u in chained}
            for tally, chain in zip(tallies, chains):
                for u in chained:
                    leaf, _, _ = chain(u, u - 1)
                    tally[u - 1].add(_pattern_keys(sign_keys[u], leaf, u))
    for u, bins in binned.items():
        for tally, (keys, counts) in zip(tallies, bins.counts()):
            tally[u - 1].add(keys, counts)
    quadrant = _slicer(cfg.constellation).quadrant
    own_patterns = own.patterns(quadrant)
    return [PatternCounts(snr_db=snr_db, trials=n, delta_pattern_counts=[
                dict(own_patterns), *(t.patterns(quadrant) for t in tally)])
            for (_, snr_db), tally in zip(points, tallies)]


def _plan(points):
    """Per (config, SNR) point, in order, (steps, table, sigma).

    steps is _axis_steps of the config, table[x, j] axis x of the
    superposition of the symbols whose signs along x are the bits of j,
    a signed sum of the steps, and sigma the noise scale at the SNR.
    Points of one config share its steps and table.
    """
    plan, tables = [], {}
    for c, snr_db in points:
        if c not in tables:
            steps = _axis_steps(c)
            j = np.arange(1 << c.num_users)[:, None]
            tables[c] = steps, steps @ (
                1 - 2 * ((j >> np.arange(c.num_users)) & 1)).T
        plan.append((*tables[c], _noise_scale(c, snr_db)))
    return plan


def _blocks(plan, cfg: SystemConfig, n: int, seed: int, batch: int,
            rows: int):
    """Draw one batch and yield its blocks, each with its points' chains.

    plan is _plan of the points, whose configs draw as cfg does.  Yields
    (signs, q, chains) for each block (signs, q) of `rows` rows of
    _draw_batch; a helper thread draws block i+1 while block i is
    detected (see _ahead).  chains yields, point by point in order,
    chain(u, last), which runs user u+1's SIC chain at that point (see
    _chain).  The superposition of the block's symbols is rebuilt only
    when the config changes from the previous point.  It and the chain's
    buffers are reused by the next point and block, so a chain's results
    must be read before the next one runs, and a block's signs and q
    before the next block is asked for.
    """
    buffers = np.empty((3, 2, min(n, rows)))
    for signs, q in _ahead(_draw_batch(cfg, n, seed, batch, rows)):
        s, y, work = buffers[:, :, :signs.shape[1]]
        yield signs, q, _chains(plan, signs, q, s, y, work)


def _ahead(blocks):
    """Yield the items of the generator `blocks`, drawn on a helper thread.

    The helper draws item i+1 while the caller works on item i, but not
    item i+2 before the caller asks for item i+1, so at most SLOTS items
    are drawn and not yet released: a ring of SLOTS buffers that the
    items fill in turn is never overwritten while it is read.  Only the
    helper advances `blocks`, in order.  An exception on the helper is
    raised here, with its own type, in place of the next item.  When the
    caller stops early, by an exception or by closing this generator,
    the helper stops after the item it is drawing and is joined before
    this generator ends, so no thread outlives it.  numpy's draws and
    ufunc loops release the GIL, so the two threads overlap.
    """
    free = threading.Semaphore(SLOTS)
    ready = threading.Semaphore(0)
    drawn = collections.deque()
    stop = threading.Event()

    def draw():
        try:
            while free.acquire() and not stop.is_set():
                drawn.append(next(blocks))
                ready.release()
        except BaseException as exc:
            # for the caller to raise; StopIteration marks the end
            drawn.append(exc)
            ready.release()

    helper = threading.Thread(target=draw, name="noma-pep-draw",
                              daemon=True)
    helper.start()
    try:
        while True:
            ready.acquire()
            item = drawn.popleft()
            if isinstance(item, StopIteration):
                return
            if isinstance(item, BaseException):
                raise item
            yield item
            free.release()
    finally:
        stop.set()
        free.release()
        helper.join()


def _chains(plan, signs, q, s, y, work):
    """Yield each planned point's chain on one block (see _blocks)."""
    built = None
    for steps, table, sigma in plan:
        if table is not built:
            for x in range(2):
                # take() is faster than indexing; signs never index past
                # the table, and mode="clip" writes out without a buffer
                table[x].take(signs[x], out=s[x], mode="clip")
            built = table
        yield functools.partial(_chain, q, s, sigma, steps, y, work)


def _chain(q, s, sigma: float, steps, y, work, u: int, last: int):
    """Run user u+1's SIC chain through stage `last` on one block.

    The chain works on y = s + sigma * q[:, u], both axes of r/h, built
    in the buffer y, with the scratch array work.  Returns (leaf, y,
    work): the decisions of stages 0..last (see _sic_chain), the
    residual after the stages before `last`, and the scratch array.
    """
    np.multiply(q[:, u], sigma, out=y)
    y += s
    return _sic_chain(y, steps, last, work), y, work


def _draw_batch(cfg: SystemConfig, n: int, seed: int, batch: int,
                rows: int):
    """Draw batch `batch` of a run seeded `seed`, one block at a time.

    Yields (signs, q) for each block of `rows` trials, the last one
    possibly shorter.  signs, shape (2, b), has bit k of signs[0]
    (signs[1]) set when user k+1's symbol has a negative real (imaginary)
    part; q, shape (2, L, b), is the gain-normalised noise z/|h|: the real
    and the imaginary parts of each user's standard-normal noise over the
    magnitude of its ordered gain.  Neither depends on the SNR or on
    (alpha, P).  Block i is written into slot i % SLOTS of a ring of
    preallocated (signs, q) buffers, so block i + SLOTS overwrites it and
    a reader may hold SLOTS blocks at once (see _ahead); a batch of one
    block allocates one slot.

    The batch's SeedSequence(seed, spawn_key=(batch,)) spawns three
    Generators, for the gains, the symbols and the noise, so batches of
    one run and of neighbouring seeds draw from independent streams.  Each
    stream is drawn one block of rows at a time, and numpy's Generator
    gives the same numbers in row blocks as in one call, so a batch is a
    pure function of (channel, constellation, n, seed, batch) and does not
    depend on the rows of a block; nothing of the batch's size is kept.

    The ordered gain magnitudes come without a sort (_gain_magnitudes),
    and the channel phase is not drawn: the coherent receiver sees
    r/h = s + sigma z e^{-j phi}/|h|, and z e^{-j phi} has the law of z,
    so q = z/|h| has the law of z/h.
    """
    gains, symbols, noise = (
        np.random.default_rng(stream) for stream in
        np.random.SeedSequence(seed, spawn_key=(batch,)).spawn(3))
    L = cfg.num_users
    m = cfg.constellation.size
    rows = min(n, rows)
    dtype = np.min_scalar_type((1 << L) - 1)
    ring = [(np.empty((2, rows), dtype=dtype), np.empty((2, L, rows)))
            for _ in range(min(SLOTS, -(-n // rows)))]
    bits = [[(negative << k).astype(dtype) for k in range(L)]
            for negative in _slicer(cfg.constellation).negative]
    e, z = np.empty((rows, L)), np.empty((rows, L, 2))
    for i, start in enumerate(range(0, n, rows)):
        b = min(rows, n - start)
        signs, q = ring[i % len(ring)]
        eb, zb, qb, sb = e[:b], z[:b], q[:, :, :b], signs[:, :b]
        gain = _gain_magnitudes(gains, cfg.channel.sigma_h_sq, eb)
        tx = symbols.integers(0, m, size=(b, L))
        sb[...] = 0
        for x in range(2):
            for k in range(L):
                sb[x] += bits[x][k][tx[:, k]]
        del tx  # not held while the block is detected
        noise.standard_normal(out=zb)
        # A gain that underflows to 0, at a sigma_h^2 near the smallest
        # float, gives q = +-inf, and sigma q can overflow to inf: noise
        # alone, which every stage slices by its sign.  Opposite
        # infinities then add to NaN, which no pairwise test passes.  The
        # draw and the detection silence these warnings.
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(zb.T, gain, out=qb)
        yield sb, qb


def _gain_magnitudes(rng, sigma_h_sq: float, e):
    """The ordered gain magnitudes of b trials, shape (L, b), in place.

    Each |h|^2 is exponential with mean 2 sigma_h^2, and by Renyi's
    (1953) form of the order statistics the k-th smallest of L of them
    is sum_{i<=k} w_i E_i, with w_i = 2 sigma_h^2/(L-i+1) and i.i.d.
    standard exponentials E_i.  rng draws the E_i into e, shape (b, L),
    in one call; e is then scaled, its columns are summed in user order
    and its square root taken, all in place.  Returns the view e.T.
    """
    L = e.shape[1]
    rng.standard_exponential(out=e)
    e *= 2.0 * sigma_h_sq / np.arange(L, 0, -1)
    for k in range(1, L):
        e[:, k] += e[:, k - 1]
    return np.sqrt(e, out=e).T


def _noise_scale(cfg: SystemConfig, snr_db: float) -> float:
    """Standard deviation of each axis of the noise at snr_db."""
    return math.sqrt(cfg.noise_var_for_snr(snr_db) / 2.0)


def _key_dtype(u: int) -> np.dtype:
    """Dtype of user u+1's pattern keys.

    A key holds, from bit 0 up, the real and then the imaginary sign bits
    of users 1..u+1's symbols, then those of stages 1..u's decisions,
    w = u+1 bits per group of symbols.
    """
    return np.min_scalar_type((1 << 4 * u + 2) - 1)


def _sign_key(signs, u: int):
    """The symbol half of user u+1's pattern keys, from a block's signs."""
    w = u + 1
    out = np.bitwise_and(signs[0], (1 << w) - 1, dtype=_key_dtype(u))
    out += (signs[1] & ((1 << w) - 1)) * out.dtype.type(1 << w)
    return out


def _pattern_keys(sign_key, leaf, u: int):
    """User u+1's pattern keys: sign_key (see _sign_key) plus the
    decisions of stages 1..u, the low u bits of leaf (see _sic_chain)."""
    w, digit = u + 1, sign_key.dtype.type
    out = np.add(sign_key, (leaf[0] & ((1 << u) - 1)) * digit(1 << 2 * w))
    out += (leaf[1] & ((1 << u) - 1)) * digit(1 << 3 * w - 1)
    return out


class _KeyTally:
    """Running count of user u+1's pattern keys over the blocks of a batch.

    A key space of at most TABLE_CELLS keys is counted densely with
    bincount; a larger one (five users or more) merges each block's
    np.unique into sorted (key, count) arrays, so that its memory grows
    with the keys that occur, not with the M^(2L) code space.
    """

    def __init__(self, u: int):
        self.u = u
        size = 1 << 4 * u + 2
        self.dense = (np.zeros(size, dtype=np.int64) if size <= TABLE_CELLS
                      else None)
        self.keys = np.empty(0, dtype=_key_dtype(u))
        self.counts = np.empty(0, dtype=np.int64)

    def add(self, keys, counts=None) -> None:
        """Count each of keys once, or counts[i] times where given."""
        if counts is not None:
            # only _BinTally gives counts; no pass holds a user past the
            # fourth (see _pass_points), and their key spaces are dense
            np.add.at(self.dense, keys, counts)
            return
        if self.dense is not None:
            self.dense += np.bincount(keys, minlength=self.dense.size)
            return
        new, counts = np.unique(keys, return_counts=True)
        # a stable sort merges the two sorted runs; equal keys then sit
        # side by side, and reduceat sums each run of them
        keys = np.concatenate([self.keys, new])
        counts = np.concatenate([self.counts, counts])
        order = np.argsort(keys, kind="stable")
        keys, counts = keys[order], counts[order]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        self.keys, self.counts = keys[first], np.add.reduceat(counts, first)

    def patterns(self, quadrant) -> dict[int, int]:
        """The counts by pattern code, in increasing code order.

        Pattern code: own transmitted symbol in the lowest base-m digit,
        then one base-m^2 digit per SIC stage for the (tx, detected) pair.
        """
        keys, counts = self.keys, self.counts
        if self.dense is not None:
            keys = np.flatnonzero(self.dense)
            counts = self.dense[keys]
        u, m, w = self.u, len(quadrant), self.u + 1
        sr = keys.astype(np.int64)
        si, dr, di = sr >> w, sr >> 2 * w, sr >> 3 * w - 1
        code = _stage_symbols(quadrant, sr, si, u)
        mult = m
        for k in range(u):
            code += (_stage_symbols(quadrant, sr, si, k) * m
                     + _stage_symbols(quadrant, dr, di, k)) * mult
            mult *= m * m
        order = np.argsort(code)
        return dict(zip(code[order].tolist(), counts[order].tolist()))


def _pass_points(L: int, u: int) -> int:
    """Most points one binning pass of user u+1 holds (see _BinTally).

    Each point brings 2^u - 1 breakpoints per sign word.  A pass with B
    of them per sign word bins each axis into 2^L (B + 1) codes, and its
    table of the square of that many cells must fit in TABLE_CELLS.
    """
    return max((math.isqrt(TABLE_CELLS) >> L) - 1, 0) // ((1 << u) - 1)


def _group_points(L: int, u: int) -> int:
    """Most points one search of _BinTally serves.

    Each pass of a search group keeps, per axis, a lookup table of 2^L
    entries per breakpoint of the group.  With at most this many points
    per group, the two hold no more than TABLE_CELLS entries, the bound of
    the pass's count table, so memory grows linearly with the points.
    Positive wherever _pass_points is.
    """
    return (TABLE_CELLS >> 2 * L + 1) // ((1 << u) - 1)


def _cuts(n: int, most: int) -> list[tuple[int, int]]:
    """Bounds of the fewest contiguous runs of at most `most` of n items,
    as even as possible."""
    parts = -(-n // most)
    ends = [i * n // parts for i in range(parts + 1)]
    return list(zip(ends, ends[1:]))


def _positions(u: int) -> np.ndarray:
    """pos[leaf]: the in-order position of the decisions of stages 0..u-1
    in leaf (see _sic_chain).

    Stage 0 gives the most significant of u binary digits and a
    non-negative decision a 1, so the position never falls as y grows:
    it is 0 where every stage decides negative and 2^u - 1 where none
    does.  The map is its own inverse.
    """
    leaf = np.arange(1 << u)
    pos = np.zeros_like(leaf)
    for k in range(u):
        pos |= ((~leaf >> k) & 1) << (u - 1 - k)
    return pos


def _flip(bits):
    """int64 keys that order float64 bit patterns (as int64) as the floats,
    -0.0 just below +0.0, and back: the map is its own inverse."""
    return bits ^ ((bits >> 63) & np.int64(0x7FFF_FFFF_FFFF_FFFF))


def _breakpoints(plan, u: int) -> np.ndarray:
    """Exact thresholds on q of user u+1's SIC decisions, at every point.

    Returns t, shape (2, 2^L, 2^u - 1, P), for the P points of plan (see
    _plan): along axis x and for sign word j, the position (see
    _positions) of stages 0..u-1 of the chain on y = fl(fl(sigma q) +
    table[x, j]) at point p is at least k exactly when q >= t[x, j, k-1,
    p], and NaN, which every stage decides as non-negative, sits above
    every t.  Every stage is a monotone IEEE operation, so the position
    never falls as q grows, and t is the first float at which it reaches
    k.  A 64-step bisection over the order of the float64 bit patterns
    finds it, running _sic_chain itself on every point at once, so that
    binning and chain share one SIC model.
    """
    steps, table = (np.stack(a, axis=-1) for a in list(zip(*plan))[:2])
    sigma = np.array([p[2] for p in plan])
    J, K = table.shape[1], (1 << u) - 1
    s = np.repeat(table, K, axis=1)  # (2, J K, P): row j K + k - 1
    k = np.tile(np.arange(1, K + 1), J)[:, None]
    pos = _positions(u)
    # y is -inf at every stage for q = -inf (position 0) and +inf for
    # q = +inf (position 2^u - 1), so lo < t_k <= hi holds from the start
    lo, hi = (np.full(s.shape, _flip(np.float64(v).view(np.int64)))
              for v in (-np.inf, np.inf))
    for _ in range(64):
        mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)  # no int64 overflow
        y = np.multiply(_flip(mid).view(np.float64), sigma)
        y += s
        up = pos[_sic_chain(y, steps, u - 1)] >= k
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    return _flip(hi).view(np.float64).reshape(2, J, K, len(plan))


class _BinTally:
    """User u+1's pattern keys at every point of a batch, from one binning
    of each trial.

    Along axis x, for sign word j (the trial's signs[x]) and at point p,
    the decisions of stages 0..u-1 are fixed by how many of the
    breakpoints t[x, j, :, p] (see _breakpoints) q[x, u] reaches.  The
    points split into search groups of at most _group_points, and each
    block bins q[x, u] once per trial and group against the sorted
    breakpoints of the group's points and every sign word (union[x]).  A
    pass, a run of at most _pass_points of the group's points, maps that
    bin and j through its lookup tables to the trial's code (j, bin among
    the pass's breakpoints for j) on each axis and counts the (code_re,
    code_im) cells in a dense table of at most TABLE_CELLS cells.
    counts() reads every point's patterns from 2-D prefix sums of its
    pass's table.
    """

    def __init__(self, plan, u: int, n: int):
        t = _breakpoints(plan, u)
        self.u, self.L = u, t.shape[1].bit_length() - 1
        self.groups = []
        for a, b in _cuts(len(plan), _group_points(self.L, u)):
            union = [np.sort(t[x, ..., a:b], axis=None) for x in range(2)]
            self.groups.append((union, [
                self._pass(t[..., a + c:a + d], union, n)
                for c, d in _cuts(b - a, _pass_points(self.L, u))]))

    @staticmethod
    def _pass(mine, union, n: int):
        """(luts, edges, table) of a pass over the breakpoints mine."""
        J, E = mine.shape[1], mine.shape[2] + 1
        own = np.sort(mine.reshape(2, J, -1), axis=2)
        bins = own.shape[2] + 1
        # edges[x][p, j, k]: the first of the pass's bins for j at which
        # point p's position reaches k; bin i holds own[x, j, i-1] <= q
        # < own[x, j, i]
        edges = np.empty((2, mine.shape[3], J, E + 1), dtype=np.intp)
        edges[..., 0], edges[..., -1] = 0, bins
        luts = []
        for x in range(2):
            # lut[g, j]: the code of a trial in bin g of union[x]
            lut = np.zeros((union[x].size + 1, J), dtype=np.uint16)
            for j in range(J):
                lut[1:, j] = np.searchsorted(own[x, j], union[x], side="right")
                edges[x, :, j, 1:-1] = 1 + np.searchsorted(
                    own[x, j], mine[x, j].T, side="left")
            lut += np.arange(J, dtype=np.uint16) * np.uint16(bins)
            luts.append(lut.ravel())
        luts[0] *= np.uint16(J * bins)  # cell = code_re * J bins + code_im
        return luts, edges, np.zeros((J * bins) ** 2,
                                     dtype=np.min_scalar_type(n))

    def add(self, signs, q) -> None:
        """Count the trials of one block of _draw_batch."""
        for union, passes in self.groups:
            index = []
            for x in range(2):
                g = np.searchsorted(union[x], q[x, self.u], side="right")
                g <<= self.L
                g |= signs[x]
                index.append(g)
            for (re, im), _, table in passes:
                cell = re.take(index[0])
                cell += im.take(index[1])
                # a scalar of the table's dtype takes ufunc.at's fast
                # path, which costs per row, not per cell as bincount does
                np.add.at(table, cell, table.dtype.type(1))

    def counts(self):
        """Yield, point by point, (keys, counts): user u+1's pattern keys
        (see _pattern_keys) and the trials of each."""
        u, J, E = self.u, 1 << self.L, 1 << self.u
        jr, pr, ji, pi = np.indices((J, E, J, E)).reshape(4, -1)
        leaf = _positions(u)  # its own inverse: the leaf of each position
        keys = _pattern_keys(
            _sign_key(np.array([jr, ji], dtype=np.min_scalar_type(J - 1)), u),
            np.array([leaf[pr], leaf[pi]], dtype=np.min_scalar_type(E - 1)),
            u)
        j = np.arange(J)
        for _, passes in self.groups:
            for _, (re, im), table in passes:
                bins = re[0, 0, -1]
                sums = np.zeros((J, bins + 1, J, bins + 1), dtype=np.int64)
                sums[:, 1:, :, 1:] = table.reshape(J, bins, J, bins).cumsum(
                    1).cumsum(3)
                corners = sums[j[:, None, None, None], re[:, :, :, None, None],
                               j[:, None], im[:, None, None]]
                for point in np.diff(np.diff(corners, axis=2), axis=4):
                    yield keys, point.ravel()


def _detect_batch(block, magnitude, keyed) -> None:
    """Run every point's full SIC chains on one block and add its counters.

    block is one item of _blocks, and magnitude the magnitudes of the
    axes of the alphabet's points, shape (2, 1) (see _slicer).
    keyed[i, u, e] counts point i's trials of user u+1 with event key e.
    From bit 0 up, e holds the real and the imaginary sign of the sent
    symbol a (a set bit is negative), those of the own decision d, and
    three bits set when the hypothesis that differs from a in the real
    part, in the imaginary part or in both scored no worse than a.
    """
    signs, _, chains = block
    # no point changes sent[u], user u+1's sent signs per axis, or axes[u],
    # the axes of its sent symbol a: +magnitude where positive, -magnitude
    # elsewhere
    sent = [(signs & (1 << u)) != 0 for u in range(keyed.shape[1])]
    axes = [b * (-2.0 * magnitude) + magnitude for b in sent]
    for chain, point_keyed in zip(chains, keyed):
        for u, user_keyed in enumerate(point_keyed):
            leaf, y, work = chain(u, u)
            # t: the axes of Re(x * conj(a)), x the own residual; a
            # hypothesis beats a when the terms it flips sum to <= 0
            t = np.multiply(axes[u], y, out=work)
            axis = np.uint8(4) * (leaf >= (1 << u))
            axis += sent[u]
            axis += np.uint8(16) * (t <= 0)
            key = axis[0] + np.uint8(2) * axis[1]
            key += np.uint8(64) * (np.add(t[0], t[1], out=y[0]) <= 0)
            user_keyed += np.bincount(key, minlength=128)


def _sim_stats(cfg, snr_db, n: int, keyed) -> SimStats:
    """The SimStats of one point from its event counts (see _detect_batch)."""
    L = keyed.shape[0]
    m = cfg.constellation.size
    quadrant, neg, _ = _slicer(cfg.constellation)
    # events[u, a, d, f]: the keyed counts by sent symbol, decision and
    # the three hypothesis bits.  flips[a, b] is 1, 2 or 3 when b differs
    # from a in the real part, the imaginary part or both, and b beat a
    # in the trials whose bit flips - 1 of f is set.
    e = np.arange(128)
    events = np.zeros((L, m, m, 8), dtype=np.int64)
    events[:, _stage_symbols(quadrant, e, e >> 1, 0),
           _stage_symbols(quadrant, e >> 2, e >> 3, 0), e >> 4] = keyed
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
    )


def simulate(
    cfg: SystemConfig | Sequence[SystemConfig],
    snr_db: float | Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimStats | list:
    """Run `trials` superposition/SIC trials at one SNR or at each of several.

    With a single snr_db, returns its SimStats.  With a sequence, returns
    one SimStats per entry, in order, each equal field for field to a
    separate call with the same trials and seed.  The points
    share every batch's draws (common random numbers), so the batch is
    drawn once and only the detection runs per point.

    cfg may also be a sequence of configurations that differ only in
    alpha and P; the call then returns one result (a SimStats, or a list
    of them for an SNR sequence) per configuration, in order, each equal
    to a separate call.  The configurations share the draws too: only
    the superposition and the detection run per configuration.

    Deterministic for fixed (cfg, snr_db, trials, seed): trials are split
    into batches of BATCH_TRIALS, the last one possibly shorter, and
    batch i draws from SeedSequence(seed, spawn_key=(i,)), so the result
    is independent of the worker count, and no batch repeats one of
    another seed.  Several batches are spread over `workers` processes; a
    single batch with several (configuration, SNR) points spreads the
    points instead, each process drawing the same batch.  Raises
    ValueError before any draw when an SNR is not finite or out of range
    for a configuration (see system.linear_snr), a sequence is empty, the
    configurations differ in more than alpha and P, there are more than
    MAX_USERS users, or the alphabet cannot be sliced per axis (see
    _slicer), and for fewer than one trial or worker.
    """
    return _run_batches(_run_batch, cfg, snr_db, trials, seed, workers)


def sic_patterns(
    cfg: SystemConfig | Sequence[SystemConfig],
    snr_db: float | Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
) -> PatternCounts | list:
    """SIC residual patterns of the trials simulate would run.

    Takes simulate's arguments, validates them, draws its batches from
    the same streams (batch i from SeedSequence(seed, spawn_key=(i,))),
    spreads them and shapes its result the same way, with a PatternCounts
    in place of each SimStats, so a caller that needs residual weights
    and detection counters of the same trials calls both with the same
    arguments.  It is the one source of the patterns sic_weight_tables
    reads, and no user's own stage runs.  When one
    binning pass of a user holds enough of a call's (config, SNR) points
    (see MIN_BIN_STAGES), as on an allocation grid, that user's earlier
    stages do not run per point either: each trial is binned once
    against exact per-point thresholds on its noise (see _BinTally).
    """
    return _run_batches(_run_pattern_batch, cfg, snr_db, trials, seed,
                        workers)


def _run_batches(run, cfg, snr_db, trials, seed, workers):
    """Validate, batch, seed, spread and merge a run of the counter `run`.

    run(points, n, seed, batch) counts batch number `batch` of
    a run seeded `seed` at every (config, SNR) point; _run_batch and
    _run_pattern_batch are the two counters.
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
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    drawn = [(c.channel, c.constellation) for c in cfgs]
    if any(d != drawn[0] for d in drawn):
        raise ValueError(
            "configurations of one call may differ only in alpha and P")
    if cfgs[0].num_users > MAX_USERS:
        raise ValueError(
            f"the simulator counts at most {MAX_USERS} users, whose "
            f"residual pattern keys fill a uint64, got {cfgs[0].num_users}")
    _slicer(cfgs[0].constellation)  # an alphabet it cannot slice raises
    sizes = [min(BATCH_TRIALS, trials - start)
             for start in range(0, trials, BATCH_TRIALS)]

    # With several batches each task is one batch at every point.  A
    # single batch is split into at most `workers` contiguous chunks of
    # points; every chunk redraws the same batch, so the split does not
    # change the counters.
    points = [(c, s) for c in cfgs for s in snrs]
    parts = min(workers, len(points)) if len(sizes) == 1 else 1
    chunks = [points[k * len(points) // parts:(k + 1) * len(points) // parts]
              for k in range(parts)]
    args = [(run, chunk, nb, seed, i)
            for i, nb in enumerate(sizes) for chunk in chunks]
    if workers > 1 and len(args) > 1:
        # loaded here, so that a run in one process never loads it
        from concurrent.futures import ProcessPoolExecutor
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
    quadrant = _slicer(cfg.constellation).quadrant
    r, h = complex(r), complex(h)
    # y = r/h = r * conj(h) / |h|^2, the simulator's y for a real
    # positive h; a zero gain gives NaN, which every stage decides as
    # non-negative
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


def sic_weight_tables(stats: PatternCounts, constellation: Constellation):
    """Residual weight tables of every user and transmitted symbol.

    Maps (l, tx) to the table that weighted-mode hypothesis averaging
    takes for the pairs of user l that transmit tx: the weight of each
    pattern of the deltas pts[sent] - pts[decided] of SIC stages 1..l-1,
    over the trials in which user l sent tx.  SIC error directions
    correlate strongly with the own symbol through the uncancelled own
    signal, so the tables are conditioned on it.  Patterns that differ
    only in which symbol pairs produced the same deltas are merged, since
    the error statistic depends on the deltas alone; each table keeps its
    patterns in the order of their first pattern code, and its weights
    sum to 1.  stats is a PatternCounts of at least
    system.MIN_WEIGHT_TRIALS trials, as sic_patterns returns them; each
    pattern code is decoded once.
    """
    _require_weight_trials(stats.trials)
    pts = constellation.points_array()
    m = constellation.size
    # delta[tx m + det]: the residual of a stage that sent tx, decided det
    delta = (pts[:, None] - pts).ravel()
    weights = {}
    for u, counts in enumerate(stats.delta_pattern_counts):
        # a code is the own symbol, then one base-m^2 digit per stage
        codes = np.fromiter(counts, dtype=np.int64, count=len(counts))
        stages = codes[:, None] // m // (m * m) ** np.arange(u) % (m * m)
        tables = [{} for _ in range(m)]
        for own, deltas, cnt in zip((codes % m).tolist(),
                                    delta[stages].tolist(), counts.values()):
            table, pattern = tables[own], tuple(deltas)
            table[pattern] = table.get(pattern, 0.0) + cnt
        for tx, table in enumerate(tables):
            total = sum(table.values())
            if total == 0:
                raise ValueError(
                    f"no trials with symbol {tx} transmitted by user {u + 1}")
            weights[u + 1, tx] = {pat: c / total for pat, c in table.items()}
    return weights


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
