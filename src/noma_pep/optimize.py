"""Union-bound BER objective and constrained power-allocation search.

The per-user union bound sums bit-weighted pairwise error probabilities
over all ordered symbol pairs.  Every entry takes the system as one
SystemConfig and the SNR, as average_pep does, so the SNR convention is
the system's (SystemConfig.noise_var_for_snr).  The power search walks a
descending simplex grid, keeps the points where every user's worst-pair
PEP meets the threshold, and returns the feasible minimizer of the
averaged bound.

pep_table is the one hypothesis-averaging path of the CLI, the search
and the demos; it takes the SIC residual tables that residual_tables
builds, the only place where the SIC modes (perfect, pattern, weighted)
differ.  residual_tables checks a mode's inputs before any draw and, in
weighted mode, makes a run's one sic_patterns call over all its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations

import numpy as np

from .constellation import Constellation, bit_errors
from .pep import average_pep
from .montecarlo import sic_patterns, sic_weight_tables
# unused here, but bench/tests/test_bench_harness.py::_bindings reads
# optimize.simulate, which the benchmark tracer wraps and restores
from .montecarlo import simulate  # noqa: F401
from .system import SystemConfig, _require_weight_trials

__all__ = [
    "OptimizationProblem",
    "OptimizationResult",
    "SweepEntry",
    "pep_table",
    "residual_tables",
    "union_bound_from_pep",
    "union_bound_ber",
    "objective_psi",
    "solve",
]

MAX_GRID_POINTS = 100_000  # allocations one search may enumerate


def _check_sic(L: int, sic_mode: str, prior_deltas, trials) -> None:
    """Raise ValueError unless residual_tables can build L users' tables
    in sic_mode from prior_deltas and weighted mode's trials; draws
    nothing."""
    if sic_mode not in ("perfect", "pattern", "weighted"):
        raise ValueError(f"unknown sic_mode {sic_mode!r}")
    if sic_mode != "pattern" and prior_deltas is not None:
        raise ValueError("--prior-deltas is read only in pattern mode, "
                         f"not with --sic-mode {sic_mode}")
    if sic_mode == "pattern" and (prior_deltas is None
                                  or len(prior_deltas) < L - 1):
        raise ValueError(f"pattern mode needs prior_deltas with at least "
                         f"{L - 1} complex values")
    if sic_mode == "weighted":
        _require_weight_trials(trials)


def residual_tables(cfg, snr_db, sic_mode: str, prior_deltas=None,
                    trials=None, seed=None, workers: int = 1) -> list:
    """SIC residual tables of every (config, SNR) point of a run.

    The one place where the SIC modes differ.  cfg and snr_db are one
    value or a sequence each, as sic_patterns takes them.  Returns a list
    with one entry per (config, SNR) point, configs outer: None for
    perfect SIC, else a mapping from (l, tx) to the residual table
    average_pep takes for user l's pairs that transmit tx:

      perfect   None: every residual is zero
      pattern   {first l-1 prior_deltas: 1.0}; needs at least L-1 deltas
      weighted  sic_weight_tables of the point's PatternCounts, from one
                sic_patterns(cfg, snr_db, trials, seed, workers) call
                over all the points (common random numbers); needs at
                least system.MIN_WEIGHT_TRIALS trials

    Checks the points, the mode, prior_deltas (given only in pattern
    mode) and the trials (ValueError) before any draw.
    """
    cfgs = [cfg] if isinstance(cfg, SystemConfig) else list(cfg)
    snrs = [snr_db] if np.ndim(snr_db) == 0 else list(snr_db)
    if not cfgs or not snrs:
        raise ValueError("need at least one configuration and SNR point")
    L, m = cfgs[0].num_users, cfgs[0].constellation.size
    _check_sic(L, sic_mode, prior_deltas, trials)
    if sic_mode == "weighted":
        counts = sic_patterns(cfgs, snrs, trials, seed, workers=workers)
        return [sic_weight_tables(patterns, c.constellation)
                for c, per_snr in zip(cfgs, counts) for patterns in per_snr]
    table = None if sic_mode == "perfect" else {
        (l, tx): {tuple(prior_deltas[:l - 1]): 1.0}
        for l in range(1, L + 1) for tx in range(m)}
    return [table] * (len(cfgs) * len(snrs))


@dataclass(frozen=True)
class OptimizationProblem:
    """Power-allocation search setup.

    cfg            system description; cfg.alpha is ignored by the search
                   (treated as the free variable) but fixes L, P, channel
                   and constellation
    snr_db         operating SNR, 10*log10(P/sigma_n^2)
    p_th           per-user worst-pair PEP threshold (fairness constraint)
    grid_step      simplex resolution: at most 0.01, dividing 1 (checked
                   when solve builds the grid), leaving L users a
                   strictly descending allocation and giving at most
                   MAX_GRID_POINTS of them
    sic_mode       "perfect", "pattern" or "weighted"; weighted mode takes
                   every grid point's SIC residual weights from one
                   seeded sic_patterns call over the whole grid (common
                   random numbers), keeping the search deterministic
    prior_deltas   pattern-mode SIC residuals, at least L-1 of them; user
                   l uses the first l-1.  Given only in pattern mode
    weights_trials simulated trials per grid point in weighted mode, at
                   least system.MIN_WEIGHT_TRIALS there
    weights_seed   weighted-mode simulation seed; every grid point is
                   simulated from it, so the grid points share their
                   draws (common random numbers)
    """

    cfg: SystemConfig
    snr_db: float
    p_th: float
    grid_step: float
    sic_mode: str = "perfect"
    prior_deltas: tuple[complex, ...] | None = None
    weights_trials: int = 1_000_000
    weights_seed: int = 20_000

    def __post_init__(self):
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if not 0.0 < self.p_th < 1.0:
            raise ValueError(f"p_th must lie in (0, 1), got {self.p_th}")
        if not 0.0 < self.grid_step <= 0.01 + 1e-15:
            raise ValueError(
                f"grid_step must lie in (0, 0.01], got {self.grid_step}"
            )
        # C(n-1, L-1) counts the ways to write n steps as L positive
        # parts in order, and each grid point is L! of them, so this
        # bounds the grid from above; tightly: 83,083 for the 82,834
        # points of L = 3, step 0.001
        L, steps = self.cfg.num_users, 1.0 / self.grid_step
        if math.isinf(steps) or math.comb(round(steps) - 1, L - 1) \
                > MAX_GRID_POINTS * math.factorial(L):
            raise ValueError(
                f"grid_step {self.grid_step} gives {L} users more than "
                f"{MAX_GRID_POINTS} allocations to search")
        # the smallest strictly descending allocation, (L, ..., 2, 1)
        # steps, takes L(L+1)/2 of them
        if round(steps) < L * (L + 1) // 2:
            raise ValueError(
                f"grid_step {self.grid_step} gives {L} users no strictly "
                f"descending allocation: the smallest takes "
                f"{L * (L + 1) // 2} steps of {round(steps)}")
        _check_sic(L, self.sic_mode, self.prior_deltas, self.weights_trials)


@dataclass(frozen=True)
class SweepEntry:
    alpha: tuple[float, ...]
    psi: float
    pep_per_user: tuple[float, ...]  # worst symbol pair per user
    feasible: bool


@dataclass(frozen=True)
class OptimizationResult:
    best_alpha: tuple[float, ...] | None
    best_objective: float
    sweep: tuple[SweepEntry, ...]
    infeasible: bool

    @property
    def feasible_set(self) -> tuple[SweepEntry, ...]:
        return tuple(e for e in self.sweep if e.feasible)


def pep_table(cfg: SystemConfig, snr_db: float, residuals=None,
              pairs=None) -> np.ndarray:
    """PEP of every user and ordered symbol pair at one SNR.

    Entry [l-1, tx, rx] is average_pep(cfg, snr_db, l, tx, rx); the
    diagonal is 0.
    residuals maps (l, tx) to the residual table of user l's pairs that
    transmit tx (see residual_tables); None is perfect SIC.  pairs, if
    given, lists the (tx, rx) pairs to evaluate for every user, and the
    entries of the other pairs are 0.
    """
    L, m = cfg.num_users, cfg.constellation.size
    if pairs is None:
        pairs = list(permutations(range(m), 2))
    table = np.zeros((L, m, m))
    for l in range(1, L + 1):
        for tx, rx in pairs:
            table[l - 1, tx, rx] = average_pep(
                cfg, snr_db, l, tx, rx,
                None if residuals is None else residuals[l, tx])
    return table


def union_bound_from_pep(peps, constellation: Constellation) -> float:
    """Bit-weighted pairwise-error sum expressed per transmitted bit.

    (1/M) * sum_tx sum_{rx != tx} q(tx, rx) * peps[tx, rx] divided by
    bits per symbol, summed tx-major; peps is an (M, M) array whose
    diagonal is ignored.  With a constant pep p this contracts to 2p for
    Gray QPSK.
    """
    m = constellation.size
    total = 0.0
    for tx, rx in permutations(range(m), 2):
        total += bit_errors(constellation, tx, rx) * peps[tx, rx]
    return total / (m * constellation.bits_per_symbol)


def union_bound_ber(cfg: SystemConfig, snr_db: float, l: int,
                    residuals=None) -> float:
    """Union bound on user l's bit error rate of cfg at snr_db.

    residuals is user l's one residual table for every pair (None is
    perfect SIC); bounds with a table per transmitted symbol are
    computed by objective_psi and solve.
    """
    m = cfg.constellation.size
    peps = np.zeros((m, m))
    for tx, rx in permutations(range(m), 2):
        peps[tx, rx] = average_pep(cfg, snr_db, l, tx, rx, residuals)
    return union_bound_from_pep(peps, cfg.constellation)


def _sweep(problem: OptimizationProblem, grid, workers: int = 1):
    """The SweepEntry of every allocation in grid, in order.

    Builds each allocation's SystemConfig once, which checks every alpha
    (ValueError) before any simulation or quadrature.  Weighted mode
    takes the SIC residual weights from residual_tables' one simulation
    at problem.weights_seed over the whole grid, spread over `workers`
    processes, so every point detects the same draws; other modes
    simulate nothing.
    """
    cfgs = [replace(problem.cfg, alpha=a) for a in grid]
    tables = residual_tables(
        cfgs, problem.snr_db, problem.sic_mode, problem.prior_deltas,
        problem.weights_trials, problem.weights_seed, workers)
    entries = []
    for cfg, residuals in zip(cfgs, tables):
        table = pep_table(cfg, problem.snr_db, residuals)
        bounds = [union_bound_from_pep(peps, cfg.constellation)
                  for peps in table]
        worst = tuple(float(peps.max()) for peps in table)
        entries.append(SweepEntry(
            alpha=cfg.alpha, psi=float(np.mean(bounds)), pep_per_user=worst,
            feasible=all(p <= problem.p_th for p in worst)))
    return entries


def objective_psi(problem: OptimizationProblem, alpha):
    """User-averaged union-bound BER at one power allocation.

    Equals solve's sweep entry at the same allocation; weighted mode
    estimates the residual weights from a simulation seeded with
    problem.weights_seed.  Every mode checks alpha as a SystemConfig
    does (ValueError) before any simulation or quadrature.
    """
    return _sweep(problem, [alpha])[0].psi


def _descending_grid(L: int, step: float):
    """All strictly descending simplex points on the grid.

    Coefficients are integer multiples of step summing to one, each gap
    alpha_i - alpha_{i+1} at least one step, and alpha_L at least one
    step.  Enforced strict ordering avoids degenerate equal-power points.
    """
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"grid_step {step} does not divide 1 evenly")

    out: list[tuple[float, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        upper = (prefix[-1] - 1) if prefix else remaining
        if slots == 1:
            # the last coefficient is what remains, if it is a step or
            # more and below the previous one
            if 1 <= remaining <= upper:
                out.append(tuple(k / n for k in prefix + [remaining]))
            return
        # rest = remaining - k must be a sum of (slots-1) strictly
        # decreasing integers below k, each >= 1: at least lo, so k starts
        # at remaining - lo; as k decreases, rest grows while the
        # attainable maximum shrinks.
        lo = (slots - 1) * slots // 2
        for k in range(min(upper, remaining - lo), 0, -1):
            rest = remaining - k
            if rest > (slots - 1) * k - lo:
                break
            rec(prefix + [k], rest, slots - 1)

    # every level counts k down, so the points come in descending alpha_1,
    # then alpha_2, ...
    rec([], n, L)
    return out


def solve(problem: OptimizationProblem, workers: int = 1) -> OptimizationResult:
    """Exhaustive grid search for the feasible union-bound minimizer.

    A grid point is feasible when every user's worst-pair PEP is at most
    p_th.  Ties on the objective prefer larger alpha_1, then larger
    following coefficients.  With no feasible point the full sweep is
    still returned with infeasible=True.  Weighted mode simulates every
    grid point in one call at weights_seed (common random numbers, so the
    points' errors are correlated), spread over `workers` processes; the
    result does not depend on the worker count.
    """
    entries = _sweep(problem, _descending_grid(
        problem.cfg.num_users, problem.grid_step), workers)
    feasible_entries = [e for e in entries if e.feasible]
    if not feasible_entries:
        return OptimizationResult(
            best_alpha=None,
            best_objective=math.nan,
            sweep=tuple(entries),
            infeasible=True,
        )
    best = min(
        feasible_entries, key=lambda e: (e.psi, tuple(-a for a in e.alpha))
    )
    return OptimizationResult(
        best_alpha=best.alpha,
        best_objective=best.psi,
        sweep=tuple(entries),
        infeasible=False,
    )
