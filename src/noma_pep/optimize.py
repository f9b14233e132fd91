"""Union-bound BER objective and constrained power-allocation search.

The per-user union bound sums bit-weighted pairwise error probabilities
over all ordered symbol pairs.  The power search walks a descending
simplex grid, keeps the points where every user's worst-pair PEP meets
the threshold, and returns the feasible minimizer of the averaged bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constellation import Constellation, bit_errors
from .pep import average_pep
from .simulate import SystemConfig, sic_weight_tables, simulate

__all__ = [
    "OptimizationProblem",
    "OptimizationResult",
    "SweepEntry",
    "union_bound_from_pep",
    "union_bound_ber",
    "objective_psi",
    "solve",
]


@dataclass(frozen=True)
class OptimizationProblem:
    """Power-allocation search setup.

    cfg            system description; cfg.alpha is ignored by the search
                   (treated as the free variable) but fixes L, P, channel
                   and constellation
    snr_db         operating SNR, 10*log10(P/sigma_n^2)
    p_th           per-user worst-pair PEP threshold (fairness constraint)
    grid_step      simplex resolution; must divide the search sensibly
    sic_mode       "perfect", "pattern" or "weighted"; weighted mode
                   re-estimates SIC residual weights per grid point from
                   a seeded simulation, keeping the search deterministic
    prior_deltas   pattern-mode SIC residuals, at least L-1 of them; user
                   l uses the first l-1
    weights_trials simulated trials per grid point in weighted mode
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
        L = self.cfg.num_users
        if self.sic_mode == "pattern" and (
            self.prior_deltas is None or len(self.prior_deltas) < L - 1
        ):
            raise ValueError(
                f"pattern mode needs prior_deltas with at least {L - 1} "
                "complex values"
            )


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


def union_bound_from_pep(pep_lookup, constellation: Constellation) -> float:
    """Bit-weighted pairwise-error sum expressed per transmitted bit.

    (1/M) * sum_tx sum_{rx != tx} q(tx, rx) * pep_lookup(tx, rx)
    divided by bits per symbol.  With a constant pep p this contracts to
    2p for Gray QPSK.
    """
    m = constellation.size
    total = 0.0
    for tx in range(m):
        for rx in range(m):
            if rx == tx:
                continue
            total += bit_errors(constellation, tx, rx) * pep_lookup(tx, rx)
    return total / (m * constellation.bits_per_symbol)


def union_bound_ber(
    l: int,
    alpha,
    P: float,
    snr_db: float,
    model,
    constellation: Constellation,
    sic_mode: str = "perfect",
    prior_deltas=None,
) -> float:
    """Union bound on user l's bit error rate at the given SNR.

    sic_mode is "perfect" or "pattern" (with user l's l-1 prior_deltas);
    weighted-mode bounds need one residual table per transmitted symbol
    and are computed by objective_psi and solve.
    """
    a = tuple(float(x) for x in alpha)
    noisy = model.with_noise(P / 10.0 ** (snr_db / 10.0))
    L = noisy.num_users

    def lookup(tx, rx):
        return average_pep(
            l, L, tx, rx, a, P, noisy, constellation,
            sic_mode=sic_mode, prior_deltas=prior_deltas,
        )

    return union_bound_from_pep(lookup, constellation)


def _weight_stats(problem: OptimizationProblem, grid, workers: int = 1):
    """Simulated counters of every allocation in grid, for weighted mode.

    One simulate call at problem.weights_seed covers the whole grid, so
    every point detects the same draws; other modes need none (None per
    point).
    """
    if problem.sic_mode != "weighted":
        return [None] * len(grid)
    return simulate(
        [replace(problem.cfg, alpha=tuple(a)) for a in grid],
        problem.snr_db, problem.weights_trials, problem.weights_seed,
        workers=workers,
    )


def _per_user_bounds_and_peps(problem: OptimizationProblem, alpha, stats):
    """Union bound and worst-pair PEP for every user at one grid point.

    Weighted mode takes the SIC residual weight tables from stats, the
    point's simulated counters (see _weight_stats).
    """
    cfg = problem.cfg
    weights = None
    if stats is not None:
        weights = sic_weight_tables(stats, cfg.constellation)
    L = cfg.num_users
    model = cfg.channel.with_noise(cfg.P / 10.0 ** (problem.snr_db / 10.0))
    m = cfg.constellation.size
    bounds, worst = [], []
    for l in range(1, L + 1):
        pd = (
            problem.prior_deltas[: l - 1]
            if problem.prior_deltas is not None
            else None
        )
        peps = {
            (tx, rx): average_pep(
                l, L, tx, rx, alpha, cfg.P, model, cfg.constellation,
                sic_mode=problem.sic_mode,
                prior_deltas=pd,
                delta_weights=weights[(l, tx)] if weights is not None else None,
            )
            for tx in range(m)
            for rx in range(m)
            if tx != rx
        }
        bounds.append(
            union_bound_from_pep(lambda tx, rx: peps[(tx, rx)], cfg.constellation)
        )
        worst.append(max(peps.values()))
    return bounds, worst


def objective_psi(problem: OptimizationProblem, alpha):
    """User-averaged union-bound BER at one power allocation.

    Weighted mode estimates the residual weights from a simulation seeded
    with problem.weights_seed, so the value equals solve's sweep entry
    at the same allocation.
    """
    a = _validate_alpha(problem, alpha)
    (stats,) = _weight_stats(problem, [a])
    bounds, _ = _per_user_bounds_and_peps(problem, a, stats)
    return float(np.mean(bounds))


def _validate_alpha(problem: OptimizationProblem, alpha):
    a = tuple(float(x) for x in alpha)
    if len(a) != problem.cfg.num_users:
        raise ValueError(
            f"expected {problem.cfg.num_users} coefficients, got {len(a)}"
        )
    if abs(sum(a) - 1.0) > 1e-9:
        raise ValueError(f"coefficients must sum to 1, got {sum(a)!r}")
    if any(x <= 0 for x in a):
        raise ValueError("coefficients must be positive")
    return a


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
        if slots == 0:
            if remaining == 0:
                out.append(tuple(k / n for k in prefix))
            return
        upper = (prefix[-1] - 1) if prefix else remaining
        for k in range(upper, 0, -1):
            rest = remaining - k
            # rest must be a sum of (slots-1) strictly decreasing integers
            # below k, each >= 1; as k decreases, rest grows while the
            # attainable maximum shrinks.
            lo = (slots - 1) * slots // 2
            hi = (slots - 1) * k - lo
            if rest < lo:
                continue
            if rest > hi:
                break
            rec(prefix + [k], rest, slots - 1)

    rec([], n, L)
    # Deterministic order: descending alpha_1, then alpha_2, ...
    out.sort(key=lambda a: tuple(-x for x in a))
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
    L = problem.cfg.num_users
    grid = _descending_grid(L, problem.grid_step)
    entries = []
    for alpha, stats in zip(grid, _weight_stats(problem, grid, workers)):
        bounds, worst = _per_user_bounds_and_peps(problem, alpha, stats)
        psi = float(np.mean(bounds))
        feasible = all(p <= problem.p_th for p in worst)
        entries.append(
            SweepEntry(
                alpha=alpha, psi=psi, pep_per_user=tuple(worst), feasible=feasible
            )
        )
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
