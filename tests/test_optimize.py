import ast
import importlib
import inspect
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import noma_pep.optimize as optimize
from noma_pep import (
    ChannelModel,
    OptimizationProblem,
    SystemConfig,
    average_pep,
    objective_psi,
    pep_table,
    qpsk_constellation,
    residual_tables,
    sic_patterns,
    sic_weight_tables,
    simulate,
    solve,
    union_bound_ber,
    union_bound_from_pep,
)
from noma_pep.cli import main
from noma_pep.optimize import _descending_grid

QPSK = qpsk_constellation(1.0)


def make_problem(alpha=(0.8, 0.2), snr_db=30.0, p_th=1e-3, grid_step=0.01,
                 sigma_h_sq=1.0, **kw):
    ch = ChannelModel(sigma_h_sq=sigma_h_sq)
    cfg = SystemConfig(alpha=tuple(alpha), P=1.0, channel=ch,
                       constellation=QPSK)
    return OptimizationProblem(cfg=cfg, snr_db=snr_db, p_th=p_th,
                               grid_step=grid_step, **kw)


def test_constant_pep_contracts_to_2p():
    p = 0.0123
    bound = union_bound_from_pep(np.full((4, 4), p), QPSK)
    assert abs(bound - 2 * p) < 1e-15


def test_single_user_bound_dominates_exact_ber():
    # Exact Gray-QPSK Rayleigh BER: 0.5*(1 - sqrt(g/(2+g))).
    ch = ChannelModel(sigma_h_sq=0.5)
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        g = 10 ** (snr_db / 10)
        exact = 0.5 * (1 - math.sqrt(g / (2 + g)))
        bound = union_bound_ber(1, (1.0,), 1.0, snr_db, ch, QPSK)
        assert bound >= exact
        assert bound < 3 * exact  # sane looseness


def test_bound_non_increasing_in_snr():
    ch = ChannelModel(sigma_h_sq=0.5)
    vals = [
        union_bound_ber(1, (0.8, 0.2), 1.0, s, ch, QPSK)
        for s in (0.0, 10.0, 20.0, 30.0)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_objective_single_user_degenerate():
    ch = ChannelModel(sigma_h_sq=0.5)
    cfg = SystemConfig(alpha=(1.0,), P=1.0, channel=ch, constellation=QPSK)
    problem = OptimizationProblem(cfg=cfg, snr_db=10.0, p_th=0.5,
                                  grid_step=0.01)
    psi = objective_psi(problem, (1.0,))
    assert abs(psi - union_bound_ber(1, (1.0,), 1.0, 10.0, ch, QPSK)) < 1e-15


def test_objective_average_lower_bound():
    problem = make_problem()
    alpha = (0.8, 0.2)
    psi = objective_psi(problem, alpha)
    per_user = [
        union_bound_ber(l, alpha, 1.0, problem.snr_db, problem.cfg.channel,
                        QPSK)
        for l in (1, 2)
    ]
    assert psi >= max(per_user) / len(per_user) - 1e-15
    assert abs(psi - np.mean(per_user)) < 1e-15


def test_objective_validates_alpha(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking alpha")

    monkeypatch.setattr(optimize, "sic_patterns", no_simulation)
    problem = make_problem()
    with pytest.raises(ValueError):
        objective_psi(problem, (0.8, 0.1))
    with pytest.raises(ValueError):
        objective_psi(problem, (0.8, 0.2, 0.0))
    # every mode rejects an allocation that is not strictly descending,
    # weighted mode before it simulates
    for mode, deltas in (("perfect", None), ("pattern", (0j,)),
                         ("weighted", None)):
        problem = make_problem(sic_mode=mode, prior_deltas=deltas)
        with pytest.raises(ValueError, match="descending"):
            objective_psi(problem, (0.2, 0.8))


def test_problem_validation():
    # weighted mode checks its trials before any simulation; a mode that
    # simulates nothing takes any count
    with pytest.raises(ValueError, match="at least 100000 trials"):
        make_problem(sic_mode="weighted", weights_trials=99_999)
    make_problem(sic_mode="perfect", weights_trials=5)
    with pytest.raises(ValueError):
        make_problem(p_th=0.0)
    with pytest.raises(ValueError):
        make_problem(p_th=1.0)
    with pytest.raises(ValueError):
        make_problem(grid_step=0.05)
    with pytest.raises(ValueError):
        make_problem(sic_mode="pattern", prior_deltas=())


@pytest.mark.parametrize("alpha, grid_step, points", [
    ((0.8, 0.2), 0.001, 499), ((0.7, 0.2, 0.1), 0.01, 784),
    ((0.4, 0.3, 0.2, 0.1), 0.01, 5_952), ((0.7, 0.2, 0.1), 0.001, 82_834)])
def test_grid_cap_accepts_the_searched_grids(alpha, grid_step, points):
    # points: the size of _descending_grid(len(alpha), grid_step)
    assert points <= optimize.MAX_GRID_POINTS
    make_problem(alpha=alpha, grid_step=grid_step)


@pytest.mark.parametrize("alpha, grid_step", [
    ((0.8, 0.2), 1e-9), ((0.8, 0.2), 5e-324), ((0.4, 0.3, 0.2, 0.1), 0.001)])
def test_grid_cap_rejects_a_grid_before_building_it(monkeypatch, tmp_path,
                                                    alpha, grid_step):
    def boom(*args):
        raise AssertionError("the grid was enumerated")

    monkeypatch.setattr(optimize, "_descending_grid", boom)
    with pytest.raises(ValueError, match="allocations"):
        make_problem(alpha=alpha, grid_step=grid_step)
    out = tmp_path / "out"
    assert main(["optimize", "--users", str(len(alpha)), "--grid-step",
                 str(grid_step), "--sic-mode", "perfect",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("mode", ["perfect", "pattern", "weighted"])
def test_grid_without_an_allocation_exits_2_in_every_mode(tmp_path, mode):
    # fourteen strictly descending positive parts need 1 + 2 + ... + 14 =
    # 105 steps, more than the 100 of step 0.01
    with pytest.raises(ValueError, match="no strictly descending"):
        make_problem(alpha=np.arange(14, 0, -1) / 105, sic_mode=mode,
                     prior_deltas=(0j,) * 13 if mode == "pattern" else None)
    out = tmp_path / "out"
    argv = ["optimize", "--users", "14", "--grid-step", "0.01",
            "--sic-mode", mode, "--out", str(out)]
    if mode == "pattern":
        argv += ["--prior-deltas", ",".join(["0j"] * 13)]
    assert main(argv) == 2
    assert not out.exists()


def test_descending_grid_two_users():
    grid = _descending_grid(2, 0.01)
    assert all(len(a) == 2 for a in grid)
    assert all(abs(sum(a) - 1) < 1e-12 for a in grid)
    assert all(a[0] > a[1] > 0 for a in grid)
    # alpha_1 runs over 0.51 .. 0.99 on a 0.01 grid
    firsts = sorted(a[0] for a in grid)
    assert len(grid) == 49
    assert abs(firsts[0] - 0.51) < 1e-12
    assert abs(firsts[-1] - 0.99) < 1e-12
    # deterministic ordering: descending alpha_1
    assert [a[0] for a in grid] == sorted((a[0] for a in grid), reverse=True)


def test_descending_grid_three_users():
    grid = _descending_grid(3, 0.01)
    assert all(a[0] > a[1] > a[2] > 0 for a in grid)
    assert all(abs(sum(a) - 1) < 1e-12 for a in grid)
    assert len(set(grid)) == len(grid)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_descending_grid_order(L):
    # descending alpha_1, then alpha_2, ...: the order of solve's sweep
    grid = _descending_grid(L, 0.01)
    assert grid == sorted(grid, reverse=True)


def _brute_force_grid(L, step):
    # every strictly descending tuple of L positive integers summing to
    # n = 1/step (combinations keep the descending order of the range),
    # sorted descending
    n = round(1 / step)
    return sorted((tuple(k / n for k in ks)
                   for ks in itertools.combinations(range(n, 0, -1), L)
                   if sum(ks) == n), reverse=True)


@pytest.mark.parametrize("L,step", [(2, 0.01), (3, 0.01), (4, 0.01),
                                    (2, 0.001)])
def test_descending_grid_equals_brute_force(L, step):
    assert _descending_grid(L, step) == _brute_force_grid(L, step)


def test_descending_grid_closes_the_last_slot_at_once():
    # the last coefficient is fixed by the others, so a grid costs time
    # in proportion to its points: 49,999 two-user points of step 1e-5
    start = time.perf_counter()
    grid = _descending_grid(2, 1e-5)
    assert time.perf_counter() - start < 1.0
    assert len(grid) == 49_999


def test_solve_vacuous_threshold_returns_unconstrained_min():
    problem = make_problem(p_th=0.999, snr_db=20.0)
    result = solve(problem)
    assert not result.infeasible
    assert all(e.feasible for e in result.sweep)
    best_by_psi = min(result.sweep, key=lambda e: (e.psi, -e.alpha[0]))
    assert result.best_alpha == best_by_psi.alpha
    assert result.best_alpha in [e.alpha for e in result.feasible_set]


def test_solve_unattainable_threshold_flags_infeasible():
    problem = make_problem(p_th=1e-12, snr_db=10.0)
    result = solve(problem)
    assert result.infeasible
    assert result.best_alpha is None
    assert len(result.sweep) == 49  # full sweep still attached
    assert math.isnan(result.best_objective)


def test_solve_deterministic_weighted():
    problem = make_problem(snr_db=25.0, p_th=0.05, grid_step=0.01,
                           sic_mode="weighted", weights_trials=150_000,
                           weights_seed=5)
    r1 = solve(problem)
    r2 = solve(problem)
    assert r1.best_alpha == r2.best_alpha
    assert r1.best_objective == r2.best_objective
    assert [e.psi for e in r1.sweep] == [e.psi for e in r2.sweep]



def test_weighted_objective_equals_every_sweep_entry():
    # The grid points share the draws of weights_seed, so the objective
    # at any grid allocation reproduces its sweep entry exactly.
    problem = make_problem(sic_mode="weighted", weights_trials=100_000,
                           weights_seed=7)
    result = solve(problem)
    assert len(result.sweep) == 49
    for e in result.sweep:
        assert objective_psi(problem, e.alpha) == e.psi, e.alpha

def test_weighted_mode_never_runs_the_full_detector(monkeypatch, tmp_path):
    # Weighted mode reads only SIC residual patterns; the full detector's
    # counters would be computed and dropped.
    sim = importlib.import_module("noma_pep.simulate")

    def full_detector(*args):
        raise AssertionError("the full detector ran")

    monkeypatch.setattr(sim, "_detect_batch", full_detector)
    with pytest.raises(AssertionError, match="full detector"):
        simulate(make_problem().cfg, 10.0, 1_000, seed=1)
    problem = make_problem(sic_mode="weighted", weights_trials=100_000,
                           weights_seed=7)
    entry = solve(problem).sweep[10]
    assert objective_psi(problem, entry.alpha) == entry.psi
    assert main(["pep", "--users", "3", "--sic-mode", "weighted",
                 "--snr-db", "5,10", "--trials", "100000",
                 "--out", str(tmp_path)]) == 0


def test_solve_user1_pep_monotone_in_alpha1():
    problem = make_problem(p_th=0.999, snr_db=20.0)
    result = solve(problem)
    ordered = sorted(result.sweep, key=lambda e: e.alpha[0])
    peps = [e.pep_per_user[0] for e in ordered]
    assert all(b < a for a, b in zip(peps, peps[1:]))


def test_feasible_set_survives_grid_refinement():
    coarse = solve(make_problem(snr_db=30.0, p_th=1e-3, grid_step=0.01))
    fine = solve(make_problem(snr_db=30.0, p_th=1e-3, grid_step=0.005))
    fine_feasible = [e.alpha[0] for e in fine.feasible_set]
    assert coarse.feasible_set
    for entry in coarse.feasible_set:
        assert any(abs(f - entry.alpha[0]) <= 0.005 + 1e-12
                   for f in fine_feasible)


# ------------------------------------------------------------ pep_table


def make_cfg(alpha):
    ch = ChannelModel(sigma_h_sq=0.5)
    return SystemConfig(alpha=alpha, P=1.0, channel=ch, constellation=QPSK)


@pytest.mark.parametrize("alpha", [(0.8, 0.2), (0.7, 0.2, 0.1)])
@pytest.mark.parametrize("mode", ["perfect", "pattern", "weighted"])
def test_pep_table_equals_per_pair_average_pep(alpha, mode):
    cfg, L, snr_db = make_cfg(alpha), len(alpha), 15.0
    # one more delta than needed: user l reads the first l-1
    deltas = (1.414213 + 0j, 0j, 2j)[: L] if mode == "pattern" else None
    stats = weights = None
    if mode == "weighted":
        stats = sic_patterns(cfg, snr_db, 100_000, seed=3)
        weights = sic_weight_tables(stats, QPSK)
    table = pep_table(cfg, snr_db, residual_tables(cfg, mode, deltas, stats))
    assert table.shape == (L, 4, 4)
    sigma_n_sq = cfg.noise_var_for_snr(snr_db)
    for l in range(1, L + 1):
        for tx in range(4):
            assert table[l - 1, tx, tx] == 0.0
            for rx in range(4):
                if rx == tx:
                    continue
                residuals = None
                if mode == "pattern":
                    residuals = {deltas[: l - 1]: 1.0}
                elif mode == "weighted":
                    residuals = weights[l, tx]
                expected = average_pep(l, L, tx, rx, alpha, 1.0, cfg.channel,
                                       QPSK, residuals, sigma_n_sq=sigma_n_sq)
                assert table[l - 1, tx, rx] == expected, (l, tx, rx)


@pytest.mark.parametrize("deltas", [None, (0j,)])
def test_pep_table_needs_l_minus_1_pattern_deltas(deltas):
    with pytest.raises(ValueError, match="at least 2"):
        residual_tables(make_cfg((0.7, 0.2, 0.1)), "pattern", deltas)


def test_residual_tables_of_each_mode():
    cfg = make_cfg((0.7, 0.2, 0.1))
    assert residual_tables(cfg, "perfect") is None
    tables = residual_tables(cfg, "pattern", (1j, 2j, 3j))
    assert sorted(tables) == [(l, tx) for l in (1, 2, 3) for tx in range(4)]
    for (l, tx), table in tables.items():
        assert table == {(1j, 2j)[: l - 1]: 1.0}
    stats = sic_patterns(cfg, 10.0, 100_000, seed=3)
    assert residual_tables(cfg, "weighted", stats=stats) == \
        sic_weight_tables(stats, QPSK)
    with pytest.raises(ValueError, match="stats"):
        residual_tables(cfg, "weighted")
    with pytest.raises(ValueError, match="unknown sic_mode"):
        residual_tables(cfg, "genie")
    with pytest.raises(ValueError, match="unknown sic_mode"):
        make_problem(sic_mode="genie")


def test_pep_table_calls_average_pep_once_per_user_and_pair(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[:4])
        return average_pep(*args, **kwargs)

    monkeypatch.setattr(optimize, "average_pep", counting)
    pep_table(make_cfg((0.7, 0.2, 0.1)), 10.0)
    assert len(calls) == 3 * 4 * 3
    assert len(set(calls)) == len(calls)


def test_pep_table_of_some_pairs_evaluates_only_those(monkeypatch):
    # fig2 reads one pair per user: its entries equal the full table's,
    # and every other entry is 0 and never evaluated.
    cfg, pairs = make_cfg((0.7, 0.2, 0.1)), [(0, 1), (2, 0)]
    full = pep_table(cfg, 10.0)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[:4])
        return average_pep(*args, **kwargs)

    monkeypatch.setattr(optimize, "average_pep", counting)
    table = pep_table(cfg, 10.0, pairs=pairs)
    assert sorted(calls) == [(l, 3, tx, rx) for l in (1, 2, 3)
                             for tx, rx in sorted(pairs)]
    want = np.zeros_like(full)
    for tx, rx in pairs:
        want[:, tx, rx] = full[:, tx, rx]
    np.testing.assert_array_equal(table, want)


def test_only_pep_table_averages_hypotheses():
    # Every analytic caller gets its PEPs from pep_table; union_bound_ber
    # stays a direct per-pair reference for the tests.
    package = Path(optimize.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "average_pep" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                ):
                    callers.add(f"{path.stem}.{getattr(top, 'name', '')}")
    assert callers == {"optimize.pep_table", "optimize.union_bound_ber"}


def test_sic_modes_are_named_only_by_optimize_and_cli():
    # residual_tables is the one place where the SIC modes differ: every
    # hypothesis-averaging entry takes one residuals argument.
    package = Path(optimize.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name in ("optimize.py", "cli.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        named = {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and node.value in ("perfect", "pattern", "weighted")}
        assert not named, (path.name, named)
    for fn in (average_pep, pep_table, union_bound_ber):
        params = inspect.signature(fn).parameters
        assert "residuals" in params, fn.__name__
        assert not {"sic_mode", "prior_deltas", "delta_weights"} & set(params)
