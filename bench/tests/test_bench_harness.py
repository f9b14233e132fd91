"""Tests of the benchmark harness itself: the tail rule, the tracer's
wrappers and the output checks."""

import csv
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, layer_metrics, percentile, tail_percentile  # noqa: E402


# ------------------------------------------------------------- tail rule


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (648, 90.0), (999, 90.0), (1000, 99.0), (1176, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 100, 648, 1176, 10_000])
def test_tail_value_has_at_least_ten_larger_samples(n):
    values = list(range(n))
    p = tail_percentile(n)
    cut = percentile(values, p)
    assert sum(v > cut for v in values) >= 10
    # the next rung of the ladder would leave fewer than ten beyond
    higher = [q for q in tracing.TAIL_LADDER if q > p]
    if higher:
        assert sum(v > percentile(values, higher[0]) for v in values) < 10


# --------------------------------------------------------------- tracer


def _bindings():
    import noma_pep.cli
    import noma_pep.optimize
    import noma_pep.pep

    return {(m.__name__, a): getattr(m, a) for m, a in [
        (noma_pep.cli, "main"), (noma_pep.cli, "average_pep"),
        (noma_pep.cli, "simulate"), (noma_pep.cli, "solve"),
        (noma_pep.optimize, "average_pep"), (noma_pep.optimize, "simulate"),
        (noma_pep.pep, "pep_quadrature")]}


def test_traced_run_counts_layers_and_restores_wrappers(tmp_path):
    import noma_pep.cli

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(f is not before[k] for k, f in _bindings().items())
        rc = noma_pep.cli.main([
            "optimize", "--users", "2", "--sic-mode", "perfect",
            "--grid-step", "0.01", "--snr-db", "30", "--pth", "0.1",
            "--out", str(tmp_path)])
    finally:
        tracer.restore()
    assert rc == 0
    assert _bindings() == before
    m = layer_metrics(tracer)
    assert m["optimize.grid_points"] == 49
    assert m["pep.average_pep.calls"] == 49 * 2 * 12
    assert m["pep.hypotheses"] == 49 * 12 * (4 + 1)
    assert 0 < m["pep.quadratures"] <= m["pep.hypotheses"]
    # simulate is bypassed: no figures for it, and none spent under solve
    assert not any(k.startswith("simulate.") for k in m)
    assert m["optimize.weights_s"] == 0
    assert set(m) <= set(tracing.UNITS)
    assert 0 < m["optimize.pep_s"] <= m["optimize.solve.busy_s"]
    assert m["cli.self_s"] >= 0 and m["pep.enumeration_self_s"] >= 0


def test_restore_runs_when_the_program_raises():
    import noma_pep.cli

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(SystemExit):
            noma_pep.cli.main(["no-such-command"])
    finally:
        tracer.restore()
    assert _bindings() == before
    assert [s[0] for s in tracer.spans] == ["cli.main"]


def test_missing_binding_is_recorded_as_absent(monkeypatch):
    import noma_pep.pep

    monkeypatch.delattr(noma_pep.pep, "pep_quadrature")
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["noma_pep.pep.pep_quadrature"]
    assert not hasattr(noma_pep.pep, "pep_quadrature")
    assert "pep.hypotheses" not in layer_metrics(tracer)


# -------------------------------------------------------- output checks


def _write(path: Path, header, rows):
    with path.open("w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _diversity(out: Path, scale_key=None, drop_key=None):
    rows = []
    for key, value in checks._exact("analytic_L6").items():
        if key == drop_key:
            continue
        snr, user = key.split(",")
        if key == scale_key:
            value *= 1 + 1e-6
        rows.append([snr, user, f"{value:.12g}", "nan", "nan"])
    _write(out / "diversity.csv",
           ["snr_db", "user", "pep", "d_eff_ratio", "d_eff_finite_diff"], rows)


def test_analytic_check_accepts_reference_and_rejects_perturbation(tmp_path):
    _diversity(tmp_path)
    problems, figures = checks.check_analytic(tmp_path)
    assert problems == [] and figures["pep_max_rel_err"] < 1e-11
    _diversity(tmp_path, scale_key="35,6")
    problems, _ = checks.check_analytic(tmp_path)
    assert len(problems) == 1 and "35,6" in problems[0]
    _diversity(tmp_path, drop_key="0,1")
    assert checks.check_analytic(tmp_path)[0]


def _linksim(out: Path, edit=None):
    with checks.LINKSIM_SEED_CSV.open(newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        if edit:
            edit(row)
    _write(out / "simulate.csv", list(rows[0]), [list(r.values()) for r in rows])


def _shift(user, metric, snr="20", widths=5.0):
    def edit(row):
        if (row["snr_db"], row["user"], row["metric"]) == (snr, user, metric):
            half = float(row["ci_half_width"])
            if user != "1" or not metric.startswith("pep_"):
                half *= 2 ** 0.5  # compared against the stored run
            row["value"] = repr(float(row["value"]) + widths * half)
    return edit


def test_linksim_check_accepts_seed_output_and_rejects_perturbation(tmp_path):
    _linksim(tmp_path)
    problems, figures = checks.check_linksim(tmp_path)
    assert problems == []
    assert 0 < figures["user1_max_gap_hw"] < checks.HALF_WIDTHS
    for edit in (_shift("1", "pep_0to1"), _shift("3", "pep_2to3"),
                 _shift("2", "ber")):
        _linksim(tmp_path, edit)
        problems, _ = checks.check_linksim(tmp_path)
        assert len(problems) == 1, problems

    def fewer_trials(row):
        if row["metric"] == "ser" and row["snr_db"] == "0":
            row["trials"] = "999999"
    _linksim(tmp_path, fewer_trials)
    assert checks.check_linksim(tmp_path)[0]


def _fig4(out: Path, feasible=(86, 98), best=94, best_feasible=True):
    sweep, summary = [], []
    for k in range(99, 50, -1):
        ok = feasible[0] <= k <= feasible[1] and (k != best or best_feasible)
        psi = f"{1e-3 + abs(k - best) * 1e-5:.12g}"
        sweep.append([f"{k / 100:.12g}", f"{1 - k / 100:.12g}", psi,
                      "0.0005", "0.0008", int(ok)])
    feas = [k for k in range(99, 50, -1)
            if feasible[0] <= k <= feasible[1]]
    summary.append(["minimizer", f"{1e-3:.12g}", f"{best / 100:.12g}",
                    f"{1 - best / 100:.12g}"])
    summary.append(["window_low", "", f"{min(feas) / 100:.12g}", ""])
    summary.append(["window_high", "", f"{max(feas) / 100:.12g}", ""])
    _write(out / "fig4_sweep.csv", ["alpha_1", "alpha_2", "psi", "pep_user_1",
                                    "pep_user_2", "feasible"], sweep)
    _write(out / "fig4_summary.csv", ["record", "psi", "alpha_1", "alpha_2"],
           summary)


def test_power_sweep_check_accepts_window_and_rejects_perturbation(tmp_path):
    _fig4(tmp_path)
    problems, figures = checks.check_power_sweep(tmp_path)
    assert problems == [] and figures == {"window_low": 0.86, "window_high": 0.98}
    _fig4(tmp_path, feasible=(80, 98))
    problems, _ = checks.check_power_sweep(tmp_path)
    assert len(problems) == 1 and "low" in problems[0]
    _fig4(tmp_path, feasible=(86, 95), best=94)
    problems, _ = checks.check_power_sweep(tmp_path)
    assert len(problems) == 1 and "high" in problems[0]
    _fig4(tmp_path, best=94, best_feasible=False)
    problems, _ = checks.check_power_sweep(tmp_path)
    assert any("not a feasible point" in p for p in problems)


def test_checks_fail_on_missing_output(tmp_path):
    for check in (checks.check_analytic, checks.check_linksim,
                  checks.check_power_sweep):
        with pytest.raises(FileNotFoundError):
            check(tmp_path)


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch,
                                                      capsys):
    import run

    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "linksim_L3", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""
