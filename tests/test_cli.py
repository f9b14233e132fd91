import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import noma_pep.cli as cli
import noma_pep.optimize as optimize
from noma_pep.cli import main
from noma_pep.pep import NumericalError, average_pep


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_pep_defaults_single_user(tmp_path):
    rc = main(["pep", "--users", "1", "--alpha", "1.0", "--snr-db", "10",
               "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "pep.csv")
    assert header == ["snr_db", "user", "tx", "rx", "pep", "method"]
    assert len(rows) == 12  # all ordered pairs
    assert all(0.0 <= float(r[4]) <= 1.0 for r in rows)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == ["pep.csv"]
    assert manifest["tool_version"]


def test_manifest_records_environment(tmp_path):
    assert main(["pep", "--users", "1", "--alpha", "1.0", "--snr-db", "10",
                 "--out", str(tmp_path)]) == 0
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    # no CLI run executes scipy code, so its version is not recorded
    assert "scipy" not in env
    for key in ("simd_baseline", "simd_enabled"):
        assert isinstance(env[key], list)
        assert all(isinstance(f, str) for f in env[key])


PERFECT_PEP = ["pep", "--users", "2", "--alpha", "0.8,0.2", "--snr-db", "10",
               "--trials", "100000", "--seed", "4"]


@pytest.mark.parametrize("argv", [
    PERFECT_PEP,
    ["optimize", "--sic-mode", "perfect", "--grid-step", "0.01",
     "--pth", "0.1", "--weights-trials", "5", "--seed", "4"],
], ids=["pep", "optimize"])
def test_manifest_leaves_out_unused_simulation_settings(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] is None
    assert not {"trials", "weights_trials", "seed"} & set(manifest["config"])
    assert manifest["config"]["sic_mode"] == "perfect"


def test_manifest_keeps_simulation_settings_of_weighted_runs(tmp_path):
    argv = PERFECT_PEP + ["--sic-mode", "weighted", "--out", str(tmp_path)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["config"]["trials"] == 100_000
    assert manifest["config"]["seed"] == 4


def test_pep_three_user_snr_range(tmp_path):
    rc = main(["pep", "--snr-db", "0:10:5", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "pep.csv")
    snrs = {r[0] for r in rows}
    assert snrs == {"0", "5", "10"}
    assert {r[1] for r in rows} == {"1", "2", "3"}


def test_simulate_csv_schema(tmp_path):
    rc = main(["simulate", "--users", "2", "--alpha", "0.8,0.2",
               "--snr-db", "10", "--trials", "100000", "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "simulate.csv")
    assert header == ["snr_db", "user", "metric", "value", "ci_half_width",
                      "trials"]
    metrics = {r[2] for r in rows}
    assert {"ber", "ser", "pep_0to1"} <= metrics


def test_simulate_worker_invariance_bytes(tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    args = ["simulate", "--users", "2", "--alpha", "0.8,0.2", "--snr-db",
            "10", "--trials", "250000", "--seed", "5"]
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(args + ["--workers", "2", "--out", str(out2)]) == 0
    assert (out1 / "simulate.csv").read_bytes() == (
        out2 / "simulate.csv"
    ).read_bytes()


def test_workers_reach_weighted_pep_and_fig4(tmp_path, monkeypatch):
    rc = main(["pep", "--users", "2", "--alpha", "0.8,0.2", "--sic-mode",
               "weighted", "--snr-db", "10", "--trials", "100000",
               "--workers", "2", "--out", str(tmp_path / "pep")])
    assert rc == 0
    config = json.loads((tmp_path / "pep" / "manifest.json").read_text())["config"]
    assert config["workers"] == 2

    seen = []
    real_sic_patterns = optimize.sic_patterns

    def recording_sic_patterns(*args, **kwargs):
        seen.append(kwargs.get("workers"))
        return real_sic_patterns(*args, **kwargs)

    monkeypatch.setattr(optimize, "sic_patterns", recording_sic_patterns)
    args = ["fig4", "--grid-step", "0.01", "--weights-trials", "100000",
            "--seed", "3"]
    outs = {w: tmp_path / f"fig4_w{w}" for w in (1, 2)}
    for w, out in outs.items():
        assert main(args + ["--workers", str(w), "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["workers"] == w
    # One sic_patterns call covers the whole grid.
    assert seen == [1, 2]
    for name in ("fig4_sweep.csv", "fig4_summary.csv"):
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes()


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# two-user run\nusers = 2\nalpha = 0.8,0.2\nsnr_db = 10\nseed = 9\n"
    )
    out1 = tmp_path / "a"
    rc = main(["pep", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    _, rows = read_csv(out1 / "pep.csv")
    assert {r[0] for r in rows} == {"10"}
    # flag overrides the file value
    out2 = tmp_path / "b"
    rc = main(["pep", "--config", str(cfg), "--snr-db", "20",
               "--out", str(out2)])
    assert rc == 0
    _, rows = read_csv(out2 / "pep.csv")
    assert {r[0] for r in rows} == {"20"}


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["pep", "--frobnicate", "1"])
    assert exc.value.code == 2



@pytest.mark.parametrize("argv", [
    ["optimize", "--sic-mode", "perfect", "--grid", "0.01"],
    ["simulate", "--trial", "1000"],
])
def test_abbreviated_flag_exits_2(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())

UNREAD_FLAGS = (
    [(c, f) for c in ("simulate", "fig2")
     for f in ("--sic-mode", "--prior-deltas")]
    + [(c, f) for c in ("diversity", "fig3", "bound")
       for f in ("--seed", "--trials", "--sic-mode", "--prior-deltas")]
    + [("optimize", "--trials"), ("fig4", "--trials")]
    # the search sets alpha at every grid point
    + [("optimize", "--alpha"), ("fig4", "--alpha")]
    # a flag of another subcommand: the parser adds only the named one's
    + [("diversity", "--grid-step")]
)


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, command, flag):
    value = "perfect" if flag == "--sic-mode" else "1"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, key", [("pep", "sigma_hsq"),
                                          ("diversity", "trials")])
def test_unknown_config_key_exits_2(tmp_path, capsys, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"users = 2\n{key} = 3\n")
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert f"error: unknown config key '{key}' for {command}" in (
        capsys.readouterr().err
    )
    assert not list(tmp_path.glob("*.csv"))


def test_config_value_outside_choices_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sic_mode = perfekt\n")
    rc = main(["pep", "--users", "1", "--alpha", "1.0", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "sic_mode" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_optimize_reads_snr_db_from_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr_db = 10\n")
    args = ["optimize", "--users", "2", "--sic-mode", "perfect",
            "--grid-step", "0.01"]
    rc_file = main(args + ["--config", str(cfg),
                           "--out", str(tmp_path / "file")])
    rc_flag = main(args + ["--snr-db", "10", "--out", str(tmp_path / "flag")])
    assert rc_file == rc_flag
    assert (tmp_path / "file" / "optimize_sweep.csv").read_bytes() == (
        tmp_path / "flag" / "optimize_sweep.csv"
    ).read_bytes()
    config = json.loads((tmp_path / "file" / "manifest.json").read_text())
    assert config["config"]["snr_db"] == "10"


@pytest.mark.parametrize("command", ["pep", "bound", "diversity", "simulate",
                                     "fig2"])
def test_empty_snr_range_exits_2(tmp_path, capsys, command):
    rc = main([command, "--users", "2", "--snr-db", "10:0:5",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("snr_db", ["0:nan:5", "0:inf:5", "-inf:0:5",
                                    "0:10:inf"])
def test_non_finite_snr_range_exits_2(tmp_path, capsys, snr_db):
    # checked before numpy sizes the range, as a comma list is
    rc = main(["diversity", "--users", "2", f"--snr-db={snr_db}",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "SNR values must be finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["simulate", "diversity"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2(tmp_path, capsys, command, workers):
    rc = main([command, "--users", "2", "--snr-db", "10", "--workers",
               workers, "--out", str(tmp_path)]
              + (["--trials", "2000"] if command == "simulate" else []))
    assert rc == 2
    assert "workers" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["pep", "diversity", "bound", "simulate"])
@pytest.mark.parametrize("snr_db", ["4000", "-4000"])
def test_out_of_range_snr_exits_2(tmp_path, capsys, command, snr_db):
    # The linear SNR overflows a float at 4000 dB and the noise variance
    # has no finite value at -4000 dB: a configuration error, not a crash.
    rc = main([command, "--users", "2", f"--snr-db={snr_db}",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_benchmark_workloads_parse(monkeypatch):
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    run = importlib.import_module("run")
    parser = cli.build_parser()
    for name, workload in run.WORKLOADS.items():
        flags = parser.parse_args(workload.argv(1))
        assert flags.command == workload.argv(1)[0], name


def test_unallocatable_snr_range_exits_2(tmp_path, capsys):
    # 1e17 points would take 711 PiB, more than any address space, so
    # numpy fails before it allocates anything.
    rc = main(["diversity", "--users", "2", "--snr-db", "0:1e17:1",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["simulate", "--users", "17", "--trials", "1000"],
    ["pep", "--users", "17", "--sic-mode", "weighted"],
])
def test_more_than_16_simulated_users_exits_2(tmp_path, capsys, argv):
    rc = main(argv + ["--snr-db", "10", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "at most 16 users" in err and "Traceback" not in err
    # the subcommand rejects this after the settings resolve; a failed
    # run makes no --out directory
    assert not (tmp_path / "out").exists()


def test_invalid_alpha_exits_2(tmp_path, capsys):
    rc = main(["pep", "--users", "2", "--alpha", "0.7,0.2",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("users 2\n")
    rc = main(["pep", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericalError("quadrature failed")

    monkeypatch.setattr(optimize, "average_pep", boom)
    rc = main(["pep", "--users", "1", "--alpha", "1.0", "--snr-db", "10",
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, csv_name", [("pep", "pep.csv"),
                                               ("diversity", "diversity.csv")])
def test_non_finite_power_exits_3(tmp_path, capsys, command, csv_name):
    # A non-finite flag is a configuration error (exit 2), rejected before
    # the kernel's non-finite check (exit 3) is reached.
    rc = main([command, "--users", "2", "--power", "nan", "--snr-db", "10",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / csv_name).exists()


# fig4 takes no --alpha (see UNREAD_FLAGS)
@pytest.mark.parametrize("flag, value, command", [
    (flag, value, command)
    for flag, value in (("--power", "nan"), ("--alpha", "nan,0.2"),
                        ("--sigma-h-sq", "nan"), ("--snr-db", "nan"))
    for command in ("simulate", "pep", "diversity", "fig4")
    if (command, flag) != ("fig4", "--alpha")])
def test_non_finite_flag_exits_2(tmp_path, capsys, command, flag, value):
    args = [command, "--users", "2", "--out", str(tmp_path)]
    if command in ("simulate", "pep"):
        args += ["--trials", "2000"]
    if flag != "--snr-db":
        args += ["--snr-db", "10"]
    rc = main(args + [flag, value])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_optimize_infeasible_exits_4(tmp_path, capsys):
    rc = main(["optimize", "--users", "2",
               "--snr-db", "10", "--pth", "1e-12", "--grid-step", "0.01",
               "--sic-mode", "perfect", "--out", str(tmp_path)])
    assert rc == 4
    assert (tmp_path / "optimize_sweep.csv").exists()
    header, rows = read_csv(tmp_path / "optimize_sweep.csv")
    assert header == ["alpha_1", "alpha_2", "psi", "pep_user_1",
                      "pep_user_2", "feasible"]
    assert all(r[-1] == "0" for r in rows)


def test_optimize_feasible_summary(tmp_path):
    rc = main(["optimize", "--users", "2",
               "--sigma-h-sq", "1.0", "--snr-db", "30", "--pth", "1e-3",
               "--grid-step", "0.01", "--sic-mode", "perfect",
               "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "optimize_summary.csv")
    records = {r[0]: r for r in rows}
    assert {"minimizer", "window_low", "window_high"} <= set(records)
    low = float(records["window_low"][2])
    high = float(records["window_high"][2])
    assert 0.5 < low < high < 1.0


@pytest.mark.parametrize("argv", [
    ["fig4", "--weights-trials", "99999"],
    ["optimize", "--weights-trials", "99999"],
    ["pep", "--users", "3", "--sic-mode", "weighted", "--trials", "99999",
     "--snr-db", "0:40:1"],
    ["fig2", "--trials", "99999"],
], ids=["fig4", "optimize", "pep", "fig2"])
def test_too_few_weight_trials_exit_2_before_simulating(tmp_path, capsys,
                                                       monkeypatch, argv):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the trials")

    for module in (cli, optimize):
        monkeypatch.setattr(module, "sic_patterns", no_simulation)
    monkeypatch.setattr(cli, "simulate", no_simulation)
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 2
    assert "need at least 100000 trials" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_fig3_recipe(tmp_path):
    rc = main(["fig3", "--snr-db", "30,35,40", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "fig3_diversity.csv")
    assert header == ["snr_db", "user", "pep", "d_eff_ratio",
                      "d_eff_finite_diff"]
    assert {r[1] for r in rows} == {"1", "2", "3"}


def test_diversity_evaluates_one_pair_per_class(tmp_path, monkeypatch):
    # QPSK's 12 ordered pairs form two classes under perfect SIC (the
    # adjacent and the diagonal pairs), so each user and SNR costs two
    # average_pep calls instead of twelve
    calls = []

    def counting_average_pep(*args, **kwargs):
        calls.append(args[:4])
        return average_pep(*args, **kwargs)

    monkeypatch.setattr(optimize, "average_pep", counting_average_pep)
    assert main(["diversity", "--users", "6", "--snr-db", "0,20,40",
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 2 * 6 * 3  # classes, users, SNRs
    assert {call[2:] for call in calls} == {(0, 1), (0, 2)}


def test_fig3_is_diversity_with_fig2_defaults(tmp_path):
    args = ["--snr-db", "30,40", "--alpha", "0.7,0.2,0.1"]
    assert main(["fig3"] + args + ["--out", str(tmp_path / "f")]) == 0
    assert main(["diversity"] + args + ["--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "f" / "fig3_diversity.csv").read_bytes() == (
        tmp_path / "d" / "diversity.csv"
    ).read_bytes()


@pytest.mark.parametrize("snr_db, message", [
    ("10,5", "strictly increasing"),
    ("10,10", "strictly increasing"),
    ("10", "two positive-PEP"),
    ("0,1e-300", "d_eff must be finite"),  # both points at gamma_bar = 1
])
def test_diversity_bad_grid_exits_2(tmp_path, capsys, snr_db, message):
    rc = main(["diversity", "--users", "2", "--snr-db", snr_db,
               "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "diversity.csv").exists()


def test_default_diversity_run_warns_nothing(tmp_path):
    # The default grid starts at 0 dB, whose ratio-form cell is NaN; the
    # CSV reports it and stderr stays free of library warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["diversity", "--users", "2", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "diversity.csv")
    assert rows[0][3] == "nan"


def test_power_does_not_move_fixed_snr_pep(tmp_path):
    # Symbols have unit energy and --power scales them once, so at a
    # fixed snr_db = 10 log10(P / sigma_n^2) the PEP does not depend on P.
    for power in ("1", "4"):
        assert main(["pep", "--users", "2", "--power", power, "--snr-db",
                     "0,10,20", "--out", str(tmp_path / power)]) == 0
    _, ref = read_csv(tmp_path / "1" / "pep.csv")
    _, got = read_csv(tmp_path / "4" / "pep.csv")
    assert [r[:4] for r in got] == [r[:4] for r in ref]
    np.testing.assert_allclose([float(r[4]) for r in got],
                               [float(r[4]) for r in ref], rtol=1e-12)


def test_manifest_records_long_lists_by_hash(tmp_path):
    rc = main(["pep", "--users", "1", "--alpha", "1.0", "--snr-db", "0:99:1",
               "--out", str(tmp_path)])
    assert rc == 0
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    snrs = [float(s) for s in range(100)]
    assert config["snr_db"] == {
        "length": 100,
        "sha256": hashlib.sha256(json.dumps(snrs).encode()).hexdigest(),
    }
    assert config["alpha"] == [1.0]  # short lists stay verbatim


def test_fig2_recipe_small(tmp_path):
    rc = main(["fig2", "--snr-db", "10,20", "--trials", "150000",
               "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    for l in (1, 2, 3):
        header, rows = read_csv(tmp_path / f"fig2_user{l}.csv")
        assert header == ["snr_db", "pep_analytic", "pep_simulated",
                          "ci_half_width", "trials"]
        assert len(rows) == 2
        for r in rows:
            assert 0.0 <= float(r[1]) <= 1.0
            assert 0.0 <= float(r[2]) <= 1.0


def test_rerun_reproduces_csv_bytes(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["fig4", "--grid-step", "0.01", "--sic-mode", "perfect"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("fig4_sweep.csv", "fig4_summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["outputs"] == ["fig4_sweep.csv", "fig4_summary.csv"]


def test_pattern_mode_needs_deltas(tmp_path):
    rc = main(["pep", "--users", "2", "--alpha", "0.8,0.2", "--snr-db", "10",
               "--sic-mode", "pattern", "--out", str(tmp_path)])
    assert rc == 2


def test_pattern_mode_with_deltas(tmp_path):
    rc = main(["pep", "--users", "2", "--alpha", "0.8,0.2", "--snr-db", "10",
               "--sic-mode", "pattern", "--prior-deltas", "1.414213+0j",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "pep.csv")
    assert len(rows) == 24  # 2 users x 12 ordered pairs


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in cli.SUBCOMMANDS)


def test_subcommand_help_shows_its_flags(capsys):
    # the parser adds flags only to the subcommand the line names
    with pytest.raises(SystemExit) as exc:
        main(["fig4", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key in cli.SUBCOMMANDS["fig4"][1]:
        assert "--" + key.replace("_", "-") in out
    assert "--config" in out


@pytest.mark.parametrize("argv", [
    ["pep", "--users", "2", "--sic-mode", "perfect", "--snr-db", "10"],
    ["optimize", "--grid-step", "0.01"],
    ["fig4", "--grid-step", "0.01", "--sic-mode", "perfect"],
], ids=["pep", "optimize", "fig4"])
def test_prior_deltas_outside_pattern_mode_exits_2(tmp_path, monkeypatch,
                                                   capsys, argv):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate called")

    # default-mode optimize simulates its weights through sic_patterns
    for module in (cli, optimize):
        monkeypatch.setattr(module, "simulate", no_simulation)
        monkeypatch.setattr(module, "sic_patterns", no_simulation)
    rc = main(argv + ["--prior-deltas", "5j", "--out", str(tmp_path)])
    assert rc == 2
    assert "--prior-deltas is read only in pattern mode" in (
        capsys.readouterr().err)
    assert not list(tmp_path.iterdir())


def test_high_snr_bounds_stay_positive(tmp_path):
    assert main(["bound", "--users", "6", "--snr-db", "40,60,80",
                 "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "bound.csv")
    assert len(rows) == 3 * 6 * 3
    assert all(float(r[3]) > 0 for r in rows), [r for r in rows
                                                if float(r[3]) <= 0]


@pytest.mark.parametrize("power", ["1e120", "1e160", "1e308"])
def test_bound_too_large_for_a_float_exits_3(tmp_path, capsys, power):
    # the verbatim bound is exact in rationals; its float overflows
    out = tmp_path / "out"
    assert main(["bound", "--power", power, "--out", str(out)]) == 3
    assert "too large for a float" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_scipy_special_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, noma_pep, noma_pep.cli; "
            "print('scipy.special' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_import_leaves_process_pool_unloaded():
    # Only a run spread over processes loads the pool.
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, noma_pep.cli; print(sorted(set(sys.modules) & "
            "{'concurrent.futures.process', 'multiprocessing'}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_diversity_run_loads_neither_libcrypto_nor_decimal(tmp_path):
    # hashlib (OpenSSL's libcrypto) loads only to hash a long manifest
    # list, and fractions (which imports decimal) only to evaluate the
    # high-SNR bound; a diversity run does neither.
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; before = set(sys.modules); import noma_pep.cli; "
            f"rc = noma_pep.cli.main(['diversity', '--users', '3', "
            f"'--out', {str(tmp_path)!r}]); "
            "print(rc, sorted(set(sys.modules) - before & "
            "{'_hashlib', 'decimal'}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 []"


def test_diversity_run_leaves_scipy_unloaded(tmp_path):
    # no CLI run executes scipy code, and the manifest records no scipy
    # version, so a run never imports the package
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, noma_pep.cli; "
            f"rc = noma_pep.cli.main(['diversity', '--users', '3', "
            f"'--out', {str(tmp_path)!r}]); "
            "print(rc, sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 []"
