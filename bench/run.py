"""noma-pep benchmark: CLI recipes in fresh interpreters, checked and timed.

    python3 bench/run.py --workload analytic_L6 --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each repetition starts a new interpreter
(bench/child.py) that imports `noma_pep.cli` from ./src and calls its
`main` with the workload's arguments, so every repetition pays the cold
quadrature cache and the scipy import a CLI user pays.  The load is a
closed loop: one process, `--workers 1`, the next repetition starting
after the previous one ended.  Repetitions continue while another one
fits in `--seconds` (at least two, or two untraced/traced pairs with
`--trace 1`), and each one's output is checked against stored references.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported:
medians over the repetitions, and for set-up time over at least five
interpreter starts.  With --trace 1 every repetition is paired with a
traced one that wraps the public functions the workload calls
(bench/tracing.py); the per-layer metrics are medians over the traced
repetitions.  BENCHMARK.json lists only those measured, positive and
meaningful on every workload (the `cli` layer and the import); the figures
of the layers a workload reaches (`pep`, `simulate`, `optimize`) and
`trace.overhead_s`, the traced minus the untraced median wall time, are
printed after them.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; everything else the
run measured, with the machine it ran on, goes to
.bench_out/<workload>-seed<n>-trace<t>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import checks
from tracing import UNITS, now

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
MIN_ROUNDS = 2
HARD_LIMIT_S = 150.0  # stop starting repetitions; a run must end in 180 s


@dataclass(frozen=True)
class Workload:
    argv: Callable[[int], list[str]]
    check: Callable


WORKLOADS = {
    "analytic_L6": Workload(
        lambda seed: ["diversity", "--users", "6", "--snr-db", "0:40:5",
                      "--workers", "1"],
        checks.check_analytic,
    ),
    "linksim_L3": Workload(
        lambda seed: ["simulate", "--users", "3", "--snr-db", "0:40:10",
                      "--trials", "1000000", "--workers", "1",
                      "--seed", str(seed)],
        checks.check_linksim,
    ),
    "power_sweep_L2": Workload(
        lambda seed: ["fig4", "--grid-step", "0.01", "--weights-trials",
                      "200000", "--sic-mode", "weighted", "--workers", "1",
                      "--seed", str(seed)],
        checks.check_power_sweep,
    ),
}


def run_child(root: Path, rep_dir: Path, argv, trace: bool, timeout: float):
    """Start one fresh interpreter; return its result dict or None."""
    rep_dir.mkdir(parents=True)
    spec = {"argv": argv, "out": str(rep_dir), "trace": trace,
            "src": str(root / "src"), "result": str(rep_dir / "result.json")}
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with (rep_dir / "child.log").open("w") as log:
        spawned = now()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
            cwd=root, env=env, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None
    result_file = rep_dir / "result.json"
    if code != 0 or not result_file.exists():
        return None
    result = json.loads(result_file.read_text())
    result["setup_s"] = result["imported"] - spawned
    return result


def environment(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
    }


def shown(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def median_of(reps, key):
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else None


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool):
    """Run the repetitions; return (reps, setup samples, out directory)."""
    workload = WORKLOADS[name]
    out_root = root / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    # Traced rounds alternate which repetition goes first, so a drift in
    # machine speed does not land on one side of the overhead estimate.
    modes = ((False, True), (True, False)) if trace else ((False,),)
    started = now()
    reps, setups = [], []
    rounds = 0
    while True:
        for traced in modes[rounds % len(modes)]:
            rep_dir = out_root / f"rep{len(reps)}"
            timeout = HARD_LIMIT_S + 20.0 - (now() - started)
            result = run_child(root, rep_dir, workload.argv(seed), traced, timeout)
            rep = {"traced": traced, "dir": rep_dir.name}
            if result is None:
                rep["problems"] = ["process failed; see child.log"]
            else:
                rep.update(result)
                setups.append(result["setup_s"])
                rep.update(problems=[f"exit code {result['rc']}"], figures={})
                if result["rc"] == 0:
                    try:
                        problems, figures = workload.check(rep_dir)
                    except (OSError, KeyError, ValueError) as exc:
                        problems, figures = [f"unreadable output: {exc!r}"], {}
                    rep.update(problems=problems, figures=figures)
            reps.append(rep)
            status = "ok" if not rep["problems"] else "; ".join(rep["problems"][:3])
            print(f"rep {len(reps) - 1} {'traced' if traced else 'plain'}: "
                  f"setup {rep.get('setup_s', float('nan')):.3f} s, "
                  f"wall {rep.get('wall_s', float('nan')):.3f} s, "
                  f"rss {rep.get('peak_rss_mb', float('nan')):.1f} MB, {status}",
                  flush=True)
        rounds += 1
        elapsed = now() - started
        next_end = elapsed * (rounds + 1) / rounds
        if next_end > HARD_LIMIT_S or (rounds >= MIN_ROUNDS and next_end > seconds):
            break
    while not trace and len(setups) < SETUP_SAMPLES \
            and now() - started < HARD_LIMIT_S:
        result = run_child(root, out_root / f"setup{len(setups)}", None, False, 60.0)
        if result is None:
            break
        setups.append(result["setup_s"])
    return reps, setups, out_root


def summarize(reps, setups, trace: bool) -> dict:
    """Every metric the run can give, keyed by BENCHMARK.json name."""
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    values = {}
    if setups:
        values["setup_s"] = statistics.median(setups)
    for key in ("wall_s", "peak_rss_mb"):
        if plain:
            values[key] = median_of(plain, key)
    traced = [r for r in reps if r["traced"] and "layers" in r]
    if trace and traced:
        for key in sorted({k for r in traced for k in r["layers"]}):
            samples = [r["layers"][key] for r in traced if key in r["layers"]]
            counted = all(isinstance(x, int) for x in samples)
            values[key] = (statistics.median_low if counted
                           else statistics.median)(samples)
        values["setup.import_s"] = median_of(reps, "import_s")
        if plain:
            values["trace.overhead_s"] = (median_of(traced, "wall_s")
                                          - median_of(plain, "wall_s"))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "noma_pep" / "cli.py").is_file() \
            or not spec_file.is_file():
        print("run from the root of a noma-pep checkout: needs "
              "src/noma_pep/cli.py and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    trace = bool(args.trace)

    env = environment(root)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload} (seed {args.seed}): "
          f"{why.get(args.workload, '')}", flush=True)
    reps, setups, out_root = measure(root, args.workload, args.seed,
                                     args.seconds, trace)
    values = summarize(reps, setups, trace)
    failed = sum(1 for r in reps if r["problems"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"no measurement for {missing}; every repetition failed",
              file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    # Measured values that are not BENCHMARK.json metrics: those of layers
    # some workload bypasses, labels, and the signed tracing overhead.
    units = {**UNITS, "trace.overhead_s": "s",
             **{m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}}
    layer_figures = {k: v for k, v in values.items() if k not in metrics}
    figures = {}
    for rep in reps:
        for key, value in rep.get("figures", {}).items():
            figures[key] = max(figures.get(key, value), value)
    env.update(workload=args.workload, seed=args.seed,
               repetitions=len(reps), setup_samples=len(setups))
    absent = sorted({a for r in reps for a in r.get("absent", ())})
    for name, m in metrics.items():
        print(f"{name:34s} {shown(m['value'])} {m['unit']}")
    print(f"{'fail_frac':34s} {failed / len(reps):.6g} ratio "
          f"({failed} of {len(reps)} repetitions)")
    for key, value in sorted(figures.items()):
        print(f"{key:34s} {shown(value)} {checks.FIGURE_UNITS[key]} "
              "(largest over repetitions)")
    for key, value in layer_figures.items():
        print(f"{key:34s} {shown(value)} {units[key]} (median, not compared)")
    if trace:
        reached = {k.split(".")[0] for k in layer_figures}
        missed = [layer for layer in ("pep", "simulate", "optimize")
                  if layer not in reached]
        if missed:
            print(f"layers this workload does not reach: {', '.join(missed)}")
    if absent:
        print(f"absent bindings, their layers are not measured: "
              f"{', '.join(absent)}")
    print("environment " + json.dumps(env))
    result = {"correct": failed == 0, "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    (out_root / "result.json").write_text(json.dumps(
        {**result, "environment": env, "figures": figures,
         "layer_figures": layer_figures, "absent": absent,
         "repetitions": reps, "setup_s_samples": setups},
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
