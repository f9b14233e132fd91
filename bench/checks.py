"""Output checks, one per workload.

Each check reads the CSV files a CLI run wrote into its output directory
and returns (problems, figures): a list of reasons the output is wrong
(empty when it passes) and the accuracy figures it measured.  References
live in bench/reference and are made by bench/make_reference.py.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Largest relative error accepted for an analytic PEP; the CSV keeps 12
# significant digits and the quadrature evaluator reaches about 2e-11 here.
PEP_REL_TOL = 1e-9
# Monte Carlo rows must agree within this many 95% half-widths.
HALF_WIDTHS = 3.0
# The reference two-user feasibility window at 30 dB, threshold 1e-3.
WINDOW = (0.852, 0.99)
WINDOW_TOL = 0.02
LINKSIM_TRIALS = 1_000_000
# The seed commit's `simulate` output at this seed, stored as a reference.
LINKSIM_SEED = 1
LINKSIM_SEED_CSV = REFERENCE_DIR / f"linksim_L3_seed{LINKSIM_SEED}.csv"
# Unit of each accuracy figure a check returns.
FIGURE_UNITS = {"pep_max_rel_err": "ratio", "user1_max_gap_hw": "half-widths",
                "others_max_gap_hw": "half-widths", "window_low": "alpha_1",
                "window_high": "alpha_1"}


def _exact(section: str) -> dict[str, float]:
    data = json.loads((REFERENCE_DIR / "exact_pep.json").read_text())
    table = data[section]
    key = "pep_by_snr_user" if section == "analytic_L6" else "pep_by_snr_tx_rx"
    return {k: float(v) for k, v in table[key].items()}


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _snr(text: str) -> str:
    return str(int(float(text)))


def check_analytic(out: Path):
    """diversity.csv `pep` against the exact 30-digit reference."""
    exact = _exact("analytic_L6")
    rows = _rows(out / "diversity.csv")
    problems = []
    seen = set()
    worst = 0.0
    for row in rows:
        key = f"{_snr(row['snr_db'])},{row['user']}"
        if key not in exact:
            problems.append(f"unexpected row snr_db={row['snr_db']} user={row['user']}")
            continue
        seen.add(key)
        err = abs(float(row["pep"]) - exact[key]) / exact[key]
        if not err <= PEP_REL_TOL:
            problems.append(f"pep at {key}: {row['pep']} vs exact {exact[key]:.12g}"
                            f" (relative error {err:.3g})")
        worst = max(worst, err) if math.isfinite(err) else math.inf
    if seen != set(exact):
        problems.append(f"missing rows: {sorted(set(exact) - seen)}")
    return problems, {"pep_max_rel_err": worst}


def check_linksim(out: Path):
    """simulate.csv: user 1 against its exact PEP, everything else against
    the stored seed-commit output, both within Monte Carlo half-widths."""
    exact = _exact("linksim_L3_user1")
    ref = {(r["snr_db"], r["user"], r["metric"]): r
           for r in _rows(LINKSIM_SEED_CSV)}
    rows = {(r["snr_db"], r["user"], r["metric"]): r
            for r in _rows(out / "simulate.csv")}
    problems = []
    if rows.keys() != ref.keys():
        problems.append("row keys differ from the reference output: "
                        f"{sorted(rows.keys() ^ ref.keys())[:5]}")
    user1_gap = other_gap = 0.0
    for key in sorted(rows.keys() & ref.keys()):
        snr, user, metric = key
        row = rows[key]
        value, half = float(row["value"]), float(row["ci_half_width"])
        if metric in ("ber", "ser") and int(row["trials"]) != LINKSIM_TRIALS:
            problems.append(f"{key}: {row['trials']} trials")
        if user == "1" and metric.startswith("pep_"):
            a, b = metric[len("pep_"):].split("to")
            target, width = exact[f"{_snr(snr)},{a},{b}"], half
        else:
            target = float(ref[key]["value"])
            width = math.hypot(half, float(ref[key]["ci_half_width"]))
        gap = abs(value - target) / width if width > 0 else math.inf
        if user == "1" and metric.startswith("pep_"):
            user1_gap = max(user1_gap, gap)
        else:
            other_gap = max(other_gap, gap)
        if not gap <= HALF_WIDTHS:
            problems.append(f"{key}: {value:.6g} vs {target:.6g} is "
                            f"{gap:.2f} half-widths away")
    return problems, {"user1_max_gap_hw": user1_gap,
                      "others_max_gap_hw": other_gap}


def check_power_sweep(out: Path):
    """fig4: feasibility window near the reference, feasible minimizer."""
    summary = {r["record"]: r for r in _rows(out / "fig4_summary.csv")}
    sweep = _rows(out / "fig4_sweep.csv")
    problems = []
    if not {"minimizer", "window_low", "window_high"} <= summary.keys():
        return [f"summary records {sorted(summary)}"], {}
    low = float(summary["window_low"]["alpha_1"])
    high = float(summary["window_high"]["alpha_1"])
    for name, got, want in (("low", low, WINDOW[0]), ("high", high, WINDOW[1])):
        if not abs(got - want) <= WINDOW_TOL:
            problems.append(f"window {name} edge {got} is not within "
                            f"{WINDOW_TOL} of {want}")
    best = summary["minimizer"]
    point = [r for r in sweep if r["alpha_1"] == best["alpha_1"]
             and r["alpha_2"] == best["alpha_2"]]
    if len(point) != 1:
        problems.append(f"minimizer alpha_1={best['alpha_1']} is not one grid point")
    elif point[0]["feasible"] != "1" or point[0]["psi"] != best["psi"]:
        problems.append(f"minimizer alpha_1={best['alpha_1']} is not a feasible "
                        "point with the reported objective")
    feasible = [float(r["alpha_1"]) for r in sweep if r["feasible"] == "1"]
    if not feasible or (min(feasible), max(feasible)) != (low, high):
        problems.append("window edges are not the extremes of the feasible sweep")
    return problems, {"window_low": low, "window_high": high}
