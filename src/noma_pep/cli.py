"""Command-line front end: curve generation, simulation, optimization.

Subcommands
    pep        analytic pairwise error probability curves
    simulate   Monte Carlo counters as CSV
    diversity  effective diversity tables from analytic curves
    bound      high-SNR bound values (re-derived and verbatim forms)
    optimize   constrained power-allocation grid search
    fig2       canned 3-user analytic-vs-simulated PEP recipe
    fig3       canned 3-user diversity recipe
    fig4       canned 2-user power sweep recipe

Every run writes CSV files plus a manifest.json recording the command
line, the resolved configuration, the seed, the output list and the
environment (the python and numpy versions and the SIMD features numpy
enabled; no run imports scipy),
which is enough to reproduce the CSV bodies byte-identically.  A
resolved list of 100 or more entries is recorded as its length and the
sha256 of its JSON form.  A run whose SIC mode is not weighted simulates
nothing, so its manifest leaves the simulation settings out (seed null).

Conventions: snr_db means 10*log10(P / sigma_n^2); the default channel
has sigma_h_sq = 0.5 so that E[|h|^2] = 1 and the average SNR equals
P / sigma_n^2.  The fig4 recipe pins sigma_h_sq = 1.0, which reproduces
the reference two-user feasibility window at 30 dB.

Settings: SUBCOMMANDS declares the settings each subcommand reads, with
their defaults; the parser, the config-file check and the manifest's
config are built from it.  Precedence is flag (--grid-step) > config key
(grid_step = 0.01) > default, and a flag or key the subcommand does not
read is a configuration error.  Flags are spelled out in full: the
parsers reject abbreviations, so a saved command line keeps its meaning
when a later flag shares its prefix.  Every subcommand takes --config,
--out and --workers (which only a simulation uses).

Exit codes: 0 success, 2 configuration error (including non-finite
flag values, unknown config keys, SNR ranges that are empty or too long
to allocate, --workers below 1, --prior-deltas outside pattern mode,
more than 16 simulated users, a grid step that leaves the users no
strictly descending allocation, and fewer weight-estimation trials than
system.MIN_WEIGHT_TRIALS, which a run that builds weight tables checks
before it simulates), 3 numerical failure, 4 infeasible optimization.
The --out directory is made when the first CSV is written, so a run that
exits 2 or 3 before that creates none.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotic import chernoff_average, effective_diversity, pep_upper_bound
from .channel import ChannelModel
from .constellation import qpsk_constellation
from .montecarlo import (
    empirical_pep,
    sic_patterns,
    sic_weight_tables,
    simulate,
    stats_rows,
)
from .optimize import OptimizationProblem, pep_table, residual_tables, solve
from .pep import EnumerationCapError, NumericalError, pair_classes
# unused here, but the benchmark tracer wraps and restores cli.average_pep
from .pep import average_pep  # noqa: F401
from .system import SystemConfig, _require_weight_trials, linear_snr

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INFEASIBLE = 4

FIG2_ALPHA = (0.7, 0.2, 0.1)
FIG2_SNR_GRID = tuple(float(s) for s in range(0, 45, 5))
DESIGNATED_PAIR = (0, 1)  # adjacent Gray pair used for per-user curves
LONG_LIST = 100  # resolved lists this long enter the manifest as length + sha256


def _run_environment() -> dict:
    """Interpreter and numpy versions and the SIMD features numpy enabled.

    No CLI run executes scipy code, so its version is not recorded.
    Simulated counters can depend on the SIMD path numpy dispatches: a
    fused multiply-add changes the last bit of a complex product, which
    can move a decision-metric tie.  The SIMD lists are the baseline and
    the enabled dispatch targets that numpy.show_runtime() reports.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_enabled": [
            f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]
        ],
    }


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _manifest_value(v):
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, (list, tuple)) and len(v) >= LONG_LIST:
        # loaded here, so that a run that hashes no list never maps
        # OpenSSL's libcrypto
        import hashlib
        text = json.dumps(v, default=str)
        return {"length": len(v),
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return v


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write one CSV, making its directory first if it is missing."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def parse_config_file(path: str) -> dict:
    """Flat `key = value` per line; blank lines and # comments ignored."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def parse_snr_list(text: str) -> list[float]:
    """Accept '0,5,10' or 'start:stop:step' (stop inclusive, at least one
    point), every value finite."""
    values = [float(p) for p in text.split(":" if ":" in text else ",")]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"SNR values must be finite, got {text!r}")
    if ":" not in text:
        return values
    if len(values) != 3 or not values[2] > 0:
        raise ValueError(f"bad SNR range {text!r}, expected start:stop:step")
    start, stop, step = values
    try:
        points = np.arange(start, stop + step / 2, step)
    except MemoryError:
        raise ValueError(f"SNR range {text!r} has too many points") from None
    if not points.size:
        raise ValueError(f"SNR range {text!r} has no points")
    return [float(s) for s in points]


def parse_alpha(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(","))


def parse_deltas(text: str) -> tuple[complex, ...]:
    """Comma-separated complex literals, e.g. '1.414+0j,0j', every real
    and imaginary part finite."""
    values = tuple(complex(p) for p in text.split(","))
    if not all(cmath.isfinite(v) for v in values):
        raise ValueError(f"prior deltas must be finite, got {text!r}")
    return values


def _default_alpha(num_users: int) -> tuple[float, ...]:
    if num_users == 1:
        return (1.0,)
    if num_users == 2:
        return (0.8, 0.2)
    if num_users == 3:
        return FIG2_ALPHA
    # Descending geometric weights, normalized.
    w = np.array([2.0 ** (num_users - i) for i in range(num_users)])
    return tuple(w / w.sum())


def _system(s: dict) -> SystemConfig:
    users, alpha, power = s["users"], s["alpha"], s["power"]
    if len(alpha) != users:
        raise ValueError(f"--alpha has {len(alpha)} entries for {users} users")
    return SystemConfig(
        alpha=tuple(alpha),
        P=power,
        channel=ChannelModel(sigma_h_sq=s["sigma_h_sq"]),
        # unit-energy symbols: P alone scales the transmit power
        constellation=qpsk_constellation(1.0),
    )


# ---------------------------------------------------------------- subcommands


def cmd_pep(s: dict, out: Path) -> list[str]:
    cfg = _system(s)
    snrs, sic_mode = s["snr_db"], s["sic_mode"]
    pairs = list(itertools.permutations(range(cfg.constellation.size), 2))
    stats_by_snr = [None] * len(snrs)
    if sic_mode == "weighted":
        _require_weight_trials(s["trials"])
        stats_by_snr = sic_patterns(cfg, snrs, s["trials"], s["seed"],
                                    workers=s["workers"])
    rows = []
    for snr, stats in zip(snrs, stats_by_snr):
        table = pep_table(cfg, snr, residual_tables(
            cfg, sic_mode, s["prior_deltas"], stats))
        rows += [[snr, l, tx, rx, float(table[l - 1, tx, rx]), "quadrature"]
                 for l in range(1, cfg.num_users + 1) for tx, rx in pairs]
    write_csv(out / "pep.csv",
              ["snr_db", "user", "tx", "rx", "pep", "method"], rows)
    return ["pep.csv"]


def cmd_simulate(s: dict, out: Path) -> list[str]:
    cfg = _system(s)
    bits = cfg.constellation.bits_per_symbol
    header = ["snr_db", "user", "metric", "value", "ci_half_width", "trials"]
    rows = [[r[key] for key in header]
            for stats in simulate(cfg, s["snr_db"], s["trials"], s["seed"],
                                  workers=s["workers"])
            for r in stats_rows(stats, bits)]
    write_csv(out / "simulate.csv", header, rows)
    return ["simulate.csv"]


def cmd_diversity(s: dict, out: Path, name="diversity.csv") -> list[str]:
    cfg = _system(s)
    snrs = s["snr_db"]
    # perfect SIC gives the pairs of a class equal PEPs (pep.pair_classes):
    # each class's first pair is evaluated and copied to the others
    classes = pair_classes(cfg.constellation)
    firsts = [c[0] for c in classes]
    tx, rx = np.array([pair for c in classes for pair in c]).T
    first_tx, first_rx = np.array([c[0] for c in classes for _ in c]).T
    # per user, the PEP averaged over all ordered symbol pairs
    off_diagonal = ~np.eye(cfg.constellation.size, dtype=bool)
    averaged = []
    for snr in snrs:
        table = pep_table(cfg, snr, pairs=firsts)
        table[:, tx, rx] = table[:, first_tx, first_rx]
        averaged.append(table[:, off_diagonal].mean(axis=1))
    averaged = np.array(averaged)
    rows = []
    for l in range(1, cfg.num_users + 1):
        pep = averaged[:, l - 1]
        ratio = effective_diversity(snrs, pep, "ratio_form")
        fd = effective_diversity(snrs, pep, "finite_difference")
        rows += [[snr, l, p, r, d] for snr, p, r, d in zip(snrs, pep, ratio, fd)]
    write_csv(out / name,
              ["snr_db", "user", "pep", "d_eff_ratio", "d_eff_finite_diff"],
              rows)
    return [name]


def cmd_bound(s: dict, out: Path) -> list[str]:
    cfg = _system(s)
    tx, rx = DESIGNATED_PAIR
    pts = cfg.constellation.points_array()
    delta_sq = abs(pts[tx] - pts[rx]) ** 2
    rows = []
    for snr in s["snr_db"]:
        # average instantaneous SNR E[|h|^2]/sigma_n^2 with
        # sigma_n^2 = P/10^(snr/10)
        gamma_bar = (2.0 * cfg.channel.sigma_h_sq * linear_snr(snr, cfg.P)
                     / cfg.P)
        for l in range(1, cfg.num_users + 1):
            beta = float(np.sqrt(cfg.alpha[l - 1] * cfg.P)) * delta_sq
            terms = (l, cfg.num_users, gamma_bar, beta, delta_sq)
            rows += [
                [snr, l, "rederived", pep_upper_bound(*terms)],
                [snr, l, "verbatim", pep_upper_bound(*terms, form="verbatim")],
                [snr, l, "exact_average", chernoff_average(*terms)],
            ]
    write_csv(out / "bound.csv", ["snr_db", "user", "form", "value"], rows)
    return ["bound.csv"]


def cmd_optimize(s: dict, out: Path, prefix="optimize"):
    # the search sets alpha at every grid point; this one only fixes L
    cfg = _system({**s, "alpha": _default_alpha(s["users"])})
    problem = OptimizationProblem(
        cfg=cfg,
        snr_db=s["snr_db"],
        p_th=s["pth"],
        grid_step=s["grid_step"],
        sic_mode=s["sic_mode"],
        prior_deltas=s["prior_deltas"],
        weights_trials=s["weights_trials"],
        weights_seed=s["seed"],
    )
    result = solve(problem, workers=s["workers"])
    L = cfg.num_users
    header = (
        [f"alpha_{i + 1}" for i in range(L)]
        + ["psi"]
        + [f"pep_user_{i + 1}" for i in range(L)]
        + ["feasible"]
    )
    rows = [
        list(e.alpha) + [e.psi] + list(e.pep_per_user) + [e.feasible]
        for e in result.sweep
    ]
    write_csv(out / f"{prefix}_sweep.csv", header, rows)
    summary_rows = []
    if result.infeasible:
        summary_rows.append(["infeasible", ""] + [""] * L)
    else:
        summary_rows.append(
            ["minimizer", result.best_objective] + list(result.best_alpha)
        )
        feas = result.feasible_set
        summary_rows.append(["window_low", "", feas[-1].alpha[0]] + [""] * (L - 1))
        summary_rows.append(["window_high", "", feas[0].alpha[0]] + [""] * (L - 1))
    write_csv(
        out / f"{prefix}_summary.csv",
        ["record", "psi"] + [f"alpha_{i + 1}" for i in range(L)],
        summary_rows,
    )
    files = [f"{prefix}_sweep.csv", f"{prefix}_summary.csv"]
    return files, (EXIT_INFEASIBLE if result.infeasible else EXIT_OK)


def cmd_fig2(s: dict, out: Path) -> list[str]:
    cfg = _system(s)
    snrs = s["snr_db"]
    tx, rx = DESIGNATED_PAIR
    _require_weight_trials(s["trials"])
    # the detection counters and the residual patterns of the same trials
    run = (cfg, snrs, s["trials"], s["seed"])
    per_user_rows = {l: [] for l in range(1, cfg.num_users + 1)}
    for snr, stats, patterns in zip(
            snrs, simulate(*run, workers=s["workers"]),
            sic_patterns(*run, workers=s["workers"])):
        table = pep_table(
            cfg, snr, sic_weight_tables(patterns, cfg.constellation),
            pairs=[DESIGNATED_PAIR])
        for l in range(1, cfg.num_users + 1):
            emp = empirical_pep(stats, l, tx, rx)
            per_user_rows[l].append(
                [snr, float(table[l - 1, tx, rx]), emp.pep, emp.ci_half_width,
                 emp.conditioning_trials]
            )
    files = []
    for l, rows in per_user_rows.items():
        name = f"fig2_user{l}.csv"
        write_csv(out / name, ["snr_db", "pep_analytic", "pep_simulated",
                               "ci_half_width", "trials"], rows)
        files.append(name)
    return files


# ------------------------------------------------------------------ settings


@dataclass(frozen=True)
class Setting:
    """One value a subcommand reads: flag --a-b, config-file key a_b.

    default is the value itself or a function of the settings declared
    before it; cast turns a config-file string, or a string flag, into
    the value.  argparse types the flags whose cast is int or float.
    """

    default: object
    cast: object = str
    choices: tuple | None = None
    help: str | None = None


SIC_MODES = ("perfect", "pattern", "weighted")
SIM_KEYS = ("trials", "weights_trials", "seed")  # read only by a simulation


def _base(users=3, alpha=None, sigma_h_sq=0.5) -> dict:
    """The system and the run settings, which every subcommand reads
    (optimize and fig4 drop alpha, which their search sets)."""
    return {
        "users": Setting(users, int),
        "alpha": Setting(alpha or (lambda s: _default_alpha(s["users"])),
                         parse_alpha,
                         help="comma-separated power coefficients"),
        "power": Setting(1.0, float, help="total transmit power P"),
        "sigma_h_sq": Setting(sigma_h_sq, float),
        "out": Setting(".", help="output directory"),
        "workers": Setting(1, int),
    }


def _snr_list(default) -> dict:
    return {"snr_db": Setting(default, parse_snr_list,
                              help="comma list or start:stop:step")}


def _sic(mode) -> dict:
    return {"sic_mode": Setting(mode, str, SIC_MODES),
            "prior_deltas": Setting(
                None, parse_deltas,
                help="comma-separated complex residuals for pattern mode, "
                     "e.g. '1.414+0j,0j'")}


def _sim(trials, seed) -> dict:
    return {"trials": Setting(trials, int), "seed": Setting(seed, int)}


def _optimize(sigma_h_sq) -> dict:
    settings = _base(users=2, sigma_h_sq=sigma_h_sq)
    del settings["alpha"]  # the search sets alpha at every grid point
    return {**settings,
            "snr_db": Setting(30.0, float), "pth": Setting(1e-3, float),
            "grid_step": Setting(1e-3, float), **_sic("weighted"),
            "weights_trials": Setting(1_000_000, int),
            "seed": Setting(20_000, int)}


# Subcommand -> (function, the settings it reads).  The parser, the
# config-file check and the manifest's config all come from this table;
# --config is the one flag that is not a setting.
SUBCOMMANDS = {
    "pep": (cmd_pep, {**_base(), **_snr_list((10.0,)), **_sic("perfect"),
                      **_sim(200_000, 1)}),
    "simulate": (cmd_simulate, {**_base(), **_snr_list((10.0,)),
                                **_sim(1_000_000, 1)}),
    "diversity": (cmd_diversity, {**_base(), **_snr_list(FIG2_SNR_GRID)}),
    "bound": (cmd_bound, {**_base(), **_snr_list(FIG2_SNR_GRID)}),
    "fig2": (cmd_fig2, {**_base(alpha=FIG2_ALPHA),
                        **_snr_list(FIG2_SNR_GRID), **_sim(1_000_000, 7)}),
    "fig3": (functools.partial(cmd_diversity, name="fig3_diversity.csv"),
             {**_base(alpha=FIG2_ALPHA), **_snr_list(FIG2_SNR_GRID)}),
    "optimize": (cmd_optimize, _optimize(sigma_h_sq=0.5)),
    # sigma_h_sq = 1.0 reproduces the reference feasibility window.
    "fig4": (functools.partial(cmd_optimize, prefix="fig4"),
             _optimize(sigma_h_sq=1.0)),
}


def _resolve(flags: argparse.Namespace) -> dict:
    """Every setting of the subcommand: flag if given, else config file,
    else default.  A config key the subcommand does not read is an error."""
    table = SUBCOMMANDS[flags.command][1]
    file_cfg = parse_config_file(flags.config) if flags.config else {}
    for key in file_cfg:
        if key not in table:
            raise ValueError(
                f"unknown config key {key!r} for {flags.command}")
    values = {}
    for key, setting in table.items():
        raw = getattr(flags, key)
        if raw is None:
            raw = file_cfg.get(key)
        if raw is None:
            default = setting.default
            value = default(values) if callable(default) else default
        else:
            value = setting.cast(raw) if isinstance(raw, str) else raw
        if setting.choices and value not in setting.choices:
            raise ValueError(f"{key} must be one of "
                             f"{', '.join(setting.choices)}, got {value!r}")
        values[key] = value
    if values["workers"] < 1:
        raise ValueError(
            f"--workers must be at least 1, got {values['workers']}")
    if values.get("prior_deltas") is not None \
            and values["sic_mode"] != "pattern":
        raise ValueError("--prior-deltas is read only in pattern mode, "
                         f"not with --sic-mode {values['sic_mode']}")
    return values


# -------------------------------------------------------------------- driver


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of the command line argv.  Every subcommand is
    registered, so usage, --help and an invalid choice read the same;
    only the subcommand argv names (its first argument that does not
    start with '-') gets its flags, since a run reads no other's."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = argparse.ArgumentParser(
        prog="noma-pep",
        allow_abbrev=False,
        description="Pairwise error probability analysis for downlink NOMA "
                    "with imperfect SIC",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, table) in SUBCOMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        if name != command:
            continue
        p.add_argument("--config", help="flat key = value config file")
        for key, setting in table.items():
            p.add_argument(
                "--" + key.replace("_", "-"), dest=key,
                type=setting.cast if setting.cast in (int, float) else None,
                choices=setting.choices, help=setting.help,
            )
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    flags = build_parser(argv).parse_args(argv)
    started = time.time()
    try:
        settings = _resolve(flags)
        # write_csv makes the directory, so a run that fails before its
        # first CSV leaves no empty --out directory behind; every
        # subcommand writes a CSV before it returns
        out = Path(settings["out"])
        result = SUBCOMMANDS[flags.command][0](settings, out)
    except (ValueError, EnumerationCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if isinstance(result, tuple):
        files, code = result
    else:
        files, code = result, EXIT_OK
    if settings.get("sic_mode", "weighted") != "weighted":
        settings = {k: v for k, v in settings.items() if k not in SIM_KEYS}
    # everything needed to reproduce the CSV bodies byte-exactly
    manifest = {
        "command_line": ["noma-pep"] + argv,
        "config": {k: _manifest_value(v) for k, v in sorted(settings.items())},
        "seed": settings.get("seed"),
        "tool_version": __version__,
        "outputs": files,
        "duration_seconds": round(time.time() - started, 3),
        "environment": _run_environment(),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, default=str)
    )
    if code == EXIT_INFEASIBLE:
        print("no feasible power allocation for the given threshold",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
