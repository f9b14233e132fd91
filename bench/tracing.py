"""Spans around the public noma_pep functions a workload calls.

The benchmark traces the program from outside: `Tracer.install` replaces
each public function on the module that calls it by name (the CLI and the
optimizer import `average_pep`, `simulate` and `solve` into their own
namespace, and `average_pep` looks up `pep_quadrature` in `noma_pep.pep`),
records one span per call, and `restore` puts the originals back.  Spans
are kept in memory as (name, start, end, parent index) and written out by
the caller at the end of the run.  `layer_metrics` turns spans into the
per-layer figures of the layers the run reached.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time

# (module that holds the binding, attribute, span name)
BINDINGS = (
    ("noma_pep.cli", "main", "cli.main"),
    ("noma_pep.cli", "average_pep", "pep.average_pep"),
    ("noma_pep.cli", "simulate", "simulate"),
    ("noma_pep.cli", "solve", "optimize.solve"),
    ("noma_pep.optimize", "average_pep", "pep.average_pep"),
    ("noma_pep.optimize", "simulate", "simulate"),
    ("noma_pep.pep", "pep_quadrature", "pep.pep_quadrature"),
)

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10


def now() -> float:
    """Monotonic clock shared by every process on the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.trials = 0  # summed `trials` argument of simulate calls
        self.quadrature_keys: set = set()  # distinct pep_quadrature arguments
        self.grid_points = 0  # sweep entries returned by solve
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span in BINDINGS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            self._note(name, args, kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, now(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                self._stack.pop()
            if name == "optimize.solve":
                self.grid_points += len(result.sweep)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note(self, name, args, kwargs) -> None:
        if name == "simulate":
            self.trials += int(kwargs["trials"] if "trials" in kwargs else args[2])
        elif name == "pep.pep_quadrature":
            l, L, beta, upsilon, model = args
            self.quadrature_keys.add(
                (l, L, float(beta), float(upsilon), model.sigma_h_sq))


def tail_percentile(n: int) -> float | None:
    """Highest percentile of the ladder with at least ten samples beyond it.

    With nearest-rank percentiles, the p-th percentile of n samples is the
    ceil(p n / 100)-th smallest, so n - ceil(p n / 100) samples lie beyond.
    """
    best = None
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100.0 - 1e-9) >= TAIL_MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1]


# Unit of every figure `layer_metrics` can report.
UNITS = {
    "pep.average_pep.calls": "count", "pep.average_pep.busy_s": "s",
    "pep.average_pep.p50_ms": "ms", "pep.average_pep.tail_ms": "ms",
    "pep.average_pep.tail_pct": "percentile", "pep.hypotheses": "count",
    "pep.quadratures": "count", "pep.reuse_ratio": "ratio",
    "pep.pep_quadrature.busy_s": "s", "pep.ns_per_hypothesis": "ns",
    "pep.enumeration_self_s": "s",
    "simulate.calls": "count", "simulate.trials": "count",
    "simulate.busy_s": "s", "simulate.mtrials_per_s": "Mtrials/s",
    "simulate.p50_ms": "ms",
    "optimize.solve.busy_s": "s", "optimize.grid_points": "count",
    "optimize.s_per_point": "s", "optimize.weights_s": "s",
    "optimize.pep_s": "s", "optimize.self_s": "s",
    "cli.main.busy_s": "s", "cli.self_s": "s",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times from one traced CLI run.

    Times are in seconds unless the name says otherwise.  A layer that was
    never called reports nothing: its rates and percentiles do not exist,
    and the workload that bypasses it is not where it is measured.
    """
    spans = tracer.spans
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            child_time[parent] += end - start

    def busy(name):
        return sum(durations.get(name, ()))

    def under(child, parent_name):
        return sum(end - start for name, start, end, parent in spans
                   if name == child and parent >= 0
                   and spans[parent][0] == parent_name)

    def self_time(name):
        return sum(end - start - child_time[i]
                   for i, (n, start, end, _) in enumerate(spans) if n == name)

    out = {}
    if "cli.main" in durations:
        out.update({"cli.main.busy_s": busy("cli.main"),
                    "cli.self_s": self_time("cli.main")})
    avg = durations.get("pep.average_pep", [])
    if avg:
        tail = tail_percentile(len(avg))
        out.update({
            "pep.average_pep.calls": len(avg),
            "pep.average_pep.busy_s": busy("pep.average_pep"),
            "pep.average_pep.p50_ms": 1e3 * statistics.median(avg),
            "pep.enumeration_self_s": self_time("pep.average_pep"),
        })
        if tail is not None:
            out.update({"pep.average_pep.tail_ms": 1e3 * percentile(avg, tail),
                        "pep.average_pep.tail_pct": tail})
    quads = durations.get("pep.pep_quadrature", [])
    if quads:
        quad_s = busy("pep.pep_quadrature")
        out.update({
            "pep.hypotheses": len(quads),
            "pep.quadratures": len(tracer.quadrature_keys),
            "pep.reuse_ratio": 1.0 - len(tracer.quadrature_keys) / len(quads),
            "pep.pep_quadrature.busy_s": quad_s,
            "pep.ns_per_hypothesis": 1e9 * quad_s / len(quads),
        })
    sims = durations.get("simulate", [])
    if sims:
        out.update({
            "simulate.calls": len(sims),
            "simulate.trials": tracer.trials,
            "simulate.busy_s": busy("simulate"),
            "simulate.mtrials_per_s": tracer.trials / busy("simulate") / 1e6,
            "simulate.p50_ms": 1e3 * statistics.median(sims),
        })
    if "optimize.solve" in durations:
        solve_s = busy("optimize.solve")
        out.update({
            "optimize.solve.busy_s": solve_s,
            "optimize.grid_points": tracer.grid_points,
            "optimize.weights_s": under("simulate", "optimize.solve"),
            "optimize.pep_s": under("pep.average_pep", "optimize.solve"),
            "optimize.self_s": self_time("optimize.solve"),
        })
        if tracer.grid_points:
            out["optimize.s_per_point"] = solve_s / tracer.grid_points
    return out
