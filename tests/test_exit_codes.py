"""Property: at boundary flag values the CLI keeps its exit-code contract.

For `bound`, `diversity`, `fig2`, `fig3`, `pep` in every SIC mode,
`simulate`, and `optimize` and `fig4` in every SIC mode, flags drawn
from boundary sets make `main` return 0, 2, 3 or 4 without raising.  A
run that exits 2 or 3 leaves no --out directory behind, and one that
exits 0 or 4 writes manifest.json.  No example starts more than two
processes: --workers reaches 2 where a subcommand simulates only for
`fig2` and weighted `pep`, which draw at most 100,001 trials;
`simulate` draws at most 2,000 trials, and a weighted search at most
100,000 trials over a grid of at most two users.  The draws are a
pure function of the code (derandomized, no example database).  The
pytest settings turn every RuntimeWarning into an error, so a run that
makes numpy warn of an overflow or an invalid value fails too.
Valid `fig2` and weighted `pep` lines, drawn apart from the boundary
sets, must simulate and return 0.
"""

import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import noma_pep.cli as cli
import noma_pep.optimize as optimize
from noma_pep import pep
from noma_pep.cli import SUBCOMMANDS, main
from noma_pep.system import MIN_WEIGHT_TRIALS

NUMBERS = ["0", "-1", "nan", "inf", "-inf", "5e-324", "1e120", "1e308",
           "0.5", "1"]
FLAGS = {
    "--users": ["-1", "0", "1", "2", "3", "4"],
    "--alpha": ["", "abc", "1", "0.8,0.2", "0.7,0.2,0.1", "0.5,0.5",
                "nan,0.5", "inf,-inf", "-1,2", "5e-324,1", "1e308,0.5"],
    "--power": NUMBERS,
    "--sigma-h-sq": NUMBERS,
    "--snr-db": ["", ",", "abc", "0:40", "0:40:0", "0:40:-5", "40:0:5",
                 "0:nan:5", "-inf:0:5", "0:1e17:1", "10", "-10,0,30",
                 "0:40:10", "5e-324", "1e308", "-1e308", "1e120,1e120"],
    "--workers": ["-1", "0", "1", "2"],
    "--prior-deltas": ["", "abc", "0j", "1.414+0j,0j,0j",
                       "1.414+0j,1.414j,-1.414+0j", "nan+0j,0j,0j",
                       "infj,0j,0j", "1e308+0j,0j,0j", "5e-324+0j,0j,0j"],
}


def _drawn_flags(flags):
    """Up to three (flag, value) pairs of flags, so that most runs get past
    the first check."""
    return st.lists(
        st.sampled_from(sorted(flags)).flatmap(
            lambda flag: st.tuples(st.just(flag),
                                   st.sampled_from(flags[flag]))),
        max_size=3, unique_by=lambda pair: pair[0])


DRAWN_FLAGS = _drawn_flags(FLAGS)
# simulate reads no --prior-deltas; --trials is either invalid or small,
# and --workers never above 1, so that no example starts a process
SIMULATE_FLAGS = {
    **{flag: values for flag, values in FLAGS.items()
       if flag != "--prior-deltas"},
    "--workers": ["-1", "0", "1"],
    "--trials": ["-2000", "-1", "0", "1", "2", "1999", "2000"],
    "--seed": ["-1", "0", "1", str(2 ** 64)],
}
COMMANDS = {
    "bound": ["bound"],
    "diversity": ["diversity"],
    "pep_perfect": ["pep", "--sic-mode=perfect"],
    # a drawn --prior-deltas comes later on the line and replaces this one
    "pep_pattern": ["pep", "--sic-mode=pattern",
                    "--prior-deltas=1.414+0j,1.414j,0j"],
}


@pytest.mark.parametrize("command", COMMANDS)
@settings(derandomize=True, max_examples=100, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(flags=DRAWN_FLAGS)
# the verbatim high-SNR bound once overflowed float() here (exit 1)
@example(flags=[("--power", "1e120")])
@example(flags=[("--power", "1e308"), ("--users", "4")])
def test_boundary_flags_keep_the_exit_code_contract(command, flags):
    argv = list(COMMANDS[command])
    for flag, value in flags:
        # prior deltas are read only in pattern mode
        if flag != "--prior-deltas" or command == "pep_pattern":
            argv.append(f"{flag}={value}")  # "=" keeps "-1" a value
    _assert_contract(argv)


@settings(derandomize=True, max_examples=100, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(flags=_drawn_flags(SIMULATE_FLAGS))
@example(flags=[("--users", "4"), ("--snr-db", "0:40:10"),
                ("--trials", "2000")])
def test_simulate_flags_keep_the_exit_code_contract(flags):
    # a drawn --trials comes later on the line and replaces this one
    _assert_contract(["simulate", "--trials=2000"]
                     + [f"{flag}={value}" for flag, value in flags])


# fig3 is diversity with the fig2 allocation as its default; only the
# flags it reads are drawn
FIG3_FLAGS = {flag: values for flag, values in FLAGS.items()
              if flag[2:].replace("-", "_") in SUBCOMMANDS["fig3"][1]}


@settings(derandomize=True, max_examples=100, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(flags=_drawn_flags(FIG3_FLAGS))
@example(flags=[("--users", "4")])  # three default coefficients for four
def test_fig3_flags_keep_the_exit_code_contract(flags):
    _assert_contract(["fig3"] + [f"{flag}={value}" for flag, value in flags])


# fig2 and weighted pep estimate weight tables, so the drawn trials sit
# around the fewest that weight estimation takes; two workers start two
# processes when there are several SNR points
WEIGHTED_FLAGS = {
    **{flag: values for flag, values in FLAGS.items()
       if flag != "--prior-deltas"},
    "--trials": ["-1", "0", str(MIN_WEIGHT_TRIALS - 1),
                 str(MIN_WEIGHT_TRIALS), str(MIN_WEIGHT_TRIALS + 1)],
    "--seed": ["-1", "0", "1", str(2 ** 64)],
}
WEIGHTED = {"fig2": ["fig2"], "pep_weighted": ["pep", "--sic-mode=weighted"]}


@pytest.mark.parametrize("command", WEIGHTED)
@settings(derandomize=True, max_examples=50, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(flags=_drawn_flags(WEIGHTED_FLAGS))
@example(flags=[("--workers", "2"), ("--snr-db", "0:40:10")])
def test_weighted_flags_keep_the_exit_code_contract(command, flags):
    # a drawn --trials comes later on the line and replaces this one
    _assert_contract(WEIGHTED[command] + [f"--trials={MIN_WEIGHT_TRIALS}"]
                     + [f"{flag}={value}" for flag, value in flags])


# most drawn lines above exit 2 before they simulate; these lines are all
# valid, so each one must simulate and exit 0
@pytest.mark.parametrize("command", WEIGHTED)
@settings(derandomize=True, max_examples=20, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trials=st.sampled_from([MIN_WEIGHT_TRIALS, MIN_WEIGHT_TRIALS + 1]),
       snrs=st.lists(st.sampled_from(["0", "10", "20", "30", "40"]),
                     min_size=1, max_size=3, unique=True),
       workers=st.sampled_from([1, 2]))
def test_valid_weighted_lines_simulate_and_exit_0(command, trials, snrs,
                                                  workers):
    ran = []

    def counted(name, counter):
        def run(*args, **kwargs):
            ran.append(name)
            return counter(*args, **kwargs)
        return run

    argv = WEIGHTED[command] + [f"--trials={trials}",
                                f"--snr-db={','.join(snrs)}",
                                f"--workers={workers}"]
    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as tmp:
        for module, name in ((cli, "simulate"), (optimize, "sic_patterns")):
            patch.setattr(module, name, counted(name, getattr(module, name)))
        assert main(argv + ["--out", tmp]) == 0, argv
    assert sorted(ran) == (["sic_patterns", "simulate"] if command == "fig2"
                           else ["sic_patterns"]), argv


# a search over three or four users has 784 grid points at step 0.01,
# too slow to draw here; seventeen exceed the simulator's user limit.
# optimize reads one SNR, a float flag, so only single values are drawn
# (argparse rejects a list before main runs)
OPTIMIZE_FLAGS = {
    "--users": ["-1", "0", "1", "2", "17"],
    "--grid-step": ["0.01", "0.005", "0.003", "0.02", "0", "-0.01", "nan",
                    "inf", "1e-9"],
    "--weights-trials": ["100000", "99999", "0", "-1"],
    "--pth": ["1e-3", "0", "1", "nan"],
    "--snr-db": ["10", "30", "5e-324", "1e308", "-1e308", "1e120", "nan",
                 "inf", "-inf"],
    "--sigma-h-sq": NUMBERS,
    "--prior-deltas": FLAGS["--prior-deltas"],
}
SEARCHES = {
    f"{command}_{mode}": [command, "--grid-step=0.01",
                          "--weights-trials=100000", "--workers=1",
                          f"--sic-mode={mode}"]
    + (["--prior-deltas=1.414+0j,1.414j,0j"] if mode == "pattern" else [])
    for command in ("optimize", "fig4")
    for mode in ("perfect", "pattern", "weighted")
}


@pytest.mark.parametrize("search", SEARCHES)
@settings(derandomize=True, max_examples=40, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(flags=_drawn_flags(OPTIMIZE_FLAGS))
def test_search_flags_keep_the_exit_code_contract(search, flags):
    # a drawn flag comes later on the line and replaces the base one
    argv = list(SEARCHES[search])
    for flag, value in flags:
        if flag != "--prior-deltas" or search.endswith("pattern"):
            argv.append(f"{flag}={value}")
    _assert_contract(argv)


def _assert_contract(argv):
    """main(argv) returns 0, 2, 3 or 4, and leaves an --out directory with
    manifest.json exactly when it returns 0 or 4."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = main(argv + ["--out", str(out)])
        assert code in (0, 2, 3, 4), argv
        if code in (2, 3):
            assert not out.exists(), argv
        else:
            assert (out / "manifest.json").is_file(), argv


@pytest.mark.parametrize("argv,want", [
    (["pep", "--sigma-h-sq", "1e308"], 0),
    (["pep", "--sic-mode", "pattern", "--prior-deltas", "1e308+0j,0j,0j"], 3),
    (["pep", "--sic-mode", "pattern", "--prior-deltas", "infj,0j,0j"], 2),
], ids=["huge-sigma-h-sq", "huge-prior-delta", "infinite-prior-delta"])
def test_huge_values_exit_without_runtime_warnings(argv, want):
    # The kernel's factors overflow to inf, which gives the right 0, a
    # huge residual makes a non-finite beta that the kernel rejects
    # (exit 3), and an infinite one is a configuration error (exit 2);
    # none may make numpy warn.  The kernel's memo is cleared, so that
    # every value is computed here.
    pep._pep_kernel.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tempfile.TemporaryDirectory() as tmp:
            assert main(argv + ["--out", str(Path(tmp) / "out")]) == want
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)], argv
