"""Property: at boundary flag values the CLI keeps its exit-code contract.

For `bound`, `diversity`, `pep` in perfect and pattern mode, and
`simulate`, flags drawn from boundary sets make `main` return 0, 2, 3
or 4 without raising.  A run that exits 2 or 3 leaves no --out
directory behind, and one that exits 0 or 4 writes manifest.json.  No
example starts a process: only `simulate` simulates, with at most
2,000 trials and --workers at most 1.  The draws are a pure function of
the code (derandomized, no example database).  The pytest settings turn
every RuntimeWarning into an error, so a run that makes numpy warn of
an overflow or an invalid value fails too.
"""

import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from noma_pep import pep
from noma_pep.cli import main

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
    (["pep", "--sic-mode", "pattern", "--prior-deltas", "infj,0j,0j"], 3),
], ids=["huge-sigma-h-sq", "huge-prior-delta", "infinite-prior-delta"])
def test_huge_values_exit_without_runtime_warnings(argv, want):
    # The kernel's factors overflow to inf, which gives the right 0, and a
    # huge or infinite residual makes a non-finite beta that the kernel
    # rejects (exit 3); neither may make numpy warn.  The kernel's memo
    # is cleared, so that every value is computed here.
    pep._pep_kernel.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tempfile.TemporaryDirectory() as tmp:
            assert main(argv + ["--out", str(Path(tmp) / "out")]) == want
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)], argv
