"""Compute the stored references the benchmark's output checks compare with.

    python3 bench/make_reference.py            # from the repository root

Writes bench/reference/exact_pep.json: exact unconditional PEPs for the
`analytic_L6` recipe (per user and SNR, averaged over all ordered QPSK
pairs and interferer tuples, perfect SIC) and the exact per-pair PEP of
user 1 in the 3-user `linksim_L3` system (user 1 runs no SIC, so its PEP is
exact at any SIC quality).  These are computed with mpmath, independently
of noma_pep.pep: the ordered-Rayleigh integral

    int_0^inf f_(l:L)(w) Q(r w) dw,  r = beta / upsilon,

has the exact binomial expansion

    L!/((l-1)!(L-l)!) sum_j C(l-1,j) (-1)^j / (2 c_j)
        * (1 - r sqrt(s) / sqrt(r^2 s + c_j)),  c_j = L-l+j+1,

whose alternating sum is evaluated at 60 digits, so cancellation cannot
reach the 30 digits kept.  A sample of cases is cross-checked against
mpmath.quad of the literal integral at 30 digits.

    python3 bench/make_reference.py --snapshot-linksim

instead stores the `linksim_L3` recipe's output of the code checked out
now, at seed checks.LINKSIM_SEED, as checks.LINKSIM_SEED_CSV; the check
compares users 2 and 3 with it within Monte Carlo half-widths.  The stored
file is the seed commit's output, so the plain run leaves it alone.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from collections import Counter
from itertools import product
from pathlib import Path

import mpmath as mp

import checks

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = checks.REFERENCE_DIR
EXACT_PEP_FILE = REFERENCE_DIR / "exact_pep.json"

# Gray QPSK in index order, unit average power: points are (u + jv)/sqrt(2).
QPSK_UV = ((1, 1), (-1, 1), (-1, -1), (1, -1))
SIGMA_H_SQ = mp.mpf("0.5")

ANALYTIC_USERS = 6
ANALYTIC_SNRS = tuple(range(0, 45, 5))
LINKSIM_ALPHA = ("0.7", "0.2", "0.1")
LINKSIM_SNRS = (0, 10, 20, 30, 40)

mp.mp.dps = 60


def geometric_alpha(L: int) -> list:
    w = [mp.mpf(2) ** (L - i) for i in range(L)]
    total = sum(w)
    return [x / total for x in w]


def exact_pep(l: int, L: int, r, s=SIGMA_H_SQ):
    """Closed form of int f_(l:L)(w) Q(r w) dw for Rayleigh parameter s."""
    coef = mp.factorial(L) / (mp.factorial(l - 1) * mp.factorial(L - l))
    total = mp.mpf(0)
    for j in range(l):
        c = L - l + j + 1
        total += (mp.binomial(l - 1, j) * (-1) ** j / (2 * c)
                  * (1 - r * mp.sqrt(s) / mp.sqrt(r * r * s + c)))
    return coef * total


def quad_pep(l: int, L: int, r, s=SIGMA_H_SQ):
    """The same integral by mpmath.quad on the ordered-magnitude density."""
    coef = mp.factorial(L) / (mp.factorial(l - 1) * mp.factorial(L - l))

    def integrand(w):
        cdf = 1 - mp.exp(-w * w / (2 * s))
        pdf = (w / s) * mp.exp(-w * w / (2 * s))
        return coef * pdf * cdf ** (l - 1) * (1 - cdf) ** (L - l) \
            * mp.erfc(r * w / mp.sqrt(2)) / 2

    knots = [0, 1 / abs(r), 6 / abs(r), mp.sqrt(s), 4 * mp.sqrt(s), mp.inf] \
        if r != 0 else [0, mp.sqrt(s), mp.inf]
    return mp.quad(integrand, sorted(set(knots)))


class PairAverager:
    """Exact PEP of user l for one ordered symbol pair, averaged uniformly
    over the weaker users' symbols, with perfect SIC."""

    def __init__(self, alpha, snr_db):
        self.alpha = alpha
        self.L = len(alpha)
        self.noise = mp.mpf(10) ** (-mp.mpf(snr_db) / 10)  # P = 1
        self.cache = {}

    def __call__(self, l: int, tx: int, rx: int):
        du = QPSK_UV[tx][0] - QPSK_UV[rx][0]
        dv = QPSK_UV[tx][1] - QPSK_UV[rx][1]
        d2 = du * du + dv * dv
        # Re{d conj(x)} = (du u + dv v) / 2 for unit-power QPSK.
        keys = Counter(
            tuple(du * QPSK_UV[i][0] + dv * QPSK_UV[i][1] for i in combo)
            for combo in product(range(4), repeat=self.L - l)
        )
        ups = mp.sqrt(2 * self.noise * d2 / 2)
        acc = mp.mpf(0)
        for key, count in keys.items():
            beta = (mp.sqrt(self.alpha[l - 1]) * d2 / 2
                    + sum(mp.sqrt(self.alpha[l + n]) * k
                          for n, k in enumerate(key)))
            ck = (l, d2, beta)
            if ck not in self.cache:
                self.cache[ck] = exact_pep(l, self.L, beta / ups)
            acc += count * self.cache[ck]
        return acc / 4 ** (self.L - l)


def analytic_reference():
    alpha = geometric_alpha(ANALYTIC_USERS)
    pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
    out = {}
    for snr in ANALYTIC_SNRS:
        avg = PairAverager(alpha, snr)
        for l in range(1, ANALYTIC_USERS + 1):
            value = sum(avg(l, a, b) for a, b in pairs) / len(pairs)
            out[f"{snr},{l}"] = mp.nstr(value, 30)
    return out


def linksim_user1_reference():
    alpha = [mp.mpf(a) for a in LINKSIM_ALPHA]
    out = {}
    for snr in LINKSIM_SNRS:
        avg = PairAverager(alpha, snr)
        for a in range(4):
            for b in range(4):
                if a != b:
                    out[f"{snr},{a},{b}"] = mp.nstr(avg(1, a, b), 30)
    return out


def cross_check(samples: int = 40, seed: int = 0) -> float:
    """Largest relative gap between closed form and quadrature."""
    rng = random.Random(seed)
    worst = mp.mpf(0)
    with mp.workdps(30):
        for _ in range(samples):
            L = rng.randint(1, 6)
            l = rng.randint(1, L)
            r = mp.mpf(rng.choice([-1, 1])) * mp.mpf(10) ** rng.uniform(-1, 2.5)
            with mp.workdps(60):
                ref = exact_pep(l, L, r)
            got = quad_pep(l, L, r)
            worst = max(worst, abs(got - ref) / ref)
    return float(worst)


def snapshot_linksim() -> int:
    """Store the linksim_L3 recipe's output at checks.LINKSIM_SEED."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from noma_pep.cli import main as cli_main
    from run import WORKLOADS

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        code = cli_main(WORKLOADS["linksim_L3"].argv(checks.LINKSIM_SEED)
                        + ["--out", tmp])
        if code != 0:
            return code
        checks.LINKSIM_SEED_CSV.write_text(
            (Path(tmp) / "simulate.csv").read_text())
    print(f"wrote {checks.LINKSIM_SEED_CSV.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshot-linksim", action="store_true",
                        help="only store the linksim_L3 output of the code "
                             "checked out now as its reference")
    args = parser.parse_args(argv)
    if args.snapshot_linksim:
        return snapshot_linksim()
    REFERENCE_DIR.mkdir(exist_ok=True)
    gap = cross_check()
    if gap > 1e-20:
        print(f"closed form and quadrature disagree: {gap:.3e}", file=sys.stderr)
        return 1
    data = {
        "about": "exact unconditional PEPs, 30 significant digits; "
                 "see bench/make_reference.py",
        "closed_form_vs_quad_max_rel_gap": gap,
        "analytic_L6": {"sigma_h_sq": 0.5, "alpha": "geometric",
                        "pep_by_snr_user": analytic_reference()},
        "linksim_L3_user1": {"sigma_h_sq": 0.5, "alpha": list(LINKSIM_ALPHA),
                             "pep_by_snr_tx_rx": linksim_user1_reference()},
    }
    EXACT_PEP_FILE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {EXACT_PEP_FILE.name} (quad cross-check gap {gap:.2e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
