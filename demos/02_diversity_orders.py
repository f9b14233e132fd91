"""Effective diversity of each user from its error probability curve.

The l-th weakest user rides the l-th order statistic of the channel
magnitudes, so its high-SNR error slope approaches l.  This script
builds quadrature PEP curves, estimates the slope two ways, and shows
the exponential upper bound next to the exact curve.
"""

import numpy as np

from noma_pep import (
    ChannelModel,
    SystemConfig,
    chernoff_average,
    effective_diversity,
    pep_table,
    pep_upper_bound,
    qpsk_constellation,
)

ALPHA = (0.7, 0.2, 0.1)
QPSK = qpsk_constellation(1.0)
SNRS = [20.0, 25.0, 30.0, 35.0, 40.0]

channel = ChannelModel(num_users=3, sigma_h_sq=0.5)
cfg = SystemConfig(alpha=ALPHA, P=1.0, channel=channel, constellation=QPSK)

# pair-averaged PEP, one row per SNR and one column per user
OFF_DIAGONAL = ~np.eye(QPSK.size, dtype=bool)
PEPS = np.array([pep_table(cfg, snr)[:, OFF_DIAGONAL].mean(axis=1)
                 for snr in SNRS])

print("Finite-difference and ratio-form effective diversity")
for user in (1, 2, 3):
    peps = PEPS[:, user - 1]
    fd = effective_diversity(SNRS, peps, "finite_difference")
    ratio = effective_diversity(SNRS, peps, "ratio_form")
    print(f"user {user}: pep(40dB) = {peps[-1]:.3e}")
    # the first finite difference is undefined (NaN) and not printed
    print(f"  finite difference: "
          + "  ".join(f"{s:.0f}dB:{d:.3f}" for s, d in zip(SNRS[1:], fd[1:])))
    print(f"  ratio form:        "
          + "  ".join(f"{s:.0f}dB:{d:.3f}" for s, d in zip(SNRS, ratio)))

print()
print("High-SNR bound vs exact exponential average (user 3, beta from")
print("the strongest user's own signal, adjacent pair)")
beta = float(np.sqrt(ALPHA[2])) * 2.0
dsq = 2.0
for snr in (20.0, 30.0, 40.0):
    gbar = 10 ** (snr / 10)
    print(f"  {snr:.0f} dB: double-sum bound "
          f"{pep_upper_bound(3, 3, gbar, beta, dsq):.4e}   exact average "
          f"{chernoff_average(3, 3, gbar, beta, dsq):.4e}")
