"""Analytic pairwise error probability curves for a 3-user downlink.

Walks the main analytic chain: conditional error factors, the PEP
kernel's average over the ordered channel, and hypothesis averaging
over interferer symbols, then prints per-user curves next to a live
Monte Carlo run with imperfect SIC.
"""

import math

from noma_pep import (
    ChannelModel,
    SystemConfig,
    empirical_pep,
    pep_quadrature,
    pep_table,
    pep_user1_closed,
    qpsk_constellation,
    residual_tables,
    simulate,
)

ALPHA = (0.7, 0.2, 0.1)
QPSK = qpsk_constellation(1.0)
TX, RX = 0, 1  # adjacent Gray pair

channel = ChannelModel(sigma_h_sq=0.5)
cfg = SystemConfig(alpha=ALPHA, P=1.0, channel=channel, constellation=QPSK)

print("Closed form sanity check (single weakest user):")
beta = math.sqrt(ALPHA[0]) * 2.0
ups = math.sqrt(2 * 1e-2) * math.sqrt(2.0)  # noise variance 1e-2
quadrature = pep_quadrature(1, 3, beta, ups, channel)
closed = pep_user1_closed(beta, ups, math.sqrt(2 * 0.5 / 3))
print(f"  quadrature {quadrature:.6e}  closed form {closed:.6e}")
print()

print("Per-user PEP, weighted SIC-residual mode vs simulation")
print("snr_db  user  analytic      simulated     ci")
snrs = [10.0, 20.0, 30.0]
# with the same trials and seed, residual_tables and simulate draw the
# same trials: the weights and the counters come from one run
tables = residual_tables(cfg, snrs, "weighted", trials=1_000_000, seed=11)
for snr, residuals, stats in zip(snrs, tables,
                                 simulate(cfg, snrs, 1_000_000, 11)):
    table = pep_table(cfg, snr, residuals)
    for user in (1, 2, 3):
        analytic = table[user - 1, TX, RX]
        est = empirical_pep(stats, user, TX, RX)
        print(f"{snr:6.0f}  {user:4d}  {analytic:.6e}  {est.pep:.6e}"
              f"  +/-{est.ci_half_width:.1e}")
