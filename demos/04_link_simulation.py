"""Inside the Monte Carlo link simulator.

Shows the superposition/SIC chain on a single constructed sample, then
runs a seeded simulation at several SNRs to demonstrate exact
worker-count invariance and the SIC residual statistics that feed the
weighted analytic mode.
"""

import numpy as np

from noma_pep import (
    ChannelModel,
    SystemConfig,
    bit_error_rate,
    qpsk_constellation,
    sic_detect,
    sic_patterns,
    sic_weight_tables,
    simulate,
    superposed_signal,
)

QPSK = qpsk_constellation(1.0)
channel = ChannelModel(sigma_h_sq=0.5)
cfg = SystemConfig(alpha=(0.7, 0.2, 0.1), P=1.0, channel=channel,
                   constellation=QPSK)

print("One noiseless sample through the SIC chain:")
pts = QPSK.points_array()
idx = np.array([[0, 3, 1]])
s = superposed_signal(cfg, idx)[0]
h = 0.8 - 0.3j
for user in (1, 2, 3):
    det, priors = sic_detect(h * s, h, cfg, user)
    print(f"  user {user}: detected index {det} (sent {idx[0][user - 1]}), "
          f"cancelled stages {priors}")

print()
print("Worker-count invariance (same seed; the SNR points spread over "
      "the workers):")
snrs = [5.0, 15.0, 25.0]
a = simulate(cfg, snrs, 400_000, seed=5, workers=1)
b = simulate(cfg, snrs, 400_000, seed=5, workers=2)
same = all(np.array_equal(x.pairwise_counts, y.pairwise_counts)
           for x, y in zip(a, b))
print(f"  counters identical: {same}")

print()
print("Per-user BER and SIC residual statistics at 15 dB, own symbol 0:")
# the residual patterns of the trials that a counts, at 15 dB
tables = sic_weight_tables(sic_patterns(cfg, 15.0, 400_000, seed=5), QPSK)
for user in (1, 2, 3):
    ber = bit_error_rate(a[1], user)
    weights = tables[user, 0]
    clean = weights.get(tuple(0j for _ in range(user - 1)), 0.0)
    print(f"  user {user}: ber {ber:.4e}, clean-cancellation weight "
          f"{clean:.4f}, {len(weights)} residual patterns")
