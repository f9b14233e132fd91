"""Constrained power allocation for a two-user downlink at 30 dB.

Sweeps the strong-power coefficient over the descending simplex,
evaluates the union-bound error objective and the per-user worst-pair
threshold constraint, and reports the fairness-feasible window and the
bound minimizer.  A coarse grid keeps the demo quick; drop grid_step to
1e-3 for the full-resolution sweep.
"""

from noma_pep import (
    ChannelModel,
    OptimizationProblem,
    SystemConfig,
    qpsk_constellation,
    solve,
)

QPSK = qpsk_constellation(1.0)
channel = ChannelModel(sigma_h_sq=1.0)
cfg = SystemConfig(alpha=(0.8, 0.2), P=1.0, channel=channel,
                   constellation=QPSK)

problem = OptimizationProblem(
    cfg=cfg, snr_db=30.0, p_th=1e-3, grid_step=0.01,
    sic_mode="weighted", weights_trials=200_000, weights_seed=40_000,
)
result = solve(problem)

print("alpha_1  psi         pep_user_1  pep_user_2  feasible")
for e in sorted(result.sweep, key=lambda e: e.alpha[0]):
    print(f"{e.alpha[0]:.2f}     {e.psi:.3e}  {e.pep_per_user[0]:.3e}"
          f"  {e.pep_per_user[1]:.3e}  {'yes' if e.feasible else 'no'}")

feasible = sorted(e.alpha[0] for e in result.feasible_set)
print()
if result.infeasible:
    print("no feasible allocation at this threshold")
else:
    print(f"feasible window: alpha_1 in [{feasible[0]:.2f}, {feasible[-1]:.2f}]")
    print(f"union-bound minimizer: alpha = {result.best_alpha}, "
          f"objective {result.best_objective:.3e}")
