"""Online regression on one marginally stable system, with and without
preconditioning.

Same data, same projected-subgradient learner, same learning rate - the
only difference is whether the target is convolved with monic Chebyshev
coefficients first.  Watch the error trajectory in windows of 200 steps.
"""

import numpy as np

from seqprecond import (
    RegressionLearner,
    chebyshev_monic,
    gaussian_inputs,
    sample_system,
    simulate_lds,
)
from seqprecond.poly import CoefficientVector

T, W = 2000, 200
system = sample_system(
    d_h=50, d_in=1, d_out=1, tau_thresh=0.01,
    radius_lo=0.9, radius_hi=1.0, seed=42, noise_sigma=0.1,
)
traj = simulate_lds(system, gaussian_inputs(T, 1, seed=43), seed=44)

trivial = CoefficientVector(np.array([1.0]))
learners = {
    "baseline": RegressionLearner(trivial, num_taps=5, lr0=0.01),
    "chebyshev-5": RegressionLearner(chebyshev_monic(5), num_taps=5, lr0=0.01),
}

errors = {}
for name, learner in learners.items():
    preds = learner.run(traj.inputs, traj.outputs)
    errors[name] = np.abs(preds - traj.outputs).sum(axis=1)

print(f"mean absolute error per {W}-step window:\n")
print(f"{'window':>12} {'baseline':>10} {'chebyshev-5':>12}")
for start in range(0, T, W):
    row = [errors[n][start:start + W].mean() for n in learners]
    print(f"{start:>5}-{start + W:<6} {row[0]:>10.4f} {row[1]:>12.4f}")

final = {n: errors[n][-W:].mean() for n in learners}
print(f"\nfinal window: baseline {final['baseline']:.4f}, "
      f"chebyshev-5 {final['chebyshev-5']:.4f} "
      f"({final['baseline'] / final['chebyshev-5']:.1f}x better)")

# The baseline is chasing a target whose memory exceeds its tap window;
# the preconditioned learner only has to fit the residual the polynomial
# leaves behind, and converges to the observation-noise floor.
