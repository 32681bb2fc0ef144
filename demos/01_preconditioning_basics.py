"""Preconditioning in one sitting: convolve, predict, reconstruct.

A marginally stable linear system remembers its inputs for a very long
time, which is exactly what makes its output sequence hard to regress on.
Convolving the target with the coefficients of a monic polynomial - here
Chebyshev - evaluates that polynomial on the hidden transition matrix and
collapses the memory.  This script shows the effect end to end on one
sampled system.
"""

import numpy as np

from seqprecond import (
    chebyshev_monic,
    convolve,
    gaussian_inputs,
    reconstruct_prediction,
    sample_system,
    simulate_lds,
)

rng_seed = 7
T = 1500

# --- a system with eigenvalues hugging the unit circle -------------------
system = sample_system(
    d_h=50, d_in=1, d_out=1, tau_thresh=0.01,
    radius_lo=0.9, radius_hi=1.0, seed=rng_seed, noise_sigma=0.0,
)
traj = simulate_lds(system, gaussian_inputs(T, 1, seed=rng_seed + 1))
print(f"sampled LDS: d_h=50, spectral radius ~1, horizon T={T}")
print(f"raw target    : std {traj.outputs.std():8.3f}   "
      f"max |y_t| {np.abs(traj.outputs).max():8.3f}")

# --- convolve with monic Chebyshev coefficients of increasing degree -----
for degree in (2, 5, 10):
    c = chebyshev_monic(degree)
    z = convolve(traj.outputs, c)
    print(f"degree {degree:2d} target: std {z.std():8.3f}   "
          f"max |z_t| {np.abs(z).max():8.3f}   "
          f"(l1 of coefficients {c.l1:.3f})")

# The transformed stream is orders of magnitude smaller: the polynomial is
# tiny on the eigenvalue region, so the long memory has been cancelled.

# --- the transform is lossless: reconstruct the raw stream ---------------
c = chebyshev_monic(5)
z = convolve(traj.outputs, c)
n = c.degree
worst = 0.0
for t in range(T):
    hist = traj.outputs[max(0, t - n):t][::-1]
    if hist.shape[0] < n:
        hist = np.vstack([hist, np.zeros((n - hist.shape[0], 1))])
    back = reconstruct_prediction(z[t], hist, c)
    worst = max(worst, float(np.abs(back - traj.outputs[t]).max()))
print(f"\nround-trip reconstruction error over all {T} steps: {worst:.2e}")
