"""Preconditioning a target stream by causal convolution with monic coefficients.

The transformed target is z_t = sum_{j=0}^n c_j y_{t-j} with y_s = 0 for
s < 1.  Because c_0 = 1, a prediction of z_t converts back to a prediction
of y_t by subtracting the known lagged terms, and the conversion is exact:
the raw residual equals the preconditioned residual at every step.  The
learners apply it online, with the lagged terms as a feature block;
acceptance criterion 09 in `seqprecond.invariants` checks the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from seqprecond.dynsys import Trajectory, _as_time_major
from seqprecond.poly import CoefficientVector, as_coeff_array


def convolve(outputs, c) -> np.ndarray:
    """Causal convolution of each output channel with the coefficient vector."""
    y = _as_time_major(outputs)
    coeffs = as_coeff_array(c)
    return lfilter(coeffs, [1.0], y, axis=0)


def reconstruct_prediction(model_output, history, c) -> np.ndarray:
    """Convert a prediction of the transformed target back to the raw one.

    history holds the n most recent raw targets, newest first, zero-padded
    rows allowed; returns model_output - sum_{i=1}^n c_i history[i-1].
    """
    coeffs = as_coeff_array(c)
    out = np.asarray(model_output, dtype=float)
    n = coeffs.size - 1
    if n == 0:
        return out.copy()
    hist = np.asarray(history, dtype=float)
    if hist.ndim == 1:
        hist = hist[:, None]
    if hist.shape[0] < n:
        raise ValueError(f"history holds {hist.shape[0]} rows, need {n}")
    return out - coeffs[1:] @ hist[:n]


@dataclass(frozen=True)
class PreconditionedView:
    """A trajectory together with its convolved target stream."""

    raw: Trajectory
    coeffs: CoefficientVector
    transformed: np.ndarray

    @property
    def horizon(self) -> int:
        return self.raw.horizon


def precondition(traj: Trajectory, c: CoefficientVector) -> PreconditionedView:
    return PreconditionedView(traj, c, convolve(traj.outputs, c))
