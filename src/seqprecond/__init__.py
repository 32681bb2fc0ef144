"""Sequence preconditioning for online prediction of linear dynamical systems.

Convolving a prediction target with the coefficients of a well-chosen monic
polynomial (Chebyshev or Legendre, evaluated at the system's transition
matrix) collapses the long memory of a marginally stable system, so simple
online learners regress on the preconditioned sequence and reconstruct
predictions for the raw one.
"""

from seqprecond.dynsys import (
    LinearSystem,
    NonlinearSystem,
    Trajectory,
    gaussian_inputs,
    ingest_csv,
    sample_system,
    simulate_lds,
    system_from_eigenvalues,
    write_trajectory_csv,
)
from seqprecond.harness import (
    ExperimentSpec,
    GeneratorConfig,
    MetricsReport,
    run_experiment,
    sweep,
)
from seqprecond.learners import (
    RegressionLearner,
    SpectralLearner,
    oracle_weights,
)
from seqprecond.poly import (
    CoefficientVector,
    ComplexSector,
    chebyshev_monic,
    differencing,
    eval_complex,
    legendre_monic,
    sup_on_sector,
)
from seqprecond.precond import convolve, reconstruct_prediction
from seqprecond.spectral import FilterBank, build_filter_bank, build_gram

__version__ = "0.1.0"


def __getattr__(name):
    """`verify` loads `seqprecond.invariants`, which only the acceptance
    criteria need, when it is first asked for."""
    if name == "verify":
        from seqprecond.invariants import verify

        return verify
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CoefficientVector",
    "ComplexSector",
    "ExperimentSpec",
    "FilterBank",
    "GeneratorConfig",
    "LinearSystem",
    "MetricsReport",
    "NonlinearSystem",
    "RegressionLearner",
    "SpectralLearner",
    "Trajectory",
    "build_filter_bank",
    "build_gram",
    "chebyshev_monic",
    "convolve",
    "differencing",
    "eval_complex",
    "gaussian_inputs",
    "ingest_csv",
    "legendre_monic",
    "oracle_weights",
    "reconstruct_prediction",
    "run_experiment",
    "sample_system",
    "simulate_lds",
    "sup_on_sector",
    "sweep",
    "system_from_eigenvalues",
    "verify",
    "write_trajectory_csv",
    "__version__",
]
