"""Drift-implicit Euler spectral-Galerkin simulator for 1D monotone SPDEs
with multiplicative white noise, plus a Monte Carlo ergodicity harness."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .spectral import (
    eigenvalue,
    eigenvalues,
    geometric_decay_sum,
)
from .model import (
    ModelConstants,
    CoefficientModel,
    allen_cahn_model,
    paper_diffusion,
    constant_diffusion,
    heat_model,
    validate_step_constraint,
)
from .noise import NoiseStream
from .scheme import (
    SchemeParams,
    NonConvergenceError,
    SingularLinearSolveError,
    random_pde_residual,
    run_path,
)
from .ergodic import (
    FUNCTIONAL_TAGS,
    INITIAL_DATA_IDS,
    initial_datum,
    MomentSeries,
    EnsembleConfig,
    EnsembleResult,
    EnsembleError,
    run_ensemble,
    run_ensembles,
    lyapunov_rate,
    lyapunov_series,
    convolution_moment_report,
    agreement_check,
)

# Importing from a submodule also binds the submodule itself; export only the
# imported names.
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
