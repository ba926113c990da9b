"""GP-corrected human-driver modeling and chance-constrained MPC for mixed platoons."""

__version__ = "0.1.0"

from .gp import (
    Dataset,
    GpModel,
    IllConditionedKernelError,
    KernelHyper,
    SparseGpModel,
    build_sparse,
    log_marginal_likelihood,
    train_exact,
)
from .hv import (
    ArxParams,
    DriverTrace,
    VelocityHistory,
    arx_step,
    build_discrepancy_dataset,
    default_disturbance,
    fit_hv_correction,
    generate_synthetic_trace,
    rmse,
)
from .dynamics import (
    GapConstraintParams,
    tightened_min_gap,
)
from .qp import QuadraticProgram, QpSolution, solve_qp
