"""Optimal information policies on planar priors via entropic power diagrams."""

from .benchmarks import (
    BenchmarkRow,
    best_lloyd_revenue,
    full_info_revenue,
    improvement_table,
    lloyd_revenue,
    no_info_revenue,
)
from .entropic import (
    EntropicConfig,
    sinkhorn_dual_solve,
    soft_partition,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateMeasureError,
    NumericFailure,
    SingularPenaltyError,
)
from .grid import DensitySpec, GridMeasure, build_grid, discretize_density
from .objective import (
    ObjectiveConfig,
    ObjectiveReport,
    hard_objective,
    soft_objective,
    value_and_grad,
)
from .optimizer import (
    OptimizerConfig,
    OptResult,
    init_sites,
    optimize,
    optimize_batch,
    prune_cells,
)
from .payoffs import (
    MarketConfig,
    PayoffModel,
    PurchaseBreakdown,
    concave_bowl,
    monopolist_payoff,
    phi_eval,
    phi_grad,
    purchase_breakdown,
    revenue,
    tri_modal,
)
from .power_diagram import (
    CellStats,
    DiagramParams,
    HardAssignment,
    hard_assign,
    hard_cell_stats,
    lloyd_solve,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRow",
    "CellStats",
    "ConfigError",
    "ConvergenceError",
    "DegenerateMeasureError",
    "DensitySpec",
    "DiagramParams",
    "EntropicConfig",
    "GridMeasure",
    "HardAssignment",
    "MarketConfig",
    "NumericFailure",
    "ObjectiveConfig",
    "ObjectiveReport",
    "OptResult",
    "OptimizerConfig",
    "PayoffModel",
    "PurchaseBreakdown",
    "SingularPenaltyError",
    "best_lloyd_revenue",
    "build_grid",
    "concave_bowl",
    "discretize_density",
    "full_info_revenue",
    "hard_assign",
    "hard_cell_stats",
    "hard_objective",
    "improvement_table",
    "init_sites",
    "lloyd_revenue",
    "lloyd_solve",
    "monopolist_payoff",
    "no_info_revenue",
    "optimize",
    "optimize_batch",
    "phi_eval",
    "phi_grad",
    "prune_cells",
    "purchase_breakdown",
    "revenue",
    "sinkhorn_dual_solve",
    "soft_objective",
    "soft_partition",
    "tri_modal",
    "value_and_grad",
]
