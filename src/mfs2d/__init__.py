"""Method-of-fundamental-solutions solvers for the 2D Laplace Dirichlet problem.

Three interchangeable backends (direct kernel basis, QR-rescaled
trigonometric basis, SVD/Arnoldi well-conditioned basis) plus the geometry
catalog, expansion machinery, and a benchmark harness with a CLI.
"""

from .arnoldi import ArnoldiFactor, arnoldi_vandermonde, coupling_matrix, evaluate_basis
from .bench import (
    CSV_HEADER,
    ExperimentConfig,
    GrowthFit,
    SweepRow,
    SweepTable,
    emit_basis_samples,
    fit_growth_rate,
    parse_config,
    read_table,
    run_single,
    run_sweep,
    table_to_csv,
    write_table,
)
from .errors import (
    ConfigError,
    ConstraintViolationError,
    CurveParameterError,
    DegenerateCurveError,
    DegenerateNodesError,
    DegenerateSystemError,
    InsufficientDataError,
    NumericalError,
    RankDeficiencyError,
    SingularityError,
    SizeLimitError,
)
from .expansion import (
    MACHINE_EPS,
    ExpansionSetup,
    expansion_degree,
    expansion_matrix,
    fundamental_solution,
    hurwitz_lerch_phi1,
    log_kernel,
    real_monomials,
    setup_expansion,
    truncation_order,
)
from .geometry import (
    BoundaryCurve,
    PointSet,
    check_source_constraint,
    curve_names,
    make_curve,
    max_boundary_radius,
    outward_normal,
    sample_collocation,
    sample_sources,
)
from .linalg import cond2, lstsq, svd_thin
from .solvers import (
    BoundaryData,
    QrBasis,
    SolveRecord,
    SvdBasis,
    assemble_direct,
    assemble_qr_system,
    assemble_svd_system,
    boundary_error,
    build_qr_basis,
    build_svd_basis,
    evaluate_solution,
    make_boundary_data,
    solve_direct,
    solve_qr,
    solve_svd,
)

__version__ = "0.1.0"
