"""Stable spectral discretisations on the unit disc and d-dimensional ball.

Orthonormal weighted bases with essentially skew-symmetric, rank-2
semi-separable differentiation matrices; fast coefficient analysis and
synthesis; provably stable semidiscretisations of the diffusion and linear
Schrodinger equations.
"""

from .jacobi import (
    BallspecError,
    JacobiParams,
    QuadRule,
    ParameterError,
    jacobi_eval,
    norm_h,
    orthonormal_eval,
    gauss_jacobi,
)
from .basis import (
    BasisSpec,
    BasisKind,
    InnerProductKind,
    PolarPoint,
    BallPoint,
    UsageError,
    wfunc_eval,
    ball_basis_eval,
    ex1_basis_eval,
    zernike_eval,
    inner_product,
)
from .diffmat import (
    ABCoeffs,
    DiffOpSet,
    CompoundOp,
    ab_coeffs,
    build_Dr,
    build_Dr_quad,
    build_Dtheta,
    build_diff_ops,
    asymmetry_S_ex1,
    asymmetry_beta0,
    compound_radial,
    compound_angular,
)
from .semisep import (
    SemiSep2,
    ContourSpec,
    SchurForm,
    matvec,
    to_dense,
    schur_form,
    solve_shifted,
    contour_apply,
)
from .split import SplitPair, Template, check_split, make_pos, verify_pos, raw_pair
from .expand import (
    CoeffTensor,
    ErrorReport,
    analyze,
    analyze_disc,
    analyze_ball3,
    analyze_polar_weighted,
    synthesize,
    flatten_index,
    unflatten_index,
    error_report,
    standard_grid,
)
from .pde import PdeKind, SemidiscreteOp, assemble, propagate, stability_report, abscissa_scan

__version__ = "0.1.0"
