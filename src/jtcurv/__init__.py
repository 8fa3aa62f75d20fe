"""Exact verification of Jacobi-Tsankov curvature models and their
plane-wave realizations."""

from .linalg import BilinearForm, DegenerateFormError, SingularMatrixError
from .expr import FnExpr
from .poly import Poly
from .models import (
    CheckReport,
    CurvatureTensor,
    Model0,
    Operator,
    PROPERTY_KINDS,
    build_m14,
    check_property,
    invariant_spans,
    jacobi,
    jacobi_polarized,
    skew,
    validate_curvature_symmetries,
)
from .symmetry import (
    dilatation,
    is_symmetry,
    kernel_basis_b,
    kernel_constraint_matrix,
    kernel_element,
    random_kernel_element,
    rotation,
    swap_first_second,
    swap_first_third,
    tau,
)
from .planewave import (
    CoordTensor,
    PlaneWaveMetric,
    christoffel,
    covariant_derivative_R,
    curvature_at,
    curvature_generic,
    exp_inverse,
    geodesic,
    geodesic_fit,
    geodesic_residual,
    metric_at,
    nabla_R_component,
    nabla_R_frame,
)
from .realizations import (
    AFamily,
    Frame,
    PhiFamily,
    XiValue,
    build_M_A,
    build_M_Phi,
    normalize_basis_0,
    normalize_basis_1,
    phi_family_specialized,
    symmetric_space_check,
    symmetric_space_residuals,
    verify_0_model,
    xi_invariant,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
