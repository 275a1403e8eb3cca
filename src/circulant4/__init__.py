"""Numerical geometry of 4D Riemannian manifolds with a circulant metric
(first row A, B, C, B) and a cyclic-shift affinor q with q^4 = id."""

__version__ = "0.1.0"

from .algebra import (
    CirculantCoeffs,
    apply_q,
    det_qorbit,
    inner,
    is_admissible,
    metric_det_closed,
    metric_eigenvalues,
    metric_matrix,
    qbase_polynomial,
    qbase_predicate,
)
from .curvature import (
    SectionalReport,
    christoffel,
    identity_suite,
    nabla_q_residual,
    q_invariance_residual,
    q_section_curvatures,
    riemann,
    sectional,
)
from .fields import (
    FieldFamilySpec,
    FieldJet,
    coeffs_at,
    eval_jet,
    make_custom_family,
    make_family,
    parallel_residual,
)
from .frames import (
    ClosedFormFrameReport,
    FrameResidual,
    closed_form_frame,
    spectral_frame,
    verify_frame,
)
from .pyramid import PyramidReport, pyramid_report
from .reporting import ConfigError, RunConfig, run_verify

__all__ = [
    "__version__",
    "CirculantCoeffs", "apply_q", "det_qorbit", "inner", "is_admissible",
    "metric_det_closed", "metric_eigenvalues", "metric_matrix",
    "qbase_polynomial", "qbase_predicate",
    "SectionalReport", "christoffel", "identity_suite",
    "nabla_q_residual", "q_invariance_residual", "q_section_curvatures",
    "riemann", "sectional",
    "FieldFamilySpec", "FieldJet", "coeffs_at", "eval_jet",
    "make_custom_family", "make_family", "parallel_residual",
    "ClosedFormFrameReport", "FrameResidual",
    "closed_form_frame", "spectral_frame", "verify_frame",
    "PyramidReport", "pyramid_report",
    "ConfigError", "RunConfig", "run_verify",
]
