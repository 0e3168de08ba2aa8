"""Measurement-induced superradiance from higher-order intensity correlations."""

__version__ = "0.1.0"

from .core import (
    DetectorList,
    EmitterGeometry,
    StateVector,
    apply_field,
    dicke_state,
    fully_excited,
    intensity,
    two_atom_delta_state,
)
from .correlations import (
    CorrelationCurve,
    CurveSummary,
    angular_average_gm,
    dicke_intensity_closed,
    g2_two_atom_normalized,
    g_m_closed_coincident,
    g_m_exact,
    g_m_pathsum,
    scan_curve,
    summarize,
    visibility_formula,
)
from .functional import FormalPolynomial, build_functional, extract_gm
from .projection import (
    ProjectionResult,
    cascade_subtract,
    conditional_g2,
    delta_for_detector,
)
