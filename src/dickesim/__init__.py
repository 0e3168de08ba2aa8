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
    timed_dicke_state,
    two_atom_delta_state,
)
from .correlations import (
    CorrelationCurve,
    CurveSummary,
    angular_average_gm,
    g2_two_atom_normalized,
    g_m_closed_coincident,
    g_m_exact,
    g_m_pathsum,
    peak_width_estimate,
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
    dicke_intensity_closed,
    photon_subtract,
)
