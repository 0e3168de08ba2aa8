"""Photon-subtraction projection and its link to Dicke-state radiation.

Detecting a photon at angle theta projects a state onto its (normalized)
image under E+(theta); the discarded squared norm is the detection weight.
Repeating the subtraction at a common angle walks the fully excited
register down the ladder of symmetric (or timed) Dicke states, and the
product of stage weights reproduces the coincident-detector correlation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    DetectorList,
    EmitterGeometry,
    StateVector,
    apply_field,
    check_order,
    dicke_state,
    fully_excited,
    intensity,
)
from .correlations import g_m_exact, interference_kernel

# Weights below this are treated as an impossible detection event.
ZERO_WEIGHT_TOL = 1e-12
# Floor on the normalization scale of rel_dev: at a 1e-9 tolerance this admits
# an absolute discrepancy of 1e-12 for near-zero values (fringe minima).
SCALE_FLOOR = 1e-3


def rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), SCALE_FLOOR)


class ImpossibleDetection(RuntimeError):
    """No photon can be detected at this angle (zero projection weight)."""


@dataclass(frozen=True)
class ProjectionResult:
    projected_state: StateVector
    weight: float


def photon_subtract(
    geometry: EmitterGeometry, theta: float, state: StateVector
) -> ProjectionResult:
    """Condition on one detection at theta: renormalized image plus its weight."""
    if not state.is_normalized():
        raise ValueError("photon_subtract requires a normalized state")
    image = apply_field(geometry, theta, state)
    weight = image.norm_sq()
    if weight <= ZERO_WEIGHT_TOL:
        raise ImpossibleDetection(
            f"detection at theta={theta} has weight {weight:.3e}"
        )
    return ProjectionResult(image.normalized(), weight)


def cascade_subtract(
    geometry: EmitterGeometry, theta1: float, count: int, state: StateVector
) -> ProjectionResult:
    """Subtract `count` photons at the same angle; weight is the product of stages."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not state.is_normalized():
        raise ValueError("cascade_subtract requires a normalized state")
    current = state
    weight = 1.0
    for _ in range(count):
        step = photon_subtract(geometry, theta1, current)
        current = step.projected_state
        weight *= step.weight
    return ProjectionResult(current, weight)


def conditional_g2(
    geometry: EmitterGeometry, theta2: float, theta1_probe: float
) -> float:
    """Two-atom conditional coincidence: intensity of the theta2-projected |e,e>."""
    if geometry.n_emitters != 2:
        raise ValueError("conditional_g2 is defined for the two-atom system")
    projected = photon_subtract(geometry, theta2, fully_excited(2)).projected_state
    return intensity(geometry, theta1_probe, projected)


def delta_for_detector(geometry: EmitterGeometry, theta2: float) -> float:
    """Relative phase that tunes the two-atom entangled state to a detector angle.

    With this delta, the intensity pattern of the entangled single-excitation
    state coincides pointwise with conditional_g2 at fixed theta2.
    """
    return geometry.phase_of(1, theta2)


@dataclass(frozen=True)
class FactorizationReport:
    """Three routes to the same coincident-detector correlation value.

    direct   -- m-fold operator correlation on the fully excited state
    cascade  -- intensity of the (m-1)-fold projected state times its weight
    dicke    -- Dicke-state intensity times the analytic weight (theta1 = 0 only)
    """

    direct: float
    cascade: float
    dicke: Optional[float]
    max_rel_deviation: float


def verify_factorization(
    geometry: EmitterGeometry, order_m: int, theta1: float, theta2: float
) -> FactorizationReport:
    """Check that conditioning factorizes the m-fold correlation."""
    n = geometry.n_emitters
    check_order(n, order_m)
    state = fully_excited(n)

    detectors = DetectorList.coincident(theta1, order_m, theta2)
    direct = g_m_exact(geometry, detectors, state)

    cas = cascade_subtract(geometry, theta1, order_m - 1, state)
    cascade = intensity(geometry, theta2, cas.projected_state) * cas.weight

    dicke: Optional[float] = None
    if abs(math.sin(theta1)) < 1e-15:
        norm = math.comb(n, order_m - 1) * math.factorial(order_m - 1) ** 2
        dicke = intensity(geometry, theta2, dicke_state(n, order_m - 1)) * norm

    candidates = [direct, cascade] + ([dicke] if dicke is not None else [])
    max_dev = max(
        rel_dev(a, b)
        for i, a in enumerate(candidates)
        for b in candidates[i + 1 :]
    )
    return FactorizationReport(
        direct=direct, cascade=cascade, dicke=dicke, max_rel_deviation=max_dev
    )


def dicke_intensity_closed(n_emitters: int, order_m: int, phase):
    """Radiated intensity of the symmetric Dicke state with m-1 emitters down, elementwise."""
    n, m = n_emitters, order_m
    check_order(n, m)
    kernel = interference_kernel(n, phase)
    if n == 1:
        return kernel  # ones
    return (n - m + 1) * (
        (n - m) / (n - 1) + (m - 1) * kernel / (n * (n - 1))
    )
