"""Photon-subtraction projection and its link to Dicke-state radiation.

Detecting a photon at angle theta projects a state onto its (normalized)
image under E+(theta); the discarded squared norm is the detection weight.
``cascade_subtract`` repeats that step at a common angle, walking the fully
excited register down the ladder of symmetric (or timed) Dicke states: one
detection leaves the timed Dicke state, and the product of stage weights
reproduces the coincident-detector correlation.
The "conditioning factorization" suite in ``verify`` checks that it does;
``correlations`` holds the closed form of that radiation beside G(m)'s.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    EmitterGeometry,
    StateVector,
    _check_count,
    apply_field,
    fully_excited,
    intensity,
)

# Weights below this are treated as an impossible detection event.
ZERO_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ProjectionResult:
    projected_state: StateVector
    weight: float


def cascade_subtract(
    geometry: EmitterGeometry, theta1: float, count: int, state: StateVector
) -> ProjectionResult:
    """Subtract `count` photons at the same angle; weight is the product of stages."""
    _check_count("count", count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    # Checked before the loop as well as in it: with count 0 no field is applied.
    geometry.phase_of(1, theta1)
    if not state.is_normalized():
        raise ValueError("cascade_subtract requires a normalized state")
    current = state
    weight = 1.0
    for _ in range(count):
        image = apply_field(geometry, theta1, current)
        step = image.norm_sq()
        if step <= ZERO_WEIGHT_TOL:
            raise ValueError(f"detection at theta={theta1} has weight {step:.3e}")
        current = image.normalized()
        weight *= step
    return ProjectionResult(current, weight)


def conditional_g2(
    geometry: EmitterGeometry, theta2: float, theta1_probe: float
) -> float:
    """Two-atom conditional coincidence: intensity of the theta2-projected |e,e>."""
    if geometry.n_emitters != 2:
        raise ValueError("conditional_g2 is defined for the two-atom system")
    projected = cascade_subtract(geometry, theta2, 1, fully_excited(2)).projected_state
    return intensity(geometry, theta1_probe, projected)


def delta_for_detector(geometry: EmitterGeometry, theta2: float) -> float:
    """Relative phase that tunes the two-atom entangled state to a detector angle.

    With this delta, the intensity pattern of the entangled single-excitation
    state coincides pointwise with conditional_g2 at fixed theta2.
    """
    return geometry.phase_of(1, theta2)
