"""Exact state-vector engine for N two-level emitters on a linear chain.

Basis convention: basis index b encodes the product state in which bit
(l-1) of b is 1 iff emitter l (1-based) is excited.  All amplitudes are
dense complex128 arrays of length 2**N and immutable after construction.

The far-field detection operator is dimensionless: E+(theta) lowers one
emitter with the phase factor exp(-i * l * kd * sin(theta)) attached to
emitter l.  Squared norms of operator images are therefore directly the
(dimensionless) correlation values.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# 2**20 amplitudes is the largest dense register the engine accepts.
MAX_EXACT_EMITTERS = 20
NORM_TOL = 1e-12


def check_order(n_emitters: int, order_m: int) -> None:
    """Reject a correlation order outside 1..N."""
    if not 1 <= order_m <= n_emitters:
        raise ValueError(f"order must lie in 1..{n_emitters}, got {order_m}")


def _dense_dim(n_emitters: int) -> int:
    # Checked before anything of size 2**N is allocated.
    if not 1 <= n_emitters <= MAX_EXACT_EMITTERS:
        raise ValueError(
            f"exact engine handles 1..{MAX_EXACT_EMITTERS} emitters, got {n_emitters}"
        )
    return 1 << n_emitters


def _finite_angles(values) -> tuple[float, ...]:
    angles = tuple(float(a) for a in values)
    if not angles:
        raise ValueError("need at least one detector")
    if not all(map(math.isfinite, angles)):
        raise ValueError(f"detector angles must be finite, got {angles}")
    return angles


@dataclass(frozen=True)
class EmitterGeometry:
    """Linear chain of emitters with dimensionless spacing kd = (2*pi/lambda)*d."""

    n_emitters: int
    kd: float

    def __post_init__(self):
        if self.n_emitters < 1:
            raise ValueError(f"need at least one emitter, got {self.n_emitters}")
        if not (self.kd > 0 and math.isfinite(self.kd)):
            raise ValueError(f"kd must be positive and finite, got {self.kd}")

    def phase_of(self, emitter: int, theta: float) -> float:
        """Optical phase picked up by a photon from emitter l toward angle theta."""
        if not 1 <= emitter <= self.n_emitters:
            raise ValueError(
                f"emitter index {emitter} outside 1..{self.n_emitters}"
            )
        return emitter * self.kd * math.sin(theta)


@dataclass(frozen=True)
class DetectorList:
    """Ordered detector angles (radians).  Order never affects a G-value."""

    angles: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles", _finite_angles(self.angles))

    @classmethod
    def coincident(cls, theta1: float, order_m: int, theta2: float) -> "DetectorList":
        """(m-1) detectors stacked at theta1 plus one scanning detector at theta2."""
        if order_m < 1:
            raise ValueError(f"order must be >= 1, got {order_m}")
        return cls((theta1,) * (order_m - 1) + (theta2,))

    def __len__(self) -> int:
        return len(self.angles)

    def __iter__(self):
        return iter(self.angles)


def as_angles(detectors) -> tuple[float, ...]:
    """Accept a DetectorList or any iterable of angles."""
    if isinstance(detectors, DetectorList):
        return detectors.angles
    return _finite_angles(detectors)


@dataclass(frozen=True)
class StateVector:
    """Dense amplitude vector over the 2**N product basis (immutable)."""

    amplitudes: np.ndarray
    n_emitters: int

    def __post_init__(self):
        dim = _dense_dim(self.n_emitters)
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.shape != (dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({dim},)"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def is_normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= NORM_TOL

    def normalized(self) -> "StateVector":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / math.sqrt(n2), self.n_emitters)

    def overlap(self, other: "StateVector") -> complex:
        if other.n_emitters != self.n_emitters:
            raise ValueError("overlap requires equal emitter counts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def fully_excited(n_emitters: int) -> StateVector:
    """All emitters excited: the uncorrelated starting state of every scan."""
    amps = np.zeros(_dense_dim(n_emitters), dtype=np.complex128)
    amps[-1] = 1.0
    return StateVector(amps, n_emitters)


def two_atom_delta_state(delta: float) -> StateVector:
    """(|e,g> + e^{i delta} |g,e>)/sqrt(2); delta=0 symmetric, delta=pi antisymmetric."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b01] = 1.0 / math.sqrt(2.0)          # emitter 1 excited
    amps[0b10] = cmath.exp(1j * delta) / math.sqrt(2.0)  # emitter 2 excited
    return StateVector(amps, 2)


def dicke_state(n_emitters: int, n_ground: int) -> StateVector:
    """Equal-weight superposition of all configurations with n_ground emitters down."""
    if not 0 <= n_ground <= n_emitters:
        raise ValueError(
            f"n_ground must lie in 0..{n_emitters}, got {n_ground}"
        )
    dim = _dense_dim(n_emitters)
    amps = np.zeros(dim, dtype=np.complex128)
    amps[np.bitwise_count(np.arange(dim)) == n_emitters - n_ground] = (
        1.0 / math.sqrt(math.comb(n_emitters, n_ground))
    )
    return StateVector(amps, n_emitters)


def timed_dicke_state(geometry: EmitterGeometry, theta1: float) -> StateVector:
    """Single de-excitation with detection-direction phase tags on each emitter."""
    n = geometry.n_emitters
    amps = np.zeros(_dense_dim(n), dtype=np.complex128)
    full = amps.size - 1
    for l in range(1, n + 1):
        amps[full ^ (1 << (l - 1))] = cmath.exp(-1j * geometry.phase_of(l, theta1))
    return StateVector(amps / math.sqrt(n), n)


def apply_field(geometry: EmitterGeometry, theta: float, state: StateVector) -> StateVector:
    """Image of the state under E+(theta); unnormalized, possibly zero.

    The squared norm of the result is the first-order correlation of the
    input state at theta.
    """
    n = state.n_emitters
    if geometry.n_emitters != n:
        raise ValueError("geometry and state disagree on emitter count")
    out = np.zeros(1 << n, dtype=np.complex128)
    for l in range(1, n + 1):
        # Axis 1 of these views is bit (l-1): lower emitter l where it is excited.
        src = state.amplitudes.reshape(-1, 2, 1 << (l - 1))
        dst = out.reshape(-1, 2, 1 << (l - 1))
        dst[:, 0] += cmath.exp(-1j * geometry.phase_of(l, theta)) * src[:, 1]
    return StateVector(out, n)


def intensity(geometry: EmitterGeometry, theta: float, state: StateVector) -> float:
    """First-order correlation G1(theta) of a normalized state."""
    if not state.is_normalized():
        raise ValueError("intensity requires a normalized state")
    return apply_field(geometry, theta, state).norm_sq()
