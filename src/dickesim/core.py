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
import numbers
from dataclasses import dataclass

import numpy as np

# 2**20 amplitudes is the largest dense register the engine accepts.
MAX_EXACT_EMITTERS = 20
NORM_TOL = 1e-12


def _check_count(name: str, value) -> None:
    # A float such as 2.0 is refused; np.int64 is an Integral and accepted.
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    # np.float32 is a Real, and read as a Python float; an array is refused.
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_order(n_emitters: int, order_m: int) -> None:
    """Reject a count that is not an integer, or a correlation order outside 1..N."""
    _check_count("emitter count", n_emitters)
    _check_count("order", order_m)
    if not 1 <= order_m <= n_emitters:
        raise ValueError(f"order must lie in 1..{n_emitters}, got {order_m}")


def check_finite_angles(angles: np.ndarray) -> None:
    """Reject an array of detector angles with a NaN or an infinity, naming only those.

    Callers check before np.sin, which warns on inf.
    """
    if not np.isfinite(angles).all():
        bad = np.unique(angles[~np.isfinite(angles)])
        raise ValueError(f"detector angles must be finite, got {bad.tolist()}")


def _dense_dim(n_emitters: int) -> int:
    # Checked before anything of size 2**N is allocated.
    _check_count("emitter count", n_emitters)
    if not 1 <= n_emitters <= MAX_EXACT_EMITTERS:
        raise ValueError(
            f"exact engine handles 1..{MAX_EXACT_EMITTERS} emitters, got {n_emitters}"
        )
    return 1 << n_emitters


@dataclass(frozen=True)
class EmitterGeometry:
    """Linear chain of emitters with dimensionless spacing kd = (2*pi/lambda)*d."""

    n_emitters: int
    kd: float

    def __post_init__(self):
        _check_count("emitter count", self.n_emitters)
        if self.n_emitters < 1:
            raise ValueError(f"need at least one emitter, got {self.n_emitters}")
        object.__setattr__(self, "kd", _real("kd", self.kd))
        if not (self.kd > 0 and math.isfinite(self.kd)):
            raise ValueError(f"kd must be positive and finite, got {self.kd}")
        # No route forms a phase beyond N * 2kd: emitter phases are at most N * kd,
        # and the detector phase x is at most 2kd.
        if not math.isfinite(2 * self.n_emitters * self.kd):
            raise ValueError(
                f"kd = {self.kd:g} is too large for N = {self.n_emitters} emitters: "
                "the phase 2 * N * kd overflows a float"
            )

    def phase_of(self, emitter: int, theta: float) -> float:
        """Optical phase picked up by a photon from emitter l toward angle theta."""
        if not 1 <= emitter <= self.n_emitters:
            raise ValueError(
                f"emitter index {emitter} outside 1..{self.n_emitters}"
            )
        if not math.isfinite(theta):
            raise ValueError(f"detector angle must be finite, got {theta}")
        return emitter * self.kd * math.sin(theta)


@dataclass(frozen=True)
class DetectorList:
    """Ordered detector angles (radians), from any iterable.  Order never affects a G-value."""

    angles: tuple[float, ...]

    def __post_init__(self):
        angles = tuple(_real("detector angle", a) for a in self.angles)
        if not angles:
            raise ValueError("need at least one detector")
        if not all(map(math.isfinite, angles)):
            raise ValueError(f"detector angles must be finite, got {angles}")
        object.__setattr__(self, "angles", angles)

    @classmethod
    def coincident(cls, theta1: float, order_m: int, theta2: float) -> "DetectorList":
        """(m-1) detectors stacked at theta1 plus one scanning detector at theta2."""
        _check_count("order", order_m)
        if order_m < 1:
            raise ValueError(f"order must be >= 1, got {order_m}")
        return cls((theta1,) * (order_m - 1) + (theta2,))

    def __iter__(self):
        return iter(self.angles)


@dataclass(frozen=True)
class StateVector:
    """Dense amplitude vector over the 2**N product basis (immutable)."""

    amplitudes: np.ndarray
    n_emitters: int

    def __post_init__(self):
        dim = _dense_dim(self.n_emitters)
        amps = self.amplitudes
        # Keep an owned, read-only complex128 array (as apply_field makes);
        # copy anything a caller could still write through.
        owned = type(amps) is np.ndarray and amps.flags.owndata and not amps.flags.writeable
        if not (owned and amps.dtype == np.complex128):
            amps = np.array(amps, dtype=np.complex128, copy=True)
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
    _check_count("ground count", n_ground)
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


def apply_field(geometry: EmitterGeometry, theta: float, state: StateVector) -> StateVector:
    """Image of the state under E+(theta); unnormalized, possibly zero.

    The squared norm of the result is the first-order correlation of the
    input state at theta.
    """
    n = state.n_emitters
    if geometry.n_emitters != n:
        raise ValueError("geometry and state disagree on emitter count")
    # Only occupied basis states contribute: after k detections of the fully
    # excited state that is C(N, k) of the 2**N amplitudes.
    occupied = np.flatnonzero(state.amplitudes != 0)
    present = state.amplitudes[occupied]
    out = np.zeros(1 << n, dtype=np.complex128)
    for l in range(1, n + 1):
        bit = 1 << (l - 1)
        hit = (occupied & bit) != 0
        # Lower emitter l where it is excited.  For a fixed l the targets
        # occupied ^ bit are distinct, so += adds each term once, and every
        # output amplitude sums its terms in ascending l.  `lowered` is named
        # so that NumPy cannot reuse it in place: that would take
        # lowered * phase, which rounds differently from phase * lowered.
        lowered = present[hit]
        phase = cmath.exp(-1j * geometry.phase_of(l, theta))
        out[occupied[hit] ^ bit] += phase * lowered
    out.flags.writeable = False
    return StateVector(out, n)


def intensity(geometry: EmitterGeometry, theta: float, state: StateVector) -> float:
    """First-order correlation G1(theta) of a normalized state."""
    if not state.is_normalized():
        raise ValueError("intensity requires a normalized state")
    return apply_field(geometry, theta, state).norm_sq()
