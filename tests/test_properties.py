"""Property-based invariants across the computation routes."""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from dickesim import (
    DetectorList,
    EmitterGeometry,
    StateVector,
    apply_field,
    dicke_state,
    fully_excited,
    g_m_closed_coincident,
    g_m_exact,
    g_m_pathsum,
    intensity,
    scan_curve,
    two_atom_delta_state,
)
from dickesim.verify import REL_TOL, rel_dev

angles = st.floats(
    min_value=-math.pi / 2, max_value=math.pi / 2, allow_nan=False, allow_infinity=False
)
phases = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
kds = st.floats(min_value=0.1, max_value=12.0, allow_nan=False)
# Real or imaginary parts of amplitudes.
signed_zeros = st.sampled_from([0.0, -0.0])
parts = st.one_of(signed_zeros, st.floats(-1.0, 1.0))
nonzero_parts = st.floats(-1.0, 1.0).filter(bool)


@st.composite
def mixed_states(draw):
    """A state on N <= 6 emitters: fully dense, sparse with signed zeros, or zero."""
    n = draw(st.integers(1, 6))
    real, imag = {
        "dense": (nonzero_parts, parts),
        "sparse": (parts, parts),
        "zero": (signed_zeros, signed_zeros),
    }[draw(st.sampled_from(["dense", "sparse", "zero"]))]
    dim = 1 << n
    amps = draw(st.lists(st.builds(complex, real, imag), min_size=dim, max_size=dim))
    return StateVector(np.array(amps, dtype=complex), n)


def field_matrix(geometry, theta):
    """Sum over l of exp(-i phi_l) sigma_l, with sigma_l lowering bit (l-1)."""
    n = geometry.n_emitters
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |1> (excited) -> |0>
    total = np.zeros((1 << n, 1 << n), dtype=complex)
    for l in range(1, n + 1):
        # np.kron puts its first factor on the most significant bit: emitter N.
        sigma = np.kron(np.kron(np.eye(1 << (n - l)), lower), np.eye(1 << (l - 1)))
        total += np.exp(-1j * geometry.phase_of(l, theta)) * sigma
    return total


@given(n=st.integers(1, 8), n_ground=st.integers(0, 8))
def test_constructors_normalized(n, n_ground):
    assert fully_excited(n).is_normalized()
    assert dicke_state(n, min(n_ground, n)).is_normalized()


@given(delta=phases)
def test_delta_state_normalized(delta):
    assert two_atom_delta_state(delta).is_normalized()


@given(n=st.integers(1, 6), kd=kds, ta=angles, tb=angles)
@settings(max_examples=60)
def test_field_operators_commute(n, kd, ta, tb):
    g = EmitterGeometry(n, kd)
    state = dicke_state(n, n // 2)
    ab = apply_field(g, tb, apply_field(g, ta, state))
    ba = apply_field(g, ta, apply_field(g, tb, state))
    assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-12


@given(state=mixed_states(), kd=kds, theta=angles)
@settings(deadline=None)
def test_apply_field_is_the_explicit_field_matrix(state, kd, theta):
    g = EmitterGeometry(state.n_emitters, kd)
    image = apply_field(g, theta, state).amplitudes
    expected = field_matrix(g, theta) @ state.amplitudes
    assert np.max(np.abs(image - expected)) <= 1e-14
    if not state.amplitudes.any():
        assert not image.any()


@given(n=st.integers(1, 6), kd=kds, theta=angles, delta=phases)
def test_intensity_nonnegative(n, kd, theta, delta):
    g = EmitterGeometry(n, kd)
    assert intensity(g, theta, dicke_state(n, n // 2)) >= 0.0
    if n == 2:
        assert intensity(g, theta, two_atom_delta_state(delta)) >= 0.0


@given(
    n=st.integers(2, 6),
    m=st.integers(1, 4),
    kd=kds,
    detector_angles=st.lists(angles, min_size=4, max_size=4),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_detector_permutation_invariance(n, m, kd, detector_angles, seed):
    m = min(m, n)
    g = EmitterGeometry(n, kd)
    state = fully_excited(n)
    det = tuple(detector_angles[:m])
    base = g_m_exact(g, det, state)
    rng = np.random.default_rng(seed)
    perm = tuple(det[i] for i in rng.permutation(m))
    assert abs(base - g_m_exact(g, perm, state)) <= 1e-12 * max(1.0, base)


@given(n=st.integers(2, 6), m=st.integers(1, 6), kd=kds, t1=angles, t2=angles)
@settings(max_examples=80, deadline=None)
def test_exact_equals_pathsum(n, m, kd, t1, t2):
    m = min(m, n)
    g = EmitterGeometry(n, kd)
    det = (t1,) * (m - 1) + (t2,)
    a = g_m_exact(g, det, fully_excited(n))
    b = g_m_pathsum(g, [det])[0]
    scale = max(abs(a), abs(b))
    assert abs(a - b) <= max(1e-9 * scale, 1e-12)


@given(
    nm=st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    kd=kds,
    t1=st.one_of(st.just(0.0), angles),
    grid=st.lists(angles, min_size=1, max_size=6, unique=True),
)
@settings(max_examples=80, deadline=None)
def test_exact_scan_equals_g_m_exact_at_each_point(nm, kd, t1, grid):
    # The scan prepares its state once and reads every point from the
    # coherence matrix; g_m_exact applies all m fields at each point.
    n, m = nm
    g = EmitterGeometry(n, kd)
    grid = sorted(grid)
    values = scan_curve(g, m, t1, grid, "exact").values
    for theta2, value in zip(grid, values):
        reference = g_m_exact(g, DetectorList.coincident(t1, m, theta2), fully_excited(n))
        assert rel_dev(value, reference) <= REL_TOL, (theta2, value, reference)


@given(n=st.integers(2, 10), m=st.integers(1, 10), x=phases)
def test_closed_form_nonnegative(n, m, x):
    m = min(m, n)
    assert g_m_closed_coincident(n, m, x) >= -1e-12


@given(x=phases)
def test_two_atom_intensity_law(x):
    # scanned phase enters only through sin(theta): the closed fringe law
    kd = 2 * math.pi
    g = EmitterGeometry(2, kd)
    if abs(x) > kd:
        return
    theta = math.asin(-x / kd)
    value = intensity(g, theta, two_atom_delta_state(0.0))
    assert abs(value - (1 + math.cos(x))) < 1e-12
