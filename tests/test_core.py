import cmath
import math

import numpy as np
import pytest

import dickesim.core
from dickesim import (
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
from dickesim.core import as_angles, check_order

KD = 2 * math.pi


def test_phase_of_values():
    assert EmitterGeometry(2, 2 * math.pi).phase_of(1, 0.0) == 0.0
    assert EmitterGeometry(2, 2 * math.pi).phase_of(2, math.pi / 2) == pytest.approx(
        4 * math.pi, abs=1e-12
    )
    # direct evaluation: 3 * pi * sin(pi/6) = 3*pi/2
    assert EmitterGeometry(3, math.pi).phase_of(3, math.pi / 6) == pytest.approx(
        1.5 * math.pi, abs=1e-12
    )


def test_phase_of_bad_emitter():
    g = EmitterGeometry(3, 1.0)
    with pytest.raises(ValueError):
        g.phase_of(0, 0.1)
    with pytest.raises(ValueError):
        g.phase_of(4, 0.1)


def test_geometry_validation():
    with pytest.raises(ValueError):
        EmitterGeometry(0, 1.0)
    with pytest.raises(ValueError):
        EmitterGeometry(2, 0.0)
    for kd in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            EmitterGeometry(2, kd)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detector_angles_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        DetectorList((0.1, bad))
    with pytest.raises(ValueError, match="finite"):
        as_angles([bad])
    with pytest.raises(ValueError, match="finite"):
        DetectorList.coincident(bad, 3, 0.2)


def test_check_order():
    check_order(3, 1)
    check_order(3, 3)
    for m in (0, 4):
        with pytest.raises(ValueError, match="order must lie in 1..3"):
            check_order(3, m)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: fully_excited(n),
        lambda n: dicke_state(n, 1),
        lambda n: timed_dicke_state(EmitterGeometry(n, KD), 0.3),
    ],
    ids=["fully_excited", "dicke_state", "timed_dicke_state"],
)
def test_dense_cap_checked_before_allocation(build, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated a dense register beyond the cap")

    monkeypatch.setattr(dickesim.core.np, "zeros", refuse)
    with pytest.raises(ValueError, match="1..20 emitters, got 21"):
        build(21)


def test_fully_excited():
    for n in (1, 2, 3):
        st = fully_excited(n)
        assert st.is_normalized()
        nonzero = np.nonzero(st.amplitudes)[0]
        assert nonzero.tolist() == [(1 << n) - 1]
    with pytest.raises(ValueError):
        fully_excited(0)


def test_two_atom_delta_state():
    sym = two_atom_delta_state(0.0)
    assert sym.amplitudes[0b01] == pytest.approx(1 / math.sqrt(2))
    assert sym.amplitudes[0b10] == pytest.approx(1 / math.sqrt(2))
    anti = two_atom_delta_state(math.pi)
    assert anti.amplitudes[0b10] == pytest.approx(-1 / math.sqrt(2))
    quarter = two_atom_delta_state(math.pi / 2)
    assert quarter.amplitudes[0b10] == pytest.approx(1j / math.sqrt(2))
    assert quarter.is_normalized()


def test_dicke_state():
    assert np.allclose(
        dicke_state(2, 1).amplitudes, two_atom_delta_state(0.0).amplitudes
    )
    assert np.allclose(dicke_state(4, 0).amplitudes, fully_excited(4).amplitudes)
    d = dicke_state(4, 2)
    nonzero = d.amplitudes[np.abs(d.amplitudes) > 0]
    assert nonzero.size == 6  # C(4, 2)
    assert np.allclose(nonzero, 1 / math.sqrt(6))
    with pytest.raises(ValueError):
        dicke_state(3, 4)


def test_timed_dicke_state_at_zero_matches_symmetric():
    g = EmitterGeometry(5, KD)
    overlap = timed_dicke_state(g, 0.0).overlap(dicke_state(5, 1))
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_timed_dicke_state_single_atom():
    g = EmitterGeometry(1, KD)
    st = timed_dicke_state(g, 0.3)
    assert abs(abs(st.amplitudes[0]) - 1.0) < 1e-12


def test_timed_dicke_state_phases():
    g = EmitterGeometry(2, math.pi)
    st = timed_dicke_state(g, math.pi / 2)
    # emitter 1 ground -> index 0b10, phase exp(-i*pi); emitter 2 ground -> 0b01
    assert st.amplitudes[0b10] == pytest.approx(
        cmath.exp(-1j * math.pi) / math.sqrt(2), abs=1e-12
    )
    assert st.amplitudes[0b01] == pytest.approx(
        cmath.exp(-2j * math.pi) / math.sqrt(2), abs=1e-12
    )


def test_apply_field_annihilates_ground():
    g = EmitterGeometry(2, KD)
    ground = StateVector(np.array([1, 0, 0, 0], dtype=complex), 2)
    assert apply_field(g, 0.4, ground).norm_sq() == 0.0


def test_apply_field_on_two_excited():
    g = EmitterGeometry(2, KD)
    theta = 0.37
    image = apply_field(g, theta, fully_excited(2))
    assert image.amplitudes[0b10] == pytest.approx(
        cmath.exp(-1j * g.phase_of(1, theta)), abs=1e-12
    )
    assert image.amplitudes[0b01] == pytest.approx(
        cmath.exp(-1j * g.phase_of(2, theta)), abs=1e-12
    )


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_apply_field_norm_is_emitter_count(n):
    g = EmitterGeometry(n, KD)
    for theta in (0.0, 0.3, -1.1):
        assert apply_field(g, theta, fully_excited(n)).norm_sq() == pytest.approx(
            n, rel=1e-12
        )


def test_field_operators_commute():
    g = EmitterGeometry(4, KD)
    st = dicke_state(4, 1)
    ab = apply_field(g, 0.9, apply_field(g, -0.2, st))
    ba = apply_field(g, -0.2, apply_field(g, 0.9, st))
    assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-12
    # identical ordering twice is bitwise reproducible
    ab2 = apply_field(g, 0.9, apply_field(g, -0.2, st))
    assert np.array_equal(ab.amplitudes, ab2.amplitudes)


def test_intensity_two_atom_superradiant_subradiant():
    g = EmitterGeometry(2, KD)
    # theta = 0: every phase factor is 1, detection phase difference 0
    assert intensity(g, 0.0, two_atom_delta_state(0.0)) == pytest.approx(2.0, abs=1e-12)
    assert intensity(g, 0.0, two_atom_delta_state(math.pi)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_intensity_fringe_law():
    g = EmitterGeometry(2, KD)
    delta = 0.83
    st = two_atom_delta_state(delta)
    for theta in np.linspace(-1.5, 1.5, 31):
        # inter-emitter detection phase is phi(1) - phi(2) = -kd*sin(theta)
        x = -g.kd * math.sin(theta)
        assert intensity(g, float(theta), st) == pytest.approx(
            1 + math.cos(delta + x), abs=1e-12
        )


def test_intensity_fully_excited_is_n():
    for n in (2, 3, 6):
        g = EmitterGeometry(n, KD)
        assert intensity(g, 0.7, dicke_state(n, 0)) == pytest.approx(n, rel=1e-12)


def test_intensity_rejects_unnormalized():
    g = EmitterGeometry(2, KD)
    bad = StateVector(np.array([1, 1, 0, 0], dtype=complex), 2)
    with pytest.raises(ValueError):
        intensity(g, 0.0, bad)


def test_state_vector_immutable_and_validated():
    st = fully_excited(2)
    with pytest.raises(ValueError):
        StateVector(np.zeros(3, dtype=complex), 2)
    with pytest.raises((ValueError, RuntimeError)):
        st.amplitudes[0] = 1.0
