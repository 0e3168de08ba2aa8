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
    cascade_subtract,
    conditional_g2,
    delta_for_detector,
    dicke_intensity_closed,
    dicke_state,
    fully_excited,
    g_m_closed_coincident,
    g_m_exact,
    g_m_pathsum,
    intensity,
    scan_curve,
    two_atom_delta_state,
    visibility_formula,
)
from dickesim.core import check_order
from dickesim.verify import REL_TOL, rel_dev

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


def test_geometry_rejects_kd_whose_largest_phase_overflows():
    # 2 * 12 * 2e307 = 4.8e308 is beyond the largest float; 2 * 12 * 1e306 is not.
    with pytest.raises(ValueError, match=r"kd = 2e\+307 .* N = 12"):
        EmitterGeometry(12, 2e307)
    EmitterGeometry(12, 1e306)
    # N * kd = 1.2e308 fits a float, but 2 * N * kd does not.
    with pytest.raises(ValueError, match="overflows"):
        EmitterGeometry(12, 1e307)


def test_geometry_reads_a_numpy_scalar_kd_as_a_python_float():
    # Kept as given, np.float32 put the dense engine's phases in single
    # precision: g_m_exact then stood 1.3e-7 from the path sum, and the exact
    # scan 4.3e-8 from the closed form, both over REL_TOL.
    g = EmitterGeometry(6, np.float32(1.5))
    assert type(g.kd) is float and g.kd == 1.5
    assert type(g.phase_of(3, 0.3)) is float
    det = (0.3, 0.3, 1.0)
    assert rel_dev(g_m_exact(g, det, fully_excited(6)), g_m_pathsum(g, [det])[0]) <= REL_TOL
    grid = np.linspace(-math.pi / 2, math.pi / 2, 31)
    exact = scan_curve(g, 3, 0.3, grid, "exact").values
    closed = scan_curve(g, 3, 0.3, grid, "closed").values
    assert max(map(rel_dev, exact.tolist(), closed.tolist())) <= REL_TOL


@pytest.mark.parametrize("bad", ["1.5", 1.5 + 0j, np.array([1.5]), np.array(1.5), None])
def test_geometry_refuses_a_kd_that_is_not_a_real_number(bad):
    with pytest.raises(ValueError, match=r"^kd must be a real number, got "):
        EmitterGeometry(2, bad)


def test_detector_list_refuses_an_element_that_is_not_a_real_scalar():
    # g_m_exact reads one tuple; a (P, m) stack, as g_m_pathsum takes, is refused
    # by name, not by a TypeError from float().
    g = EmitterGeometry(2, KD)
    named = r"^detector angle must be a real number, got array\(\[0\.1, 0\.2\]\)$"
    with pytest.raises(ValueError, match=named):
        g_m_exact(g, np.array([[0.1, 0.2]]), fully_excited(2))
    with pytest.raises(ValueError, match=r"^detector angle must be a real number, got 0\.1j$"):
        DetectorList((0.1, 0.1j))
    assert DetectorList((np.float32(0.5), 1, np.int64(0))).angles == (0.5, 1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detector_angles_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        DetectorList((0.1, bad))
    with pytest.raises(ValueError, match="finite"):
        DetectorList([bad])
    with pytest.raises(ValueError, match="finite"):
        DetectorList.coincident(bad, 3, 0.2)
    # The dense engine refuses the angle itself, in its one angle-to-phase step.
    g = EmitterGeometry(2, KD)
    for call in (
        lambda: apply_field(g, bad, fully_excited(2)),
        lambda: intensity(g, bad, fully_excited(2)),
        lambda: cascade_subtract(g, bad, 2, fully_excited(2)),
        lambda: cascade_subtract(g, bad, 0, fully_excited(2)),
        lambda: delta_for_detector(g, bad),
        lambda: conditional_g2(g, bad, 0.1),
        lambda: conditional_g2(g, 0.1, bad),
    ):
        with pytest.raises(ValueError, match="detector angle must be finite"):
            call()


def test_check_order():
    check_order(3, 1)
    check_order(3, 3)
    for m in (0, 4):
        with pytest.raises(ValueError, match="order must lie in 1..3"):
            check_order(3, m)
    check_order(np.int64(3), np.int64(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_order(3.0, 2), "emitter count must be an integer, got 3.0"),
        (lambda: dicke_intensity_closed(4, 2.5, 0.3), "order must be an integer, got 2.5"),
        (lambda: visibility_formula(4, 2.5), "order must be an integer, got 2.5"),
        (lambda: g_m_closed_coincident(4, 2.0, 0.3), "order must be an integer, got 2.0"),
        (lambda: EmitterGeometry(4.5, 1.0), "emitter count must be an integer, got 4.5"),
        (lambda: fully_excited(2.5), "emitter count must be an integer, got 2.5"),
        (lambda: DetectorList.coincident(0.1, 2.5, 0.2), "order must be an integer, got 2.5"),
        (lambda: dicke_state(3, 1.5), "ground count must be an integer, got 1.5"),
        (lambda: cascade_subtract(EmitterGeometry(3, KD), 0.1, 1.5, fully_excited(3)),
         "count must be an integer, got 1.5"),
    ],
    ids=["check_order", "dicke_intensity_closed", "visibility_formula",
         "g_m_closed_coincident", "EmitterGeometry", "fully_excited",
         "DetectorList.coincident", "dicke_state", "cascade_subtract"],
)
def test_non_integer_counts_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "build",
    [
        lambda n: fully_excited(n),
        lambda n: dicke_state(n, 1),
    ],
    ids=["fully_excited", "dicke_state"],
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DetectorList.coincident(0.1, 0, 0.2), "order must be >= 1, got 0"),
        (lambda: StateVector(np.zeros(4), 2).normalized(), "cannot normalize the zero vector"),
        (lambda: fully_excited(2).overlap(fully_excited(3)), "equal emitter counts"),
        (
            lambda: apply_field(EmitterGeometry(3, KD), 0.1, fully_excited(2)),
            "geometry and state disagree on emitter count",
        ),
    ],
    ids=["coincident_order", "normalize_zero", "overlap_counts", "apply_field_geometry"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_state_vector_immutable_and_validated():
    st = fully_excited(2)
    with pytest.raises(ValueError):
        StateVector(np.zeros(3, dtype=complex), 2)
    with pytest.raises((ValueError, RuntimeError)):
        st.amplitudes[0] = 1.0


def test_state_vector_copies_a_writeable_array():
    amps = np.array([0, 0, 0, 1], dtype=complex)
    st = StateVector(amps, 2)
    amps[3] = 5.0
    assert st.amplitudes[3] == 1.0
    assert not np.shares_memory(st.amplitudes, amps)


def test_state_vector_copies_a_read_only_view_of_a_writeable_base():
    base = np.array([0, 0, 0, 1], dtype=complex)
    view = base[:]
    view.flags.writeable = False
    st = StateVector(view, 2)
    base[3] = 5.0
    assert st.amplitudes[3] == 1.0
    assert not np.shares_memory(st.amplitudes, base)


def test_state_vector_keeps_an_owned_read_only_complex_array():
    amps = np.array([0, 0, 0, 1], dtype=complex)
    amps.flags.writeable = False
    assert StateVector(amps, 2).amplitudes is amps
    # Any other dtype is converted, so copied.
    real = np.array([0.0, 0.0, 0.0, 1.0])
    real.flags.writeable = False
    assert StateVector(real, 2).amplitudes.dtype == np.complex128


def test_apply_field_output_is_read_only_and_shares_no_memory():
    g = EmitterGeometry(3, KD)
    state = fully_excited(3)
    image = apply_field(g, 0.4, state)
    assert not image.amplitudes.flags.writeable
    assert not np.shares_memory(image.amplitudes, state.amplitudes)
