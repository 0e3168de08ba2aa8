import cmath
import math

import numpy as np
import pytest

from dickesim import (
    EmitterGeometry,
    StateVector,
    cascade_subtract,
    conditional_g2,
    delta_for_detector,
    dicke_intensity_closed,
    dicke_state,
    fully_excited,
    g_m_closed_coincident,
    g_m_exact,
    intensity,
    two_atom_delta_state,
)
from dickesim.core import DetectorList
from dickesim.verify import rel_dev

KD = 2 * math.pi


class TestPhotonSubtract:
    def test_two_atom_projection(self):
        g = EmitterGeometry(2, KD)
        theta2 = 0.6
        res = cascade_subtract(g, theta2, 1, fully_excited(2))
        assert res.weight == pytest.approx(2.0, rel=1e-12)
        expected = np.zeros(4, dtype=complex)
        expected[0b10] = np.exp(-1j * g.phase_of(1, theta2)) / math.sqrt(2)
        expected[0b01] = np.exp(-1j * g.phase_of(2, theta2)) / math.sqrt(2)
        overlap = res.projected_state.overlap(StateVector(expected, 2))
        assert abs(abs(overlap) - 1.0) < 1e-12

    def test_subradiant_angle_impossible(self):
        g = EmitterGeometry(2, KD)
        # antisymmetric state, detection at zero phase difference
        with pytest.raises(ValueError, match="has weight"):
            cascade_subtract(g, 0.0, 1, two_atom_delta_state(math.pi))

    def test_all_ground_impossible(self):
        g = EmitterGeometry(2, KD)
        ground = StateVector(np.array([1, 0, 0, 0], dtype=complex), 2)
        with pytest.raises(ValueError, match="has weight"):
            cascade_subtract(g, 0.3, 1, ground)

    def test_weight_is_intensity(self):
        g = EmitterGeometry(4, KD)
        st = dicke_state(4, 2)
        theta = 0.9
        assert cascade_subtract(g, theta, 1, st).weight == pytest.approx(
            intensity(g, theta, st), rel=1e-12
        )


class TestCascade:
    @pytest.mark.parametrize("n,m", [(3, 2), (5, 4), (8, 8), (10, 6)])
    def test_prepares_symmetric_dicke_state(self, n, m):
        g = EmitterGeometry(n, KD)
        cas = cascade_subtract(g, 0.0, m - 1, fully_excited(n))
        overlap = cas.projected_state.overlap(dicke_state(n, m - 1))
        assert abs(overlap) ** 2 >= 1 - 1e-12
        expected = math.comb(n, m - 1) * math.factorial(m - 1) ** 2
        assert cas.weight == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("theta1", [0.0, 0.8, math.pi / 2])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_single_subtraction_gives_timed_dicke(self, n, theta1):
        # With kd = pi at N = 2, theta1 = pi/2 gives emitter 1 phase pi and emitter 2 phase 2 pi.
        kd = math.pi if n == 2 else KD
        cas = cascade_subtract(EmitterGeometry(n, kd), theta1, 1, fully_excited(n))
        expected = np.zeros(1 << n, dtype=complex)
        full = (1 << n) - 1
        for l in range(1, n + 1):
            expected[full ^ (1 << (l - 1))] = (
                cmath.exp(-1j * l * kd * math.sin(theta1)) / math.sqrt(n)
            )
        np.testing.assert_allclose(
            cas.projected_state.amplitudes, expected, rtol=0, atol=1e-12
        )
        assert cas.weight == pytest.approx(n, rel=1e-12)

    def test_zero_count_is_identity(self):
        g = EmitterGeometry(3, KD)
        st = fully_excited(3)
        cas = cascade_subtract(g, 0.5, 0, st)
        assert cas.weight == 1.0
        assert np.array_equal(cas.projected_state.amplitudes, st.amplitudes)

    def test_weight_equals_coincident_correlation(self):
        g = EmitterGeometry(6, KD)
        theta1 = -0.35
        for count in (1, 2, 4):
            cas = cascade_subtract(g, theta1, count, fully_excited(6))
            det = (theta1,) * count
            assert cas.weight == pytest.approx(
                g_m_exact(g, det, fully_excited(6)), rel=1e-9
            )

    def test_negative_count_rejected(self):
        g = EmitterGeometry(3, KD)
        with pytest.raises(ValueError):
            cascade_subtract(g, 0.0, -1, fully_excited(3))


@pytest.mark.parametrize(
    "call",
    [
        lambda g, st: g_m_exact(g, (0.1,), st),
        lambda g, st: cascade_subtract(g, 0.1, 1, st),
    ],
    ids=["g_m_exact", "cascade_subtract"],
)
def test_unnormalized_state_refused(call):
    unnormalized = StateVector(2 * fully_excited(2).amplitudes, 2)
    with pytest.raises(ValueError, match="requires a normalized state"):
        call(EmitterGeometry(2, KD), unnormalized)


class TestConditionalG2:
    def test_extremes_and_midpoint(self):
        g = EmitterGeometry(2, KD)
        # x = kd*(sin(theta1) - sin(theta2))
        theta2 = 0.0
        assert conditional_g2(g, theta2, 0.0) == pytest.approx(2.0, abs=1e-12)
        theta1_pi = math.asin(math.pi / KD)
        assert conditional_g2(g, theta2, theta1_pi) == pytest.approx(0.0, abs=1e-12)
        theta1_half = math.asin(math.pi / 2 / KD)
        assert conditional_g2(g, theta2, theta1_half) == pytest.approx(1.0, abs=1e-12)

    def test_delta_equivalence(self):
        g = EmitterGeometry(2, KD)
        theta2 = -0.45
        delta = delta_for_detector(g, theta2)
        tuned = two_atom_delta_state(delta)
        for theta1 in np.linspace(-1.5, 1.5, 181):
            assert intensity(g, float(theta1), tuned) == pytest.approx(
                conditional_g2(g, theta2, float(theta1)), abs=1e-12
            )

    def test_requires_two_atoms(self):
        with pytest.raises(ValueError):
            conditional_g2(EmitterGeometry(3, KD), 0.1, 0.2)


def direct_and_cascade(g, m, theta1, theta2):
    """G(m) from the m-fold correlation, and from the (m-1)-fold projected state."""
    state = fully_excited(g.n_emitters)
    direct = g_m_exact(g, DetectorList.coincident(theta1, m, theta2), state)
    cas = cascade_subtract(g, theta1, m - 1, state)
    return direct, intensity(g, theta2, cas.projected_state) * cas.weight


class TestFactorization:
    def test_random_angles(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6, 8):
            g = EmitterGeometry(n, KD)
            for m in range(1, n + 1):
                theta1 = float(rng.uniform(-1.4, 1.4))
                theta2 = float(rng.uniform(-1.4, 1.4))
                direct, cascade = direct_and_cascade(g, m, theta1, theta2)
                assert rel_dev(direct, cascade) <= 1e-9

    def test_theta1_zero_includes_dicke_route(self):
        g = EmitterGeometry(6, KD)
        direct, cascade = direct_and_cascade(g, 4, 0.0, 0.7)
        weight = math.comb(6, 3) * math.factorial(3) ** 2
        dicke = intensity(g, 0.7, dicke_state(6, 3)) * weight
        assert rel_dev(direct, cascade) <= 1e-9
        assert rel_dev(direct, dicke) <= 1e-9
        assert rel_dev(cascade, dicke) <= 1e-9

    def test_isomorphism_value(self):
        g = EmitterGeometry(5, KD)
        theta1, theta2 = 0.25, -0.9
        m = 3
        det = DetectorList.coincident(theta1, m, theta2)
        direct = g_m_exact(g, det, fully_excited(5))
        cas = cascade_subtract(g, theta1, m - 1, fully_excited(5))
        assert direct == pytest.approx(
            intensity(g, theta2, cas.projected_state) * cas.weight, rel=1e-9
        )


class TestDickeIntensityClosed:
    def test_full_excitation_constant(self):
        for phi in (0.0, 0.5, 2.0):
            assert dicke_intensity_closed(7, 1, phi) == pytest.approx(7.0, rel=1e-12)

    def test_single_excitation_peak(self):
        for n in (2, 5, 9):
            assert dicke_intensity_closed(n, n, 0.0) == pytest.approx(n, rel=1e-12)

    def test_two_atom_matches_symmetric_fringe(self):
        for phi in np.linspace(0, 2 * math.pi, 21):
            assert dicke_intensity_closed(2, 2, float(phi)) == pytest.approx(
                1 + math.cos(phi), abs=1e-12
            )

    def test_links_to_coincident_closed_form(self):
        for n in (2, 4, 7, 10):
            for m in range(1, n + 1):
                norm = math.comb(n, m - 1) * math.factorial(m - 1) ** 2
                for phi in (0.0, 0.31, 1.7, 3.0):
                    assert dicke_intensity_closed(n, m, phi) * norm == pytest.approx(
                        g_m_closed_coincident(n, m, phi), rel=1e-9
                    )

    def test_single_excitation_profile(self):
        n = 8
        for phi in (0.2, 0.9, 2.5):
            expected = math.sin(n * phi / 2) ** 2 / (n * math.sin(phi / 2) ** 2)
            assert dicke_intensity_closed(n, n, phi) == pytest.approx(
                expected, rel=1e-12
            )

    def test_range_check(self):
        with pytest.raises(ValueError):
            dicke_intensity_closed(4, 5, 0.0)
