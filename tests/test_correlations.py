import math

import numpy as np
import pytest

from dickesim import (
    DetectorList,
    EmitterGeometry,
    PathBudgetExceeded,
    angular_average_gm,
    dicke_state,
    fully_excited,
    g2_thermal_reference,
    g2_two_atom_normalized,
    g_m_closed_coincident,
    g_m_exact,
    g_m_pathsum,
    peak_width_estimate,
    scan_curve,
    summarize,
    visibility_formula,
)

KD = 2 * math.pi


def theta_for_phase(x, kd=KD):
    """theta2 with theta1 = 0 such that the inter-detector phase equals x."""
    return math.asin(-x / kd)


class TestExact:
    def test_two_atom_fringe(self):
        g = EmitterGeometry(2, KD)
        st = fully_excited(2)
        for x in np.linspace(0, 2 * math.pi, 25):
            det = (0.0, theta_for_phase(float(x)))
            assert g_m_exact(g, det, st) == pytest.approx(
                2 * (1 + math.cos(x)), abs=1e-12
            )

    def test_order_above_excitation_count_is_zero(self):
        g = EmitterGeometry(2, KD)
        assert g_m_exact(g, (0.1, 0.2), dicke_state(2, 1)) == 0.0

    def test_hom_zero(self):
        g = EmitterGeometry(2, KD)
        det = (0.0, theta_for_phase(math.pi))
        assert g_m_exact(g, det, fully_excited(2)) == pytest.approx(0.0, abs=1e-12)

    def test_detector_order_irrelevant(self):
        g = EmitterGeometry(4, KD)
        st = fully_excited(4)
        angles = (0.3, -0.8, 1.1)
        a = g_m_exact(g, angles, st)
        b = g_m_exact(g, (1.1, 0.3, -0.8), st)
        assert a == pytest.approx(b, abs=1e-12 * max(1.0, a))

    def test_rejects_empty_detectors(self):
        g = EmitterGeometry(2, KD)
        with pytest.raises(ValueError):
            g_m_exact(g, (), fully_excited(2))


class TestPathsum:
    def test_matches_two_atom_fringe(self):
        g = EmitterGeometry(2, KD)
        for x in (0.0, 0.7, math.pi, 4.0):
            det = (0.0, theta_for_phase(x))
            assert g_m_pathsum(g, det) == pytest.approx(
                2 * (1 + math.cos(x)), abs=1e-12
            )

    def test_single_detector_gives_n(self):
        g = EmitterGeometry(3, KD)
        assert g_m_pathsum(g, (0.42,)) == pytest.approx(3.0, rel=1e-12)

    def test_full_order_coincident_peak(self):
        g = EmitterGeometry(4, KD)
        assert g_m_pathsum(g, (0.0,) * 4) == pytest.approx(576.0, rel=1e-12)

    def test_m_above_n_rejected(self):
        g = EmitterGeometry(2, KD)
        with pytest.raises(ValueError):
            g_m_pathsum(g, (0.1, 0.2, 0.3))

    def test_budget_guard(self):
        g = EmitterGeometry(8, KD)
        with pytest.raises(PathBudgetExceeded):
            g_m_pathsum(g, (0.1,) * 8, path_budget=100)


class TestClosedForm:
    def test_two_atom_values(self):
        assert g_m_closed_coincident(2, 2, 0.0) == pytest.approx(4.0)
        assert g_m_closed_coincident(2, 2, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_first_order_is_n(self):
        for n in (2, 5, 9):
            for x in (0.0, 1.3):
                assert g_m_closed_coincident(n, 1, x) == pytest.approx(n, rel=1e-12)

    def test_full_order_peak_is_factorial_squared(self):
        assert g_m_closed_coincident(5, 5, 0.0) == pytest.approx(14400.0, rel=1e-12)

    def test_single_emitter(self):
        assert g_m_closed_coincident(1, 1, 0.9) == 1.0

    def test_range_checks(self):
        with pytest.raises(ValueError):
            g_m_closed_coincident(3, 0, 0.0)
        with pytest.raises(ValueError):
            g_m_closed_coincident(3, 4, 0.0)

    def test_singularity_continuous(self):
        # values just off the removable singularity approach the limit
        at_zero = g_m_closed_coincident(6, 3, 0.0)
        near = g_m_closed_coincident(6, 3, 1e-7)
        assert near == pytest.approx(at_zero, rel=1e-10)


def test_g2_two_atom_normalized():
    assert g2_two_atom_normalized(0.0) == pytest.approx(1.0)
    assert g2_two_atom_normalized(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert g2_two_atom_normalized(math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    # consistent with the closed form over (G1)^2 = 4
    for x in np.linspace(0, 2 * math.pi, 17):
        assert g2_two_atom_normalized(float(x)) == pytest.approx(
            g_m_closed_coincident(2, 2, float(x)) / 4.0, abs=1e-12
        )


def test_g2_thermal_reference():
    assert g2_thermal_reference(1.0) == pytest.approx(2.0)
    assert g2_thermal_reference(0.0) == pytest.approx(1.0)
    assert g2_thermal_reference(0.5) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        g2_thermal_reference(1.5)


def test_visibility_formula():
    assert visibility_formula(6, 1) == 0.0
    assert visibility_formula(6, 6) == pytest.approx(1.0, rel=1e-12)
    assert visibility_formula(4, 2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        visibility_formula(3, 4)


def test_visibility_formula_against_measured_fringe():
    # cross-check by measuring max/min of the closed-form curve
    n, m = 4, 2
    xs = np.linspace(0, 2 * math.pi, 4 * n * 50 + 1)
    vals = np.array([g_m_closed_coincident(n, m, float(x)) for x in xs])
    measured = (vals.max() - vals.min()) / (vals.max() + vals.min())
    assert measured == pytest.approx(visibility_formula(n, m), rel=1e-9)


def test_peak_width_estimate():
    assert peak_width_estimate(10, 2 * math.pi) == pytest.approx(0.1)
    assert peak_width_estimate(20, 2 * math.pi) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        peak_width_estimate(1, 1.0)


def test_angular_average_against_quadrature():
    # oracle: trapezoid quadrature of the closed form over one phase period
    for n, m in [(2, 2), (4, 3), (6, 6), (5, 1)]:
        xs = np.linspace(0, 2 * math.pi, 200 * n + 1)
        vals = np.array([g_m_closed_coincident(n, m, float(x)) for x in xs])
        quad = np.trapezoid(vals, xs) / (2 * math.pi)
        assert angular_average_gm(n, m) == pytest.approx(quad, rel=1e-6)
    assert angular_average_gm(2, 2) == pytest.approx(2.0)
    assert angular_average_gm(5, 1) == pytest.approx(5.0)


def test_angular_average_peak_ratio_at_full_order():
    for n in (3, 5, 8):
        ratio = g_m_closed_coincident(n, n, 0.0) / angular_average_gm(n, n)
        assert ratio == pytest.approx(n, rel=1e-12)


class TestScanAndSummary:
    def test_closed_vs_exact_curves(self):
        g = EmitterGeometry(5, KD)
        grid = np.linspace(-1.4, 1.4, 61)
        closed = scan_curve(g, 3, 0.0, grid, "closed")
        exact = scan_curve(g, 3, 0.0, grid, "exact")
        scale = np.maximum(np.abs(closed.values), np.abs(exact.values))
        dev = np.abs(closed.values - exact.values) / np.maximum(scale, 1e-12)
        assert dev.max() < 1e-9

    def test_functional_curve_matches_closed(self):
        g = EmitterGeometry(4, KD)
        grid = np.linspace(-1.0, 1.0, 21)
        closed = scan_curve(g, 2, 0.2, grid, "closed")
        func = scan_curve(g, 2, 0.2, grid, "functional")
        assert np.allclose(closed.values, func.values, rtol=1e-9, atol=1e-12)

    def test_summary_of_constant_curve(self):
        g = EmitterGeometry(4, KD)
        grid = np.linspace(-1.0, 1.0, 41)
        summary = summarize(scan_curve(g, 1, 0.0, grid, "closed"))
        assert summary.visibility == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(summary.first_zero_phase)
        assert summary.angular_mean == pytest.approx(4.0, rel=1e-12)

    def test_summary_full_visibility(self):
        g = EmitterGeometry(6, KD)
        xs = np.linspace(-math.pi, math.pi, 6 * 60 + 1)
        grid = np.arcsin(-xs / KD)[::-1]
        summary = summarize(scan_curve(g, 6, 0.0, grid, "closed"))
        assert summary.visibility == pytest.approx(1.0, abs=1e-9)

    def test_grid_validation(self):
        g = EmitterGeometry(3, KD)
        with pytest.raises(ValueError):
            scan_curve(g, 2, 0.0, [], "closed")
        with pytest.raises(ValueError):
            scan_curve(g, 2, 0.0, [0.3, 0.1], "closed")
        with pytest.raises(ValueError):
            scan_curve(g, 2, 0.0, [0.0, 0.1], "magic")

    def test_non_finite_angles_rejected(self):
        # The functional route would otherwise turn a NaN angle into a NaN curve.
        g = EmitterGeometry(3, KD)
        with pytest.raises(ValueError, match="theta1 must be finite, got nan"):
            scan_curve(g, 2, math.nan, [0.0, 0.1], "functional")
        with pytest.raises(ValueError, match=r"theta2 grid must be finite, got \[inf\]"):
            scan_curve(g, 2, 0.0, [0.0, math.inf], "functional")

    def test_pathsum_budget_propagates(self):
        g = EmitterGeometry(6, KD)
        with pytest.raises(PathBudgetExceeded):
            scan_curve(g, 6, 0.0, np.linspace(-1, 1, 5), "pathsum", path_budget=10)

    def test_curve_symmetric_at_theta1_zero(self):
        g = EmitterGeometry(5, KD)
        grid = np.linspace(-1.2, 1.2, 49)
        curve = scan_curve(g, 4, 0.0, grid, "closed")
        assert np.allclose(curve.values, curve.values[::-1], rtol=1e-9)


def test_coincident_detector_helper():
    det = DetectorList.coincident(0.1, 4, 0.9)
    assert det.angles == (0.1, 0.1, 0.1, 0.9)
    assert len(DetectorList.coincident(0.0, 1, 0.5)) == 1
