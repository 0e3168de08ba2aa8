import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dickesim.correlations
from dickesim import (
    CorrelationCurve,
    DetectorList,
    EmitterGeometry,
    PathBudgetExceeded,
    angular_average_gm,
    dicke_intensity_closed,
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
from dickesim.correlations import interference_kernel

KD = 2 * math.pi


def theta_for_phase(x, kd=KD):
    """theta2 with theta1 = 0 such that the inter-detector phase equals x."""
    return math.asin(-x / kd)


def literal_pathsum(geometry, angles):
    """Reference oracle: every m-subset of emitters, every one of its m! assignments."""
    total = 0.0
    for subset in itertools.combinations(range(1, geometry.n_emitters + 1), len(angles)):
        amplitude = 0j
        for emitters in itertools.permutations(subset):
            path = 1 + 0j
            for emitter, theta in zip(emitters, angles):
                path *= cmath.exp(-1j * geometry.kd * emitter * math.sin(theta))
            amplitude += path
        total += abs(amplitude) ** 2
    return total


def assert_matches_literal_pathsum(geometry, angles):
    reference = literal_pathsum(geometry, angles)
    assert abs(g_m_pathsum(geometry, angles) - reference) <= 1e-12 * max(1.0, reference)


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

    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in range(1, 7) for m in range(1, min(n, 4) + 1)]
    )
    def test_matches_literal_enumeration(self, n, m):
        angles = tuple(np.random.default_rng(10 * n + m).uniform(-1.5, 1.5, m))
        assert_matches_literal_pathsum(EmitterGeometry(n, KD), angles)

    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        kd=st.floats(0.1, 12.0),
        angles=st.lists(st.floats(-math.pi / 2, math.pi / 2), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_literal_enumeration_at_random_angles(self, n, m, kd, angles):
        assert_matches_literal_pathsum(EmitterGeometry(n, kd), tuple(angles[: min(m, n)]))

    def test_full_order_at_sixteen_emitters_matches_closed_form(self):
        # One 16 x 16 permanent: 2^15 Glynn terms in place of 16! = 2.1e13 paths.
        g = EmitterGeometry(16, KD)
        det = DetectorList.coincident(0.1, 16, 0.4)
        x = KD * (math.sin(0.1) - math.sin(0.4))
        assert g_m_pathsum(g, det) == pytest.approx(
            g_m_closed_coincident(16, 16, x), rel=1e-9
        )

    def test_budget_guard(self):
        # C(20, 14) * 2^13 = 3.2e8 terms, over the 1e8 budget.
        g = EmitterGeometry(20, KD)
        with pytest.raises(PathBudgetExceeded):
            g_m_pathsum(g, (0.1,) * 14)

    @pytest.mark.parametrize("n, m", [(9, 9), (10, 9)])
    def test_matches_exact_across_permutation_tiles(self, n, m):
        # 9! = 362880 assignments per subset, summed as 2^8 Glynn terms.
        g = EmitterGeometry(n, KD)
        angles = tuple(np.random.default_rng(n).uniform(-1.5, 1.5, m))
        exact = g_m_exact(g, angles, fully_excited(n))
        assert g_m_pathsum(g, angles) == pytest.approx(exact, rel=1e-9)

    def test_tile_size_does_not_change_the_sum(self, monkeypatch):
        g = EmitterGeometry(7, KD)
        angles = (0.3, -0.8, 1.1, 0.2, -0.4)
        whole = g_m_pathsum(g, angles)
        monkeypatch.setattr(dickesim.correlations, "PATH_CHUNK", 40)
        assert g_m_pathsum(g, angles) == pytest.approx(whole, rel=1e-12)

    def test_memory_does_not_grow_with_the_path_count(self):
        g = EmitterGeometry(9, KD)
        tracemalloc.start()
        try:
            g_m_pathsum(g, (0.1,) * 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


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


class TestElementwiseClosedForm:
    # Singular points (multiples of 2*pi), points near them, and generic phases.
    XS = np.concatenate(
        [np.linspace(-13.0, 13.0, 181), 2 * math.pi * np.arange(-2, 3), [1e-9, -1e-7]]
    )
    CASES = [(n, m) for n in (1, 2, 5, 12, 20) for m in sorted({1, 2, n // 2, n}) if 1 <= m <= n]

    @pytest.mark.parametrize("f", [g_m_closed_coincident, dicke_intensity_closed])
    def test_array_equals_scalar_bit_for_bit(self, f):
        for n, m in self.CASES:
            scalars = [f(n, m, float(x)) for x in self.XS]
            assert all(type(v) is float for v in scalars)
            assert np.array_equal(f(n, m, self.XS), np.array(scalars))

    def test_kernel_array_equals_scalar_bit_for_bit(self):
        # A finer grid: a square taken by pow() instead of x*x differs in the
        # last bit between scalars and arrays at a few of these points.
        xs = np.concatenate([np.linspace(-13.0, 13.0, 2001), self.XS])
        for n in (1, 2, 7, 20):
            scalars = [interference_kernel(n, float(x)) for x in xs]
            assert all(type(v) is float for v in scalars)
            assert np.array_equal(interference_kernel(n, xs), np.array(scalars))

    def test_matches_the_scalar_math_formula(self):
        # The per-point math-module form the closed route used before, kept as
        # the reference; sin and the square may round differently, so a few ulp.
        def kernel(n, x):
            half = math.sin(x / 2.0)
            if abs(half) < 1e-8:
                return float(n) ** 2
            return (math.sin(n * x / 2.0) / half) ** 2

        def g_m(n, m, x):
            if n == 1:
                return 1.0
            prefactor = math.factorial(n) * math.factorial(m - 1) / math.factorial(n - m)
            return prefactor * ((n - m) / (n - 1) + (m - 1) * kernel(n, x) / (n * (n - 1)))

        for n, m in self.CASES:
            reference = [g_m(n, m, float(x)) for x in self.XS]
            np.testing.assert_allclose(
                g_m_closed_coincident(n, m, self.XS), reference, rtol=4 * np.finfo(float).eps
            )

    def test_singular_points_take_the_limit(self):
        xs = 2 * math.pi * np.array([0, 1, -1, 2, -2])
        for n in range(2, 21):
            assert np.all(interference_kernel(n, xs) == n * n)
            for m in range(1, n + 1):
                peak = math.factorial(n) * math.factorial(m) / math.factorial(n - m)
                values = g_m_closed_coincident(n, m, xs)
                assert np.all(values == values[0])
                assert values[0] == pytest.approx(peak, rel=1e-15)

    def test_single_emitter_gives_ones_of_the_grid_shape(self):
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        for f in (g_m_closed_coincident, dicke_intensity_closed):
            values = f(1, 1, grid)
            assert values.shape == grid.shape and np.all(values == 1.0)
        assert np.all(interference_kernel(1, grid) == np.ones(grid.shape))
        # A lone emitter's G is 1 whatever the phase, as its scalar form always was.
        assert g_m_closed_coincident(1, 1, math.nan) == 1.0


def test_closed_form_prefactor_is_exact():
    from dickesim.correlations import _count_prefactor

    for n in range(1, 30):
        for m in range(1, n + 1):
            expected = math.factorial(n) * math.factorial(m - 1) // math.factorial(n - m)
            assert _count_prefactor(n, m) == float(expected)
    # N(N-1) at m=2, exactly representable; three factorials of N took seconds.
    assert _count_prefactor(10**6, 2) == 10**6 * (10**6 - 1)


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
    vals = g_m_closed_coincident(n, m, xs)
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
        vals = g_m_closed_coincident(n, m, xs)
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
        # One point is C(20, 10) * 2^9 = 9.5e7 terms, under the budget; five are
        # 4.7e8, so the scan raises before its first point.
        g = EmitterGeometry(20, KD)
        with pytest.raises(PathBudgetExceeded):
            scan_curve(g, 10, 0.0, np.linspace(-1, 1, 5), "pathsum")

    def test_curve_symmetric_at_theta1_zero(self):
        g = EmitterGeometry(5, KD)
        grid = np.linspace(-1.2, 1.2, 49)
        curve = scan_curve(g, 4, 0.0, grid, "closed")
        assert np.allclose(curve.values, curve.values[::-1], rtol=1e-9)


def _first_zero_by_loop(phase_x, values):
    # summarize's first zero as its per-point loop found it, kept as the reference
    order = np.argsort(phase_x, kind="stable")
    x = phase_x[order]
    v = values[order]
    vmax = float(v.max())
    for i in range(1, v.size - 1):
        if x[i] > 0.0 and v[i] <= v[i - 1] and v[i] <= v[i + 1] and v[i] < vmax:
            return float(x[i])
    return math.nan


def _first_zero(phase_x, values):
    phase_x = np.asarray(phase_x, dtype=float)
    values = np.asarray(values, dtype=float)
    curve = CorrelationCurve(np.arange(phase_x.size), phase_x, values, "closed")
    got = summarize(curve).first_zero_phase
    expected = _first_zero_by_loop(phase_x, values)
    assert got == expected or (math.isnan(got) and math.isnan(expected))
    return got


# Phases on a half-integer lattice around 0 and values from four levels, so that
# ties in phase, plateaus and minima at x <= 0 come up often.
@given(
    points=st.lists(
        st.tuples(st.integers(-4, 8).map(lambda k: k / 2), st.integers(0, 3).map(float)),
        min_size=1,
        max_size=30,
    )
)
@settings(deadline=None)
def test_first_zero_matches_the_per_point_loop(points):
    phase_x, values = zip(*points)
    _first_zero(phase_x, values)


@pytest.mark.parametrize(
    "phase_x, values, expected",
    [
        ([0.5, 1.0, 1.5, 2.0], [3.0, 1.0, 2.0, 4.0], 1.0),  # first interior point
        ([0.5, 1.0, 1.5, 2.0], [4.0, 3.0, 1.0, 2.0], 1.5),  # last interior point
        ([1.0, 2.0, 3.0, 4.0, 5.0], [4.0, 1.0, 1.0, 1.0, 4.0], 2.0),  # plateau
        ([2.0, 1.0, 0.5, 1.5], [4.0, 1.0, 3.0, 2.0], 1.0),  # unsorted phases
        ([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0], [4.0, 1.0, 4.0, 0.0, 2.0, 3.0], math.nan),
        ([0.5, 1.0, 1.5, 2.0], [2.0, 2.0, 2.0, 2.0], math.nan),  # constant
        ([0.5, 1.0], [1.0, 0.0], math.nan),  # no interior point
        ([1.0], [3.0], math.nan),
    ],
    ids=["first-interior", "last-interior", "plateau", "unsorted", "only-at-x<=0",
         "constant", "two-points", "one-point"],
)
def test_first_zero_edge_cases(phase_x, values, expected):
    got = _first_zero(phase_x, values)
    assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_coincident_detector_helper():
    det = DetectorList.coincident(0.1, 4, 0.9)
    assert det.angles == (0.1, 0.1, 0.1, 0.9)
    assert len(DetectorList.coincident(0.0, 1, 0.5)) == 1
