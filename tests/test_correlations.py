import cmath
import itertools
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dickesim.correlations
from dickesim import (
    CorrelationCurve,
    DetectorList,
    EmitterGeometry,
    angular_average_gm,
    build_functional,
    dicke_intensity_closed,
    dicke_state,
    extract_gm,
    fully_excited,
    g2_two_atom_normalized,
    g_m_closed_coincident,
    g_m_exact,
    g_m_pathsum,
    scan_curve,
    summarize,
    visibility_formula,
)
from dickesim.correlations import (
    METHODS,
    _pathsum_subsets,
    _pathsum_symmetric,
    _sign_classes,
    interference_kernel,
    pathsum_terms,
)
from dickesim.verify import rel_dev

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


def phase_matrix(geometry, angles):
    """phase[l, j] = exp(-i phi(emitter l+1, theta_j)), the input of either path-sum form."""
    emitters = np.arange(1, geometry.n_emitters + 1)
    return np.exp(-1j * geometry.kd * np.outer(emitters, np.sin(angles)))


def assert_matches_literal_pathsum(geometry, angles):
    reference = literal_pathsum(geometry, angles)
    assert abs(g_m_pathsum(geometry, [angles])[0] - reference) <= 1e-12 * max(1.0, reference)


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
            assert g_m_pathsum(g, [det])[0] == pytest.approx(
                2 * (1 + math.cos(x)), abs=1e-12
            )

    def test_single_detector_gives_n(self):
        g = EmitterGeometry(3, KD)
        assert g_m_pathsum(g, [(0.42,)])[0] == pytest.approx(3.0, rel=1e-12)

    def test_full_order_coincident_peak(self):
        g = EmitterGeometry(4, KD)
        assert g_m_pathsum(g, [(0.0,) * 4])[0] == pytest.approx(576.0, rel=1e-12)

    def test_m_above_n_rejected(self):
        g = EmitterGeometry(2, KD)
        with pytest.raises(ValueError):
            g_m_pathsum(g, [(0.1, 0.2, 0.3)])

    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in range(1, 7) for m in range(1, min(n, 4) + 1)]
    )
    def test_matches_literal_enumeration(self, n, m):
        angles = tuple(np.random.default_rng(10 * n + m).uniform(-1.5, 1.5, m))
        assert_matches_literal_pathsum(EmitterGeometry(n, KD), angles)

    @pytest.mark.parametrize(
        "form",
        [lambda phases: _pathsum_subsets(phases[None])[0],
         lambda phases: _pathsum_symmetric(
             phases[None], *_sign_classes((1,) * phases.shape[1]))[0]],
        ids=["subsets", "symmetric"],
    )
    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in range(1, 7) for m in range(1, min(n, 4) + 1)]
    )
    def test_each_form_matches_literal_enumeration(self, form, n, m):
        # Each form on its own, whichever g_m_pathsum would choose here.
        g = EmitterGeometry(n, KD)
        angles = tuple(np.random.default_rng(10 * n + m + 1).uniform(-1.5, 1.5, m))
        reference = literal_pathsum(g, angles)
        assert abs(form(phase_matrix(g, angles)) - reference) <= 1e-12 * max(1.0, reference)

    @pytest.mark.parametrize(
        "n, m, terms, form",
        [(8, 4, 512, "_pathsum_symmetric"), (8, 5, 896, "_pathsum_subsets")],
    )
    def test_the_form_with_fewer_terms_runs(self, monkeypatch, n, m, terms, form):
        # (8, 4): 4^3 * 8 = 512 against C(8, 4) * 2^3 = 560;
        # (8, 5): C(8, 5) * 2^4 = 896 against 4^4 * 8 = 2048.
        assert pathsum_terms(n, m) == terms
        ran = []

        def spy(name):
            original = getattr(dickesim.correlations, name)

            def run(*args):
                ran.append(name)
                return original(*args)

            monkeypatch.setattr(dickesim.correlations, name, run)

        spy("_pathsum_subsets")
        spy("_pathsum_symmetric")
        g = EmitterGeometry(n, KD)
        angles = tuple(np.random.default_rng(n + m).uniform(-1.5, 1.5, m))
        assert g_m_pathsum(g, [angles])[0] == pytest.approx(
            g_m_exact(g, angles, fully_excited(n)), rel=1e-9
        )
        assert ran == [form]

    @pytest.mark.parametrize(
        "n, pattern",
        [(n, pattern) for n in range(2, 7)
         for pattern in [(2, 1), (3, 1), (2, 2), (1, 2, 1), (2, 1, 1), (4,)]
         if sum(pattern) <= n],
    )
    def test_repeated_angles_match_literal_enumeration(self, n, pattern):
        # Angle g repeated pattern[g] times, in a random order for g_m_pathsum;
        # the symmetric form takes the distinct angles in pattern's order.
        g = EmitterGeometry(n, KD)
        rng = np.random.default_rng(100 * n + sum(pattern))
        distinct = rng.uniform(-1.5, 1.5, len(pattern))
        labels = [i for i, mu in enumerate(pattern) for _ in range(mu)]
        angles = tuple(float(distinct[labels[j]]) for j in rng.permutation(len(labels)))
        assert [angles.count(float(a)) for a in distinct] == list(pattern)
        reference = literal_pathsum(g, angles)
        symmetric = _pathsum_symmetric(phase_matrix(g, distinct)[None], *_sign_classes(pattern))
        assert symmetric.shape == (1,)
        for value in (g_m_pathsum(g, [angles])[0], symmetric[0]):
            assert abs(value - reference) <= 1e-12 * max(1.0, reference)

    @pytest.mark.parametrize("chunk", [None, 600, 40], ids=["one-block", "blocks", "tiles"])
    @pytest.mark.parametrize(
        "n, m, theta1", [(12, 6, 0.3141), (9, 4, -1.2), (8, 5, 0.0), (5, 3, 0.3141)],
        ids=["symmetric-12", "symmetric-9", "subsets", "subsets-5"],
    )
    def test_a_stack_gives_each_tuple_its_value(self, monkeypatch, n, m, theta1, chunk):
        # A coincident grid that holds theta1 itself, so that one row has m equal
        # angles, and random tuples; (8, 5) and (5, 3) run the subset walk.  At 600
        # entries the symmetric form takes one point a block and several blocks of
        # class rows.  The subset walk takes every point in one block, then at 600
        # and 40 one point a block, and at 40 several tiles of subsets a point
        # (C(5, 3) = 10 subsets in tiles of 4).
        if chunk:
            monkeypatch.setattr(dickesim.correlations, "PATH_CHUNK", chunk)
        g = EmitterGeometry(n, KD)
        rng = np.random.default_rng(n + m)
        grid = np.sort(np.append(rng.uniform(-1.5, 1.5, 6), theta1))
        stacks = [np.column_stack([np.full((grid.size, m - 1), theta1), grid]),
                  rng.uniform(-1.5, 1.5, (5, m))]
        for stack in stacks:
            values = g_m_pathsum(g, stack)
            assert values.shape == (len(stack),)
            for row, value in zip(stack, values):
                single = g_m_pathsum(g, row[None])[0]
                assert abs(value - single) <= 1e-13 * max(1.0, single)
                if math.perm(n, m) <= 5000:
                    reference = literal_pathsum(g, tuple(row))
                    assert abs(value - reference) <= 1e-12 * max(1.0, reference)

    def test_stack_shape_and_angles_are_checked(self):
        g = EmitterGeometry(4, KD)
        with pytest.raises(ValueError, match=r"shape \(P, m\), got \(2, 2, 1\)"):
            g_m_pathsum(g, np.zeros((2, 2, 1)))
        with pytest.raises(ValueError, match=r"detector angles must be finite, got \[-inf, nan\]"):
            g_m_pathsum(g, np.array([[0.1, math.nan], [-math.inf, 0.2]]))
        with pytest.raises(ValueError, match="order must lie in 1..4, got 5"):
            g_m_pathsum(g, np.zeros((3, 5)))
        assert g_m_pathsum(g, np.zeros((0, 2))).shape == (0,)

    def test_symmetric_form_reaches_past_the_subset_budget(self):
        # C(40, 8) * 2^7 = 9.8e9 subset terms, over the budget; 4^7 * 40 = 6.6e5.
        g = EmitterGeometry(40, KD)
        det = DetectorList.coincident(0.1, 8, 0.4)
        x = KD * (math.sin(0.1) - math.sin(0.4))
        assert pathsum_terms(40, 8) == 655360
        assert g_m_pathsum(g, [det.angles])[0] == pytest.approx(
            g_m_closed_coincident(40, 8, x), rel=1e-9
        )

    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 4),
        kd=st.floats(0.1, 12.0),
        angles=st.lists(st.floats(-math.pi / 2, math.pi / 2), min_size=4, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_literal_enumeration_at_random_angles(self, n, m, kd, angles):
        assert_matches_literal_pathsum(EmitterGeometry(n, kd), tuple(angles[: min(m, n)]))

    @pytest.mark.parametrize(
        "n, theta1, theta2, rel",
        [(16, 0.1, 0.4, 1e-9), (20, 0.0, 0.05, 1e-11)],
        ids=["16", "20"],
    )
    def test_full_order_matches_closed_form(self, n, theta1, theta2, rel):
        # One n x n permanent: 2^(n-1) Glynn terms in place of n! paths (2.1e13
        # at n = 16).  At n = 20 the point lies near a zero of the kernel.
        g = EmitterGeometry(n, KD)
        det = DetectorList.coincident(theta1, n, theta2)
        x = KD * (math.sin(theta1) - math.sin(theta2))
        assert g_m_pathsum(g, [det.angles])[0] == pytest.approx(
            g_m_closed_coincident(n, n, x), rel=rel
        )

    def test_budget_guard(self):
        # C(20, 14) * 2^13 = 3.2e8 terms, over the 1e8 budget.
        g = EmitterGeometry(20, KD)
        with pytest.raises(ValueError, match="path-sum terms exceed"):
            g_m_pathsum(g, [(0.1,) * 14])

    @pytest.mark.parametrize("n, m", [(9, 9), (10, 9)])
    def test_matches_exact_across_permutation_tiles(self, n, m):
        # 9! = 362880 assignments per subset, summed as 2^8 Glynn terms.
        g = EmitterGeometry(n, KD)
        angles = tuple(np.random.default_rng(n).uniform(-1.5, 1.5, m))
        exact = g_m_exact(g, angles, fully_excited(n))
        assert g_m_pathsum(g, [angles])[0] == pytest.approx(exact, rel=1e-9)

    def test_tile_size_does_not_change_the_sum(self, monkeypatch):
        # N = 7, m = 5 runs the subset walk; N = 9, m = 4 the symmetric form
        # (4^3 * 9 = 576 terms against C(9, 4) * 2^3 = 1008), one delta row a block.
        # N = 50, m = 1 walks rows of width 1 in tiles of 40 and 10 (a tie, so the
        # subset walk); N = 6, m = 3 fills 5 tiles of 4 exactly, so its last draw is empty.
        cases = [(EmitterGeometry(7, KD), (0.3, -0.8, 1.1, 0.2, -0.4)),
                 (EmitterGeometry(9, KD), (0.3, -0.8, 1.1, 0.2)),
                 (EmitterGeometry(50, KD), (0.3,)),
                 (EmitterGeometry(6, KD), (0.3, -0.8, 1.1))]
        whole = [g_m_pathsum(g, [angles])[0] for g, angles in cases]
        monkeypatch.setattr(dickesim.correlations, "PATH_CHUNK", 40)
        for (g, angles), value in zip(cases, whole):
            assert g_m_pathsum(g, [angles])[0] == pytest.approx(value, rel=1e-12)

    def test_memory_does_not_grow_with_the_path_count(self):
        g = EmitterGeometry(9, KD)
        tracemalloc.start()
        try:
            g_m_pathsum(g, [(0.1,) * 9])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_symmetric_form_memory_is_bounded_by_its_blocks(self):
        # e_0..e_10 over all 512 x 512 sign-vector pairs would be 46 MB.
        g = EmitterGeometry(20, KD)
        tracemalloc.start()
        try:
            g_m_pathsum(g, [DetectorList.coincident(0.1, 10, 0.4).angles])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 17 << 20


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
        # The per-point math-module form of the closed route, on the phase
        # reduced to [-pi, pi], kept as the reference; sin and the square may
        # round differently, so a few ulp.
        def kernel(n, x):
            x -= 2 * math.pi * round(x / (2 * math.pi))
            half = math.sin(x / 2.0)
            if half == 0.0:
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
        # The side peaks, and phases where sin(x/2) is subnormal.
        xs = np.append(2 * math.pi * np.array([0, 1, -1, 2, -2]), [2.5e-323, -1e-320, 3e-310])
        for n in range(2, 21):
            assert np.all(interference_kernel(n, xs) == n * n)
            for m in range(1, n + 1):
                peak = math.factorial(n) * math.factorial(m) / math.factorial(n - m)
                values = g_m_closed_coincident(n, m, xs)
                assert np.all(values == values[0])
                assert values[0] == pytest.approx(peak, rel=1e-15)

    def test_kernel_is_periodic_to_rounding(self):
        # Next to the side peaks x = 2*pi*k, sin(N x / 2) on the unreduced
        # phase loses up to 1e-7 relative.
        deltas = np.array([1e-10, 7e-8, -3e-7, 1e-3])
        for n, k in itertools.product((2, 12, 20), (1, -1, 2, -2)):
            np.testing.assert_allclose(
                interference_kernel(n, 2 * math.pi * k + deltas),
                interference_kernel(n, deltas),
                rtol=1e-14,
            )

    def test_single_emitter_gives_ones_of_the_grid_shape(self):
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        for f in (g_m_closed_coincident, dicke_intensity_closed):
            values = f(1, 1, grid)
            assert values.shape == grid.shape and np.all(values == 1.0)
        assert np.all(interference_kernel(1, grid) == np.ones(grid.shape))
        # A lone emitter's G is 1 whatever the phase, as its scalar form always was.
        assert g_m_closed_coincident(1, 1, math.nan) == 1.0


@pytest.mark.parametrize(
    "n, theta1, theta2",
    [(n, t1, t2) for n in (12, 16) for t1, t2 in ((0.0, 0.05), (0.3, -0.7), (-1.2, 0.4))]
    + [(20, 0.3, -0.7)],
)
def test_exact_engine_matches_closed_form_at_large_n(n, theta1, theta2):
    # m = N/2: the dense engine on up to 2^20 amplitudes against the closed form.
    m = n // 2
    g = EmitterGeometry(n, KD)
    exact = g_m_exact(g, DetectorList.coincident(theta1, m, theta2), fully_excited(n))
    closed = g_m_closed_coincident(n, m, KD * (math.sin(theta1) - math.sin(theta2)))
    assert abs(exact - closed) <= 1e-12 * max(abs(exact), abs(closed))


def test_closed_form_matches_the_functional_next_to_a_side_peak():
    # theta1 just inside -pi/2 puts x = kd sin(theta1) within 3e-8 of -2*pi;
    # sin(N x / 2) on the unreduced phase is off there by 4.9e-9 relative.
    theta1, n, m = -1.5706485006530568, 20, 10
    geometry = EmitterGeometry(n, KD)
    closed = g_m_closed_coincident(n, m, KD * math.sin(theta1))
    functional = extract_gm(build_functional(geometry, [[theta1, 0.0]], (m - 1, 1)), (m - 1, 1))[0]
    assert rel_dev(closed, functional) <= 1e-12


def test_closed_form_prefactor_is_exact():
    for n in range(1, 30):
        for m in range(1, n + 1):
            expected = math.factorial(n) * math.factorial(m - 1) // math.factorial(n - m)
            assert angular_average_gm(n, m) == float(expected)
    # N(N-1) at m=2, exactly representable; three factorials of N took seconds.
    assert angular_average_gm(10**6, 2) == 10**6 * (10**6 - 1)
    # A count past the float range is refused as every other count is.
    with pytest.raises(ValueError, match="too large for a float"):
        angular_average_gm(200, 100)


def test_g2_two_atom_normalized():
    assert g2_two_atom_normalized(0.0) == pytest.approx(1.0)
    assert g2_two_atom_normalized(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert g2_two_atom_normalized(math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    # consistent with the closed form over (G1)^2 = 4
    for x in np.linspace(0, 2 * math.pi, 17):
        assert g2_two_atom_normalized(float(x)) == pytest.approx(
            g_m_closed_coincident(2, 2, float(x)) / 4.0, abs=1e-12
        )


def test_visibility_formula():
    assert visibility_formula(6, 1) == 0.0
    assert visibility_formula(6, 6) == pytest.approx(1.0, rel=1e-12)
    assert visibility_formula(4, 2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        visibility_formula(3, 4)
    with pytest.raises(ValueError, match="need N >= 2, got 1"):
        visibility_formula(1, 1)


def test_visibility_formula_against_measured_fringe():
    # cross-check by measuring max/min of the closed-form curve
    n, m = 4, 2
    xs = np.linspace(0, 2 * math.pi, 4 * n * 50 + 1)
    vals = g_m_closed_coincident(n, m, xs)
    measured = (vals.max() - vals.min()) / (vals.max() + vals.min())
    assert measured == pytest.approx(visibility_formula(n, m), rel=1e-9)


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
    @pytest.mark.parametrize("method", ["exact", "pathsum"])
    def test_closed_vs_exact_curves(self, method):
        g = EmitterGeometry(5, KD)
        grid = np.linspace(-1.4, 1.4, 61)
        closed = scan_curve(g, 3, 0.0, grid, "closed")
        exact = scan_curve(g, 3, 0.0, grid, method)
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

    def test_summary_of_values_near_the_float_maximum(self):
        # Every value is finite, but the sum of two of them is not.
        values = np.array([0.81e308, 1.62e308, 0.81e308])
        curve = CorrelationCurve(np.arange(3.0), np.array([-1.0, 0.0, 1.0]), values, "closed")
        summary = summarize(curve)
        assert summary.visibility == pytest.approx(1 / 3, rel=1e-15)
        assert summary.angular_mean == pytest.approx(1.215e308, rel=1e-15)

    def test_summary_of_subnormal_values(self):
        # Halves of 5e-324 are 0, and a visibility taken on halves divided by zero.
        phases = np.array([-1.0, 0.0, 1.0])
        for values, visibility in [([5e-324] * 3, 0.0), ([0.0, 5e-324, 0.0], 1.0),
                                   ([1e-323, 5e-324, 1e-323], 1 / 3)]:
            curve = CorrelationCurve(np.arange(3.0), phases, np.array(values), "closed")
            assert summarize(curve).visibility == visibility

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
        # One point is 4^9 * 20 = 5.2e6 terms, under the budget; twenty are
        # 1.05e8, so the scan raises before its first point.
        g = EmitterGeometry(20, KD)
        with pytest.raises(ValueError, match="104857600 path-sum terms exceed"):
            scan_curve(g, 10, 0.0, np.linspace(-1, 1, 20), "pathsum")

    def test_a_pathsum_scan_in_several_stacks_keeps_its_values(self, monkeypatch):
        # At PATH_CHUNK = 12 a scan at m = 6 passes stacks of two points, so seven
        # points take four calls, each point and class row a block of its own.
        g = EmitterGeometry(12, KD)
        grid = np.linspace(-1.5, 1.5, 7)
        whole = scan_curve(g, 6, 0.3141, grid, "pathsum").values
        calls = []
        original = dickesim.correlations.g_m_pathsum

        def spy(geometry, stack):
            calls.append(len(stack))
            return original(geometry, stack)

        monkeypatch.setattr(dickesim.correlations, "g_m_pathsum", spy)
        monkeypatch.setattr(dickesim.correlations, "PATH_CHUNK", 12)
        values = scan_curve(g, 6, 0.3141, grid, "pathsum").values
        assert calls == [2, 2, 2, 1]
        np.testing.assert_allclose(values, whole, rtol=1e-13, atol=0)

    def test_an_exact_scan_in_several_blocks_keeps_its_values(self, monkeypatch):
        # At EXACT_ROWS = 3 the 70 targets of (8, 4) take 24 QR steps, the last of
        # one row, and 7 points take three blocks, the last of one point; at 1
        # every row and every point is a block of its own.
        g = EmitterGeometry(8, KD)
        grid = np.linspace(-1.5, 1.5, 7)
        whole = scan_curve(g, 4, 0.3141, grid, "exact").values
        for rows in (1, 3):
            monkeypatch.setattr(dickesim.correlations, "EXACT_ROWS", rows)
            values = scan_curve(g, 4, 0.3141, grid, "exact").values
            np.testing.assert_allclose(values, whole, rtol=1e-13, atol=0)

    def test_exact_scan_memory_is_bounded_by_its_blocks(self):
        # A 10^6-point scan holds its grid, its phases and its values, 8 MB each,
        # and blocks of EXACT_ROWS points: not 64 MB of four phase factors a point.
        tracemalloc.start()
        try:
            grid = np.linspace(-math.pi / 2, math.pi / 2, 10**6)
            scan_curve(EmitterGeometry(4, KD), 2, 0.0, grid, "exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8_000_000

    @pytest.mark.parametrize("theta1", [0.0, 0.3141])
    def test_every_route_reports_the_closed_scans_phases(self, theta1):
        # CI holds each reference scan to the closed form on the scan's own
        # phase column: that is the closed scan only while every route reports
        # the same phases, and the closed scan is the closed form on them.
        g = EmitterGeometry(6, KD)
        grid = np.linspace(-math.pi / 2, math.pi / 2, 37)
        closed = scan_curve(g, 3, theta1, grid, "closed")
        assert closed.values.tobytes() == g_m_closed_coincident(6, 3, closed.phase_x).tobytes()
        for method in METHODS:
            phase_x = scan_curve(g, 3, theta1, grid, method).phase_x
            assert phase_x.tobytes() == closed.phase_x.tobytes(), method

    def test_every_route_is_nonnegative_without_a_clamp(self):
        # scan_curve returns the routes' raw values: none may be negative or -0.0,
        # at the fringe zeros x = 2 pi k / N (zeros of G at m = N) or at random points.
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            g = EmitterGeometry(n, KD)
            state = fully_excited(n)
            pairs = [(theta1, math.asin(math.sin(theta1) - k / n))
                     for theta1 in (0.0, 0.3141, -1.2) for k in range(-2 * n, 2 * n + 1)
                     if abs(math.sin(theta1) - k / n) <= 1]
            pairs += rng.uniform(-math.pi / 2, math.pi / 2, size=(8, 2)).tolist()
            poly = build_functional(g, pairs, (n - 1, 1))
            for m in range(1, n + 1):
                functional = extract_gm(poly, (m - 1, 1))
                for i, (theta1, theta2) in enumerate(pairs):
                    det = DetectorList.coincident(theta1, m, theta2)
                    x = KD * (math.sin(theta1) - math.sin(theta2))
                    values = (g_m_exact(g, det, state), g_m_pathsum(g, [det.angles])[0],
                              g_m_closed_coincident(n, m, x), functional[i])
                    for value in values:
                        assert value >= 0 and math.copysign(1.0, value) == 1.0, (n, m, i)
                # The exact scan takes each theta1's fringe zeros as one grid, and
                # each random pair as a grid of one point.
                grids = [(t1, [t2 for s, t2 in pairs[:-8] if s == t1]) for t1 in (0.0, 0.3141, -1.2)]
                for theta1, grid in grids + [(t1, [t2]) for t1, t2 in pairs[-8:]]:
                    for value in scan_curve(g, m, theta1, np.unique(grid), "exact").values:
                        assert value >= 0 and math.copysign(1.0, value) == 1.0, (n, m, theta1)

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


def _assert_summary_is_the_sorted_ones(phase_x, values):
    # The reference: the summary of the curve in the order of a stable argsort,
    # which summarize once made of every curve.
    order = np.argsort(phase_x, kind="stable")
    got, want = (
        summarize(CorrelationCurve(np.arange(x.size), x, v, "closed"))
        for x, v in [(phase_x, values), (phase_x[order], values[order])]
    )
    # Bit for bit, NaN included.
    assert np.array(astuple(got)).tobytes() == np.array(astuple(want)).tobytes()


# Phases on a lattice, so that ties come up often, taken as drawn, ascending, or
# descending (strictly so where the drawn phases are distinct).
@given(
    points=st.lists(
        st.tuples(st.integers(-6, 6).map(lambda k: k / 2), st.floats(0.0, 10.0)),
        min_size=1,
        max_size=30,
    ),
    arrange=st.sampled_from(["as drawn", "ascending", "descending"]),
)
@settings(deadline=None)
def test_summary_equals_the_stable_sorted_summary(points, arrange):
    phase_x, values = (np.array(c) for c in zip(*points))
    if arrange != "as drawn":
        order = np.argsort(phase_x, kind="stable")
        order = order if arrange == "ascending" else order[::-1]
        phase_x, values = phase_x[order], values[order]
    _assert_summary_is_the_sorted_ones(phase_x, values)


@pytest.mark.parametrize(
    "span", [(-math.pi / 2, math.pi / 2), (math.pi / 2, 3.0), (-3.0, 3.0), (1.0, 2.0)],
    ids=["decreasing", "increasing", "wide", "over-the-top"],
)
@pytest.mark.parametrize("theta1", [0.0, 0.3])
def test_scan_summary_equals_the_stable_sorted_summary(span, theta1):
    curve = scan_curve(EmitterGeometry(8, KD), 3, theta1, np.linspace(*span, 1001), "closed")
    _assert_summary_is_the_sorted_ones(curve.phase_x, curve.values)


def test_summary_of_a_default_grid_sorts_nothing():
    # At 1e5 points an argsort and two sorted copies alone take 2.4 MB; the
    # reversed views of the strictly decreasing phases take nothing.
    grid = np.linspace(-math.pi / 2, math.pi / 2, 10**5)
    curve = scan_curve(EmitterGeometry(12, KD), 6, 0.0, grid, "closed")
    tracemalloc.start()
    try:
        summarize(curve)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20


@pytest.mark.parametrize(
    "route",
    [lambda g, det: g_m_exact(g, det, fully_excited(g.n_emitters))],
    ids=["exact"],
)
def test_every_angle_input_gives_the_same_value(route):
    # The exact route reads its angles through DetectorList, which takes any iterable once.
    g = EmitterGeometry(5, KD)
    angles = (0.3, -0.8, 1.1)
    inputs = [list(angles), angles, (t for t in angles), DetectorList(angles),
              np.array(angles)]
    values = [route(g, det) for det in inputs]
    assert values == [values[0]] * len(inputs)


def test_coincident_detector_helper():
    det = DetectorList.coincident(0.1, 4, 0.9)
    assert det.angles == (0.1, 0.1, 0.1, 0.9)
    assert DetectorList.coincident(0.0, 1, 0.5).angles == (0.5,)
