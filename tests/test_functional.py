import cmath
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dickesim.functional
from dickesim import (
    EmitterGeometry,
    build_functional,
    extract_gm,
    fully_excited,
    g_m_closed_coincident,
    g_m_exact,
    scan_curve,
)
from dickesim.functional import MAX_FUNCTIONAL_TERMS
from dickesim.verify import REL_TOL, rel_dev

KD = 2 * math.pi


def test_constant_term_is_one():
    g = EmitterGeometry(3, KD)
    poly = build_functional(g, [[0.2, -0.7]], (1, 1))
    assert poly.terms[((0, 0), (0, 0))][0] == 1.0


def test_single_emitter_single_angle():
    g = EmitterGeometry(1, KD)
    poly = build_functional(g, [[0.4]], (1,))
    # 1 - f1 f1*: exactly two terms
    assert len(poly.terms) == 2
    assert poly.terms[((0,), (0,))][0] == pytest.approx(1.0)
    assert poly.terms[((1,), (1,))][0] == pytest.approx(-1.0)


def test_two_atom_coincidence_from_coefficient():
    g = EmitterGeometry(2, KD)
    theta1, theta2 = 0.0, -0.5
    x = g.kd * (math.sin(theta1) - math.sin(theta2))
    poly = build_functional(g, [[theta1, theta2]], (1, 1))
    assert extract_gm(poly, (1, 1))[0] == pytest.approx(2 * (1 + math.cos(x)), abs=1e-12)


def test_hermiticity_of_terms():
    g = EmitterGeometry(4, KD)
    poly = build_functional(g, [[0.3, 1.0, -0.8]], (4, 4, 4))
    for (a, b), coeff in poly.terms.items():
        assert poly.terms[(b, a)][0] == pytest.approx(coeff[0].conjugate(), abs=1e-12)


def test_polynomial_is_exactly_hermitian():
    # Exact, not approximate: each Gram block B is taken as (B + B^H)/2.
    rng = np.random.default_rng(4)
    for n, k in [(8, 3), (6, 4), (20, 2)]:
        angles = rng.uniform(-1.5, 1.5, (1, k))
        poly = build_functional(EmitterGeometry(n, KD), angles, (n,) * k)
        for (a, b), coeff in poly.terms.items():
            assert poly.terms[(b, a)][0] == coeff[0].conjugate()


def _reference_product(geometry, angles):
    """Dict-of-tuples expansion of the emitter product, one term pair at a time."""
    k = len(angles)
    zero = (0,) * k
    unit = [tuple(int(i == l) for i in range(k)) for l in range(k)]
    terms = {(zero, zero): 1.0 + 0.0j}
    for j in range(1, geometry.n_emitters + 1):
        c = [cmath.exp(-1j * geometry.phase_of(j, t)) for t in angles]
        factor = {(zero, zero): 1.0 + 0.0j}
        for l in range(k):
            for lp in range(k):
                factor[(unit[l], unit[lp])] = -c[l] * c[lp].conjugate()
        out = {}
        for (ta, tb), tc in terms.items():
            for (fa, fb), fc in factor.items():
                key = (
                    tuple(x + y for x, y in zip(ta, fa)),
                    tuple(x + y for x, y in zip(tb, fb)),
                )
                out[key] = out.get(key, 0.0 + 0.0j) + tc * fc
        terms = out
    return terms


@pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (3, 2), (7, 2), (4, 3), (6, 3), (3, 4)])
def test_build_matches_reference_product(n, k):
    g = EmitterGeometry(n, 1.7)
    angles = [-1.2 + 0.7 * l for l in range(k)]
    expected = _reference_product(g, angles)
    poly = build_functional(g, [angles], (n,) * k)
    assert poly.terms.keys() == expected.keys()
    # Summation order differs; a few hundred roundings of the largest term.
    tol = 1e-13 * max(abs(v) for v in expected.values())
    for key, value in expected.items():
        assert abs(poly.terms[key][0] - value) <= tol, key


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    kd=st.floats(0.1, 12.0),
    detectors=st.lists(
        st.tuples(st.floats(-math.pi / 2, math.pi / 2), st.integers(0, 7)),
        min_size=1, max_size=3,
    ),
)
def test_integer_keyed_build_matches_reference_product(n, kd, detectors):
    # Terms keyed by integer exponent tuples on a random box, which may reach past N:
    # the box keeps exactly the reference terms whose exponents lie inside it.
    angles, box = [a for a, _ in detectors], tuple(b for _, b in detectors)
    g = EmitterGeometry(n, kd)
    expected = _reference_product(g, angles)
    poly = build_functional(g, [angles], box)
    inside = {key for key in expected if all(x <= b for x, b in zip(key[0] + key[1], box * 2))}
    assert poly.terms.keys() == inside
    tol = 1e-13 * max(abs(v) for v in expected.values())
    for key in inside:
        assert abs(poly.terms[key][0] - expected[key]) <= tol, key


def _reference_build(geometry, angles, box):
    """The build one QR call per degree, kept as the reference for its bits."""
    k, sines = len(box), np.sin(angles)
    levels = [((0,) * k,)]
    for _ in range(min(sum(box), geometry.n_emitters)):
        up = {a[:l] + (a[l] + 1,) + a[l + 1:]
              for a in levels[-1] for l in range(k) if a[l] < box[l]}
        levels.append(tuple(sorted(up)))
    codes, unit = [np.array(c) for c in levels], np.eye(k, dtype=int)
    shifts = [(low[:, None] + unit[:, None, None] == high).all(-1).reshape(k, -1).astype(float)
              for low, high in zip(codes, codes[1:])]
    points = len(sines)
    factors = [np.ones((points, 1, 1), dtype=complex)]
    factors += [np.zeros((points, 0, len(c)), dtype=complex) for c in codes[1:]]
    for j in range(1, geometry.n_emitters + 1):
        cbar = np.exp(1j * (j * geometry.kd) * sines)
        for d in range(min(j, len(codes) - 1), 0, -1):
            t = (cbar @ shifts[d - 1]).reshape(points, len(codes[d - 1]), len(codes[d]))
            stack = np.concatenate([factors[d], factors[d - 1] @ t], axis=-2)
            factors[d] = np.linalg.qr(stack, mode="r")
    return factors


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    kd=st.floats(0.1, 12.0),
    box=st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple),
    data=st.data(),
)
def test_build_keeps_the_bits_of_one_qr_call_per_degree(n, kd, box, data):
    # Grouped by stack shape, the degrees share stacked QR calls; each matrix
    # still gets a LAPACK call of its own, so no bit may move.
    points = data.draw(st.integers(1, 5))
    angle = st.floats(-math.pi / 2, math.pi / 2)
    angles = np.array(data.draw(st.lists(st.lists(angle, min_size=len(box), max_size=len(box)),
                                         min_size=points, max_size=points)))
    g = EmitterGeometry(n, kd)
    got = build_functional(g, angles, box).factors
    want = _reference_build(g, angles, box)
    assert len(got) == len(want)
    for r, ref in zip(got, want):
        assert r.shape == ref.shape and r.tobytes() == ref.tobytes()


def _assert_one_qr_call_per_stack_shape(monkeypatch, n, box, expected, updates):
    points, top = 3, min(sum(box), n)
    # Emitter j stacks [R_d ; R_{d-1} T_j] for d = min(j, top)..1; R_d has
    # min(rows_d + rows_{d-1}, cols_d) rows after, with cols_d tuples of degree d.
    inside = list(itertools.product(*(range(b + 1) for b in box)))
    cols = [sum(sum(a) == d for a in inside) for d in range(top + 1)]
    rows, shapes, degree_updates = [1] + [0] * top, 0, 0
    for j in range(1, n + 1):
        degrees = range(min(j, top), 0, -1)
        shapes += len({(rows[d] + rows[d - 1], cols[d]) for d in degrees})
        degree_updates += len(degrees)
        for d in degrees:
            rows[d] = min(rows[d] + rows[d - 1], cols[d])
    assert (shapes, degree_updates) == (expected, updates)
    g = EmitterGeometry(n, KD)
    angles = np.full((points, len(box)), 0.3) + 0.2 * np.arange(len(box))
    want = _reference_build(g, angles, box)
    calls = []

    def counted(a, mode="reduced"):
        calls.append(a.shape)
        return qr(a, mode)

    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", counted)
    got = build_functional(g, angles, box).factors
    assert len(calls) == expected
    # A group of degrees is factored only after every stack of the emitter is read.
    assert [r.tobytes() for r in got] == [r.tobytes() for r in want]


def test_build_makes_one_qr_call_per_stack_shape_per_emitter(monkeypatch):
    # 56 calls against 155 degree updates, one QR call each.
    _assert_one_qr_call_per_stack_shape(monkeypatch, 20, (9, 1), 56, 155)


@pytest.mark.parametrize("n, box, expected", [(8, (8, 8, 8), 36), (12, (3, 2, 1), 57), (30, (1, 1), 59)])
def test_build_makes_one_qr_call_per_degree_where_no_stack_shares_a_shape(monkeypatch, n, box, expected):
    # Each stack of an emitter is alone in its shape, and is factored as it is.
    _assert_one_qr_call_per_stack_shape(monkeypatch, n, box, expected, expected)


def test_terms_are_the_balanced_pairs_inside_the_box():
    poly = build_functional(EmitterGeometry(3, KD), [[0.2, 0.6]], (2, 1))
    # Degrees 0..3 hold 1, 2, 2 and 1 exponent tuples <= (2, 1).
    assert poly.levels == (((0, 0),), ((0, 1), (1, 0)), ((1, 1), (2, 0)), ((2, 1),))
    assert poly.terms.keys() == {(a, b) for codes in poly.levels for a in codes for b in codes}


def test_extract_gm_does_not_build_the_term_mapping():
    poly = build_functional(EmitterGeometry(6, KD), [[0.2, 0.6]], (6, 6))
    extract_gm(poly, (2, 1))
    assert "terms" not in vars(poly)
    assert len(poly.terms) == sum((d + 1) ** 2 for d in range(7))
    assert "terms" in vars(poly)


@pytest.mark.parametrize("n, k", [(146, 2), (28, 3), (14, 4)])
def test_term_bound_reports_the_count_before_building(n, k):
    # The full polynomial, box (N,) * K: N emitters each update every coefficient
    # with |a| = |b| <= N.  These N were the smallest whose full polynomial alone
    # held over 2^20 terms.
    count = n * sum(math.comb(d + k - 1, k - 1) ** 2 for d in range(n + 1))
    assert count > MAX_FUNCTIONAL_TERMS
    box = (n,) * k
    with pytest.raises(ValueError, match=rf"N={n} on the box \({n}, .*\) takes at least {count} "):
        build_functional(EmitterGeometry(n, KD), [[0.1 * l for l in range(k)]], box)


def test_total_degree_bounded():
    n = 4
    g = EmitterGeometry(n, KD)
    poly = build_functional(g, [[0.1, 0.9]], (n, n))
    for (a, b) in poly.terms:
        assert sum(a) <= n and sum(b) <= n
    # exact count of achievable exponent pairs: factors each contribute
    # degree (0,0) or (1,1) split over two variables
    max_terms = (math.comb(n + 2, 2)) ** 2
    assert len(poly.terms) <= max_terms


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_term_set_is_every_balanced_exponent_pair(n, k):
    g = EmitterGeometry(n, KD)
    poly = build_functional(g, [[0.1 + 0.3 * l for l in range(k)]], (n,) * k)
    expected = sum(math.comb(d + k - 1, k - 1) ** 2 for d in range(n + 1))
    assert len(poly.terms) == expected
    for (a, b) in poly.terms:
        assert len(a) == len(b) == k
        assert sum(a) == sum(b)


def test_large_n_extraction_matches_closed_form():
    rng = np.random.default_rng(12)
    for n in (12, 16, 20):
        g = EmitterGeometry(n, KD)
        for theta1, theta2 in rng.uniform(-1.4, 1.4, size=(2, 2)):
            poly = build_functional(g, [[float(theta1), float(theta2)]], (n - 1, 1))
            x = g.kd * (math.sin(theta1) - math.sin(theta2))
            for m in range(1, n + 1):
                dev = rel_dev(extract_gm(poly, (m - 1, 1))[0], g_m_closed_coincident(n, m, x))
                assert dev <= 1e-9, (n, m, theta1, theta2, dev)


def test_extract_beyond_emitter_count_is_zero():
    n = 3
    g = EmitterGeometry(n, KD)
    poly = build_functional(g, [[0.2, 0.6]], (n + 1, 0))
    assert extract_gm(poly, (n + 1, 0))[0] == 0.0


@pytest.mark.parametrize("points", [1, 3])
def test_extract_gm_gives_one_value_per_set_of_angles(points):
    # A (P,) array at every P, also for orders past N, where it holds zeros.
    n = 3
    angles = np.random.default_rng(points).uniform(-1.5, 1.5, (points, 2))
    poly = build_functional(EmitterGeometry(n, KD), angles, (n + 1, 1))
    within = extract_gm(poly, (n - 1, 1))
    assert within.shape == (points,) and (within > 0).all()
    past = extract_gm(poly, (n, 1))
    assert past.shape == (points,) and (past == 0.0).all()


def test_extract_validates_multiplicities():
    g = EmitterGeometry(2, KD)
    poly = build_functional(g, [[0.2, 0.6]], (1, 1))
    with pytest.raises(ValueError, match=r"outside the box \(1, 1\)"):
        extract_gm(poly, (2, 0))
    with pytest.raises(ValueError):
        extract_gm(poly, (1,))
    with pytest.raises(ValueError):
        extract_gm(poly, (0, 0))
    with pytest.raises(ValueError):
        extract_gm(poly, (-1, 2))
    with pytest.raises(ValueError, match="multiplicity must be an integer, got 1.5"):
        extract_gm(poly, (1.5, 0.7))
    for refused in (1.0, 2.0, np.float64(2)):
        with pytest.raises(ValueError, match="multiplicity must be an integer, got"):
            extract_gm(poly, (refused, 1))
    assert extract_gm(poly, (np.int64(1), 1))[0] == extract_gm(poly, (1, 1))[0]


def test_build_validates_the_box_and_the_angles():
    g = EmitterGeometry(2, KD)
    with pytest.raises(ValueError, match="at least one nonnegative power"):
        build_functional(g, [[]], ())
    with pytest.raises(ValueError, match="nonnegative"):
        build_functional(g, [[0.1, 0.2]], (1, -1))
    with pytest.raises(ValueError, match=r"shape \(P, K\), got \(1, 3\)"):
        build_functional(g, [[0.1, 0.2, 0.3]], (1, 1))
    with pytest.raises(ValueError, match="box power must be an integer, got 1.5"):
        build_functional(g, [[0.1, 0.2]], (1.5, 1))


@pytest.mark.parametrize("shape", [(2,), (3, 4, 2)], ids=["one-set", "stack-of-stacks"])
def test_build_takes_only_a_stack_of_sets(shape):
    # One set of K angles, or a (P, Q, K) stack, is refused: only (P, K) is read.
    g = EmitterGeometry(2, KD)
    named = rf"^expected angles of shape \(P, K\), got {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=named):
        build_functional(g, np.full(shape, 0.3), (1, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_build_rejects_non_finite_angles_before_any_warning(bad):
    # Unchecked, a NaN angle would give a NaN value, and np.sin warns on inf.
    g = EmitterGeometry(3, KD)
    named = rf"detector angles must be finite, got \[{re.escape(str(bad))}\]$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=named):
            build_functional(g, [[0.1, bad]], (1, 1))
        # In a stack only the offending values are named, each once.
        stack = [[0.1, 0.2], [bad, 0.3], [0.4, bad]]
        with pytest.raises(ValueError, match=named):
            build_functional(g, stack, (2, 1))
        with pytest.raises(ValueError, match=r"got \[-inf, inf, nan\]$"):
            build_functional(g, [[0.1, math.nan], [math.inf, -math.inf]], (2, 1))


def test_coincident_extraction_matches_closed_form():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6, 8):
        g = EmitterGeometry(n, KD)
        theta1, theta2 = rng.uniform(-1.4, 1.4, size=2)
        poly = build_functional(g, [[float(theta1), float(theta2)]], (n - 1, 1))
        x = g.kd * (math.sin(theta1) - math.sin(theta2))
        for m in range(1, n + 1):
            assert extract_gm(poly, (m - 1, 1))[0] == pytest.approx(
                g_m_closed_coincident(n, m, x), rel=1e-9
            )


def test_three_angle_patterns_match_exact_engine():
    rng = np.random.default_rng(9)
    for n in (3, 5):
        g = EmitterGeometry(n, KD)
        st = fully_excited(n)
        angles = [float(t) for t in rng.uniform(-1.4, 1.4, size=3)]
        poly = build_functional(g, [angles], (2, 3, 1))
        for mults in [(1, 1, 1), (2, 0, 1), (0, 3, 0), (1, 2, 0)]:
            if sum(mults) > n:
                continue
            det = sum(((a,) * k for a, k in zip(angles, mults)), ())
            assert extract_gm(poly, mults)[0] == pytest.approx(
                g_m_exact(g, det, st), rel=1e-9, abs=1e-12
            )


def test_seed_23_triple_matches_the_exact_engine():
    # The worst case of `--verify --n-atoms 8 --seed 23` when the whole polynomial
    # was expanded: 7.8e-8 relative, lost to cancellation in a 0.0166 coefficient.
    g = EmitterGeometry(8, KD)
    angles = [1.0554318030032217, -1.565184911690154, -0.885522806067182]
    mults = (4, 3, 1)
    det = [t for t, k in zip(angles, mults) for _ in range(k)]
    value = extract_gm(build_functional(g, [angles], (8, 8, 8)), mults)[0]
    assert rel_dev(value, g_m_exact(g, det, fully_excited(8))) <= REL_TOL


def test_seed_22_coincident_pair_matches_the_exact_engine():
    # `--verify --n-atoms 8 --seed 22` failed its coincident suite here at 1.3e-9.
    g = EmitterGeometry(8, KD)
    theta1, theta2 = -1.5263585059143792, 0.12630789694068256
    value = extract_gm(build_functional(g, [[theta1, theta2]], (7, 1)), (7, 1))[0]
    exact = g_m_exact(g, [theta1] * 7 + [theta2], fully_excited(8))
    assert rel_dev(value, exact) <= REL_TOL


def test_functional_scan_matches_closed_at_n_100():
    g = EmitterGeometry(100, KD)
    grid = np.linspace(-math.pi / 2, math.pi / 2, 21)
    func = scan_curve(g, 10, 0.3, grid, "functional").values
    closed = scan_curve(g, 10, 0.3, grid, "closed").values
    assert np.max(np.abs(func - closed) / np.maximum(np.abs(closed), 1e-3)) <= 1e-12


def test_stacked_build_equals_its_one_point_builds():
    g = EmitterGeometry(6, KD)
    angles = np.random.default_rng(7).uniform(-1.5, 1.5, size=(6, 3))
    box = (2, 2, 1)
    stacked = build_functional(g, angles, box)
    values = extract_gm(stacked, (2, 1, 1))
    assert values.shape == (6,)
    for i in range(6):
        single = build_functional(g, angles[i:i + 1], box)
        for d, r in enumerate(single.factors):
            assert np.array_equal(stacked.factors[d][i], r[0])
        assert values[i] == extract_gm(single, (2, 1, 1))[0]
        assert stacked.terms[((1, 1, 0), (0, 1, 1))][i] == single.terms[((1, 1, 0), (0, 1, 1))][0]


def test_scan_blocks_leave_the_curve_bit_identical(monkeypatch):
    g = EmitterGeometry(12, KD)
    grid = np.linspace(-math.pi / 2, math.pi / 2, 21)
    whole = scan_curve(g, 5, 0.4, grid, "functional")
    calls = []

    def counted(geometry, angles, box):
        calls.append(len(angles))
        return build_functional(geometry, angles, box)

    monkeypatch.setattr(dickesim.functional, "build_functional", counted)
    # 12 emitters on the box (4, 1): 1 + 4 * 2^2 + 1 = 18 coefficients, 216 updates a point.
    monkeypatch.setattr(dickesim.functional, "BLOCK_COEFFICIENTS", 4 * 18)
    blocked = scan_curve(g, 5, 0.4, grid, "functional")
    assert calls == [4, 4, 4, 4, 4, 1]
    assert np.array_equal(blocked.values, whole.values)
