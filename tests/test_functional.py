import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dickesim import (
    EmitterGeometry,
    build_functional,
    extract_gm,
    fully_excited,
    g_m_closed_coincident,
    g_m_exact,
)
from dickesim.functional import MAX_FUNCTIONAL_TERMS
from dickesim.projection import rel_dev

KD = 2 * math.pi


def test_constant_term_is_one():
    g = EmitterGeometry(3, KD)
    poly = build_functional(g, [0.2, -0.7])
    assert poly.coefficient((0, 0), (0, 0)) == pytest.approx(1.0)


def test_single_emitter_single_angle():
    g = EmitterGeometry(1, KD)
    poly = build_functional(g, [0.4])
    # 1 - f1 f1*: exactly two terms
    assert len(poly.terms) == 2
    assert poly.coefficient((0,), (0,)) == pytest.approx(1.0)
    assert poly.coefficient((1,), (1,)) == pytest.approx(-1.0)


def test_two_atom_coincidence_from_coefficient():
    g = EmitterGeometry(2, KD)
    theta1, theta2 = 0.0, -0.5
    x = g.kd * (math.sin(theta1) - math.sin(theta2))
    poly = build_functional(g, [theta1, theta2])
    assert extract_gm(poly, (1, 1)) == pytest.approx(2 * (1 + math.cos(x)), abs=1e-12)


def test_hermiticity_of_terms():
    g = EmitterGeometry(4, KD)
    poly = build_functional(g, [0.3, 1.0, -0.8])
    for (a, b), coeff in poly.terms.items():
        assert poly.coefficient(b, a) == pytest.approx(coeff.conjugate(), abs=1e-12)


def test_polynomial_is_exactly_hermitian():
    # Exact, not approximate: the diagonal coefficients extract_gm reads must
    # carry no imaginary rounding residue for its realness guard.
    rng = np.random.default_rng(4)
    for n, k in [(8, 3), (6, 4), (20, 2)]:
        poly = build_functional(EmitterGeometry(n, KD), list(rng.uniform(-1.5, 1.5, k)))
        for (a, b), coeff in poly.terms.items():
            assert poly.terms[(b, a)] == coeff.conjugate()


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
    poly = build_functional(g, angles)
    assert poly.terms.keys() == expected.keys()
    # Summation order differs; a few hundred roundings of the largest term.
    tol = 1e-13 * max(abs(v) for v in expected.values())
    for key, value in expected.items():
        assert abs(poly.terms[key] - value) <= tol, key


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    kd=st.floats(0.1, 12.0),
    angles=st.lists(st.floats(-math.pi / 2, math.pi / 2), min_size=1, max_size=3),
)
def test_integer_keyed_build_matches_reference_product(n, kd, angles):
    g = EmitterGeometry(n, kd)
    expected = _reference_product(g, angles)
    poly = build_functional(g, angles)
    assert poly.terms.keys() == expected.keys()
    tol = 1e-13 * max(abs(v) for v in expected.values())
    for key, value in expected.items():
        assert abs(poly.terms[key] - value) <= tol, key
        assert poly.coefficient(*key) == poly.terms[key]


def test_coefficient_is_zero_off_the_term_set():
    n = 3
    poly = build_functional(EmitterGeometry(n, KD), [0.2, 0.6])
    assert poly.radix == n + 1
    assert poly.coefficient((0, 1), (0, 1)) != 0
    # (4, 0) would have the digits of (0, 1) in base 4; 4 > N has no term.
    assert poly.coefficient((4, 0), (0, 1)) == 0
    assert poly.coefficient((0, 1), (4, 0)) == 0
    # Negative exponents: (-1, 1) would have the digits of (3, 0).
    assert poly.coefficient((3, 0), (3, 0)) != 0
    assert poly.coefficient((-1, 1), (3, 0)) == 0
    assert poly.coefficient((-1, 2), (1, 0)) == 0
    assert poly.coefficient((1, 1), (1, 0)) == 0  # unbalanced degrees
    assert poly.coefficient((2, 2), (2, 2)) == 0  # degree beyond N
    assert poly.coefficient((1.5, 0), (1, 0)) == 0  # not an integer; (1, 0) has a term
    assert poly.coefficient((1.0, 0), (1, 0)) == poly.coefficient((1, 0), (1, 0))
    # Wrong lengths: (1,), (0, 1, 0) would have the digits of (0, 1), (0, 1).
    assert poly.coefficient((1,), (0, 1, 0)) == 0
    assert poly.coefficient((1,), (1,)) == 0
    assert poly.coefficient((1, 0, 0), (1, 0, 0)) == 0


def test_keys_and_coefficients_are_read_only():
    poly = build_functional(EmitterGeometry(3, KD), [0.2, 0.6])
    assert np.all(np.diff(poly.keys) > 0)
    with pytest.raises(ValueError):
        poly.keys[0] = 1
    with pytest.raises(ValueError):
        poly.coefs[0] = 2.0


def test_extract_gm_does_not_build_the_term_mapping():
    poly = build_functional(EmitterGeometry(6, KD), [0.2, 0.6])
    extract_gm(poly, (2, 1))
    assert "terms" not in vars(poly)
    assert len(poly.terms) == sum((d + 1) ** 2 for d in range(7))
    assert "terms" in vars(poly)


@pytest.mark.parametrize("n, k", [(146, 2), (28, 3), (14, 4)])
def test_term_bound_reports_the_count_before_building(n, k):
    # Each is the smallest N over the bound for its K, so the count is the full sum.
    count = sum(math.comb(d + k - 1, k - 1) ** 2 for d in range(n + 1))
    assert count - math.comb(n + k - 1, k - 1) ** 2 <= MAX_FUNCTIONAL_TERMS < count
    with pytest.raises(ValueError, match=f"N={n}, K={k} has at least {count} terms"):
        build_functional(EmitterGeometry(n, KD), [0.1 * l for l in range(k)])


def test_total_degree_bounded():
    n = 4
    g = EmitterGeometry(n, KD)
    poly = build_functional(g, [0.1, 0.9])
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
    poly = build_functional(g, [0.1 + 0.3 * l for l in range(k)])
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
            poly = build_functional(g, [float(theta1), float(theta2)])
            x = g.kd * (math.sin(theta1) - math.sin(theta2))
            for m in range(1, n + 1):
                dev = rel_dev(extract_gm(poly, (m - 1, 1)), g_m_closed_coincident(n, m, x))
                assert dev <= 1e-9, (n, m, theta1, theta2, dev)


def test_extract_beyond_emitter_count_is_zero():
    n = 3
    g = EmitterGeometry(n, KD)
    poly = build_functional(g, [0.2, 0.6])
    assert extract_gm(poly, (n + 1, 0)) == 0.0


def test_extract_validates_multiplicities():
    g = EmitterGeometry(2, KD)
    poly = build_functional(g, [0.2, 0.6])
    with pytest.raises(ValueError):
        extract_gm(poly, (1,))
    with pytest.raises(ValueError):
        extract_gm(poly, (0, 0))
    with pytest.raises(ValueError):
        extract_gm(poly, (-1, 2))
    with pytest.raises(ValueError, match=r"integers, got \(1\.5, 0\.7\)"):
        extract_gm(poly, (1.5, 0.7))
    assert extract_gm(poly, (1.0, np.int64(1))) == extract_gm(poly, (1, 1))


def test_angle_count_cap():
    g = EmitterGeometry(2, KD)
    with pytest.raises(ValueError):
        build_functional(g, [0.1, 0.2, 0.3, 0.4, 0.5])
    with pytest.raises(ValueError):
        build_functional(g, [])


def test_coincident_extraction_matches_closed_form():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6, 8):
        g = EmitterGeometry(n, KD)
        theta1, theta2 = rng.uniform(-1.4, 1.4, size=2)
        poly = build_functional(g, [float(theta1), float(theta2)])
        x = g.kd * (math.sin(theta1) - math.sin(theta2))
        for m in range(1, n + 1):
            assert extract_gm(poly, (m - 1, 1)) == pytest.approx(
                g_m_closed_coincident(n, m, x), rel=1e-9
            )


def test_three_angle_patterns_match_exact_engine():
    rng = np.random.default_rng(9)
    for n in (3, 5):
        g = EmitterGeometry(n, KD)
        st = fully_excited(n)
        angles = [float(t) for t in rng.uniform(-1.4, 1.4, size=3)]
        poly = build_functional(g, angles)
        for mults in [(1, 1, 1), (2, 0, 1), (0, 3, 0), (1, 2, 0)]:
            if sum(mults) > n:
                continue
            det = sum(((a,) * k for a, k in zip(angles, mults)), ())
            assert extract_gm(poly, mults) == pytest.approx(
                g_m_exact(g, det, st), rel=1e-9, abs=1e-12
            )
