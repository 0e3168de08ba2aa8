"""Every cross-validation suite must fail when one of the routes it compares is wrong.

Each test first runs the suite as is at a small size, then plants a fault in
one route, as the suite's module sees it, and runs the suite again.
"""
import pytest

import dickesim.correlations
import dickesim.projection
import dickesim.verify
from dickesim.verify import (
    coincident_oracle_suite,
    cross_method_suite,
    dicke_preparation_suite,
    factorization_suite,
    functional_invariant_suite,
)


def scaled(fn, factor=1 + 1e-6):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


def flipped_pathsum(geometry, angles, **kwargs):
    angles = tuple(angles)
    return dickesim.correlations.g_m_pathsum(
        geometry, (-angles[0],) + angles[1:], **kwargs
    )


def offset_cascade(geometry, theta1, count, state):
    return dickesim.projection.cascade_subtract(geometry, theta1 + 0.1, count, state)


CASES = [
    (lambda: cross_method_suite(n_max=4, n_tuples=5),
     dickesim.verify, "g_m_pathsum", flipped_pathsum),
    (lambda: coincident_oracle_suite(n_max=4, n_tuples=5),
     dickesim.verify, "g_m_closed_coincident",
     scaled(dickesim.verify.g_m_closed_coincident)),
    (lambda: factorization_suite(n_max=4, n_tuples=2),
     dickesim.projection, "g_m_exact", scaled(dickesim.projection.g_m_exact)),
    (lambda: dicke_preparation_suite(n_max=4),
     dickesim.verify, "cascade_subtract", offset_cascade),
    (lambda: functional_invariant_suite(n_max=4, n_tuples=2),
     dickesim.verify, "extract_gm", scaled(dickesim.verify.extract_gm)),
]


@pytest.mark.parametrize(
    "suite, module, route, faulty",
    CASES,
    ids=["cross-method", "coincident-oracle", "factorization", "dicke-preparation",
         "functional-invariant"],
)
def test_planted_fault_fails_the_suite(suite, module, route, faulty, monkeypatch):
    clean = suite()
    assert clean.passed, clean
    monkeypatch.setattr(module, route, faulty)
    result = suite()
    assert not result.passed
    assert result.worst_case != "none"
