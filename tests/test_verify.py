"""Every cross-validation suite must fail when one of the routes it compares is wrong.

Each test first runs the suite as is at a small size, then plants a fault in
one route, as the suite's module sees it, and runs the suite again.
"""
import math

import numpy as np
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
    run_all,
)


def scaled(fn, factor=1 + 1e-6):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


def flipped_pathsum(geometry, stack, **kwargs):
    stack = np.array(stack, dtype=float)
    stack[:, 0] = -stack[:, 0]
    return dickesim.correlations.g_m_pathsum(geometry, stack, **kwargs)


def offset_cascade(geometry, theta1, count, state):
    return dickesim.projection.cascade_subtract(geometry, theta1 + 0.1, count, state)


CASES = [
    (lambda: cross_method_suite(n_max=4, n_tuples=5),
     dickesim.verify, "g_m_pathsum", flipped_pathsum),
    (lambda: cross_method_suite(n_max=4, n_tuples=3),
     dickesim.verify, "g_m_pathsum", lambda geometry, stack: np.full(len(stack), math.nan)),
    (lambda: coincident_oracle_suite(n_max=4, n_tuples=5),
     dickesim.verify, "g_m_closed_coincident",
     scaled(dickesim.verify.g_m_closed_coincident)),
    (lambda: factorization_suite(n_max=4, n_tuples=2),
     dickesim.verify, "g_m_exact", scaled(dickesim.verify.g_m_exact)),
    (lambda: factorization_suite(n_max=4, n_tuples=2),
     dickesim.verify, "cascade_subtract", offset_cascade),
    (lambda: dicke_preparation_suite(n_max=4),
     dickesim.verify, "cascade_subtract", offset_cascade),
    (lambda: functional_invariant_suite(n_max=4, n_tuples=2),
     dickesim.verify, "extract_gm", scaled(dickesim.verify.extract_gm)),
]


@pytest.mark.parametrize(
    "suite, module, route, faulty",
    CASES,
    ids=["cross-method", "cross-method-nan", "coincident-oracle", "factorization",
         "factorization-cascade", "dicke-preparation", "functional-invariant"],
)
def test_planted_fault_fails_the_suite(suite, module, route, faulty, monkeypatch):
    clean = suite()
    assert clean.passed, clean
    monkeypatch.setattr(module, route, faulty)
    result = suite()
    assert not result.passed
    assert result.worst_case != "none"


def test_functional_suite_builds_once_per_n(monkeypatch):
    # One stacked build per N over its triples: N = 2..8 is 7 builds, not 21.
    build = dickesim.verify.build_functional
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].n_emitters)
        return build(*args, **kwargs)

    monkeypatch.setattr(dickesim.verify, "build_functional", counting)
    assert functional_invariant_suite(n_max=8).passed
    assert calls == list(range(2, 9))


@pytest.mark.parametrize(
    "suite, name",
    [
        (lambda: run_all(n_max=4, n_tuples=0), "cross-method"),
        (lambda: cross_method_suite(n_max=1), "cross-method"),
        (lambda: factorization_suite(n_max=1), "conditioning factorization"),
    ],
    ids=["run-all-no-tuples", "cross-method-n1", "factorization-n1"],
)
def test_suite_that_compares_nothing_raises(suite, name):
    with pytest.raises(ValueError, match=f"suite '{name}.*compared nothing"):
        suite()
