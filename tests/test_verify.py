"""Every cross-validation suite must fail when one of the routes it compares is wrong.

Each test first runs the suite as is at a small size, then plants a fault in
one route, as the suite's module sees it, and runs the suite again.  The
routes must also stay apart: no two share dickesim code but the input checks.
"""
import inspect
import itertools
import math
import types

import numpy as np
import pytest

import dickesim.correlations
import dickesim.functional
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
     dickesim.correlations, "g_m_closed_coincident",
     scaled(dickesim.correlations.g_m_closed_coincident)),
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


def mutant(fn, old, new):
    """fn recompiled with the one occurrence of old in its source replaced by new.

    The copy reads its module's globals, so a constant patched there reaches it.
    """
    source = inspect.getsource(fn)
    assert source.count(old) == 1
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"),
         fn.__globals__, namespace)
    return namespace[fn.__name__]


# One fault per blocked route scan, with the route's block constant made small
# in the scan's own module, so that the suite's 5-point grids span several blocks.
SCAN_FAULTS = [
    # The exact scan's coherence rows past its last full leaf never reach the
    # QR: at N = 4, m = 2 that is 2 of the 6 targets.
    ("_scan_exact", "EXACT_ROWS", 4,
     "merged.append(amps[tail | bits])",
     "merged.append(amps[tail[:0] | bits])"),
    # Each one-point path-sum block after the first starts one point early.
    ("_scan_pathsum", "PATH_CHUNK", 1,
     "block = grid[start:start + size, None]",
     "block = grid[max(start - 1, 0):max(start - 1, 0) + size, None]"),
    # The functional scan's second block reuses the first block's angles.
    ("_scan_functional", "BLOCK_COEFFICIENTS", 1,
     "block = grid[start:start + size, None]",
     "block = grid[(first := 0 if start == size else start):first + size, None]"),
]


@pytest.mark.parametrize("route, constant, value, old, new", SCAN_FAULTS,
                         ids=["exact-qr-block", "pathsum-block-start", "functional-block"])
def test_planted_scan_fault_fails_the_coincident_suite(route, constant, value, old, new,
                                                        monkeypatch):
    scan = getattr(dickesim.correlations, route)
    monkeypatch.setattr(inspect.getmodule(scan), constant, value)
    suite = lambda: coincident_oracle_suite(n_max=4, n_tuples=5)
    clean = suite()
    assert clean.passed, clean
    faulty = mutant(scan, old, new)
    monkeypatch.setattr(dickesim.correlations, route, faulty)
    result = suite()
    assert not result.passed
    assert result.worst_case != "none"


# Each route's entry functions, as module.name where they live.
ROUTES = {
    "exact": ("correlations.g_m_exact", "correlations._scan_exact"),
    "pathsum": ("correlations.g_m_pathsum", "correlations._scan_pathsum"),
    "closed": ("correlations.g_m_closed_coincident",),
    "functional": ("functional.build_functional", "functional.extract_gm",
                   "functional._scan_functional"),
}
# The input checks, the only dickesim code two routes may share.
SHARED_CHECKS = {f"dickesim.core.{name}" for name in ("_check_count", "check_order",
                                                      "check_finite_angles")}


def resolve(path):
    """The dickesim module and the object that path, module.name, names in it."""
    module, name = path.split(".")
    module = getattr(dickesim, module)
    return module, getattr(module, name)


def _code_names(code):
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_names(const)


def reached(entries):
    """Every dickesim function and class the entry functions reach, by qualified name.

    A function reaches each name its code or nested code reads, looked up in
    its own globals; a class reaches its methods.  Methods called on an
    argument, such as geometry.phase_of, and NumPy are not followed.
    """
    seen, todo = set(), [resolve(path)[1] for path in entries]
    while todo:
        obj = todo.pop()
        key = f"{obj.__module__}.{obj.__qualname__}"
        if key in seen or not obj.__module__.startswith("dickesim"):
            continue
        seen.add(key)
        if isinstance(obj, type):
            for attr in vars(obj).values():
                # classmethod and staticmethod, cached_property, property
                for unwrap in ("__func__", "func", "fget"):
                    attr = getattr(attr, unwrap, attr)
                if isinstance(attr, types.FunctionType):
                    todo.append(attr)
            continue
        for name in _code_names(obj.__code__):
            found = obj.__globals__.get(name)
            if isinstance(found, (type, types.FunctionType)):
                todo.append(found)
    return seen


def shared_beyond_the_checks():
    reach = {route: reached(entries) for route, entries in ROUTES.items()}
    pairs = itertools.combinations(reach, 2)
    return {(a, b): shared for a, b in pairs if (shared := reach[a] & reach[b] - SHARED_CHECKS)}


def test_routes_share_only_the_input_checks():
    assert shared_beyond_the_checks() == {}
    # The walk reaches each route's kernel, so an empty intersection says something.
    kernels = {"exact": "core.apply_field", "pathsum": "correlations._pathsum_symmetric",
               "closed": "correlations.interference_kernel",
               "functional": "functional.FormalPolynomial"}
    for route, kernel in kernels.items():
        assert f"dickesim.{kernel}" in reached(ROUTES[route]), route


def test_correlations_takes_only_the_functional_scan():
    # The functional route lives whole in functional.py; scan_curve's dispatch
    # is the one place correlations names it.
    names = [name for name, obj in vars(dickesim.correlations).items()
             if getattr(obj, "__module__", None) == "dickesim.functional"]
    assert names == ["_scan_functional"]


# One route made to call another route's code, with the foreign names planted in
# the mutated function's module as an import would; the walk reads the code, and
# runs none of it.
INDEPENDENCE_FAULTS = [
    ("correlations._pathsum_symmetric", ("functional.functional_updates",),
     "size = max(1, PATH_CHUNK // ((2 * m + 2) * points * cols))",
     "size = max(1, PATH_CHUNK // functional_updates(n, (m, cols)))"),
    ("correlations.g_m_closed_coincident",
     ("core.apply_field", "core.EmitterGeometry", "core.fully_excited"),
     "mean = angular_average_gm(n, m)",
     "mean = angular_average_gm(n, m) * apply_field(EmitterGeometry(1, 1.0), 0.0,"
     " fully_excited(1)).norm_sq()"),
    ("functional._scan_functional", ("correlations._phases",),
     "values = np.empty(grid.size, dtype=float)",
     "values = np.empty(grid.size, dtype=float) + 0 * _phases(geometry, np.sin(grid))[0].real"),
]


@pytest.mark.parametrize("path, foreign, old, new", INDEPENDENCE_FAULTS,
                         ids=["pathsum-calls-functional", "closed-calls-exact",
                              "functional-calls-pathsum"])
def test_a_planted_shared_kernel_fails_the_independence_check(path, foreign, old, new,
                                                               monkeypatch):
    assert shared_beyond_the_checks() == {}
    home, fn = resolve(path)
    for _, found in map(resolve, foreign):
        monkeypatch.setattr(home, found.__name__, found, raising=False)
    monkeypatch.setattr(home, fn.__name__, mutant(fn, old, new))
    assert shared_beyond_the_checks()


def test_coincident_suite_runs_each_scan_engine_once_per_n_and_m(monkeypatch):
    scan, calls = dickesim.verify.scan_curve, []

    def counting(geometry, order_m, theta1, grid, method):
        calls.append((geometry.n_emitters, order_m, method))
        assert len(grid) == 5
        return scan(geometry, order_m, theta1, grid, method)

    def refused(*args, **kwargs):
        raise AssertionError("the coincident suite computes every value through scan_curve")

    monkeypatch.setattr(dickesim.verify, "scan_curve", counting)
    for route in ("build_functional", "extract_gm", "g_m_pathsum", "g_m_exact", "apply_field"):
        monkeypatch.setattr(dickesim.verify, route, refused)
    assert coincident_oracle_suite(n_max=4, n_tuples=5).passed
    # 4 methods at each of 2 + 3 + 4 (N, m): 36 calls.
    assert calls == [(n, m, method) for n in range(2, 5) for m in range(1, n + 1)
                     for method in dickesim.correlations.METHODS]


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
    "suite, message",
    [
        # run_all refuses the count before any suite runs.
        (lambda: run_all(n_max=4, n_tuples=0), "n_tuples must be >= 1, got 0"),
        (lambda: cross_method_suite(n_max=1), "suite 'cross-method.*compared nothing"),
        (lambda: factorization_suite(n_max=1),
         "suite 'conditioning factorization.*compared nothing"),
    ],
    ids=["run-all-no-tuples", "cross-method-n1", "factorization-n1"],
)
def test_suite_that_compares_nothing_raises(suite, message):
    with pytest.raises(ValueError, match=message):
        suite()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_max": 2.5}, "n_max must be an integer, got 2.5"),
        ({"n_tuples": 2.5}, "n_tuples must be an integer, got 2.5"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"n_max": 1}, "n_max must be >= 2, got 1"),
        ({"n_tuples": -1}, "n_tuples must be >= 1, got -1"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ],
    ids=["n_max-float", "n_tuples-float", "seed-float", "n_max-1", "n_tuples-negative",
         "seed-negative"],
)
def test_run_all_refuses_its_counts_before_any_suite(kwargs, message, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(dickesim.verify, "cross_method_suite", refuse)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_all(**kwargs)
