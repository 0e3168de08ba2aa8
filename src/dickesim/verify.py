"""Cross-validation suites tying the four computation routes together.

Each suite sweeps a configured (N, m) range with seeded random detector
angles, records the worst ``rel_dev`` between routes, and reports pass/fail
against its tolerance; a suite that compares nothing raises ValueError.
The suites back both the command-line --verify mode and the acceptance tests.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DetectorList, EmitterGeometry, apply_field, dicke_state, fully_excited, intensity
from .correlations import (
    check_path_budget,
    g_m_closed_coincident,
    g_m_exact,
    g_m_pathsum,
    pathsum_terms,
)
from .functional import build_functional, extract_gm
from .projection import cascade_subtract

REL_TOL = 1e-9
# Floor on the normalization scale of rel_dev: at a 1e-9 tolerance this admits
# an absolute discrepancy of 1e-12 for near-zero values (fringe minima).
SCALE_FLOOR = 1e-3


def rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), SCALE_FLOOR)


@dataclass
class SuiteResult:
    name: str
    max_deviation: float
    worst_case: str
    passed: bool


def _suite(name: str):
    """Reduce a suite's (deviation, case label) pairs to its SuiteResult."""

    def reduce(checks):
        @functools.wraps(checks)
        def run(*args, **kwargs) -> SuiteResult:
            max_dev, worst = 0.0, None
            for dev, label in checks(*args, **kwargs):
                # A NaN deviation is never <= anything: it is kept, and never replaced.
                if worst is None or not dev <= max_dev and not math.isnan(max_dev):
                    max_dev, worst = dev, label
            if worst is None:
                raise ValueError(f"suite {name!r} compared nothing")
            return SuiteResult(name, max_dev, worst, max_dev <= REL_TOL)

        return run

    return reduce


def _chains(n_max: int, kd: float):
    """Each chain a suite sweeps: (N, its geometry, its fully excited state), 2 <= N <= n_max."""
    for n in range(2, n_max + 1):
        yield n, EmitterGeometry(n, kd), fully_excited(n)


@_suite("cross-method (exact vs pathsum)")
def cross_method_suite(
    n_max: int = 8,
    n_tuples: int = 100,
    kd: float = 2 * math.pi,
    seed: int = 0,
):
    """Exact engine vs. brute-force path sum on random detector tuples."""
    rng = np.random.default_rng(seed)
    for n, geometry, state in _chains(n_max, kd):
        for m in range(1, n + 1):
            thetas = rng.uniform(-math.pi / 2, math.pi / 2, size=(n_tuples, m))
            for row, b in zip(thetas, g_m_pathsum(geometry, thetas).tolist()):
                a = g_m_exact(geometry, row, state)
                yield rel_dev(a, b), f"N={n} m={m} angles={np.round(row, 4).tolist()}"


@_suite("coincident four-way oracle")
def coincident_oracle_suite(
    n_max: int = 8,
    n_tuples: int = 100,
    kd: float = 2 * math.pi,
    seed: int = 1,
):
    """Exact, path-sum, closed-form, and polynomial routes at coincident detectors."""
    rng = np.random.default_rng(seed)
    for n, geometry, state in _chains(n_max, kd):
        pairs = rng.uniform(-math.pi / 2, math.pi / 2, size=(n_tuples, 2))
        poly = build_functional(geometry, pairs, (n - 1, 1))
        functional = [extract_gm(poly, (m - 1, 1)) for m in range(1, n + 1)]
        # One stack per m: m - 1 columns of theta1, then theta2.
        pathsum = [g_m_pathsum(geometry, pairs[:, [0] * (m - 1) + [1]]) for m in range(1, n + 1)]
        for i, (theta1, theta2) in enumerate(pairs.tolist()):
            x = geometry.kd * (math.sin(theta1) - math.sin(theta2))
            for m in range(1, n + 1):
                # psi = E(theta1)^(m-1) psi0 is one field on the last m's psi, and
                # the exact G(m) is ||E(theta2) psi||^2.
                psi = apply_field(geometry, theta1, psi) if m > 1 else state
                values = {
                    "exact": apply_field(geometry, theta2, psi).norm_sq(),
                    "pathsum": float(pathsum[m - 1][i]),
                    "closed": g_m_closed_coincident(n, m, x),
                    "functional": float(functional[m - 1][i]),
                }
                for (p, a), (q, b) in itertools.combinations(values.items(), 2):
                    label = f"N={n} m={m} {p}/{q} theta1={theta1:.4f} theta2={theta2:.4f}"
                    yield rel_dev(a, b), label


@_suite("conditioning factorization")
def factorization_suite(
    n_max: int = 8,
    n_tuples: int = 20,
    kd: float = 2 * math.pi,
    seed: int = 2,
):
    """Direct, cascade and (at theta1 = 0) Dicke-state routes to the coincident G(m).

    The cascade route weights the intensity of the state that m-1 detections
    at theta1 prepare; at theta1 = 0 that state is the symmetric Dicke state.
    """
    rng = np.random.default_rng(seed)
    for n, geometry, state in _chains(n_max, kd):
        for m in range(1, n + 1):
            # n_tuples random (theta1, theta2) pairs, then one theta2 at theta1 = 0.
            pairs = rng.uniform(-math.pi / 2, math.pi / 2, size=(n_tuples, 2)).tolist()
            pairs.append([0.0, rng.uniform(-math.pi / 2, math.pi / 2)])
            for i, (theta1, theta2) in enumerate(pairs):
                cas = cascade_subtract(geometry, theta1, m - 1, state)
                values = [
                    g_m_exact(geometry, DetectorList.coincident(theta1, m, theta2), state),
                    intensity(geometry, theta2, cas.projected_state) * cas.weight,
                ]
                if abs(math.sin(theta1)) < 1e-15:
                    weight = math.comb(n, m - 1) * math.factorial(m - 1) ** 2
                    values.append(intensity(geometry, theta2, dicke_state(n, m - 1)) * weight)
                angles = f"theta1={theta1:.4f} theta2={theta2:.4f}" if i < n_tuples else "theta1=0"
                for a, b in itertools.combinations(values, 2):
                    yield rel_dev(a, b), f"N={n} m={m} {angles}"


@_suite("Dicke preparation")
def dicke_preparation_suite(n_max: int = 10, kd: float = 2 * math.pi):
    """Cascaded subtraction at theta1 = 0 must land on the symmetric Dicke state."""
    for n, geometry, state in _chains(n_max, kd):
        for m in range(1, n + 1):
            cas = cascade_subtract(geometry, 0.0, m - 1, state)
            target = dicke_state(n, m - 1)
            fidelity = abs(cas.projected_state.overlap(target)) ** 2
            yield abs(1.0 - fidelity), f"N={n} m={m} fidelity"
            expected = math.comb(n, m - 1) * math.factorial(m - 1) ** 2
            yield rel_dev(cas.weight, expected), f"N={n} m={m} weight"


@_suite("generating polynomial vs exact")
def functional_invariant_suite(
    n_max: int = 8,
    n_tuples: int = 3,
    kd: float = 2 * math.pi,
    seed: int = 3,
):
    """The characteristic functional against the exact engine at K = 3."""
    rng = np.random.default_rng(seed)
    for n, geometry, state in _chains(n_max, kd):
        triples = rng.uniform(-math.pi / 2, math.pi / 2, size=(n_tuples, 3))
        poly = build_functional(geometry, triples, (n, n, n))
        orders = [(m1, m2, m - m1 - m2) for m in range(1, n + 1)
                  for m1 in range(m + 1) for m2 in range(m - m1 + 1)]
        functional = {mults: extract_gm(poly, mults) for mults in orders}
        for i, angles in enumerate(triples.tolist()):
            # Each tuple's image is one field on the image of the tuple before
            # it: the same detectors less the last one, of one order lower.
            images = {(0, 0, 0): state}
            for mults, values in functional.items():
                last = max(l for l in range(3) if mults[l])
                before = mults[:last] + (mults[last] - 1,) + mults[last + 1:]
                images[mults] = apply_field(geometry, angles[last], images[before])
                yield rel_dev(float(values[i]), images[mults].norm_sq()), f"N={n} mults={mults}"


def run_all(
    n_max: int = 8,
    n_tuples: int = 25,
    kd: float = 2 * math.pi,
    seed: int = 0,
) -> list[SuiteResult]:
    # The Dicke-preparation suite runs to N = 10 at least, the others to n_max;
    # a kd too large for the largest chain is rejected before any suite runs.
    n_dicke = max(n_max, 10)
    EmitterGeometry(n_dicke, kd)
    # The cross-method and coincident suites each take one stack of n_tuples
    # path sums at every 2 <= N <= n_max, 1 <= m <= N.  The running total is
    # checked after each N, so a large n_max stops at the first N over the budget.
    total = 0
    for n in range(2, n_max + 1):
        total += 2 * n_tuples * sum(pathsum_terms(n, m) for m in range(1, n + 1))
        check_path_budget(total)
    return [
        cross_method_suite(n_max=n_max, n_tuples=n_tuples, kd=kd, seed=seed),
        coincident_oracle_suite(n_max=n_max, n_tuples=n_tuples, kd=kd, seed=seed + 1),
        factorization_suite(n_max=n_max, n_tuples=max(1, n_tuples // 5), kd=kd, seed=seed + 2),
        dicke_preparation_suite(n_max=n_dicke, kd=kd),
        functional_invariant_suite(n_max=min(n_max, 8), kd=kd, seed=seed + 3),
    ]
