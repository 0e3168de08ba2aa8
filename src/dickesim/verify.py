"""Cross-validation suites tying the four computation routes together.

Each suite sweeps a configured (N, m) range with seeded random detector
angles, records the worst relative deviation, and reports pass/fail
against its tolerance.  The suites back both the command-line --verify
mode and the acceptance tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DetectorList, EmitterGeometry, dicke_state, fully_excited
from .correlations import (
    DEFAULT_PATH_BUDGET,
    g_m_closed_coincident,
    g_m_exact,
    g_m_pathsum,
)
from .functional import build_functional, extract_gm
from .projection import cascade_subtract, rel_dev, verify_factorization

REL_TOL = 1e-9


@dataclass
class SuiteResult:
    name: str
    tolerance: float
    max_deviation: float
    worst_case: str
    passed: bool


class _Tracker:
    def __init__(self):
        self.max_dev = 0.0
        self.worst = "none"

    def record(self, dev: float, label: str):
        if dev > self.max_dev:
            self.max_dev = dev
            self.worst = label

    def result(self, name: str) -> SuiteResult:
        return SuiteResult(
            name=name,
            tolerance=REL_TOL,
            max_deviation=self.max_dev,
            worst_case=self.worst,
            passed=self.max_dev <= REL_TOL,
        )


def cross_method_suite(
    n_max: int = 8,
    n_tuples: int = 100,
    kd: float = 2 * math.pi,
    seed: int = 0,
    path_budget: float = DEFAULT_PATH_BUDGET,
) -> SuiteResult:
    """Exact engine vs. brute-force path sum on random detector tuples."""
    rng = np.random.default_rng(seed)
    tracker = _Tracker()
    for n in range(2, n_max + 1):
        geometry = EmitterGeometry(n, kd)
        state = fully_excited(n)
        for m in range(1, n + 1):
            thetas = rng.uniform(-math.pi / 2, math.pi / 2, size=(n_tuples, m))
            for row in thetas:
                angles = tuple(float(t) for t in row)
                a = g_m_exact(geometry, angles, state)
                b = g_m_pathsum(geometry, angles, path_budget=path_budget)
                tracker.record(
                    rel_dev(a, b), f"N={n} m={m} angles={np.round(row, 4).tolist()}"
                )
    return tracker.result("cross-method (exact vs pathsum)")


def coincident_oracle_suite(
    n_max: int = 8,
    n_tuples: int = 100,
    kd: float = 2 * math.pi,
    seed: int = 1,
    path_budget: float = DEFAULT_PATH_BUDGET,
) -> SuiteResult:
    """Exact, path-sum, closed-form, and polynomial routes at coincident detectors."""
    rng = np.random.default_rng(seed)
    tracker = _Tracker()
    for n in range(2, n_max + 1):
        geometry = EmitterGeometry(n, kd)
        state = fully_excited(n)
        pairs = rng.uniform(-math.pi / 2, math.pi / 2, size=(n_tuples, 2))
        for theta1, theta2 in pairs:
            theta1, theta2 = float(theta1), float(theta2)
            poly = build_functional(geometry, [theta1, theta2])
            x = geometry.kd * (math.sin(theta1) - math.sin(theta2))
            for m in range(1, n + 1):
                det = DetectorList.coincident(theta1, m, theta2)
                values = {
                    "exact": g_m_exact(geometry, det, state),
                    "pathsum": g_m_pathsum(geometry, det, path_budget=path_budget),
                    "closed": g_m_closed_coincident(n, m, x),
                    "functional": extract_gm(poly, (m - 1, 1)),
                }
                names = list(values)
                for i, p in enumerate(names):
                    for q in names[i + 1 :]:
                        tracker.record(
                            rel_dev(values[p], values[q]),
                            f"N={n} m={m} {p}/{q} theta1={theta1:.4f} theta2={theta2:.4f}",
                        )
    return tracker.result("coincident four-way oracle")


def factorization_suite(
    n_max: int = 8,
    n_tuples: int = 20,
    kd: float = 2 * math.pi,
    seed: int = 2,
) -> SuiteResult:
    """Conditioning factorization, including the theta1 = 0 Dicke route."""
    rng = np.random.default_rng(seed)
    tracker = _Tracker()
    for n in range(2, n_max + 1):
        geometry = EmitterGeometry(n, kd)
        for m in range(1, n + 1):
            for _ in range(n_tuples):
                theta1 = float(rng.uniform(-math.pi / 2, math.pi / 2))
                theta2 = float(rng.uniform(-math.pi / 2, math.pi / 2))
                report = verify_factorization(geometry, m, theta1, theta2)
                tracker.record(
                    report.max_rel_deviation,
                    f"N={n} m={m} theta1={theta1:.4f} theta2={theta2:.4f}",
                )
            report = verify_factorization(
                geometry, m, 0.0, float(rng.uniform(-math.pi / 2, math.pi / 2))
            )
            tracker.record(report.max_rel_deviation, f"N={n} m={m} theta1=0")
    return tracker.result("conditioning factorization")


def dicke_preparation_suite(n_max: int = 10, kd: float = 2 * math.pi) -> SuiteResult:
    """Cascaded subtraction at theta1 = 0 must land on the symmetric Dicke state."""
    tracker = _Tracker()
    for n in range(2, n_max + 1):
        geometry = EmitterGeometry(n, kd)
        state = fully_excited(n)
        for m in range(1, n + 1):
            cas = cascade_subtract(geometry, 0.0, m - 1, state)
            target = dicke_state(n, m - 1)
            fidelity = abs(cas.projected_state.overlap(target)) ** 2
            tracker.record(abs(1.0 - fidelity), f"N={n} m={m} fidelity")
            expected = math.comb(n, m - 1) * math.factorial(m - 1) ** 2
            tracker.record(rel_dev(cas.weight, expected), f"N={n} m={m} weight")
    return tracker.result("Dicke preparation")


def functional_invariant_suite(
    n_max: int = 8,
    n_tuples: int = 3,
    kd: float = 2 * math.pi,
    seed: int = 3,
) -> SuiteResult:
    """Hermiticity of the polynomial and agreement with the exact engine at K = 3."""
    rng = np.random.default_rng(seed)
    tracker = _Tracker()
    for n in range(2, n_max + 1):
        geometry = EmitterGeometry(n, kd)
        state = fully_excited(n)
        triples = rng.uniform(-math.pi / 2, math.pi / 2, size=(n_tuples, 3))
        for row in triples:
            angles = [float(t) for t in row]
            poly = build_functional(geometry, angles)
            for (a, b), coeff in poly.terms.items():
                mirror = poly.coefficient(b, a)
                tracker.record(
                    abs(coeff - mirror.conjugate()), f"N={n} hermiticity {a}/{b}"
                )
            for m in range(1, n + 1):
                for m1 in range(m + 1):
                    for m2 in range(m - m1 + 1):
                        mults = (m1, m2, m - m1 - m2)
                        det = (
                            (angles[0],) * mults[0]
                            + (angles[1],) * mults[1]
                            + (angles[2],) * mults[2]
                        )
                        a_val = extract_gm(poly, mults)
                        b_val = g_m_exact(geometry, det, state)
                        tracker.record(
                            rel_dev(a_val, b_val), f"N={n} mults={mults}"
                        )
    return tracker.result("generating polynomial vs exact")


def run_all(
    n_max: int = 8,
    n_tuples: int = 25,
    kd: float = 2 * math.pi,
    seed: int = 0,
    path_budget: float = DEFAULT_PATH_BUDGET,
) -> list[SuiteResult]:
    return [
        cross_method_suite(
            n_max=n_max,
            n_tuples=n_tuples,
            kd=kd,
            seed=seed,
            path_budget=path_budget,
        ),
        coincident_oracle_suite(
            n_max=n_max, n_tuples=n_tuples, kd=kd, seed=seed + 1,
            path_budget=path_budget,
        ),
        factorization_suite(n_max=n_max, n_tuples=max(1, n_tuples // 5), kd=kd, seed=seed + 2),
        dicke_preparation_suite(n_max=max(n_max, 10), kd=kd),
        functional_invariant_suite(n_max=min(n_max, 8), kd=kd, seed=seed + 3),
    ]
