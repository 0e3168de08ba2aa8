"""Acceptance gate: one test (and one printed pass/fail line) per criterion."""
import math
import time

import numpy as np

from dickesim import (
    EmitterGeometry,
    conditional_g2,
    cascade_subtract,
    delta_for_detector,
    dicke_intensity_closed,
    dicke_state,
    fully_excited,
    g2_two_atom_normalized,
    g_m_closed_coincident,
    g_m_exact,
    intensity,
    two_atom_delta_state,
)
from dickesim.verify import coincident_oracle_suite, cross_method_suite, rel_dev

KD = 2 * math.pi


def report(num, ok, desc):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, desc


def theta_for_phase(x, kd=KD):
    return math.asin(-x / kd)


def test_criterion_01_two_atom_fringe():
    start = time.perf_counter()
    g = EmitterGeometry(2, KD)
    state = fully_excited(2)
    xs = np.linspace(0, 2 * math.pi, 181)
    exact = np.array(
        [g_m_exact(g, (0.0, theta_for_phase(float(x))), state) for x in xs]
    )
    closed = g_m_closed_coincident(2, 2, xs)
    target = 2 * (1 + np.cos(xs))
    ok = (
        np.abs(exact - target).max() <= 1e-12
        and np.abs(closed - target).max() <= 1e-12
        and abs(exact.max() - 4.0) <= 1e-12
        and abs(exact.min() - 0.0) <= 1e-12
    )
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0, f"two-atom fringe 2(1+cos x) ({elapsed:.2f}s)")


def test_criterion_02_hom_zero():
    g = EmitterGeometry(2, KD)
    exact = g_m_exact(g, (0.0, theta_for_phase(math.pi)), fully_excited(2))
    ok = abs(g2_two_atom_normalized(math.pi)) <= 1e-12 and abs(exact) <= 1e-12
    report(2, ok, "two-photon coincidence dip at x = pi")


def test_criterion_03_super_subradiant_intensity():
    g = EmitterGeometry(2, KD)
    sup = intensity(g, 0.0, two_atom_delta_state(0.0))
    sub = intensity(g, 0.0, two_atom_delta_state(math.pi))
    ok = abs(sup - 2.0) <= 1e-12 and abs(sub) <= 1e-12
    report(3, ok, "I(delta=0)=2 and I(delta=pi)=0 at zero phase")


def test_criterion_04_delta_equivalence():
    g = EmitterGeometry(2, KD)
    theta2 = -0.6
    tuned = two_atom_delta_state(delta_for_detector(g, theta2))
    worst = 0.0
    for theta1 in np.linspace(-math.pi / 2, math.pi / 2, 181):
        a = intensity(g, float(theta1), tuned)
        b = conditional_g2(g, theta2, float(theta1))
        worst = max(worst, abs(a - b))
    report(4, worst <= 1e-12, f"delta-tuned intensity == conditional G2 ({worst:.1e})")


def test_criterion_05_cross_oracle_equality():
    start = time.perf_counter()
    random_pairs = cross_method_suite(n_max=8, n_tuples=100, kd=KD, seed=2024)
    coincident = coincident_oracle_suite(n_max=8, n_tuples=100, kd=KD, seed=2025)
    elapsed = time.perf_counter() - start
    ok = (
        random_pairs.max_deviation <= 1e-9
        and coincident.max_deviation <= 1e-9
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        "four-route agreement, N<=8, 100 tuples "
        f"(dev {random_pairs.max_deviation:.1e}/{coincident.max_deviation:.1e}, "
        f"{elapsed:.0f}s)",
    )


def test_criterion_06_visibility_law():
    from dickesim import visibility_formula

    worst = 0.0
    for n in range(2, 11):
        xs = np.linspace(0, 2 * math.pi, 100 * n + 1)
        for m in range(1, n + 1):
            vals = g_m_closed_coincident(n, m, xs)
            measured = (vals.max() - vals.min()) / (vals.max() + vals.min())
            worst = max(worst, abs(measured - visibility_formula(n, m)))
    report(6, worst <= 1e-9, f"measured visibility matches (m-1)/(m+1-2m/N) ({worst:.1e})")


def _first_minimum_phase(n, m, step=1e-4):
    xs = np.arange(step, 1.5 * 2 * math.pi / n, step)
    vals = g_m_closed_coincident(n, m, xs)
    return float(xs[np.argmin(vals)])


def test_criterion_07_peak_and_width():
    peak_ok = True
    for n in range(2, 13):
        for m in range(1, n + 1):
            expected = math.factorial(n) * math.factorial(m) / math.factorial(n - m)
            if rel_dev(g_m_closed_coincident(n, m, 0.0), expected) > 1e-9:
                peak_ok = False
    width_ok = True
    for n in range(2, 11):
        for m in {2, n}:
            zero = _first_minimum_phase(n, m)
            if abs(zero - 2 * math.pi / n) > 1e-4 * (1 + 1e-9):
                width_ok = False
    report(7, peak_ok and width_ok, "peak N!m!/(N-m)! and first zero at 2*pi/N")


def test_criterion_08_angular_average():
    from dickesim import angular_average_gm

    worst = 0.0
    for n in range(2, 11):
        xs = np.linspace(0, 2 * math.pi, 200 * n + 1)
        for m in range(1, n + 1):
            vals = g_m_closed_coincident(n, m, xs)
            quad = float(np.trapezoid(vals, xs) / (2 * math.pi))
            worst = max(worst, rel_dev(quad, angular_average_gm(n, m)))
    report(8, worst <= 1e-6, f"phase average ((m-1)!)^2 C(N,m-1)(N-m+1) ({worst:.1e})")


def test_criterion_09_dicke_preparation():
    ok = True
    for n in range(2, 11):
        g = EmitterGeometry(n, KD)
        state = fully_excited(n)
        for m in range(1, n + 1):
            cas = cascade_subtract(g, 0.0, m - 1, state)
            fidelity = abs(cas.projected_state.overlap(dicke_state(n, m - 1))) ** 2
            expected = math.comb(n, m - 1) * math.factorial(m - 1) ** 2
            if fidelity < 1 - 1e-12 or rel_dev(cas.weight, expected) > 1e-9:
                ok = False
    report(9, ok, "cascaded subtraction prepares symmetric Dicke states, N<=10")


def test_criterion_10_dicke_intensity_identity():
    worst = 0.0
    for n in range(2, 11):
        for m in range(1, n + 1):
            norm = math.comb(n, m - 1) * math.factorial(m - 1) ** 2
            xs = np.linspace(0, 2 * math.pi, 181)
            a = dicke_intensity_closed(n, m, xs) * norm
            b = g_m_closed_coincident(n, m, xs)
            worst = max(worst, *map(rel_dev, a, b))
    single_ok = True
    for n in range(2, 11):
        if rel_dev(dicke_intensity_closed(n, n, 0.0), n) > 1e-9:
            single_ok = False
        zero = _first_minimum_phase(n, n)
        if abs(zero - 2 * math.pi / n) > 1e-4 * (1 + 1e-9):
            single_ok = False
    ok = worst <= 1e-9 and single_ok
    report(10, ok, f"Dicke intensity times weight equals closed form ({worst:.1e})")
