"""m-th order intensity correlations by three independent routes.

* g_m_exact     -- operator algebra on the dense state vector
* g_m_pathsum   -- brute-force coherent sum over which-emitter assignments
                   (deliberately naive; serves as the oracle)
* g_m_closed_coincident -- analytic form for (m-1) coincident detectors

plus the derived observables: fringe visibility, peak width, angular
average, and the normalized two-atom g2.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DetectorList,
    EmitterGeometry,
    StateVector,
    apply_field,
    as_angles,
    check_order,
    fully_excited,
)

DEFAULT_PATH_BUDGET = 1e8
# Below this |sin(x/2)| the interference kernel is replaced by its limit N^2.
SINGULARITY_EPS = 1e-8

METHODS = ("exact", "pathsum", "closed", "functional")


class PathBudgetExceeded(RuntimeError):
    """The brute-force path enumeration would exceed its configured budget."""


def g_m_exact(geometry: EmitterGeometry, detectors, state: StateVector) -> float:
    """Normally ordered m-fold correlation at the given detector angles.

    Applies E+(theta_j) for every detector and returns the squared norm of
    the image.  Exactly 0 when m exceeds the number of excitations.
    """
    angles = as_angles(detectors)
    if not state.is_normalized():
        raise ValueError("g_m_exact requires a normalized state")
    current = state
    for theta in angles:
        current = apply_field(geometry, theta, current)
    return current.norm_sq()


def g_m_pathsum(
    geometry: EmitterGeometry,
    detectors,
    path_budget: float = DEFAULT_PATH_BUDGET,
) -> float:
    """Brute-force correlation of the fully excited state.

    Sums, for every m-element emitter subset, the coherent amplitude over
    all m! assignments of detectors to emitters, and adds the squared
    moduli incoherently.  Complexity C(N, m) * m!.
    """
    angles = as_angles(detectors)
    n = geometry.n_emitters
    m = len(angles)
    if m > n:
        raise ValueError(f"cannot detect {m} photons from {n} single-photon emitters")
    n_paths = math.comb(n, m) * math.factorial(m)
    if n_paths > path_budget:
        raise PathBudgetExceeded(
            f"{n_paths} paths exceed the budget of {path_budget:g}"
        )
    # phase_matrix[l, j] = exp(-i * phi(emitter l+1, theta_j))
    emitter_idx = np.arange(1, n + 1, dtype=float)
    sines = np.sin(np.asarray(angles, dtype=float))
    phase_matrix = np.exp(-1j * geometry.kd * np.outer(emitter_idx, sines))

    subsets = np.array(list(itertools.combinations(range(n), m)))
    perms = np.array(list(itertools.permutations(range(m))))
    cols = np.arange(m)

    total = 0.0
    # chunk so the (subsets x m! x m) gather stays small
    chunk = max(1, int(2**20 // (perms.shape[0] * m)))
    for start in range(0, subsets.shape[0], chunk):
        block = subsets[start : start + chunk]
        # paths[s, p, j] = phase of emitter block[s, perms[p, j]] toward detector j
        paths = phase_matrix[block[:, perms], cols]
        amplitudes = paths.prod(axis=2).sum(axis=1)
        total += float((amplitudes.real**2 + amplitudes.imag**2).sum())
    return total


def interference_kernel(n_emitters: int, phase_x: float) -> float:
    """sin^2(N x/2)/sin^2(x/2) with the removable singularity filled by N^2."""
    half = math.sin(phase_x / 2.0)
    if abs(half) < SINGULARITY_EPS:
        return float(n_emitters) ** 2
    return (math.sin(n_emitters * phase_x / 2.0) / half) ** 2


def _count_prefactor(n: int, m: int) -> float:
    # N! (m-1)! / (N-m)! in exact integers; float() raises OverflowError past 1.8e308
    return float(math.factorial(n) * math.factorial(m - 1) // math.factorial(n - m))


def g_m_closed_coincident(n_emitters: int, order_m: int, phase_x: float) -> float:
    """Analytic G(m) for (m-1) coincident detectors vs. inter-detector phase x."""
    n, m = n_emitters, order_m
    check_order(n, m)
    if n == 1:
        return 1.0
    kernel = interference_kernel(n, phase_x)
    return _count_prefactor(n, m) * (
        (n - m) / (n - 1) + (m - 1) * kernel / (n * (n - 1))
    )


def g2_two_atom_normalized(phase_x: float) -> float:
    """Normalized two-atom coincidence fringe, 0 at the two-photon dip."""
    return 0.5 * (1.0 + math.cos(phase_x))


def g2_thermal_reference(gamma_mod: float) -> float:
    """Classic thermal-source bunching value 1 + |gamma|^2 (comparison constant)."""
    if not 0.0 <= gamma_mod <= 1.0:
        raise ValueError(f"coherence modulus must lie in [0, 1], got {gamma_mod}")
    return 1.0 + gamma_mod**2


def visibility_formula(n_emitters: int, order_m: int) -> float:
    """Fringe visibility of the coincident-detector correlation pattern."""
    n, m = n_emitters, order_m
    if n < 2 or not 1 <= m <= n:
        raise ValueError(f"need N >= 2 and 1 <= m <= N, got N={n}, m={m}")
    return (m - 1) / (m + 1 - 2 * m / n)


def peak_width_estimate(n_emitters: int, kd: float) -> float:
    """Angular width of the central maximum, 2*pi/(N*kd)."""
    if n_emitters < 2:
        raise ValueError(f"need N >= 2, got {n_emitters}")
    if not kd > 0:
        raise ValueError(f"kd must be positive, got {kd}")
    return 2.0 * math.pi / (n_emitters * kd)


def angular_average_gm(n_emitters: int, order_m: int) -> float:
    """Mean of the coincident-detector correlation over one phase period."""
    n, m = n_emitters, order_m
    check_order(n, m)
    return float(math.factorial(m - 1) ** 2 * math.comb(n, m - 1) * (n - m + 1))


@dataclass(frozen=True)
class CorrelationCurve:
    """Correlation values sampled over a theta2 grid at fixed theta1."""

    theta2_grid: np.ndarray
    phase_x: np.ndarray
    values: np.ndarray
    method: str


@dataclass(frozen=True)
class CurveSummary:
    visibility: float
    peak_value: float
    first_zero_phase: float
    angular_mean: float


def scan_curve(
    geometry: EmitterGeometry,
    order_m: int,
    theta1: float,
    theta2_grid,
    method: str,
    path_budget: float = DEFAULT_PATH_BUDGET,
) -> CorrelationCurve:
    """Evaluate G(m) with (m-1) detectors at theta1 over a theta2 grid.

    Each grid point is computed independently; tiny negative rounding
    residues (>= -1e-9) are clamped to zero in the stored curve.  Non-finite
    inputs, and values that overflow a float, raise ValueError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if not math.isfinite(theta1):
        raise ValueError(f"theta1 must be finite, got {theta1}")
    grid = np.asarray(theta2_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("theta2 grid must be a non-empty 1-d sequence")
    if not np.isfinite(grid).all():
        bad = np.unique(grid[~np.isfinite(grid)])
        raise ValueError(f"theta2 grid must be finite, got {bad.tolist()}")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("theta2 grid must be strictly increasing")
    n = geometry.n_emitters
    check_order(n, order_m)

    phase_x = geometry.kd * (math.sin(theta1) - np.sin(grid))

    values = np.empty(grid.size, dtype=float)
    if method == "closed":
        for i, x in enumerate(phase_x):
            values[i] = g_m_closed_coincident(n, order_m, float(x))
    elif method == "exact":
        state = fully_excited(n)
        for i, theta2 in enumerate(grid):
            det = DetectorList.coincident(theta1, order_m, float(theta2))
            values[i] = g_m_exact(geometry, det, state)
    elif method == "pathsum":
        for i, theta2 in enumerate(grid):
            det = DetectorList.coincident(theta1, order_m, float(theta2))
            values[i] = g_m_pathsum(geometry, det, path_budget=path_budget)
    else:  # functional
        from .functional import build_functional, extract_gm

        for i, theta2 in enumerate(grid):
            poly = build_functional(geometry, [theta1, float(theta2)])
            values[i] = extract_gm(poly, (order_m - 1, 1))

    if not np.isfinite(values).all():
        raise ValueError(f"method {method} produced a non-finite value (float overflow)")
    if values.min() < -1e-9:
        raise ValueError(
            f"method {method} produced {values.min()}, beyond rounding residue"
        )
    values = np.maximum(values, 0.0)
    return CorrelationCurve(
        theta2_grid=grid,
        phase_x=phase_x,
        values=values,
        method=method,
    )


def summarize(curve: CorrelationCurve) -> CurveSummary:
    """Visibility, peak, first interference zero, and phase-averaged mean.

    The visibility and the mean are taken over the curve as given; for
    them to match the analytic laws the grid must cover one full fringe
    period of the phase variable.
    """
    order = np.argsort(curve.phase_x, kind="stable")
    x = curve.phase_x[order]
    v = curve.values[order]

    vmax = float(v.max())
    vmin = float(v.min())
    visibility = 0.0 if vmax + vmin == 0.0 else (vmax - vmin) / (vmax + vmin)

    first_zero = math.nan
    for i in range(1, v.size - 1):
        if x[i] > 0.0 and v[i] <= v[i - 1] and v[i] <= v[i + 1] and v[i] < vmax:
            first_zero = float(x[i])
            break

    if x.size > 1 and x[-1] > x[0]:
        angular_mean = float(np.trapezoid(v, x) / (x[-1] - x[0]))
    else:
        angular_mean = float(v.mean())

    return CurveSummary(
        visibility=visibility,
        peak_value=vmax,
        first_zero_phase=first_zero,
        angular_mean=angular_mean,
    )
