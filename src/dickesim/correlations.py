"""m-th order intensity correlations by three independent routes.

* g_m_exact     -- operator algebra on the dense state vector
* g_m_pathsum   -- coherent sum over which-emitter assignments, one
                   permanent per emitter subset by Glynn's formula
                   (shares no kernel with the engine; serves as the oracle)
* g_m_closed_coincident -- analytic form for (m-1) coincident detectors,
                   elementwise: a float for a scalar phase, an array for an array

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
from .functional import build_functional, extract_gm

# Most Glynn terms, C(N, m) * 2^(m-1) per path sum, that one g_m_pathsum call,
# pathsum scan or verification run may take.
PATH_BUDGET = 1e8
# Most phase factors (subsets x m x m) g_m_pathsum gathers at once.
PATH_CHUNK = 2**20
# Below this |sin(x/2)| the interference kernel is replaced by its limit N^2.
SINGULARITY_EPS = 1e-8

METHODS = ("exact", "pathsum", "closed", "functional")


class PathBudgetExceeded(RuntimeError):
    """The path-sum oracle would take more than PATH_BUDGET terms."""


def pathsum_terms(n: int, m: int) -> int:
    """Glynn terms of one path sum over N emitters and m detectors: C(N, m) * 2^(m-1)."""
    return math.comb(n, m) << (m - 1)


def check_path_budget(n_terms: int) -> None:
    """Raise PathBudgetExceeded if n_terms path-sum terms exceed PATH_BUDGET."""
    if n_terms > PATH_BUDGET:
        raise PathBudgetExceeded(
            f"{n_terms} path-sum terms exceed the budget of {PATH_BUDGET:g}"
        )


def _batches(tuples, size: int, width: int):
    """Consecutive (<= size, width) index arrays drawn from an iterator of tuples."""
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(tuples, size)), dtype=np.intp
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, width)


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


def g_m_pathsum(geometry: EmitterGeometry, detectors) -> float:
    """Path-sum correlation of the fully excited state.

    For every m-element emitter subset, the coherent amplitude over all m!
    assignments of detectors to emitters is the permanent of the m x m
    phase submatrix; the squared moduli add incoherently.  Each permanent
    is taken by Glynn's formula (D. G. Glynn, Eur. J. Combin. 31, 1887
    (2010)), a signed sum over 2^(m-1) sign vectors visited in Gray-code
    order, so one row update and one product per vector.  Complexity
    C(N, m) * 2^(m-1) * m.  Subsets are streamed in tiles of at most
    PATH_CHUNK phase factors, so memory does not grow with N.
    """
    angles = as_angles(detectors)
    n = geometry.n_emitters
    m = len(angles)
    if m > n:
        raise ValueError(f"cannot detect {m} photons from {n} single-photon emitters")
    check_path_budget(pathsum_terms(n, m))
    # phase_matrix[l, j] = exp(-i * phi(emitter l+1, theta_j))
    emitter_idx = np.arange(1, n + 1, dtype=float)
    sines = np.sin(np.asarray(angles, dtype=float))
    phase_matrix = np.exp(-1j * geometry.kd * np.outer(emitter_idx, sines))

    total = 0.0
    subsets = itertools.combinations(range(n), m)
    for block in _batches(subsets, max(1, PATH_CHUNK // m**2), m):
        # a[s, r, j]: phase of emitter block[s, r] toward detector j
        a = phase_matrix[block]
        # Glynn: perm(a) = 2^(1-m) * sum over delta in {+1} x {+-1}^(m-1)
        # of prod(delta) * prod_j sum_r delta_r a[r, j]
        sums = a.sum(axis=1)
        acc = sums.prod(axis=1)
        delta = [1] * m
        for k in range(1, 1 << (m - 1)):
            # Gray code: step k flips the row after k's lowest set bit,
            # and prod(delta) is (-1)^k.
            i = (k & -k).bit_length()
            delta[i] = -delta[i]
            sums += (2 * delta[i]) * a[:, i, :]
            if k & 1:
                acc -= sums.prod(axis=1)
            else:
                acc += sums.prod(axis=1)
        amplitudes = acc / (1 << (m - 1))
        total += float((amplitudes.real**2 + amplitudes.imag**2).sum())
    return total


def interference_kernel(n_emitters: int, phase_x):
    """sin^2(N x/2)/sin^2(x/2) elementwise, N^2 where |sin(x/2)| < SINGULARITY_EPS."""
    x = np.asarray(phase_x, dtype=float)
    half = np.sin(x / 2.0)
    # A single emitter is its own limit everywhere: ones of the phase's shape.
    singular = (np.abs(half) < SINGULARITY_EPS) | (n_emitters == 1)
    ratio = np.sin(n_emitters * x / 2.0) / np.where(singular, 1.0, half)
    kernel = np.where(singular, float(n_emitters) ** 2, ratio * ratio)
    return kernel if kernel.ndim else float(kernel)


def _count_prefactor(n: int, m: int) -> float:
    # N! (m-1)! / (N-m)! in exact integers, in O(m) multiplications;
    # float() raises OverflowError past 1.8e308
    return float(math.perm(n, m) * math.factorial(m - 1))


def g_m_closed_coincident(n_emitters: int, order_m: int, phase_x):
    """Analytic G(m) for (m-1) coincident detectors, elementwise in the phase x."""
    n, m = n_emitters, order_m
    check_order(n, m)
    kernel = interference_kernel(n, phase_x)
    if n == 1:
        return kernel  # ones
    # Past the float range a value is inf, left for scan_curve to report.
    with np.errstate(over="ignore"):
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
) -> CorrelationCurve:
    """Evaluate G(m) with (m-1) detectors at theta1 over a theta2 grid.

    The closed form takes the whole grid in one call, the other methods one
    point at a time.  Tiny negative rounding residues (>= -1e-9) are clamped to
    zero.  Non-finite inputs, and values that overflow a float, raise ValueError.
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
        values = g_m_closed_coincident(n, order_m, phase_x)
    elif method == "exact":
        state = fully_excited(n)
        for i, theta2 in enumerate(grid):
            det = DetectorList.coincident(theta1, order_m, float(theta2))
            values[i] = g_m_exact(geometry, det, state)
    elif method == "pathsum":
        check_path_budget(grid.size * pathsum_terms(n, order_m))
        for i, theta2 in enumerate(grid):
            det = DetectorList.coincident(theta1, order_m, float(theta2))
            values[i] = g_m_pathsum(geometry, det)
    else:  # functional
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

    # First interior point at positive phase that is a local minimum below the peak.
    inner = v[1:-1]
    is_zero = (x[1:-1] > 0.0) & (inner <= v[:-2]) & (inner <= v[2:]) & (inner < vmax)
    hits = np.flatnonzero(is_zero)
    first_zero = float(x[1 + hits[0]]) if hits.size else math.nan

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
