"""m-th order intensity correlations by four independent routes.

* g_m_exact     -- operator algebra on the dense state vector; its scan,
                   _scan_exact, prepares the detected state once and reads
                   every theta2 from a QR square root of its coherence matrix
* g_m_pathsum   -- coherent sum over which-emitter assignments by Glynn's
                   formula, in whichever of two forms takes fewer terms:
                   one permanent per emitter subset, or the subset sum as
                   an elementary symmetric polynomial, time polynomial in N,
                   over classes of sign vectors on the distinct angles; at
                   every row of a (P, m) stack, both forms over blocks of rows;
                   its scan is _scan_pathsum (the oracle; shares no kernel with the engine)
* g_m_closed_coincident -- analytic form for (m-1) coincident detectors,
                   elementwise: a float for a scalar phase, an array for an array
* functional    -- characteristic functional: build, read-out and scan in functional.py

plus, beside the closed form, the Dicke-state intensity that m-1 detections
prepare (both are a count times one unit-mean fringe), the fringe
visibility, the angular average, and the two-atom g2.
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
    _real,
    apply_field,
    check_finite_angles,
    check_order,
    fully_excited,
)
from .functional import _scan_functional

# Most path-sum terms, pathsum_terms(N, m) per path sum, that one g_m_pathsum
# call, pathsum scan or verification run may take.
PATH_BUDGET = 1e8
# Most complex entries a block of points of g_m_pathsum holds: for the subset
# walk, their phases and 4 x m x m entries a subset for the gathered phase
# factors, delta @ a and their temporaries, in tiles of at most this many
# gathered factors; for the symmetric form, their phases, v and
# (2m + 2) x rows x classes symmetric-polynomial entries.  Also the most
# angles one stack of a pathsum scan holds.
PATH_CHUNK = 2**20

# Rows of phi per leaf of an exact scan's TSQR, and points per block of its
# phases: small, so that LAPACK's work buffers and the blocks stay small.
# A leaf is EXACT_ROWS rows of N complex entries, 32 KiB at N = 16.
EXACT_ROWS = 128
# Leaves per stacked QR call of that TSQR.  At N = 16 a batch holds 256 KiB of
# phi and a 128 KiB index, and the root's traced peak at (16, 8) is 0.6 MiB,
# under the scan's 2.5 MiB of state vectors; it doubles at 16 leaves.
EXACT_LEAVES = 8

METHODS = ("exact", "pathsum", "closed", "functional")


def _subset_terms(n: int, m: int) -> int:
    return math.comb(n, m) << (m - 1)


def pathsum_terms(n: int, m: int) -> int:
    """Terms of the path-sum form g_m_pathsum runs for N emitters and m detectors.

    The fewer of C(N, m) * 2^(m-1), Glynn's formula on every emitter subset,
    and 4^(m-1) * N, the subset sum as an elementary symmetric polynomial;
    on a tie, the subset walk.
    """
    return min(_subset_terms(n, m), n << (2 * m - 2))


def check_path_budget(n_terms: int) -> None:
    """Raise ValueError if n_terms path-sum terms exceed PATH_BUDGET."""
    if n_terms > PATH_BUDGET:
        raise ValueError(
            f"{n_terms} path-sum terms exceed the budget of {PATH_BUDGET:g}"
        )


def g_m_exact(geometry: EmitterGeometry, detectors, state: StateVector) -> float:
    """Normally ordered m-fold correlation at the given detector angles.

    Applies E+(theta_j) for every detector and returns the squared norm of
    the image.  Exactly 0 when m exceeds the number of excitations.
    """
    angles = DetectorList(detectors).angles
    if not state.is_normalized():
        raise ValueError("g_m_exact requires a normalized state")
    current = state
    for theta in angles:
        current = apply_field(geometry, theta, current)
    return current.norm_sq()


def g_m_pathsum(geometry: EmitterGeometry, detectors) -> np.ndarray:
    """Path-sum correlation of the fully excited state at each of P detector tuples.

    For every m-element emitter subset, the coherent amplitude over all m!
    assignments of detectors to emitters is the permanent of the m x m
    phase submatrix; the squared moduli add incoherently.  Each permanent
    is taken by Glynn's formula (D. G. Glynn, Eur. J. Combin. 31, 1887
    (2010)): a signed sum over 2^(m-1) sign vectors.  Two forms of the
    sum, both exact, and the one with fewer terms (pathsum_terms) runs:
    the subset walk, C(N, m) * 2^(m-1) terms, or the subset sum taken as
    an elementary symmetric polynomial, 4^(m-1) * N terms, which forms no
    subset and sums over classes of sign vectors on the distinct detector
    angles (_sign_classes).  Both run over blocks of points of at most
    PATH_CHUNK entries, so memory does not grow with N, nor with the
    number of points past the stack, its values and one copy of it.

    detectors is a (P, m) stack of P sets of m angles, and gives a (P,) array.
    The budget counts P * pathsum_terms(N, m) before anything is allocated;
    at repeated angles that is an upper bound on the work.
    """
    n = geometry.n_emitters
    stack = np.asarray(detectors, dtype=float)
    if stack.ndim != 2:
        raise ValueError(f"expected detector angles of shape (P, m), got {stack.shape}")
    points, m = stack.shape
    check_order(n, m)
    terms = pathsum_terms(n, m)
    check_path_budget(points * terms)
    check_finite_angles(stack)
    if terms >= _subset_terms(n, m):
        columns, form = list(range(m)), _pathsum_subsets
        # A point holds its phases, and its gathered phase factors, delta @ a
        # and their temporaries over all subsets (see _pathsum_subsets).
        per_point = n * m + 4 * m * m * math.comb(n, m)
    else:
        groups = _equal_columns(stack)
        columns = [group[0] for group in groups]
        coef, weight = _sign_classes(tuple(map(len, groups)))
        form = lambda phases: _pathsum_symmetric(phases, coef, weight)
        # A point holds its phases, v and conj(v), and e, w and the update of
        # its class pairs (see _pathsum_symmetric).
        classes = len(weight)
        per_point = n * (len(groups) + 2 * classes) + (2 * m + 2) * classes**2
    size = max(1, PATH_CHUNK // per_point)
    values = np.empty(points)
    for start in range(0, points, size):
        block = slice(start, start + size)
        values[block] = form(_phases(geometry, np.sin(stack[block, columns])))
    return values


def _equal_columns(stack: np.ndarray) -> list[list[int]]:
    """Indices of the columns equal byte for byte in every row, one list per group,
    in first-seen order."""
    groups: dict = {}
    for j in range(stack.shape[1]):
        groups.setdefault(stack[:, j].tobytes(), []).append(j)
    return list(groups.values())


def _phases(geometry: EmitterGeometry, sines: np.ndarray) -> np.ndarray:
    """phases[..., l, j] = exp(-i * phi(emitter l+1, theta_j)), from sines (..., K)."""
    emitter_idx = np.arange(1, geometry.n_emitters + 1, dtype=float)
    return np.exp(-1j * geometry.kd * (emitter_idx[:, None] * sines[..., None, :]))


def _glynn_signs(k: np.ndarray, m: int) -> np.ndarray:
    """Glynn's sign vectors k as rows: delta_0 = +1, delta_r = -1 where bit r-1 of k is set."""
    return 1 - 2 * ((2 * k[:, None] >> np.arange(m)) & 1)


def _sign_classes(multiplicities: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Glynn's sign vectors on groups of equal columns, by their minus signs in each group.

    Group g holds multiplicities[g] = mu_g equal columns, and group 0 holds
    the first column, whose sign is fixed at +1.  The class with k_g minus
    signs in group g has the coefficient mu_g - 2 k_g on the group's column,
    and its sign vectors add up to the weight prod_g C(mu'_g, k_g) (-1)^k_g,
    mu'_0 = mu_0 - 1, mu'_g = mu_g otherwise.  Returns the coefficients
    (classes, groups) and the weights (classes,).  k_0 varies fastest, then
    k_1, and so on: with every multiplicity 1 the classes are _glynn_signs'
    vectors in its order, with weight prod(delta).  g_m_pathsum takes them
    once a call and passes them to every block of _pathsum_symmetric.
    """
    mu = np.array(multiplicities)
    top = mu - (np.arange(len(mu)) == 0)
    radix = top + 1
    k = np.arange(radix.prod())[:, None] // (np.cumprod(radix) // radix) % radix
    binomials = np.array([[math.comb(t, j) for j in range(top.max() + 1)] for t in top.tolist()],
                         dtype=float)
    weight = binomials[np.arange(len(mu)), k].prod(axis=1) * (1 - 2 * (k.sum(axis=1) & 1))
    return mu - 2 * k, weight


def _pathsum_subsets(phases: np.ndarray) -> np.ndarray:
    """Sum over emitter subsets S of |perm(A_S)|^2 at P points, A being phases[p], (N, m).

    Tiles of subsets hold at most PATH_CHUNK phase factors over all P points;
    the row sums of a tile are one matrix product per block of m sign vectors.
    """
    points, n, m = phases.shape
    total = np.zeros(points)
    n_signs = 1 << (m - 1)
    subsets = itertools.combinations(range(n), m)
    size = max(1, PATH_CHUNK // (m * m * points))
    while (tile := np.fromiter(itertools.islice(subsets, size), dtype=(np.intp, (m,)))).size:
        # a[p, r, j * len(tile) + s]: phase of emitter tile[s, r] toward detector j at point p
        a = phases[:, tile.T[:, None, :], np.arange(m)[:, None]].reshape(points, m, -1)
        # perm(a) = 2^(1-m) * sum over delta of prod(delta) * prod_j sum_r delta_r a[r, j].
        # One expression per block, so that its row sums are freed before the
        # next block's are formed.
        acc = np.zeros((points, len(tile)), dtype=complex)
        for start in range(0, n_signs, m):
            delta = _glynn_signs(np.arange(start, min(start + m, n_signs)), m)
            acc += delta.prod(axis=1) @ (delta @ a).reshape(points, len(delta), m, -1).prod(axis=2)
        amplitudes = acc / n_signs
        total += (amplitudes.real**2 + amplitudes.imag**2).sum(axis=1)
    return total


def _pathsum_symmetric(phases: np.ndarray, coef: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The same sum with no subset formed: Glynn's formula on the transpose, at P points.

    phases is (P, N, G): at each of P points, the phase factors of G distinct
    detector angles, angle g repeated multiplicities[g] times, m in all, and
    coef, weight are _sign_classes(multiplicities).
    perm(A_S) = 2^(1-m) sum_delta prod(delta) prod_{l in S} v[l, delta], with
    v = A @ delta^T.  Sign vectors of one class share v, so
    the sum over S of |perm(A_S)|^2 is 4^(1-m) sum_{c, c'} weight_c weight_c'
    e_m(w), where w_l = v[l, c] conj(v[l, c']) and e_m is the m-th
    elementary symmetric polynomial.  e_0..e_m take one recurrence step per
    emitter, over blocks of class rows against every class column.
    """
    points, n, _ = phases.shape
    # Class 0 has no minus signs: its coefficients are the multiplicities.
    m = int(coef[0].sum())
    # v[l, p, c], emitter first, so that a step of the recurrence takes v[r] of each point.
    v = (phases @ coef.T).transpose(1, 0, 2)
    v_conj = v.conj()[:, :, None, :]
    cols = len(weight)
    # e, the weights w and the update w * e[lo:top] hold (2m + 2) * points * rows * cols entries.
    size = max(1, PATH_CHUNK // ((2 * m + 2) * points * cols))
    total = np.zeros(points)
    for start in range(0, cols, size):
        block = v[:, :, start:start + size, None]
        e = np.zeros((m + 1, points, block.shape[2], cols), dtype=complex)
        e[0] = 1.0
        for r in range(n):
            # After emitter r, e_k has at most r + 1 factors, and reaches e_m
            # only if k >= m - (n - 1 - r); NumPy forms the right-hand side
            # from the old e before adding it, so this is one step.
            lo, top = max(0, m - n + r), min(r + 1, m)
            e[lo + 1:top + 1] += (block[r] * v_conj[r]) * e[lo:top]
        total += (weight[start:start + size] @ e[m] @ weight).real
    return total / 4.0 ** (m - 1)


def interference_kernel(n_emitters: int, phase_x):
    """sin^2(N x/2)/sin^2(x/2) elementwise, on x reduced to [-pi, pi].

    The kernel has period 2*pi, so the phase is reduced first.  It takes its
    limit N^2 where |sin(x/2)| is below the smallest normal float: there the
    quotient of two subnormals has lost its low bits.
    """
    x = np.asarray(phase_x, dtype=float)
    x = x - 2.0 * math.pi * np.rint(x / (2.0 * math.pi))
    half = np.sin(x / 2.0)
    singular = np.abs(half) < np.finfo(float).tiny
    ratio = np.sin(n_emitters * x / 2.0) / np.where(singular, 1.0, half)
    kernel = np.where(singular, float(n_emitters) ** 2, ratio * ratio)
    return kernel if kernel.ndim else float(kernel)


def angular_average_gm(n_emitters: int, order_m: int) -> float:
    """Mean of the coincident-detector correlation over one phase period."""
    n, m = n_emitters, order_m
    check_order(n, m)
    # ((m-1)!)^2 C(N, m-1) (N-m+1) = N! (m-1)! / (N-m)! in exact integers.
    count = math.factorial(m - 1) ** 2 * math.comb(n, m - 1) * (n - m + 1)
    try:
        return float(count)
    except OverflowError:
        raise ValueError(
            f"the angular mean of G({m}) for N = {n} is too large for a float"
        ) from None


def _fringe(n: int, m: int, phase):
    """Unit-mean fringe shared by G(m) and the Dicke intensity, elementwise."""
    kernel = interference_kernel(n, phase)
    if n == 1:
        return kernel**0  # ones of the phase's shape, at a NaN phase too
    return (n - m) / (n - 1) + (m - 1) * kernel / (n * (n - 1))


def g_m_closed_coincident(n_emitters: int, order_m: int, phase_x):
    """Analytic G(m) for (m-1) coincident detectors, elementwise in the phase x.

    G(m) is its angular mean times a fringe whose mean over one period is 1.
    """
    n, m = n_emitters, order_m
    # Taken first: it checks the order and raises the count's overflow before any array work.
    mean = angular_average_gm(n, m)
    # Past the float range a value is inf, left for scan_curve to report.
    with np.errstate(over="ignore"):
        return mean * _fringe(n, m, phase_x)


def dicke_intensity_closed(n_emitters: int, order_m: int, phase):
    """Radiated intensity of the symmetric Dicke state with m-1 emitters down, elementwise."""
    n, m = n_emitters, order_m
    check_order(n, m)
    return (n - m + 1) * _fringe(n, m, phase)


def g2_two_atom_normalized(phase_x: float) -> float:
    """Normalized two-atom coincidence fringe, 0 at the two-photon dip."""
    return 0.5 * (1.0 + math.cos(phase_x))


def visibility_formula(n_emitters: int, order_m: int) -> float:
    """Fringe visibility of the coincident-detector correlation pattern."""
    n, m = n_emitters, order_m
    check_order(n, m)
    if n < 2:
        raise ValueError(f"need N >= 2, got {n}")
    return (m - 1) / (m + 1 - 2 * m / n)


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


def _scan_exact(geometry: EmitterGeometry, order_m: int, theta1: float, grid) -> np.ndarray:
    """The exact scan: the m - 1 fields at theta1 applied once, a square root of the
    coherence matrix of the state they leave by a streaming TSQR, one QR call per
    EXACT_LEAVES leaves of EXACT_ROWS rows, read in blocks of EXACT_ROWS points."""
    n = geometry.n_emitters
    values = np.empty(grid.size, dtype=float)
    # m - 1 detections at theta1 prepare psi once.  phi[t, l] = <t|sigma_l|psi>
    # over the targets t with N - m emitters up; where l is down in t the
    # gather lands on a zero amplitude of psi, which has N - m + 1 up.
    state = fully_excited(n)
    for _ in range(order_m - 1):
        state = apply_field(geometry, theta1, state)
    targets = np.flatnonzero(np.bitwise_count(np.arange(1 << n)) == n - order_m)
    # A TSQR (Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34,
    # A206 (2012)): one stacked call factors a batch of EXACT_LEAVES leaves,
    # and one more merges the running root, their R factors and, in the
    # last batch, the rows past the last full leaf.
    amps, bits = state.amplitudes, 1 << np.arange(n)
    batch = EXACT_ROWS * EXACT_LEAVES
    full = targets.size - targets.size % EXACT_ROWS
    root = np.empty((0, n), dtype=complex)
    for start in range(0, targets.size, batch):
        leaves = targets[start:min(start + batch, full)].reshape(-1, EXACT_ROWS, 1)
        tail = targets[full:start + batch, None]
        merged = [root]
        if leaves.size:
            merged.append(np.linalg.qr(amps[leaves | bits], mode="r").reshape(-1, n))
        merged.append(amps[tail | bits])
        root = np.linalg.qr(np.vstack(merged), mode="r")
    # root^H root is the coherence matrix <sigma_l psi|sigma_l' psi>, so
    # G(theta2) = |root c|^2 with c_l = exp(-i * (l * kd) * sin(theta2)).
    emitter_kd = np.arange(1, n + 1) * geometry.kd
    for start in range(0, grid.size, EXACT_ROWS):
        block = slice(start, start + EXACT_ROWS)
        image = root @ np.exp(-1j * (emitter_kd[:, None] * np.sin(grid[block])))
        values[block] = (image.real**2 + image.imag**2).sum(axis=0)
    return values


def _scan_pathsum(geometry: EmitterGeometry, order_m: int, theta1: float, grid) -> np.ndarray:
    """The path-sum scan: (P, m) stacks of at most PATH_CHUNK angles, m - 1 at theta1."""
    check_path_budget(grid.size * pathsum_terms(geometry.n_emitters, order_m))
    values = np.empty(grid.size, dtype=float)
    # Stacks of at most PATH_CHUNK angles, so that no scan holds m copies of its grid.
    size = max(1, PATH_CHUNK // order_m)
    for start in range(0, grid.size, size):
        block = grid[start:start + size, None]
        stack = np.hstack([np.full((len(block), order_m - 1), theta1), block])
        values[start:start + size] = g_m_pathsum(geometry, stack)
    return values


def scan_curve(
    geometry: EmitterGeometry,
    order_m: int,
    theta1: float,
    theta2_grid,
    method: str,
) -> CorrelationCurve:
    """Evaluate G(m) with (m-1) detectors at theta1 over a theta2 grid.

    The closed form takes the whole grid in one call, each other route its own
    scan: _scan_exact, _scan_pathsum or _scan_functional.  No route can return
    a negative value; non-finite inputs and float overflow raise ValueError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    theta1 = _real("theta1", theta1)
    grid = np.asarray(theta2_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("theta2 grid must be a non-empty 1-d sequence")
    check_finite_angles(grid, "theta2 grid")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("theta2 grid must be strictly increasing")
    n = geometry.n_emitters
    check_order(n, order_m)

    phase_x = geometry.kd * (math.sin(theta1) - np.sin(grid))

    if method == "closed":
        values = g_m_closed_coincident(n, order_m, phase_x)
    elif method == "exact":
        values = _scan_exact(geometry, order_m, theta1, grid)
    elif method == "pathsum":
        values = _scan_pathsum(geometry, order_m, theta1, grid)
    else:  # functional
        values = _scan_functional(geometry, order_m, theta1, grid)

    if not np.isfinite(values).all():
        raise ValueError(f"method {method} produced a non-finite value (float overflow)")
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
    # In the order of a stable argsort, taken only where the phases are not
    # monotone: a grid inside [-pi/2, pi/2], the default, gives them strictly
    # decreasing, read as reversed views.
    x, v = curve.phase_x, curve.values
    if (x[1:] < x[:-1]).all():
        x, v = x[::-1], v[::-1]
    elif not (x[1:] >= x[:-1]).all():
        order = np.argsort(x, kind="stable")
        x, v = x[order], v[order]

    vmax = float(v.max())
    vmin = float(v.min())
    # The visibility and the mean take halved values only where twice the
    # largest magnitude overflows: halving is exact for normal floats, so both
    # forms give the same bits there, but a half of a subnormal loses its low
    # bit and the sum of two halves may be zero.
    scale = 2.0 if math.isinf(2 * max(vmax, -vmin)) else 1.0
    total = vmax / scale + vmin / scale
    visibility = 0.0 if total == 0.0 else (vmax - vmin) / scale / total

    # First interior point at positive phase that is a local minimum below the peak.
    inner = v[1:-1]
    is_zero = (x[1:-1] > 0.0) & (inner <= v[:-2]) & (inner <= v[2:]) & (inner < vmax)
    hits = np.flatnonzero(is_zero)
    first_zero = float(x[1 + hits[0]]) if hits.size else math.nan

    if x.size > 1 and x[-1] > x[0]:
        # The trapezoid rule on the abscissa normalised to [0, 1], so that no
        # product of a phase step and a value overflows; the span itself is at
        # most 2kd.  Halved once, after the sum, on values divided by scale.
        steps = np.diff((x - x[0]) / (x[-1] - x[0]))
        angular_mean = float((steps * (v[1:] / scale + v[:-1] / scale)).sum()) / 2 * scale
    else:
        angular_mean = float(v.mean())

    return CurveSummary(
        visibility=visibility,
        peak_value=vmax,
        first_zero_phase=first_zero,
        angular_mean=angular_mean,
    )
