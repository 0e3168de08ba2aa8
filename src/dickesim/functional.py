"""Characteristic-functional route to the correlation functions.

For a fully excited register every normally ordered correlation comes from
prod_j (1 - |u_j|^2), u_j = sum_l c_{l,j} f_l, in formal detector variables
f_l.  Its coefficient of f^a fstar^b, |a| = |b| = d, is (-1)^d times the
Gram matrix sum_{|S|=d} U_S[a] conj(U_S[b]) over emitter subsets S, with
U_S = prod_{j in S} u_j.  Factors only raise exponents, so the coefficients
up to a box of powers need only those inside it.  The build keeps a square
root R_d of each degree's Gram block and adds an emitter by one QR
factorization per degree, made by one stacked QR call per shape of stack.
G is then a sum of squared moduli, read without a cancelling sum:
Householder QR is backward stable.  _scan_functional scans a theta2 grid.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import EmitterGeometry, _check_count, check_finite_angles

# Most coefficient updates a build makes per point: N * sum_d cols_d^2, where
# cols_d counts the box's exponent tuples of degree d.  It bounds both a build's
# memory and its loop length.
MAX_FUNCTIONAL_TERMS = 2**20
# Coefficients, sum_d cols_d^2 per point, that _scan_functional holds in one block of points.
BLOCK_COEFFICIENTS = 2**16

Exponents = tuple[int, ...]


def functional_updates(n: int, box: Sequence[int]) -> int:
    """N * sum_d cols_d^2, the coefficient updates of a one-point build on the box.

    Degrees stop at N, where the product does, and past
    MAX_FUNCTIONAL_TERMS // N: every degree up to |box| has a column, so a
    count cut there is already over the bound.
    """
    top = min(sum(box), n, MAX_FUNCTIONAL_TERMS // n + 1)
    cols = [1] + [0] * top
    for b in box:
        # Times 1 + x + ... + x^b: sums over windows of b + 1 degrees.
        sums = list(itertools.accumulate(cols, initial=0))
        cols = [sums[d + 1] - sums[max(0, d - b)] for d in range(top + 1)]
    return n * sum(c * c for c in cols)


@dataclass(frozen=True, eq=False)
class FormalPolynomial:
    """The characteristic functional on a box of powers.

    levels[d] lists the box's exponent tuples of degree d in ascending
    order.  factors[d] is (P, rows, len(levels[d])), one square root for each
    of the P sets of angles, and factors[d][p]^H factors[d][p] is (-1)^d
    times set p's coefficients of f^a fstar^b for a, b in levels[d].
    """

    box: tuple[int, ...]
    levels: tuple[tuple[Exponents, ...], ...]
    factors: tuple[np.ndarray, ...]

    @cached_property
    def terms(self) -> Mapping[tuple[Exponents, Exponents], np.ndarray]:
        """((a_1..a_K), (b_1..b_K)) -> (P,) coefficients, each Gram block B as (B + B^H)/2."""
        out = {}
        for d, (codes, r) in enumerate(zip(self.levels, self.factors)):
            gram = np.swapaxes(r.conj(), -1, -2) @ r
            gram = (-1) ** d * (gram + np.swapaxes(gram.conj(), -1, -2)) / 2
            for (i, a), (j, b) in itertools.product(enumerate(codes), repeat=2):
                out[(a, b)] = gram[..., i, j]
        return MappingProxyType(out)


def build_functional(geometry: EmitterGeometry, angles, box: Sequence[int]) -> FormalPolynomial:
    """Square-root build at each of P sets of K detector angles, a (P, K) stack.

    box holds the largest power of each f_l to be read.  Emitter j sets every
    R_d to the R factor of [R_d ; R_{d-1} T_j], each stack read from the
    factors before emitter j, where T_j multiplies by sum_l conj(c_{l,j}) f_l
    on the box; conjugated, so that the Gram blocks hold U_S[a] conj(U_S[b]).
    The update count (against MAX_FUNCTIONAL_TERMS) and the angles are
    checked before anything is allocated.
    """
    box = tuple(box)
    for power in box:
        _check_count("box power", power)
    box = tuple(map(operator.index, box))
    n, k = geometry.n_emitters, len(box)
    if k < 1 or min(box) < 0:
        raise ValueError(f"the box needs at least one nonnegative power, got {box}")
    if (updates := functional_updates(n, box)) > MAX_FUNCTIONAL_TERMS:
        raise ValueError(
            f"the characteristic functional for N={n} on the box {box} takes at least "
            f"{updates} coefficient updates per point, over the bound of {MAX_FUNCTIONAL_TERMS}"
        )
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != k:
        raise ValueError(f"expected angles of shape (P, K), got {angles.shape}")
    check_finite_angles(angles)
    sines = np.sin(angles)

    # levels[d]: the box's exponent tuples of degree d, ascending.
    levels = [((0,) * k,)]
    for _ in range(min(sum(box), n)):
        up = {a[:l] + (a[l] + 1,) + a[l + 1:]
              for a in levels[-1] for l in range(k) if a[l] < box[l]}
        levels.append(tuple(sorted(up)))
    codes, unit = [np.array(c) for c in levels], np.eye(k, dtype=int)
    # shifts[d - 1][l, i * cols_d + c] = 1 where codes[d][c] is codes[d - 1][i] + e_l.
    shifts = [(low[:, None] + unit[:, None, None] == high).all(-1).reshape(k, -1).astype(float)
              for low, high in zip(codes, codes[1:])]

    points = len(sines)
    factors = [np.ones((points, 1, 1), dtype=complex)]
    factors += [np.zeros((points, 0, len(c)), dtype=complex) for c in codes[1:]]
    for j in range(1, n + 1):
        cbar = np.exp(1j * (j * geometry.kd) * sines)
        # Degrees above j are still empty.  Every stack is read from the
        # factors before emitter j; then the stacks of each shape are joined
        # and factored by one stacked QR, which runs LAPACK on each matrix as
        # a call of its own would.
        groups = {}
        for d in range(min(j, len(codes) - 1), 0, -1):
            t = (cbar @ shifts[d - 1]).reshape(points, len(codes[d - 1]), len(codes[d]))
            stack = np.concatenate([factors[d], factors[d - 1] @ t], axis=-2)
            groups.setdefault(stack.shape, []).append((d, stack))
        for group in groups.values():
            r = np.linalg.qr(np.concatenate([s for _, s in group]), mode="r")
            for g, (d, _) in enumerate(group):
                factors[d] = r[g * points:(g + 1) * points]
    return FormalPolynomial(box, tuple(levels), tuple(factors))


def extract_gm(poly: FormalPolynomial, multiplicities: Sequence[int]) -> np.ndarray:
    """Read off G(m) for detector l repeated multiplicities[l] times, a (P,) array.

    G = (prod mult!)^2 ||R_m[:, mults]||^2 at each of the P sets of angles,
    the factorials from the merged repeated derivatives; more detections
    than emitters give zeros.
    """
    mults = tuple(multiplicities)
    for x in mults:
        _check_count("multiplicity", x)
    if len(mults) != len(poly.box):
        raise ValueError(f"expected {len(poly.box)} multiplicities, got {len(mults)}")
    if any(x < 0 for x in mults):
        raise ValueError(f"multiplicities must be nonnegative, got {mults}")
    m = sum(mults)
    if m < 1:
        raise ValueError("total detection order must be at least 1")
    if not all(map(operator.le, mults, poly.box)):
        raise ValueError(f"multiplicities {mults} lie outside the box {poly.box}")

    if m >= len(poly.levels):
        return np.zeros(len(poly.factors[0]))
    column = poly.factors[m][:, :, poly.levels[m].index(mults)]
    column = float(prod(map(factorial, mults))) * column
    # Past the float range a value is inf, left for the caller to report.
    with np.errstate(over="ignore"):
        return (column.real**2 + column.imag**2).sum(axis=1)


def _scan_functional(geometry: EmitterGeometry, order_m: int, theta1: float, grid) -> np.ndarray:
    """The functional scan: one build on a (P, 2) stack per block of points."""
    n, box = geometry.n_emitters, (order_m - 1, 1)
    values = np.empty(grid.size, dtype=float)
    # Blocks of points holding at most BLOCK_COEFFICIENTS coefficients, updates / N per point.
    size = max(1, BLOCK_COEFFICIENTS * n // functional_updates(n, box))
    for start in range(0, grid.size, size):
        block = grid[start:start + size, None]
        angles = np.hstack([np.full_like(block, theta1), block])
        values[start:start + size] = extract_gm(build_functional(geometry, angles, box), box)
    return values
