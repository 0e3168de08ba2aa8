"""Generating-polynomial route to the correlation functions.

For a fully excited register the generating object for all normally
ordered correlations factorizes into N quadratic factors, one per
emitter, in formal detector variables f_l and their conjugates.  The
product is a finite polynomial, so derivatives reduce to exact
coefficient readout: no numerics beyond complex accumulation enter.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import EmitterGeometry

MAX_DISTINCT_ANGLES = 4

ExponentKey = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class FormalPolynomial:
    """Polynomial in f_1..f_K and conjugates, keyed by exponent tuples.

    terms maps ((a_1..a_K), (b_1..b_K)) -> coefficient of
    prod f_l^{a_l} * prod fstar_l^{b_l}.
    """

    terms: Mapping[ExponentKey, complex]
    n_vars: int

    def __post_init__(self):
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))

    def coefficient(self, powers_f: Sequence[int], powers_fstar: Sequence[int]) -> complex:
        key = (tuple(powers_f), tuple(powers_fstar))
        return self.terms.get(key, 0.0 + 0.0j)


def _compositions(degree: int, k: int) -> list[tuple[int, ...]]:
    """All k-tuples of nonnegative integers that sum to degree."""
    if k == 1:
        return [(degree,)]
    return [
        (first,) + rest
        for first in range(degree, -1, -1)
        for rest in _compositions(degree - first, k - 1)
    ]


def build_functional(
    geometry: EmitterGeometry, distinct_angles: Sequence[float]
) -> FormalPolynomial:
    """Expand the per-emitter product form over K distinct detector angles.

    Each emitter j contributes a factor 1 - |sum_l c_{l,j} f_l|^2 with
    c_{l,j} the far-field phase from emitter j toward angle l.  Every
    factor adds one f and one fstar, so the terms are exactly the keys
    (a, b) with |a| = |b| <= N; the product is taken over that known term
    set by gathers, one emitter at a time.
    """
    angles = [float(a) for a in distinct_angles]
    k = len(angles)
    if not 1 <= k <= MAX_DISTINCT_ANGLES:
        raise ValueError(
            f"supported detector-angle counts are 1..{MAX_DISTINCT_ANGLES}, got {k}"
        )
    n = geometry.n_emitters

    # Keys listed by degree d: (a, b) sits at start[d] + rank(a) * len(comps[d]) + rank(b).
    comps = [_compositions(d, k) for d in range(n + 1)]
    start = np.cumsum([0] + [len(c) ** 2 for c in comps])
    spare = int(start[-1])  # a slot that always holds 0
    # src[l, lp, i]: the key that f_l fstar_lp carries into key i, else spare.
    src = np.full((k, k, spare + 1), spare, dtype=np.intp)
    for d in range(1, n + 1):
        rank = {a: r for r, a in enumerate(comps[d - 1])}
        # down[l, r]: rank of comps[d][r] - e_l in degree d-1, or -1 if a_l = 0.
        down = np.array(
            [[rank.get(a[:l] + (a[l] - 1,) + a[l + 1:], -1) for a in comps[d]]
             for l in range(k)]
        )
        width = len(comps[d - 1])
        for l in range(k):
            for lp in range(k):
                block = np.where(
                    np.logical_and.outer(down[l] >= 0, down[lp] >= 0),
                    start[d - 1] + np.add.outer(down[l] * width, down[lp]),
                    spare,
                )
                src[l, lp, start[d]:start[d + 1]] = block.ravel()

    phases = np.exp(-1j * np.outer(geometry.kd * np.arange(1, n + 1), np.sin(angles)))
    coefs = np.zeros(spare + 1, dtype=complex)
    coefs[0] = 1.0
    for c in phases:
        # Key (b, a) gets the exact conjugate of every addend of key (a, b), in
        # the same order, so the polynomial stays exactly hermitian and each
        # coefficient extract_gm reads is exactly real.
        step = sum(-(c[l].real ** 2 + c[l].imag ** 2) * coefs[src[l, l]] for l in range(k))
        for l in range(k):
            for lp in range(l + 1, k):
                w = -c[l] * c[lp].conjugate()
                step = step + (w * coefs[src[l, lp]] + w.conjugate() * coefs[src[lp, l]])
        coefs = coefs + step
    keys = [(a, b) for cd in comps for a in cd for b in cd]
    return FormalPolynomial(dict(zip(keys, coefs[:spare].tolist())), k)


def extract_gm(poly: FormalPolynomial, multiplicities: Sequence[int]) -> float:
    """Read off G(m) for detector l repeated multiplicities[l] times.

    Merged repeated variables contribute (prod mult!)^2 from the repeated
    derivatives; a missing coefficient means the detection pattern is
    impossible and yields 0.
    """
    mults = tuple(int(x) for x in multiplicities)
    if len(mults) != poly.n_vars:
        raise ValueError(
            f"expected {poly.n_vars} multiplicities, got {len(mults)}"
        )
    if any(x < 0 for x in mults):
        raise ValueError(f"multiplicities must be nonnegative, got {mults}")
    m = sum(mults)
    if m < 1:
        raise ValueError("total detection order must be at least 1")

    coeff = poly.coefficient(mults, mults)
    scale = 1.0
    for x in mults:
        scale *= factorial(x)
    value = (-1.0) ** m * scale**2 * coeff
    if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
        raise ValueError(f"extracted value is not real: {value}")
    if value.real < -1e-12 * max(1.0, scale**2):
        raise ValueError(f"extracted value is negative: {value.real}")
    return max(value.real, 0.0)
