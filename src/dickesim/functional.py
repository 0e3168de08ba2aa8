"""Generating-polynomial route to the correlation functions.

For a fully excited register the generating object for all normally
ordered correlations factorizes into N quadratic factors, one per
emitter, in formal detector variables f_l and their conjugates.  The
product is a finite polynomial, so derivatives reduce to exact
coefficient readout: no numerics beyond complex accumulation enter.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import EmitterGeometry

MAX_DISTINCT_ANGLES = 4
# Most terms a build may hold: as many as the dense engine's largest register
# has amplitudes.  It also keeps every key below r^(2K) < 2^63.
MAX_FUNCTIONAL_TERMS = 2**20

ExponentKey = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class FormalPolynomial:
    """Polynomial in f_1..f_K and conjugates, one integer key per term.

    prod f_l^{a_l} * prod fstar_l^{b_l} has key code(a) * radix^K + code(b),
    where code(a) has the base-radix digits a_1..a_K, lowest first, and
    radix = N + 1.  keys (ascending) and coefs are read-only arrays.
    """

    keys: np.ndarray
    coefs: np.ndarray
    n_vars: int
    radix: int

    def __post_init__(self):
        self.keys.flags.writeable = False
        self.coefs.flags.writeable = False

    @cached_property
    def terms(self) -> Mapping[ExponentKey, complex]:
        """((a_1..a_K), (b_1..b_K)) -> coefficient, built on first access."""
        k, r = self.n_vars, self.radix
        # codes[c]: the exponent tuple whose code is c.
        codes = [tuple(d) for d in (np.arange(r**k)[:, None] // r ** np.arange(k) % r).tolist()]
        a, b = np.divmod(self.keys, r**k)
        rows = zip(a.tolist(), b.tolist(), self.coefs.tolist())
        return MappingProxyType({(codes[i], codes[j]): c for i, j, c in rows})

    def coefficient(self, powers_f: Sequence[int], powers_fstar: Sequence[int]) -> complex:
        k, r = self.n_vars, self.radix
        digits = [*powers_fstar, *powers_f]
        # An exponent that is not an integer in 0..N would alias another term's
        # digits; it has no term.
        if len(powers_f) != k or len(powers_fstar) != k or not all(x in range(r) for x in digits):
            return 0j
        key = sum(int(x) * r**i for i, x in enumerate(digits))
        i = int(np.searchsorted(self.keys, key))
        return complex(self.coefs[i]) if i < self.keys.size and self.keys[i] == key else 0j


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
        raise ValueError(f"supported detector-angle counts are 1..{MAX_DISTINCT_ANGLES}, got {k}")
    n = geometry.n_emitters
    # The term count, sum over d <= N of C(d+K-1, K-1)^2, is checked before
    # anything is allocated; the sum stops as soon as it passes the bound.
    n_terms = 0
    for d in range(n + 1):
        n_terms += comb(d + k - 1, k - 1) ** 2
        if n_terms > MAX_FUNCTIONAL_TERMS:
            raise ValueError(
                f"the generating polynomial for N={n}, K={k} has at least {n_terms} "
                f"terms, over the bound of {MAX_FUNCTIONAL_TERMS}"
            )

    # Integer keys as in FormalPolynomial: code(a) * r^k + code(b).
    r = n + 1
    digits = np.arange(r**k) // r ** np.arange(k)[:, None] % r  # digits[l, code]
    codes = np.flatnonzero(digits.sum(axis=0) <= n)
    deg = digits[:, codes].sum(axis=0)
    by_degree = codes[np.argsort(deg, kind="stable")]  # codes of each degree together
    count = np.bincount(deg)
    # Code a pairs with every code b of its degree, in ascending order, so the
    # keys come out sorted.
    width = count[deg]
    pos = np.arange(n_terms) + np.repeat(np.cumsum(count)[deg] - np.cumsum(width), width)
    keys = np.repeat(codes * r**k, width) + by_degree[pos]
    # src[l, lp, i]: the key that f_l fstar_lp carries into key i, else n_terms,
    # a slot that always holds 0.  Key i has such a source iff a_l, b_lp >= 1,
    # and the factor adds r^(k+l) + r^lp to the source's key.
    has_source = (digits[:, None, keys // r**k] > 0) & (digits[:, keys % r**k] > 0)
    offset = r ** (k + np.arange(k))[:, None] + r ** np.arange(k)
    src = np.full((k, k, n_terms), n_terms)
    src[has_source] = np.searchsorted(keys, (keys - offset[..., None])[has_source])

    phases = np.exp(-1j * np.outer(geometry.kd * np.arange(1, n + 1), np.sin(angles)))
    coefs = np.zeros(n_terms + 1, dtype=complex)
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
        coefs[:n_terms] += step
    return FormalPolynomial(keys, coefs[:n_terms], k, r)


def extract_gm(poly: FormalPolynomial, multiplicities: Sequence[int]) -> float:
    """Read off G(m) for detector l repeated multiplicities[l] times.

    Merged repeated variables contribute (prod mult!)^2 from the repeated
    derivatives; a missing coefficient means the detection pattern is
    impossible and yields 0.
    """
    given = tuple(multiplicities)
    if not all(float(x).is_integer() for x in given):
        raise ValueError(f"multiplicities must be integers, got {given}")
    mults = tuple(int(x) for x in given)
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
