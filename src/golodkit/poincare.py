"""Serre's bound versus the actual Poincare series, on a finite window.

Both series are bigraded: t tracks homological degree, u internal degree.
The bound is the rational function prod(1 + t*u^a_i) / (1 - sum dim
H_l(R)_d t^(l+1) u^d) expanded exactly; the actual series counts minimal
generators in a degreewise minimal free resolution of the residue field
over R, which is exact for every bidegree inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AlgebraError, ImproperIdealError
from .groebner import Ideal
from .koszul import _top_shift, koszul_homology
from .linalg import Span, Vec, integral, kernel_of_columns
from .ring import Exps, axpy, mono_mul

Coeffs = dict[tuple[int, int], int]

GOLOD = "GOLOD-up-to-truncation"
NOT_GOLOD = "NOT-GOLOD"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class BigradedSeries:
    """Truncated series with non-negative integer coefficients at (t^i, u^d)."""

    coefficients: Coeffs
    i_max: int
    d_max: int
    truncated: bool = False

    def coefficient(self, i: int, d: int) -> int:
        return self.coefficients.get((i, d), 0)

    def totals(self) -> dict[int, int]:
        """Specialization u = 1: total coefficient per homological degree."""
        out: dict[int, int] = {}
        for (i, _), c in self.coefficients.items():
            out[i] = out.get(i, 0) + c
        return {i: out.get(i, 0) for i in range(self.i_max + 1)}

    def to_json_obj(self):
        return {
            "i_max": self.i_max,
            "d_max": self.d_max,
            "truncated": self.truncated,
            "coefficients": [
                {"i": i, "d": d, "c": self.coefficients[(i, d)]}
                for i, d in sorted(self.coefficients)
            ],
        }

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for i, d in sorted(self.coefficients):
            c = self.coefficients[(i, d)]
            factors = [str(c)] if (c != 1 or (i == 0 and d == 0)) else []
            if i:
                factors.append("t" if i == 1 else f"t^{i}")
            if d:
                factors.append("u" if d == 1 else f"u^{d}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _mul(A: Coeffs, B: Coeffs, i_max: int, d_max: int) -> Coeffs:
    out: Coeffs = {}
    for (i1, d1), c1 in A.items():
        for (i2, d2), c2 in B.items():
            i, d = i1 + i2, d1 + d2
            if i > i_max or d > d_max:
                continue
            out[(i, d)] = out.get((i, d), 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _geometric_inverse(D: Coeffs, i_max: int, d_max: int) -> Coeffs:
    """(1 - D)^{-1} for D with positive t-order, truncated."""
    if any(i < 1 for i, _ in D):
        raise AlgebraError("denominator must have positive t-order")
    inv: Coeffs = {(0, 0): 1}
    term: Coeffs = {(0, 0): 1}
    while True:
        term = _mul(term, D, i_max, d_max)
        if not term:
            return inv
        for k, c in term.items():
            inv[k] = inv.get(k, 0) + c


def _block_index(I: Ideal, shifts: list[int], d: int) -> dict[int, dict[Exps, int]]:
    """Coordinates of the degree-d part of a free R-module with generators of
    the given shifts: generator -> standard monomial -> index."""
    index: dict[int, dict[Exps, int]] = {}
    size = 0
    for j, s in enumerate(shifts):
        if s <= d:
            std = I.standard_monomials(d - s)
            index[j] = {m: size + t for t, m in enumerate(std)}
            size += len(std)
    return index


def _default_d_max(I: Ideal, i_max: int, top: int) -> int:
    return i_max * max(top, max(I.ring.weights))


def serre_bound_series(I: Ideal, i_max: int = 4, d_max: int | None = None) -> BigradedSeries:
    """Golod upper bound for the Poincare series of R = S/I, expanded exactly."""
    top = _top_shift(I)
    if d_max is None:
        d_max = _default_d_max(I, i_max, top)
    return _serre_bound(I, i_max, d_max, top)


def _serre_bound(I: Ideal, i_max: int, d_max: int, top: int) -> BigradedSeries:
    """serre_bound_series with the resolution's top shift already known."""
    hom = koszul_homology(I, I.ring.n, top + max(I.ring.weights))
    num: Coeffs = {(0, 0): 1}
    for a in I.ring.weights:
        num = _mul(num, {(0, 0): 1, (1, a): 1}, i_max, d_max)
    den: Coeffs = {}
    for (l, d), dim in hom.dims.items():
        if l >= 1:
            den[(l + 1, d)] = den.get((l + 1, d), 0) + dim
    coeffs = _mul(num, _geometric_inverse(den, i_max, d_max), i_max, d_max)
    return BigradedSeries(coeffs, i_max, d_max, truncated=hom.truncated)


def actual_poincare(I: Ideal, i_max: int = 4, d_max: int | None = None) -> BigradedSeries:
    """dim Tor_i(K, K) over R = S/I, by a degreewise minimal resolution of K.

    Each homological step keeps, per internal degree, a kernel basis of the
    previous differential; new generators are kernel vectors independent of
    the span of variable multiples of lower-degree kernel elements.  All
    numbers inside the window are exact.
    """
    if not I.is_proper():
        raise ImproperIdealError("the residue field of the zero ring has no resolution")
    if d_max is None:
        d_max = _default_d_max(I, i_max, _top_shift(I))
    if i_max < 0 or d_max < 0:
        raise ValueError("bounds must be non-negative")
    ring = I.ring
    # Only spans and their dimensions are read below, so every vector may be
    # rescaled: kernel vectors are kept as integer multiples, and normal-form
    # coefficients that are integers as ints, which keeps most sums integer.
    nf_memo: dict[Exps, dict[Exps, int | Fraction]] = {}

    def nf(u: Exps) -> dict[Exps, int | Fraction]:
        out = nf_memo.get(u)
        if out is None:
            out = nf_memo[u] = {v: c.numerator if c.denominator == 1 else c
                                for v, c in I.nf_monomial(u).items()}
        return out

    coeffs: Coeffs = {(0, 0): 1}
    truncated = False

    # F_{i-1} data: generator shifts and images over the F_{i-2} degree basis
    shifts_prev: list[int] = [0]
    images_prev: list[dict[tuple[int, Exps], Fraction] | None] = [None]
    shifts_prev2: list[int] = []

    for i in range(1, i_max + 1):
        kernels: dict[int, list[dict[tuple[int, Exps], Fraction]]] = {}
        new_shifts: list[int] = []
        new_images: list[dict[tuple[int, Exps], Fraction]] = []
        for d in range(0, d_max + 1):
            src_index = _block_index(I, shifts_prev, d)
            src_keys = [(j, m) for j, block in src_index.items() for m in block]
            if not src_keys:
                kernels[d] = []
                continue
            if i == 1:
                kern = [{key: 1} for key in src_keys] if d >= 1 else []
            else:
                tgt_index = _block_index(I, shifts_prev2, d)
                columns: list[Vec] = []
                for j, m in src_keys:
                    img: Vec = {}
                    for (r, u), c in images_prev[j].items():
                        axpy(img, c, nf(mono_mul(m, u)), tgt_index[r])
                    columns.append(img)
                kern = []
                for combo in kernel_of_columns(columns):
                    kern.append({src_keys[t]: c for t, c in integral(combo)[0].items()})
            kernels[d] = kern
            if not kern:
                continue
            # Variable multiples of lower kernels lie in this kernel (it is an
            # R-submodule), so once they span it nothing here is a new generator.
            span = Span()
            lower = ((t_var, w) for t_var in range(ring.n)
                     for w in kernels.get(d - ring.weights[t_var], []))
            for t_var, w in lower:
                if span.dim == len(kern):
                    break
                moved: Vec = {}
                for (j, m), c in w.items():
                    lifted = tuple(
                        e + (1 if p == t_var else 0) for p, e in enumerate(m))
                    axpy(moved, c, nf(lifted), src_index[j])
                span.add(moved)
            for w in kern:
                if span.dim == len(kern):
                    break
                as_vec = {src_index[j][m]: c for (j, m), c in w.items()}
                if not span.add(as_vec):
                    continue
                if not all(any(m) for (_, m) in w):
                    raise AlgebraError("unit entry would make the resolution non-minimal")
                coeffs[(i, d)] = coeffs.get((i, d), 0) + 1
                new_shifts.append(d)
                new_images.append(dict(w))
            if coeffs.get((i, d_max), 0):
                truncated = True
        if not new_shifts:
            break
        shifts_prev2 = shifts_prev
        shifts_prev = new_shifts
        images_prev = list(new_images)

    return BigradedSeries(coeffs, i_max, d_max, truncated=truncated)


@dataclass(frozen=True)
class GolodVerdict:
    status: str
    first_discrepancy: tuple[int, int, int, int] | None
    i_max: int
    d_max: int
    bound: BigradedSeries
    actual: BigradedSeries

    def to_json_obj(self):
        return {
            "status": self.status,
            "first_discrepancy": list(self.first_discrepancy)
            if self.first_discrepancy
            else None,
            "i_max": self.i_max,
            "d_max": self.d_max,
            "bound": self.bound.to_json_obj(),
            "actual": self.actual.to_json_obj(),
        }


def golod_verdict(I: Ideal, i_max: int = 4, d_max: int | None = None) -> GolodVerdict:
    """Compare bound and actual series bidegree by bidegree on a shared window.

    A coefficient where the actual series falls short of the bound is
    decisive even under truncation, since the window values are exact and
    truncation only ever under-counts the bound.
    """
    top = _top_shift(I)
    if d_max is None:
        d_max = _default_d_max(I, i_max, top)
    bound = _serre_bound(I, i_max, d_max, top)
    actual = actual_poincare(I, i_max, d_max)
    for i in range(i_max + 1):
        for d in range(d_max + 1):
            b = bound.coefficient(i, d)
            a = actual.coefficient(i, d)
            if a == b:
                continue
            if a < b:
                return GolodVerdict(NOT_GOLOD, (i, d, b, a), i_max, d_max, bound, actual)
            if bound.truncated:
                return GolodVerdict(INCONCLUSIVE, (i, d, b, a), i_max, d_max, bound, actual)
            raise AlgebraError(
                f"Serre inequality violated at ({i}, {d}): actual {a} > bound {b}")
    status = INCONCLUSIVE if bound.truncated else GOLOD
    return GolodVerdict(status, None, i_max, d_max, bound, actual)
