"""Koszul complex of R = S/I on the variables, one bigraded strand at a time.

Strands are spanned by wedge basis elements paired with standard monomials
(monomials outside the leading-term ideal), which the ideal memoizes per
degree together with the normal forms of all monomials.  Homology
dimensions, cycle representatives, the trivial-multiplication test, and the
derivative-cycle check all reduce to exact rational linear algebra on these
strands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .calculus import derivative_ideal, strongly_golod
from .errors import AlgebraError
from .groebner import Ideal
from .linalg import Span, Vec, kernel_of_columns
from .ring import Exps, GradingSpec, Polynomial, axpy, mono_mul, monomials_of_degree

Wedge = tuple[int, ...]
StrandKey = tuple[Wedge, Exps]
# strand coordinates: wedge -> standard monomial -> column index
StrandIndex = dict[Wedge, dict[Exps, int]]


def _wedge_weight(ring: GradingSpec, W: Wedge) -> int:
    return sum(ring.weights[i] for i in W)


def _merge_sign(W1: Wedge, W2: Wedge) -> int:
    inversions = sum(1 for a in W1 for b in W2 if a > b)
    return -1 if inversions % 2 else 1


class _Complex:
    """Strand bases, differentials, and boundary spans for one ideal."""

    def __init__(self, I: Ideal):
        self.I = I
        self.ring = I.ring
        self.n = I.ring.n
        self._basis: dict[tuple[int, int], tuple[list[StrandKey], StrandIndex]] = {}
        self._cols: dict[tuple[int, int], list[Vec]] = {}
        self._bspan: dict[tuple[int, int], Span] = {}
        self._kernel: dict[tuple[int, int], list[Vec]] = {}

    def basis(self, l: int, d: int) -> tuple[list[StrandKey], StrandIndex]:
        key = (l, d)
        if key not in self._basis:
            keys: list[StrandKey] = []
            index: StrandIndex = {}
            if 0 <= l <= self.n and d >= 0:
                for W in combinations(range(self.n), l):
                    wt = _wedge_weight(self.ring, W)
                    if wt > d:
                        continue
                    index[W] = {}
                    for m in self.I.standard_monomials(d - wt):
                        index[W][m] = len(keys)
                        keys.append((W, m))
            self._basis[key] = (keys, index)
        return self._basis[key]

    def differential_columns(self, l: int, d: int) -> list[Vec]:
        """Images of the (l, d) basis in (l-1, d) coordinates."""
        key = (l, d)
        if key not in self._cols:
            src, _ = self.basis(l, d)
            _, tgt_index = self.basis(l - 1, d)
            cols: list[Vec] = []
            for W, m in src:
                img: Vec = {}
                for k, i in enumerate(W):
                    shifted = tuple(
                        e + (1 if t == i else 0) for t, e in enumerate(m))
                    axpy(img, 1 if k % 2 == 0 else -1, self.I.nf_monomial(shifted),
                         tgt_index[W[:k] + W[k + 1:]])
                cols.append(img)
            self._cols[key] = cols
        return self._cols[key]

    def kernel(self, l: int, d: int) -> list[Vec]:
        key = (l, d)
        if key not in self._kernel:
            keys, _ = self.basis(l, d)
            if l == 0:
                self._kernel[key] = [{t: Fraction(1)} for t in range(len(keys))]
            else:
                self._kernel[key] = kernel_of_columns(self.differential_columns(l, d))
        return self._kernel[key]

    def boundary_span(self, l: int, d: int) -> Span:
        key = (l, d)
        if key not in self._bspan:
            span = Span()
            for col in self.differential_columns(l + 1, d):
                span.add(col)
            self._bspan[key] = span
        return self._bspan[key]

    def homology(self, l: int, d: int) -> tuple[int, list[Vec]]:
        """Dimension and cycle representatives extending the boundary span."""
        probe = self.boundary_span(l, d).copy()
        reps = [z for z in self.kernel(l, d) if probe.add(z)]
        return len(reps), reps


def _top_shift(I: Ideal) -> int:
    """Largest generator degree in the minimal free resolution of S/I."""
    from . import resolution

    res = resolution.minimal_free_resolution(I)
    return max((d for degs in res.shifts for d in degs), default=0)


def _window(I: Ideal, l_max: int | None, d_max: int | None) -> tuple[int, int]:
    """Fill in missing bounds: l up to the variable count, d up to the top
    resolution shift plus a margin."""
    if l_max is None:
        l_max = I.ring.n
    if d_max is None:
        d_max = _top_shift(I) + max(I.ring.weights)
    return l_max, d_max


@dataclass(frozen=True)
class HomologySummary:
    l_max: int
    d_max: int
    dims: dict[tuple[int, int], int]
    cycle_reps: dict[tuple[int, int], list[dict[StrandKey, Fraction]]]
    truncated: bool

    def total(self, l: int) -> int:
        return sum(c for (j, _), c in self.dims.items() if j == l)

    def to_json_obj(self):
        return {
            "l_max": self.l_max,
            "d_max": self.d_max,
            "truncated": self.truncated,
            "dims": [
                {"l": l, "d": d, "dim": self.dims[(l, d)]} for l, d in sorted(self.dims)
            ],
        }


def _summarize(cx: _Complex, l_max: int, d_max: int) -> HomologySummary:
    dims: dict[tuple[int, int], int] = {}
    reps: dict[tuple[int, int], list[dict[StrandKey, Fraction]]] = {}
    for l in range(0, l_max + 1):
        for d in range(0, d_max + 1):
            keys, _ = cx.basis(l, d)
            if not keys:
                continue
            dim, vecs = cx.homology(l, d)
            if dim:
                dims[(l, d)] = dim
                reps[(l, d)] = [
                    {keys[idx]: c for idx, c in sorted(v.items())} for v in vecs
                ]
    truncated = any(d == d_max for (_, d) in dims)
    if l_max < cx.n:
        truncated = truncated or any(l == l_max and l > 0 for (l, _) in dims)
    return HomologySummary(l_max, d_max, dims, reps, truncated)


def koszul_homology(I: Ideal, l_max: int | None = None, d_max: int | None = None) -> HomologySummary:
    """Bigraded Koszul homology dimensions and representatives within bounds."""
    l_max, d_max = _window(I, l_max, d_max)
    if l_max < 0 or d_max < 0:
        raise ValueError("bounds must be non-negative")
    return _summarize(_Complex(I), l_max, d_max)


@dataclass(frozen=True)
class TrivialMultiplicationReport:
    verdict: bool
    failing_pair: tuple | None
    truncated: bool


def _product_vector(cx: _Complex, z1, z2, l: int, d: int) -> Vec:
    _, index = cx.basis(l, d)
    out: Vec = {}
    for (W1, m1), c1 in z1.items():
        for (W2, m2), c2 in z2.items():
            if set(W1) & set(W2):
                continue
            W = tuple(sorted(W1 + W2))
            axpy(out, _merge_sign(W1, W2) * c1 * c2, cx.I.nf_monomial(mono_mul(m1, m2)),
                 index[W])
    return out


def trivial_multiplication_check(
    I: Ideal, l_max: int | None = None, d_max: int | None = None
) -> TrivialMultiplicationReport:
    """Whether every product of positive-degree homology classes is a boundary."""
    l_max, d_max = _window(I, l_max, d_max)
    cx = _Complex(I)
    summary = _summarize(cx, l_max, d_max)
    spots = sorted(k for k in summary.dims if k[0] >= 1)
    for a, (l1, d1) in enumerate(spots):
        for l2, d2 in spots[a:]:
            if l1 + l2 > l_max or d1 + d2 > d_max:
                continue
            for i1, z1 in enumerate(summary.cycle_reps[(l1, d1)]):
                for i2, z2 in enumerate(summary.cycle_reps[(l2, d2)]):
                    prod = _product_vector(cx, z1, z2, l1 + l2, d1 + d2)
                    if not prod:
                        continue
                    if not cx.boundary_span(l1 + l2, d1 + d2).contains(prod):
                        return TrivialMultiplicationReport(
                            False, (l1, d1, i1, l2, d2, i2), summary.truncated)
    return TrivialMultiplicationReport(True, None, summary.truncated)


def derivative_cycle_check(
    I: Ideal, l_max: int | None = None, d_max: int | None = None
) -> bool:
    """Every positive-degree class has a cycle basis with coefficients in d(I)R.

    Precondition: I is strongly Golod; the subspace of strand vectors whose
    coefficients lie in the image of the derivative ideal must surject onto
    homology at every bidegree in the window.
    """
    if not strongly_golod(I).verdict:
        raise AlgebraError("derivative cycle check needs a strongly Golod ideal")
    l_max, d_max = _window(I, l_max, d_max)
    cx = _Complex(I)
    summary = _summarize(cx, l_max, d_max)
    dgens = derivative_ideal(I).generators
    dbasis: dict[int, list[dict[Exps, Fraction]]] = {}

    def derivative_image_basis(e: int) -> list[dict[Exps, Fraction]]:
        # basis of the degree-e slice of d(I)*R, over standard monomials
        if e not in dbasis:
            std = I.standard_monomials(e)
            std_index = {u: t for t, u in enumerate(std)}
            span = Span()
            basis = []
            for f in dgens:
                fdeg = f.homogeneity().degree
                for m in monomials_of_degree(I.ring.weights, e - fdeg):
                    vec: Vec = {}
                    for u, c in (Polynomial.monomial(I.ring, m) * f).terms:
                        axpy(vec, c, I.nf_monomial(u), std_index)
                    if vec and span.add(vec):
                        basis.append({std[i]: c for i, c in vec.items()})
            dbasis[e] = basis
        return dbasis[e]

    for (l, d), dim in sorted(summary.dims.items()):
        if l == 0:
            continue
        _, index = cx.basis(l, d)
        sub_vectors: list[Vec] = []
        for W in combinations(range(cx.n), l):
            wt = _wedge_weight(cx.ring, W)
            if wt > d:
                continue
            for bv in derivative_image_basis(d - wt):
                sub_vectors.append({index[W][u]: c for u, c in bv.items()})
        if not sub_vectors:
            return False
        cols = []
        diff = cx.differential_columns(l, d)
        for sv in sub_vectors:
            img: Vec = {}
            for idx, c in sv.items():
                axpy(img, c, diff[idx])
            cols.append(img)
        captured = cx.boundary_span(l, d).copy()
        base_dim = captured.dim
        for combo in kernel_of_columns(cols):
            z: Vec = {}
            for j, c in combo.items():
                axpy(z, c, sub_vectors[j])
            captured.add(z)
        if captured.dim - base_dim < dim:
            return False
    return True
