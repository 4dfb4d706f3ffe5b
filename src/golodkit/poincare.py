"""Serre's bound versus the actual Poincare series, on a finite window.

Both series are bigraded: t tracks homological degree, u internal degree.
The bound is the rational function prod(1 + t*u^a_i) / (1 - sum dim
H_l(R)_d t^(l+1) u^d) expanded exactly; the actual series counts minimal
generators in a degreewise minimal free resolution of the residue field
over R, which is exact for every bidegree inside the window.

Serre's inequality holds coefficient by coefficient, so the resolution has
no generator where the bound is 0.  Homological step i therefore visits
internal degrees only up to the last nonzero bound coefficient in t^i; the
strands above it are never built, and the series is the same as on the
full window.  So each step completes its module, and by exactness every
kernel dimension of the next differential is an alternating sum of strand
sizes: a strand is eliminated only where the variable multiples of lower
kernel elements fall short of it, on the coordinates that are not their
pivots, and its kernel rows there are the new generators.

The bound's denominator and the default window's top shift are both read
off the Koszul complex; no resolution of S/I is computed.  The resolution
of K is itself a ``koszul._Complex``, whose generator tables grow one
homological step at a time, so its strands, kernels and the ideal's
normal-form memo come from the same code as Koszul homology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgebraError, ImproperIdealError
from .groebner import Ideal
from .koszul import Element, _Complex, _betti_dims, _coordinates, _element, _koszul
from .linalg import Span

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


def _default_d_max(I: Ideal, i_max: int, top: int) -> int:
    return i_max * max(top, max(I.ring.weights))


def serre_bound_series(I: Ideal, i_max: int = 4, d_max: int | None = None) -> BigradedSeries:
    """Golod upper bound for the Poincare series of R = S/I, expanded exactly.

    Homological degree i_max first shows at internal degree i_max * min
    weight, so a smaller d_max truncates the bound.
    """
    betti = _betti_dims(_koszul(I))
    top = max(d for _, d in betti)
    if d_max is None:
        d_max = _default_d_max(I, i_max, top)
    if i_max < 0 or d_max < 0:
        raise ValueError("bounds must be non-negative")
    weights = I.ring.weights
    num: Coeffs = {(0, 0): 1}
    for a in weights:
        num = _mul(num, {(0, 0): 1, (1, a): 1}, i_max, d_max)
    den: Coeffs = {(l + 1, d): dim for (l, d), dim in betti.items() if l >= 1}
    coeffs = _mul(num, _geometric_inverse(den, i_max, d_max), i_max, d_max)
    return BigradedSeries(coeffs, i_max, d_max, truncated=d_max < i_max * min(weights))


def _support_caps(bound: BigradedSeries) -> dict[int, int]:
    """Per homological degree i, the largest d <= d_max with bound(i, d) != 0."""
    caps: dict[int, int] = {}
    for i, d in bound.coefficients:
        caps[i] = max(caps.get(i, d), d)
    return caps


def _tor_series(I: Ideal, i_max: int, d_max: int, caps: dict[int, int]) -> BigradedSeries:
    """Degreewise minimal resolution of K over R = S/I, step i visiting the
    internal degrees 0..caps[i] (none when i is missing from caps).

    The resolution is a ``koszul._Complex`` whose tables grow one step at a
    time.  Each step visits its cap, above which Serre's inequality leaves no
    generator, so F_{i-1} is complete when step i starts and, by exactness,
    the kernel K of the differential out of F_{i-1} has in degree d the
    alternating sum of the degree-d strand sizes of F_{i-1}, ..., F_0, less
    dim K_d = [d = 0].  Variable multiples of lower kernel elements lie in K
    (an R-submodule); they are added to a span M until it reaches dim K.
    Where M falls short, K = M + (K ∩ C) with C the coordinates that are not
    pivots of M, and the kernel of the differential restricted to C holds
    exactly the new generators of F_i in degree d.  At i = i_max a degree
    that no later degree reads is only counted.  A step reads only its own
    lower degrees and the previous steps' generators, so the numbers at every
    visited bidegree are the same as on the full window (caps[i] = d_max for
    every i).
    """
    ring = I.ring
    unit = [tuple(int(p == t) for p in range(ring.n)) for t in range(ring.n)]
    coeffs: Coeffs = {(0, 0): 1}
    cx = _Complex(I, {0: {0: 0}}, {})  # F_0 = R; step i fills in F_i

    for i in range(1, i_max + 1):
        kernels: dict[int, list[Element]] = {}
        new_shifts = cx.shifts[i] = {}
        new_images = cx.images[i] = {}
        cap = caps.get(i, -1)
        for d in range(cap + 1):
            keys, index = cx.basis(i - 1, d)
            need = int(d == 0)  # dim K_d, then dim ker out of F_0, ..., F_{i-1}
            for j in range(i):
                need = len(cx.basis(j, d)[0]) - need
            span = Span()
            found = kernels[d] = []
            lower = ((t_var, w) for t_var in range(ring.n)
                     for w in kernels.get(d - ring.weights[t_var], []))
            for t_var, w in lower:
                if span.dim == need:
                    break
                row = _coordinates(I, w, index, unit[t_var])[0]
                if span.add(row):
                    found.append(_element(cx, i - 1, d, row))
            born = need - span.dim
            if not born:
                continue
            coeffs[(i, d)] = born
            if i == i_max and d + min(ring.weights) > cap:
                continue
            rest = [k for k in range(len(keys)) if k not in span.pivots]
            rows = cx.kernel_at(i - 1, d, rest)
            if len(rows) != born:
                raise AlgebraError(f"the resolution is not exact at ({i}, {d}): "
                                   f"{len(rows)} new generators, {born} expected")
            for row in rows:
                w = _element(cx, i - 1, d, row)
                if not all(any(m) for (_, m) in w):
                    raise AlgebraError("unit entry would make the resolution non-minimal")
                found.append(w)
                g = len(new_shifts)
                new_shifts[g], new_images[g] = d, w
        if not new_shifts:
            break

    truncated = any(d == d_max for i, d in coeffs if i)
    return BigradedSeries(coeffs, i_max, d_max, truncated=truncated)


def actual_poincare(I: Ideal, i_max: int = 4, d_max: int | None = None) -> BigradedSeries:
    """dim Tor_i(K, K) over R = S/I, by a degreewise minimal resolution of K.

    Serre's inequality holds bidegree by bidegree, so F_i has no generator
    where ``serre_bound_series`` is 0: step i visits internal degrees only up
    to D_i, the largest d <= d_max with a nonzero bound at (i, d).  Step i
    needs kernels only up to D_i (its new generators and the variable
    multiples feeding higher degrees of the same step) and step i + 1 needs
    only F_i's generators, so the series is the full window's.  All numbers
    inside the window are exact.
    """
    if not I.is_proper():
        raise ImproperIdealError("the residue field of the zero ring has no resolution")
    bound = serre_bound_series(I, i_max, d_max)  # rejects inhomogeneity, negative bounds
    return _tor_series(I, bound.i_max, bound.d_max, _support_caps(bound))


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

    A drop below the bound proves non-Golodness only when the variables
    minimally generate the maximal ideal of R, that is, when I lies in m^2:
    an ideal with a generator that has a linear term raises
    ``ImproperIdealError``.
    """
    bound = serre_bound_series(I, i_max, d_max)
    d_max = bound.d_max
    linear = next(((g, e) for g in I.generators for e, _ in g.terms if sum(e) == 1), None)
    if linear is not None:
        g, e = linear
        raise ImproperIdealError(f"the verdict needs I inside m^2, but generator {g} "
                                 f"has the linear term {I.ring.names[e.index(1)]}")
    actual = _tor_series(I, i_max, d_max, _support_caps(bound))
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
