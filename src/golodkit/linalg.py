"""Sparse exact linear algebra over Q, by fraction-free elimination.

Vectors are dicts mapping column index -> nonzero Fraction (ints are taken
too).  Inside this module every row is an integer dict instead: ``integral``
clears a vector's denominators when it enters, elimination cross-multiplies
integer rows (Bareiss, Math. Comp. 1968, with the exact division replaced by
dividing out a row's content when it is stored), and no Fraction is formed
until a kernel vector leaves.

``_reduce`` is the one elimination routine.  ``Span`` uses it for rank and
membership only.  ``TrackedSpan`` also carries, beside each row, integer tag
coordinates saying which added vectors the row is made of, so it can report
for a dependent vector the exact combination of earlier vectors it equals:
a kernel vector of the column matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = dict[int, Fraction]
IntVec = dict[int, int]
# pivot column -> (primitive row with positive pivot entry, its tag or None)
Pivots = dict[int, tuple[IntVec, IntVec | None]]


def integral(vec: Vec) -> tuple[IntVec, int]:
    """(den * vec, den) for den the least common denominator of the entries."""
    den = lcm(*[c.denominator for c in vec.values()])
    if den == 1:
        return {k: c.numerator for k, c in vec.items()}, 1
    return {k: c.numerator * (den // c.denominator) for k, c in vec.items()}, den


def _combine(b: int, x: IntVec, a: int, y: IntVec) -> IntVec:
    """b*x - a*y as a new dict, dropping entries that cancel to zero."""
    out = {k: b * v for k, v in x.items()} if b != 1 else dict(x)
    for k, v in y.items():
        acc = out.get(k, 0) - a * v
        if acc:
            out[k] = acc
        else:
            del out[k]
    return out


def _reduce(pivots: Pivots, res: IntVec, tag: IntVec | None) -> tuple[IntVec, IntVec | None]:
    """Eliminate the leading column of res while it is a pivot column.

    Every stored row starts at its pivot, so each step clears the leading
    column and leaves only later ones.  Reduction stops at the first leading
    column without a pivot: res is then independent of the rows, and its
    leading column is a new pivot.  An empty res means it lay in their span.
    The tag, if given, undergoes the same integer operations.
    """
    while res:
        col = min(res)
        hit = pivots.get(col)
        if hit is None:
            break
        row, row_tag = hit
        a = res[col]
        b = row[col]
        g = gcd(a, b)
        a //= g
        b //= g
        res = _combine(b, res, a, row)
        if tag is not None:
            tag = _combine(b, tag, a, row_tag)
    return res, tag


def _store(pivots: Pivots, res: IntVec, tag: IntVec | None) -> None:
    """Insert a reduced nonzero row at its leading column, primitive, pivot positive."""
    col = min(res)
    g = gcd(*res.values(), *tag.values()) if tag is not None else gcd(*res.values())
    if res[col] < 0:
        g = -g
    if g != 1:
        res = {k: v // g for k, v in res.items()}
        if tag is not None:
            tag = {k: v // g for k, v in tag.items()}
    pivots[col] = (res, tag)


class Span:
    """Incremental span of sparse rational vectors: rank and membership only."""

    def __init__(self):
        self.pivots: Pivots = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def add(self, vec: Vec) -> bool:
        """Insert a vector; return whether it was independent of the span."""
        res, _ = _reduce(self.pivots, integral(vec)[0], None)
        if not res:
            return False
        _store(self.pivots, res, None)
        return True

    def contains(self, vec: Vec) -> bool:
        return not _reduce(self.pivots, integral(vec)[0], None)[0]

    def copy(self) -> Span:
        """An independent span with the same rows (stored rows are never mutated)."""
        out = Span()
        out.pivots = dict(self.pivots)
        return out


class TrackedSpan:
    """Incremental span of sparse rational vectors with combination tracking.

    add() reduces the vector against the current echelon basis.  Independent
    vectors extend the basis; for a dependent one it returns the combination
    (over the indices of all vectors added so far) that reproduces it, which
    is exactly a kernel vector of the column matrix.  That vector is unique:
    coefficient 1 at its own index, the rest over earlier independent vectors.
    """

    def __init__(self):
        self.pivots: Pivots = {}
        self.count = 0
        self._dens: list[int] = []  # added vector t entered as _dens[t] * vec_t

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def add(self, vec: Vec) -> Vec | None:
        """Insert a vector; return its combination over prior adds if dependent."""
        idx = self.count
        self.count += 1
        ints, den = integral(vec)
        self._dens.append(den)
        res, tag = _reduce(self.pivots, ints, {idx: 1})
        if res:
            _store(self.pivots, res, tag)
            return None
        # 0 == sum tag[t] * _dens[t] * vec_t; scale the coefficient of vec_idx to 1
        dens = self._dens
        lead = tag.pop(idx) * den
        kernel = {idx: Fraction(1)}
        for t, c in tag.items():
            kernel[t] = Fraction(c * dens[t], lead)
        return kernel

    def contains(self, vec: Vec) -> bool:
        return not _reduce(self.pivots, integral(vec)[0], None)[0]


def kernel_of_columns(columns: list[Vec]) -> list[Vec]:
    """Basis of null combinations of the given columns (coefficients over column index)."""
    span = TrackedSpan()
    out = []
    for col in columns:
        combo = span.add(col)
        if combo is not None:
            out.append(combo)
    return out


def rank_of_columns(columns: list[Vec]) -> int:
    span = Span()
    for col in columns:
        span.add(col)
    return span.dim
