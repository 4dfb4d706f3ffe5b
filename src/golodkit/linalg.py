"""Sparse exact linear algebra over Q, by fraction-free elimination.

Every vector is an integer row, a dict mapping column index -> nonzero int:
scaling changes no span, so ``Span`` takes rows, and ``kernel_of_columns``
takes each column as (row, den), standing for row / den.  Elimination
cross-multiplies integer rows (Bareiss, Math. Comp. 1968, with the exact
division replaced by dividing out a row's content when it is stored).  No
Fraction is ever formed.

``_reduce`` is the one elimination routine.  ``Span`` uses it for rank and
membership.  ``kernel_of_columns`` eliminates a column matrix once, carrying
beside each row integer tag coordinates that say which columns it is made
of; from that one pass it returns both the image, as a ``Span``, and the
kernel, as primitive integer rows.

One combine: each step is ``ring._scale`` then ``ring.axpy``.  One
normalisation, ``_primitive``, also used by the Buchberger engine, the
syzygy rows and the predicate.  ``integral`` turns polynomials into rows.
"""

from __future__ import annotations

from math import gcd, lcm

from .ring import _scale, axpy

IntVec = dict[int, int]
# pivot column -> (primitive row with positive pivot entry, its tag or None)
Pivots = dict[int, tuple[IntVec, IntVec | None]]


def integral(vec: dict) -> tuple[dict, int]:
    """(den * vec, den) for den the least common denominator of the entries."""
    den = lcm(*[c.denominator for c in vec.values()])
    if den == 1:
        return {k: c.numerator for k, c in vec.items()}, 1
    return {k: c.numerator * (den // c.denominator) for k, c in vec.items()}, den


def _reduce(pivots: Pivots, res: IntVec, tag: IntVec | None) -> tuple[IntVec, IntVec | None]:
    """Eliminate the leading column of res while it is a pivot column.

    Every stored row starts at its pivot, so each step clears the leading
    column and leaves only later ones.  Reduction stops at the first leading
    column without a pivot: res is then independent of the rows, and its
    leading column is a new pivot.  An empty res means it lay in their span.
    The tag, if given, undergoes the same integer operations.  res and tag
    are fresh dicts, updated in place; stored rows are only read.
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
        _scale(res, b)
        axpy(res, -a, row)
        if tag is not None:
            _scale(tag, b)
            axpy(tag, -a, row_tag)
    return res, tag


def _primitive(vec: dict, key, tag: dict | None = None) -> tuple[dict, dict | None]:
    """vec and tag (a row's tag or representation, if given) divided by their
    joint content, signed so that vec[key] > 0; primitive input comes back as is."""
    g = gcd(*vec.values(), *(tag or {}).values())
    if vec[key] < 0:
        g = -g
    if g == 1:
        return vec, tag
    scaled = {k: v // g for k, v in tag.items()} if tag is not None else None
    return {k: v // g for k, v in vec.items()}, scaled


def _store(pivots: Pivots, res: IntVec, tag: IntVec | None) -> None:
    """Insert a reduced nonzero row at its leading column, primitive, pivot positive."""
    col = min(res)
    pivots[col] = _primitive(res, col, tag)


class Span:
    """Incremental span of sparse integer rows: rank and membership only."""

    def __init__(self):
        self.pivots: Pivots = {}

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def add(self, row: IntVec) -> bool:
        """Insert a row (not mutated); return whether it was independent of the span."""
        res, _ = _reduce(self.pivots, dict(row), None)
        if not res:
            return False
        _store(self.pivots, res, None)
        return True

    def contains(self, row: IntVec) -> bool:
        return not _reduce(self.pivots, dict(row), None)[0]

    def copy(self) -> Span:
        """An independent span with the same rows (stored rows are never mutated)."""
        out = Span()
        out.pivots = dict(self.pivots)
        return out


def kernel_of_columns(columns: list[tuple[IntVec, int]]) -> tuple[Span, list[IntVec]]:
    """One tracked elimination of the columns: their span and a kernel basis.

    Column t is a pair (row, den) standing for row / den, den > 0; it enters
    as its integer row with tag {t: 1}.  A column that reduces to zero gives
    the null combination {s: tag[s] * den_s} of the columns up to t; made
    primitive with a positive entry at t, its largest index, it is one kernel
    row.  The stored rows, untagged and divided by their content, are the
    pivot rows a plain Span builds from the same rows: residuals differ only
    by positive factors.
    """
    pivots: Pivots = {}
    kernel: list[IntVec] = []
    for t, (row, _) in enumerate(columns):
        res, tag = _reduce(pivots, dict(row), {t: 1})
        if res:
            _store(pivots, res, tag)
            continue
        kernel.append(_primitive({s: c * columns[s][1] for s, c in tag.items()}, t)[0])
    image = Span()
    image.pivots = {col: _primitive(row, col) for col, (row, _) in pivots.items()}
    return image, kernel
