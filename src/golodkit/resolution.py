"""Minimal graded free resolutions over the polynomial ring.

The resolution of S/I is built by iterating syzygy computations, then
minimized by splitting off each unit entry as a Schur complement.
Betti numbers are read off the shifts of the minimized complex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import AlgebraError, HomogeneityError, ImproperIdealError
from .groebner import Ideal, module_syzygies
from .ring import GradingSpec, Polynomial, mono_mul

Matrix = list[list[Polynomial]]


@dataclass(frozen=True)
class Resolution:
    """Chain of free modules F_0 <- F_1 <- ... with homogeneous matrices.

    steps[i] is the matrix of F_{i+1} -> F_i (rows indexed by F_i);
    shifts[i] lists the generator degrees of F_i, so shifts[0] == (0,).
    """

    ring: GradingSpec
    steps: tuple[tuple[tuple[Polynomial, ...], ...], ...]
    shifts: tuple[tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    def rank(self, i: int) -> int:
        return len(self.shifts[i])


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers b_{i,d} as a sparse map."""

    entries: dict[tuple[int, int], int]

    def max_homological(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def max_shift(self) -> int:
        return max((d for _, d in self.entries), default=0)

    def total(self, i: int) -> int:
        return sum(c for (j, _), c in self.entries.items() if j == i)

    def to_json_obj(self):
        return [
            {"i": i, "d": d, "rank": self.entries[(i, d)]}
            for i, d in sorted(self.entries)
        ]

    def __str__(self):
        """Aligned grid: row t, column i holds b_{i, i+t}."""
        imax = self.max_homological()
        rows = sorted({d - i for i, d in self.entries})
        cols = list(range(imax + 1))
        grid = [["total:"] + [str(self.total(i)) for i in cols]]
        for t in rows:
            line = [f"{t}:"]
            for i in cols:
                c = self.entries.get((i, i + t), 0)
                line.append(str(c) if c else ".")
            grid.append(line)
        header = [" "] + [str(i) for i in cols]
        grid.insert(0, header)
        widths = [max(len(r[c]) for r in grid) for c in range(len(cols) + 1)]
        return "\n".join(
            " ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in grid
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def _is_unit(p: Polynomial) -> bool:
    return p.is_constant() and not p.is_zero()


def _column_degree(ring, col, row_shifts) -> int:
    deg = None
    for r, entry in enumerate(col):
        if entry.is_zero():
            continue
        rep = entry.homogeneity()
        if not rep.is_homogeneous:
            raise HomogeneityError("inhomogeneous matrix entry in a resolution")
        d = rep.degree + row_shifts[r]
        if deg is None:
            deg = d
        elif deg != d:
            raise HomogeneityError("matrix column fails to be homogeneous")
    if deg is None:
        raise HomogeneityError("zero syzygy column")
    return deg


def _compose_is_zero(A: Matrix, B: Matrix, ring) -> bool:
    """Whether the product A*B vanishes; each entry is summed in one dict."""
    for row in A:
        for c in range(len(B[0]) if B else 0):
            acc: dict = {}
            for t in range(len(B)):
                for e1, c1 in row[t].terms:
                    for e2, c2 in B[t][c].terms:
                        e = mono_mul(e1, e2)
                        acc[e] = acc.get(e, 0) + c1 * c2
            if any(acc.values()):
                return False
    return True


def _minimize(mats: list[Matrix], shifts: list[list[int]], ring):
    """Split off unit entries in place, one pivot per matrix per sweep.

    A unit M[r][c] = λ splits off a trivial summand: M becomes its Schur
    complement M[t][k] - M[t][c]·M[r][k]/λ without row r and column c, and
    the neighbors lose column r of the previous matrix and row c of the next
    one, which equal prev·M[:, c] and M[r]·next up to the factor 1/λ.
    Exactness forces both to vanish; nothing else in the neighbors changes.
    """
    changed = True
    while changed:
        changed = False
        for i, M in enumerate(mats):
            pivot = next(
                ((r, c) for r in range(len(M)) for c in range(len(M[0]) if M else 0)
                 if _is_unit(M[r][c])),
                None,
            )
            if pivot is None:
                continue
            changed = True
            r, c = pivot
            prv = mats[i - 1] if i > 0 else []
            nxt = mats[i + 1] if i + 1 < len(mats) else []
            if not _compose_is_zero(prv, [[row[c]] for row in M], ring):
                raise AlgebraError("exactness should clear the freed column")
            if not _compose_is_zero([M[r]], nxt, ring):
                raise AlgebraError("exactness should clear the freed row")
            pivot_row = M.pop(r)
            inv = Fraction(1) / pivot_row[c].constant_value()
            quotients = [(k, e * inv) for k, e in enumerate(pivot_row)
                         if k != c and not e.is_zero()]
            for row in M:
                if not row[c].is_zero():
                    for k, q in quotients:
                        row[k] = row[k] - q * row[c]
                del row[c]
            for row in prv:
                del row[r]
            if nxt:
                del nxt[c]
            del shifts[i][r]
            del shifts[i + 1][c]


def minimal_free_resolution(I: Ideal) -> Resolution:
    """Minimal graded free resolution of S/I."""
    if not I.is_homogeneous:
        raise HomogeneityError("resolutions need a homogeneous ideal")
    if not I.is_proper():
        raise ImproperIdealError("S/I vanishes for the unit ideal")
    ring = I.ring
    if I.is_zero():
        return Resolution(ring, (), ((0,),))

    gens = I.minimal_generators()
    columns: list[tuple[Polynomial, ...]] = [(g,) for g in gens]
    shifts: list[list[int]] = [[0], [g.homogeneity().degree for g in gens]]
    mats: list[Matrix] = [[list(gens)]]

    while True:
        syz = module_syzygies(columns, ring)
        if not syz:
            break
        degs = [_column_degree(ring, col, shifts[-1]) for col in syz]
        order = sorted(range(len(syz)), key=lambda t: degs[t])
        syz = [syz[t] for t in order]
        degs = [degs[t] for t in order]
        mats.append([[syz[c][r] for c in range(len(syz))] for r in range(len(shifts[-1]))])
        shifts.append(list(degs))
        columns = syz

    _minimize(mats, shifts, ring)
    while mats and not shifts[len(mats)]:
        mats.pop()

    for i in range(len(mats) - 1):
        if not _compose_is_zero(mats[i], mats[i + 1], ring):
            raise AlgebraError("composition must vanish")
    for M in mats:
        if any(_is_unit(e) for row in M for e in row):
            raise AlgebraError("resolution not minimal")
    if len(mats) > ring.n:
        raise AlgebraError("length exceeds the number of variables")

    steps = tuple(tuple(tuple(row) for row in M) for M in mats)
    return Resolution(ring, steps, tuple(tuple(s) for s in shifts[: len(mats) + 1]))


def betti_table(res: Resolution) -> BettiTable:
    entries: dict[tuple[int, int], int] = {}
    for i, degs in enumerate(res.shifts):
        for d in degs:
            entries[(i, d)] = entries.get((i, d), 0) + 1
    return BettiTable(entries)
