"""Minimal graded free resolutions over the polynomial ring.

The resolution of S/I is built by iterating ``groebner._syzygy_rows``, whose
primitive integer rows, in degree order, are the next step's columns, and
then minimized on integer columns: a matrix maps each column id to (vec,
den), the column vec / den, with vec an int dict keyed by (row id,
exponents).  Ids are the original positions, so deleting one renumbers
nothing.  The first matrix holds the minimal generators, each later one a
step's rows.  Each unit entry is split off as a Schur complement, and
``_image`` (the engine's shifted combine) checks exactness at each
split-off and d∘d = 0 at the end.  Polynomials are built once, from the
minimized columns; Betti numbers are read off their shifts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import AlgebraError, HomogeneityError, ImproperIdealError
from .groebner import _ONE, Ideal, ModVec, _axpy_shifted, _syzygy_rows, _to_internal
from .ring import GradingSpec, Polynomial

Columns = dict[int, tuple[ModVec, int]]  # column id -> (vec, den > 0), the column vec / den


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


def _column_degree(ring: GradingSpec, vec: ModVec, row_shifts: dict[int, int]) -> int:
    degs = {ring.weighted_degree(e) + row_shifts[r] for r, e in vec}
    if len(degs) != 1:
        raise HomogeneityError("matrix column fails to be homogeneous" if degs else "zero syzygy column")
    return degs.pop()


def _image(cols: Columns, vec: ModVec) -> ModVec:
    """A positive multiple of the matrix cols times the column vec."""
    den = lcm(*{cols[j][1] for j, _ in vec})
    out: ModVec = {}
    for (j, e), a in vec.items():
        v, d = cols[j]
        _axpy_shifted(out, a * (den // d), v, e)
    return out


def _minimize(mats: list[Columns], shifts: list[dict[int, int]]) -> None:
    """Split off unit entries in place, one pivot per matrix per sweep.

    The pivot is the first unit M[r][c] = λ/d_c in row-major order.  Each
    column k with an entry Σ a_e·x^e / d_k in row r becomes the Schur
    complement (λ·v_k − Σ a_e·x^e·v_c) / (d_k·λ), which is zero in row r,
    and column c goes.  The neighbors lose column r of the previous matrix
    and row c of the next one, which equal prev·M[:, c] and M[r]·next up to
    a unit.  Exactness forces both to vanish; nothing else in them changes.
    """
    changed = True
    while changed:
        changed = False
        for i, M in enumerate(mats):
            pivot = min(((r, c, e) for c, (v, _) in M.items() for r, e in v if not any(e)),
                        default=None)
            if pivot is None:
                continue
            changed = True
            r, c, one = pivot
            nxt = mats[i + 1] if i + 1 < len(mats) else {}
            if i and _image(mats[i - 1], M[c][0]):
                raise AlgebraError("exactness should clear the freed column")
            row = {k: ({(0, e): a for (s, e), a in v.items() if s == r}, d) for k, (v, d) in M.items()}
            if any(_image(row, w) for w, _ in nxt.values()):
                raise AlgebraError("exactness should clear the freed row")
            vc, _ = M.pop(c)
            lam = vc[r, one]
            for k, (v, d) in M.items():
                if row[k][0]:
                    new = {t: lam * a for t, a in v.items()}
                    for (_, e), a in row[k][0].items():
                        _axpy_shifted(new, -a, vc, e)
                    den = d * lam
                    g = gcd(den, *new.values()) * (1 if den > 0 else -1)
                    M[k] = ({t: a // g for t, a in new.items()}, den // g)
            if i:
                del mats[i - 1][r]
            for k, (w, d) in nxt.items():
                nxt[k] = ({t: a for t, a in w.items() if t[0] != c}, d)
            del shifts[i][r]
            del shifts[i + 1][c]


def _polynomials(ring: GradingSpec, mats: list[Columns], shifts: list[dict[int, int]]):
    """The matrices as rows of Polynomials, with one exponent tuple per
    monomial, one Fraction per value and one zero polynomial among them."""
    canon: dict = {}  # exponent tuples and Fractions, each to its one copy
    zero = Polynomial._from_terms(ring, {})
    steps = []
    for i, M in enumerate(mats):
        entries: dict[tuple[int, int], dict] = {}
        for c, (v, d) in M.items():
            for (r, e), a in v.items():
                f = Fraction(a, d)
                entries.setdefault((r, c), {})[canon.setdefault(e, e)] = canon.setdefault(f, f)
        steps.append(tuple(
            tuple(Polynomial._from_terms(ring, entries[r, c]) if (r, c) in entries else zero
                  for c in shifts[i + 1])
            for r in shifts[i]))
    return tuple(steps)


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
    # a generator f * u, f = p / q in lowest terms, is the column (p * u, q)
    scaled = [_to_internal([g]) for g in gens]
    shifts = [{0: 0}, {j: g.homogeneity().degree for j, g in enumerate(gens)}]
    mats = [{j: ({t: c * f.numerator for t, c in u.items()}, f.denominator)
             for j, (u, f) in enumerate(scaled)}]

    while True:
        rows = _syzygy_rows(scaled, ring, len(shifts[-2]))
        if not rows:
            break
        degs = [_column_degree(ring, v, shifts[-1]) for v in rows]
        order = sorted(range(len(rows)), key=degs.__getitem__)
        mats.append({c: (rows[t], 1) for c, t in enumerate(order)})
        shifts.append({c: degs[t] for c, t in enumerate(order)})
        scaled = [(rows[t], _ONE) for t in order]

    _minimize(mats, shifts)
    while mats and not shifts[len(mats)]:
        mats.pop()

    for A, B in zip(mats, mats[1:]):
        if any(_image(A, v) for v, _ in B.values()):
            raise AlgebraError("composition must vanish")
    if len(mats) > ring.n:
        raise AlgebraError("length exceeds the number of variables")
    shifts = shifts[: len(mats) + 1]
    return Resolution(ring, _polynomials(ring, mats, shifts), tuple(tuple(s.values()) for s in shifts))


def betti_table(res: Resolution) -> BettiTable:
    entries: dict[tuple[int, int], int] = {}
    for i, degs in enumerate(res.shifts):
        for d in degs:
            entries[(i, d)] = entries.get((i, d), 0) + 1
    return BettiTable(entries)
