"""Strand complexes of free R-modules over R = S/I, and the Koszul complex.

``_Complex`` takes a complex as generator tables: per homological degree,
each generator's degree and its image one degree down.  A strand is the
degree-d part of one of its modules, over the standard monomials of each
generator's complementary degree; ``_Complex.basis`` numbers these
coordinates and ``_coordinates`` writes integer module elements in them as
(row, den), summing the rows of ``Ideal._nf_row`` with ``ring.axpy_over``.
``_koszul`` fills the tables with the wedges of the Koszul complex on the
variables; the resolution of the residue field in
``poincare.actual_poincare`` is a ``_Complex`` whose tables grow one
homological step at a time.  Homology, cycles and the multiplication checks
are linear algebra on integer rows: each differential strand is eliminated
once, by ``linalg.kernel_of_columns``, which gives the boundary span one step
down and the cycles as primitive integer rows; products of classes multiply
these rows.  The resolution eliminates only some columns of a strand, with
``_Complex.kernel_at``.  Only ``_summarize`` builds Fractions, for the public
``cycle_reps``.  Koszul homology dimensions are the graded Betti numbers of
S/I and vanish off the strands of ``_lcm_strands``.  ``_scan`` is the one
visit of those strands: it gives the dimensions inside a window and whether
any strand outside it carries homology, so a window's ``truncated`` is exact.
``_betti_dims`` is the scan without bounds, and ``_window`` reads the default
internal bound off its top shift.

The layer sits below the paper's calculus and imports nothing from it.
``calculus`` reads two things off ``_koszul``: the socle of S/I, the kernel
of the top differential, for ``colon`` by the maximal ideal; and, in
``derivative_cycle_check``, the exact sequence 0 -> d(I)K -> K -> K(S/J) ->
0, J = I + d(I), off a second ``_koszul``, over J.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import combinations
from typing import Hashable, Mapping

from .errors import HomogeneityError, ImproperIdealError
from .groebner import Ideal
from .linalg import IntVec, Span, kernel_of_columns
from .ring import Exps, axpy_over, mono_lcm, mono_mul

Wedge = tuple[int, ...]
StrandKey = tuple[Hashable, Exps]
# strand coordinates: generator -> standard monomial -> column index
StrandIndex = dict[Hashable, dict[Exps, int]]
# an element of a free R-module: (generator, monomial) -> integer coefficient
Element = Mapping[tuple[Hashable, Exps], int]
# row / den: an integer row over strand coordinates and a positive denominator
Column = tuple[IntVec, int]


def _coordinates(I: Ideal, element: Element, index: StrandIndex, shift: Exps) -> Column:
    """x^shift * element in the coordinates of index, reduced modulo I."""
    out: IntVec = {}
    den = 1
    for (g, m), c in element.items():
        den = axpy_over(out, den, c, *I._nf_row(mono_mul(m, shift)), index[g])
    return out, den


def _merge_sign(W1: Wedge, W2: Wedge) -> int:
    inversions = sum(1 for a in W1 for b in W2 if a > b)
    return -1 if inversions % 2 else 1


def _cached(method):
    """Memoize a _Complex method per instance and arguments."""
    @wraps(method)
    def wrapper(self, *args):
        cache = self._caches.setdefault(method.__name__, {})
        if args not in cache:
            cache[args] = method(self, *args)
        return cache[args]
    return wrapper


class _Complex:
    """Strands, differentials, their echelons and homology of a complex of
    free R-modules, each built on first use.  ``shifts[l]`` maps each
    generator of homological degree l to its degree and ``images[l]`` maps it
    to its image one degree down; a missing l is the zero module.  A caller
    may extend the tables of degree l until the first strand of that degree
    is built."""

    def __init__(self, I: Ideal, shifts: dict[int, dict[Hashable, int]],
                 images: dict[int, dict[Hashable, Element]]):
        if not I.is_homogeneous:
            raise HomogeneityError("resolutions need a homogeneous ideal")
        self.I = I
        self.ring = I.ring
        self.n = I.ring.n
        self.shifts = shifts
        self.images = images
        self._caches: dict[str, dict] = {}

    @_cached
    def basis(self, l: int, d: int) -> tuple[list[StrandKey], StrandIndex]:
        """Coordinates of the degree-d strand in homological degree l: the
        standard monomials of each generator's complementary degree."""
        keys: list[StrandKey] = []
        index: StrandIndex = {}
        for g, s in self.shifts.get(l, {}).items():
            if s <= d:
                block = index[g] = {}
                for m in self.I.standard_monomials(d - s):
                    block[m] = len(keys)
                    keys.append((g, m))
        return keys, index

    @_cached
    def differential_columns(self, l: int, d: int) -> list[Column]:
        """Images of the (l, d) basis in (l-1, d) coordinates, as (row, den)."""
        images = self.images.get(l, {})
        _, tgt_index = self.basis(l - 1, d)
        return [_coordinates(self.I, images[W], tgt_index, m) for W, m in self.basis(l, d)[0]]

    @_cached
    def echelon(self, l: int, d: int) -> tuple[Span, list[IntVec]]:
        """Image in (l-1, d) and kernel rows of the (l, d) differential, from
        one elimination of its columns."""
        return kernel_of_columns(self.differential_columns(l, d))

    def kernel(self, l: int, d: int) -> list[IntVec]:
        if l == 0:
            return [{t: 1} for t in range(len(self.basis(l, d)[0]))]
        return self.echelon(l, d)[1]

    def kernel_at(self, l: int, d: int, coords: list[int]) -> list[IntVec]:
        """Kernel rows, in (l, d) coordinates, of the (l, d) differential
        restricted to the basis vectors at coords; uncached, unlike ``echelon``."""
        if l == 0:
            return [{k: 1} for k in coords]
        cols = self.differential_columns(l, d)
        rows = kernel_of_columns([cols[k] for k in coords])[1]
        return [{coords[s]: c for s, c in row.items()} for row in rows]

    def boundary_span(self, l: int, d: int) -> Span:
        return self.echelon(l + 1, d)[0]

    @_cached
    def homology(self, l: int, d: int) -> tuple[int, list[IntVec]]:
        """Dimension and cycle representatives extending the boundary span."""
        probe = self.boundary_span(l, d).copy()
        reps = [z for z in self.kernel(l, d) if probe.add(z)]
        return len(reps), reps


def _koszul(I: Ideal) -> _Complex:
    """The Koszul complex on the variables: homological degree l has the
    wedges of length l as generators, and e_W maps to
    sum_k (-1)^k x_{W[k]} e_{W without W[k]}."""
    n, weights = I.ring.n, I.ring.weights
    unit = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    shifts = {l: {W: sum(weights[i] for i in W) for W in combinations(range(n), l)}
              for l in range(n + 1)}
    images = {l: {W: {(W[:k] + W[k + 1:], unit[i]): (-1) ** k for k, i in enumerate(W)}
                  for W in shifts[l]}
              for l in range(1, n + 1)}
    return _Complex(I, shifts, images)


def _lcm_strands(cx: _Complex):
    """The strands (l, d) where d is the degree of an lcm of at most l leading
    terms of the reduced basis, for l up to the length of the Taylor
    resolution, in order of l and then d.  The lcms are built level by level,
    each new one the lcm of a new one of the level below and a lead; no
    subset of the leads is enumerated.

    Upper semicontinuity bounds each Betti number of S/I by that of S/in(I),
    and the Taylor resolution of S/in(I) has its generators of homological
    degree l in the degrees of the lcms of l leading terms.  So only these
    strands can carry Koszul homology.
    """
    leads = {g.terms[0][0] for g in cx.I.groebner_basis()}
    lcms = fresh = {(0,) * cx.n}  # the lcms of at most l leads; those new at level l
    for l in range(min(cx.n, len(leads)) + 1):
        if l:
            fresh = {mono_lcm(m, g) for m in fresh for g in leads} - lcms
            lcms = lcms | fresh
        yield from ((l, d) for d in sorted({cx.ring.weighted_degree(m) for m in lcms}))


def _split(cx: _Complex, l_max: int | None,
           d_max: int | None) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The strands of ``_lcm_strands`` with l <= l_max and d <= d_max (no bound
    where None), and those outside these bounds, each in their order."""
    inside, outside = [], []
    for l, d in _lcm_strands(cx):
        if (l_max is None or l <= l_max) and (d_max is None or d <= d_max):
            inside.append((l, d))
        else:
            outside.append((l, d))
    return inside, outside


def _dims(cx: _Complex, strands: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """The nonzero homology dimensions on the strands, in their order."""
    return {(l, d): dim for l, d in strands
            if cx.basis(l, d)[0] and (dim := cx.homology(l, d)[0])}


def _scan(cx: _Complex, l_max: int | None = None,
          d_max: int | None = None) -> tuple[dict[tuple[int, int], int], bool]:
    """The ``_dims`` of the strands inside the bounds, and whether a strand
    outside them carries homology.  The outside strands are visited only
    until one does."""
    inside, outside = _split(cx, l_max, d_max)
    return _dims(cx, inside), any(cx.basis(l, d)[0] and cx.homology(l, d)[0] for l, d in outside)


def _betti_dims(cx: _Complex) -> dict[tuple[int, int], int]:
    """Every graded Betti number of S/I, as Koszul homology dimensions."""
    if not cx.I.is_proper():
        raise ImproperIdealError("S/I vanishes for the unit ideal")
    return _scan(cx)[0]


def _bounds(cx: _Complex, l_max: int | None, d_max: int | None) -> tuple[int, int]:
    """The window's bounds, with missing ones filled in (l up to the variable
    count, d up to the top resolution shift plus a margin) and negative ones
    rejected."""
    if l_max is None:
        l_max = cx.n
    if d_max is None:
        d_max = max(d for _, d in _betti_dims(cx)) + max(cx.ring.weights)
    if l_max < 0 or d_max < 0:
        raise ValueError("bounds must be non-negative")
    return l_max, d_max


def _window(cx: _Complex, l_max: int | None,
            d_max: int | None) -> tuple[int, int, dict[tuple[int, int], int], bool]:
    """(l_max, d_max, dims, truncated): the ``_bounds``, then the ``_scan`` of
    that window."""
    l_max, d_max = _bounds(cx, l_max, d_max)
    return (l_max, d_max, *_scan(cx, l_max, d_max))


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


def _summarize(cx: _Complex, l_max: int, d_max: int, dims: dict[tuple[int, int], int],
               truncated: bool) -> HomologySummary:
    reps: dict[tuple[int, int], list[dict[StrandKey, Fraction]]] = {}
    for l, d in dims:
        keys, _ = cx.basis(l, d)
        reps[(l, d)] = []
        for v in cx.homology(l, d)[1]:
            top = v[max(v)]  # a kernel row ends at its own column
            reps[(l, d)].append({keys[idx]: Fraction(c, top) for idx, c in sorted(v.items())})
    return HomologySummary(l_max, d_max, dims, reps, truncated)


def koszul_homology(I: Ideal, l_max: int | None = None, d_max: int | None = None) -> HomologySummary:
    """Bigraded Koszul homology dimensions and representatives within bounds."""
    cx = _koszul(I)
    return _summarize(cx, *_window(cx, l_max, d_max))


@dataclass(frozen=True)
class TrivialMultiplicationReport:
    verdict: bool
    failing_pair: tuple | None
    truncated: bool


def _element(cx: _Complex, l: int, d: int, row: IntVec) -> Element:
    """An integer row of the (l, d) strand as a module element."""
    keys, _ = cx.basis(l, d)
    return {keys[t]: c for t, c in row.items()}


def _product_vector(cx: _Complex, z1: Element, z2: Element, l: int, d: int) -> IntVec:
    """A positive integer multiple of z1 * z2 in the (l, d) strand."""
    _, index = cx.basis(l, d)
    out: IntVec = {}
    den = 1
    for (W1, m1), c1 in z1.items():
        for (W2, m2), c2 in z2.items():
            if set(W1) & set(W2):
                continue
            W = tuple(sorted(W1 + W2))
            den = axpy_over(out, den, _merge_sign(W1, W2) * c1 * c2,
                            *cx.I._nf_row(mono_mul(m1, m2)), index[W])
    return out


def trivial_multiplication_check(
    I: Ideal, l_max: int | None = None, d_max: int | None = None
) -> TrivialMultiplicationReport:
    """Whether every product of positive-degree homology classes is a boundary.

    The classes are the integer cycles of ``_Complex.homology``, positive
    multiples of ``cycle_reps``, so each product's membership is theirs."""
    cx = _koszul(I)
    l_max, d_max, dims, truncated = _window(cx, l_max, d_max)
    spots = sorted(k for k in dims if k[0] >= 1)
    classes = {(l, d): [_element(cx, l, d, z) for z in cx.homology(l, d)[1]] for l, d in spots}
    for a, (l1, d1) in enumerate(spots):
        for l2, d2 in spots[a:]:
            if l1 + l2 > l_max or d1 + d2 > d_max:
                continue
            for i1, z1 in enumerate(classes[(l1, d1)]):
                for i2, z2 in enumerate(classes[(l2, d2)]):
                    prod = _product_vector(cx, z1, z2, l1 + l2, d1 + d2)
                    if prod and not cx.boundary_span(l1 + l2, d1 + d2).contains(prod):
                        return TrivialMultiplicationReport(
                            False, (l1, d1, i1, l2, d2, i2), truncated)
    return TrivialMultiplicationReport(True, None, truncated)
