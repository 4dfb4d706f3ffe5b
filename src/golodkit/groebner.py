"""Groebner bases over Q and the ideal operations built on them.

A monomial ideal, one whose generators are all single terms, never reaches
the engine: its reduced basis is its divisibility-minimal monomials, an
intersection of two is generated by the pairwise lcms and a colon by the
componentwise differences (``ring.minimal_exps``, ``intersect_exps`` and
``colon_exps``).  ``Ideal.groebner_basis``, ``intersect`` and
``_monomial_operation`` build these results with the engine's order and
coefficients, so they equal the engine's reduced bases generator for
generator.

Every other ideal goes to one engine, which handles both ideals and
submodules of free modules: an internal "vector" is a sparse dict
{(component, exponents): coefficient}.  Every sum in the engine adds a basis
element or a representation times a monomial, ``target += factor * x^shift
* src``, in one loop over ``src`` without a shifted copy (``_axpy_shifted``).
Scalar polynomials are the one-component case.

The engine runs over Z, fraction-free (Bareiss, Math. Comp. 1968): each
input enters as a primitive integer vector times a positive rational factor,
every basis element is kept primitive with a positive lead coefficient, and
a reduction step cross-multiplies instead of dividing.  ``Fraction``s are
built only at the public boundary: the monic reduced bases of
``Ideal.groebner_basis``, ``intersect`` and the colons, and the rows of
``module_syzygies``.

The engine has one reduction loop, ``_Engine.nf``, which returns the
remainder together with its reduction steps (basis index, shift, a, b): the
division quotients.  ``_Engine.fold`` applies steps to representations over
the inputs; tracked Buchberger and syzygies read what they need off the
steps.  Syzygies come from Schreyer's theorem: S-pair division syzygies of a
reduced basis, translated back to the caller's generators through the
tracked representation matrix, as integer rows (``_syzygy_rows``) that
the resolution feeds back in as its next columns; ``module_syzygies`` is
their public boundary.  An intersection, or a colon that ``calculus.colon``
does not take by monomials or by the socle, is read off one untracked run on
module columns under a position-over-term order (Greuel and Pfister, *A
Singular Introduction to Commutative Algebra*): the basis elements in the
last component are the reduced grevlex basis of the result, which is
generated by it.  A colon by the maximal ideal adjoins socle rows
to a reduced basis with no S-pair (``_adjoin_socle``).

An ``Ideal`` caches its reduced grevlex basis, and from it the normal form
of every monomial it meets and its standard monomials per degree; the
predicate and the Koszul and Tor strands all read these memos.  The
normal-form memo is fraction-free too: each entry is an integer row over
one positive denominator, filled from the primitive integer basis, and sums
of entries are kept over a common denominator (``ring.axpy_over``).  Its one
read, ``Ideal._nf_row``, feeds the predicate, the strands and
``Ideal.normal_form``, the only one that builds ``Fraction``s.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add
from typing import Iterable, Sequence

from .errors import AlgebraError, HomogeneityError, RingMismatchError
from .linalg import Span, _primitive, integral
from .ring import (
    Exps,
    GradingSpec,
    Polynomial,
    _scale,
    axpy_over,
    grevlex_key,
    intersect_exps,
    minimal_exps,
    mono_div,
    mono_divides,
    mono_in_ideal,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    parse_polynomial,
)


class MonomialOrder:
    """Weighted-degree grevlex, or a block order eliminating the first k variables."""

    __slots__ = ("kind", "grading", "block")

    def __init__(self, kind: str, grading: GradingSpec, block: int = 0):
        if kind not in ("grevlex", "elimination"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.grading = grading
        self.block = block

    @classmethod
    def grevlex(cls, grading: GradingSpec) -> "MonomialOrder":
        return cls("grevlex", grading)

    @classmethod
    def elimination(cls, grading: GradingSpec, k: int) -> "MonomialOrder":
        if not 0 < k < grading.n:
            raise ValueError("elimination block must be a proper nonempty prefix")
        return cls("elimination", grading, k)

    def key(self, exps: Exps):
        w = self.grading.weights
        if self.kind == "grevlex":
            return grevlex_key(w, exps)
        k = self.block
        return grevlex_key(w[:k], exps[:k]) + grevlex_key(w[k:], exps[k:])


# -- internal vector representation ------------------------------------------
#
# ModTerm = (component, exps); ModVec = dict[ModTerm, int], unordered.
# A vector's leading term is its largest term under ``_Engine.key``: the order
# on exponents with ties broken towards the lower component, or, position over
# term, the component first, a lower component being larger.

ModTerm = tuple[int, Exps]
ModVec = dict[ModTerm, int]
_ONE = Fraction(1)  # shared by all monic bases


def _to_internal(vec: Sequence[Polynomial]) -> tuple[ModVec, Fraction]:
    """(u, f) with vec == f * u, u a primitive integer vector and f > 0."""
    u, den = integral({(comp, e): c for comp, p in enumerate(vec) for e, c in p.terms})
    g = gcd(*u.values()) or 1
    if g > 1:
        u = {t: c // g for t, c in u.items()}
    return u, Fraction(g, den)


def _from_internal(mv: ModVec, ring: GradingSpec, ncomp: int,
                   canon: dict[Exps, Exps] | None = None) -> tuple[Polynomial, ...]:
    """mv as ncomp polynomials; each exponent tuple is replaced by its entry in
    canon, so rows built with one canon share one tuple per monomial."""
    if canon is None:
        canon = {}
    per: list[dict[Exps, Fraction]] = [dict() for _ in range(ncomp)]
    for (comp, e), c in mv.items():
        per[comp][canon.setdefault(e, e)] = Fraction(c)
    return tuple(Polynomial._from_terms(ring, d) for d in per)


def _axpy_shifted(target: ModVec, factor: int, src: ModVec, shift: Exps) -> None:
    """target += factor * x^shift * src, in place, deleting entries that cancel."""
    for (comp, e), c in src.items():
        t = (comp, tuple(map(add, e, shift)))
        acc = target.get(t, 0) + factor * c
        if acc:
            target[t] = acc
        elif t in target:
            del target[t]


# A reduction step (basis index, shift, a, b) records the update
# work <- b * work - a * x^shift * polys[hit], a and b being the two lead
# coefficients divided by their gcd, b > 0.  The same steps applied to the
# tracked representations (``_Engine.fold``) keep each vector's coefficients
# over the inputs.  All of it is int arithmetic over Z: no Fraction enters the
# engine, and the public layer builds them from its output.
Step = tuple[int, Exps, int, int]


class _Engine:
    """Fraction-free Buchberger machinery for one order / component count.

    Every vector is an integer vector; the basis elements are primitive, with
    a positive lead coefficient, and together with their representations
    they satisfy polys[i] == sum over j of reps[i][j] * inputs[j] exactly.
    """

    def __init__(self, order: MonomialOrder, ncomp: int, track: bool, pot: bool = False):
        self.order = order
        self.ncomp = ncomp
        self.track = track
        self.pot = pot
        self.leads: list[ModTerm] = []
        self.polys: list[ModVec] = []
        # reps[i] is polys[i] over the inputs: a ModVec whose component is the
        # input index
        self.reps: list[ModVec] = []
        self._keys: dict[ModTerm, tuple] = {}

    def key(self, t: ModTerm):
        """Sort key of a term, computed once per term and engine."""
        k = self._keys.get(t)
        if k is None:
            term = self.order.key(t[1])
            k = self._keys[t] = (-t[0], term) if self.pot else (term, -t[0])
        return k

    def nf(self, vec: ModVec) -> tuple[ModVec, list[Step]]:
        """Full normal form against the current basis, and its reduction steps.

        With mu the product of the steps' b, mu * vec equals the steps folded
        into zero (``fold``) plus the remainder.  Each step removes a term
        strictly smaller than the one before, so a (hit, shift) pair occurs
        at most once: the steps are the division quotients.
        """
        rem: ModVec = {}
        steps: list[Step] = []
        work = dict(vec)
        while work:
            lead = max(work, key=self.key)
            comp, exps = lead
            for hit, (lcomp, lexps) in enumerate(self.leads):
                if lcomp == comp and mono_divides(lexps, exps):
                    break
            else:
                rem[lead] = work.pop(lead)
                continue
            shift = mono_div(exps, lexps)
            c = work[lead]
            lc = self.polys[hit][self.leads[hit]]
            g = gcd(c, lc)
            a, b = c // g, lc // g
            _scale(work, b)
            _scale(rem, b)
            # b * c == a * lc, so this clears the lead exactly
            _axpy_shifted(work, -a, self.polys[hit], shift)
            steps.append((hit, shift, a, b))
        return rem, steps

    def fold(self, rep: ModVec, steps: list[Step]) -> ModVec:
        """rep <- b * rep - a * x^shift * reps[hit] for each step, in place; returns rep."""
        for hit, shift, a, b in steps:
            _scale(rep, b)
            _axpy_shifted(rep, -a, self.reps[hit], shift)
        return rep

    def _push_pairs(self, heap, pending, new_idx: int):
        lc, le = self.leads[new_idx]
        for i in range(new_idx):
            ic, ie = self.leads[i]
            if ic != lc:
                continue
            lcm = mono_lcm(ie, le)
            # product criterion, sound for the one-component (ideal) case only
            if self.ncomp == 1 and lcm == mono_mul(ie, le):
                continue
            heapq.heappush(heap, (self.order.key(lcm), lc, i, new_idx, lcm))
            pending.add((i, new_idx))

    def _add(self, vec: ModVec, pre: list[Step], heap, pending, unit: int | None = None):
        """Reduce vec; a nonzero remainder becomes a primitive basis element.

        vec is input ``unit``, or else built from the basis by the steps
        ``pre``.  Its representation is folded from those and the reduction
        steps, and only computed when the remainder is kept.
        """
        rem, steps = self.nf(vec)
        if not rem:
            return
        rep: ModVec = {}
        if self.track:
            if unit is not None:
                rep[(unit, (0,) * self.order.grading.n)] = 1
            self.fold(rep, pre + steps)
        self._insert(rem, rep)
        self._push_pairs(heap, pending, len(self.polys) - 1)

    def _insert(self, rem: ModVec, rep: ModVec) -> None:
        """Append a nonzero remainder and its representation, made primitive."""
        lead = max(rem, key=self.key)
        poly, rep = _primitive(rem, lead, rep)
        self.leads.append(lead)
        self.polys.append(poly)
        self.reps.append(rep)

    def run(self, inputs: list[ModVec]):
        heap: list = []
        pending: set[tuple[int, int]] = set()
        for idx, vec in enumerate(inputs):
            self._add(vec, [], heap, pending, unit=idx)
        while heap:
            _, comp, i, j, lcm = heapq.heappop(heap)
            pending.discard((i, j))
            if self._chain_skip(i, j, comp, lcm, pending):
                continue
            svec, pre = self._spair(i, j, lcm)
            self._add(svec, pre, heap, pending)
        self._reduce_basis()

    def _chain_skip(self, i: int, j: int, comp: int, lcm: Exps, pending) -> bool:
        for k, (kc, ke) in enumerate(self.leads):
            if k == i or k == j or kc != comp:
                continue
            if not mono_divides(ke, lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                return True
        return False

    def _spair(self, i: int, j: int, lcm: Exps) -> tuple[ModVec, list[Step]]:
        """The S-vector of polys[i] and polys[j], and the steps that fold a
        representation of zero into one of it."""
        si = mono_div(lcm, self.leads[i][1])
        sj = mono_div(lcm, self.leads[j][1])
        ci, cj = self.polys[i][self.leads[i]], self.polys[j][self.leads[j]]
        g = gcd(ci, cj)
        ai, aj = cj // g, ci // g
        svec: ModVec = {}
        _axpy_shifted(svec, ai, self.polys[i], si)
        _axpy_shifted(svec, -aj, self.polys[j], sj)
        return svec, [(i, si, -ai, 1), (j, sj, aj, 1)]

    def _reduce_basis(self):
        # drop elements whose lead is divisible by another surviving lead
        order_idx = sorted(range(len(self.polys)), key=lambda i: self.key(self.leads[i]))
        keep: list[int] = []
        for i in order_idx:
            ci, ei = self.leads[i]
            if any(self.leads[k][0] == ci and mono_divides(self.leads[k][1], ei) for k in keep):
                continue
            keep.append(i)
        self.leads = [self.leads[i] for i in keep]
        self.polys = [self.polys[i] for i in keep]
        self.reps = [self.reps[i] for i in keep]
        # interreduce tails: a lead divides no smaller monomial, so no element
        # reduces its own tail, and no lead moves, the kept leads being
        # pairwise irreducible.  A position-over-term run is read only in its
        # last component (``_last_component``), whose elements have all their
        # terms there and reduce only by its leads: the others stay as they are
        for i, (lead, poly) in enumerate(zip(self.leads, self.polys)):
            if self.pot and lead[0] != self.ncomp - 1:
                continue
            rem, steps = self.nf({t: c for t, c in poly.items() if t != lead})
            if not steps:
                continue
            rem[lead] = prod(b for *_, b in steps) * poly[lead]
            rep = self.fold(self.reps[i], steps) if self.track else {}
            self.polys[i], self.reps[i] = _primitive(rem, lead, rep)


def _run_engine(vectors: list[ModVec], order: MonomialOrder, ncomp: int, track: bool,
                pot: bool = False) -> _Engine:
    eng = _Engine(order, ncomp, track, pot)
    eng.run(vectors)
    return eng


def _engine_basis(I: Ideal, order: MonomialOrder) -> tuple[Polynomial, ...]:
    """The reduced basis of I under the order, from one untracked engine run."""
    vecs = [_to_internal([g])[0] for g in I.generators]
    eng = _run_engine(vecs, order, 1, track=False)
    return _monic(I.ring, zip(eng.leads, eng.polys), vecs)


def _monic(ring: GradingSpec, basis: Iterable, inputs: list[ModVec]) -> tuple[Polynomial, ...]:
    """The (lead, vector) pairs made monic over Q, without their component, sharing one
    exponent tuple per monomial (the inputs' where they have it) and one Fraction per value."""
    exps = {e: e for vec in inputs for _, e in vec}
    values = {_ONE: _ONE}
    out = []
    for lead, mv in basis:
        lc = mv[lead]
        terms: dict[Exps, Fraction] = {}
        for (_, e), c in mv.items():
            q = Fraction(c, lc)
            terms[exps.setdefault(e, e)] = values.setdefault(q, q)
        out.append(Polynomial._from_terms(ring, terms))
    return tuple(out)


# -- public ideal layer -------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    remainder: Polynomial
    is_member: bool


# a normal form row / den: an integer row over standard monomials and a
# positive denominator, with no common factor left between them
NFRow = tuple[dict[Exps, int], int]


def _lowest_terms(row: dict[Exps, int], den: int) -> NFRow:
    """row / den with the common factor of the entries and den divided out."""
    if den == 1:
        return row, 1
    g = gcd(den, *row.values())
    if g == 1:
        return row, den
    return {v: c // g for v, c in row.items()}, den // g


class Ideal:
    """Finitely generated ideal of a weighted polynomial ring over Q."""

    __slots__ = ("ring", "generators", "_gb", "_reducers", "_nf", "_std")

    def __init__(self, ring: GradingSpec, generators: Sequence[Polynomial]):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator lives in a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb: tuple[Polynomial, ...] | None = None
        # per basis element (lead, lc, [(tail exps, -c)]), its primitive integer form with
        # lc > 0; the normal-form memo of integer rows over one denominator each; the
        # standard monomials per degree.  All three are built from the basis on first use
        self._reducers: list[tuple[Exps, int, list[tuple[Exps, int]]]] | None = None
        self._nf: dict[Exps, NFRow] | None = None
        self._std: dict[int, list[Exps]] | None = None

    @classmethod
    def from_strings(cls, ring: GradingSpec, texts: Sequence[str]) -> "Ideal":
        return cls(ring, [parse_polynomial(ring, t) for t in texts])

    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_homogeneous(self) -> bool:
        return all(g.homogeneity().is_homogeneous for g in self.generators)

    def groebner_basis(self, order: MonomialOrder | None = None) -> tuple[Polynomial, ...]:
        """Reduced Groebner basis; cached for the ring's default grevlex order."""
        if order is None:
            if self._gb is None:
                self._gb = self._compute_gb(MonomialOrder.grevlex(self.ring))
            return self._gb
        return self._compute_gb(order)

    def _compute_gb(self, order: MonomialOrder) -> tuple[Polynomial, ...]:
        exps = _monomial_exps(self)
        if exps is not None:
            # a monomial ideal's reduced basis is its minimal monomials
            return _monic_monomials(self.ring, minimal_exps(exps), order)
        return _engine_basis(self, order)

    def _reducer_list(self) -> list[tuple[Exps, int, list[tuple[Exps, int]]]]:
        if self._reducers is None:
            self._reducers = []
            self._nf, self._std = {}, {}
            for g in self.groebner_basis():
                row = _primitive_row(g)
                lead, lc = g.terms[0][0], row.pop(g.terms[0][0])
                self._reducers.append((lead, lc, [(t, -c) for t, c in row.items()]))
        return self._reducers

    def standard_monomials(self, d: int) -> list[Exps]:
        """Monomials of degree d outside the leading-term ideal, sorted; memoized.

        They are a basis of the degree-d part of S/I, and the normal forms of
        ``_nf_row`` are expansions over them.  The returned list is shared
        with the memo and must not be mutated.
        """
        std = self._std.get(d) if self._std else None
        if std is None:
            leads = [lead for lead, _, _ in self._reducer_list()]
            std = self._std[d] = [
                u for u in monomials_of_degree(self.ring.weights, d)
                if not mono_in_ideal(u, leads)
            ]
        return std

    def _nf_row(self, e: Exps) -> NFRow:
        """Normal form of x^e modulo the reduced basis as (row, den); memoized.

        The memo holds no Fraction: each entry is over its own denominator,
        in lowest terms, and sums of entries are taken with ``axpy_over``.
        The returned row is shared with the memo and must not be mutated.
        A reducible x^e = x^s * lead(g), g the primitive integer basis
        element with lead coefficient lc, equals -x^s * tail(g) / lc modulo
        the ideal, and every monomial of that tail is smaller than x^e, so
        the memo fills bottom-up from an explicit stack.
        """
        hit = self._nf.get(e) if self._nf else None
        if hit is not None:
            return hit
        reducers = self._reducer_list()
        memo = self._nf
        pending: dict[Exps, tuple[int, list[tuple[Exps, int]]]] = {}
        stack = [e]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
                continue
            expansion = pending.get(u)
            if expansion is None:
                for lead, lc, tail in reducers:
                    if mono_divides(lead, u):
                        s = mono_div(u, lead)
                        expansion = (lc, [(mono_mul(s, t), c) for t, c in tail])
                        break
                else:
                    memo[u] = ({u: 1}, 1)
                    stack.pop()
                    continue
                missing = [v for v, _ in expansion[1] if v not in memo]
                if missing:
                    # u is revisited once everything pushed above it is memoized
                    pending[u] = expansion
                    stack.extend(missing)
                    continue
            stack.pop()
            lc, terms = expansion
            nf: dict[Exps, int] = {}
            den = 1
            for v, c in terms:
                den = axpy_over(nf, den, c, *memo[v])
            memo[u] = _lowest_terms(nf, den * lc)
        return memo[e]

    def minimal_generators(self) -> list[Polynomial]:
        """Minimal generating subset, scanned in (degree, leading term) order
        by ``minimal_rows``."""
        reports = [g.homogeneity() for g in self.generators]
        if not all(h.is_homogeneous for h in reports):
            raise HomogeneityError("minimal generators need a homogeneous ideal")
        order = MonomialOrder.grevlex(self.ring)
        gens = sorted(
            zip((h.degree for h in reports), self.generators),
            key=lambda dg: (dg[0], order.key(dg[1].terms[0][0])),
        )
        rows = [(d, integral(dict(g.terms))[0]) for d, g in gens]
        return [gens[k][1] for k in minimal_rows(self.ring.weights, rows)]

    def normal_form(self, p: Polynomial) -> NormalForm:
        if p.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        coeffs, pden = integral(dict(p.terms))
        rem: dict[Exps, int] = {}
        den = 1
        for e, c in coeffs.items():
            den = axpy_over(rem, den, c, *self._nf_row(e))
        den *= pden
        r = Polynomial._from_terms(self.ring, {v: Fraction(c, den) for v, c in rem.items()})
        return NormalForm(r, r.is_zero())

    def contains_poly(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_member

    def is_proper(self) -> bool:
        gb = self.groebner_basis()
        return not any(g.is_constant() and not g.is_zero() for g in gb)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner_basis() == other.groebner_basis()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


def minimal_rows(weights: Sequence[int], rows: Sequence[tuple[int, dict[Exps, int]]]) -> list[int]:
    """The indices of a minimal generating subset of homogeneous integer rows.

    Each row comes as (degree, row), in ascending degree.  By graded Nakayama
    a row of degree d is redundant exactly when it lies in the span of the
    degree-d monomial multiples of the rows kept before it.
    """
    kept: list[int] = []
    one = (0,) * len(weights)
    span_degree = None
    for i, (d, row) in enumerate(rows):
        if d != span_degree:
            span, index, span_degree = Span(), {}, d
            for k in kept:
                kd, kept_row = rows[k]
                for m in monomials_of_degree(weights, d - kd):
                    span.add(_coordinates(kept_row, m, index))
        # a kept row is its own only degree-d multiple, so the span stays current
        if span.add(_coordinates(row, one, index)):
            kept.append(i)
    return kept


def _primitive_row(p: Polynomial) -> dict[Exps, int]:
    """p scaled to a primitive integer row, positive at its leading term."""
    row, _ = integral(dict(p.terms))
    return _primitive(row, p.terms[0][0])[0]


def _coordinates(row: dict[Exps, int], m: Exps, index: dict[Exps, int]) -> dict[int, int]:
    """x^m * row over the monomials numbered in index (extended on demand)."""
    return {index.setdefault(mono_mul(m, e), len(index)): c for e, c in row.items()}


def contains(big: Ideal, small: Ideal) -> bool:
    """Whether every generator of ``small`` lies in ``big``."""
    if big.ring != small.ring:
        raise RingMismatchError("ideals live in different rings")
    return all(big.contains_poly(g) for g in small.generators)


def _by_basis(ring: GradingSpec, basis: Sequence[Polynomial]) -> Ideal:
    """The ideal generated by a reduced grevlex basis, with that basis cached."""
    out = Ideal(ring, basis)
    out._gb = out.generators
    return out


def _monomial_exps(I: Ideal) -> list[Exps] | None:
    """The exponent vectors of I's generators when each is a single term,
    whatever its coefficient; None when some generator is not."""
    gens = I.generators
    if all(g.is_monomial() for g in gens):
        return [g.terms[0][0] for g in gens]
    return None


def _monic_monomials(ring: GradingSpec, exps: Iterable[Exps], order: MonomialOrder,
                     inputs: Iterable[Exps] = ()) -> tuple[Polynomial, ...]:
    """The monomials x^e, ascending by the order, with coefficient ``_ONE``; an
    e equal to one of the inputs shares the input's tuple."""
    canon = {e: e for e in inputs}
    return tuple(Polynomial._from_terms(ring, {canon.get(e, e): _ONE})
                 for e in sorted(exps, key=order.key))


def _monomial_operation(op, I: Ideal, J: Ideal) -> Ideal | None:
    """op(I, J) on exponent vectors when both ideals are monomial, else None.

    op maps the generators' exponent vectors to the minimal ones of the
    result, which are its reduced grevlex basis."""
    a, b = _monomial_exps(I), _monomial_exps(J)
    if a is None or b is None:
        return None
    return _by_basis(I.ring, _monic_monomials(I.ring, op(a, b), MonomialOrder.grevlex(I.ring),
                                              a + b))


def _last_component(ring: GradingSpec, columns: list[ModVec], ncomp: int) -> Ideal:
    """The last coordinates of the elements of the columns' module that have no
    other coordinate.  Under the position-over-term order these are the basis
    elements with a lead in the last component: a reduced grevlex basis."""
    eng = _run_engine(columns, MonomialOrder.grevlex(ring), ncomp, track=False, pot=True)
    return _by_basis(ring, _monic(ring, [(lead, mv) for lead, mv in zip(eng.leads, eng.polys)
                                         if lead[0] == ncomp - 1], columns))


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J: the pairwise lcms of the generators when both ideals are
    monomial, and otherwise ``_engine_intersect``."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    out = _monomial_operation(intersect_exps, I, J)
    return out if out is not None else _engine_intersect(I, J)


def _engine_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J, the second coordinates of the module of the columns (f, f), f in
    I, and (g, 0), g in J, where the first coordinate vanishes."""
    columns = [{(k, e): c for e, c in integral(dict(f.terms))[0].items() for k in (0, 1)}
               for f in I.generators]
    columns += [{(0, e): c for e, c in integral(dict(g.terms))[0].items()} for g in J.generators]
    return _last_component(I.ring, columns, 2)


def _engine_colon(I: Ideal, J: Ideal) -> Ideal:
    """I : J: with f_1, ..., f_r generating J, a * f_k lies in I for every k
    exactly when (0, ..., 0, a) lies in the module of the columns
    (f_1, ..., f_r, 1) and g * e_k, g in I and k < r."""
    # scaling a generator of J changes neither J nor the colon
    fs = [integral(dict(f.terms))[0] for f in J.generators]
    gs = [integral(dict(g.terms))[0] for g in I.generators]
    r = len(fs)
    column = {(k, e): c for k, f in enumerate(fs) for e, c in f.items()}
    column[(r, (0,) * I.ring.n)] = 1
    columns = [column] + [{(k, e): c for e, c in g.items()} for g in gs for k in range(r)]
    return _last_component(I.ring, columns, r + 1)


def _adjoin_socle(I: Ideal, socle: Sequence[dict[Exps, int]]) -> Ideal:
    """I + (socle), for integer rows over standard monomials of I that every
    variable maps into I.

    That ideal is I plus the span of the rows, so I's reduced basis and the
    rows in echelon form are a Groebner basis of it: ``_Engine.nf`` brings
    each row into echelon form against the basis as it grows, and
    ``_Engine._reduce_basis`` drops the leads that a row's lead divides and
    reduces the tails.  No S-pair is formed.
    """
    eng = _Engine(MonomialOrder.grevlex(I.ring), 1, track=False)
    inputs = [{(0, e): c for e, c in _primitive_row(g).items()} for g in I.groebner_basis()]
    inputs += [{(0, e): c for e, c in row.items()} for row in socle]
    for vec in inputs:
        rem, _ = eng.nf(vec)
        if rem:
            eng._insert(rem, {})
    eng._reduce_basis()
    return _by_basis(I.ring, _monic(I.ring, zip(eng.leads, eng.polys), inputs))


# -- syzygies -----------------------------------------------------------------

def module_syzygies(columns: Sequence[Sequence[Polynomial]], ring: GradingSpec) -> list[tuple[Polynomial, ...]]:
    """Generating set of the syzygy module of the given column vectors.

    Returns rows s with sum_j s[j] * columns[j] == 0 (componentwise, exactly):
    the rows of ``_syzygy_rows`` as Polynomials, sharing one exponent tuple
    per monomial.  Each row is a primitive integer row whose leading term
    (the largest under the grevlex key, ties to the lower index) has a
    positive coefficient; no row is repeated.
    """
    cols = [tuple(col) for col in columns]
    if not cols:
        return []
    ncomp = len(cols[0])
    for col in cols:
        if len(col) != ncomp:
            raise ValueError("columns must all have the same length")
        for p in col:
            if p.ring != ring:
                raise RingMismatchError("column entry lives in a different ring")
    canon: dict[Exps, Exps] = {}
    return [_from_internal(row, ring, len(cols), canon)
            for row in _syzygy_rows([_to_internal(col) for col in cols], ring, ncomp)]


def _syzygy_rows(scaled: Sequence[tuple[ModVec, Fraction]], ring: GradingSpec,
                 ncomp: int) -> list[ModVec]:
    """The rows of ``module_syzygies`` as ModVecs, for the columns f_j * u_j
    given as the ``_to_internal`` pairs (u_j, f_j), with ncomp components.

    Schreyer's construction: division syzygies of all S-pairs of a reduced
    basis G, pulled back along G = T * columns, plus the rows of I - Q * T
    where columns = Q * G.
    """
    eng = _run_engine([u for u, _ in scaled], MonomialOrder.grevlex(ring), ncomp, track=True)
    # rows by their integer terms: primitive with a positive lead, so a
    # repeated syzygy is an exact repeat
    rows: dict[frozenset, ModVec] = {}
    # eng.reps[g] is basis element g over the u_j (component j is input j), so
    # folding a syzygy of the basis (its steps) into a row gives one of the
    # u_j; its entry j over the columns is row_j / f_j, an integer once the
    # row is multiplied by the lcm of the f_j's numerators
    big = lcm(*(f.numerator for _, f in scaled))
    back = [f.denominator * (big // f.numerator) for _, f in scaled]

    def emit(row: ModVec):
        if row:
            row, _ = _primitive({t: c * back[t[0]] for t, c in row.items()}, max(row, key=eng.key))
            rows.setdefault(frozenset(row.items()), row)

    # Schreyer division syzygies over all same-component S-pairs of the basis
    for a in range(len(eng.polys)):
        for b in range(a + 1, len(eng.polys)):
            ca, ea = eng.leads[a]
            cb, eb = eng.leads[b]
            if ca != cb:
                continue
            svec, pre = eng._spair(a, b, mono_lcm(ea, eb))
            rem, steps = eng.nf(svec)
            if rem:
                raise AlgebraError("S-pair of a Groebner basis failed to reduce to zero")
            emit(eng.fold({}, pre + steps))

    # rows of I - Q*T, where Q divides the inputs by the basis and T = eng.reps
    one = tuple(0 for _ in range(ring.n))
    for i, (u, _) in enumerate(scaled):
        rem, steps = eng.nf(u)
        if rem:
            raise AlgebraError("input column is not in the module it generates")
        emit(eng.fold({(i, one): 1}, steps))
    return list(rows.values())


def syzygies(I: Ideal) -> list[tuple[Polynomial, ...]]:
    """Syzygy rows of the stored generators of a homogeneous ideal."""
    if not I.is_homogeneous:
        raise HomogeneityError("syzygies require homogeneous generators")
    if not I.generators:
        return []
    return module_syzygies([[g] for g in I.generators], I.ring)
