"""Groebner bases over Q and the ideal operations built on them.

One engine handles both ideals and submodules of free modules: an internal
"vector" is a sparse dict {(component, exponents): coefficient}, and every
sum in the engine is one ``ring.axpy``.  Scalar polynomials are the
one-component case.

The engine has one reduction loop, ``_Engine.nf``, which returns the
remainder together with its reduction steps (basis index, shift,
coefficient): the division quotients.  ``_Engine.fold`` applies steps to
representations over the inputs; tracked Buchberger, exact division and
syzygies all read what they need off the steps.  Syzygies come from
Schreyer's theorem: S-pair division syzygies of a reduced basis, translated
back to the caller's generators through the tracked representation matrix.

An ``Ideal`` caches its reduced grevlex basis, and from it the normal form
of every monomial it meets and its standard monomials per degree; the
predicate and the Koszul and Tor strands all read these memos.  Integral
coefficients of the basis tails and of standard monomials are kept as
``int``, so strand sums stay integer where they can.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    AlgebraError,
    HomogeneityError,
    RingMismatchError,
    SaturationLimitError,
    ZeroColonError,
)
from .linalg import Span
from .ring import (
    Exps,
    GradingSpec,
    Polynomial,
    axpy,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
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
# ModTerm = (component, exps); ModVec = dict[ModTerm, coefficient], unordered.
# A vector's leading term is its largest term under ``_Engine.key``, the
# order on exponents with ties broken towards the lower component.

ModTerm = tuple[int, Exps]
ModVec = dict[ModTerm, Fraction]


def _to_internal(vec: Sequence[Polynomial]) -> ModVec:
    return {(comp, e): c for comp, p in enumerate(vec) for e, c in p.terms}


def _from_internal(mv: ModVec, ring: GradingSpec, ncomp: int) -> tuple[Polynomial, ...]:
    per: list[dict[Exps, Fraction]] = [dict() for _ in range(ncomp)]
    for (comp, e), c in mv.items():
        per[comp][e] = c
    return tuple(Polynomial(ring, d) for d in per)


def _shift(mv: ModVec, shift: Exps) -> ModVec:
    """x^shift * mv."""
    return {(comp, mono_mul(e, shift)): c for (comp, e), c in mv.items()}


# A reduction step (basis index, shift, c) records that c * x^shift * polys[hit]
# was subtracted; the same steps applied to the tracked representations
# (``_Engine.fold``) keep each vector's coefficients over the inputs.
Step = tuple[int, Exps, Fraction]


class _Engine:
    """Buchberger machinery for one order / component count."""

    def __init__(self, order: MonomialOrder, ncomp: int, track: bool):
        self.order = order
        self.ncomp = ncomp
        self.track = track
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
            k = self._keys[t] = (self.order.key(t[1]), -t[0])
        return k

    def nf(self, vec: ModVec) -> tuple[ModVec, list[Step]]:
        """Full normal form against the current basis, and its reduction steps.

        vec equals the sum of c * x^shift * polys[hit] over the steps plus the
        remainder.  Each step removes a term strictly smaller than the one
        before, so a (hit, shift) pair occurs at most once: the steps are the
        division quotients.
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
            # polys[hit] is monic, so this clears the lead exactly
            axpy(work, -c, _shift(self.polys[hit], shift))
            steps.append((hit, shift, c))
        return rem, steps

    def fold(self, rep: ModVec, steps: list[Step]) -> ModVec:
        """rep minus c * x^shift * reps[hit] for each step, in place; returns rep."""
        for hit, shift, c in steps:
            axpy(rep, -c, _shift(self.reps[hit], shift))
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
        """Reduce vec; a nonzero remainder becomes a monic basis element.

        vec is input ``unit``, or else built from the basis by the steps
        ``pre``.  Its representation is folded from those and the reduction
        steps, and only computed when the remainder is kept.
        """
        rem, steps = self.nf(vec)
        if not rem:
            return
        lead = max(rem, key=self.key)
        inv = Fraction(1) / rem[lead]
        self.leads.append(lead)
        self.polys.append({t: inv * c for t, c in rem.items()})
        rep: ModVec = {}
        if self.track:
            if unit is not None:
                rep[(unit, (0,) * self.order.grading.n)] = 1
            rep = {t: inv * c for t, c in self.fold(rep, pre + steps).items()}
        self.reps.append(rep)
        self._push_pairs(heap, pending, len(self.polys) - 1)

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
        """x^si * polys[i] - x^sj * polys[j], and the steps that fold a
        representation of zero into one of it."""
        si = mono_div(lcm, self.leads[i][1])
        sj = mono_div(lcm, self.leads[j][1])
        svec = _shift(self.polys[i], si)
        axpy(svec, -1, _shift(self.polys[j], sj))
        return svec, [(i, si, -1), (j, sj, 1)]

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
        # pairwise irreducible
        for i, (lead, poly) in enumerate(zip(self.leads, self.polys)):
            rem, steps = self.nf({t: c for t, c in poly.items() if t != lead})
            rem[lead] = poly[lead]
            self.polys[i] = rem
            if self.track:
                self.fold(self.reps[i], steps)


def _run_engine(vectors: list[ModVec], order: MonomialOrder, ncomp: int, track: bool) -> _Engine:
    eng = _Engine(order, ncomp, track)
    eng.run(vectors)
    return eng


# -- public ideal layer -------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    remainder: Polynomial
    is_member: bool


@dataclass(frozen=True)
class SaturationResult:
    ideal: "Ideal"
    exponent: int  # least t with I : J^t equal to the saturation


Coeff = int | Fraction


def _as_int(c: Coeff) -> Coeff:
    """c as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


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
        # (lead, [(tail exps, -c / lc)]) per basis element, the monomial
        # normal-form memo and the standard monomials per degree; all are
        # built lazily from the cached basis
        self._reducers: list[tuple[Exps, list[tuple[Exps, Coeff]]]] | None = None
        self._nf: dict[Exps, dict[Exps, Coeff]] = {}
        self._std: dict[int, list[Exps]] = {}

    @classmethod
    def from_strings(cls, ring: GradingSpec, texts: Sequence[str]) -> "Ideal":
        from .ring import parse_polynomial

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
        vecs = [_to_internal([g]) for g in self.generators]
        eng = _run_engine(vecs, order, 1, track=False)
        polys = [_from_internal(mv, self.ring, 1)[0] for mv in eng.polys]
        return tuple(polys)

    def _reducer_list(self) -> list[tuple[Exps, list[tuple[Exps, Coeff]]]]:
        if self._reducers is None:
            self._reducers = [
                (g.terms[0][0], [(t, _as_int(-c / g.terms[0][1])) for t, c in g.terms[1:]])
                for g in self.groebner_basis()
            ]
        return self._reducers

    def standard_monomials(self, d: int) -> list[Exps]:
        """Monomials of degree d outside the leading-term ideal, sorted; memoized.

        They are a basis of the degree-d part of S/I, and the normal forms of
        ``nf_monomial`` are expansions over them.  The returned list is shared
        with the memo and must not be mutated.
        """
        std = self._std.get(d)
        if std is None:
            leads = [lead for lead, _ in self._reducer_list()]
            std = self._std[d] = [
                u for u in monomials_of_degree(self.ring.weights, d)
                if not any(mono_divides(lead, u) for lead in leads)
            ]
        return std

    def nf_monomial(self, e: Exps) -> dict[Exps, Coeff]:
        """Normal form of x^e modulo the reduced grevlex basis, memoized.

        A standard monomial maps to {x^e: 1}, and the basis's integral tail
        coefficients are ints, so over an ideal with an integral reduced basis
        every coefficient is an int.  The returned dict is shared with the
        memo and must not be mutated.
        A reducible x^e = x^s * lead(g) equals -x^s * tail(g) / lc(g) modulo
        the ideal, and every monomial of that tail is smaller than x^e, so
        the memo fills bottom-up from an explicit stack.
        """
        memo = self._nf
        hit = memo.get(e)
        if hit is not None:
            return hit
        reducers = self._reducer_list()
        pending: dict[Exps, list[tuple[Exps, Coeff]]] = {}
        stack = [e]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
                continue
            expansion = pending.get(u)
            if expansion is None:
                for lead, tail in reducers:
                    if mono_divides(lead, u):
                        s = mono_div(u, lead)
                        expansion = [(mono_mul(s, t), c) for t, c in tail]
                        break
                else:
                    memo[u] = {u: 1}
                    stack.pop()
                    continue
                missing = [v for v, _ in expansion if v not in memo]
                if missing:
                    # u is revisited once everything pushed above it is memoized
                    pending[u] = expansion
                    stack.extend(missing)
                    continue
            stack.pop()
            nf: dict[Exps, Coeff] = {}
            for v, c in expansion:
                axpy(nf, c, memo[v])
            memo[u] = nf
        return memo[e]

    def minimal_generators(self) -> list[Polynomial]:
        """Minimal generating subset, scanned in (degree, leading term) order.

        By graded Nakayama a generator of degree d is redundant exactly when it
        lies in the span of the degree-d monomial multiples of the kept ones.
        """
        if not self.is_homogeneous:
            raise HomogeneityError("minimal generators need a homogeneous ideal")
        order = MonomialOrder.grevlex(self.ring)
        gens = sorted(
            self.generators,
            key=lambda g: (g.homogeneity().degree, order.key(g.terms[0][0])),
        )
        kept: list[Polynomial] = []
        one = (0,) * self.ring.n
        span_degree = None
        for g in gens:
            d = g.homogeneity().degree
            if d != span_degree:
                span, index, span_degree = Span(), {}, d
                for k in kept:
                    for m in monomials_of_degree(self.ring.weights, d - k.homogeneity().degree):
                        span.add(_coordinates(k, m, index))
            # a kept g is its own only degree-d multiple, so the span stays current
            if span.add(_coordinates(g, one, index)):
                kept.append(g)
        return kept

    def normal_form(self, p: Polynomial) -> NormalForm:
        if p.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        rem: dict[Exps, Fraction] = {}
        for e, c in p.terms:
            axpy(rem, c, self.nf_monomial(e))
        r = Polynomial(self.ring, rem)
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


def _coordinates(p: Polynomial, m: Exps, index: dict[Exps, int]) -> dict[int, Fraction]:
    """x^m * p over the monomials numbered in index (extended on demand)."""
    return {index.setdefault(mono_mul(m, e), len(index)): c for e, c in p.terms}


def contains(big: Ideal, small: Ideal) -> bool:
    """Whether every generator of ``small`` lies in ``big``."""
    if big.ring != small.ring:
        raise RingMismatchError("ideals live in different rings")
    return all(big.contains_poly(g) for g in small.generators)


def _fresh_name(ring: GradingSpec, base: str = "t") -> str:
    if base not in ring.names:
        return base
    i = 0
    while f"{base}{i}" in ring.names:
        i += 1
    return f"{base}{i}"


def _elimination_order(ring: GradingSpec) -> MonomialOrder:
    """The order eliminating a fresh first variable t of weight 1 from ring."""
    ext = GradingSpec((_fresh_name(ring),) + ring.names, (1,) + ring.weights)
    return MonomialOrder.elimination(ext, 1)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via a single elimination variable: eliminate t from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    # t * f and (1 - t) * g, with t the first exponent
    vecs = [{(0, (1,) + e): c for e, c in f.terms} for f in I.generators]
    vecs += [{(0, (t,) + e): -c if t else c for e, c in g.terms for t in (0, 1)}
             for g in J.generators]
    eng = _run_engine(vecs, _elimination_order(ring), 1, track=False)
    kept = [Polynomial(ring, {e[1:]: c for (_, e), c in mv.items()})
            for mv in eng.polys if all(e[0] == 0 for _, e in mv)]
    out = Ideal(ring, kept)
    # the t-free part of the reduced elimination basis is itself a reduced
    # grevlex basis of the intersection, so cache it
    out._gb = tuple(kept)
    return out


def _exact_div(p: Polynomial, f: Polynomial) -> Polynomial:
    """p / f when the division is exact; raises if a remainder appears."""
    if f.is_zero():
        raise AlgebraError("division by the zero polynomial")
    order = MonomialOrder.grevlex(p.ring)
    lc = f.terms[0][1]
    eng = _Engine(order, 1, track=False)
    eng.leads.append((0, f.terms[0][0]))
    eng.polys.append(_to_internal([f * (Fraction(1) / lc)]))
    rem, steps = eng.nf(_to_internal([p]))
    if rem:
        raise AlgebraError(f"{f} does not divide {p}")
    # one basis element, so the shifts are distinct: they are the quotient's terms
    return Polynomial(p.ring, {shift: c / lc for _, shift, c in steps})


def colon(I: Ideal, J: Ideal) -> Ideal:
    """I : J, computed as the intersection of I : f over the generators f of J."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    if J.is_zero():
        raise ZeroColonError("colon by the zero ideal is undefined")
    result: Ideal | None = None
    for f in J.generators:
        meet = intersect(I, Ideal(I.ring, [f]))
        quot = Ideal(I.ring, [_exact_div(g, f) for g in meet.generators])
        result = quot if result is None else intersect(result, quot)
    if result is None:
        raise ZeroColonError("colon by an ideal without generators")
    return result


SATURATION_CAP = 64


def saturate(I: Ideal, J: Ideal, cap: int = SATURATION_CAP) -> SaturationResult:
    """I : J^infinity by iterating colons until the chain stabilizes."""
    current = I
    exponent = 0
    for step in range(cap):
        nxt = colon(current, J)
        if nxt == current:
            return SaturationResult(current, exponent)
        current = nxt
        exponent = step + 1
    raise SaturationLimitError(
        f"saturation did not stabilize within {cap} colon iterations"
    )


# -- syzygies -----------------------------------------------------------------

def module_syzygies(columns: Sequence[Sequence[Polynomial]], ring: GradingSpec) -> list[tuple[Polynomial, ...]]:
    """Generating set of the syzygy module of the given column vectors.

    Returns rows s with sum_j s[j] * columns[j] == 0 (componentwise, exactly).
    Schreyer's construction: division syzygies of all S-pairs of a reduced
    basis G, pulled back along G = T * columns, plus the rows of I - Q * T
    where columns = Q * G.
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
    order = MonomialOrder.grevlex(ring)
    vecs = [_to_internal(col) for col in cols]
    eng = _run_engine(vecs, order, ncomp, track=True)
    rows: list[tuple[Polynomial, ...]] = []
    # eng.reps[g] is basis element g over the inputs (component i is input i),
    # so folding a syzygy of the basis (its steps) into a row gives one of the inputs

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
            row = eng.fold({}, pre + steps)
            if row:
                rows.append(_from_internal(row, ring, len(cols)))

    # rows of I - Q*T, where Q divides the inputs by the basis and T = eng.reps
    one = tuple(0 for _ in range(ring.n))
    for i, vec in enumerate(vecs):
        rem, steps = eng.nf(vec)
        if rem:
            raise AlgebraError("input column is not in the module it generates")
        row = eng.fold({(i, one): 1}, steps)
        if row:
            rows.append(_from_internal(row, ring, len(cols)))
    return rows


def syzygies(I: Ideal) -> list[tuple[Polynomial, ...]]:
    """Syzygy rows of the stored generators of a homogeneous ideal."""
    if not I.is_homogeneous:
        raise HomogeneityError("syzygies require homogeneous generators")
    if not I.generators:
        return []
    return module_syzygies([[g] for g in I.generators], I.ring)
