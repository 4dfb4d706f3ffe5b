"""The strongly Golod predicate and the ideal calculus around it.

An ideal I is strongly Golod when the square of its derivative ideal lies
back inside I; over a field of characteristic zero this forces the quotient
ring to be Golod.  This module decides the predicate with an explicit
witness on failure and implements the constructions that preserve it:
powers, symbolic and saturated powers, colon ideals under the stabilization
condition I : J = I : J^2, and sums with powers of a containing prime.

The predicate reads I's reduced basis, not its stored generators: the
partials of any generating set of I generate d(I) together with I, so the
square of their ideal lies in I exactly when d(I)^2 does.  A reduced basis
of single terms makes I a monomial ideal, decided by the combinatorial test
of ``monomial``; any other basis is differentiated as integer rows, trimmed
to a minimal subset by ``groebner.minimal_rows`` (graded Nakayama, the
routine behind ``Ideal.minimal_generators``) and scanned pair by pair.  Only
a failure reads the stored generators: its witness is the first failing
pair of their derivative list.

``colon`` takes one of three routes.  Monomial ideals take the
componentwise differences of their exponents.  A homogeneous I by an ideal
whose reduced basis is the variables, the maximal ideal m, adds the socle of
S/I to I's reduced basis: (I : m)/I is the socle, the top Koszul homology
H_n(x; S/I) shifted by the sum of the weights.  Its dimension in each degree
is a Betti number of S/I, at most that of S/in(I) (upper semicontinuity), so
the socle is read only in the socle degrees of S/in(I), and not at all when
S/in(I) has none.  Every other colon is one engine run
(``groebner._engine_colon``).  ``saturate`` iterates colons.

``monomial`` and ``koszul`` are the layers below this one: monomial inputs
take the combinatorial routes of ``monomial``, and the socle and
``derivative_cycle_check`` read the strands of ``koszul``.  The predicate's
report and witness types are defined in ``monomial`` and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from random import Random
from typing import Sequence

from .errors import (AlgebraError, ContainmentError, HomogeneityError, ImproperIdealError,
                     RingMismatchError, SaturationLimitError, ZeroColonError)
from .groebner import (Ideal, NFRow, _adjoin_socle, _by_basis, _engine_colon, _monomial_exps,
                       _monomial_operation, _primitive_row, contains, minimal_rows)
from .koszul import _bounds, _coordinates, _dims, _element, _koszul, _split
from .linalg import _primitive
from .monomial import (DerivativePairWitness, MonomialIdeal, MonomialQuotientWitness,
                       StronglyGolodReport, saturate_at_irrelevant, squarefree_symbolic_power,
                       strongly_golod_monomial)
from .ring import Exps, GradingSpec, Polynomial, axpy_over, colon_exps, mono_in_ideal, mono_mul


def maximal_ideal(ring: GradingSpec) -> Ideal:
    return Ideal(ring, list(ring.variables()))


def derivative_ideal(I: Ideal) -> Ideal:
    """Ideal generated by all partial derivatives of the stored generators."""
    if not I.is_proper():
        raise ImproperIdealError("derivative ideal is only defined for proper ideals")
    gens: list[Polynomial] = []
    seen = set()
    for g in I.generators:
        for i in range(I.ring.n):
            p = g.partial(i)
            if p.is_zero() or p.terms in seen:
                continue
            seen.add(p.terms)
            gens.append(p)
    return Ideal(I.ring, gens)


def strongly_golod(I: Ideal) -> StronglyGolodReport:
    """Decide whether the square of the derivative ideal lies in I.

    Since d(f*g) = f*dg + g*df, the partials of any generating set G of I
    generate d(I) together with I, so (dG)^2 in I decides the predicate
    whatever G is.  It is decided on I's reduced basis: when every basis
    element is a single term, I is a monomial ideal and
    ``strongly_golod_monomial`` decides it with no normal form; otherwise a
    minimal subset of the partials of the basis is scanned
    (``_derivative_rows``, ``minimal_rows``).  The zero ideal passes
    vacuously; the unit ideal is rejected.  On failure the first offending
    pair of the full derivative list of the stored generators is reported,
    in generator order, together with the nonzero normal form of its product.
    """
    if not I.is_homogeneous:
        raise HomogeneityError("the strongly Golod predicate needs a homogeneous ideal")
    if not I.is_proper():
        raise ImproperIdealError("the unit ideal is outside the predicate's domain")
    basis = I.groebner_basis()
    if all(g.is_monomial() for g in basis):
        exps = [g.terms[0][0] for g in basis]
        passes = strongly_golod_monomial(MonomialIdeal(I.ring, exps)).verdict
    else:
        rows = _derivative_rows(I)
        kept = minimal_rows(I.ring.weights, rows)
        passes = _escaping_pair(I, [rows[k][1] for k in kept]) is None
    if passes:
        return StronglyGolodReport(True)
    D = derivative_ideal(I).generators
    a, b = _escaping_pair(I, [_primitive_row(g) for g in D])
    witness = DerivativePairWitness(D[a], D[b], I.normal_form(D[a] * D[b]).remainder)
    return StronglyGolodReport(False, witness)


def _derivative_rows(I: Ideal) -> list[tuple[int, dict[Exps, int]]]:
    """The nonzero partials of the primitive integer forms of I's reduced basis
    elements (``Ideal._reducer_list``), as (degree, primitive integer row),
    stably sorted by degree."""
    ring = I.ring
    out = []
    for lead, lc, tail in I._reducer_list():
        terms = [(lead, lc), *((t, -c) for t, c in tail)]
        d = ring.weighted_degree(lead)
        for i, w in enumerate(ring.weights):
            row = {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in terms if e[i]}
            if row:
                out.append((d - w, _primitive(row, next(iter(row)))[0]))
    out.sort(key=lambda dr: dr[0])
    return out


def _escaping_pair(I: Ideal, rows: Sequence[dict[Exps, int]]) -> tuple[int, int] | None:
    """The first (a, b), a <= b, with rows[a] * rows[b] outside I; None if none.

    The rows are primitive integer rows: scaling a generator changes no
    product's membership.  Every sum below is int arithmetic over the memo's
    integer normal-form rows, kept over a common denominator
    (``axpy_over``).  Normal forms modulo a reduced basis are linear, so
    NF(d_a * d_b) is the sum of c * NF(x^e * d_a) over the terms c*x^e of
    d_b.  The normal forms of the monomial multiples of d_a are kept for
    every b >= a.
    """
    nf_row = I._nf_row
    for a, row_a in enumerate(rows):
        multiples: dict[Exps, NFRow] = {}
        for b in range(a, len(rows)):
            rem: dict[Exps, int] = {}
            den = 1
            for e2, c2 in rows[b].items():
                multiple = multiples.get(e2)
                if multiple is None:
                    acc: dict[Exps, int] = {}
                    acc_den = 1
                    for e1, c1 in row_a.items():
                        acc_den = axpy_over(acc, acc_den, c1, *nf_row(mono_mul(e1, e2)))
                    multiple = multiples[e2] = (acc, acc_den)
                den = axpy_over(rem, den, c2, *multiple)
            if rem:
                return a, b
    return None


def derivative_cycle_check(
    I: Ideal, l_max: int | None = None, d_max: int | None = None
) -> bool:
    """Every positive-degree class in the window has a cycle with coefficients in d(I)R.

    Precondition: I is strongly Golod.  d(I)K, the elements of K with
    coefficients in d(I)R, is a subcomplex, and K/d(I)K = K(S/J) for
    J = I + d(I).  By the long exact sequence, H(d(I)K) -> H(K) is onto at a
    bidegree exactly when every class of K maps to a boundary of K(S/J).
    """
    if not strongly_golod(I).verdict:
        raise AlgebraError("derivative cycle check needs a strongly Golod ideal")
    cx = _koszul(I)
    # no truncated is reported, so no strand outside the window is visited
    dims = _dims(cx, _split(cx, *_bounds(cx, l_max, d_max))[0])
    J = Ideal(I.ring, I.generators + derivative_ideal(I).generators)
    cy = _koszul(J)
    for l, d in sorted(k for k in dims if k[0] >= 1):
        _, index = cy.basis(l, d)
        for z in cx.homology(l, d)[1]:
            image, _ = _coordinates(J, _element(cx, l, d, z), index, (0,) * cx.n)
            if image and not cy.boundary_span(l, d).contains(image):
                return False
    return True


def power(I: Ideal, k: int) -> Ideal:
    """Ordinary power I^k, generated by k-fold products of the generators."""
    if k < 1:
        raise ValueError("power exponent must be at least 1")
    if I.is_zero():
        return Ideal(I.ring, [])
    gens = []
    seen = set()
    for combo in combinations_with_replacement(I.generators, k):
        p = Polynomial.constant(I.ring, 1)
        for f in combo:
            p = p * f
        if p.terms not in seen:
            seen.add(p.terms)
            gens.append(p)
    return Ideal(I.ring, gens)


# -- colons and saturation -------------------------------------------------------

def colon(I: Ideal, J: Ideal) -> Ideal:
    """I : J: by exponents when both ideals are monomial
    (``groebner._monomial_operation``), by the socle (``_socle_colon``) when
    I is homogeneous and J's reduced basis is the variables, and otherwise
    by one engine run (``groebner._engine_colon``)."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    if J.is_zero():
        raise ZeroColonError("colon by the zero ideal is undefined")
    out = _monomial_operation(colon_exps, I, J)
    if out is not None:
        return out
    if I.is_homogeneous and _is_maximal(J):
        return _socle_colon(I)
    return _engine_colon(I, J)


def _is_maximal(J: Ideal) -> bool:
    """Whether J's reduced basis is the variables: n monic single terms of
    total degree 1, so n distinct variables."""
    basis = J.groebner_basis()
    return len(basis) == J.ring.n and all(g.is_monomial() and sum(g.terms[0][0]) == 1
                                          for g in basis)


def _socle_colon(I: Ideal) -> Ideal:
    """I : m for a homogeneous I: its reduced basis and the socle of S/I.

    The socle in degree e is the kernel of the top Koszul strand, e_1...e_n
    times the standard monomials of degree e, in internal degree e + sum(w).
    Only the socle degrees of S/in(I) are read: the degrees of the minimal
    generators of in(I) : m outside in(I).  The strands are built on a
    scratch copy of I, so neither I nor the result keeps their memos.
    """
    ring = I.ring
    scratch = _by_basis(ring, I.groebner_basis())
    leads = [g.terms[0][0] for g in scratch.generators]
    units = [tuple(int(i == j) for j in range(ring.n)) for i in range(ring.n)]
    degrees = {ring.weighted_degree(u) for u in colon_exps(leads, units)
               if not mono_in_ideal(u, leads)}
    socle = []
    cx = _koszul(scratch) if degrees else None
    for d in (e + sum(ring.weights) for e in degrees):
        keys, _ = cx.basis(ring.n, d)
        socle += [{keys[t][1]: c for t, c in row.items()} for row in cx.kernel(ring.n, d)]
    return _adjoin_socle(scratch, socle) if socle else _by_basis(ring, scratch.generators)


SATURATION_CAP = 64


@dataclass(frozen=True)
class SaturationResult:
    ideal: Ideal
    exponent: int  # least t with I : J^t equal to the saturation


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


@dataclass(frozen=True)
class SymbolicPowerSpec:
    """Which notion of k-th symbolic power to compute.

    mode 'saturated'  : I^k : m^infinity (saturation at the irrelevant ideal)
    mode 'user'       : I^k : L^infinity for a caller-supplied ideal L
    mode 'squarefree' : intersection of P^k over the minimal primes, for
                        squarefree monomial ideals only
    """

    k: int
    mode: str = "saturated"
    L: Ideal | None = None

    def __post_init__(self):
        if self.mode not in ("saturated", "user", "squarefree"):
            raise ValueError(f"unknown symbolic power mode {self.mode!r}")
        if self.k < 1:
            raise ValueError("symbolic power exponent must be at least 1")
        if self.mode == "user" and self.L is None:
            raise ValueError("mode 'user' needs the ideal L")


@dataclass(frozen=True)
class SymbolicPowerResult:
    ideal: Ideal
    exponent: int | None  # stabilization exponent when a saturation ran


def saturated_power(I: Ideal, k: int) -> SymbolicPowerResult:
    """I^k : m^infinity.  Monomial inputs take the combinatorial route."""
    exps = _monomial_exps(I)
    if exps:  # a nonzero monomial ideal
        sat, exponent = saturate_at_irrelevant(MonomialIdeal(I.ring, exps).power(k))
        return SymbolicPowerResult(sat.to_ideal(), exponent)
    res = saturate(power(I, k), maximal_ideal(I.ring))
    return SymbolicPowerResult(res.ideal, res.exponent)


def symbolic_power(I: Ideal, spec: SymbolicPowerSpec) -> SymbolicPowerResult:
    if spec.mode == "saturated":
        return saturated_power(I, spec.k)
    if spec.mode == "user":
        res = saturate(power(I, spec.k), spec.L)
        return SymbolicPowerResult(res.ideal, res.exponent)
    # squarefree monomial route
    exps = _monomial_exps(I)
    if exps is None:
        raise ValueError("mode 'squarefree' needs a monomial ideal")
    mi = MonomialIdeal(I.ring, exps)
    if not mi.is_squarefree():
        raise ValueError("mode 'squarefree' needs a squarefree monomial ideal")
    return SymbolicPowerResult(squarefree_symbolic_power(mi, spec.k).to_ideal(), None)


def check_colon_condition(I: Ideal, J: Ideal) -> bool:
    """The stabilization I : J = I : J^2 that makes I : J inherit strong Golodness.

    I : J^2 is (I : J) : J, so one colon by J replaces the colon by J^2.
    """
    Q = colon(I, J)
    return Q == colon(Q, J)


def add_prime_power(I: Ideal, P: Ideal, k: int) -> Ideal:
    """I + P^k for a prime P containing I (primality is the caller's assertion).

    When I is strongly Golod its derivative ideal must already sit inside P;
    that containment is checked here and a failure usually means P was not
    prime after all.
    """
    if k < 2:
        raise ValueError("prime power exponent must be at least 2")
    if not contains(P, I):
        raise ContainmentError("I is not contained in P")
    if strongly_golod(I).verdict and not contains(P, derivative_ideal(I)):
        raise ContainmentError(
            "derivative ideal of a strongly Golod I escapes P; P is likely not prime"
        )
    return Ideal(I.ring, list(I.generators) + list(power(P, k).generators))


def zariski_nagata_membership(f: Polynomial, P: Ideal, k: int) -> bool:
    """Differential membership test for the k-th symbolic power of a prime.

    f lies in P^(k) exactly when every iterated partial derivative of f of
    order below k lies in P.  P's primality is the caller's assertion.
    """
    if k < 1:
        raise ValueError("symbolic power exponent must be at least 1")
    frontier = {(): f}
    for order in range(k):
        for g in frontier.values():
            if not P.contains_poly(g):
                return False
        if order == k - 1:
            break
        nxt: dict[tuple[int, ...], Polynomial] = {}
        for idx, g in frontier.items():
            start = idx[-1] if idx else 0
            for i in range(start, f.ring.n):
                key = idx + (i,)
                if key not in nxt:
                    nxt[key] = g.partial(i)
        frontier = nxt
    return True


@dataclass(frozen=True)
class SandwichReport:
    """Result of testing strong Golodness for an ideal between I^k and I^(k)."""

    verdict: bool
    hypothesis_holds: bool


def sandwich_check(I: Ideal, J: Ideal, k: int, sym_k: Ideal, sym_km1: Ideal) -> SandwichReport:
    """Check J for strong Golodness given I^k <= J <= I^(k).

    The caller supplies the k-th and (k-1)-st symbolic powers.  When the
    hypothesis (I^(k-1))^2 <= I^k holds and J really is sandwiched, the
    verdict is forced to be true; a false verdict there raises AlgebraError.
    """
    Ik = power(I, k)
    hypothesis = contains(Ik, power(sym_km1, 2))
    sandwiched = contains(J, Ik) and contains(sym_k, J)
    verdict = sandwiched and strongly_golod(J).verdict
    if hypothesis and sandwiched and not verdict:
        raise AlgebraError("sandwiched ideal failed the predicate despite the hypothesis")
    return SandwichReport(verdict, hypothesis)


# -- fixed corpus ---------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    ideal: Ideal
    description: str
    monomial: bool
    closure_sweep: bool  # eligible for the power / saturated-power sweeps


_R2 = GradingSpec(("x", "y"), (1, 1))
_R3 = GradingSpec(("x", "y", "z"), (1, 1, 1))
_R4 = GradingSpec(("x", "y", "z", "w"), (1, 1, 1, 1))
_RW = GradingSpec(("x", "y"), (1, 2))


def _entry(name, ring, texts, description, monomial, sweep=True) -> CorpusEntry:
    return CorpusEntry(name, Ideal.from_strings(ring, texts), description, monomial, sweep)


def _random_monomial_entry(rng: Random, idx: int, ring: GradingSpec) -> CorpusEntry:
    n = ring.n
    vecs: list[tuple[int, ...]] = []
    # pure powers in all but the last variable keep the quotient small while
    # leaving the last variable free, so saturated powers stay proper
    for i in range(n - 1):
        e = [0] * n
        e[i] = rng.randint(2, 4)
        vecs.append(tuple(e))
    for _ in range(rng.randint(1, 2)):
        while True:
            e = [0] * n
            for _ in range(rng.randint(2, 4)):
                e[rng.randrange(n)] += 1
            if sum(e) >= 2 and e[: n - 1] != [0] * (n - 1):
                vecs.append(tuple(e))
                break
    gens = [Polynomial.monomial(ring, e) for e in MonomialIdeal(ring, vecs).gens]
    return CorpusEntry(
        f"seeded-monomial-{idx}",
        Ideal(ring, gens),
        f"seeded random monomial ideal in {n} variables",
        True,
        True,
    )


def _random_poly_entry(rng: Random, idx: int, ring: GradingSpec, degrees: list[int]) -> CorpusEntry:
    n = ring.n
    coeff_pool = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)]

    def random_form(d: int) -> Polynomial:
        # homogeneous of degree d with no pure power of the last variable,
        # which pins the ideal under the prime of the other variables
        while True:
            acc: dict[tuple[int, ...], Fraction] = {}
            for _ in range(rng.randint(2, 3)):
                e = [0] * n
                for _ in range(d):
                    e[rng.randrange(n)] += 1
                if e[: n - 1] == [0] * (n - 1):
                    continue
                acc[tuple(e)] = rng.choice(coeff_pool)
            if acc:
                return Polynomial(ring, acc)

    gens = [random_form(d) for d in degrees]
    return CorpusEntry(
        f"seeded-poly-{idx}",
        Ideal(ring, gens),
        f"seeded random homogeneous ideal in {n} variables",
        False,
        True,
    )


def builtin_corpus() -> tuple[CorpusEntry, ...]:
    """Deterministic study corpus: named landmark ideals plus seeded random ones."""
    entries = [
        _entry(
            "product-counterexample",
            _R3,
            ["x*z", "y*z"],
            "product of (x,y) and (z); fails the predicate with witness z^2",
            monomial=True,
        ),
        _entry(
            "square-of-maximal",
            _R2,
            ["x^2", "x*y", "y^2"],
            "square of the irrelevant maximal ideal in 2 variables",
            monomial=True,
            sweep=False,  # saturated powers collapse to the unit ideal
        ),
        _entry(
            "ci-control",
            _R2,
            ["x^2", "y^2"],
            "complete intersection control: Golod bound is strict",
            monomial=True,
            sweep=False,
        ),
        _entry(
            "principal-quartic",
            _R2,
            ["x^2*y^2"],
            "principal monomial ideal; strongly Golod on its own",
            monomial=True,
        ),
        _entry(
            "triangle-cover",
            _R3,
            ["x*y", "x*z", "y*z"],
            "vertex cover ideal of the 3-cycle",
            monomial=True,
        ),
        _entry(
            "squarefree-4-3",
            _R4,
            ["x*y*z", "x*y*w", "x*z*w", "y*z*w"],
            "all squarefree cubics in 4 variables",
            monomial=True,
        ),
        _entry(
            "weighted-principal",
            _RW,
            ["x^4 - y^2"],
            "principal quasihomogeneous curve under weights 1,2",
            monomial=False,
        ),
    ]
    rng = Random(271828)
    rings = [_R2, _R3, _R4]
    for idx in range(8):
        entries.append(_random_monomial_entry(rng, idx, rings[idx % 3]))
    for idx in range(8):
        ring = rings[idx % 3]
        degrees = [2, 2] if ring.n >= 3 else [rng.randint(2, 3), rng.randint(2, 4)]
        entries.append(_random_poly_entry(rng, idx, ring, degrees))
    return tuple(entries)
