"""Combinatorics of monomial ideals.

Everything here works on exponent vectors directly: membership is
divisibility, intersection is pairwise lcm, colon is componentwise
subtraction.  The module also holds the graph machinery for vertex cover
ideals, symbolic powers of squarefree ideals via minimal primes, primary
decomposition, the quotient form of the strongly Golod test, and integral
closure through the Newton polyhedron.

This is the layer below ``calculus``: it imports nothing from it, and
defines the predicate's report and witness types, which ``calculus``
re-exports.  The functions here build on ``MonomialIdeal``'s own operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import lcm

from .errors import AlgebraError, ImproperIdealError, ParseError, RingMismatchError
from .groebner import Ideal, _monomial_exps
from .ring import (
    Exps,
    GradingSpec,
    Polynomial,
    colon_exps,
    intersect_exps,
    minimal_exps,
    mono_in_ideal,
)


@dataclass(frozen=True)
class DerivativePairWitness:
    """Two derivative-ideal generators whose product escapes the ideal."""

    left: Polynomial
    right: Polynomial
    remainder: Polynomial


@dataclass(frozen=True)
class MonomialQuotientWitness:
    """Generators u, v and variable positions i, j with u*v/(x_i*x_j) outside the ideal."""

    u: tuple[int, ...]
    v: tuple[int, ...]
    i: int
    j: int
    quotient: tuple[int, ...]


@dataclass(frozen=True)
class StronglyGolodReport:
    verdict: bool
    witness: DerivativePairWitness | MonomialQuotientWitness | None = None


def _exponents(ring: GradingSpec, v) -> Exps:
    """v as an exponent vector of ring; ValueError if it is not one."""
    v = tuple(v)
    if len(v) != ring.n or any(e < 0 for e in v):
        raise ValueError(f"bad exponent vector {v}")
    return v


def _unit(n: int, i: int) -> Exps:
    return tuple(int(t == i) for t in range(n))


class MonomialIdeal:
    """Monomial ideal stored by its minimal generating exponent vectors,
    sorted by (weighted degree, exponent tuple)."""

    __slots__ = ("ring", "gens")

    def __init__(self, ring: GradingSpec, vecs):
        vecs = [_exponents(ring, v) for v in vecs]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", self._sorted(minimal_exps(vecs)))

    @classmethod
    def _from_minimal(cls, ring: GradingSpec, vecs: list[Exps]) -> "MonomialIdeal":
        """The ideal of minimal exponent vectors, trusted, without the checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "gens", out._sorted(vecs))
        return out

    def _sorted(self, vecs: list[Exps]) -> tuple[Exps, ...]:
        return tuple(sorted(vecs, key=lambda v: (self.ring.weighted_degree(v), v)))

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    @classmethod
    def from_ideal(cls, I: Ideal) -> "MonomialIdeal":
        vecs = _monomial_exps(I)
        if vecs is None:
            g = next(g for g in I.generators if not g.is_monomial())
            raise ValueError(f"generator {g} is not a monomial")
        return cls(I.ring, vecs)

    def to_ideal(self) -> Ideal:
        return Ideal(self.ring, [Polynomial.monomial(self.ring, v) for v in self.gens])

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.ring == other.ring and self.gens == other.gens

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        body = ", ".join(str(Polynomial.monomial(self.ring, v)) for v in self.gens)
        return f"MonomialIdeal({body})"

    def is_zero(self) -> bool:
        return not self.gens

    def is_proper(self) -> bool:
        return self.gens != ((0,) * self.ring.n,)

    def is_squarefree(self) -> bool:
        return all(all(e <= 1 for e in v) for v in self.gens)

    def contains_exponents(self, u: Exps) -> bool:
        """Membership of the monomial x^u: some generator must divide it."""
        return mono_in_ideal(_exponents(self.ring, u), self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        self._check_ring(other)
        return all(mono_in_ideal(g, self.gens) for g in other.gens)

    def _check_ring(self, other: "MonomialIdeal"):
        if self.ring != other.ring:
            raise RingMismatchError("monomial ideals live in different rings")

    # -- the basic operations, all combinatorial ------------------------------

    def sum(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ring(other)
        return MonomialIdeal(self.ring, self.gens + other.gens)

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ring(other)
        vecs = [tuple(a + b for a, b in zip(u, v)) for u in self.gens for v in other.gens]
        return MonomialIdeal(self.ring, vecs)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ring(other)
        return MonomialIdeal._from_minimal(self.ring, intersect_exps(self.gens, other.gens))

    def colon_monomial(self, w: Exps) -> "MonomialIdeal":
        return self.colon(MonomialIdeal(self.ring, [w]))

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ring(other)
        if not other.gens:
            raise ValueError("colon by the zero ideal")
        return MonomialIdeal._from_minimal(self.ring, colon_exps(self.gens, other.gens))

    def power(self, k: int) -> "MonomialIdeal":
        if k < 1:
            raise ValueError("power exponent must be at least 1")
        vecs = []
        for combo in combinations_with_replacement(self.gens, k):
            total = [0] * self.ring.n
            for g in combo:
                for i, e in enumerate(g):
                    total[i] += e
            vecs.append(tuple(total))
        return MonomialIdeal(self.ring, vecs)

    def saturate_variables(self, var_indices) -> "MonomialIdeal":
        """Saturation by the product of the given variables: kill those exponents."""
        idx = set(var_indices)
        if not idx <= set(range(self.ring.n)):
            raise ValueError(f"bad variable indices {sorted(idx)}")
        vecs = [tuple(0 if i in idx else e for i, e in enumerate(g)) for g in self.gens]
        return MonomialIdeal(self.ring, vecs)


def saturate_at_irrelevant(I: MonomialIdeal) -> tuple[MonomialIdeal, int]:
    """Iterate I : m until stable; returns the saturation and the exponent."""
    if I.is_zero():
        return I, 0
    m = MonomialIdeal(I.ring, [_unit(I.ring.n, i) for i in range(I.ring.n)])
    current = I
    exponent = 0
    while True:
        nxt = current.colon(m)
        if nxt == current:
            return current, exponent
        current = nxt
        exponent += 1


def strongly_golod_monomial(I: MonomialIdeal) -> StronglyGolodReport:
    """Quotient form of the predicate: uv/(x_i x_j) stays in I for all choices.

    u and v range over the minimal generators (u = v allowed), i over the
    support of u and j over the support of v, excluding the case where
    x_i*x_j fails to divide u*v.  Agrees with the derivative-ideal test.
    A choice (u, v, i, j) fails exactly when its mirror (v, u, j, i) does,
    with the same quotient, so only pairs with u at or before v are scanned;
    the first failure in the ordered scan is such a pair.  Many choices share
    a quotient, so the quotients already found in I are remembered.
    """
    if not I.is_proper():
        raise ImproperIdealError("the unit ideal is outside the predicate's domain")
    inside: set[Exps] = set()
    for k, u in enumerate(I.gens):
        for v in I.gens[k:]:
            prod = tuple(a + b for a, b in zip(u, v))
            for i in range(I.ring.n):
                if u[i] == 0:
                    continue
                for j in range(I.ring.n):
                    if v[j] == 0 or prod[i] == 0 or prod[j] == 0:
                        continue
                    q = list(prod)
                    q[i] -= 1
                    if q[j] == 0:
                        continue
                    q[j] -= 1
                    q = tuple(q)
                    if q in inside:
                        continue
                    if not mono_in_ideal(q, I.gens):
                        return StronglyGolodReport(
                            False, MonomialQuotientWitness(u, v, i, j, q))
                    inside.add(q)
    return StronglyGolodReport(True)


# -- graphs and cover ideals ------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 0..n-1 with edges as sorted index pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge ({i}, {j})")

    @classmethod
    def from_edges(cls, n: int, pairs) -> "Graph":
        edges = set()
        for i, j in pairs:
            if i == j:
                raise ValueError("loops are not allowed")
            edges.add((min(i, j), max(i, j)))
        return cls(n, frozenset(edges))

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        n = None
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
                    raise ParseError("expected header 'n <count>'", line=lineno)
                n = int(parts[1])
                if n < 1:
                    raise ParseError("vertex count must be positive", line=lineno)
                continue
            if len(parts) != 2:
                raise ParseError("expected an edge line 'i j'", line=lineno)
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("edge endpoints must be integers", line=lineno) from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"vertex out of range 1..{n}", line=lineno)
            if i == j:
                raise ParseError("loops are not allowed", line=lineno)
            pairs.append((i - 1, j - 1))
        if n is None:
            raise ParseError("empty graph file")
        return cls.from_edges(n, pairs)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def ring_for_vertices(n: int) -> GradingSpec:
    return GradingSpec(tuple(f"x{i+1}" for i in range(n)), (1,) * n)


def vertex_cover_ideal(G: Graph, ring: GradingSpec | None = None) -> MonomialIdeal:
    """Intersection of the edge primes (x_i, x_j); generators are minimal covers."""
    if not G.edges:
        raise ImproperIdealError("a graph with no edges has the unit cover ideal")
    if ring is None:
        ring = ring_for_vertices(G.n)
    elif ring.n != G.n:
        raise RingMismatchError("ring has the wrong number of variables")
    primes = (MonomialIdeal(ring, [_unit(G.n, i), _unit(G.n, j)]) for i, j in sorted(G.edges))
    return reduce(MonomialIdeal.intersect, primes)


def minimal_vertex_covers(G: Graph) -> list[tuple[int, ...]]:
    """Inclusion-minimal vertex covers, via the cover ideal's generators."""
    I = vertex_cover_ideal(G)
    return [tuple(i for i, e in enumerate(g) if e) for g in I.gens]


# -- minimal primes and symbolic powers -------------------------------------------


def minimal_primes(I: MonomialIdeal) -> list[tuple[int, ...]]:
    """Minimal primes as sorted variable-index tuples (minimal transversals)."""
    if not I.is_proper():
        raise ImproperIdealError("the unit ideal has no minimal primes")
    if I.is_zero():
        return [()]
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in I.gens]
    found: set[frozenset[int]] = set()

    def extend(chosen: frozenset[int], remaining: list[frozenset[int]]):
        uncovered = [s for s in remaining if not (s & chosen)]
        if not uncovered:
            found.add(chosen)
            return
        pivot = min(uncovered, key=len)
        rest = [s for s in uncovered if s is not pivot]
        for v in sorted(pivot):
            extend(chosen | {v}, rest)

    extend(frozenset(), supports)
    # a set of variables is a squarefree monomial, and inclusion is divisibility
    covers = minimal_exps(tuple(int(i in s) for i in range(I.ring.n)) for s in found)
    return sorted(tuple(i for i, e in enumerate(c) if e) for c in covers)


def squarefree_symbolic_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    """Intersection of P^k over the minimal primes; needs a squarefree input."""
    if k < 1:
        raise ValueError("symbolic power exponent must be at least 1")
    if not I.is_squarefree():
        raise ValueError("symbolic powers via minimal primes need a squarefree ideal")
    if I.is_zero():
        return I
    n = I.ring.n
    powers = (MonomialIdeal(I.ring, [_unit(n, i) for i in P]).power(k) for P in minimal_primes(I))
    return reduce(MonomialIdeal.intersect, powers)


@dataclass(frozen=True)
class OddCycleReport:
    n: int
    cover_ideal: MonomialIdeal
    minimal_cover_count: int
    symbolic_square_is_square_plus_product: bool
    symbolic_square_squared_in_cube: bool
    higher_squares_contained: dict[int, bool]  # k -> (I^(k-1))^2 subset of I^k


def odd_cycle_suite(n: int, k_max: int = 3) -> OddCycleReport:
    """Cover-ideal checks for the odd cycle on n vertices."""
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd cycle on at least 3 vertices")
    G = cycle_graph(n)
    I = vertex_cover_ideal(G)
    u = (1,) * n
    sym2 = squarefree_symbolic_power(I, 2)
    square_plus = I.power(2).sum(MonomialIdeal(I.ring, [u]))
    higher: dict[int, bool] = {}
    for k in range(2, k_max + 1):
        sym_prev = squarefree_symbolic_power(I, k - 1)
        higher[k] = I.power(k).contains(sym_prev.power(2))
    return OddCycleReport(
        n=n,
        cover_ideal=I,
        minimal_cover_count=len(I.gens),
        symbolic_square_is_square_plus_product=(sym2 == square_plus),
        symbolic_square_squared_in_cube=I.power(3).contains(sym2.power(2)),
        higher_squares_contained=higher,
    )


def squarefree_generated_ideal(n: int, d: int) -> MonomialIdeal:
    """All squarefree monomials of degree d in n variables."""
    if not 0 < d <= n:
        raise ValueError("need 0 < d <= n")
    ring = ring_for_vertices(n)
    vecs = []
    for combo in combinations(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] = 1
        vecs.append(tuple(e))
    return MonomialIdeal(ring, vecs)


# -- primary decomposition --------------------------------------------------------


@dataclass(frozen=True)
class PrimaryDecomposition:
    components: tuple[MonomialIdeal, ...]
    primes: tuple[tuple[int, ...], ...]  # associated prime of each component


def irreducible_components(I: MonomialIdeal) -> list[MonomialIdeal]:
    """Irreducible components (pure variable power ideals) by generator splitting."""
    if not I.is_proper():
        raise ImproperIdealError("the unit ideal has no decomposition")
    if I.is_zero():
        raise ValueError("the zero ideal is not decomposed here")
    out: list[MonomialIdeal] = []
    seen: set[tuple[Exps, ...]] = set()
    stack = [I]
    while stack:
        J = stack.pop()
        if J.gens in seen:
            continue
        seen.add(J.gens)
        mixed = next((g for g in J.gens if sum(1 for e in g if e) > 1), None)
        if mixed is None:
            out.append(J)
            continue
        i = next(t for t, e in enumerate(mixed) if e)
        left = tuple(e if t == i else 0 for t, e in enumerate(mixed))
        right = tuple(0 if t == i else e for t, e in enumerate(mixed))
        rest = [g for g in J.gens if g != mixed]
        stack.append(MonomialIdeal(J.ring, rest + [left]))
        stack.append(MonomialIdeal(J.ring, rest + [right]))
    # the components are distinct, and an irreducible Q containing the
    # intersection of the others contains one of them (for each other P pick
    # a generator outside Q: their lcm lies in every P but not in Q), so the
    # redundant components are exactly those containing another one
    kept = [Q for Q in out if not any(P is not Q and Q.contains(P) for P in out)]
    return sorted(kept, key=lambda c: tuple(sorted(c.gens)))


def irreducible_decomposition(I: MonomialIdeal) -> PrimaryDecomposition:
    """Primary decomposition by grouping irreducible components over their radicals."""
    pieces = irreducible_components(I)
    by_radical: dict[tuple[int, ...], MonomialIdeal] = {}
    for c in pieces:
        rad = tuple(sorted({i for g in c.gens for i, e in enumerate(g) if e}))
        by_radical[rad] = c if rad not in by_radical else by_radical[rad].intersect(c)
    primes = tuple(sorted(by_radical))
    components = tuple(by_radical[p] for p in primes)
    if reduce(MonomialIdeal.intersect, components) != I:
        raise AlgebraError("primary decomposition failed to re-intersect to the input")
    return PrimaryDecomposition(components, primes)


def minimal_primary_components(I: MonomialIdeal) -> list[tuple[tuple[int, ...], MonomialIdeal]]:
    """The unique primary component at each minimal prime, by saturation.

    Saturating at the product of the variables outside P strips every
    component whose radical is not contained in P; what remains is the
    P-primary piece.
    """
    if not I.is_proper():
        raise ImproperIdealError("the unit ideal has no primary components")
    out = []
    for P in minimal_primes(I):
        outside = [i for i in range(I.ring.n) if i not in P]
        out.append((P, I.saturate_variables(outside)))
    return out


# -- integral closure via the Newton polyhedron -----------------------------------


def _feasible_combination(gens: list[Exps], u: Exps) -> list[Fraction] | None:
    """Exact phase-1 simplex for: lambda >= 0, sum lambda = 1, sum lambda*g <= u."""
    m, n = len(gens), len(u)
    # rows: n slack equations plus the convexity row; columns: lambdas, slacks, artificial
    ncols = m + n + 1
    rows = []
    for i in range(n):
        row = [Fraction(gens[j][i]) for j in range(m)]
        row += [Fraction(1) if t == i else Fraction(0) for t in range(n)]
        row.append(Fraction(0))
        row.append(Fraction(u[i]))
        rows.append(row)
    conv = [Fraction(1)] * m + [Fraction(0)] * n + [Fraction(1), Fraction(1)]
    rows.append(conv)
    basis = [m + i for i in range(n)] + [m + n]

    def objective_row():
        # minimize the artificial variable: objective = sum of rows whose basic
        # variable is artificial, expressed over nonbasic columns
        obj = [Fraction(0)] * (ncols + 1)
        for r, b in enumerate(basis):
            if b == m + n:
                for c in range(ncols + 1):
                    obj[c] += rows[r][c]
        return obj

    while True:
        obj = objective_row()
        if obj[ncols] == 0:
            break
        enter = next((c for c in range(ncols) if c not in basis and obj[c] > 0), None)
        if enter is None:
            return None  # infeasible: artificial stuck positive
        ratios = [
            (rows[r][ncols] / rows[r][enter], basis[r], r)
            for r in range(n + 1)
            if rows[r][enter] > 0
        ]
        if not ratios:
            return None
        _, _, pivot = min(ratios)  # Bland: smallest ratio, then smallest basic index
        pr = rows[pivot]
        pv = pr[enter]
        rows[pivot] = [x / pv for x in pr]
        for r in range(n + 1):
            if r != pivot and rows[r][enter]:
                f = rows[r][enter]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot])]
        basis[pivot] = enter
    lam = [Fraction(0)] * m
    for r, b in enumerate(basis):
        if b < m:
            lam[b] = rows[r][ncols]
    return lam


INTEGRAL_WITNESS_CAP = 32


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Monomials in the Newton polyhedron of I, up to the generator bounding box.

    Each monomial admitted by the exact rational feasibility test is
    revalidated by exhibiting r with u^r in I^r, read off the feasible
    combination's denominators.
    """
    if not I.is_proper():
        raise ImproperIdealError("integral closure of the unit ideal is improper")
    if I.is_zero():
        return I
    gens = list(I.gens)
    box = tuple(max(g[i] for g in gens) for i in range(I.ring.n))

    def lattice_points(bound):
        if not bound:
            yield ()
            return
        for rest in lattice_points(bound[1:]):
            for e in range(bound[0] + 1):
                yield (e,) + rest

    accepted = list(gens)
    for u in lattice_points(box):
        if I.contains_exponents(u):
            continue
        lam = _feasible_combination(gens, u)
        if lam is None:
            continue
        r = lcm(*(f.denominator for f in lam)) if lam else 1
        if r > INTEGRAL_WITNESS_CAP:
            raise AlgebraError(f"integral closure witness exponent {r} exceeds the cap")
        counts = [f * r for f in lam]
        if not (all(c.denominator == 1 for c in counts) and sum(counts) == r):
            raise AlgebraError("integral closure witness is not an integral combination")
        total = [0] * I.ring.n
        for c, g in zip(counts, gens):
            for i, e in enumerate(g):
                total[i] += int(c) * e
        if not all(total[i] <= r * u[i] for i in range(I.ring.n)):
            raise AlgebraError("witness check failed")
        accepted.append(u)
    return MonomialIdeal(I.ring, accepted)
