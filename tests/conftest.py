"""Shared fixtures and independent oracles.

The oracles below deliberately avoid the package's Groebner and linear
algebra machinery: ideal membership is decided degreewise with a local
Gaussian elimination over Fraction, and monomial membership by raw
divisibility.  Tests cross-check the fast implementations against these.
The references ``reference_tor_series``, ``full_window_series``,
``full_pair_scan``, ``ordered_monomial_scan``, ``intersection_loop_components``
and ``unit_clearing_minimize`` run the package's own arithmetic without its
shortcuts: the Tor kernel dimensions read off exactness and the partial
eliminations they allow, the Tor window cap (``full_window_series``, which
visits every degree), the trim of the derivative list to a minimal
generating set, the scan over unordered pairs of monomial generators, the
pairwise containment test that prunes irreducible components, and the Schur
split-off of unit entries (the reference clears them by row and column
operations that also rewrite the neighboring matrices).
``reference_mono_mul``, ``reference_mono_div``, ``reference_mono_lcm`` and
``reference_axpy_shifted`` are the earlier generator-expression monomial
helpers and the engine's earlier combine, a shifted copy of the source added
by ``axpy``.
``full_window_dims`` visits every strand of a Koszul window, where the
package visits only the lead-lcm strands, and ``lcm_window_dims`` runs it on
every strand up to the degree of the lcm of all leading terms, past which
Koszul homology vanishes; ``full_window_koszul_homology`` and
``fraction_trivial_multiplication_check`` build on them the summary and the
multiplication check with Fraction cycle representatives, whose products
are summed in Fractions, and with ``truncated`` read off that full scan.
``subcomplex_derivative_cycle_check`` decides the derivative cycle check
inside K itself: it spans the cycles whose coefficients lie in d(I)R, where
the package reads the same answer off the Koszul complex of S/(I + d(I)).
``hochster_betti`` computes graded Betti numbers of monomial ideals from
simplicial homology alone.  ``oracle_pair_scan`` and ``oracle_monomial_scan``
decide the strongly Golod predicate with witness from the degreewise
membership of ``oracle_member`` (normal forms by ``DegreewiseQuotient``) and
from ``oracle_monomial_member``, sharing no code with the normal-form memo or
``MonomialIdeal.contains_exponents``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from random import Random

import pytest

from golodkit import (
    GradingSpec,
    Ideal,
    MonomialIdeal,
    Polynomial,
    builtin_corpus,
    derivative_ideal,
    koszul,
    module_syzygies,
    power,
)
from golodkit.calculus import DerivativePairWitness, MonomialQuotientWitness, StronglyGolodReport
from golodkit.errors import AlgebraError
from golodkit.groebner import MonomialOrder
from golodkit.koszul import (
    HomologySummary,
    TrivialMultiplicationReport,
    _coordinates,
    _element,
    _koszul,
    _merge_sign,
    _window,
)
from golodkit.linalg import Span, integral, kernel_of_columns
from golodkit.poincare import BigradedSeries
from golodkit.resolution import Matrix, _is_unit
from golodkit.ring import axpy, axpy_over, mono_lcm, mono_mul, monomials_of_degree as weighted_monomials


def monomials_of_degree(ring: GradingSpec, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of weighted degree exactly d, brute force."""
    out = []

    def rec(i, left, acc):
        if i == ring.n:
            if left == 0:
                out.append(tuple(acc))
            return
        w = ring.weights[i]
        for e in range(left // w + 1):
            rec(i + 1, left - w * e, acc + [e])

    rec(0, d, [])
    return out


def _row_reduce(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    rows = [r[:] for r in rows]
    pivots = []
    col = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        col += 1
    return [row for row in rows if any(x != 0 for x in row)]


def oracle_member(I: Ideal, f: Polynomial) -> bool:
    """Degreewise membership for homogeneous data, no Groebner bases.

    Spans { m*g : g generator, m monomial of complementary degree } in the
    single graded piece containing f and checks membership by elimination.
    """
    if f.is_zero():
        return True
    ring = I.ring
    d = f.homogeneity().degree
    basis = monomials_of_degree(ring, d)
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in I.generators:
        dg = g.homogeneity().degree
        if dg > d:
            continue
        for m in monomials_of_degree(ring, d - dg):
            prod = g * Polynomial.monomial(ring, m)
            row = [Fraction(0)] * len(basis)
            for e, c in prod.terms:
                row[index[e]] = c
            rows.append(row)
    reduced = _row_reduce(rows)
    frow = [Fraction(0)] * len(basis)
    for e, c in f.terms:
        frow[index[e]] = c
    for row in reduced:
        lead = next(i for i, x in enumerate(row) if x != 0)
        if frow[lead] != 0:
            f0 = frow[lead]
            frow = [a - f0 * b for a, b in zip(frow, row)]
    return all(x == 0 for x in frow)


def oracle_monomial_member(gens: list[tuple[int, ...]], u: tuple[int, ...]) -> bool:
    return any(all(a <= b for a, b in zip(g, u)) for g in gens)


def _grevlex_within_degree(u: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key of grevlex among monomials of one degree: the smaller last
    exponent wins, then the one before it."""
    return tuple(-e for e in reversed(u))


class DegreewiseQuotient:
    """Normal forms modulo a homogeneous ideal, one graded piece at a time.

    The degree-d piece of I is spanned by the monomial multiples of the
    generators, as in ``oracle_member``.  Its echelon basis, each row headed
    by its largest monomial under grevlex, has the leading monomials of I_d
    as pivots; reducing f by it leaves f's unique remainder on the standard
    monomials, which is the normal form modulo the reduced grevlex basis.
    No Groebner basis is computed, and each degree's echelon is kept.
    """

    def __init__(self, I: Ideal):
        self.I = I
        self._echelons: dict[int, dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]] = {}

    def _reduce(self, pivots, vec: dict) -> dict:
        while True:
            hits = [u for u in vec if u in pivots]
            if not hits:
                return vec
            u = max(hits, key=_grevlex_within_degree)
            c = vec[u]
            for v, a in pivots[u].items():
                acc = vec.get(v, Fraction(0)) - c * a
                if acc:
                    vec[v] = acc
                else:
                    vec.pop(v, None)

    def _echelon(self, d: int):
        if d not in self._echelons:
            pivots: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
            ring = self.I.ring
            for g in self.I.generators:
                dg = g.homogeneity().degree
                if dg > d:
                    continue
                for m in monomials_of_degree(ring, d - dg):
                    row = self._reduce(pivots, dict((g * Polynomial.monomial(ring, m)).terms))
                    if row:
                        lead = max(row, key=_grevlex_within_degree)
                        pivots[lead] = {v: c / row[lead] for v, c in row.items()}
            self._echelons[d] = pivots
        return self._echelons[d]

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.is_zero():
            return f
        pivots = self._echelon(f.homogeneity().degree)
        return Polynomial(f.ring, self._reduce(pivots, dict(f.terms)))


def oracle_pair_scan(I: Ideal) -> StronglyGolodReport:
    """The predicate over every pair a <= b of the full derivative list, in
    order, with membership and the witness's remainder from the degreewise
    quotient (no Groebner basis, no normal-form memo)."""
    quotient = DegreewiseQuotient(I)
    dgens = derivative_ideal(I).generators
    for a in range(len(dgens)):
        for b in range(a, len(dgens)):
            rem = quotient.normal_form(dgens[a] * dgens[b])
            if not rem.is_zero():
                return StronglyGolodReport(False, DerivativePairWitness(dgens[a], dgens[b], rem))
    return StronglyGolodReport(True)


def random_homogeneous(ring: GradingSpec, degree: int, rng: Random) -> Polynomial:
    monos = monomials_of_degree(ring, degree)
    pool = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)]
    coeffs = {}
    for m in monos:
        if rng.random() < 0.6:
            coeffs[m] = rng.choice(pool)
    if not coeffs:
        coeffs[monos[0]] = Fraction(1)
    return Polynomial(ring, coeffs)


def oracle_ideal_powers(gens, k):
    """Exponent vectors spanning the k-th power of a monomial ideal."""
    out = []
    for combo in combinations_with_replacement(gens, k):
        out.append(tuple(sum(col) for col in zip(*combo)))
    return out


def reference_tor_series(I: Ideal, i_max: int, d_max: int, caps: dict[int, int]):
    """The Tor series from a resolution loop that eliminates the whole
    differential at every visited strand (i-1, d), d <= caps[i]: F_i's
    generators are the kernel rows independent of the variable multiples of
    the lower kernels.  No dimension is read off exactness."""
    ring = I.ring
    unit = [tuple(int(p == t) for p in range(ring.n)) for t in range(ring.n)]
    coeffs = {(0, 0): 1}
    cx = koszul._Complex(I, {0: {0: 0}}, {})
    for i in range(1, i_max + 1):
        kernels = {}
        new_shifts = cx.shifts[i] = {}
        new_images = cx.images[i] = {}
        for d in range(0, caps.get(i, -1) + 1):
            _, index = cx.basis(i - 1, d)
            kern = cx.kernel(i - 1, d) if (i, d) != (1, 0) else []
            kernels[d] = [_element(cx, i - 1, d, row) for row in kern]
            span = Span()
            for t_var in range(ring.n):
                for w in kernels.get(d - ring.weights[t_var], []):
                    span.add(_coordinates(I, w, index, unit[t_var])[0])
            for row, w in zip(kern, kernels[d]):
                if span.add(row):
                    coeffs[(i, d)] = coeffs.get((i, d), 0) + 1
                    g = len(new_shifts)
                    new_shifts[g], new_images[g] = d, w
        if not new_shifts:
            break
    truncated = any(d == d_max for i, d in coeffs if i)
    return BigradedSeries(coeffs, i_max, d_max, truncated=truncated)


def full_window_series(I: Ideal, i_max: int, d_max: int):
    """``reference_tor_series`` on every internal degree 0..d_max at every
    step, without the cap read off Serre's bound."""
    return reference_tor_series(I, i_max, d_max, {i: d_max for i in range(1, i_max + 1)})


def full_pair_scan(I: Ideal) -> StronglyGolodReport:
    """The predicate scanned over every ordered pair of the full derivative
    list in Fractions, with no trim to a minimal generating set."""
    dgens = derivative_ideal(I).generators
    for a in range(len(dgens)):
        multiples: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
        for b in range(a, len(dgens)):
            rem: dict[tuple[int, ...], Fraction] = {}
            for e2, c2 in dgens[b].terms:
                multiple = multiples.get(e2)
                if multiple is None:
                    multiple = multiples[e2] = {}
                    for e1, c1 in dgens[a].terms:
                        row, den = I._nf_row(mono_mul(e1, e2))
                        axpy(multiple, c1 / den, row)
                axpy(rem, c2, multiple)
            if rem:
                witness = DerivativePairWitness(dgens[a], dgens[b], Polynomial(I.ring, rem))
                return StronglyGolodReport(False, witness)
    return StronglyGolodReport(True)


def corpus_powers() -> list[tuple[str, Ideal]]:
    """The corpus squares, and the cubes in at most 3 variables: strongly
    Golod by the paper's theorem."""
    out = [(f"{e.name}^2", power(e.ideal, 2)) for e in builtin_corpus()]
    out += [(f"{e.name}^3", power(e.ideal, 3)) for e in builtin_corpus() if e.ideal.ring.n <= 3]
    return out


def subcomplex_derivative_cycle_check(I: Ideal, l_max: int | None = None,
                                      d_max: int | None = None) -> bool:
    """Whether the cycles of K with coefficients in d(I)R, together with the
    boundaries, span the cycles at every positive bidegree of the window.

    It reads ``koszul.derivative_ideal`` at call time, so a test may
    substitute another ideal for d(I).  No strongly Golod precondition.
    """
    cx = _koszul(I)
    l_max, d_max, _, _ = _window(cx, l_max, d_max)
    dgens = [({((), u): c for u, c in integral(dict(f.terms))[0].items()},
              f.homogeneity().degree)
             for f in koszul.derivative_ideal(I).minimal_generators()]
    dbasis: dict[int, list[dict[tuple[int, ...], int]]] = {}

    def derivative_image_basis(e: int) -> list[dict[tuple[int, ...], int]]:
        # basis of the degree-e slice of d(I)*R, over standard monomials
        if e not in dbasis:
            keys, index = cx.basis(0, e)
            span = Span()
            basis = []
            for f, fdeg in dgens:
                for m in weighted_monomials(I.ring.weights, e - fdeg):
                    vec, _ = _coordinates(I, f, index, m)
                    if vec and span.add(vec):
                        basis.append({keys[i][1]: c for i, c in vec.items()})
            dbasis[e] = basis
        return dbasis[e]

    for (l, d), dim in sorted(full_window_dims(cx, l_max, d_max).items()):
        if l == 0:
            continue
        _, index = cx.basis(l, d)
        shifts = cx.shifts[l]
        sub_vectors = [{index[W][u]: c for u, c in bv.items()}
                       for W in index for bv in derivative_image_basis(d - shifts[W])]
        if not sub_vectors:
            return False
        cols = []
        diff = cx.differential_columns(l, d)
        for sv in sub_vectors:
            img: dict[int, int] = {}
            den = 1
            for idx, c in sv.items():
                den = axpy_over(img, den, c, *diff[idx])
            cols.append((img, den))
        captured = cx.boundary_span(l, d).copy()
        base_dim = captured.dim
        for combo in kernel_of_columns(cols)[1]:
            z: dict[int, int] = {}
            for j, c in combo.items():
                axpy(z, c, sub_vectors[j])
            captured.add(z)
        if captured.dim - base_dim < dim:
            return False
    return True


def full_window_dims(cx, l_max: int, d_max: int) -> dict[tuple[int, int], int]:
    """The nonzero homology dimensions of the complex at every strand (l, d)
    with l <= l_max and d <= d_max, in order of l and then d."""
    dims: dict[tuple[int, int], int] = {}
    for l in range(l_max + 1):
        for d in range(d_max + 1):
            if cx.basis(l, d)[0]:
                dim = cx.homology(l, d)[0]
                if dim:
                    dims[(l, d)] = dim
    return dims


def lcm_window_dims(cx) -> dict[tuple[int, int], int]:
    """``full_window_dims`` on every strand up to the degree of the lcm of all
    leading terms of the reduced basis."""
    lead_lcm = reduce(mono_lcm, (g.terms[0][0] for g in cx.I.groebner_basis()), (0,) * cx.n)
    return full_window_dims(cx, cx.n, cx.ring.weighted_degree(lead_lcm))


def _full_window_summary(cx, l_max: int, d_max: int) -> HomologySummary:
    dims = full_window_dims(cx, l_max, d_max)
    reps = {}
    for l, d in dims:
        keys, _ = cx.basis(l, d)
        reps[(l, d)] = []
        for v in cx.homology(l, d)[1]:
            top = v[max(v)]
            reps[(l, d)].append({keys[idx]: Fraction(c, top) for idx, c in sorted(v.items())})
    truncated = any(l > l_max or d > d_max for l, d in lcm_window_dims(cx))
    return HomologySummary(l_max, d_max, dims, reps, truncated)


def full_window_koszul_homology(I: Ideal, l_max: int | None = None,
                                d_max: int | None = None) -> HomologySummary:
    """``koszul_homology`` from a scan of every strand of the window."""
    cx = _koszul(I)
    return _full_window_summary(cx, *_window(cx, l_max, d_max)[:2])


def fraction_trivial_multiplication_check(I: Ideal, l_max: int | None = None,
                                          d_max: int | None = None) -> TrivialMultiplicationReport:
    """``trivial_multiplication_check`` on the Fraction cycle representatives
    of the full-window summary, each product summed in Fractions from the
    normal-form memo and tested as the integer form of that sum."""
    cx = _koszul(I)
    l_max, d_max, _, _ = _window(cx, l_max, d_max)
    summary = _full_window_summary(cx, l_max, d_max)
    spots = sorted(k for k in summary.dims if k[0] >= 1)
    for a, (l1, d1) in enumerate(spots):
        for l2, d2 in spots[a:]:
            l, d = l1 + l2, d1 + d2
            if l > l_max or d > d_max:
                continue
            _, index = cx.basis(l, d)
            for i1, z1 in enumerate(summary.cycle_reps[(l1, d1)]):
                for i2, z2 in enumerate(summary.cycle_reps[(l2, d2)]):
                    prod: dict[int, Fraction] = {}
                    for (W1, m1), c1 in z1.items():
                        for (W2, m2), c2 in z2.items():
                            if set(W1) & set(W2):
                                continue
                            row, den = I._nf_row(mono_mul(m1, m2))
                            axpy(prod, _merge_sign(W1, W2) * c1 * c2 / den, row,
                                 index[tuple(sorted(W1 + W2))])
                    if prod and not cx.boundary_span(l, d).contains(integral(prod)[0]):
                        return TrivialMultiplicationReport(
                            False, (l1, d1, i1, l2, d2, i2), summary.truncated)
    return TrivialMultiplicationReport(True, None, summary.truncated)


def hochster_betti(ring: GradingSpec, gens: list[tuple[int, ...]]) -> dict[tuple[int, int], int]:
    """The nonzero graded Betti numbers beta_{l,d}(S/I) of a proper monomial
    ideal, by Hochster's formula (Miller and Sturmfels, Thm. 1.34).

    beta_{i+1,b}(S/I) = beta_{i,b}(I) = dim H~_{i-1}(K^b(I); Q), where the
    upper Koszul simplicial complex K^b(I) has the squarefree tau with
    x^(b - tau) in I as faces.  Only b in the lcm lattice of the generators
    can carry a Betti number.  Membership is divisibility, and the reduced
    homology comes from the ranks of the simplicial boundary maps.
    """
    lattice = set(gens)
    frontier = set(gens)
    while frontier:
        frontier = {tuple(map(max, a, g)) for a in frontier for g in gens} - lattice
        lattice |= frontier
    out: dict[tuple[int, int], int] = {(0, 0): 1}
    for b in lattice:
        support = [i for i in range(ring.n) if b[i]]
        faces: dict[int, list[tuple[int, ...]]] = {}  # dimension -> faces
        for size in range(len(support) + 1):
            for tau in combinations(support, size):
                below = tuple(e - (i in tau) for i, e in enumerate(b))
                if oracle_monomial_member(gens, below):
                    faces.setdefault(size - 1, []).append(tau)

        def rank(j: int) -> int:
            # rank of the boundary map from the j-faces to the (j-1)-faces
            if j not in faces or j - 1 not in faces:
                return 0
            index = {tau: t for t, tau in enumerate(faces[j - 1])}
            rows = []
            for tau in faces[j]:
                row = [Fraction(0)] * len(index)
                for k in range(len(tau)):
                    row[index[tau[:k] + tau[k + 1:]]] = Fraction((-1) ** k)
                rows.append(row)
            return len(_row_reduce(rows))

        degree = sum(w * e for w, e in zip(ring.weights, b))
        for j, js in faces.items():
            dim = len(js) - rank(j) - rank(j + 1)
            if dim:
                out[(j + 2, degree)] = out.get((j + 2, degree), 0) + dim
    return out


def ordered_monomial_scan(I: MonomialIdeal, member=None) -> StronglyGolodReport:
    """The quotient form of the predicate over every ordered pair (u, v).

    Membership is ``member(q)``, by default ``I.contains_exponents``.
    """
    member = member or I.contains_exponents
    for u in I.gens:
        for v in I.gens:
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
                    if not member(q):
                        return StronglyGolodReport(
                            False, MonomialQuotientWitness(u, v, i, j, q))
    return StronglyGolodReport(True)


def oracle_monomial_scan(I: MonomialIdeal) -> StronglyGolodReport:
    """The ordered quotient scan with membership by raw divisibility."""
    return ordered_monomial_scan(I, lambda q: oracle_monomial_member(list(I.gens), q))


def intersection_loop_components(I: MonomialIdeal) -> list[MonomialIdeal]:
    """Irreducible components by generator splitting, dropping one component
    that contains the intersection of the others and rescanning until none does."""
    out: list[MonomialIdeal] = []
    seen: set = set()
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
    changed = True
    while changed:
        changed = False
        for idx in range(len(out)):
            others = out[:idx] + out[idx + 1:]
            if others and out[idx].contains(reduce(MonomialIdeal.intersect, others)):
                out.pop(idx)
                changed = True
                break
    return sorted(out, key=lambda c: tuple(sorted(c.gens)))


def assert_canonical(p: Polynomial) -> None:
    """p's terms are what the validating constructor makes of them."""
    assert p.terms == Polynomial(p.ring, dict(p.terms)).terms
    assert all(type(c) is Fraction and c != 0 for _, c in p.terms)


def reference_mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def reference_mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError(f"{b} does not divide {a}")
    return out


def reference_mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_axpy_shifted(target: dict, factor: int, src: dict, shift: tuple[int, ...]) -> None:
    """target += factor * x^shift * src over {(component, exps): coeff} vectors,
    by a shifted copy of src and ``axpy``."""
    shifted = {(comp, reference_mono_mul(e, shift)): c for (comp, e), c in src.items()}
    axpy(target, factor, shifted)


def reference_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J by eliminating a fresh first variable t from t*I + (1 - t)*J.

    Its generators are the t-free elements of the reduced elimination basis,
    a reduced grevlex basis of the intersection, in ascending order.
    """
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    name, i = "t", 0
    while name in ring.names:
        name, i = f"t{i}", i + 1
    ext = GradingSpec((name,) + ring.names, (1,) + ring.weights)

    def lift(p: Polynomial, t: int) -> Polynomial:
        return Polynomial(ext, {(t,) + e: c for e, c in p.terms})

    gens = [lift(f, 1) for f in I.generators] + [lift(g, 0) - lift(g, 1) for g in J.generators]
    basis = Ideal(ext, gens).groebner_basis(MonomialOrder.elimination(ext, 1))
    return Ideal(ring, [Polynomial(ring, {e[1:]: c for e, c in g.terms})
                        for g in basis if all(e[0] == 0 for e, _ in g.terms)])


def reference_colon(I: Ideal, J: Ideal) -> Ideal:
    """I : J, the intersection of I : f over the generators f of J.

    I : f is the projection of the syzygies of (f, g_1, ..., g_m), the g_i
    generating I, onto their first coordinate, generated by its reduced
    grevlex basis; the quotients are met with ``reference_intersect``.
    """
    quotients = []
    for f in J.generators:
        rows = module_syzygies([[f]] + [[g] for g in I.generators], I.ring)
        quotients.append(Ideal(I.ring, Ideal(I.ring, [s[0] for s in rows]).groebner_basis()))
    return reduce(reference_intersect, quotients)


def reference_saturate(I: Ideal, J: Ideal, cap: int = 64) -> tuple[Ideal, int]:
    """(I : J^infinity, the least t with I : J^t equal to it) by ``reference_colon``."""
    current = I
    for exponent in range(cap):
        nxt = reference_colon(current, J)
        if nxt == current:
            return current, exponent
        current = nxt
    raise AssertionError("the reference saturation did not stabilize")


def polynomial_compose_is_zero(A: Matrix, B: Matrix, ring) -> bool:
    """Whether A*B vanishes, each entry summed as one Polynomial after another."""
    zero = Polynomial.zero(ring)
    for r in range(len(A)):
        for c in range(len(B[0]) if B else 0):
            acc = zero
            for t in range(len(B)):
                if not A[r][t].is_zero() and not B[t][c].is_zero():
                    acc = acc + A[r][t] * B[t][c]
            if not acc.is_zero():
                return False
    return True


def unit_clearing_minimize(mats: list[Matrix], shifts: list[list[int]], ring):
    """Clear unit entries by graded row/column operations, in place.

    Clearing the pivot row uses column operations, which act on the next
    matrix as row operations; clearing the pivot column then only touches
    single entries and acts on the previous matrix as column operations.
    Exactness forces the freed row and column of the neighbors to vanish.
    """
    changed = True
    while changed:
        changed = False
        for i in range(len(mats)):
            M = mats[i]
            pivot = next(
                ((r, c) for r in range(len(M)) for c in range(len(M[0]) if M else 0)
                 if _is_unit(M[r][c])),
                None,
            )
            if pivot is None:
                continue
            changed = True
            r, c = pivot
            lam = M[r][c].constant_value()
            ncols = len(M[0])
            nrows = len(M)
            nxt = mats[i + 1] if i + 1 < len(mats) else None
            prv = mats[i - 1] if i > 0 else None
            for c2 in range(ncols):
                if c2 == c or M[r][c2].is_zero():
                    continue
                q = M[r][c2] * (Fraction(1) / lam)
                for t in range(nrows):
                    if not M[t][c].is_zero():
                        M[t][c2] = M[t][c2] - q * M[t][c]
                if nxt is not None and nxt:
                    for w in range(len(nxt[0])):
                        if not nxt[c2][w].is_zero():
                            nxt[c][w] = nxt[c][w] + q * nxt[c2][w]
            for r2 in range(nrows):
                if r2 == r or M[r2][c].is_zero():
                    continue
                q = M[r2][c] * (Fraction(1) / lam)
                M[r2][c] = Polynomial.zero(ring)
                if prv is not None and prv:
                    for w in range(len(prv)):
                        if not prv[w][r2].is_zero():
                            prv[w][r] = prv[w][r] + q * prv[w][r2]
            if prv and not all(prv[w][r].is_zero() for w in range(len(prv))):
                raise AlgebraError("exactness should clear the freed column")
            if nxt and not all(e.is_zero() for e in nxt[c]):
                raise AlgebraError("exactness should clear the freed row")
            # delete basis element r of F_i and c of F_{i+1}
            for row in M:
                del row[c]
            del M[r]
            if prv is not None:
                for row in prv:
                    del row[r]
            if nxt is not None and nxt:
                del nxt[c]
            del shifts[i][r]
            del shifts[i + 1][c]


@pytest.fixture
def no_resolution(monkeypatch):
    """Fail the test if it builds a minimal free resolution or runs module Buchberger."""
    from golodkit import groebner, resolution

    def forbidden(*args, **kwargs):
        raise AssertionError("a resolution or a syzygy module was computed")

    monkeypatch.setattr(resolution, "minimal_free_resolution", forbidden)
    monkeypatch.setattr(resolution, "module_syzygies", forbidden)
    monkeypatch.setattr(groebner, "module_syzygies", forbidden)


@pytest.fixture
def r2():
    return GradingSpec(("x", "y"), (1, 1))


@pytest.fixture
def r3():
    return GradingSpec(("x", "y", "z"), (1, 1, 1))


@pytest.fixture
def r4():
    return GradingSpec(("x", "y", "z", "w"), (1, 1, 1, 1))


@pytest.fixture
def rw():
    return GradingSpec(("x", "y"), (1, 2))
