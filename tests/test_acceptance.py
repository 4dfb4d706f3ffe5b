"""End-to-end checks of every advertised guarantee, one test per claim.

Run with -v to get one pass/fail line per claim.  Time limits are asserted
where a budget is part of the guarantee.
"""

import time
from itertools import combinations
from random import Random

from conftest import corpus_powers, full_window_series
from golodkit import (
    GradingSpec,
    Ideal,
    MonomialIdeal,
    add_prime_power,
    betti_table,
    builtin_corpus,
    check_colon_condition,
    colon,
    contains,
    cycle_graph,
    derivative_cycle_check,
    derivative_ideal,
    golod_verdict,
    integral_closure,
    intersect,
    irreducible_decomposition,
    koszul_homology,
    minimal_free_resolution,
    minimal_primary_components,
    power,
    sandwich_check,
    saturated_power,
    squarefree_generated_ideal,
    squarefree_symbolic_power,
    strongly_golod,
    strongly_golod_monomial,
    trivial_multiplication_check,
    vertex_cover_ideal,
    zariski_nagata_membership,
)
from golodkit.poincare import GOLOD, NOT_GOLOD


def _sg_squares():
    """The derived strongly Golod family: squares of the sweep corpus."""
    out = []
    for e in builtin_corpus():
        if e.closure_sweep:
            out.append((e.name, e.monomial, power(e.ideal, 2)))
    return out


def _sg_monomial_ideals():
    """Monomial corpus members that pass the predicate, plus their squares."""
    out = []
    for e in builtin_corpus():
        if not e.monomial or e.ideal.is_zero() or not e.ideal.is_proper():
            continue
        mi = MonomialIdeal.from_ideal(e.ideal)
        if strongly_golod_monomial(mi).verdict:
            out.append((e.name, mi))
        if e.closure_sweep:
            out.append((e.name + "^2", mi.power(2)))
    return out


def _variable_primes_containing(mi: MonomialIdeal):
    ring = mi.ring
    for r in range(1, ring.n + 1):
        for S in combinations(range(ring.n), r):
            if all(any(g[i] for i in S) for g in mi.gens):
                yield S


def test_01_product_pair_fails_with_exact_witness(r3):
    start = time.monotonic()
    I = Ideal.from_strings(r3, ["x*z", "y*z"])
    rep = strongly_golod(I)
    assert not rep.verdict
    assert str(rep.witness.remainder) == "z^2"
    assert not I.contains_poly(rep.witness.left * rep.witness.right)
    assert time.monotonic() - start < 1.0


def test_02_corpus_powers_and_saturated_powers_pass():
    start = time.monotonic()
    sweep = [e for e in builtin_corpus() if e.closure_sweep]
    assert len(sweep) >= 20
    for e in sweep:
        for k in (2, 3):
            assert strongly_golod(power(e.ideal, k)).verdict, (e.name, k)
            sat = saturated_power(e.ideal, k)
            assert strongly_golod(sat.ideal).verdict, (e.name, k, "saturated")
    assert time.monotonic() - start < 300.0


def _square_pairs(squares):
    """Pairs of squares that live in the same ring."""
    by_ring = {}
    for name, mono, I in squares:
        by_ring.setdefault(I.ring, []).append((name, mono, I))
    for pool in by_ring.values():
        yield from combinations(pool, 2)


def _trimmed_product(A: Ideal, B: Ideal) -> Ideal:
    return Ideal(A.ring, Ideal(
        A.ring, [p * q for p in A.generators for q in B.generators]).minimal_generators())


def test_03_closure_under_intersection_product_and_colon():
    squares = _sg_squares()
    for (na, ma, A), (nb, mb, B) in _square_pairs(squares):
        if ma and mb:
            MA = MonomialIdeal.from_ideal(A)
            MB = MonomialIdeal.from_ideal(B)
            assert strongly_golod_monomial(MA.intersect(MB)).verdict, (na, nb)
            assert strongly_golod_monomial(MA.product(MB)).verdict, (na, nb)
        else:
            assert strongly_golod(intersect(A, B)).verdict, (na, nb)
            assert strongly_golod(_trimmed_product(A, B)).verdict, (na, nb)
    # colon closure whenever the stabilization condition holds
    for name, mono, I in squares:
        ring = I.ring
        candidates = [Ideal(ring, [ring.variable(i)]) for i in range(ring.n)]
        candidates.append(Ideal(ring, list(ring.variables())))
        for J in candidates:
            if not check_colon_condition(I, J):
                continue
            assert strongly_golod(colon(I, J)).verdict, (name, str(J))


def test_04_prime_containments_and_added_powers():
    for name, mi in _sg_monomial_ideals():
        I = mi.to_ideal()
        D = derivative_ideal(I)
        for S in _variable_primes_containing(mi):
            P = Ideal(I.ring, [I.ring.variable(i) for i in S])
            assert contains(P, D), (name, S)
            for g in I.generators:
                assert zariski_nagata_membership(g, P, 2), (name, S, str(g))
            for k in (2, 3):
                assert strongly_golod(add_prime_power(I, P, k)).verdict, (name, S, k)


def test_05_odd_cycle_symbolic_squares():
    start = time.monotonic()
    for n in (3, 5, 7):
        J = vertex_cover_ideal(cycle_graph(n))
        sym2 = squarefree_symbolic_power(J, 2)
        whole = MonomialIdeal(J.ring, [(1,) * n])
        assert sym2 == J.power(2).sum(whole), n
        assert J.power(3).contains(sym2.power(2)), n
    assert time.monotonic() - start < 120.0


def test_06_four_three_membership_gap():
    start = time.monotonic()
    I = squarefree_generated_ideal(4, 3)
    u = (1, 1, 1, 1)
    assert squarefree_symbolic_power(I, 2).contains_exponents(u)
    assert not I.power(3).contains_exponents(tuple(2 * e for e in u))
    assert time.monotonic() - start < 1.0


def test_07_pentagon_sandwich_randomized():
    J = vertex_cover_ideal(cycle_graph(5))
    I = J.to_ideal()
    sym2 = squarefree_symbolic_power(J, 2).to_ideal()
    sym1 = squarefree_symbolic_power(J, 1).to_ideal()
    I2 = power(I, 2)
    rng = Random(424242)
    passed = 0
    for trial in range(10):
        extra = [g for g in sym2.generators if rng.random() < 0.5]
        mid = Ideal(I.ring, list(I2.generators) + extra)
        rep = sandwich_check(I, mid, 2, sym2, sym1)
        assert rep.hypothesis_holds
        assert rep.verdict, trial
        passed += 1
    assert passed == 10


def test_08_koszul_dimensions_equal_betti_tables():
    for e in builtin_corpus():
        if e.ideal.is_zero():
            continue
        bt = betti_table(minimal_free_resolution(e.ideal))
        hs = koszul_homology(e.ideal)
        assert {k: v for k, v in hs.dims.items() if v} == dict(bt.entries), e.name


def test_09_flagship_series_attains_doubling_bound(r2):
    start = time.monotonic()
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    v = golod_verdict(I)
    assert v.status == GOLOD
    totals = v.bound.totals()
    assert [totals[i] for i in range(5)] == [1, 2, 4, 8, 16]
    assert v.actual.coefficients == v.bound.coefficients
    assert time.monotonic() - start < 60.0


def test_10_complete_intersection_control(r2):
    start = time.monotonic()
    I = Ideal.from_strings(r2, ["x^2", "y^2"])
    v = golod_verdict(I)
    assert v.status == NOT_GOLOD
    assert v.first_discrepancy == (3, 4, 1, 0)
    assert v.bound.totals()[3] == 5
    assert v.actual.totals()[3] == 4
    assert time.monotonic() - start < 60.0


def test_11_series_inequality_every_bidegree():
    # the verdict's series skips bidegrees where the bound is 0, so the
    # inequality is checked on the series resolved over the whole window
    for e in builtin_corpus():
        if e.ideal.is_zero() or not e.ideal.is_proper():
            continue
        v = golod_verdict(e.ideal, 3)
        full = full_window_series(e.ideal, 3, v.d_max)
        assert full.coefficients == v.actual.coefficients, e.name
        for key, a in full.coefficients.items():
            assert a <= v.bound.coefficient(*key), (e.name, key)


def test_12_trivial_multiplication_verdicts(r2):
    for e in builtin_corpus():
        if e.ideal.is_zero() or not e.ideal.is_proper():
            continue
        if strongly_golod(e.ideal).verdict:
            assert trivial_multiplication_check(e.ideal).verdict, e.name
    for name, mono, I in _sg_squares():
        if mono:
            assert trivial_multiplication_check(I).verdict, name
    assert not trivial_multiplication_check(
        Ideal.from_strings(r2, ["x^2", "y^2"])).verdict


def test_13_integral_closure_exact_value_and_closure(r2):
    cubes = MonomialIdeal(r2, [(3, 0), (0, 3)])
    assert integral_closure(cubes) == MonomialIdeal(
        r2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    for name, mi in _sg_monomial_ideals():
        assert strongly_golod_monomial(integral_closure(mi)).verdict, name


def test_14_minimal_primary_components_are_strongly_golod():
    for name, mi in _sg_monomial_ideals():
        for P, Q in minimal_primary_components(mi):
            assert strongly_golod_monomial(Q).verdict, (name, P)
    # the full decomposition re-intersects to the input for every monomial
    # corpus member; minimal components alone may drop embedded pieces
    for e in builtin_corpus():
        if not e.monomial or e.ideal.is_zero() or not e.ideal.is_proper():
            continue
        mi = MonomialIdeal.from_ideal(e.ideal)
        dec = irreducible_decomposition(mi)
        acc = None
        for Q in dec.components:
            acc = Q if acc is None else acc.intersect(Q)
        assert acc == mi, e.name


def test_15_strongly_golod_squares_are_not_refuted_by_the_verdict():
    # the paper's theorem: strongly Golod implies Golod in characteristic 0,
    # so no square that test_02 proves strongly Golod may come out NOT-GOLOD
    squares = _sg_squares()
    assert sum(I.ring.n == 4 for _, _, I in squares) == 5
    for name, _, I in squares:
        assert golod_verdict(I, 3).status != NOT_GOLOD, name


def test_16_strongly_golod_pairs_are_not_refuted_by_the_verdict():
    # the paper's theorem on the intersections and products of pairs of
    # squares that test_03 proves strongly Golod, in rings of at most 3 variables
    squares = [sq for sq in _sg_squares() if sq[2].ring.n <= 3]
    derived = []
    for (na, _, A), (nb, _, B) in _square_pairs(squares):
        derived.append((f"{na}^2 & {nb}^2", intersect(A, B)))
        derived.append((f"{na}^2 * {nb}^2", _trimmed_product(A, B)))
    assert len(derived) == 98
    for name, I in derived:
        assert golod_verdict(I, 3).status != NOT_GOLOD, name


def test_17_closure_family_is_not_refuted_by_the_verdict():
    # the paper's theorem on the rest of the family that test_02, test_03
    # and test_04 prove strongly Golod, in rings of at most 3 variables
    sweep = [e for e in builtin_corpus() if e.closure_sweep and e.ideal.ring.n <= 3]
    powers = [(f"{e.name}^3", power(e.ideal, 3)) for e in sweep]
    powers += [(f"{e.name}^({k})", saturated_power(e.ideal, k).ideal)
               for e in sweep for k in (2, 3)]
    colons = []
    for name, _, I in _sg_squares():
        ring = I.ring
        if ring.n > 3:
            continue
        candidates = [Ideal(ring, [ring.variable(i)]) for i in range(ring.n)]
        candidates.append(Ideal(ring, list(ring.variables())))
        colons += [(f"{name}^2 : {J}", colon(I, J))
                   for J in candidates if check_colon_condition(I, J)]
    added = []
    for name, mi in _sg_monomial_ideals():
        if mi.ring.n > 3:
            continue
        I = mi.to_ideal()
        for S in _variable_primes_containing(mi):
            P = Ideal(I.ring, [I.ring.variable(i) for i in S])
            added += [(f"{name} + P{S}^{k}", add_prime_power(I, P, k)) for k in (2, 3)]
    assert (len(powers), len(colons), len(added)) == (48, 13, 60)
    for name, I in powers + colons + added:
        assert golod_verdict(I, 3).status != NOT_GOLOD, name


def test_18_derivative_cycles_carry_the_koszul_homology_of_corpus_powers():
    # the paper's lemma: when d(I)^2 lies in I, every positive Koszul class
    # has a cycle with coefficients in d(I)R; checked on the corpus squares
    # and on the cubes in at most 3 variables
    powers = corpus_powers()
    assert len(powers) == 41
    for name, I in powers:
        assert derivative_cycle_check(I), name
