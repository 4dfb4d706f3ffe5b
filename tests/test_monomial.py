"""Monomial ideal combinatorics: covers, decompositions, closures."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golodkit import (
    AlgebraError,
    GradingSpec,
    Graph,
    Ideal,
    MonomialIdeal,
    ParseError,
    builtin_corpus,
    colon,
    cycle_graph,
    integral_closure,
    intersect,
    irreducible_decomposition,
    minimal_primary_components,
    minimal_primes,
    minimal_vertex_covers,
    odd_cycle_suite,
    path_graph,
    ring_for_vertices,
    squarefree_generated_ideal,
    squarefree_symbolic_power,
    strongly_golod_monomial,
    vertex_cover_ideal,
)

from golodkit import monomial
from golodkit.groebner import MonomialOrder, _engine_basis, _engine_colon, _engine_intersect

from conftest import (
    intersection_loop_components,
    oracle_ideal_powers,
    oracle_monomial_member,
    oracle_monomial_scan,
    ordered_monomial_scan,
)


def _random_monomial_ideal(ring, rng, count=4, maxdeg=3):
    vecs = []
    for _ in range(count):
        vecs.append(tuple(rng.randint(0, maxdeg) for _ in range(ring.n)))
    vecs = [v for v in vecs if any(v)]
    return MonomialIdeal(ring, vecs or [(1,) * ring.n])


def test_minimal_generators_are_minimal(r3):
    I = MonomialIdeal(r3, [(2, 0, 0), (2, 1, 0), (0, 1, 1), (0, 2, 2)])
    assert set(I.gens) == {(2, 0, 0), (0, 1, 1)}


def test_from_ideal_rejects_polynomials(r2):
    with pytest.raises(ValueError):
        MonomialIdeal.from_ideal(Ideal.from_strings(r2, ["x + y"]))


def test_operations_match_groebner(r3):
    # the references run the Buchberger engine, which the monomial route skips
    grevlex = MonomialOrder.grevlex(r3)

    def basis(M: MonomialIdeal):
        return _engine_basis(M.to_ideal(), grevlex)

    rng = Random(71)
    for trial in range(5):
        A = _random_monomial_ideal(r3, rng)
        B = _random_monomial_ideal(r3, rng)
        Ap, Bp = A.to_ideal(), B.to_ideal()
        assert basis(A.intersect(B)) == _engine_intersect(Ap, Bp).generators
        assert basis(A.colon(B)) == _engine_colon(Ap, Bp).generators
        assert basis(A.sum(B)) == _engine_basis(
            Ideal(r3, list(Ap.generators) + list(Bp.generators)), grevlex)
        assert basis(A.product(B)) == _engine_basis(
            Ideal(r3, [p * q for p in Ap.generators for q in Bp.generators]), grevlex)
        # and the public operations agree with both
        assert intersect(Ap, Bp).generators == basis(A.intersect(B))
        assert colon(Ap, Bp).generators == basis(A.colon(B))


def test_membership_by_divisibility(r3):
    rng = Random(73)
    I = _random_monomial_ideal(r3, rng)
    for u in iproduct(range(4), repeat=3):
        assert I.contains_exponents(u) == oracle_monomial_member(list(I.gens), u)


@pytest.mark.parametrize("u", [(5,), (1, 1, 0), (1, -1)])
def test_vector_arguments_are_checked_like_generators(r2, u):
    # unchecked, zip would truncate (5,) to a monomial that (1, 1) divides,
    # and a colon by it would build an ideal whose repr fails
    I = MonomialIdeal(r2, [(1, 1)])
    with pytest.raises(ValueError, match="bad exponent vector"):
        MonomialIdeal(r2, [u])
    with pytest.raises(ValueError, match="bad exponent vector"):
        I.contains_exponents(u)
    with pytest.raises(ValueError, match="bad exponent vector"):
        I.colon_monomial(u)


@pytest.mark.parametrize("indices", [[5], [2], [-1], [0, 2]])
def test_saturate_variables_rejects_indices_outside_the_ring(r2, indices):
    with pytest.raises(ValueError, match="bad variable indices"):
        MonomialIdeal(r2, [(2, 0), (0, 2)]).saturate_variables(indices)


def test_checked_arguments_accept_any_sequence(r2):
    I = MonomialIdeal(r2, [(2, 0), (0, 2)])
    assert I.contains_exponents([1, 1]) is False and I.contains_exponents((3, 0))
    assert I.colon_monomial([1, 0]) == MonomialIdeal(r2, [(1, 0), (0, 2)])
    assert I.saturate_variables([0]) == MonomialIdeal(r2, [(0, 0)])
    assert I.saturate_variables([]) == I


def test_power_matches_brute_force(r2):
    I = MonomialIdeal(r2, [(2, 0), (1, 1), (0, 3)])
    for k in (2, 3):
        brute = MonomialIdeal(r2, oracle_ideal_powers(I.gens, k))
        assert I.power(k) == brute


def test_graph_parsing_and_validation():
    text = """
# a triangle plus a tail
n 4
1 2
2 3
1 3
3 4
"""
    G = Graph.from_text(text)
    assert G.n == 4 and len(G.edges) == 4
    with pytest.raises(ParseError):
        Graph.from_text("n 2\n1 5\n")
    with pytest.raises(ParseError):
        Graph.from_text("not a graph")
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


def test_cycle_and_path_constructors():
    assert len(cycle_graph(5).edges) == 5
    assert len(path_graph(5).edges) == 4
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_vertex_cover_ideal_is_edge_prime_intersection():
    G = cycle_graph(3)
    J = vertex_cover_ideal(G)
    ring = J.ring
    expected = None
    for i, j in sorted(G.edges):
        P = MonomialIdeal(ring, [
            tuple(1 if t == i else 0 for t in range(3)),
            tuple(1 if t == j else 0 for t in range(3)),
        ])
        expected = P if expected is None else expected.intersect(P)
    assert J == expected
    # generators correspond exactly to the minimal vertex covers
    covers = minimal_vertex_covers(G)
    assert sorted(covers) == [(0, 1), (0, 2), (1, 2)]


def test_minimal_covers_of_odd_cycles():
    assert len(minimal_vertex_covers(cycle_graph(3))) == 3
    assert len(minimal_vertex_covers(cycle_graph(5))) == 5
    assert len(minimal_vertex_covers(cycle_graph(7))) == 7
    sizes = {len(c) for c in minimal_vertex_covers(cycle_graph(7))}
    assert sizes == {4}


def test_minimal_primes_of_cover_ideal_recover_edges():
    G = cycle_graph(5)
    J = vertex_cover_ideal(G)
    primes = minimal_primes(J)
    assert sorted(primes) == sorted(tuple(e) for e in G.edges)


def test_squarefree_symbolic_power_rejects_non_squarefree(r2):
    I = MonomialIdeal(r2, [(2, 0)])
    with pytest.raises(ValueError):
        squarefree_symbolic_power(I, 2)


def test_odd_cycle_suite_contents():
    for n in (3, 5):
        rep = odd_cycle_suite(n)
        assert rep.symbolic_square_is_square_plus_product
        assert rep.symbolic_square_squared_in_cube
        assert all(rep.higher_squares_contained.values())
    with pytest.raises(ValueError):
        odd_cycle_suite(4)
    with pytest.raises(ValueError):
        odd_cycle_suite(1)


def test_even_cycle_has_no_symbolic_gap():
    # bipartite graphs have packing equality: I^(2) equals I^2 for C4
    G = cycle_graph(4)
    J = vertex_cover_ideal(G)
    assert squarefree_symbolic_power(J, 2) == J.power(2)


def test_squarefree_generated_ideal_shape():
    I = squarefree_generated_ideal(4, 3)
    assert len(I.gens) == 4
    assert all(sum(v) == 3 and max(v) == 1 for v in I.gens)


def test_irreducible_decomposition_reintersects(r3):
    rng = Random(79)
    for trial in range(6):
        I = _random_monomial_ideal(r3, rng)
        dec = irreducible_decomposition(I)
        acc = None
        for comp in dec.components:
            acc = comp if acc is None else acc.intersect(comp)
        assert acc == I
        # components are irreducible: generated by pure variable powers
        for comp in dec.components:
            for v in comp.gens:
                assert sum(1 for e in v if e) == 1


def test_minimal_primary_components_structure(r3):
    I = MonomialIdeal(r3, [(2, 0, 1), (1, 1, 1), (0, 2, 1)])
    comps = dict(minimal_primary_components(I))
    assert set(comps) == {(0, 1), (2,)}
    assert comps[(2,)] == MonomialIdeal(r3, [(0, 0, 1)])
    assert comps[(0, 1)] == MonomialIdeal(r3, [(2, 0, 0), (1, 1, 0), (0, 2, 0)])
    acc = None
    for Q in comps.values():
        acc = Q if acc is None else acc.intersect(Q)
    assert acc == I


def test_integral_closure_examples(r2, r3):
    cubes = MonomialIdeal(r2, [(3, 0), (0, 3)])
    assert integral_closure(cubes) == MonomialIdeal(
        r2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    # already integrally closed ideals are fixed points
    m2 = MonomialIdeal(r2, [(2, 0), (1, 1), (0, 2)])
    assert integral_closure(m2) == m2
    mixed = MonomialIdeal(r3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    cl = integral_closure(mixed)
    assert cl.contains_exponents((1, 1, 0))
    assert not cl.contains_exponents((1, 0, 0))


def test_integral_closure_rejects_a_non_convex_combination(r2, monkeypatch):
    # weights summing to 2 are not a convex combination
    monkeypatch.setattr(monomial, "_feasible_combination",
                        lambda gens, u: [Fraction(1)] * len(gens))
    with pytest.raises(AlgebraError, match="not an integral combination"):
        integral_closure(MonomialIdeal(r2, [(3, 0), (0, 3)]))


def test_integral_closure_rejects_a_witness_above_the_monomial(r2, monkeypatch):
    # all weight on x^3 does not bound the first candidate, 1 = x^0 y^0
    monkeypatch.setattr(monomial, "_feasible_combination",
                        lambda gens, u: [Fraction(1)] + [Fraction(0)] * (len(gens) - 1))
    with pytest.raises(AlgebraError, match="witness check failed"):
        integral_closure(MonomialIdeal(r2, [(3, 0), (0, 3)]))


def test_integral_closure_check_survives_python_O():
    code = (
        "from fractions import Fraction\n"
        "from golodkit import GradingSpec, MonomialIdeal, integral_closure, monomial\n"
        "from golodkit.errors import AlgebraError\n"
        "monomial._feasible_combination = lambda gens, u: [Fraction(1), Fraction(0)]\n"
        "ring = GradingSpec(('x', 'y'), (1, 1))\n"
        "try:\n"
        "    integral_closure(MonomialIdeal(ring, [(3, 0), (0, 3)]))\n"
        "except AlgebraError:\n"
        "    print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_integral_closure_certificates(r2):
    # membership certificate: u in the closure iff u^r in I^r for some r
    I = MonomialIdeal(r2, [(3, 0), (0, 3)])
    u = (2, 1)
    k = 3
    uk = tuple(k * e for e in u)
    assert I.power(k).contains_exponents(uk)
    # non-member stays out of every power
    v = (1, 1)
    for r in (1, 2, 3, 4):
        assert not I.power(r).contains_exponents(tuple(r * e for e in v))


def test_closure_is_idempotent_and_monotone(r2):
    rng = Random(83)
    for trial in range(5):
        I = _random_monomial_ideal(r2, rng, count=3, maxdeg=4)
        cl = integral_closure(I)
        assert cl.contains(I)
        assert integral_closure(cl) == cl


def test_quotient_predicate_on_known_ideals(r3):
    assert not strongly_golod_monomial(MonomialIdeal(r3, [(1, 0, 1), (0, 1, 1)])).verdict
    assert strongly_golod_monomial(
        MonomialIdeal(r3, [(2, 0, 0), (1, 1, 0), (0, 2, 0)])).verdict
    rep = strongly_golod_monomial(MonomialIdeal(r3, [(1, 0, 1), (0, 1, 1)]))
    w = rep.witness
    # the quotient named by the witness really escapes the ideal
    assert not MonomialIdeal(r3, [(1, 0, 1), (0, 1, 1)]).contains_exponents(w.quotient)


def test_cover_ideal_symbolic_powers_shrink_properly():
    # I^(2p) sits inside I^p for cover ideals (p = 1, 2)
    for n in (3, 5):
        J = vertex_cover_ideal(cycle_graph(n))
        for p in (1, 2):
            assert J.power(p).contains(squarefree_symbolic_power(J, 2 * p))


_R3 = GradingSpec(("x", "y", "z"), (1, 1, 1))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(vecs=st.lists(st.tuples(*[st.integers(0, 3)] * 3).filter(any), min_size=1, max_size=5))
def test_quotient_predicate_matches_the_ordered_scan(vecs):
    I = MonomialIdeal(_R3, vecs)
    assert strongly_golod_monomial(I) == ordered_monomial_scan(I)
    assert strongly_golod_monomial(I) == oracle_monomial_scan(I)


def test_quotient_predicate_matches_the_divisibility_oracle_on_the_corpus():
    # the monomial corpus entries (some fail the predicate) and their squares
    checked = 0
    for e in builtin_corpus():
        if not e.monomial or e.ideal.is_zero():
            continue
        I = MonomialIdeal.from_ideal(e.ideal)
        for J in (I, I.power(2)):
            if J.is_proper():
                assert strongly_golod_monomial(J) == oracle_monomial_scan(J), e.name
                checked += 1
    assert checked >= 28


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(n=st.integers(2, 4), data=st.data())
def test_irreducible_components_match_the_intersection_loop(n, data):
    ring = ring_for_vertices(n)
    vecs = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                              min_size=1, max_size=5))
    I = MonomialIdeal(ring, vecs)
    assert monomial.irreducible_components(I) == intersection_loop_components(I)
