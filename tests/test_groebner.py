"""Groebner engine: reduced bases, membership, intersection, colon, syzygies."""

import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, prod
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golodkit import (
    GradingSpec,
    Ideal,
    Polynomial,
    check_colon_condition,
    colon,
    contains,
    intersect,
    module_syzygies,
    parse_polynomial,
    power,
    saturate,
    syzygies,
)
from golodkit import groebner
from golodkit.groebner import (
    _ONE,
    MonomialOrder,
    _Engine,
    _axpy_shifted,
    _engine_basis,
    _engine_colon,
    _engine_intersect,
    _from_internal,
    _run_engine,
    _to_internal,
)
from golodkit.ring import grevlex_key, mono_div, mono_divides, mono_lcm

from conftest import (
    DegreewiseQuotient,
    _row_reduce,
    assert_canonical,
    monomials_of_degree,
    oracle_member,
    random_homogeneous,
    reference_axpy_shifted,
    reference_colon,
    reference_intersect,
    reference_mono_mul,
    reference_saturate,
)


def _lead(p: Polynomial):
    return p.terms[0]


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    (ef, cf), (eg, cg) = _lead(f), _lead(g)
    l = mono_lcm(ef, eg)
    mf = Polynomial.monomial(f.ring, mono_div(l, ef), Fraction(1) / cf)
    mg = Polynomial.monomial(g.ring, mono_div(l, eg), Fraction(1) / cg)
    return mf * f - mg * g


def _top_reduce(p: Polynomial, basis) -> Polynomial:
    """Independent long division: repeatedly cancel the lead term."""
    changed = True
    while not p.is_zero() and changed:
        changed = False
        e, c = _lead(p)
        for g in basis:
            eg, cg = _lead(g)
            if mono_divides(eg, e):
                p = p - g * Polynomial.monomial(p.ring, mono_div(e, eg), c / cg)
                changed = True
                break
    return p


def test_reduced_basis_shape(r2):
    I = Ideal.from_strings(r2, ["x^2 + y^2", "x*y"])
    gb = I.groebner_basis()
    leads = [_lead(g)[0] for g in gb]
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert not mono_divides(a, b)
    for g in gb:
        assert _lead(g)[1] == 1
    # terms of each element are sorted strictly descending in grevlex
    for g in gb:
        keys = [grevlex_key(r2.weights, e) for e, _ in g.terms]
        assert keys == sorted(keys, reverse=True)


def test_every_spolynomial_reduces_to_zero(r3):
    rng = Random(17)
    for trial in range(8):
        gens = [random_homogeneous(r3, rng.randint(2, 3), rng) for _ in range(3)]
        gb = Ideal(r3, gens).groebner_basis()
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert _top_reduce(_spoly(gb[i], gb[j]), gb).is_zero()


def test_membership_against_degreewise_oracle(r3):
    rng = Random(23)
    for trial in range(6):
        gens = [random_homogeneous(r3, rng.randint(2, 3), rng) for _ in range(2)]
        I = Ideal(r3, gens)
        for d in (2, 3, 4):
            for _ in range(4):
                f = random_homogeneous(r3, d, rng)
                assert I.contains_poly(f) == oracle_member(I, f)
        # explicit members built from the generators
        f = gens[0] * random_homogeneous(r3, 1, rng)
        assert I.contains_poly(f)
        assert oracle_member(I, f)


def test_normal_form_is_linear_and_idempotent(r2):
    I = Ideal.from_strings(r2, ["x^2 - y^2"])
    f = parse_polynomial(r2, "x^3")
    nf = I.normal_form(f).remainder
    assert I.normal_form(nf).remainder == nf
    g = parse_polynomial(r2, "x*y^2")
    lhs = I.normal_form(f + g).remainder
    rhs = nf + I.normal_form(g).remainder
    assert lhs == rhs


def _engine_remainder(I: Ideal, p: Polynomial) -> Polynomial:
    """Reference: term-by-term reduction by the Buchberger engine's nf.

    nf reduces the primitive integer vector u of p = f * u, and returns mu * u
    reduced, mu the product of its steps' b; so the normal form is f * rem / mu.
    """
    order = MonomialOrder.grevlex(I.ring)
    eng = _Engine(order, 1, track=False)
    for g in I.groebner_basis():
        eng.leads.append((0, g.terms[0][0]))
        eng.polys.append(_to_internal([g])[0])
        eng.reps.append({})
    u, f = _to_internal([p])
    rem, steps = eng.nf(u)
    mu = prod(b for *_, b in steps)
    return Polynomial.constant(I.ring, f / mu) * _from_internal(rem, I.ring, 1)[0]


def test_normal_form_matches_engine_and_oracle(r3, rw):
    rng = Random(53)
    for ring in (r3, rw):
        for trial in range(4):
            gens = [random_homogeneous(ring, rng.randint(2, 4), rng) for _ in range(2)]
            I = Ideal(ring, gens)
            for d in (2, 3, 4, 5):
                f = random_homogeneous(ring, d, rng)
                nf = I.normal_form(f)
                assert nf.remainder == _engine_remainder(I, f)
                assert nf.is_member == oracle_member(I, f)
            member = gens[0] * random_homogeneous(ring, 2, rng)
            assert I.normal_form(member).is_member
            assert oracle_member(I, member)


def test_normal_form_of_inhomogeneous_ideal(r3):
    rng = Random(59)
    I = Ideal.from_strings(r3, ["x^2 + y", "x*y - z^2 + 1", "y*z^2 - x"])
    for _ in range(8):
        f = sum(
            (random_homogeneous(r3, d, rng) for d in range(4)),
            Polynomial.zero(r3),
        )
        nf = I.normal_form(f)
        assert nf.remainder == _engine_remainder(I, f)
        assert I.normal_form(nf.remainder).remainder == nf.remainder
        g = f * I.generators[1] + nf.remainder
        assert I.normal_form(g).remainder == nf.remainder


def test_monomial_normal_form_chain_deeper_than_recursion_limit(r2):
    # x^k -> x^(k-1)*y -> ... -> y^k is a chain of k reductions
    I = Ideal.from_strings(r2, ["x - y"])
    k = sys.getrecursionlimit() + 100
    assert I._nf_row((k, 0)) == ({(0, k): 1}, 1)
    assert I.normal_form(Polynomial.monomial(r2, (k - 1, 1))).remainder == Polynomial.monomial(r2, (0, k))


def _fractions_in(obj) -> int:
    """The number of Fractions anywhere inside nested dicts, tuples and lists."""
    if isinstance(obj, Fraction):
        return 1
    if isinstance(obj, dict):
        return sum(_fractions_in(k) + _fractions_in(v) for k, v in obj.items())
    if isinstance(obj, (tuple, list)):
        return sum(_fractions_in(x) for x in obj)
    return 0


def test_monomial_normal_forms_are_integer_rows_over_a_non_integral_basis(r3):
    I = Ideal.from_strings(r3, ["2*x^2 + y^2 - 3*z^2", "x*y + 1/2*y*z - z^2", "3*x*z - y^2"])
    assert any(c.denominator != 1 for g in I.groebner_basis() for _, c in g.terms)
    oracle = DegreewiseQuotient(I)
    for d in range(6):
        for e in monomials_of_degree(r3, d):
            I._nf_row(e)
    reached = list(I._nf)
    assert len(reached) > 50
    fractional = 0
    for e in reached:
        row, den = I._nf_row(e)
        nf = {v: Fraction(c, den) for v, c in row.items()}
        x_e = Polynomial.monomial(r3, e)
        assert nf == dict(I.normal_form(x_e).remainder.terms)
        assert nf == dict(oracle.normal_form(x_e).terms)
        assert all(type(c) is int for c in row.values()) and type(den) is int and den > 0
        fractional += any(c.denominator != 1 for c in nf.values())
    assert fractional
    # the memo keeps integer rows over one denominator each, never a Fraction
    assert _fractions_in(I._nf) == 0


def test_intersection_of_principal_ideals(r2):
    I = Ideal.from_strings(r2, ["x"])
    J = Ideal.from_strings(r2, ["y"])
    assert intersect(I, J) == Ideal.from_strings(r2, ["x*y"])


def test_intersection_matches_double_membership(r3):
    rng = Random(31)
    I = Ideal.from_strings(r3, ["x^2", "y*z"])
    J = Ideal.from_strings(r3, ["x*y", "z^2"])
    M = intersect(I, J)
    for d in (2, 3, 4):
        for _ in range(6):
            f = random_homogeneous(r3, d, rng)
            assert M.contains_poly(f) == (I.contains_poly(f) and J.contains_poly(f))


def test_colon_definition_on_samples(r3):
    rng = Random(41)
    I = Ideal.from_strings(r3, ["x^2*y", "y^2*z"])
    J = Ideal.from_strings(r3, ["x*y", "y*z"])
    Q = colon(I, J)
    for d in (1, 2, 3):
        for _ in range(6):
            f = random_homogeneous(r3, d, rng)
            belongs = all(I.contains_poly(f * g) for g in J.generators)
            assert Q.contains_poly(f) == belongs


@pytest.mark.parametrize("names, gens, by, basis", [
    ("xy", ["x^2 - y", "x*y^2"], ["x"], ["y^2", "x^2 - y"]),
    ("xy", ["x^3 - y^2", "x*y - 1"], ["x", "y"], ["x*y - 1", "y^3 - x^2", "x^3 - y^2"]),
    ("xyz", ["x*y - z", "y^2*z - x", "z^3"], ["x*y", "z - 1"],
     ["x*y - z", "z^3", "y*z^2 - x^2", "x*z^2", "y^2*z - x", "x^2*z", "x^3"]),
    ("xyz", ["x^2 + y + z", "x*y*z"], ["x + 1"], ["x^2 + y + z", "y^2*z + y*z^2", "x*y*z"]),
])
def test_inhomogeneous_colons_are_generated_by_their_reduced_basis(names, gens, by, basis):
    ring = GradingSpec(tuple(names), (1,) * len(names))
    Q = colon(Ideal.from_strings(ring, gens), Ideal.from_strings(ring, by))
    expected = tuple(parse_polynomial(ring, t) for t in basis)
    assert Q.groebner_basis() == expected
    assert Q.generators == expected


def test_saturation_by_variable(r2):
    I = Ideal.from_strings(r2, ["x^2*y", "x^3*y^3"])
    res = saturate(I, Ideal.from_strings(r2, ["x"]))
    assert res.ideal == Ideal.from_strings(r2, ["y"])
    assert res.exponent == 2
    # saturating again is a fixed point
    again = saturate(res.ideal, Ideal.from_strings(r2, ["x"]))
    assert again.ideal == res.ideal and again.exponent == 0


def test_contains_whole_ideal(r2):
    big = Ideal.from_strings(r2, ["x", "y"])
    small = Ideal.from_strings(r2, ["x^2 + y^2", "x*y"])
    assert contains(big, small)
    assert not contains(small, big)


def test_syzygies_annihilate_generators(r3):
    gens = [parse_polynomial(r3, t) for t in ("x*y", "y*z", "x*z")]
    for s in syzygies(Ideal(r3, gens)):
        acc = Polynomial(r3, {})
        for coef, g in zip(s, gens):
            acc = acc + coef * g
        assert acc.is_zero()


def test_module_syzygies_on_koszul_pair(r2):
    x = parse_polynomial(r2, "x")
    y = parse_polynomial(r2, "y")
    columns = [[x], [y]]
    syz = module_syzygies(columns, r2)
    assert syz
    for s in syz:
        acc = Polynomial(r2, {})
        for coef, g in zip(s, [x, y]):
            acc = acc + coef * g
        assert acc.is_zero()
    # the Koszul relation (y, -x) spans; every syzygy is a multiple of it
    for s in syz:
        assert s[0] * (-x) == s[1] * y


def test_module_syzygies_of_zero_columns_are_unit_rows(r2):
    zero = Polynomial.zero(r2)
    one = Polynomial.constant(r2, 1)
    assert module_syzygies([[zero, zero]] * 3, r2) == [
        (one, zero, zero), (zero, one, zero), (zero, zero, one)]
    assert module_syzygies([[zero]], r2) == [(one,)]


def test_module_syzygies_are_primitive_integer_rows(r3):
    x, y, _ = r3.variables()
    assert module_syzygies([[Fraction(1, 2) * x], [y]], r3) == [(-2 * y, x)]


def test_syzygy_rows_are_distinct(r3):
    # the Schreyer S-pairs and the input rows both produce (-y*z, 0, x^2 + y^2)
    rows = syzygies(Ideal.from_strings(r3, ["x^2 + y^2", "x*y - 1/2*z^2", "y*z"]))
    assert len(rows) == len(set(rows)) == 7
    assert tuple(parse_polynomial(r3, t) for t in ("-y*z", "0", "x^2 + y^2")) in rows


def test_syzygy_rows_share_one_exponent_tuple_per_monomial(r3):
    rows = syzygies(Ideal.from_strings(r3, ["x^2 + y^2", "x*y - 1/2*z^2", "y*z"]))
    exps = [e for row in rows for p in row for e, _ in p.terms]
    assert len({id(e) for e in exps}) == len(set(exps)) < len(exps)


def test_unit_ideal_detection(r2):
    I = Ideal.from_strings(r2, ["x^2 + y^2", "x^2 - y^2", "x*y"])
    # contains all of (x,y)^2, hence proper
    assert I.is_proper()
    J = Ideal.from_strings(r2, ["x", "y", "x + y - x"])
    assert J.is_proper()
    U = Ideal.from_strings(r2, ["x - x + 1"])
    assert not U.is_proper()


def test_groebner_cache_consistency(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y"])
    gb1 = I.groebner_basis()
    gb2 = I.groebner_basis()
    assert gb1 is gb2
    f = parse_polynomial(r2, "x^2*y^5")
    assert I.contains_poly(f)


def _fold_steps(eng: _Engine, steps, ring, ncomp) -> list[Polynomial]:
    """The steps applied to zero: total <- b * total + a * x^shift * g_hit."""
    total = [Polynomial.zero(ring)] * ncomp
    for hit, shift, a, b in steps:
        g = _from_internal(eng.polys[hit], ring, ncomp)
        for k in range(ncomp):
            total[k] = Polynomial.constant(ring, b) * total[k] + Polynomial.monomial(ring, shift, a) * g[k]
    return total


def _check_division(eng: _Engine, vec: tuple[Polynomial, ...]):
    """mu * u == the steps folded into zero plus a fully reduced remainder, for
    vec == f * u with u primitive and mu the product of the steps' b."""
    ring = vec[0].ring
    ncomp = len(vec)
    u, _ = _to_internal(vec)
    rem, steps = eng.nf(u)
    assert len({(hit, shift) for hit, shift, _, _ in steps}) == len(steps)
    assert all(type(a) is int and type(b) is int and b > 0 for _, _, a, b in steps)
    mu = Polynomial.constant(ring, prod(b for *_, b in steps))
    total = _fold_steps(eng, steps, ring, ncomp)
    rem_polys = _from_internal(rem, ring, ncomp)
    scaled = _from_internal(u, ring, ncomp)
    assert tuple(t + r for t, r in zip(total, rem_polys)) == tuple(mu * p for p in scaled)
    for comp, e in rem:
        assert not any(lc == comp and mono_divides(le, e) for lc, le in eng.leads)
    return steps


def test_engine_steps_satisfy_the_division_identity(r3, rw):
    rng = Random(61)
    for ring in (r3, rw):
        order = MonomialOrder.grevlex(ring)
        for trial in range(4):
            gens = [random_homogeneous(ring, rng.randint(2, 3), rng) for _ in range(3)]
            eng = _run_engine([_to_internal([g])[0] for g in gens], order, 1, track=False)
            for d in (3, 4, 5):
                _check_division(eng, (random_homogeneous(ring, d, rng),))


def test_engine_steps_on_a_two_component_module(r3):
    rng = Random(67)
    order = MonomialOrder.grevlex(r3)
    for trial in range(3):
        cols = [(random_homogeneous(r3, 2, rng), random_homogeneous(r3, 3, rng))
                for _ in range(3)]
        scaled = [_to_internal(col) for col in cols]
        eng = _run_engine([u for u, _ in scaled], order, 2, track=True)
        for d in (3, 4):
            vec = (random_homogeneous(r3, d, rng), random_homogeneous(r3, d + 1, rng))
            _check_division(eng, vec)
        # a member of the module reduces to zero, and folding its steps into a
        # zero representation gives minus mu times its coefficients over the
        # scaled inputs u_j = cols[j] / f_j
        a, b = (random_homogeneous(r3, 1, rng) for _ in range(2))
        member = tuple(a * cols[0][k] + b * cols[1][k] for k in range(2))
        steps = _check_division(eng, member)
        _, f = _to_internal(member)
        got = _from_internal(eng.fold({}, steps), r3, len(cols))
        combo = [Polynomial.zero(r3)] * 2
        for k in range(2):
            for coeff, col, (_, fj) in zip(got, cols, scaled):
                combo[k] = combo[k] + Polynomial.constant(r3, 1 / fj) * coeff * col[k]
        mu = Polynomial.constant(r3, prod(b for *_, b in steps) / f)
        assert tuple(-p for p in combo) == tuple(mu * p for p in member)


def test_engine_holds_primitive_integer_vectors_over_the_scaled_inputs(r3, rw):
    # the invariant the fraction-free engine keeps: integer polys and reps, a
    # positive lead on every basis element, and polys[i] == sum_j reps[i][j] * u_j
    # exactly, u_j being input j scaled to a primitive integer vector
    rng = Random(73)
    factors = set()
    for ring in (r3, rw):
        order = MonomialOrder.grevlex(ring)
        for trial in range(4):
            ncomp = 1 + trial % 2
            cols = [tuple(random_homogeneous(ring, rng.randint(2, 3) + k, rng) for k in range(ncomp))
                    for _ in range(3)]
            pairs = [_to_internal(col) for col in cols]
            scaled = [u for u, _ in pairs]
            factors.update(f for _, f in pairs)
            eng = _run_engine(scaled, order, ncomp, track=True)
            us = [_from_internal(u, ring, ncomp) for u in scaled]
            for lead, poly, rep in zip(eng.leads, eng.polys, eng.reps):
                assert all(type(c) is int for c in (*poly.values(), *rep.values()))
                assert poly[lead] > 0
                coeffs = _from_internal(rep, ring, len(cols))
                combo = [sum((c * u[k] for c, u in zip(coeffs, us)), Polynomial.zero(ring))
                         for k in range(ncomp)]
                assert tuple(combo) == _from_internal(poly, ring, ncomp)
    # the pool's 1/2 makes some inputs non-integral, so scaling is exercised
    assert any(f.denominator > 1 for f in factors)


def test_standard_monomials_count_the_hilbert_function(r3, rw):
    rng = Random(71)
    for ring in (r3, rw):
        for trial in range(3):
            gens = [random_homogeneous(ring, rng.randint(2, 3), rng) for _ in range(2)]
            I = Ideal(ring, gens)
            for d in range(6):
                monos = monomials_of_degree(ring, d)
                index = {m: t for t, m in enumerate(monos)}
                rows = []
                for g in gens:
                    for m in monomials_of_degree(ring, d - g.degree()):
                        row = [Fraction(0)] * len(monos)
                        for e, c in (g * Polynomial.monomial(ring, m)).terms:
                            row[index[e]] = c
                        rows.append(row)
                rank = len(_row_reduce(rows))
                std = I.standard_monomials(d)
                assert len(std) == len(monos) - rank, (ring, d)
                assert std == sorted(std)
                assert I.standard_monomials(d) is std


@pytest.mark.parametrize("nvars", [2, 3])
def test_reduced_basis_matches_sympy(nvars):
    # differential test against an independent Buchberger (grevlex over QQ)
    sympy = pytest.importorskip("sympy")
    names = ("x", "y", "z")[:nvars]
    ring = GradingSpec(names, (1,) * nvars)
    gens = sympy.symbols(names)
    rng = Random(500 + nvars)
    for _ in range(8):
        polys = [random_homogeneous(ring, rng.randint(2, 3), rng)
                 for _ in range(rng.randint(2, 3))]
        ours = {p.terms for p in Ideal(ring, polys).groebner_basis()}
        theirs = set()
        inputs = [sympy.Poly.from_dict({e: sympy.Rational(str(c)) for e, c in p.terms},
                                       *gens, domain="QQ") for p in polys]
        for poly in sympy.groebner(inputs, *gens, order="grevlex", domain="QQ").polys:
            # monic for grevlex: Poly.monic() would divide by the lex lead
            monic = poly.quo_ground(poly.LC(order="grevlex"))
            theirs.add(Polynomial(ring, {e: Fraction(str(c)) for e, c in monic.terms()}).terms)
        assert ours == theirs, polys


_RINGS = {
    "r3": (GradingSpec(("x", "y", "z"), (1, 1, 1)), (1, 3)),
    "rw": (GradingSpec(("x", "y"), (1, 2)), (2, 4)),
}


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)), data=st.data())
def test_ideal_operations_against_the_oracle_on_random_ideals(name, data):
    ring, (lo, hi) = _RINGS[name]
    rng = Random(data.draw(st.integers(0, 2 ** 32)))

    def draw_ideal(size):
        degrees = data.draw(st.lists(st.integers(lo, hi), min_size=size[0], max_size=size[1]))
        return Ideal(ring, [random_homogeneous(ring, d, rng) for d in degrees])

    I, J = draw_ideal((2, 2)), draw_ideal((1, 2))
    meet = intersect(I, J).groebner_basis()
    assert all(oracle_member(I, g) and oracle_member(J, g) for g in meet)
    Q = colon(I, J)
    assert Q.generators == Q.groebner_basis()
    assert all(oracle_member(I, q * f) for q in Q.groebner_basis() for f in J.generators)
    # and the reverse inclusion: every h with h*J inside I lies in Q; the
    # degrees reach past hi, where h*J starts to fall into I
    for d in range(min(ring.weights), 2 * hi + 1):
        h = random_homogeneous(ring, d, rng)
        if all(oracle_member(I, h * f) for f in J.generators):
            assert oracle_member(Q, h)
    sat = saturate(I, Ideal(ring, list(ring.variables())))
    assert all(oracle_member(sat.ideal, g) for g in I.generators)
    # m^t * sat lies in I at the reported exponent t
    for combo in combinations_with_replacement(range(ring.n), sat.exponent):
        u = Polynomial.monomial(ring, tuple(combo.count(i) for i in range(ring.n)))
        assert all(oracle_member(I, u * s) for s in sat.ideal.groebner_basis())
    assert check_colon_condition(I, J) == (Q == colon(I, power(J, 2)))


def _assert_operations_match_the_references(I: Ideal, J: Ideal):
    """intersect, colon and saturate give the references' reduced bases, in
    the same generator order."""
    assert intersect(I, J).generators == reference_intersect(I, J).generators
    assert colon(I, J).generators == reference_colon(I, J).generators
    for by in (J, Ideal(I.ring, list(I.ring.variables()))):
        res = saturate(I, by)
        ideal, exponent = reference_saturate(I, by)
        assert (res.ideal.generators, res.exponent) == (ideal.generators, exponent)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)), data=st.data())
def test_ideal_operations_match_the_references_on_random_ideals(name, data):
    # random_homogeneous draws coefficients from a pool with 1/2 and -3
    ring, (lo, hi) = _RINGS[name]
    rng = Random(data.draw(st.integers(0, 2 ** 32)))

    def draw_ideal():
        degrees = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3))
        return Ideal(ring, [random_homogeneous(ring, d, rng) for d in degrees])

    _assert_operations_match_the_references(draw_ideal(), draw_ideal())


@pytest.mark.parametrize("names, weights, gens, by", [
    ("xyz", (1, 1, 1), [], ["x*y", "1/2*z^2 - 3*x^2"]),  # zero I
    ("xyz", (1, 1, 1), ["x*y - 3", "x*y"], ["x", "y^2"]),  # unit I
    ("xyz", (1, 1, 1), ["x^2*y - 1/2*z^3", "x*y^2"], ["-3"]),  # unit J
    ("xyz", (1, 1, 1), ["x^2*y - 1/2*z^3", "x*y^2"], ["x + 1", "x"]),  # unit J
    ("xy", (1, 1), ["x^2 + y"], ["x"]),
    ("xy", (1, 2), ["x^2*y - 3*y^2", "1/2*x^4 + x^2*y"], ["x^2", "y", "x*y + x^3"]),
])
def test_ideal_operations_match_the_references_on_edge_ideals(names, weights, gens, by):
    ring = GradingSpec(tuple(names), weights)
    _assert_operations_match_the_references(Ideal.from_strings(ring, gens),
                                            Ideal.from_strings(ring, by))


_MONOMIAL_RINGS = {
    "r3": GradingSpec(("x", "y", "z"), (1, 1, 1)),
    "rw": GradingSpec(("x", "y"), (1, 2)),
    "r4": GradingSpec(("x", "y", "z", "w"), (1, 1, 1, 1)),
}
_MONOMIAL_COEFFS = (1, 2, -1, Fraction(-1, 2), 3)


def _engine_saturate(I: Ideal, J: Ideal) -> tuple[Ideal, int]:
    """``saturate``'s colon chain with every colon and comparison run by the engine."""
    current, exponent = I, 0
    while True:
        nxt = _engine_colon(current, J)
        if nxt.generators == _engine_basis(current, MonomialOrder.grevlex(I.ring)):
            return current, exponent
        current, exponent = nxt, exponent + 1


def _assert_monomial_route_matches_the_engine(I: Ideal, J: Ideal):
    """Reduced bases, intersect, colon, saturate and the colon condition of
    monomial ideals equal the engine's, in generator order, without an engine run."""
    ring = I.ring
    grevlex, elim = MonomialOrder.grevlex(ring), MonomialOrder.elimination(ring, 1)
    m = Ideal(ring, list(ring.variables()))

    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran on monomial ideals")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_run_engine", no_engine)
        bases = [I.groebner_basis(), I.groebner_basis(elim)]
        ops = [intersect(I, J), colon(I, J)]
        sats = [saturate(I, by) for by in (J, m)]
        stable = check_colon_condition(I, J)
    assert bases == [_engine_basis(I, grevlex), _engine_basis(I, elim)]
    for ours, theirs in zip(ops, [_engine_intersect(I, J), _engine_colon(I, J)]):
        assert ours.generators == theirs.generators
        assert ours._gb is ours.generators
    for res, by in zip(sats, (J, m)):
        ideal, exponent = _engine_saturate(I, by)
        assert (res.ideal.generators, res.exponent) == (ideal.generators, exponent)
    Q = _engine_colon(I, J)
    assert stable == (Q.generators == _engine_colon(Q, J).generators)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_MONOMIAL_RINGS)), data=st.data())
def test_monomial_ideals_skip_the_engine_with_its_results(name, data):
    ring = _MONOMIAL_RINGS[name]
    exps = st.tuples(*[st.integers(0, 3)] * ring.n)

    def draw_ideal(min_size):
        terms = data.draw(st.lists(st.tuples(exps, st.sampled_from(_MONOMIAL_COEFFS)),
                                   min_size=min_size, max_size=4))
        if terms and data.draw(st.booleans()):  # a repeated generator
            terms.append((data.draw(st.sampled_from(terms))[0],
                          data.draw(st.sampled_from(_MONOMIAL_COEFFS))))
        return Ideal(ring, [Polynomial.monomial(ring, e, c) for e, c in terms])

    _assert_monomial_route_matches_the_engine(draw_ideal(0), draw_ideal(1))


@pytest.mark.parametrize("gens, by", [
    ([], ["x*y", "z^2"]),  # zero I
    (["-3"], ["x", "y^2"]),  # unit I
    (["2*x*y", "-1/2*x^2", "x^2*y", "2*x*y"], ["x", "-1/2*x"]),  # redundant and repeated
    (["x^2*y", "y^3*z", "z^2"], ["7"]),  # unit J
    (["x^3", "y^3", "z^3", "x*y*z"], ["x*y", "y*z", "x*z"]),
])
def test_monomial_ideals_skip_the_engine_on_edge_ideals(r3, gens, by):
    _assert_monomial_route_matches_the_engine(Ideal.from_strings(r3, gens),
                                              Ideal.from_strings(r3, by))


def test_monomial_results_share_one_and_the_input_exponent_tuples(r3):
    I = Ideal.from_strings(r3, ["x^2*y", "2*x*y^2", "-1/2*z^3", "x*y*z"])
    J = Ideal.from_strings(r3, ["x", "y"])
    inputs = {id(g.terms[0][0]) for g in I.generators + J.generators}
    for out in (I.groebner_basis(), colon(I, J).generators, intersect(I, J).generators):
        assert all(c is _ONE for g in out for _, c in g.terms)
    assert all(id(g.terms[0][0]) in inputs for g in I.groebner_basis())
    # x*y*z lies in (x, y): the intersection keeps the input's tuple for it
    assert id(intersect(I, J).generators[0].terms[0][0]) in inputs


def test_colon_basis_shares_one_exponent_tuple_and_one_fraction_per_value(r3):
    I = Ideal.from_strings(r3, ["x^2*y - 1/2*z^3", "x*y^2 - 1/2*z^3", "x*y*z"])
    Q = colon(I, Ideal.from_strings(r3, ["x", "y"]))
    terms = [t for g in Q.generators for t in g.terms]
    for part in (0, 1):  # exponent tuples, then coefficients
        objs = [t[part] for t in terms]
        assert len({id(o) for o in objs}) == len(set(objs)) < len(objs)


def test_operation_results_cache_their_generators_as_the_basis(r3):
    I = Ideal.from_strings(r3, ["x^2*y - 1/2*z^3", "x*y^2 - 1/2*z^3", "x*y*z"])
    J = Ideal.from_strings(r3, ["x", "y"])
    for out in (colon(I, J), intersect(I, J)):
        assert out._gb is out.generators


def test_a_fresh_ideal_builds_its_memos_with_its_reducers(r3):
    I = Ideal.from_strings(r3, ["x^2 - 1/2*y*z", "y^3"])
    assert I._reducers is None and I._nf is None and I._std is None
    I.groebner_basis()
    assert I._nf is None and I._std is None
    assert I.standard_monomials(2) and I._nf == {} and list(I._std) == [2]
    K = Ideal.from_strings(r3, ["x^2 - 1/2*y*z", "y^3"])
    K._nf_row((3, 0, 0))
    assert K._nf and K._std == {}


def _coordinates(parts, basis_index) -> list[Fraction]:
    """The vector sum_k parts[k] in the basis {(k, monomial): position}."""
    vec = [Fraction(0)] * len(basis_index)
    for k, p in enumerate(parts):
        for e, c in p.terms:
            vec[basis_index[(k, e)]] = c
    return vec


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)), data=st.data())
def test_module_syzygies_span_the_kernel_in_every_degree(name, data):
    # the rows come from the tracked representations; the oracle is the
    # degreewise kernel of the column map, by a local elimination
    ring = _RINGS[name][0]
    rng = Random(data.draw(st.integers(0, 2 ** 32)))
    shifts = [0] + data.draw(st.lists(st.integers(0, 1), max_size=1))  # component degrees
    top = max(shifts)
    col_degs = [top + d for d in data.draw(st.lists(st.integers(1, 2), min_size=2, max_size=4))]
    zero = data.draw(st.sets(st.integers(0, len(col_degs) - 1), max_size=1))
    cols = [tuple(Polynomial.zero(ring) if j in zero else random_homogeneous(ring, dj - a, rng)
                  for a in shifts)
            for j, dj in enumerate(col_degs)]
    rows = module_syzygies(cols, ring)
    key = MonomialOrder.grevlex(ring).key
    row_degs = []
    for s in rows:
        # a primitive integer row, its leading term (ties to the lower index) positive
        coeffs = [c for p in s for _, c in p.terms]
        assert all(c.denominator == 1 for c in coeffs) and gcd(*(int(c) for c in coeffs)) == 1
        assert max(((key(e), -j), c) for j, p in enumerate(s) for e, c in p.terms)[1] > 0
        for k in range(len(shifts)):
            assert sum((c * col[k] for c, col in zip(s, cols)), Polynomial.zero(ring)).is_zero()
        assert all(p.homogeneity().is_homogeneous for p in s)
        degs = {p.degree() + dj for p, dj in zip(s, col_degs) if not p.is_zero()}
        assert len(degs) == 1
        row_degs.append(degs.pop())

    def basis(degrees, d):
        pairs = [(k, m) for k, dk in enumerate(degrees) for m in monomials_of_degree(ring, d - dk)]
        return {km: t for t, km in enumerate(pairs)}

    for d in range(max(col_degs) + 3):
        source, target = basis(col_degs, d), basis(shifts, d)
        image = [_coordinates([Polynomial.monomial(ring, m) * p for p in cols[j]], target)
                 for j, m in source]
        kernel_dim = len(source) - len(_row_reduce(image))
        span = [_coordinates([Polynomial.monomial(ring, u) * p for p in s], source)
                for s, D in zip(rows, row_degs) for u in monomials_of_degree(ring, d - D)]
        assert len(_row_reduce(span)) == kernel_dim, (cols, d)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_shifted_combine_matches_axpy_of_the_reference_shift(data):
    exps = st.tuples(*[st.integers(0, 3)] * data.draw(st.integers(1, 3)))
    terms = st.tuples(st.integers(0, 1), exps)
    coeff = st.integers(-5, 5).filter(bool)
    src = data.draw(st.dictionaries(terms, coeff, max_size=6))
    target = data.draw(st.dictionaries(terms, coeff, max_size=6))
    shift, factor = data.draw(exps), data.draw(coeff)
    # make some entries of the target cancel against the shifted source
    cancel = data.draw(st.lists(st.sampled_from(sorted(src)), unique=True)) if src else []
    gone = [(comp, reference_mono_mul(e, shift)) for comp, e in cancel]
    for t, (comp, e) in zip(gone, cancel):
        target[t] = -factor * src[(comp, e)]
    expected = dict(target)
    reference_axpy_shifted(expected, factor, src, shift)
    got = dict(target)
    _axpy_shifted(got, factor, src, shift)
    assert got == expected
    assert all(got.values()) and not any(t in got for t in gone)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)), data=st.data())
def test_engine_outputs_are_canonical_polynomials(name, data):
    # the engine builds its bases and rows without the public constructor
    ring, (lo, hi) = _RINGS[name]
    rng = Random(data.draw(st.integers(0, 2 ** 32)))
    pool = data.draw(st.sampled_from([(1, -1, 2), (1, -1, 2, Fraction(1, 2), -3)]))

    def form(d):
        monos = monomials_of_degree(ring, d)
        return Polynomial(ring, {m: rng.choice(pool) for m in monos if rng.random() < 0.6}
                          or {monos[0]: 1})

    def draw_ideal(size):
        degrees = data.draw(st.lists(st.integers(lo, hi), min_size=size[0], max_size=size[1]))
        return Ideal(ring, [form(d) for d in degrees])

    def validating(*args, **kwargs):
        raise AssertionError("the validating constructor ran on an engine path")

    I, J = draw_ideal((2, 3)), draw_ideal((1, 2))
    gens = I.generators + J.generators
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "__init__", validating)
        outputs = [*I.groebner_basis(), *I.groebner_basis(MonomialOrder.elimination(ring, 1)),
                   *intersect(I, J).generators, *colon(I, J).generators]
        outputs += [p for row in syzygies(I) for p in row]
        outputs += [p for row in module_syzygies([[f, g] for f, g in zip(gens, gens[::-1])], ring)
                    for p in row]
    for p in outputs:
        assert_canonical(p)
