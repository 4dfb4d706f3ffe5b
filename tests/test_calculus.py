"""Derivative ideals, the strongly Golod predicate, and ideal power calculus."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golodkit import (
    AlgebraError,
    ContainmentError,
    GradingSpec,
    HomogeneityError,
    Ideal,
    ImproperIdealError,
    MonomialIdeal,
    Polynomial,
    SymbolicPowerSpec,
    add_prime_power,
    builtin_corpus,
    check_colon_condition,
    contains,
    derivative_ideal,
    intersect,
    maximal_ideal,
    parse_polynomial,
    power,
    sandwich_check,
    saturated_power,
    strongly_golod,
    strongly_golod_monomial,
    symbolic_power,
    zariski_nagata_membership,
)
from golodkit import calculus
from golodkit.calculus import StronglyGolodReport, colon, saturate
from golodkit.groebner import _engine_colon
from golodkit.monomial import (
    cycle_graph,
    squarefree_symbolic_power,
    vertex_cover_ideal,
)

from conftest import (
    assert_canonical,
    corpus_powers,
    full_pair_scan,
    monomials_of_degree,
    oracle_member,
    oracle_pair_scan,
    random_homogeneous,
    reference_colon,
    reference_saturate,
)


def test_derivative_ideal_of_product_pair(r3):
    I = Ideal.from_strings(r3, ["x*z", "y*z"])
    assert derivative_ideal(I) == Ideal.from_strings(r3, ["x", "y", "z"])


def test_derivative_ideal_independent_of_generators(r2):
    a = Ideal.from_strings(r2, ["x^2", "x*y"])
    b = Ideal.from_strings(r2, ["x^2 + x*y", "x*y", "x^2 - 3*x*y"])
    assert a == b
    assert derivative_ideal(a) == derivative_ideal(b)


def test_euler_containment_on_corpus():
    for e in builtin_corpus():
        if e.ideal.is_zero():
            continue
        assert contains(derivative_ideal(e.ideal), e.ideal), e.name


def test_strongly_golod_counterexample_witness(r3):
    I = Ideal.from_strings(r3, ["x*z", "y*z"])
    rep = strongly_golod(I)
    assert not rep.verdict
    w = rep.witness
    assert str(w.remainder) == "z^2"
    # the witness product really fails membership
    assert not I.contains_poly(w.left * w.right)
    assert I.normal_form(w.left * w.right).remainder == w.remainder


@pytest.mark.parametrize(
    "gens, left, right, remainder",
    [
        (["x^2+y^2+z^2", "x*y"], "2*x", "2*x", "-4*y^2 - 4*z^2"),
        (["x^2*y+y*z^2+z^3", "x*z^2-y^3"], "2*x*y", "2*x*y", "-4*y^2*z^2 - 4*y*z^3"),
        # redundant derivative lists: the witness is the full list's first failing pair
        # derivative list (z, x, y, 2*z, 2*x + y); the minimal set is (z, y, x)
        (["x*z", "y*z", "2*x*z + y*z"], "z", "z", "z^2"),
        # derivative list (y, x, z, 2*y + z, 2*x); the minimal set fails first at z^2
        (["x*y", "x*z", "2*x*y + x*z"], "y", "y", "y^2"),
    ],
)
def test_strongly_golod_multi_term_witnesses(r3, gens, left, right, remainder):
    I = Ideal.from_strings(r3, gens)
    rep = strongly_golod(I)
    w = rep.witness
    assert (str(w.left), str(w.right), str(w.remainder)) == (left, right, remainder)
    assert I.normal_form(w.left * w.right).remainder == w.remainder
    assert rep == full_pair_scan(I)


def _is_primitive_row_of(row, g) -> bool:
    """Whether row is g scaled to coprime integers."""
    lead, lc = g.terms[0]
    scaled = g * (Fraction(row.get(lead, 0)) / lc)
    return (all(isinstance(c, int) for c in row.values()) and gcd(*row.values()) == 1
            and scaled == Polynomial(g.ring, {e: Fraction(c) for e, c in row.items()}))


def test_strongly_golod_scans_the_full_list_only_on_failure(r3, monkeypatch):
    calls = []
    scan = calculus._escaping_pair

    def counted(I, rows):
        calls.append(list(rows))
        return scan(I, rows)

    monkeypatch.setattr(calculus, "_escaping_pair", counted)
    # a passing ideal scans a minimal generating set of the basis's partials once;
    # its size is the minimal number of generators of d(I), an invariant
    I = power(Ideal.from_strings(r3, ["x*y + z^2", "x*z"]), 2)
    t = len(derivative_ideal(Ideal(r3, I.groebner_basis())).minimal_generators())
    assert t < len(derivative_ideal(I).generators)
    partials = []
    partial = Polynomial.partial
    monkeypatch.setattr(Polynomial, "partial", lambda p, i: partials.append(i) or partial(p, i))
    assert strongly_golod(I).verdict
    assert [len(rows) for rows in calls] == [t]
    assert partials == []  # no derivative is built as a Polynomial
    monkeypatch.setattr(Polynomial, "partial", partial)
    # a failing one scans the full derivative list of its generators, as rows
    calls.clear()
    J = Ideal.from_strings(r3, ["x^2+y^2+z^2", "x*y"])
    assert not strongly_golod(J).verdict
    D = derivative_ideal(J).generators
    assert len(calls) == 2 and len(calls[1]) == len(D)
    assert all(_is_primitive_row_of(row, g) for row, g in zip(calls[1], D))
    # a monomial ideal is decided by the quotient scan, and only a failure
    # scans the derivative list, for the witness
    calls.clear()
    J = Ideal.from_strings(r3, ["x*z", "y*z", "2*x*z + y*z"])
    assert not strongly_golod(J).verdict
    D = derivative_ideal(J).generators
    assert len(calls) == 1 and len(calls[0]) == len(D)
    assert all(_is_primitive_row_of(row, g) for row, g in zip(calls[0], D))
    calls.clear()
    assert strongly_golod(power(Ideal.from_strings(r3, ["x*z", "2*y*z"]), 2)).verdict
    assert calls == []
    K = Ideal.from_strings(r3, ["x*z", "2*y*z", "-1/2*x*y*z"])
    assert not strongly_golod(K).verdict
    D = derivative_ideal(K).generators
    assert len(calls) == 1 and len(calls[0]) == len(D)
    assert all(_is_primitive_row_of(row, g) for row, g in zip(calls[0], D))


@pytest.mark.parametrize("gens", [
    ["x^2 + x*y", "x*y"],
    ["x^2 + x*y", "x*y", "y*z - z^2", "z^2"],
])
def test_strongly_golod_takes_the_monomial_route_by_reduced_basis(r3, monkeypatch, gens):
    # generators that are not monomials, with a monomial reduced basis
    I = Ideal.from_strings(r3, gens)
    assert not all(g.is_monomial() for g in I.generators)
    assert all(g.is_monomial() for g in I.groebner_basis())
    rep = strongly_golod(I)
    assert not rep.verdict
    w = rep.witness
    assert (str(w.left), str(w.right), str(w.remainder)) == ("2*x + y", "2*x + y", "y^2")
    assert rep == full_pair_scan(I)
    # its square passes on the monomial route, with no derivative scan
    calls = []
    monkeypatch.setattr(calculus, "_escaping_pair", lambda *args: calls.append(args))
    assert strongly_golod(power(I, 2)).verdict
    assert calls == []


_RINGS = {
    "r3": GradingSpec(("x", "y", "z"), (1, 1, 1)),
    "rw": GradingSpec(("x", "y"), (1, 2)),
}
_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)]


@st.composite
def _redundant_ideals(draw):
    """A homogeneous ideal, or the square of its first two generators, plus
    scalar multiples, monomial multiples and rational combinations of
    earlier generators."""
    ring = _RINGS[draw(st.sampled_from(sorted(_RINGS)))]

    def form(d):
        monos = draw(st.lists(st.sampled_from(monomials_of_degree(ring, d)),
                              min_size=1, max_size=3, unique=True))
        return Polynomial(ring, {m: draw(st.sampled_from(_POOL)) for m in monos})

    gens = [form(draw(st.integers(2, 3))) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        gens = [f * g for k, f in enumerate(gens[:2]) for g in gens[k:2]]
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from(gens))
        kind = draw(st.sampled_from(["scalar", "monomial", "combination"]))
        if kind == "scalar":
            gens.append(g * draw(st.sampled_from(_POOL)))
        elif kind == "monomial":
            m = draw(st.sampled_from(monomials_of_degree(ring, draw(st.integers(1, 2)))))
            gens.append(g * Polynomial.monomial(ring, m))
        else:
            d = g.homogeneity().degree
            h = draw(st.sampled_from([f for f in gens if f.homogeneity().degree == d]))
            gens.append(g * draw(st.sampled_from(_POOL)) + h * draw(st.sampled_from(_POOL)))
    return Ideal(ring, gens)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(I=_redundant_ideals())
def test_strongly_golod_matches_the_full_pair_scan(I):
    assert strongly_golod(I) == full_pair_scan(I)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(I=_redundant_ideals())
def test_strongly_golod_verdict_does_not_depend_on_the_generating_set(I):
    B = Ideal(I.ring, I.groebner_basis())
    rep = strongly_golod(B)
    assert rep == full_pair_scan(B)
    assert rep.verdict == strongly_golod(I).verdict


def _non_integral(I: Ideal) -> bool:
    return any(c.denominator != 1 for g in I.groebner_basis() for _, c in g.terms)


def _assert_matches_the_degreewise_oracle(I: Ideal):
    rep = strongly_golod(I)
    assert rep == oracle_pair_scan(I)
    if not rep.verdict:
        w = rep.witness
        assert not oracle_member(I, w.left * w.right)
        assert oracle_member(I, w.left * w.right - w.remainder)


_SQUARES = {e.name: power(e.ideal, 2) for e in builtin_corpus() if not e.ideal.is_zero()}


@pytest.mark.parametrize("name", sorted(_SQUARES))
def test_strongly_golod_matches_the_degreewise_oracle_on_corpus_squares(name):
    _assert_matches_the_degreewise_oracle(_SQUARES[name])


@pytest.mark.parametrize("a, b, op", [
    ("seeded-poly-1", "seeded-poly-4", "product"),
    ("seeded-poly-4", "triangle-cover", "intersect"),
    ("seeded-poly-4", "triangle-cover", "product"),
])
def test_strongly_golod_matches_the_degreewise_oracle_over_non_integral_bases(a, b, op):
    # as in the benchmark's predicate items: strongly Golod, with a reduced
    # basis that has non-integral coefficients
    A, B = _SQUARES[a], _SQUARES[b]
    if op == "intersect":
        C = intersect(A, B)
    else:
        C = Ideal(A.ring, [p * q for p in A.generators for q in B.generators])
    assert _non_integral(C)
    _assert_matches_the_degreewise_oracle(C)


def _dense_quadrics(seed: int) -> Ideal:
    """Two or three quadrics in x, y, z with 2-4 terms and coefficients from
    _POOL, drawn from Random(seed); for odd seeds, the square of their ideal."""
    ring = _RINGS["r3"]
    rng = Random(seed)
    monos = monomials_of_degree(ring, 2)
    gens = [Polynomial(ring, {m: rng.choice(_POOL) for m in rng.sample(monos, rng.randint(2, 4))})
            for _ in range(rng.randint(2, 3))]
    return power(Ideal(ring, gens), 2) if seed % 2 else Ideal(ring, gens)


def test_strongly_golod_matches_the_degreewise_oracle_on_dense_quadrics():
    verdicts = []
    for seed in range(30):
        I = _dense_quadrics(seed)
        if _non_integral(I):
            _assert_matches_the_degreewise_oracle(I)
            verdicts.append(strongly_golod(I).verdict)
    # most draws have a non-integral reduced basis, both verdicts occur
    assert len(verdicts) >= 20 and any(verdicts) and not all(verdicts)


def test_strongly_golod_positive_cases(r2, r3):
    assert strongly_golod(Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])).verdict
    assert strongly_golod(Ideal.from_strings(r2, ["x^2*y^2"])).verdict
    assert strongly_golod(Ideal.from_strings(r3, ["x*y^2", "y^4"])).verdict


def test_strongly_golod_negative_cases(r2):
    assert not strongly_golod(Ideal.from_strings(r2, ["x^2", "y^2"])).verdict
    assert not strongly_golod(Ideal.from_strings(r2, ["x"])).verdict
    # radical variable ideals can never pass: constants land in the derivative
    assert not strongly_golod(Ideal.from_strings(r2, ["x", "y"])).verdict


def test_zero_and_unit_ideals(r2):
    assert strongly_golod(Ideal(r2, [])).verdict
    with pytest.raises(ImproperIdealError):
        strongly_golod(Ideal.from_strings(r2, ["1"]))
    with pytest.raises(ImproperIdealError):
        derivative_ideal(Ideal.from_strings(r2, ["x - x + 2"]))


def test_strongly_golod_requires_homogeneous(r2):
    with pytest.raises(HomogeneityError):
        strongly_golod(Ideal.from_strings(r2, ["x + y^2"]))


def _assert_monomial_predicate_matches_the_full_pair_scan(I: Ideal):
    # strongly_golod takes the monomial route; full_pair_scan reduces every
    # product of the full derivative list by the normal-form memo
    rep = strongly_golod(I)
    assert rep == full_pair_scan(I)
    assert rep.verdict == strongly_golod_monomial(MonomialIdeal.from_ideal(I)).verdict


def test_monomial_predicate_agrees_with_general_one():
    ideals = [(e.name, e.ideal) for e in builtin_corpus()] + corpus_powers()
    checked = 0
    for name, I in ideals:
        if all(g.is_monomial() for g in I.generators) and I.is_proper():
            _assert_monomial_predicate_matches_the_full_pair_scan(I)
            checked += 1
    assert checked > 30


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(["r3", "r4"]), data=st.data())
def test_monomial_predicate_matches_the_full_pair_scan_on_random_ideals(name, data):
    ring = {"r3": GradingSpec(("x", "y", "z"), (1, 1, 1)),
            "r4": GradingSpec(("x", "y", "z", "w"), (1, 1, 1, 1))}[name]
    exps = st.tuples(*[st.integers(0, 3)] * ring.n).filter(any)
    gens = data.draw(st.lists(st.tuples(exps, st.sampled_from(_POOL)), min_size=1, max_size=4))
    I = Ideal(ring, [Polynomial.monomial(ring, e, c) for e, c in gens])
    if data.draw(st.booleans()):
        I = power(I, 2)  # strongly Golod, so the pass side is drawn too
    _assert_monomial_predicate_matches_the_full_pair_scan(I)


def test_power_matches_monomial_power(r3):
    I = Ideal.from_strings(r3, ["x*y", "y*z", "x*z"])
    mi = MonomialIdeal.from_ideal(I)
    for k in (2, 3):
        assert power(I, k) == mi.power(k).to_ideal()
    with pytest.raises(ValueError):
        power(I, 0)


def test_saturated_power_monomial_and_groebner_paths_agree(r3):
    I = Ideal.from_strings(r3, ["x*y", "y*z", "x*z"])
    fast = saturated_power(I, 2)
    # the reference saturates by colons read off syzygies and eliminations
    slow, exponent = reference_saturate(power(I, 2), maximal_ideal(r3))
    assert fast.ideal == slow
    assert fast.exponent == exponent


def test_symbolic_power_of_triangle_cover():
    J = vertex_cover_ideal(cycle_graph(3))
    Jp = J.to_ideal()
    sat = saturated_power(Jp, 2)
    sym = squarefree_symbolic_power(J, 2)
    assert sat.ideal == sym.to_ideal()
    ring = J.ring
    expected = J.power(2).sum(MonomialIdeal(ring, [(1, 1, 1)]))
    assert sym == expected


def test_symbolic_power_modes(r3):
    I = Ideal.from_strings(r3, ["x*y", "y*z", "x*z"])
    via_sat = symbolic_power(I, SymbolicPowerSpec(2, "saturated"))
    via_user = symbolic_power(I, SymbolicPowerSpec(2, "user", maximal_ideal(r3)))
    via_sf = symbolic_power(I, SymbolicPowerSpec(2, "squarefree"))
    assert via_sat.ideal == via_user.ideal == via_sf.ideal
    with pytest.raises(ValueError):
        SymbolicPowerSpec(2, "user")
    with pytest.raises(ValueError):
        SymbolicPowerSpec(0, "saturated")
    with pytest.raises(ValueError):
        SymbolicPowerSpec(2, "nonsense")


def test_colon_condition_examples(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y"])
    J = Ideal.from_strings(r2, ["x", "y"])
    assert check_colon_condition(I, J)
    K = Ideal.from_strings(r2, ["x*y^2", "y^4"])
    assert check_colon_condition(K, Ideal.from_strings(r2, ["x"]))
    assert not check_colon_condition(K, Ideal.from_strings(r2, ["x", "y"]))


def test_colon_closure_nontrivial(r2):
    I = Ideal.from_strings(r2, ["x*y^2", "y^4"])
    J = Ideal.from_strings(r2, ["x"])
    assert strongly_golod(I).verdict
    assert check_colon_condition(I, J)
    Q = colon(I, J)
    assert Q == Ideal.from_strings(r2, ["y^2"])
    assert strongly_golod(Q).verdict


# rings and degree ranges of the random homogeneous ideals coloned by m
_SOCLE_RINGS = {
    "r2": (GradingSpec(("x", "y"), (1, 1)), (2, 4)),
    "r3": (GradingSpec(("x", "y", "z"), (1, 1, 1)), (2, 3)),
    "rw": (GradingSpec(("x", "y"), (1, 2)), (2, 5)),
    "r4": (GradingSpec(("x", "y", "z", "w"), (1, 1, 1, 1)), (2, 2)),
}


def _validating(*args, **kwargs):
    raise AssertionError("the validating constructor ran on the socle route")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_SOCLE_RINGS)), data=st.data())
def test_colon_by_the_maximal_ideal_matches_the_engine_and_the_references(name, data):
    # up to n + 1 generators, so many of the ideals are m-primary and have a socle
    ring, (lo, hi) = _SOCLE_RINGS[name]
    rng = Random(data.draw(st.integers(0, 2 ** 32)))
    degrees = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=ring.n + 1))
    I = Ideal(ring, [random_homogeneous(ring, d, rng) for d in degrees])
    m = maximal_ideal(ring)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polynomial, "__init__", _validating)
        Q = colon(I, m)
    for g in Q.generators:
        assert_canonical(g)
    assert Q.generators == _engine_colon(I, m).generators == reference_colon(I, m).generators
    res = saturate(I, m)
    ideal, exponent = reference_saturate(I, m)
    assert (res.ideal.generators, res.exponent) == (ideal.generators, exponent)


def _m(ring: GradingSpec) -> Ideal:
    """The maximal ideal presented as (x + y, y, ..., x): its reduced basis is the
    variables, though no generator list of it is monomial."""
    x, y, *rest = ring.variables()
    return Ideal(ring, [x + y, y, *rest, x])


def test_colon_by_the_maximal_ideal_on_edge_ideals(r2, r3, rw, monkeypatch):
    zero, unit = Ideal(r3, []), Ideal.from_strings(r3, ["1"])
    for m in (maximal_ideal(r3), _m(r3)):
        assert colon(zero, m).is_zero()
        assert colon(unit, m) == unit
        assert colon(_m(r3), m) == unit
    I = Ideal.from_strings(r3, ["x^2 + y*z", "x*y", "y^2 - z^2"])
    assert colon(I, _m(r3)).generators == colon(I, maximal_ideal(r3)).generators
    # the inhomogeneous ideal stays on the engine route
    inhomogeneous = Ideal.from_strings(r2, ["x^2 + y", "x*y"])
    Q = colon(inhomogeneous, maximal_ideal(r2))
    assert Q.generators == Ideal.from_strings(r2, ["y", "x^2"]).generators
    assert Q.generators == reference_colon(inhomogeneous, maximal_ideal(r2)).generators
    # in weights (1, 2), x*x^3*y and y*x^3*y lie in I, and x^3*y does not
    W = Ideal.from_strings(rw, ["x^4 + x^2*y", "x*y^2"])
    gained = Ideal.from_strings(rw, ["x^4 + x^2*y", "x*y^2", "x^3*y"])
    assert colon(W, maximal_ideal(rw)).generators == gained.groebner_basis()
    assert gained.groebner_basis()[-1] == Polynomial.monomial(rw, (3, 1))

    def no_engine(*args):
        raise AssertionError("a colon by m ran the engine")

    monkeypatch.setattr(calculus, "_engine_colon", no_engine)
    for J in (maximal_ideal(r3), _m(r3)):
        assert colon(I, J).generators == reference_colon(I, J).generators
    assert colon(_m(r3), _m(r3)) == unit
    assert colon(W, maximal_ideal(rw)).generators == gained.groebner_basis()
    with pytest.raises(AssertionError, match="ran the engine"):
        colon(inhomogeneous, maximal_ideal(r2))


def test_colon_by_the_maximal_ideal_leaves_no_memo_behind(r3):
    # the strands are built on a scratch copy: a memo kept on the argument
    # or the result would stay alive with every ideal a caller holds
    def memos(ideal):
        return ideal._reducers, ideal._nf, ideal._std

    gens = ["x^2 + y*z", "x*y", "y^2 - z^2"]
    I = Ideal.from_strings(r3, gens)
    Q = colon(I, maximal_ideal(r3))
    assert len(Q.generators) > len(I.groebner_basis())  # a nonzero socle was read
    assert memos(I) == memos(Q) == (None, None, None)
    I = Ideal.from_strings(r3, gens)
    res = saturate(I, maximal_ideal(r3))
    assert res.exponent > 1
    assert memos(I) == memos(res.ideal) == (None, None, None)


def test_add_prime_power_positive(r3):
    I = Ideal.from_strings(r3, ["x^2", "x*y", "y^2"])
    P = maximal_ideal(r3)
    out = add_prime_power(I, P, 3)
    assert strongly_golod(out).verdict
    assert contains(out, I)
    with pytest.raises(ValueError):
        add_prime_power(I, P, 1)


def test_add_prime_power_guards(r3):
    I = Ideal.from_strings(r3, ["x^2", "x*y", "y^2"])
    # P must contain I
    with pytest.raises(ContainmentError):
        add_prime_power(I, Ideal.from_strings(r3, ["z"]), 2)
    # non-prime P caught via the derivative containment hook
    with pytest.raises(ContainmentError):
        add_prime_power(I, I, 2)


def test_zariski_nagata_membership(r2):
    P = Ideal.from_strings(r2, ["x"])
    assert zariski_nagata_membership(parse_polynomial(r2, "x^2*y"), P, 2)
    assert not zariski_nagata_membership(parse_polynomial(r2, "x"), P, 2)
    assert zariski_nagata_membership(parse_polynomial(r2, "x^3"), P, 3)
    assert not zariski_nagata_membership(parse_polynomial(r2, "x^2"), P, 3)
    # order one is plain membership
    assert zariski_nagata_membership(parse_polynomial(r2, "x*y^5"), P, 1)
    assert not zariski_nagata_membership(parse_polynomial(r2, "y"), P, 1)


def test_sandwich_check_on_pentagon_cover():
    J5 = vertex_cover_ideal(cycle_graph(5))
    I = J5.to_ideal()
    sym2 = squarefree_symbolic_power(J5, 2).to_ideal()
    sym1 = squarefree_symbolic_power(J5, 1).to_ideal()
    I2 = power(I, 2)
    rep = sandwich_check(I, I2, 2, sym2, sym1)
    assert rep.hypothesis_holds and rep.verdict
    rep2 = sandwich_check(I, sym2, 2, sym2, sym1)
    assert rep2.verdict
    # an ideal outside the sandwich yields a negative verdict
    big = Ideal(I.ring, list(I.generators))
    rep3 = sandwich_check(I, big, 2, sym2, sym1)
    assert not rep3.verdict


def test_sandwich_check_raises_when_the_forced_verdict_fails(r2, monkeypatch):
    I = Ideal.from_strings(r2, ["x"])
    J = Ideal.from_strings(r2, ["x^2"])
    assert sandwich_check(I, J, 2, J, I) == calculus.SandwichReport(True, True)
    monkeypatch.setattr(calculus, "strongly_golod", lambda K: StronglyGolodReport(False))
    with pytest.raises(AlgebraError, match="despite the hypothesis"):
        sandwich_check(I, J, 2, J, I)


def test_corpus_shape_and_determinism():
    corpus = builtin_corpus()
    again = builtin_corpus()
    assert [e.name for e in corpus] == [e.name for e in again]
    for e, f in zip(corpus, again):
        assert e.ideal == f.ideal
    sweep = [e for e in corpus if e.closure_sweep]
    assert len(sweep) >= 20
    names = [e.name for e in corpus]
    assert len(set(names)) == len(names)
    for e in corpus:
        n = e.ideal.ring.n
        assert 2 <= n <= 4
        assert e.ideal.is_homogeneous
        for g in e.ideal.generators:
            assert g.homogeneity().degree <= 4
        if e.closure_sweep:
            assert e.ideal.is_proper() and not e.ideal.is_zero()


def test_intersection_of_strongly_golod_squares(r3):
    A = power(Ideal.from_strings(r3, ["x*y", "y*z"]), 2)
    B = power(Ideal.from_strings(r3, ["x*z", "y^2"]), 2)
    assert strongly_golod(A).verdict and strongly_golod(B).verdict
    assert strongly_golod(intersect(A, B)).verdict


def test_products_of_strongly_golod_ideals_stay_strongly_golod(r3):
    pairs = [
        (["x^2", "x*y", "y^2"], ["x^2", "x*y", "y^2"]),
        (["x^2", "x*y", "y^2"], ["x*y^2", "y^4"]),
        (["x^2*y^2"], ["z^4"]),
    ]
    for a, b in pairs:
        A = Ideal.from_strings(r3, a)
        B = Ideal.from_strings(r3, b)
        assert strongly_golod(A).verdict and strongly_golod(B).verdict
        prod = Ideal(r3, [p * q for p in A.generators for q in B.generators])
        assert strongly_golod(prod).verdict, (a, b)
    # without the hypothesis the product can fail: (x,y)(y,z) keeps x^2 out
    A = Ideal.from_strings(r3, ["x", "y"])
    B = Ideal.from_strings(r3, ["y", "z"])
    prod = Ideal(r3, [p * q for p in A.generators for q in B.generators])
    assert not strongly_golod(prod).verdict
