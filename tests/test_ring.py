"""Polynomial arithmetic, grading, and the parser."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golodkit import GradingSpec, ParseError, Polynomial, parse_polynomial
from golodkit.ring import axpy, mono_div, mono_lcm, mono_mul

from conftest import assert_canonical, reference_mono_div, reference_mono_lcm, reference_mono_mul


def test_grading_spec_validation():
    with pytest.raises(ValueError):
        GradingSpec((), ())
    with pytest.raises(ValueError):
        GradingSpec(("x", "x"), (1, 1))
    with pytest.raises(ValueError):
        GradingSpec(("x", "y"), (1, 0))
    with pytest.raises(ValueError):
        GradingSpec(("x",), (1, 2))


def test_inputs_must_be_exact(r2):
    # a fractional weight is an error, not truncated to an integer
    with pytest.raises(ValueError):
        GradingSpec(("x", "y"), (1, 1.5))
    with pytest.raises(ValueError):
        GradingSpec(("x", "y"), (1, Fraction(3, 2)))
    assert GradingSpec(("x", "y"), (1, 2.0)).weights == (1, 2)
    # a float coefficient is rejected rather than expanded to its binary value
    for build in (lambda: Polynomial(r2, {(1, 0): 0.1}),
                  lambda: Polynomial(r2, [((1, 0), 1), ((0, 1), 0.5)]),
                  lambda: Polynomial.constant(r2, 0.1),
                  lambda: Polynomial.monomial(r2, (0, 1), 2.0)):
        with pytest.raises(TypeError):
            build()
    assert Polynomial.monomial(r2, (0, 1), Fraction(1, 10)).terms == (((0, 1), Fraction(1, 10)),)


def test_parse_round_trip(r3):
    texts = ["x^2*y - 3*z^3", "x*y*z", "1/2*x^2 + y^2", "-x + y", "0"]
    for t in texts:
        p = parse_polynomial(r3, t)
        again = parse_polynomial(r3, str(p))
        assert p == again


def test_parse_rejects_garbage(r2):
    for bad in ["x +", "q", "x^", "2**x", "x^-1", "(x"]:
        with pytest.raises(ParseError):
            parse_polynomial(r2, bad)


# (text, message, column) as the parser reports them; "unknown variable" and
# "zero denominator" point just past the offending token, every other error at
# the first character it could not use (after whitespace)
_PARSE_ERRORS = [
    ("x +", "expected a factor at position 3", 3),
    ("--x", "expected a factor at position 1", 1),
    ("x+-y", "expected a factor at position 2", 2),
    ("3x", "unexpected 'x' at position 1 in '3x'", 1),
    ("x^2^3", "unexpected '^' at position 3 in 'x^2^3'", 3),
    ("x^", "expected an integer at position 2 in 'x^'", 2),
    ("x^-1", "expected an integer at position 2 in 'x^-1'", 2),
    ("(x", "expected a factor at position 0", 0),
    ("X", "unknown variable 'X'", 1),
    ("1/0", "zero denominator in coefficient", 3),
    ("2/", "expected an integer at position 2 in '2/'", 2),
    ("x*", "expected a factor at position 2", 2),
    ("\u00b2*x", "expected an integer at position 0 in '\u00b2*x'", 0),
    ("x\u00b2", "unexpected '\u00b2' at position 1 in 'x\u00b2'", 1),
    ("x ^ 2 ^", "unexpected '^' at position 6 in 'x ^ 2 ^'", 6),
    (" 2 / 0 ", "zero denominator in coefficient", 6),
    (" X1 ", "unknown variable 'X1'", 3),
]


@pytest.mark.parametrize("text, message, column", _PARSE_ERRORS)
def test_parse_errors_keep_their_message_and_column(r2, text, message, column):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(r2, text)
    assert (exc.value.message, exc.value.column) == (message, column)
    assert str(exc.value) == message


def test_blank_input_reports_the_column_of_its_end(r2):
    # the end of the text is no sign, so nothing is skipped past it
    for text, column in (("", 0), (" ", 1), ("  \t", 3)):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(r2, text)
        assert exc.value.message == f"expected a factor at position {column}"
        assert exc.value.column == column


def test_arithmetic_identities(r2):
    x = parse_polynomial(r2, "x")
    y = parse_polynomial(r2, "y")
    assert (x + y) * (x - y) == parse_polynomial(r2, "x^2 - y^2")
    assert (x + y) ** 2 == parse_polynomial(r2, "x^2 + 2*x*y + y^2")
    assert x - x == Polynomial(r2, {})
    assert (x * y).is_monomial()
    assert not (x + y).is_monomial()


def test_terms_sorted_grevlex_descending(r2):
    p = parse_polynomial(r2, "y^2 + x*y + x^2 + x + 1")
    degs = [r2.weighted_degree(e) for e, _ in p.terms]
    assert degs == sorted(degs, reverse=True)
    # within degree 2, grevlex puts x^2 before x*y before y^2
    assert [e for e, _ in p.terms[:3]] == [(2, 0), (1, 1), (0, 2)]


def test_weighted_homogeneity(rw):
    # y has weight 2, so x^4 - y^2 is homogeneous of degree 4
    p = parse_polynomial(rw, "x^4 - y^2")
    rep = p.homogeneity()
    assert rep.is_homogeneous and rep.degree == 4
    q = parse_polynomial(rw, "x + y")
    assert not q.homogeneity().is_homogeneous


def test_partial_derivatives(r2):
    p = parse_polynomial(r2, "x^3*y^2 + 2*x*y")
    assert p.partial(0) == parse_polynomial(r2, "3*x^2*y^2 + 2*y")
    assert p.partial(1) == parse_polynomial(r2, "2*x^3*y + 2*x")
    assert parse_polynomial(r2, "y^2").partial(0).is_zero()


def test_coefficients_stay_exact(r2):
    p = parse_polynomial(r2, "1/3*x + 1/6*y")
    q = p + p
    coeffs = dict(q.terms)
    assert coeffs[(1, 0)] == Fraction(2, 3)
    assert coeffs[(0, 1)] == Fraction(1, 3)


def test_string_form_is_canonical(r3):
    a = parse_polynomial(r3, "z*y + x^2")
    b = parse_polynomial(r3, "x^2 + y*z")
    assert str(a) == str(b)


def test_axpy_deletes_cancelled_entries():
    target = {"a": Fraction(1), "b": Fraction(2)}
    axpy(target, Fraction(-1, 2), {"b": 4, "c": 2})
    assert target == {"a": 1, "c": -1}
    assert "b" not in target
    # a zero result for a key that was absent leaves no entry either
    axpy(target, 0, {"d": 5})
    assert "d" not in target


def test_axpy_maps_keys_through_index():
    target = {0: Fraction(1)}
    axpy(target, 3, {("w", 1): Fraction(1, 3), ("w", 2): 1}, {("w", 1): 0, ("w", 2): 5})
    assert target == {0: 2, 5: 3}
    axpy(target, -1, {"p": 2}, {"p": 0})
    assert target == {5: 3}


def test_axpy_mixes_int_and_fraction_values():
    target = {1: 2}
    axpy(target, Fraction(1, 2), {1: 1, 2: Fraction(2, 3)})
    assert target == {1: Fraction(5, 2), 2: Fraction(1, 3)}
    axpy(target, 2, {1: Fraction(-5, 4), 2: 1})
    assert target == {2: Fraction(7, 3)}
    assert isinstance(target[2], Fraction)


_RINGS = {
    "r3": GradingSpec(("x", "y", "z"), (1, 1, 1)),
    "rw": GradingSpec(("x", "y"), (1, 2)),
}


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)), data=st.data())
def test_arithmetic_results_are_canonical(name, data):
    # arithmetic builds its results without the public constructor's checks;
    # q repeats some of p's terms negated, so sums and differences cancel
    ring = _RINGS[name]
    exps = st.tuples(*[st.integers(0, 2)] * ring.n)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = st.lists(st.tuples(exps, coeff), max_size=5)
    p = Polynomial(ring, data.draw(terms))
    flip = data.draw(st.lists(st.booleans(), min_size=len(p.terms), max_size=len(p.terms)))
    q = Polynomial(ring, [(e, -c) for (e, c), f in zip(p.terms, flip) if f] + data.draw(terms))
    scalar = data.draw(st.sampled_from([0, 3, Fraction(-2, 3)]))
    results = {
        "p + q": p + q, "p - q": p - q, "p - -q": p - -q, "-p": -p, "p * q": p * q,
        "(p + q) * (p - q)": (p + q) * (p - q), "p * c": p * scalar, "c * p": scalar * p,
        "p ** k": p ** data.draw(st.integers(0, 3)),
    }
    results.update({f"d{i} p": p.partial(i) for i in range(ring.n)})
    for result in results.values():
        assert_canonical(result)
    # the values agree with the validating constructor's merge
    assert p + q == Polynomial(ring, p.terms + q.terms)
    assert p - q == Polynomial(ring, p.terms + tuple((e, -c) for e, c in q.terms))
    assert p - -q == p + q
    assert (p * scalar).is_zero() == (scalar == 0 or p.is_zero())


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_monomial_helpers_match_the_references(data):
    exps = st.tuples(*[st.integers(0, 4)] * data.draw(st.integers(1, 4)))
    a, b = data.draw(exps), data.draw(exps)
    assert mono_mul(a, b) == reference_mono_mul(a, b)
    assert mono_lcm(a, b) == reference_mono_lcm(a, b)
    # the last pair always divides, the first two often do not
    for num, den in ((a, b), (b, a), (mono_mul(a, b), b)):
        try:
            expected = reference_mono_div(num, den)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                mono_div(num, den)
            assert str(raised.value) == str(err)
        else:
            assert mono_div(num, den) == expected


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)), data=st.data())
def test_parse_reads_back_the_printed_form(name, data):
    ring = _RINGS[name]
    exps = st.tuples(*[st.integers(0, 3)] * ring.n)
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=60)
    p = Polynomial(ring, data.draw(st.lists(st.tuples(exps, coeff), max_size=6)))
    q = parse_polynomial(ring, str(p))
    assert q == p
    assert all(type(c) is Fraction for _, c in q.terms)
