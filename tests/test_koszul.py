"""Koszul strand homology, products of classes, and the cycle criterion."""

import ast
import inspect
from collections import Counter
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    corpus_powers,
    fraction_trivial_multiplication_check,
    full_window_koszul_homology,
    hochster_betti,
    lcm_window_dims,
    random_homogeneous,
    subcomplex_derivative_cycle_check,
)
from golodkit import (
    AlgebraError,
    GradingSpec,
    HomogeneityError,
    Ideal,
    ImproperIdealError,
    MonomialIdeal,
    Polynomial,
    betti_table,
    builtin_corpus,
    derivative_cycle_check,
    derivative_ideal,
    golod_verdict,
    koszul_homology,
    minimal_free_resolution,
    power,
    strongly_golod,
    trivial_multiplication_check,
)
from golodkit import calculus, koszul, linalg, poincare
from golodkit.koszul import _Complex, _betti_dims, _koszul
from golodkit.linalg import Span, integral
from golodkit.ring import axpy, axpy_over, mono_lcm


def test_quotient_basis_counts(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    assert len(I.standard_monomials(0)) == 1
    assert len(I.standard_monomials(1)) == 2
    assert len(I.standard_monomials(2)) == 0
    # normal forms of standard monomials are themselves
    assert I._nf_row((1, 0)) == ({(1, 0): 1}, 1)


def test_differential_squares_to_zero(r3):
    I = Ideal.from_strings(r3, ["x*y - z^2", "y^2"])
    cx = _koszul(I)
    for l in (2, 3):
        for d in range(0, 6):
            cols = cx.differential_columns(l, d)
            mid_cols = cx.differential_columns(l - 1, d)
            for row, _ in cols:
                acc, den = {}, 1
                for j, c in row.items():
                    den = axpy_over(acc, den, c, *mid_cols[j])
                assert not acc, (l, d)


def test_homology_dimensions_match_resolution(r3):
    for texts in (["x*z", "y*z"], ["x^2", "x*y", "y^2"], ["x*y", "y*z", "x*z"]):
        I = Ideal.from_strings(r3, texts)
        bt = betti_table(minimal_free_resolution(I))
        hs = koszul_homology(I)
        assert {k: v for k, v in hs.dims.items() if v} == dict(bt.entries)


def test_strand_totals_match_total_betti(r2):
    I = Ideal.from_strings(r2, ["x^3", "x*y^2"])
    bt = betti_table(minimal_free_resolution(I))
    hs = koszul_homology(I)
    for l in range(hs.l_max + 1):
        assert hs.total(l) == bt.total(l)


def test_cycle_representatives_are_honest(r3):
    I = Ideal.from_strings(r3, ["x*z", "y*z"])
    hs = koszul_homology(I)
    cx = _koszul(I)
    for (l, d), reps in hs.cycle_reps.items():
        if l == 0 or not reps:
            continue
        _, index = cx.basis(l, d)
        cols = cx.differential_columns(l, d)
        vecs = [{index[W][m]: c for (W, m), c in rep.items()} for rep in reps]
        for v in vecs:
            # a representative is a cycle: apply the strand differential
            acc = {}
            for j, c in v.items():
                axpy(acc, c / cols[j][1], cols[j][0])
            assert not acc
        # and is independent from the boundary space
        span = Span()
        for row, _ in cx.differential_columns(l + 1, d):
            span.add(row)
        before = span.dim
        for v in vecs:
            assert span.add(integral(v)[0])
        assert span.dim == before + len(vecs)


def test_truncation_flag(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    full = koszul_homology(I)
    assert not full.truncated
    clipped = koszul_homology(I, l_max=2, d_max=2)
    assert clipped.truncated


def test_truncated_sees_homology_past_a_gap_and_none_at_the_edge(r3):
    # H_2 of (x^2, y^2) sits at degree 4, past degree 3 where no homology is;
    # (x*z, y*z) has H_2 at degree 3, the window's edge, and nothing beyond
    assert koszul_homology(Ideal.from_strings(r3, ["x^2", "y^2"]), d_max=3).truncated
    assert not koszul_homology(Ideal.from_strings(r3, ["x*z", "y*z"]), d_max=3).truncated


def test_trivial_multiplication_verdicts(r2):
    assert trivial_multiplication_check(
        Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])).verdict
    rep = trivial_multiplication_check(Ideal.from_strings(r2, ["x^2", "y^2"]))
    assert not rep.verdict
    l1, d1, i1, l2, d2, i2 = rep.failing_pair
    assert l1 >= 1 and l2 >= 1


def test_product_pair_multiplication(r3):
    # the motivating non-example has trivial multiplication even though the
    # stronger containment test fails; Golodness is not decided by pairs alone
    I = Ideal.from_strings(r3, ["x*z", "y*z"])
    assert not strongly_golod(I).verdict
    assert trivial_multiplication_check(I).verdict


def test_derivative_cycle_check(r2, r3):
    assert derivative_cycle_check(Ideal.from_strings(r2, ["x^2", "x*y", "y^2"]))
    assert derivative_cycle_check(Ideal.from_strings(r3, ["x^2*y^2"]))
    with pytest.raises(AlgebraError):
        derivative_cycle_check(Ideal.from_strings(r2, ["x^2", "y^2"]))


def test_bounds_default_to_full_range(r2):
    I = Ideal.from_strings(r2, ["x^2", "y^2"])
    hs = koszul_homology(I)
    assert hs.l_max == 2
    assert (2, 4) in hs.dims and hs.dims[(2, 4)] == 1
    assert not hs.truncated


def test_negative_bounds_are_rejected_by_every_entry_point(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    for call in (lambda: koszul_homology(I, -1, None),
                 lambda: koszul_homology(I, None, -3),
                 lambda: trivial_multiplication_check(I, d_max=-3),
                 lambda: trivial_multiplication_check(I, l_max=-1),
                 lambda: derivative_cycle_check(I, d_max=-3)):
        with pytest.raises(ValueError, match="bounds must be non-negative"):
            call()


def test_inhomogeneous_ideals_are_rejected_with_explicit_bounds(r2):
    I = Ideal.from_strings(r2, ["x^2 + y"])
    for call in (lambda: koszul_homology(I),
                 lambda: koszul_homology(I, 2, 3),
                 lambda: trivial_multiplication_check(I, 2, 3),
                 lambda: poincare.actual_poincare(I, 2, 3),
                 # the homogeneity check comes before the bounds check
                 lambda: koszul_homology(I, -1, 3)):
        with pytest.raises(HomogeneityError, match="resolutions need a homogeneous ideal"):
            call()


def test_each_koszul_strand_is_eliminated_once(r3, monkeypatch):
    strand_of = {}  # id of a strand's column list -> its (l, d)
    column_ids = set()
    entries = Counter()  # id of a differential column's row -> times it entered an elimination
    calls = []
    differential_columns = _Complex.differential_columns
    kernel_of_columns = koszul.kernel_of_columns

    def spy_columns(self, l, d):
        cols = differential_columns(self, l, d)
        strand_of[id(cols)] = (l, d)
        column_ids.update(id(row) for row, _ in cols)
        return cols

    def count(row):
        if id(row) in column_ids:
            entries[id(row)] += 1

    def spy_kernel(columns):
        calls.append(strand_of[id(columns)])
        for row, _ in columns:
            count(row)
        return kernel_of_columns(columns)

    def spy_span(method):
        def spy(self, row):
            count(row)
            return method(self, row)
        return spy

    monkeypatch.setattr(_Complex, "differential_columns", spy_columns)
    monkeypatch.setattr(koszul, "kernel_of_columns", spy_kernel)
    monkeypatch.setattr(linalg.Span, "add", spy_span(linalg.Span.add))
    monkeypatch.setattr(linalg.Span, "contains", spy_span(linalg.Span.contains))
    hs = koszul_homology(Ideal.from_strings(r3, ["x^2", "x*y", "y^2"]))
    assert hs.dims[(1, 2)] == 3
    assert calls and len(calls) == len(set(calls))
    assert entries and set(entries.values()) == {1}


def test_top_shift_is_read_below_a_loose_lcm_bound(r2):
    # in((x^2, xy, y^2)) has lcm x^2*y^2 of degree 4, the Taylor bound, but
    # the resolution 0 <- S <- S(-2)^3 <- S(-3)^2 tops out at degree 3
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    lead_lcm = (0, 0)
    for g in I.groebner_basis():
        lead_lcm = mono_lcm(lead_lcm, g.terms[0][0])
    assert lead_lcm == (2, 2)
    assert max(d for _, d in _betti_dims(_koszul(I))) == 3
    assert koszul_homology(I).d_max == 3 + 1


def test_default_koszul_window_runs_no_resolution(r3, no_resolution):
    hs = koszul_homology(Ideal.from_strings(r3, ["x*z", "y*z"]))
    assert hs.dims == {(0, 0): 1, (1, 2): 2, (2, 3): 1}


def test_koszul_and_poincare_do_not_import_resolution():
    for module in (koszul, poincare):
        imports = [node for node in ast.walk(ast.parse(inspect.getsource(module)))
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        names = [getattr(node, "module", None) or "" for node in imports]
        names += [alias.name for node in imports for alias in node.names]
        assert not any("resolution" in name for name in names), module.__name__


_RINGS = {
    "r3": (GradingSpec(("x", "y", "z"), (1, 1, 1)), (1, 3)),
    "rw": (GradingSpec(("x", "y"), (1, 2)), (2, 4)),
}


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)), data=st.data())
def test_koszul_dims_equal_betti_numbers_on_random_ideals(name, data):
    # the lcm window must see every shift: compare with an actual resolution
    ring, (lo, hi) = _RINGS[name]
    degrees = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3))
    rng = Random(data.draw(st.integers(0, 2 ** 32)))
    I = Ideal(ring, [random_homogeneous(ring, d, rng) for d in degrees])
    bt = betti_table(minimal_free_resolution(I))
    assert koszul_homology(I).dims == bt.entries


def test_betti_dims_equal_the_lcm_window_on_the_corpus_and_its_squares():
    checked = 0
    for e in builtin_corpus():
        for I in (e.ideal, power(e.ideal, 2)):
            assert _betti_dims(_koszul(I)) == lcm_window_dims(_koszul(I)), e.name
            checked += 1
    assert checked == 2 * len(builtin_corpus())


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)), data=st.data())
def test_betti_dims_equal_the_lcm_window_on_random_ideals(name, data):
    ring, (lo, hi) = _RINGS[name]
    degrees = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4))
    rng = Random(data.draw(st.integers(0, 2 ** 32)))
    I = Ideal(ring, [random_homogeneous(ring, d, rng) for d in degrees])
    assume(not all(g.is_monomial() for g in I.generators))
    assert _betti_dims(_koszul(I)) == lcm_window_dims(_koszul(I))


def test_koszul_dims_equal_hochster_betti_numbers_on_the_monomial_corpus():
    checked = 0
    for e in builtin_corpus():
        if not e.monomial or e.ideal.ring.n > 4:
            continue
        for I in (e.ideal, power(e.ideal, 2)):
            gens = list(MonomialIdeal.from_ideal(I).gens)
            assert koszul_homology(I).dims == hochster_betti(I.ring, gens), e.name
            checked += 1
    assert checked == 2 * sum(e.monomial for e in builtin_corpus())


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)),
       gens=st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                     min_size=1, max_size=4))
def test_koszul_dims_equal_hochster_betti_numbers_on_random_monomial_ideals(name, gens):
    ring, _ = _RINGS[name]
    exps = [tuple(g[:ring.n]) for g in gens if sum(g[:ring.n]) >= 1]
    if not exps:
        return
    I = Ideal(ring, [Polynomial.monomial(ring, e) for e in exps])
    assert koszul_homology(I).dims == hochster_betti(ring, exps)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)), monomial=st.booleans(),
       l_max=st.integers(0, 3), d_max=st.integers(0, 8), data=st.data())
def test_truncated_is_true_exactly_when_a_betti_number_lies_outside_the_window(
        name, monomial, l_max, d_max, data):
    ring, (lo, hi) = _RINGS[name]
    if monomial:
        exps = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * ring.n), min_size=1,
                                  max_size=4).filter(lambda gens: all(map(any, gens))))
        I = Ideal(ring, [Polynomial.monomial(ring, e) for e in exps])
        betti = hochster_betti(ring, exps)
        assert betti == betti_table(minimal_free_resolution(I)).entries
    else:
        degrees = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3))
        rng = Random(data.draw(st.integers(0, 2 ** 32)))
        I = Ideal(ring, [random_homogeneous(ring, d, rng) for d in degrees])
        betti = betti_table(minimal_free_resolution(I)).entries
    outside = any(l > l_max or d > d_max for l, d in betti)
    assert koszul_homology(I, l_max, d_max).truncated == outside
    assert trivial_multiplication_check(I, l_max, d_max).truncated == outside


@pytest.mark.parametrize("stand_in", ["first generator", "its square"])
def test_derivative_cycle_check_agrees_with_the_subcomplex_reference(stand_in, monkeypatch):
    # a smaller ideal in place of d(I) makes the check fail on most powers;
    # the exact sequence argument holds for any ideal, so both sides agree
    def smaller(I):
        g = derivative_ideal(I).minimal_generators()[0]
        return Ideal(I.ring, [g if stand_in == "first generator" else g * g])

    monkeypatch.setattr(calculus, "derivative_ideal", smaller)
    answers = []
    for name, I in corpus_powers():
        answers.append(derivative_cycle_check(I))
        assert answers[-1] == subcomplex_derivative_cycle_check(I), name
    assert False in answers


def test_derivative_cycle_check_visits_no_strand_outside_an_explicit_window(monkeypatch):
    visited = []
    homology = _Complex.homology

    def spy(self, l, d):
        visited.append((l, d))
        return homology(self, l, d)

    monkeypatch.setattr(_Complex, "homology", spy)
    for e in builtin_corpus():
        I = power(e.ideal, 2)
        visited.clear()
        answer = derivative_cycle_check(I, 1, 3)
        assert all(l <= 1 and d <= 3 for l, d in visited), e.name
        assert answer == subcomplex_derivative_cycle_check(I, 1, 3), e.name


def _outcome(check, *args):
    """check(*args), or the type and message of the ImproperIdealError it raises."""
    try:
        return check(*args)
    except ImproperIdealError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)),
       kind=st.sampled_from(["random", "random", "random", "zero", "unit"]), data=st.data())
def test_lcm_strands_and_integer_products_equal_the_full_window_references(name, kind, data):
    ring, (lo, hi) = _RINGS[name]
    if kind == "random":
        degrees = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3))
        rng = Random(data.draw(st.integers(0, 2 ** 32)))
        I = Ideal(ring, [random_homogeneous(ring, d, rng) for d in degrees])
    else:
        I = Ideal.from_strings(ring, [] if kind == "zero" else ["1"])
    top = max(d for _, d in _betti_dims(_koszul(I))) if I.is_proper() else 0
    for window in ((None, None), (0, 0), (2, 3), (ring.n, top + 3)):
        assert (_outcome(koszul_homology, I, *window)
                == _outcome(full_window_koszul_homology, I, *window)), window
        assert (_outcome(trivial_multiplication_check, I, *window)
                == _outcome(fraction_trivial_multiplication_check, I, *window)), window


def test_strands_and_products_run_on_integer_rows_over_a_non_integral_basis(r3, monkeypatch):
    I = Ideal.from_strings(r3, ["2*x^2 + y^2 - 3*z^2", "x*y + 1/2*y*z - z^2", "3*x*z - y^2"])
    want = fraction_trivial_multiplication_check(I)
    assert not want.verdict
    columns = {"koszul": [], "tor": []}
    differential_columns = _Complex.differential_columns

    def spy_columns(self, l, d):
        cols = differential_columns(self, l, d)
        columns["koszul" if () in self.shifts[0] else "tor"].extend(cols)
        return cols

    def no_fraction(*args):
        raise AssertionError("a Fraction was built in the strand layer")

    monkeypatch.setattr(_Complex, "differential_columns", spy_columns)
    monkeypatch.setattr(koszul, "Fraction", no_fraction)
    assert trivial_multiplication_check(I) == want
    assert golod_verdict(I, 3).status == poincare.NOT_GOLOD
    assert any(den > 1 for _, den in I._nf.values())
    for kind, cols in columns.items():
        assert any(den > 1 for _, den in cols), kind
        for row, den in cols:
            assert type(den) is int and den > 0
            assert all(type(c) is int for c in row.values())
