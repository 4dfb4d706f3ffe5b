"""Minimal graded free resolutions and Betti tables."""

import json
from fractions import Fraction
from random import Random

import pytest

from golodkit import (
    AlgebraError,
    HomogeneityError,
    Ideal,
    ImproperIdealError,
    MonomialOrder,
    Polynomial,
    betti_table,
    builtin_corpus,
    minimal_free_resolution,
    parse_polynomial,
    power,
)

from golodkit import resolution
from conftest import (
    _row_reduce,
    monomials_of_degree,
    polynomial_compose_is_zero,
    random_homogeneous,
    unit_clearing_minimize,
)


def _unit_entry(p):
    return not p.is_zero() and p.terms[0][0] == (0,) * p.ring.n


def _compose(ring, A, B):
    """Matrix product A*B over the polynomial ring (row-major)."""
    rows, mid, cols = len(A), len(B), len(B[0]) if B else 0
    zero = parse_polynomial(ring, "0")
    out = [[zero for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(mid):
            if A[i][k].is_zero():
                continue
            for j in range(cols):
                if not B[k][j].is_zero():
                    out[i][j] = out[i][j] + A[i][k] * B[k][j]
    return out


def _strand_matrix(ring, mat, src_shifts, tgt_shifts, d):
    """Dense matrix of the map in internal degree d over the monomial bases."""
    tgt_basis = []
    for r, sh in enumerate(tgt_shifts):
        for m in monomials_of_degree(ring, d - sh):
            tgt_basis.append((r, m))
    index = {key: i for i, key in enumerate(tgt_basis)}
    cols = []
    for c, sh_c in enumerate(src_shifts):
        for m in monomials_of_degree(ring, d - sh_c):
            col = [Fraction(0)] * len(tgt_basis)
            for r in range(len(tgt_shifts)):
                entry = mat[r][c]
                if entry.is_zero():
                    continue
                prod = entry * Polynomial.monomial(ring, m)
                for e, coef in prod.terms:
                    col[index[(r, e)]] = coef
            cols.append(col)
    return cols, len(tgt_basis)


def _rank(cols):
    rows = [list(r) for r in zip(*cols)] if cols else []
    if not rows:
        return 0
    return len(_row_reduce([list(c) for c in cols]))


def test_known_table_square_of_maximal(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    t = betti_table(minimal_free_resolution(I))
    assert t.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert t.total(0) == 1 and t.total(1) == 3 and t.total(2) == 2


def test_known_table_complete_intersection(r2):
    I = Ideal.from_strings(r2, ["x^2", "y^2"])
    t = betti_table(minimal_free_resolution(I))
    assert t.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def test_principal_and_zero_ideals(r2):
    t = betti_table(minimal_free_resolution(Ideal.from_strings(r2, ["x^2*y"])))
    assert t.entries == {(0, 0): 1, (1, 3): 1}
    res = minimal_free_resolution(Ideal(r2, []))
    assert res.length == 0
    assert betti_table(res).entries == {(0, 0): 1}


def test_koszul_complex_of_variables(r3):
    I = Ideal.from_strings(r3, ["x", "y", "z"])
    t = betti_table(minimal_free_resolution(I))
    assert t.entries == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1}


def test_weighted_principal_ideal(rw):
    I = Ideal.from_strings(rw, ["x^4 - y^2"])
    t = betti_table(minimal_free_resolution(I))
    assert t.entries == {(0, 0): 1, (1, 4): 1}


def test_differentials_compose_to_zero(r3):
    rng = Random(101)
    for trial in range(4):
        gens = [random_homogeneous(r3, rng.randint(2, 3), rng) for _ in range(3)]
        res = minimal_free_resolution(Ideal(r3, gens))
        for i in range(len(res.steps) - 1):
            out = _compose(r3, res.steps[i], res.steps[i + 1])
            assert all(p.is_zero() for row in out for p in row)


def test_no_unit_entries_anywhere(r3):
    rng = Random(103)
    for trial in range(4):
        gens = [random_homogeneous(r3, rng.randint(2, 3), rng) for _ in range(2)]
        res = minimal_free_resolution(Ideal(r3, gens))
        for mat in res.steps:
            for row in mat:
                for p in row:
                    assert not _unit_entry(p)


def test_exactness_degreewise_by_rank_counting(r3):
    """rank ker(phi_i)_d == rank im(phi_{i+1})_d for middle steps, all small d."""
    rng = Random(107)
    for trial in range(3):
        gens = [random_homogeneous(r3, rng.randint(2, 3), rng) for _ in range(2)]
        I = Ideal(r3, gens)
        res = minimal_free_resolution(I)
        if len(res.steps) < 2:
            continue
        dmax = max(max(s) for s in res.shifts) + 2
        for i in range(len(res.steps) - 1):
            src = res.shifts[i + 1]
            tgt = res.shifts[i]
            nxt = res.shifts[i + 2]
            for d in range(dmax + 1):
                cols, _ = _strand_matrix(r3, res.steps[i], src, tgt, d)
                ncols = len(cols)
                r1 = _rank([c for c in cols if any(c)]) if cols else 0
                nullity = ncols - r1
                cols2, _ = _strand_matrix(r3, res.steps[i + 1], nxt, src, d)
                r2 = _rank([c for c in cols2 if any(c)]) if cols2 else 0
                assert nullity == r2, (trial, i, d)


def test_resolution_invariant_under_generator_shuffle(r3):
    gens = ["x^2*y", "y^2*z", "x*z^2", "x*y*z"]
    t1 = betti_table(minimal_free_resolution(Ideal.from_strings(r3, gens)))
    t2 = betti_table(minimal_free_resolution(Ideal.from_strings(r3, gens[::-1])))
    assert t1.entries == t2.entries


def test_hilbert_function_alternating_sum(r3):
    """Graded free ranks must reproduce the quotient's Hilbert function."""
    I = Ideal.from_strings(r3, ["x*y", "y*z", "x*z"])
    res = minimal_free_resolution(I)
    for d in range(7):
        alt = 0
        for i, shifts in enumerate(res.shifts):
            for sh in shifts:
                if d - sh >= 0:
                    alt += (-1) ** i * len(monomials_of_degree(r3, d - sh))
        # quotient dimension by independent count: monomials not divisible
        # by any of xy, yz, xz are the pure powers
        expect = 3 if d >= 1 else 1
        assert alt == expect


def test_length_bounded_by_variable_count(r4):
    rng = Random(109)
    gens = [random_homogeneous(r4, 2, rng) for _ in range(3)]
    res = minimal_free_resolution(Ideal(r4, gens))
    assert res.length <= 4


def test_table_rendering_and_json(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    t = betti_table(minimal_free_resolution(I))
    s = str(t)
    assert "total:" in s and "." in s
    obj = json.loads(t.to_json())
    assert {"i": 1, "d": 2, "rank": 3} in obj


def _trim_by_membership(I):
    """Reference: keep g unless an Ideal of the kept ones contains it (one Buchberger run each)."""
    order = MonomialOrder.grevlex(I.ring)
    gens = sorted(
        I.generators,
        key=lambda g: (g.homogeneity().degree, order.key(g.terms[0][0])),
    )
    kept = []
    for g in gens:
        if kept and Ideal(I.ring, kept).contains_poly(g):
            continue
        kept.append(g)
    return kept


def test_trim_generators_matches_membership_scan(r3):
    rng = Random(37)
    cases = []
    for _ in range(8):
        base = [random_homogeneous(r3, d, rng) for d in (2, 2, 3)]
        x, y, z = r3.variables()
        # redundant generators: multiples and rational combinations of earlier ones
        extra = [x * base[0], base[0] * Fraction(1, 3) - base[1] * Fraction(2, 5),
                 (y + z) * base[1], random_homogeneous(r3, 4, rng)]
        cases.append(Ideal(r3, base + extra))
    squares = [power(e.ideal, 2) for e in builtin_corpus()
               if e.ideal.ring == r3 and not e.ideal.is_zero()]
    for A, B in zip(squares, squares[1:]):
        cases.append(Ideal(r3, [p * q for p in A.generators for q in B.generators]))
    for I in cases:
        assert I.minimal_generators() == _trim_by_membership(I)


def test_minimal_generators_need_a_homogeneous_ideal(r2):
    with pytest.raises(HomogeneityError):
        Ideal.from_strings(r2, ["x*y", "x + y^2"]).minimal_generators()


def test_minimize_checks_the_pivot_row_against_the_next_matrix(r2):
    x = r2.variables()[0]
    one, zero = parse_polynomial(r2, "1"), parse_polynomial(r2, "0")
    # the unit pivot row (1, x) composes with the next column (x, 0) to x, not 0
    mats = [[[one, x]], [[x], [zero]]]
    with pytest.raises(AlgebraError, match="exactness should clear the freed row"):
        resolution._minimize(mats, [[0], [0, 1], [1]], r2)


def test_minimize_checks_the_previous_matrix_against_the_pivot_column(r2):
    x, y = r2.variables()
    one, zero = parse_polynomial(r2, "1"), parse_polynomial(r2, "0")
    # the previous row (x, y) composes with the unit pivot column (1, 0) to x, not 0
    mats = [[[x, y]], [[one], [zero]]]
    with pytest.raises(AlgebraError, match="exactness should clear the freed column"):
        resolution._minimize(mats, [[0], [1, 1], [1]], r2)


def test_compose_is_zero_matches_the_polynomial_sum(r3):
    # B's columns are Koszul syzygies of A's first row, times a random form, so
    # one-row products cancel term by term; a perturbed entry or a second row
    # of A breaks that, and random B rarely vanishes at all
    rng = Random(5)
    zero = Polynomial.zero(r3)

    def small():
        if rng.random() < 0.1:
            return zero
        return Polynomial(r3, {tuple(rng.randint(0, 1) for _ in range(3)):
                               Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 2))
                               for _ in range(rng.randint(1, 2))})

    outcomes = {True: 0, False: 0}
    cancelled = 0
    for _ in range(300):
        inner = rng.randint(1, 3)
        A = [[small() for _ in range(inner)] for _ in range(rng.randint(1, 2))]
        if inner > 1 and rng.random() < 0.6:
            B = []
            for _ in range(rng.randint(1, 2)):
                i, j = rng.sample(range(inner), 2)
                f = small()
                col = [zero] * inner
                col[i], col[j] = A[0][j] * f, -(A[0][i] * f)
                B.append(col)
            B = [list(row) for row in zip(*B)]
            if rng.random() < 0.3:
                B[0][0] = B[0][0] + small()
        else:
            ncols = rng.randint(0, 2)
            B = [[small() for _ in range(ncols)] for _ in range(inner)]
        ours = resolution._compose_is_zero(A, B, r3)
        assert ours == polynomial_compose_is_zero(A, B, r3), (A, B)
        outcomes[ours] += 1
        cancelled += ours and any(not (A[0][t] * B[t][0]).is_zero() for t in range(inner) if B[t])
    assert min(outcomes.values()) > 100 and cancelled > 20, (outcomes, cancelled)


def test_schur_split_off_matches_unit_clearing_on_the_corpus(monkeypatch):
    """Every corpus entry in at most 3 variables and its square resolve to the
    same matrices and shifts as under the row-and-column reference."""
    ideals = [I for e in builtin_corpus() if e.ideal.ring.n <= 3
              for I in (e.ideal, power(e.ideal, 2))]
    ours = [minimal_free_resolution(I) for I in ideals]
    split_off = []

    def reference(mats, shifts, ring):
        before = sum(map(len, shifts))
        unit_clearing_minimize(mats, shifts, ring)
        split_off.append(before - sum(map(len, shifts)))

    monkeypatch.setattr(resolution, "_minimize", reference)
    for I, res in zip(ideals, ours):
        ref = minimal_free_resolution(I)
        assert res == ref
        assert repr(res) == repr(ref)
    assert len(ideals) == 36 and sum(split_off) > 0


def test_resolution_rejects_inhomogeneous_and_unit_ideals(r2):
    with pytest.raises(HomogeneityError, match="resolutions need a homogeneous ideal"):
        minimal_free_resolution(Ideal.from_strings(r2, ["x^2 + y"]))
    with pytest.raises(ImproperIdealError, match="S/I vanishes for the unit ideal"):
        minimal_free_resolution(Ideal.from_strings(r2, ["1"]))
