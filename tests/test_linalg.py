"""Exact sparse linear algebra over Q.

The package's linear algebra takes integer rows; a rational vector enters
as ``integral(vec)``, its least integer multiple and that multiple's
denominator.
"""

from fractions import Fraction
from math import gcd
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from golodkit.linalg import Span, integral, kernel_of_columns
from golodkit.ring import axpy

from conftest import _row_reduce


def _dense(vec, n):
    out = [Fraction(0)] * n
    for i, c in vec.items():
        out[i] = c
    return out


def test_tracked_span_detects_dependence():
    image, kernel = kernel_of_columns([integral(c) for c in (
        {0: Fraction(1)}, {1: Fraction(2)}, {0: Fraction(3), 1: Fraction(4)})])
    # the third vector is dependent: the kernel row is a null combination including it
    assert kernel == [{2: 1, 0: -3, 1: -2}]
    assert image.dim == 2


def test_kernel_matches_rank_nullity_random():
    rng = Random(5)
    for trial in range(25):
        ncols = rng.randint(1, 8)
        nrows = rng.randint(1, 8)
        cols = []
        for _ in range(ncols):
            col = {i: Fraction(rng.randint(-3, 3)) for i in range(nrows)
                   if rng.random() < 0.5}
            cols.append({i: c for i, c in col.items() if c})
        _, kern = kernel_of_columns([integral(col) for col in cols])
        span = Span()
        for col in cols:
            span.add(integral(col)[0])
        assert span.dim + len(kern) == ncols
        # every kernel vector really kills the columns
        for v in kern:
            acc = {}
            for j, c in v.items():
                for i, a in cols[j].items():
                    acc[i] = acc.get(i, Fraction(0)) + c * a
            assert all(x == 0 for x in acc.values())
        # kernel vectors are linearly independent
        if kern:
            rows = [_dense(v, ncols) for v in kern]
            assert len(_row_reduce(rows)) == len(kern)


def test_rank_agrees_with_dense_elimination():
    rng = Random(11)
    for trial in range(20):
        ncols = rng.randint(1, 6)
        nrows = rng.randint(1, 6)
        cols = [{i: Fraction(rng.randint(-2, 2)) for i in range(nrows)}
                for _ in range(ncols)]
        cols = [{i: c for i, c in col.items() if c} for col in cols]
        rows = [_dense(c, nrows) for c in cols]
        span = Span()
        for col in cols:
            span.add(integral(col)[0])
        assert span.dim == len(_row_reduce(rows))


def _rational_columns(rng, ncols, nrows):
    cols = []
    for _ in range(ncols):
        col = {i: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for i in range(nrows)
               if rng.random() < 0.6}
        cols.append({i: c for i, c in col.items() if c})
    if ncols >= 3:
        # a rational combination of two earlier columns, so kernels are common
        a, b = rng.sample(range(ncols - 1), 2)
        f = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        comb = dict(cols[a])
        for i, c in cols[b].items():
            comb[i] = comb.get(i, Fraction(0)) + f * c
        cols[-1] = {i: c for i, c in comb.items() if c}
    return cols


def _solve(basis_cols, target, nrows):
    """Gauss-Jordan over Fraction: x with sum x_k * basis_cols[k] == target, or None."""
    width = len(basis_cols)
    rows = [[col.get(i, Fraction(0)) for col in basis_cols] + [target.get(i, Fraction(0))]
            for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(rows[i][width] != 0 for i in range(r, nrows)):
        return None
    x = [Fraction(0)] * width
    for i, c in enumerate(pivots):
        x[c] = rows[i][width]
    return x


def _reference_kernel(cols, nrows):
    """For each column dependent on the earlier independent ones: e_j - its combination."""
    independent: list[int] = []
    out = []
    for j, col in enumerate(cols):
        x = _solve([cols[k] for k in independent], col, nrows)
        if x is None:
            independent.append(j)
            continue
        vec = {j: Fraction(1)}
        for k, c in zip(independent, x):
            if c:
                vec[k] = -c
        out.append(vec)
    return out


def test_kernel_of_rational_columns_matches_gauss_jordan():
    rng = Random(23)
    seen_dependent = 0
    for trial in range(60):
        ncols = rng.randint(1, 9)
        nrows = rng.randint(1, 7)
        cols = _rational_columns(rng, ncols, nrows)
        ref = _reference_kernel(cols, nrows)
        kern = kernel_of_columns([integral(col) for col in cols])[1]
        assert [{j: Fraction(c, v[max(v)]) for j, c in v.items()} for v in kern] == ref
        seen_dependent += len(ref)
    assert seen_dependent > 60


def test_span_and_rank_on_rational_columns_match_row_reduction():
    rng = Random(29)
    for trial in range(60):
        ncols = rng.randint(1, 9)
        nrows = rng.randint(1, 7)
        cols = _rational_columns(rng, ncols, nrows)
        span = Span()
        for j, col in enumerate(cols):
            before = len(_row_reduce([_dense(c, nrows) for c in cols[:j]]))
            after = len(_row_reduce([_dense(c, nrows) for c in cols[: j + 1]]))
            row = integral(col)[0]
            assert span.contains(row) == (after == before)
            assert span.add(row) == (after > before)
            assert span.contains(row)
            assert span.dim == after


def test_span_copy_is_independent():
    span = Span()
    span.add(integral({0: Fraction(1, 2), 1: Fraction(1, 3)})[0])
    other = span.copy()
    assert other.add(integral({1: Fraction(2, 7)})[0])
    assert span.dim == 1 and other.dim == 2
    assert not span.contains(integral({1: Fraction(1)})[0])


_entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _column_lists(draw):
    nrows = draw(st.integers(1, 5))
    cols = draw(st.lists(st.dictionaries(st.integers(0, nrows - 1), _entries), max_size=8))
    return [{i: c for i, c in col.items() if c} for col in cols]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cols=_column_lists())
def test_one_echelon_gives_the_plain_image_and_primitive_kernel_rows(cols):
    image, kernel = kernel_of_columns([integral(col) for col in cols])
    plain = Span()
    for col in cols:
        plain.add(integral(col)[0])
    assert image.pivots == plain.pivots
    for row in kernel:
        top = max(row)
        assert row[top] > 0
        assert gcd(*row.values()) == 1
        acc = {}
        for j, c in row.items():
            axpy(acc, c, cols[j])
        assert not acc
    assert image.dim + len(kernel) == len(cols)
