"""Serre-type bound, actual Poincare series, and the final verdict."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_window_series, random_homogeneous, reference_tor_series
from golodkit import (
    AlgebraError,
    GradingSpec,
    Ideal,
    ImproperIdealError,
    actual_poincare,
    builtin_corpus,
    golod_verdict,
    serre_bound_series,
)
from golodkit import koszul, poincare, resolution
from golodkit.poincare import (
    GOLOD,
    INCONCLUSIVE,
    NOT_GOLOD,
    BigradedSeries,
    _geometric_inverse,
    _support_caps,
    _tor_series,
)


def test_flagship_square_of_maximal(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    v = golod_verdict(I)
    assert v.status == GOLOD
    assert v.first_discrepancy is None
    totals = v.bound.totals()
    assert [totals[i] for i in range(5)] == [1, 2, 4, 8, 16]
    # bigraded equality, not only totals
    assert v.bound.coefficients == v.actual.coefficients
    # the diagonal carries everything: entry (i, i) is 2^i
    for i in range(5):
        assert v.actual.coefficient(i, i) == 2 ** i


def test_non_golod_control(r2):
    I = Ideal.from_strings(r2, ["x^2", "y^2"])
    v = golod_verdict(I)
    assert v.status == NOT_GOLOD
    assert v.first_discrepancy == (3, 4, 1, 0)
    assert v.bound.totals()[3] == 5
    assert v.actual.totals()[3] == 4


def test_hypersurface_is_golod():
    r1 = GradingSpec(("x",), (1,))
    for power, shifts in ((2, [0, 1, 2, 3, 4]), (3, [0, 1, 3, 4, 6])):
        I = Ideal.from_strings(r1, [f"x^{power}"])
        v = golod_verdict(I)
        assert v.status == GOLOD, power
        for i, d in enumerate(shifts):
            assert v.actual.coefficient(i, d) == 1
        assert sum(v.actual.coefficients.values()) == 5


def test_polynomial_ring_attains_binomials(r3):
    v = golod_verdict(Ideal(r3, []))
    assert v.status == GOLOD
    for i in range(5):
        assert v.actual.coefficient(i, i) == math.comb(3, i)
    assert v.bound.coefficients == v.actual.coefficients


_R3 = GradingSpec(("x", "y", "z"), (1, 1, 1))


@pytest.mark.parametrize("ring, texts, generator, term", [
    (_R3, ["x"], "x", "x"),                       # S/I = K[y, z]
    (_R3, ["x", "y^2"], "x", "x"),
    (_R3, ["x*y", "z"], "z", "z"),
    (_R3, ["x", "y", "z"], "x", "x"),             # S/I = K
    (GradingSpec(("x", "y"), (1, 2)), ["x^2 - y"], "x^2 - y", "y"),
])
def test_verdict_rejects_ideals_outside_the_square_of_the_maximal_ideal(
        ring, texts, generator, term):
    # these rings are Golod, yet their series fall below Serre's bound: the
    # bound is sharp only when the variables minimally generate m_R
    I = Ideal.from_strings(ring, texts)
    with pytest.raises(ImproperIdealError,
                       match=re.escape(f"generator {generator} has the linear term {term}")):
        golod_verdict(I)
    # the bound is still an upper bound, and both series stay available
    bound, actual = serre_bound_series(I), actual_poincare(I)
    assert all(c <= bound.coefficient(i, d) for (i, d), c in actual.coefficients.items())
    assert actual.coefficients != bound.coefficients


def test_serre_bound_shape(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    s = serre_bound_series(I, i_max=3)
    assert s.coefficient(0, 0) == 1
    assert s.coefficient(1, 1) == 2
    # denominator contributes b_1 = 3 fresh generators at (2, 2)
    assert s.coefficient(2, 2) == 4
    assert not s.truncated


def test_actual_poincare_rejects_unit_ideal(r2):
    with pytest.raises(ImproperIdealError):
        actual_poincare(Ideal.from_strings(r2, ["x - x + 1"]))


def test_serre_bound_rejects_negative_bounds(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    for call in (lambda: serre_bound_series(I, -1),
                 lambda: serre_bound_series(I, 2, -1),
                 lambda: golod_verdict(I, -1),
                 lambda: golod_verdict(I, 2, -1)):
        with pytest.raises(ValueError, match="bounds must be non-negative"):
            call()
    # a unit ideal keeps its own error
    with pytest.raises(ImproperIdealError):
        serre_bound_series(Ideal.from_strings(r2, ["x", "y", "1"]), -1)


def test_serre_inequality_spot_checks():
    for e in builtin_corpus()[:6]:
        if e.ideal.is_zero() or not e.ideal.is_proper():
            continue
        v = golod_verdict(e.ideal, 3)
        for key, a in v.actual.coefficients.items():
            assert a <= v.bound.coefficient(*key), (e.name, key)


def test_verdict_scan_order_is_lowest_first(r2):
    # the reported discrepancy is the lexicographically first (i, d) failure
    I = Ideal.from_strings(r2, ["x^2", "y^2"])
    v = golod_verdict(I, i_max=4)
    i, d, bound_c, actual_c = v.first_discrepancy
    for j in range(i):
        for key, a in v.actual.coefficients.items():
            if key[0] == j:
                assert a == v.bound.coefficient(*key)
    assert bound_c > actual_c


def test_series_str_and_json(r2):
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    s = serre_bound_series(I, i_max=2)
    text = str(s)
    assert "t" in text and "u" in text
    obj = s.to_json_obj()
    assert obj["i_max"] == 2
    assert any(rec["c"] == 1 and rec["i"] == 0 for rec in obj["coefficients"])


def test_truncated_bounds_yield_inconclusive_on_golod_ring(r2):
    # with a tight internal cap the bound is truncated, so a clean comparison
    # cannot upgrade to a definitive positive verdict
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    v = golod_verdict(I, i_max=4, d_max=3)
    assert v.status in (GOLOD, INCONCLUSIVE)
    assert v.status == INCONCLUSIVE or not v.bound.truncated


def test_windows_too_small_for_i_max_are_inconclusive(r2):
    # homological degree 2 first shows at internal degree 2 for unit weights
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    for d_max in (0, 1):
        v = golod_verdict(I, i_max=2, d_max=d_max)
        assert v.status == INCONCLUSIVE, d_max
        assert v.first_discrepancy is None
        assert v.bound.truncated
    v = golod_verdict(I, i_max=2, d_max=2)
    assert v.status == GOLOD
    assert not v.bound.truncated


def test_weighted_window_truncation_uses_the_smallest_weight():
    rw = GradingSpec(("x", "y"), (2, 3))
    I = Ideal.from_strings(rw, ["x^3 - y^2"])
    assert serre_bound_series(I, i_max=2, d_max=3).truncated
    assert not serre_bound_series(I, i_max=2, d_max=4).truncated


def test_verdict_runs_no_module_buchberger(r2, no_resolution):
    for texts, status in ((["x^2", "x*y", "y^2"], GOLOD), (["x^2", "y^2"], NOT_GOLOD)):
        assert golod_verdict(Ideal.from_strings(r2, texts)).status == status
    assert serre_bound_series(Ideal.from_strings(r2, ["x^2", "y^2"])).coefficient(2, 2) == 3


def test_actual_poincare_on_a_rational_ideal_is_pinned():
    # seeded-poly-2 has the coefficient -1/2, so its strands need denominator clearing
    entry = next(e for e in builtin_corpus() if e.name == "seeded-poly-2")
    s = actual_poincare(entry.ideal, 3)
    assert s.d_max == 12 and not s.truncated
    assert s.coefficients == {(0, 0): 1, (1, 1): 4, (2, 2): 8, (3, 3): 12}


def test_verdict_resolves_once(r2, monkeypatch):
    calls = []
    real = resolution.minimal_free_resolution

    def counted(I):
        calls.append(I)
        return real(I)

    monkeypatch.setattr(resolution, "minimal_free_resolution", counted)
    assert golod_verdict(Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])).status == GOLOD
    assert len(calls) == 0


def test_geometric_inverse_rejects_t_order_zero():
    with pytest.raises(AlgebraError, match="positive t-order"):
        _geometric_inverse({(0, 1): 1}, 3, 3)
    assert _geometric_inverse({(1, 1): 1}, 2, 2) == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_geometric_inverse_check_survives_python_O():
    code = (
        "from golodkit.errors import AlgebraError\n"
        "from golodkit.poincare import _geometric_inverse\n"
        "try:\n"
        "    _geometric_inverse({(0, 1): 1}, 3, 3)\n"
        "except AlgebraError:\n"
        "    print('raised')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_serre_inequality_violation_raises(r2, monkeypatch):
    # a resolution that overshoots the bound inside its support is a bug, not a verdict
    I = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    real = poincare._tor_series

    def overshoot(*args):
        s = real(*args)
        coeffs = dict(s.coefficients)
        coeffs[(2, 2)] += 1
        return BigradedSeries(coeffs, s.i_max, s.d_max, s.truncated)

    monkeypatch.setattr(poincare, "_tor_series", overshoot)
    with pytest.raises(AlgebraError,
                       match=r"Serre inequality violated at \(2, 2\): actual 5 > bound 4"):
        golod_verdict(I)


def _steps(degrees):
    """Split the internal degrees of successive strand calls into steps: a
    step visits d = 0, 1, ... in order, so a drop starts the next one."""
    steps = []
    for d in degrees:
        if not steps or d < steps[-1][-1]:
            steps.append([])
        steps[-1].append(d)
    return steps


def test_tor_strands_stop_at_the_bound_support(r3, monkeypatch):
    I = Ideal.from_strings(r3, ["x^2", "x*y", "y^2"])
    bound = serre_bound_series(I)
    caps = {}
    for i, d in bound.coefficients:
        caps[i] = max(caps.get(i, d), d)
    seen = []

    class Recording(poincare._Complex):
        def basis(self, l, d):
            seen.append(d)
            return super().basis(l, d)

    monkeypatch.setattr(poincare, "_Complex", Recording)
    v = golod_verdict(I)
    assert v.status == GOLOD
    assert [max(step) for step in _steps(seen)] == [caps[i] for i in range(1, 5)]
    # the reference loop does build the strands above the support
    seen.clear()
    monkeypatch.setattr(koszul, "_Complex", Recording)
    assert full_window_series(I, 4, bound.d_max) == v.actual
    assert [max(step) for step in _steps(seen)] == [bound.d_max] * 4
    assert all(caps[i] < bound.d_max for i in range(1, 5))


_RINGS = {
    "r3": (GradingSpec(("x", "y", "z"), (1, 1, 1)), (1, 3)),
    "rw": (GradingSpec(("x", "y"), (1, 2)), (2, 4)),
}


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_RINGS)), data=st.data())
def test_capped_series_equals_full_window_on_random_ideals(name, data):
    ring, (lo, hi) = _RINGS[name]
    degrees = data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3))
    rng = Random(data.draw(st.integers(0, 2 ** 32)))
    I = Ideal(ring, [random_homogeneous(ring, d, rng) for d in degrees])
    for i_max, d_max in ((3, None), (4, None), (4, 3)):
        actual = actual_poincare(I, i_max, d_max)
        assert actual == full_window_series(I, i_max, actual.d_max), (i_max, d_max)
        full_caps = {i: actual.d_max for i in range(1, i_max + 1)}
        assert _tor_series(I, i_max, actual.d_max, full_caps) == actual, (i_max, d_max)


def test_series_on_four_variable_corpus_entries_match_the_reference():
    entries = [e for e in builtin_corpus() if e.ideal.ring.n == 4]
    assert len(entries) == 5
    for e in entries:
        bound = serre_bound_series(e.ideal, 3)
        caps = _support_caps(bound)
        assert actual_poincare(e.ideal, 3) == reference_tor_series(
            e.ideal, 3, bound.d_max, caps), e.name


_NOT_EXACT = "the resolution is not exact at (3, 3): 2 new generators, 1 expected"


def test_exactness_violation_raises(r2, monkeypatch):
    # with step 2 stopped below its cap, F_2 misses the generator at degree 3,
    # and the kernel out of F_2 at degree 3 exceeds what exactness predicts
    I = Ideal.from_strings(r2, ["x^3", "y^2"])
    assert _support_caps(serre_bound_series(I))[2] == 3
    real = poincare._support_caps

    def short(bound):
        caps = real(bound)
        caps[2] -= 1
        return caps

    monkeypatch.setattr(poincare, "_support_caps", short)
    with pytest.raises(AlgebraError, match=re.escape(_NOT_EXACT)):
        golod_verdict(I)


def test_exactness_check_survives_python_O():
    code = (
        "from golodkit import GradingSpec, Ideal, golod_verdict, poincare\n"
        "from golodkit.errors import AlgebraError\n"
        "real = poincare._support_caps\n"
        "def short(bound):\n"
        "    caps = real(bound)\n"
        "    caps[2] -= 1\n"
        "    return caps\n"
        "poincare._support_caps = short\n"
        "I = Ideal.from_strings(GradingSpec(('x', 'y'), (1, 1)), ['x^3', 'y^2'])\n"
        "try:\n"
        "    golod_verdict(I)\n"
        "except AlgebraError as e:\n"
        "    print(e)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == _NOT_EXACT
