"""Exact polynomial arithmetic over Q in a positively weighted graded ring.

Monomials are bare exponent tuples; polynomials keep their terms sorted in
descending weighted-degree-grevlex order, so equal polynomials compare equal
structurally and printing is canonical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import add, le, sub
from typing import Iterable, Mapping

from .errors import ParseError, RingMismatchError

Exps = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class GradingSpec:
    """Ambient ring data: variable names and strictly positive integer weights."""

    names: tuple[str, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        for w in self.weights:
            if int(w) != w:
                raise ValueError(f"weights must be integers, got {w!r}")
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.names) == 0:
            raise ValueError("a ring needs at least one variable")
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights must have the same length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for w in self.weights:
            if w <= 0:
                raise ValueError(f"weights must be positive, got {w}")

    @property
    def n(self) -> int:
        return len(self.names)

    def weighted_degree(self, exps: Exps) -> int:
        return sum(w * e for w, e in zip(self.weights, exps))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for {self.n} variables")
        exps = tuple(1 if j == i else 0 for j in range(self.n))
        return Polynomial(self, {exps: Fraction(1)})

    def variables(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(i) for i in range(self.n))

    def __str__(self) -> str:
        return ",".join(self.names) + " weights " + ",".join(str(w) for w in self.weights)


def grevlex_key(weights: tuple[int, ...], exps: Exps):
    """Sort key for weighted-degree grevlex: bigger key means bigger monomial."""
    deg = sum(w * e for w, e in zip(weights, exps))
    return (deg, tuple(-e for e in reversed(exps)))


# -- exponent-tuple helpers -------------------------------------------------

def mono_mul(a: Exps, b: Exps) -> Exps:
    return tuple(map(add, a, b))


def mono_divides(a: Exps, b: Exps) -> bool:
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def mono_div(a: Exps, b: Exps) -> Exps:
    """Exponent vector of x^a / x^b; requires divisibility."""
    out = tuple(map(sub, a, b))
    if min(out, default=0) < 0:
        raise ValueError(f"{b} does not divide {a}")
    return out


def mono_lcm(a: Exps, b: Exps) -> Exps:
    return tuple(map(max, a, b))


def mono_colon(a: Exps, b: Exps) -> Exps:
    """Exponent vector of x^a : x^b, the least x^c with x^a dividing x^(b + c)."""
    return tuple(x - y if x > y else 0 for x, y in zip(a, b))


# -- monomial ideals by exponent vectors --------------------------------------
#
# A monomial ideal is generated by the x^u for u in a list of exponent
# vectors: membership is divisibility, an intersection is generated by the
# pairwise lcms and a colon by the componentwise differences (Miller and
# Sturmfels, *Combinatorial Commutative Algebra*, Ch. 1).  These return the
# minimal generators in no particular order; callers sort them by their own
# key.

def mono_in_ideal(v: Exps, gens: Iterable[Exps]) -> bool:
    """Whether x^v lies in the ideal of the x^u, u in gens: some x^u divides it."""
    for u in gens:
        if all(map(le, u, v)):  # mono_divides(u, v), inlined
            return True
    return False


def minimal_exps(vecs: Iterable[Exps]) -> list[Exps]:
    """The divisibility-minimal vectors among vecs, each once.

    A proper divisor has a smaller total degree, so one scan by ascending
    total degree keeps exactly the vectors that no kept vector divides.  Of
    equal vectors the first one's tuple is kept.
    """
    out: list[Exps] = []
    for v in sorted(dict.fromkeys(vecs), key=sum):
        if not mono_in_ideal(v, out):
            out.append(v)
    return out


def intersect_exps(a: Iterable[Exps], b: Iterable[Exps]) -> list[Exps]:
    """Minimal generators of the intersection of the ideals of a and of b.

    The pairwise lcms generate it.  A generator of one ideal that lies in
    the other is among them, and its lcms with the rest are its multiples,
    so only the generators outside the other ideal are paired.
    """
    a, b = list(a), list(b)
    a_out = [u for u in a if not mono_in_ideal(u, b)]
    b_out = [v for v in b if not mono_in_ideal(v, a)]
    inside = [u for u in a if u not in a_out] + [v for v in b if v not in b_out]
    return minimal_exps(inside + [mono_lcm(u, v) for u in a_out for v in b_out])


def colon_exps(a: Iterable[Exps], b: Iterable[Exps]) -> list[Exps]:
    """Minimal generators of the colon of the ideal of a by the ideal of b, b
    nonempty: the intersection over w in b of the ideals of the x^u : x^w."""
    a = list(a)
    return reduce(intersect_exps, [minimal_exps(mono_colon(u, w) for u in a) for w in b])


def axpy(target: dict, factor, src: Mapping, index: Mapping | None = None) -> None:
    """target += factor * src over sparse dicts, deleting entries that cancel.

    With ``index``, the entry of src at key k lands at key index[k].
    """
    for k, v in src.items():
        if index is not None:
            k = index[k]
        acc = target.get(k, 0) + factor * v
        if acc:
            target[k] = acc
        elif k in target:
            del target[k]


def axpy_over(target: dict, den: int, factor: int, src: Mapping, src_den: int,
              index: Mapping | None = None) -> int:
    """target / den += factor * src / src_den over integer dicts, in place.

    The sum is kept over the least common denominator of den and src_den,
    which is returned; target is rescaled to it when it grows.  ``index`` is
    as in ``axpy``."""
    if src_den != den:
        common = den // gcd(den, src_den) * src_den
        _scale(target, common // den)
        factor *= common // src_den
        den = common
    axpy(target, factor, src, index)
    return den


def _scale(target: dict, factor) -> None:
    """target *= factor over a sparse dict, in place; factor is nonzero."""
    if factor != 1:
        for k in target:
            target[k] *= factor


def monomials_of_degree(weights: tuple[int, ...], d: int) -> list[Exps]:
    """All exponent vectors of weighted degree d, sorted; none for d < 0."""
    out: list[Exps] = []

    def rec(pos: int, left: int, acc: list[int]):
        if pos == len(weights) - 1:
            if left % weights[pos] == 0:
                out.append(tuple(acc + [left // weights[pos]]))
            return
        for e in range(left // weights[pos] + 1):
            rec(pos + 1, left - e * weights[pos], acc + [e])

    if d >= 0:
        rec(0, d, [])
    return sorted(out)


def _sorted_terms(ring: GradingSpec, acc: Mapping[Exps, Fraction]) -> tuple:
    """The nonzero entries of acc, sorted by descending grevlex key."""
    weights = ring.weights
    return tuple(sorted(((e, c) for e, c in acc.items() if c),
                        key=lambda t: grevlex_key(weights, t[0]), reverse=True))


@dataclass(frozen=True)
class HomogeneityReport:
    """Whether a polynomial is homogeneous for the ring's weights.

    The zero polynomial counts as homogeneous with no specific degree.
    """

    is_homogeneous: bool
    degree: int | None


class Polynomial:
    """Immutable polynomial with Fraction coefficients.

    ``terms`` is a tuple of (exponent tuple, coefficient) pairs sorted in
    descending weighted grevlex order with no zero coefficients.  Only the
    public constructor validates its input (exponent lengths and signs, no
    floats); arithmetic builds its results directly from terms that are
    already valid.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradingSpec, coeffs: Mapping[Exps, Fraction] | Iterable[tuple[Exps, Fraction]]):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict[Exps, Fraction] = {}
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != ring.n:
                raise ValueError(f"exponent tuple {exps} has wrong length for {ring.n} variables")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if isinstance(c, float):
                raise TypeError(f"coefficient {c!r} is a float; use an int or a Fraction")
            c = Fraction(c)
            if c:
                acc = merged.get(exps, 0) + c
                if acc:
                    merged[exps] = acc
                elif exps in merged:
                    del merged[exps]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", _sorted_terms(ring, merged))

    @classmethod
    def _from_terms(cls, ring: GradingSpec, acc: dict[Exps, Fraction]) -> "Polynomial":
        """Trusted constructor for arithmetic results: ``acc`` maps exponent
        tuples of the right length to Fractions; zero values are dropped."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", _sorted_terms(ring, acc))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring: GradingSpec) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: GradingSpec, c) -> "Polynomial":
        return cls(ring, {tuple(0 for _ in range(ring.n)): c})

    @classmethod
    def monomial(cls, ring: GradingSpec, exps: Exps, c=1) -> "Polynomial":
        return cls(ring, {tuple(exps): c})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e, _ in self.terms)

    def is_monomial(self) -> bool:
        """Single term (any coefficient)."""
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms[0][1]

    def homogeneity(self) -> HomogeneityReport:
        if not self.terms:
            return HomogeneityReport(True, None)
        degs = {self.ring.weighted_degree(e) for e, _ in self.terms}
        if len(degs) == 1:
            return HomogeneityReport(True, degs.pop())
        return HomogeneityReport(False, None)

    def degree(self) -> int | None:
        """Weighted degree of the leading term; None for zero."""
        if not self.terms:
            return None
        return self.ring.weighted_degree(self.terms[0][0])

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"operands live in different rings: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return Polynomial._from_terms(self.ring, acc)

    def __radd__(self, other):
        if other == 0:  # so sum() works
            return self
        return self.__add__(other)

    def __neg__(self):
        return Polynomial._from_terms(self.ring, {e: -c for e, c in self.terms})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) - c
        return Polynomial._from_terms(self.ring, acc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Polynomial._from_terms(self.ring, {e: c * k for e, k in self.terms})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        acc: dict[Exps, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = mono_mul(e1, e2)
                acc[e] = acc.get(e, 0) + c1 * c2
        return Polynomial._from_terms(self.ring, acc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Polynomial.constant(self.ring, 1)
        for _ in range(k):
            out = out * self
        return out

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th variable."""
        if not 0 <= i < self.ring.n:
            raise IndexError(f"variable index {i} out of range")
        acc = {}
        for e, c in self.terms:
            if e[i] > 0:
                de = tuple(x - 1 if j == i else x for j, x in enumerate(e))
                acc[de] = c * e[i]
        return Polynomial._from_terms(self.ring, acc)

    # -- structural ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def _term_str(self, exps: Exps, coeff: Fraction, lead: bool) -> str:
        parts = []
        for name, e in zip(self.ring.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        mono = "*".join(parts)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if lead:
            return body if coeff > 0 else "-" + body
        return (" + " if coeff > 0 else " - ") + body

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "".join(self._term_str(e, c, i == 0) for i, (e, c) in enumerate(self.terms))

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# -- text grammar -----------------------------------------------------------
#
# poly   := [sign] term ((+|-) term)*
# term   := factor (* factor)*
# factor := INT [/ INT] | NAME [^ INT]
#
# Products need an explicit '*'; juxtaposition like "2x" is a parse error.
# One regular expression cuts the text into tokens, each after the whitespace
# before it: an integer, a name, or any other single character.  The end of
# the text is a last, empty token at len(text), so every error has a column.

_TOKEN_RE = re.compile(rf"\s*(?:(\d+)|({_NAME_RE.pattern})|(\S))")
_INT, _NAME = 1, 2


def _tokens(text: str) -> list[tuple[int, str, int, int]]:
    """(kind, token, start, end) per token, then the empty end token."""
    out = [(m.lastindex, m[m.lastindex], m.start(m.lastindex), m.end())
           for m in _TOKEN_RE.finditer(text)]
    out.append((0, "", len(text), len(text)))
    return out


def parse_polynomial(ring: GradingSpec, text: str) -> Polynomial:
    """Parse the package's polynomial grammar, e.g. ``3/2*x^2*y - z^3``."""

    def integer(k: int) -> int:
        kind, tok, pos, _ = toks[k]
        if kind != _INT:
            raise ParseError(f"expected an integer at position {pos} in {text!r}", column=pos)
        return int(tok)

    toks = _tokens(text)
    acc: dict[Exps, Fraction] = {}
    negative = toks[0][1] == "-"
    k = 1 if toks[0][1] in ("+", "-") else 0
    while True:
        exps = [0] * ring.n
        num = den = 1
        while True:  # one factor
            kind, tok, pos, end = toks[k]
            if tok.isdigit():  # a superscript is a digit, but integer() refuses it
                num *= integer(k)
                if toks[k + 1][1] == "/":
                    d = integer(k + 2)
                    if d == 0:
                        raise ParseError("zero denominator in coefficient", column=toks[k + 2][3])
                    den *= d
                    k += 2
            elif kind == _NAME:
                try:
                    i = ring.index(tok)
                except KeyError:
                    raise ParseError(f"unknown variable {tok!r}", column=end) from None
                if toks[k + 1][1] == "^":
                    exps[i] += integer(k + 2)
                    k += 2
                else:
                    exps[i] += 1
            else:
                raise ParseError(f"expected a factor at position {pos}", column=pos)
            k += 1
            if toks[k][1] != "*":
                break
            k += 1
        key = tuple(exps)
        coeff = Fraction(-num if negative else num, den)
        acc[key] = acc[key] + coeff if key in acc else coeff
        kind, tok, pos, _ = toks[k]
        if not kind:
            return Polynomial._from_terms(ring, acc)
        if tok != "+" and tok != "-":
            raise ParseError(f"unexpected {text[pos]!r} at position {pos} in {text!r}", column=pos)
        negative = tok == "-"
        k += 1
