"""Batch command line front end.

A session file declares one ring, named ideals, and named graphs; commands
run one computation each and exit 0 on success, 1 on a negative
mathematical verdict, and 2 on errors.  All outputs have a JSON twin
behind --json.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from random import Random

from . import calculus, koszul, monomial, poincare, resolution
from .calculus import colon
from .errors import AlgebraError, ParseError
from .groebner import Ideal, intersect
from .ring import _NAME_RE, GradingSpec, Polynomial, parse_polynomial


@dataclass
class Session:
    ring: GradingSpec | None
    ideals: dict[str, Ideal]
    graphs: dict[str, monomial.Graph]


def _offending_term(ring: GradingSpec, p: Polynomial) -> str:
    degs = [ring.weighted_degree(e) for e, _ in p.terms]
    lead = degs[0]
    for (e, c), d in zip(p.terms, degs):
        if d != lead:
            return str(Polynomial(ring, {e: c}))
    return str(p)


def parse_session(path: str | Path) -> Session:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read session file: {exc}") from None
    ring: GradingSpec | None = None
    ideals: dict[str, Ideal] = {}
    graphs: dict[str, monomial.Graph] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "ring":
            if ring is not None:
                raise ParseError("only one ring per session", line=lineno)
            names_part, sep, weights_part = rest.partition("weights")
            if not sep:
                raise ParseError("expected 'ring <names> weights <weights>'", line=lineno)
            names = tuple(t.strip() for t in names_part.strip().split(",") if t.strip())
            for name in names:
                if not _NAME_RE.fullmatch(name):
                    raise ParseError(f"variable {name!r} is not a name that polynomials can use",
                                     line=lineno)
            try:
                weights = tuple(int(t) for t in weights_part.strip().split(","))
                ring = GradingSpec(names, weights)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
        elif head == "ideal":
            if ring is None:
                raise ParseError("declare the ring before ideals", line=lineno)
            name, sep, body = rest.partition("=")
            name = name.strip()
            if not sep or not name.isidentifier():
                raise ParseError("expected 'ideal NAME = gen, gen, ...'", line=lineno)
            if name in ideals or name in graphs:
                raise ParseError(f"duplicate name {name!r}", line=lineno)
            gens = []
            for piece in body.split(","):
                piece = piece.strip()
                if not piece:
                    continue
                try:
                    p = parse_polynomial(ring, piece)
                except ParseError as exc:
                    raise ParseError(f"in generator {piece!r}: {exc.message}",
                                     line=lineno) from None
                if not p.homogeneity().is_homogeneous:
                    raise ParseError(
                        f"generator {piece!r} of {name} is not homogeneous; "
                        f"term {_offending_term(ring, p)} breaks the grading",
                        line=lineno)
                gens.append(p)
            ideals[name] = Ideal(ring, gens)
        elif head == "graph":
            name, sep, body = rest.partition("=")
            name = name.strip()
            if not sep or not name.isidentifier():
                raise ParseError("expected 'graph NAME = cycle N | path N | file PATH'",
                                 line=lineno)
            if name in ideals or name in graphs:
                raise ParseError(f"duplicate name {name!r}", line=lineno)
            kind, _, arg = body.strip().partition(" ")
            arg = arg.strip()
            try:
                if kind == "cycle":
                    graphs[name] = monomial.cycle_graph(int(arg))
                elif kind == "path":
                    graphs[name] = monomial.path_graph(int(arg))
                elif kind == "file":
                    gpath = (path.parent / arg).resolve()
                    graphs[name] = monomial.Graph.from_text(gpath.read_text())
                else:
                    raise ParseError(f"unknown graph form {kind!r}", line=lineno)
            except (ValueError, OSError) as exc:
                raise ParseError(f"bad graph {name!r}: {exc}", line=lineno) from None
        else:
            raise ParseError(f"unknown declaration {head!r}", line=lineno)
    return Session(ring, ideals, graphs)


def _ideal_strings(I: Ideal) -> list[str]:
    return [str(g) for g in I.groebner_basis()]


def _lookup(kind: str, session: Session | None, name: str):
    """The session's ideal or graph of that name; without a session there is none."""
    objects = getattr(session, kind + "s", {})
    if name not in objects:
        raise AlgebraError(f"unknown {kind} {name!r}")
    return objects[name]


_get_ideal = partial(_lookup, "ideal")
_get_graph = partial(_lookup, "graph")


def _to_monomial(I: Ideal, what: str) -> monomial.MonomialIdeal:
    try:
        return monomial.MonomialIdeal.from_ideal(I)
    except ValueError:
        raise AlgebraError(f"{what} needs a monomial ideal") from None


def _generators(label: str, R: Ideal, payload: dict, *more: str):
    """The line `label: g1, g2, ...` then `more`, and payload with the same basis."""
    gens = _ideal_strings(R)
    return [f"{label}: {', '.join(gens) or '0'}", *more], {**payload, "generators": gens}, 0


# -- individual commands -----------------------------------------------------------
# Each returns (text lines, JSON payload, exit code); main adds the command name
# to the payload.


def _cmd_check_strongly_golod(args, session):
    rep = calculus.strongly_golod(_get_ideal(session, args.ideal))
    payload = {"ideal": args.ideal, "verdict": rep.verdict}
    lines = [f"strongly Golod: {rep.verdict}"]
    if not rep.verdict:
        w = rep.witness
        payload["witness"] = {"left": str(w.left), "right": str(w.right),
                              "remainder": str(w.remainder)}
        lines.append(f"witness: ({w.left}) * ({w.right}) has normal form {w.remainder}")
    return lines, payload, 0 if rep.verdict else 1


def _cmd_derivative_ideal(args, session):
    D = calculus.derivative_ideal(_get_ideal(session, args.ideal))
    return _generators("derivative ideal", D, {"ideal": args.ideal})


def _cmd_power(args, session):
    R = calculus.power(_get_ideal(session, args.ideal), args.k)
    return _generators(f"power {args.k}", R, {"ideal": args.ideal, "k": args.k})


def _cmd_symbolic_power(args, session):
    I = _get_ideal(session, args.ideal)
    mode = "saturated" if args.L is None else "user"
    L = None if args.L is None else _get_ideal(session, args.L)
    res = calculus.symbolic_power(I, calculus.SymbolicPowerSpec(args.k, mode, L))
    more = [] if res.exponent is None else [f"saturation exponent: {res.exponent}"]
    return _generators(f"symbolic power (mode {mode}, k={args.k})", res.ideal,
                       {"ideal": args.ideal, "k": args.k, "mode": mode,
                        "exponent": res.exponent}, *more)


def _cmd_saturated_power(args, session):
    res = calculus.saturated_power(_get_ideal(session, args.ideal), args.k)
    return _generators(f"saturated power k={args.k}", res.ideal,
                       {"ideal": args.ideal, "k": args.k, "exponent": res.exponent},
                       f"saturation exponent: {res.exponent}")


def _cmd_binary(args, session):
    I = _get_ideal(session, args.left)
    J = _get_ideal(session, args.right)
    if args.command == "colon":
        R = colon(I, J)
    elif args.command == "intersect":
        R = intersect(I, J)
    elif args.command == "sum":
        R = Ideal(I.ring, list(I.generators) + list(J.generators))
    else:
        R = Ideal(I.ring, [a * b for a in I.generators for b in J.generators])
    return _generators(args.command, R, {"left": args.left, "right": args.right})


def _cmd_add_prime_power(args, session):
    I = _get_ideal(session, args.ideal)
    R = calculus.add_prime_power(I, _get_ideal(session, args.prime), args.k)
    return _generators(f"sum with prime power k={args.k}", R,
                       {"ideal": args.ideal, "prime": args.prime, "k": args.k})


def _cmd_vertex_cover_ideal(args, session):
    G = _get_graph(session, args.graph)
    return _generators(f"vertex cover ideal on {G.n} vertices",
                       monomial.vertex_cover_ideal(G).to_ideal(),
                       {"graph": args.graph, "n": G.n})


def _cmd_odd_cycle_suite(args, session):
    rep = monomial.odd_cycle_suite(args.n, args.k)
    checks = {
        "symbolic-square-is-square-plus-product": rep.symbolic_square_is_square_plus_product,
        "symbolic-square-squared-in-cube": rep.symbolic_square_squared_in_cube,
    }
    for k, ok in rep.higher_squares_contained.items():
        checks[f"previous-symbolic-squared-in-power-{k}"] = ok
    lines = [f"odd cycle n={rep.n}: {rep.minimal_cover_count} minimal covers"]
    lines += [f"{'PASS' if v else 'FAIL'} {k}" for k, v in checks.items()]
    return (lines, {"n": rep.n, "minimal_cover_count": rep.minimal_cover_count,
                    "checks": checks}, 0 if all(checks.values()) else 1)


def _cmd_squarefree_symbolic(args, session):
    I = _to_monomial(_get_ideal(session, args.ideal), "squarefree symbolic power")
    return _generators(f"symbolic power via minimal primes, k={args.k}",
                       monomial.squarefree_symbolic_power(I, args.k).to_ideal(),
                       {"ideal": args.ideal, "k": args.k})


def _cmd_integral_closure(args, session):
    I = _to_monomial(_get_ideal(session, args.ideal), "integral closure")
    return _generators("integral closure", monomial.integral_closure(I).to_ideal(),
                       {"ideal": args.ideal})


def _cmd_primary_components(args, session):
    I = _to_monomial(_get_ideal(session, args.ideal), "primary components")
    lines = []
    recs = []
    for P, Q in monomial.minimal_primary_components(I):
        names = [I.ring.names[i] for i in P]
        gens = _ideal_strings(Q.to_ideal())
        sg = monomial.strongly_golod_monomial(Q).verdict if Q.is_proper() else None
        lines.append(f"prime ({', '.join(names)}): {', '.join(gens) or '0'}"
                     + (f" [strongly Golod: {sg}]" if sg is not None else ""))
        recs.append({"prime": names, "generators": gens, "strongly_golod": sg})
    return lines, {"ideal": args.ideal, "components": recs}, 0


def _cmd_betti(args, session):
    # Koszul homology dimensions are the graded Betti numbers of S/I
    I = _get_ideal(session, args.ideal)
    table = resolution.BettiTable(koszul.koszul_homology(I).dims)
    return [str(table)], {"ideal": args.ideal, "entries": table.to_json_obj()}, 0


def _cmd_koszul_homology(args, session):
    I = _get_ideal(session, args.ideal)
    s = koszul.koszul_homology(I, args.homological, args.internal)
    lines = [f"H_{l} at internal degree {d}: dim {s.dims[(l, d)]}"
             for l, d in sorted(s.dims)]
    lines.append(f"truncated: {s.truncated}")
    return lines, {"ideal": args.ideal, **s.to_json_obj()}, 0


def _cmd_trivial_multiplication(args, session):
    I = _get_ideal(session, args.ideal)
    rep = koszul.trivial_multiplication_check(I, args.homological, args.internal)
    lines = [f"trivial multiplication: {rep.verdict}"]
    if rep.truncated:
        lines.append("truncated: True")
    payload = {"ideal": args.ideal, "verdict": rep.verdict, "truncated": rep.truncated,
               "failing_pair": list(rep.failing_pair) if rep.failing_pair else None}
    if rep.failing_pair:
        l1, d1, i1, l2, d2, i2 = rep.failing_pair
        lines.append(f"failing pair: class {i1} of H_{l1} degree {d1} times "
                     f"class {i2} of H_{l2} degree {d2}")
    return lines, payload, 0 if rep.verdict else 1


def _cmd_verdict(args, session):
    """`poincare` prints both series before the status and always exits 0;
    `golod-verdict` prints the status and exits 1 on NOT-GOLOD."""
    I = _get_ideal(session, args.ideal)
    i_max = args.homological if args.homological is not None else 4
    v = poincare.golod_verdict(I, i_max, args.internal)
    lines = []
    if args.command == "poincare":
        lines += [f"Serre bound: {v.bound}", f"actual:      {v.actual}"]
    lines.append(f"status: {v.status}")
    if v.first_discrepancy:
        i, d, b, a = v.first_discrepancy
        lines.append(f"first discrepancy at t^{i} u^{d}: bound {b}, actual {a}")
    code = 1 if args.command == "golod-verdict" and v.status == poincare.NOT_GOLOD else 0
    return lines, {"ideal": args.ideal, **v.to_json_obj()}, code


def _builtin_examples() -> list[tuple[str, bool, str]]:
    """Named landmark checks; each returns (anchor, passed, detail)."""
    out = []
    r2 = GradingSpec(("x", "y"), (1, 1))
    r3 = GradingSpec(("x", "y", "z"), (1, 1, 1))
    pair = Ideal.from_strings(r3, ["x*z", "y*z"])
    sq = Ideal.from_strings(r2, ["x^2", "x*y", "y^2"])
    ci = Ideal.from_strings(r2, ["x^2", "y^2"])

    D = calculus.derivative_ideal(pair)
    want = Ideal.from_strings(r3, ["x", "y", "z"])
    out.append(("derivative-of-product-pair", D == want,
                f"derivative ideal is ({', '.join(_ideal_strings(D))})"))

    rep = calculus.strongly_golod(pair)
    ok = (not rep.verdict and rep.witness is not None
          and str(rep.witness.remainder) == "z^2")
    out.append(("product-pair-witness", ok,
                "witness z^2" if ok else f"unexpected report {rep}"))

    out.append(("square-of-maximal-strongly-golod",
                calculus.strongly_golod(sq).verdict, "(x,y)^2 passes the predicate"))

    ok = all(calculus.strongly_golod(calculus.power(pair, k)).verdict for k in (2, 3))
    out.append(("power-closure", ok, "(xz,yz)^k passes for k in {2,3}"))

    tri = monomial.squarefree_generated_ideal(3, 2)
    sat = calculus.saturated_power(tri.to_ideal(), 2)
    out.append(("saturated-power-closure",
                calculus.strongly_golod(sat.ideal).verdict,
                "saturated square of the triangle cover ideal passes"))

    I = Ideal.from_strings(r2, ["x^2", "x*y"])
    J = Ideal.from_strings(r2, ["x", "y"])
    out.append(("colon-condition-example", calculus.check_colon_condition(I, J),
                "(x^2,xy) : (x,y) stabilizes at the first power"))

    sym = monomial.squarefree_symbolic_power(tri, 2)
    plus = tri.power(2).sum(monomial.MonomialIdeal(tri.ring, [(1, 1, 1)]))
    out.append(("c3-cover-symbolic-square", sym == plus,
                "I^(2) = I^2 + (x1 x2 x3) for the triangle"))

    c5 = monomial.odd_cycle_suite(5)
    out.append(("c5-squared-symbolic-in-cube",
                c5.symbolic_square_is_square_plus_product
                and c5.symbolic_square_squared_in_cube,
                "(I^(2))^2 lands in I^3 for the 5-cycle"))

    I43 = monomial.squarefree_generated_ideal(4, 3)
    u = (1, 1, 1, 1)
    in_sym = monomial.squarefree_symbolic_power(I43, 2).contains_exponents(u)
    u2 = tuple(2 * e for e in u)
    out_cube = not I43.power(3).contains_exponents(u2)
    out.append(("squarefree-4-3-degree-gap", in_sym and out_cube,
                "u in I^(2) but u^2 outside I^3"))

    v = poincare.golod_verdict(sq)
    totals = v.bound.totals()
    ok = (v.status == poincare.GOLOD
          and [totals[i] for i in range(5)] == [1, 2, 4, 8, 16])
    out.append(("flagship-golod-series", ok,
                "bound totals 1,2,4,8,16 attained by the actual series"))

    v = poincare.golod_verdict(ci)
    ok = v.status == poincare.NOT_GOLOD and v.first_discrepancy == (3, 4, 1, 0)
    out.append(("ci-control-not-golod", ok,
                f"status {v.status}, discrepancy {v.first_discrepancy}"))

    out.append(("ci-control-pairing",
                not koszul.trivial_multiplication_check(ci).verdict,
                "complete intersection keeps a non-trivial product"))

    sq3 = Ideal.from_strings(r3, ["x^2", "x*y", "y^2"])
    out.append(("trivial-multiplication-strongly-golod",
                koszul.trivial_multiplication_check(sq3).verdict,
                "(x^2,xy,y^2) in 3 variables multiplies trivially"))

    cubes = monomial.MonomialIdeal(r2, [(3, 0), (0, 3)])
    closure = monomial.integral_closure(cubes)
    want_cl = monomial.MonomialIdeal(r2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    out.append(("integral-closure-cubes", closure == want_cl,
                "closure of (x^3,y^3) adds x^2 y and x y^2"))

    zxy = monomial.MonomialIdeal(r3, [(2, 0, 1), (1, 1, 1), (0, 2, 1)])
    comps = dict(monomial.minimal_primary_components(zxy))
    ok = (comps.get((0, 1)) == monomial.MonomialIdeal(r3, [(2, 0, 0), (1, 1, 0), (0, 2, 0)])
          and comps.get((2,)) == monomial.MonomialIdeal(r3, [(0, 0, 1)]))
    out.append(("minimal-primary-components", ok,
                "z(x,y)^2 splits into (x,y)^2 and (z)"))

    f = parse_polynomial(r2, "x^2*y")
    P = Ideal.from_strings(r2, ["x"])
    ok = (calculus.zariski_nagata_membership(f, P, 2)
          and not calculus.zariski_nagata_membership(parse_polynomial(r2, "x"), P, 2))
    out.append(("symbolic-membership-by-derivatives", ok,
                "x^2 y sits in the second symbolic power of (x), x does not"))

    P3 = Ideal.from_strings(r3, ["x", "y", "z"])
    bigger = calculus.add_prime_power(sq3, P3, 3)
    out.append(("add-prime-power", calculus.strongly_golod(bigger).verdict,
                "(x^2,xy,y^2) + (x,y,z)^3 passes the predicate"))
    return out


def _cmd_paper_examples(args, session):
    results = _builtin_examples()
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    ok_all = all(ok for _, ok, _ in results)
    lines.append(f"{sum(ok for _, ok, _ in results)}/{len(results)} checks passed")
    payload = {"results": [{"name": n, "pass": ok, "detail": d} for n, ok, d in results]}
    return lines, payload, 0 if ok_all else 1


def _cmd_search_product_golod(args, session):
    if args.count < 0:
        raise ValueError("--count must be non-negative")
    rng = Random(args.seed)
    entries = [e for e in calculus.builtin_corpus() if not e.ideal.is_zero()]
    by_ring: dict = {}
    for e in entries:
        by_ring.setdefault(e.ideal.ring, []).append(e)
    pools = [v for v in by_ring.values() if len(v) >= 2]
    lines = []
    recs = []
    for _ in range(args.count):
        pool = rng.choice(pools)
        a, b = rng.sample(pool, 2)
        prod = Ideal(a.ideal.ring,
                     [p * q for p in a.ideal.generators for q in b.ideal.generators])
        v = poincare.golod_verdict(prod, 3)
        lines.append(f"{a.name} * {b.name}: {v.status}")
        recs.append({"left": a.name, "right": b.name, "status": v.status})
    return lines, {"seed": args.seed, "results": recs}, 0


def _has_odd_cycle(G: monomial.Graph) -> bool:
    color = {}
    adj = {i: [] for i in range(G.n)}
    for i, j in G.edges:
        adj[i].append(j)
        adj[j].append(i)
    for start in range(G.n):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return True
    return False


def _cmd_search_odd_cycle_containment(args, session):
    if args.count < 0:
        raise ValueError("--count must be non-negative")
    if args.max_vertices < 3:
        raise ValueError("--max-vertices must be at least 3, the smallest odd cycle")
    rng = Random(args.seed)
    lines = []
    recs = []
    tried = 0
    while len(recs) < args.count and tried < 200:
        tried += 1
        n = rng.randint(3, args.max_vertices)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        G = monomial.Graph.from_edges(n, pairs)
        if not G.edges or not _has_odd_cycle(G):
            continue
        J = monomial.vertex_cover_ideal(G)
        holds = J.power(3).contains(monomial.squarefree_symbolic_power(J, 2).power(2))
        edges = sorted(G.edges)
        lines.append(f"n={n} edges={edges}: (J^(2))^2 in J^3: {holds}")
        recs.append({"n": n, "edges": [list(e) for e in edges], "holds": holds})
    return lines, {"seed": args.seed, "results": recs}, 0


# -- argument wiring ---------------------------------------------------------------

_IDEAL = ("ideal", {})
_K = ("--k", {"type": int, "default": 2})
_WINDOW = [_IDEAL, ("--homological", {"type": int, "default": None}),
           ("--internal", {"type": int, "default": None})]

# (name, handler, arguments) in --help order
_COMMANDS = [
    ("check-strongly-golod", _cmd_check_strongly_golod, [_IDEAL]),
    ("derivative-ideal", _cmd_derivative_ideal, [_IDEAL]),
    ("power", _cmd_power, [_IDEAL, _K]),
    ("symbolic-power", _cmd_symbolic_power,
     [_IDEAL, _K,
      ("--L", {"help": "saturate at this named ideal instead of the maximal one"})]),
    ("saturated-power", _cmd_saturated_power, [_IDEAL, _K]),
    *((name, _cmd_binary, [("left", {}), ("right", {})])
      for name in ("colon", "intersect", "sum", "product")),
    ("add-prime-power", _cmd_add_prime_power, [_IDEAL, ("prime", {}), _K]),
    ("vertex-cover-ideal", _cmd_vertex_cover_ideal, [("graph", {})]),
    ("odd-cycle-suite", _cmd_odd_cycle_suite,
     [("n", {"type": int}), ("--k", {"type": int, "default": 3})]),
    ("squarefree-symbolic", _cmd_squarefree_symbolic, [_IDEAL, _K]),
    ("integral-closure", _cmd_integral_closure, [_IDEAL]),
    ("primary-components", _cmd_primary_components, [_IDEAL]),
    ("betti", _cmd_betti, [_IDEAL]),
    ("koszul-homology", _cmd_koszul_homology, _WINDOW),
    ("trivial-multiplication", _cmd_trivial_multiplication, _WINDOW),
    ("poincare", _cmd_verdict, _WINDOW),
    ("golod-verdict", _cmd_verdict, _WINDOW),
    ("paper-examples", _cmd_paper_examples, []),
    ("search-product-golod", _cmd_search_product_golod,
     [("--count", {"type": int, "default": 3})]),
    ("search-odd-cycle-containment", _cmd_search_odd_cycle_containment,
     [("--count", {"type": int, "default": 5}),
      ("--max-vertices", {"type": int, "default": 5})]),
]


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole grammar, built on the first call and reused by every later one."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--session", help="session file declaring ring and ideals")
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument("--order", choices=["grevlex"], default="grevlex",
                        help="monomial order used for displayed bases")
    common.add_argument("--seed", type=int, default=0, help="seed for search commands")

    parser = argparse.ArgumentParser(
        prog="golodkit",
        description="Ideal calculus, Koszul homology, and Golod verdicts over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, arguments in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(func=func)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        session = parse_session(args.session) if args.session else None
        lines, payload, code = args.func(args, session)
        if args.json:
            lines = [json.dumps({"command": args.command, **payload}, sort_keys=True)]
        for line in lines:
            print(line)
        return code
    except (AlgebraError, ValueError, OSError) as exc:  # ParseError is an AlgebraError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
