"""Session parsing, command output, JSON determinism, exit codes."""

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from golodkit import ParseError, betti_table, builtin_corpus, minimal_free_resolution, power
from golodkit import cli
from golodkit.cli import main, parse_session

# --help texts as argparse formats them at 80 columns
HELP_PINS = Path(__file__).parent / "data" / "help"


@pytest.fixture
def session_file(tmp_path):
    path = tmp_path / "demo.golod"
    path.write_text(
        """
# comments and blank lines are ignored
ring x, y, z weights 1, 1, 1

ideal I = x*z, y*z
ideal M2 = x^2, x*y, y^2   # trailing comments too
ideal Z = 0
graph C5 = cycle 5
graph P3 = path 3
"""
    )
    return str(path)


def test_parse_session_contents(session_file):
    s = parse_session(session_file)
    assert s.ring.names == ("x", "y", "z")
    assert set(s.ideals) == {"I", "M2", "Z"}
    assert s.ideals["Z"].is_zero()
    assert set(s.graphs) == {"C5", "P3"}
    assert s.graphs["C5"].n == 5


def test_parse_session_graph_file(tmp_path):
    (tmp_path / "square.graph").write_text("n 4\n1 2\n2 3\n3 4\n4 1\n")
    session = tmp_path / "s.golod"
    session.write_text("ring a,b weights 1,1\ngraph G = file square.graph\n")
    s = parse_session(str(session))
    assert s.graphs["G"].n == 4 and len(s.graphs["G"].edges) == 4


def test_parse_session_errors(tmp_path):
    cases = [
        ("ideal I = x\n", "ring"),          # ideal before ring
        ("ring x,y weights 1,1\nring a weights 1\n", "one ring"),
        ("ring x,y weights 1,1\nideal I = x + y^2\n", "homogeneous"),
        ("ring x,y weights 1,1\nideal I = x\nideal I = y\n", "duplicate"),
        ("ring x,y weights 1,1\nwhatever z\n", "unknown"),
        ("ring x,y weights 1,0\n", ""),
    ]
    for text, needle in cases:
        f = tmp_path / "bad.golod"
        f.write_text(text)
        with pytest.raises(ParseError) as exc:
            parse_session(str(f))
        assert needle in str(exc.value)


def test_ring_names_must_be_names_of_the_polynomial_grammar(tmp_path):
    # no generator could mention such a variable, so the ring line is refused
    f = tmp_path / "bad.golod"
    for names, bad in (("2x", "2x"), ("x, y z", "y z"), ("x, y-1", "y-1"), ("x, \u00e9", "\u00e9")):
        f.write_text(f"# header\nring {names} weights {', '.join('1' for _ in names.split(','))}\n")
        with pytest.raises(ParseError) as exc:
            parse_session(str(f))
        assert exc.value.message == f"variable {bad!r} is not a name that polynomials can use"
        assert exc.value.line == 2
    f.write_text("ring x_1, Y2, _z weights 1, 1, 1\nideal I = x_1*Y2 - _z^2\n")
    assert parse_session(str(f)).ring.names == ("x_1", "Y2", "_z")


def test_homogeneity_error_names_the_term(tmp_path):
    f = tmp_path / "bad.golod"
    f.write_text("ring x,y weights 1,2\nideal I = x^2 + y^2\n")
    with pytest.raises(ParseError) as exc:
        parse_session(str(f))
    msg = str(exc.value)
    assert "I" in msg and ("y^2" in msg or "x^2" in msg)
    # under weights (1,2) the same polynomial would be fine with x^4
    f.write_text("ring x,y weights 1,2\nideal I = x^4 + y^2\n")
    parse_session(str(f))


def test_exit_codes(session_file, capsys):
    assert main(["check-strongly-golod", "M2", "--session", session_file]) == 0
    assert main(["check-strongly-golod", "I", "--session", session_file]) == 1
    assert main(["check-strongly-golod", "missing", "--session", session_file]) == 2
    assert main(["betti", "M2", "--session", "/does/not/exist"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("gen, reason", [
    ("x/0", "unexpected '/' at position 1 in 'x/0'"),
    ("x**2", "expected a factor at position 2"),
    ("(x+y)^2", "expected a factor at position 0"),
])
def test_malformed_generator_is_a_clean_error(tmp_path, capsys, gen, reason):
    session = tmp_path / "bad.golod"
    session.write_text(f"ring x, y weights 1, 1\nideal A = {gen}\n")
    assert main(["derivative-ideal", "A", "--session", str(session)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: in generator {gen!r}: {reason} (line 2)\n"


def test_witness_shown_on_failure(session_file, capsys):
    main(["check-strongly-golod", "I", "--session", session_file])
    out = capsys.readouterr().out
    assert "z^2" in out


def test_json_output_is_deterministic(session_file, capsys):
    main(["betti", "M2", "--session", session_file, "--json"])
    first = capsys.readouterr().out
    main(["betti", "M2", "--session", session_file, "--json"])
    second = capsys.readouterr().out
    assert first == second
    obj = json.loads(first)
    assert {"i": 1, "d": 2, "rank": 3} in obj["entries"]


def test_unary_command_outputs(session_file, capsys):
    assert main(["derivative-ideal", "I", "--session", session_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert sorted(obj["generators"]) == ["x", "y", "z"]

    assert main(["power", "I", "--k", "2", "--session", session_file]) == 0
    capsys.readouterr()

    assert main(["symbolic-power", "I", "--k", "2", "--session", session_file,
                 "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["mode"] == "saturated"

    assert main(["saturated-power", "M2", "--k", "2", "--session", session_file]) == 0
    capsys.readouterr()


def test_binary_commands(session_file, capsys):
    for cmd in ("colon", "intersect", "sum", "product"):
        assert main([cmd, "M2", "I", "--session", session_file, "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["command"] == cmd


@pytest.mark.parametrize("argv, first_line", [
    (["derivative-ideal", "Z"], "derivative ideal: 0"),
    (["power", "Z"], "power 2: 0"),
    (["integral-closure", "Z"], "integral closure: 0"),
    (["squarefree-symbolic", "Z"], "symbolic power via minimal primes, k=2: 0"),
    (["symbolic-power", "Z"], "symbolic power (mode saturated, k=2): 0"),
    (["saturated-power", "Z"], "saturated power k=2: 0"),
    (["primary-components", "Z"], "prime (): 0 [strongly Golod: True]"),
    (["sum", "Z", "Z"], "sum: 0"),
])
def test_zero_ideal_prints_as_zero(tmp_path, capsys, argv, first_line):
    session = tmp_path / "zero.golod"
    session.write_text("ring x, y weights 1, 1\nideal Z = 0\n")
    assert main([*argv, "--session", str(session)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == first_line
    assert main([*argv, "--session", str(session), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj.get("generators", []) == []


def test_graph_commands(session_file, capsys):
    assert main(["vertex-cover-ideal", "C5", "--session", session_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["generators"]) == 5
    assert main(["odd-cycle-suite", "5", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["minimal_cover_count"] == 5
    assert all(obj["checks"].values())


def test_monomial_only_commands(session_file, capsys):
    assert main(["squarefree-symbolic", "I", "--k", "2", "--session", session_file]) == 0
    capsys.readouterr()
    assert main(["integral-closure", "M2", "--session", session_file]) == 0
    capsys.readouterr()
    assert main(["primary-components", "I", "--session", session_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    primes = sorted(tuple(c["prime"]) for c in obj["components"])
    assert primes == [("x", "y"), ("z",)]


def test_homology_and_series_commands(session_file, capsys):
    assert main(["koszul-homology", "M2", "--session", session_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert {"l": 1, "d": 2, "dim": 3} in obj["dims"]

    assert main(["trivial-multiplication", "M2", "--session", session_file]) == 0
    capsys.readouterr()

    assert main(["poincare", "M2", "--session", session_file, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "GOLOD-up-to-truncation"

    assert main(["golod-verdict", "M2", "--session", session_file]) == 0
    capsys.readouterr()


def test_golod_verdict_exit_one_on_negative(tmp_path, capsys):
    f = tmp_path / "ci.golod"
    f.write_text("ring x,y weights 1,1\nideal CI = x^2, y^2\n")
    assert main(["golod-verdict", "CI", "--session", str(f)]) == 1
    out = capsys.readouterr().out
    assert "NOT-GOLOD" in out
    assert main(["trivial-multiplication", "CI", "--session", str(f)]) == 1
    capsys.readouterr()


def test_golod_verdict_window_too_small_for_i_max_is_inconclusive(session_file, capsys):
    # internal degree 1 cannot see homological degree 2
    assert main(["golod-verdict", "M2", "--session", session_file,
                 "--homological", "2", "--internal", "1"]) == 0
    assert "status: INCONCLUSIVE" in capsys.readouterr().out.splitlines()


def test_negative_koszul_bound_exits_two(session_file, capsys):
    assert main(["trivial-multiplication", "M2", "--session", session_file,
                 "--internal", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bounds must be non-negative\n"


def test_negative_homological_bound_exits_two(session_file, capsys):
    for command in ("poincare", "golod-verdict"):
        assert main([command, "M2", "--session", session_file, "--homological", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bounds must be non-negative\n"


def test_verdict_commands_exit_two_outside_the_square_of_the_maximal_ideal(tmp_path, capsys):
    f = tmp_path / "lin.golod"
    f.write_text("ring x, y weights 1, 2\nideal W = x^2 - y\n")
    for command in ("poincare", "golod-verdict"):
        assert main([command, "W", "--session", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the verdict needs I inside m^2, but generator "
                                "x^2 - y has the linear term y\n")


def test_add_prime_power_command(tmp_path, capsys):
    f = tmp_path / "s.golod"
    f.write_text("ring x,y,z weights 1,1,1\n"
                 "ideal I = x^2, x*y, y^2\n"
                 "ideal P = x, y, z\n")
    assert main(["add-prime-power", "I", "P", "--k", "3", "--session", str(f)]) == 0
    capsys.readouterr()
    # a non-prime P trips the derivative containment guard
    f.write_text("ring x,y,z weights 1,1,1\n"
                 "ideal I = x^2, x*y, y^2\n"
                 "ideal P = x^2, x*y, y^2\n")
    assert main(["add-prime-power", "I", "P", "--k", "2", "--session", str(f)]) == 2
    capsys.readouterr()


def test_search_commands_are_seeded(capsys):
    assert main(["search-odd-cycle-containment", "--seed", "5", "--count", "2",
                 "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["search-odd-cycle-containment", "--seed", "5", "--count", "2",
                 "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    records = json.loads(first)["results"]
    assert len(records) == 2
    # seed 5 rediscovers the complete-graph counterexample: the containment
    # that holds for odd cycles fails for K4's cover ideal on a degree count
    assert [rec["holds"] for rec in records] == [True, False]


# stdout of `search-product-golod --seed 1 --count 10 --json`; two of the
# products (with seeded-poly-2) live in 4 variables
_SEARCH_SEED_1 = (
    '{"command": "search-product-golod", "results": ['
    '{"left": "triangle-cover", "right": "seeded-monomial-1", '
    '"status": "GOLOD-up-to-truncation"}, '
    '{"left": "seeded-poly-7", "right": "seeded-poly-4", '
    '"status": "GOLOD-up-to-truncation"}, '
    '{"left": "seeded-poly-3", "right": "seeded-poly-0", '
    '"status": "GOLOD-up-to-truncation"}, '
    '{"left": "triangle-cover", "right": "seeded-monomial-4", '
    '"status": "GOLOD-up-to-truncation"}, '
    '{"left": "seeded-poly-4", "right": "seeded-monomial-4", '
    '"status": "GOLOD-up-to-truncation"}, '
    '{"left": "squarefree-4-3", "right": "seeded-poly-2", '
    '"status": "GOLOD-up-to-truncation"}, '
    '{"left": "seeded-monomial-0", "right": "ci-control", '
    '"status": "GOLOD-up-to-truncation"}, '
    '{"left": "square-of-maximal", "right": "seeded-poly-6", '
    '"status": "GOLOD-up-to-truncation"}, '
    '{"left": "product-counterexample", "right": "seeded-monomial-4", '
    '"status": "GOLOD-up-to-truncation"}, '
    '{"left": "seeded-monomial-2", "right": "seeded-poly-2", '
    '"status": "GOLOD-up-to-truncation"}]'
    ', "seed": 1}\n'
)


def test_search_product_golod_seed_1_is_pinned(capsys):
    assert main(["search-product-golod", "--seed", "1", "--count", "10", "--json"]) == 0
    assert capsys.readouterr().out == _SEARCH_SEED_1


def test_search_commands_reject_invalid_arguments(capsys):
    cases = [
        (["search-odd-cycle-containment", "--max-vertices", "2"], "--max-vertices"),
        (["search-odd-cycle-containment", "--count", "-1"], "--count"),
        (["search-product-golod", "--count", "-1"], "--count"),
    ]
    for argv, needle in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and needle in captured.err, argv
        assert "randrange" not in captured.err


def test_order_flag_rejects_unknown(session_file):
    with pytest.raises(SystemExit):
        main(["betti", "M2", "--session", session_file, "--order", "lex"])


def _session_text(ring, ideals) -> str:
    lines = [f"ring {', '.join(ring.names)} weights {', '.join(map(str, ring.weights))}"]
    lines += [f"ideal {name} = {', '.join(str(g) for g in I.generators)}"
              for name, I in ideals.items()]
    return "\n".join(lines) + "\n"


# the Schreyer pipeline takes minutes on this dense ideal
_DENSE = ("-x*y - 3*y*z + z^2, 2*x*y + x*z + 1/2*y*z + 1/2*z^2, "
          "1/2*x^3 + 1/2*y^3 - x^2*z + y^2*z + 1/2*x*z^2 + y*z^2 + 1/2*z^3")


def test_betti_reads_koszul_homology_without_resolving(tmp_path, capsys, no_resolution):
    f = tmp_path / "dense.golod"
    f.write_text(f"ring x, y, z weights 1, 1, 1\nideal D = {_DENSE}\nideal U = 1\n")
    assert main(["betti", "D", "--json", "--session", str(f)]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert {(e["i"], e["d"]): e["rank"] for e in entries} == {
        (0, 0): 1, (1, 2): 2, (1, 3): 1, (2, 4): 1, (2, 5): 2, (3, 7): 1}
    assert main(["betti", "U", "--session", str(f)]) == 2
    assert capsys.readouterr().err == "error: S/I vanishes for the unit ideal\n"


def test_betti_matches_the_resolution_api_on_the_corpus_and_its_squares(tmp_path, capsys):
    for k, e in enumerate(builtin_corpus()):
        path = tmp_path / f"{k}.golod"
        path.write_text(_session_text(e.ideal.ring, {"I": e.ideal, "Q": power(e.ideal, 2)}))
        session = parse_session(path)
        for name, I in session.ideals.items():
            assert main(["betti", name, "--json", "--session", str(path)]) == 0
            got = json.loads(capsys.readouterr().out)["entries"]
            want = betti_table(minimal_free_resolution(I)).to_json_obj()
            assert got == want, (e.name, name)


def test_parser_is_built_once_and_not_at_import():
    assert cli._build_parser() is cli._build_parser()
    probe = "import golodkit.cli as c; print(c._build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout == "0\n"


@pytest.mark.parametrize("command", [None, "symbolic-power", "add-prime-power",
                                     "odd-cycle-suite", "golod-verdict",
                                     "search-odd-cycle-containment"])
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(([command] if command else []) + ["--help"])
    assert exc.value.code == 0
    pin = HELP_PINS / f"{command or 'golodkit'}.txt"
    assert capsys.readouterr().out == pin.read_text()


_SWEEP_IDEALS = {"Z": "0", "U": "1", "M": "x, y, z", "Q": "x^2*z^2, x*y*z^2, y^2*z^2"}
# every command whose positional arguments name ideals, with those arguments
_IDEAL_COMMANDS = {name: [flag for flag, _ in arguments if not flag.startswith("-")]
                   for name, _, arguments in cli._COMMANDS
                   if any(flag in ("ideal", "left", "right") for flag, _ in arguments)}


@pytest.mark.parametrize("command", sorted(_IDEAL_COMMANDS))
def test_ideal_commands_exit_cleanly_on_edge_ideals(command, tmp_path, capsys):
    # the zero ideal, the unit ideal, the maximal ideal and a square, in every
    # position: each run is a verdict or one error line, never a traceback
    f = tmp_path / "edge.golod"
    f.write_text("ring x, y, z weights 1, 1, 1\n"
                 + "".join(f"ideal {k} = {v}\n" for k, v in _SWEEP_IDEALS.items()))
    for names in product(_SWEEP_IDEALS, repeat=len(_IDEAL_COMMANDS[command])):
        code = main([command, *names, "--session", str(f)])
        captured = capsys.readouterr()
        assert code in (0, 1, 2), names
        lines = captured.err.splitlines()
        assert not lines or (len(lines) == 1 and lines[0].startswith("error: ")), names
        assert (code == 2) == bool(lines), names
