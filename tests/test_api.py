"""The public API contract: the exported names of the golodkit package."""

import ast
from pathlib import Path

import golodkit

EXPECTED = [
    "AlgebraError", "BettiTable", "BigradedSeries", "ContainmentError", "CorpusEntry",
    "DerivativePairWitness", "GolodVerdict", "GradingSpec", "Graph", "HomogeneityError",
    "HomogeneityReport", "HomologySummary", "Ideal", "ImproperIdealError",
    "MonomialIdeal", "MonomialOrder", "MonomialQuotientWitness", "NormalForm",
    "OddCycleReport", "ParseError", "Polynomial", "PrimaryDecomposition", "Resolution",
    "RingMismatchError", "SandwichReport", "SaturationLimitError", "SaturationResult",
    "StronglyGolodReport", "SymbolicPowerResult", "SymbolicPowerSpec",
    "TrivialMultiplicationReport", "ZeroColonError", "actual_poincare",
    "add_prime_power", "betti_table", "builtin_corpus", "check_colon_condition",
    "colon", "contains", "cycle_graph", "derivative_cycle_check", "derivative_ideal",
    "golod_verdict", "integral_closure", "intersect", "irreducible_decomposition",
    "koszul_homology", "maximal_ideal", "minimal_free_resolution",
    "minimal_primary_components", "minimal_primes", "minimal_vertex_covers",
    "module_syzygies", "odd_cycle_suite", "parse_polynomial", "path_graph", "power",
    "ring_for_vertices", "sandwich_check", "saturate", "saturated_power",
    "serre_bound_series", "squarefree_generated_ideal", "squarefree_symbolic_power",
    "strongly_golod", "strongly_golod_monomial", "symbolic_power", "syzygies",
    "trivial_multiplication_check", "vertex_cover_ideal", "zariski_nagata_membership",
]


def test_all_is_pinned():
    assert len(EXPECTED) == 71
    assert golodkit.__all__ == EXPECTED


def test_every_exported_name_resolves():
    for name in golodkit.__all__:
        assert getattr(golodkit, name) is not None, name


def test_no_invariant_is_an_assert():
    # python -O strips assert statements; an invariant raises a domain error
    sources = sorted(Path(golodkit.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert len(sources) > 10 and found == []


def _tree(module: str) -> ast.Module:
    return ast.parse((Path(golodkit.__file__).parent / f"{module}.py").read_text())


def _fraction_calls(node: ast.AST) -> set[int]:
    return {id(call) for call in ast.walk(node) if isinstance(call, ast.Call)
            and "Fraction" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))}


def test_the_strand_layer_builds_fractions_only_for_public_cycle_reps():
    # strands, spans and kernels run on integer rows; only koszul._summarize
    # turns cycles into the Fraction representatives of HomologySummary
    imports = [node for node in ast.walk(_tree("linalg"))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = [getattr(node, "module", None) or "" for node in imports]
    names += [alias.name for node in imports for alias in node.names]
    assert names and not any("fraction" in name.lower() for name in names)
    koszul = _tree("koszul")
    summarize = next(node for node in koszul.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_summarize")
    inside = _fraction_calls(summarize)
    assert inside and _fraction_calls(koszul) == inside
    assert _fraction_calls(_tree("poincare")) == set()


def _sources() -> list[Path]:
    return sorted(Path(golodkit.__file__).parent.glob("*.py"))


def test_imports_are_at_module_level_and_monomial_sits_below_calculus():
    # a deferred import hides an import cycle; monomial is the layer below
    # calculus, which imports it once at the top
    nested = set()
    for path in _sources():
        for scope in ast.walk(ast.parse(path.read_text())):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested |= {f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert nested == set()
    imported = [node.module for node in ast.walk(_tree("monomial"))
                if isinstance(node, ast.ImportFrom)]
    assert "groebner" in imported and "calculus" not in imported
    assert "monomial" in [node.module for node in _tree("calculus").body
                          if isinstance(node, ast.ImportFrom)]


def test_sources_parse_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10
    for path in _sources():
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_only_the_strand_complex_eliminates_columns():
    # every tracked elimination runs inside koszul._Complex, on its cached columns
    callers = {path.name for path in _sources()
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and "kernel_of_columns" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None))}
    assert callers == {"koszul.py"}
