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
