"""The public API: each module's ``__all__`` is re-exported from the package root."""

import os
import subprocess
import sys
from pathlib import Path

import twobridge
from twobridge import bounds, enumeration, parsing, rationals, seams, vectors

MODULES = (bounds, enumeration, parsing, rationals, seams, vectors)

# The package root's names, frozen in their published order.
PUBLIC_NAMES = [
    "BudgetExceededError",
    "CFDivisionError",
    "CatalogEntry",
    "CmEntry",
    "DEFAULT_BUDGET",
    "EvenCF",
    "Fraction",
    "InvalidFractionError",
    "KnotCatalog",
    "KnotClass",
    "NoCommonFamilyError",
    "Parsing",
    "SEvenVector",
    "SeamSet",
    "TWO_SMALLER_WITNESSES",
    "TwoConnectorForm",
    "VectorClass",
    "WitnessReport",
    "assemble_two_connector",
    "bound_entry",
    "bound_table",
    "canonical_fraction",
    "canonical_vector",
    "connector_vector",
    "contract",
    "crossing_number",
    "ek_exact_at_bound",
    "enumerate_knots",
    "epimorphism_number",
    "evaluate_cf",
    "evaluate_terms",
    "even_expansion",
    "expand",
    "find_parsings",
    "find_seams",
    "is_strictly_greater",
    "knot_classes",
    "knot_from_vector",
    "least_odd_with_divisors",
    "lift_construction",
    "minimal_upper_bound",
    "most_divisors_up_to",
    "negate_segments",
    "nontrivial_proper_divisor_count",
    "parses_with_respect_to",
    "same_knot",
    "smaller_knots",
    "torus_vector",
    "two_connector_decompose",
    "vector_from_knot",
    "verify_witness_table",
]


def test_root_all_is_frozen():
    assert twobridge.__all__ == PUBLIC_NAMES


def test_module_names_are_the_same_objects_at_the_root():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(twobridge, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_root_all_is_the_union_of_module_lists():
    assert set().union(*(mod.__all__ for mod in MODULES)) == set(twobridge.__all__)


def test_star_import_binds_every_name():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "from twobridge import *\n"
        "import twobridge\n"
        "missing = [n for n in twobridge.__all__ if n not in globals()]\n"
        "print(len(twobridge.__all__), missing)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "51 []\n"
