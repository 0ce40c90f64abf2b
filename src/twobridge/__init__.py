"""Exact arithmetic for the epimorphism partial order on 2-bridge knots.

The package identifies a 2-bridge knot with the equivalence class of a
reduced fraction p/q (q odd), moves between fractions, all-even
continued fractions, and expanded even vectors, and decides the partial
order "maps onto" through vector parsings.  On top of the order it
provides crossing-number catalogs, the growth statistic EK(n) with its
divisor-counting bounds, seam negation, and 3-fold lifts.

``import twobridge`` loads no submodule.  The first use of a public name
imports its home module (PEP 562 ``__getattr__``) and binds all of that
module's public names here, so every later ``twobridge.X`` is a plain
attribute read.  ``from twobridge import *`` still binds all 51 names,
and submodules stay reachable as attributes.  Each CLI verb is a fresh
process, and without written bytecode every module it imports is
compiled again, so the root imports only what a name asks for.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOMES = {
    "BudgetExceededError": "enumeration",
    "CFDivisionError": "rationals",
    "CatalogEntry": "enumeration",
    "CmEntry": "bounds",
    "DEFAULT_BUDGET": "enumeration",
    "EvenCF": "rationals",
    "Fraction": "rationals",
    "InvalidFractionError": "rationals",
    "KnotCatalog": "enumeration",
    "KnotClass": "rationals",
    "NoCommonFamilyError": "parsing",
    "Parsing": "parsing",
    "SEvenVector": "vectors",
    "SeamSet": "seams",
    "TWO_SMALLER_WITNESSES": "enumeration",
    "TwoConnectorForm": "parsing",
    "VectorClass": "vectors",
    "WitnessReport": "enumeration",
    "assemble_two_connector": "parsing",
    "bound_entry": "bounds",
    "bound_table": "bounds",
    "canonical_fraction": "rationals",
    "canonical_vector": "vectors",
    "connector_vector": "vectors",
    "contract": "vectors",
    "crossing_number": "vectors",
    "ek_exact_at_bound": "bounds",
    "enumerate_knots": "enumeration",
    "epimorphism_number": "enumeration",
    "evaluate_cf": "rationals",
    "evaluate_terms": "rationals",
    "even_expansion": "rationals",
    "expand": "vectors",
    "find_parsings": "parsing",
    "find_seams": "seams",
    "is_strictly_greater": "parsing",
    "knot_classes": "enumeration",
    "knot_from_vector": "vectors",
    "least_odd_with_divisors": "bounds",
    "lift_construction": "seams",
    "minimal_upper_bound": "parsing",
    "most_divisors_up_to": "bounds",
    "negate_segments": "seams",
    "nontrivial_proper_divisor_count": "bounds",
    "parses_with_respect_to": "parsing",
    "same_knot": "rationals",
    "smaller_knots": "parsing",
    "torus_vector": "vectors",
    "two_connector_decompose": "parsing",
    "vector_from_knot": "vectors",
    "verify_witness_table": "enumeration",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        if name in _HOMES.values():
            return import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home}", __name__)
    public = {n: getattr(module, n) for n in module.__all__}
    globals().update(public)
    return public[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
