"""Exact arithmetic for the epimorphism partial order on 2-bridge knots.

The package identifies a 2-bridge knot with the equivalence class of a
reduced fraction p/q (q odd), moves between fractions, all-even
continued fractions, and expanded even vectors, and decides the partial
order "maps onto" through vector parsings.  On top of the order it
provides crossing-number catalogs, the growth statistic EK(n) with its
divisor-counting bounds, seam negation, and 3-fold lifts.
"""

from .bounds import (
    CmEntry,
    bound_entry,
    bound_table,
    ek_exact_at_bound,
    least_odd_with_divisors,
    most_divisors_up_to,
    nontrivial_proper_divisor_count,
)
from .enumeration import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CatalogEntry,
    KnotCatalog,
    TWO_SMALLER_WITNESSES,
    WitnessReport,
    enumerate_knots,
    epimorphism_number,
    knot_classes,
    verify_witness_table,
)
from .parsing import (
    NoCommonFamilyError,
    Parsing,
    TwoConnectorForm,
    assemble_two_connector,
    connector_vector,
    find_parsings,
    is_strictly_greater,
    minimal_upper_bound,
    parses_with_respect_to,
    smaller_knots,
    two_connector_decompose,
)
from .rationals import (
    CFDivisionError,
    EvenCF,
    Fraction,
    InvalidFractionError,
    KnotClass,
    canonical_fraction,
    even_expansion,
    evaluate_cf,
    evaluate_terms,
    same_knot,
)
from .seams import (
    SeamSet,
    find_seams,
    lift_construction,
    negate_segments,
)
from .vectors import (
    SEvenVector,
    VectorClass,
    canonical_vector,
    contract,
    crossing_number,
    expand,
    knot_from_vector,
    torus_vector,
    vector_from_knot,
)

__version__ = "0.1.0"

__all__ = [
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
