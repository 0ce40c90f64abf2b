"""``convert``: the fraction, continued fraction and vector forms of a knot."""

from ..cli import _as_vector, _is_fraction
from ._shared import _report


def _cmd_convert(args):
    from ..rationals import Fraction, canonical_fraction, even_expansion
    from ..vectors import canonical_vector, crossing_number, knot_from_vector, vector_from_knot

    if _is_fraction(args.input):  # the knot is at hand, and its fraction keeps the one expansion
        knot = canonical_fraction(Fraction.parse(args.input))
        vec = vector_from_knot(knot).representative
    else:
        vec = canonical_vector(_as_vector(args.input)).representative
        knot = knot_from_vector(vec)
    cf, n = even_expansion(knot.canonical), crossing_number(vec)
    return _report([("fraction", knot), ("even-cf", cf), ("vector", vec), ("crossing-number", n)])
