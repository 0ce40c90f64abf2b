"""``torus``: the (2,q) torus knot, its vector, and the knots below it."""

from ._shared import _below, _report


def _cmd_torus(args):
    from ..vectors import crossing_number, knot_from_vector, torus_vector

    vec = torus_vector(args.q)
    knot = knot_from_vector(vec)
    below = _below(vec)
    fields = [("fraction", knot), ("vector", vec), ("crossing-number", crossing_number(vec))]
    return _report(fields + [("count", len(below))], map(str, below), smaller=below)
