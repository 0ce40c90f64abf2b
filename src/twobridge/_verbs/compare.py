"""``compare``: the order relation between two knots."""

from ..cli import _as_vector
from ._shared import _report


def _cmd_compare(args):
    from ..parsing import is_strictly_greater
    from ..vectors import canonical_vector, knot_from_vector

    va = canonical_vector(_as_vector(args.a))
    vb = canonical_vector(_as_vector(args.b))
    ka = knot_from_vector(va.representative)
    kb = knot_from_vector(vb.representative)
    above = is_strictly_greater(va, vb)
    below = is_strictly_greater(vb, va)
    relation = "equal" if va == vb else "greater" if above else "less" if below else "incomparable"
    fields = [("a", ka), ("b", kb), ("relation", relation)]
    return _report(fields, a_above_b=above, b_above_a=below)
