"""``lift``: a vector with a chosen crossing number strictly above a given one."""

from ..cli import _as_vector
from ._shared import _knot_fields, _report


def _cmd_lift(args):
    from ..seams import lift_construction

    base = _as_vector(args.input)
    return _report(_knot_fields(lift_construction(base, args.target)), base=base)
