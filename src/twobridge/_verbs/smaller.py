"""``smaller``: the knots strictly below a knot or vector."""

from ..cli import _as_vector
from ._shared import _below, _report


def _cmd_smaller(args):
    vec = _as_vector(args.input)
    below = _below(vec)
    return _report([("count", len(below))], map(str, below), vector=vec, smaller=below)
