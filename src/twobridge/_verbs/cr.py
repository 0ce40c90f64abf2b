"""``cr``: the crossing number of a knot or vector."""

from ..cli import _as_vector


def _cmd_cr(args):
    from ..vectors import crossing_number

    vec = _as_vector(args.input)
    n = crossing_number(vec)
    return str(n), {"vector": list(vec.entries), "crossing_number": n}, 0
