"""``negate``: negate seam segments and re-verify the order."""

from ..cli import _as_vector
from ._shared import _knot_fields, _report, _seam_bases


def _cmd_negate(args):
    from ..seams import _gather_seams, negate_segments

    vec = _as_vector(args.input)
    try:
        segments = tuple(sorted({int(t) for t in args.segments.split(",")}))
    except ValueError:
        raise ValueError(f"--segments takes comma separated segment numbers, got {args.segments!r}") from None
    bases = _seam_bases(vec, args.wrt)
    seam = _gather_seams(vec, bases)
    out = negate_segments(seam, segments)
    fields = _knot_fields(out) + [("negated-segments", segments), ("still-above", bases)]
    return _report(fields, cuts=seam.cuts)
