"""``seams``: the common cut positions over all parsings of a vector."""

from ..cli import _as_vector
from ._shared import _seam_bases


def _cmd_seams(args):
    from ..seams import _gather_seams

    vec = _as_vector(args.input)
    bases = _seam_bases(vec, args.wrt)
    seam = _gather_seams(vec, bases)
    segs = " ".join(f"{i}={lo}..{hi}" for i, (lo, hi) in enumerate(seam.segments, 1))
    text = "\n".join(
        [
            f"vector: {vec}",
            f"bases: {' '.join(map(str, bases))}",
            f"parsings: {len(seam.parsings)}",
            f"cuts: {','.join(str(c) for c in seam.cuts) or '-'}",
            f"segments: {segs}",
        ]
    )
    payload = seam.to_json_dict()
    payload["bases"] = [str(k.canonical) for k in bases]
    return text, payload, 0
