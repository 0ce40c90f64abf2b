"""Seams: cutting a vector compatibly with several parsings at once.

A vector that parses with respect to several bases can be cut at the
positions where block boundaries of all those parsings coincide.  The
pieces between consecutive common cuts are the segments; negating any
choice of segments rewrites every parsing blockwise, so the result still
lies strictly above each of the original bases while its crossing
number moves.  This is the engine behind producing many knots of
consecutive crossing numbers above a fixed pair of smaller knots.

The module also provides the 3-fold lift: given a vector c with
crossing number n and any target N >= 3n, build a vector of crossing
number exactly N that parses with respect to c with fold 3.
"""

from __future__ import annotations

from itertools import accumulate

from ._value import Value
from .parsing import Parsing, is_strictly_greater
from .vectors import SEvenVector, _knot_of_entries, _pack, canonical_vector, crossing_number

__all__ = [
    "SeamSet",
    "find_seams",
    "lift_construction",
    "negate_segments",
]


class SeamSet(Value):
    """A vector, the parsings being respected, and their common cuts."""

    __slots__ = ("vector", "parsings", "cuts")
    vector: SEvenVector
    parsings: tuple[Parsing, ...]
    cuts: tuple[int, ...]

    def __init__(self, vector: SEvenVector, parsings: tuple[Parsing, ...], cuts: tuple[int, ...]) -> None:
        self._fill(vector, parsings, cuts)

    @property
    def segments(self) -> tuple[tuple[int, int], ...]:
        """1-based inclusive entry ranges between consecutive cuts."""
        cuts = self.cuts
        return tuple((lo + 1, hi) for lo, hi in zip((0,) + cuts, cuts + (len(self.vector),)))

    def to_json_dict(self) -> dict:
        return {
            "vector": list(self.vector.entries),
            "cuts": list(self.cuts),
            "segments": [list(seg) for seg in self.segments],
            "parsings": [p.to_json_dict() for p in self.parsings],
        }


def find_seams(v: SEvenVector, parsings: tuple[Parsing, ...]) -> SeamSet:
    """Common interior block boundaries of all the given parsings of v.

    Each parsing is checked against v on packed bytes, and its block ends
    are the running sums of its layout's lengths.
    """
    if not parsings:
        raise ValueError("need at least one parsing to take seams of")
    packed, ends = _pack(v.entries), []
    for p in parsings:
        layout = p._layout()
        if b"".join(layout) != packed:
            raise ValueError(
                f"parsing with base {p.base} does not assemble to the given vector"
            )
        ends.append(accumulate(map(len, layout)))
    common = set(ends[0]).intersection(*ends[1:])
    common.discard(len(packed))
    return SeamSet(v, tuple(parsings), tuple(sorted(common)))


def negate_segments(seams: SeamSet, segments: tuple[int, ...]) -> SEvenVector:
    """Negate the chosen segments (1-based) and re-verify the order.

    The sum of absolute entry values is unchanged by construction.  The
    negated vector is checked to be a valid vector and to still lie
    strictly above the knot class of every base appearing among the
    seam parsings; violations are rejected, not repaired.
    """
    ranges = seams.segments
    chosen = sorted(set(segments))
    if not chosen:
        raise ValueError("no segments selected")
    for s in chosen:
        if not 1 <= s <= len(ranges):
            raise ValueError(f"segment {s} out of range 1..{len(ranges)}")
    entries = list(seams.vector.entries)
    for s in chosen:
        lo, hi = ranges[s - 1]
        for i in range(lo - 1, hi):
            entries[i] = -entries[i]
    try:
        out = SEvenVector(tuple(entries))
    except ValueError as exc:
        raise ValueError(
            f"negating segments {chosen} breaks the vector at a zero entry: {exc}"
        ) from exc

    out_class = canonical_vector(out)
    for base in dict.fromkeys(canonical_vector(p.base) for p in seams.parsings):
        if not is_strictly_greater(out_class, base):
            knot = _knot_of_entries(base.representative.entries)
            raise ValueError(
                f"negating segments {chosen} loses the order above {knot.canonical}"
            )
    return out


def lift_construction(c: SEvenVector, target: int) -> SEvenVector:
    """A vector of crossing number ``target`` strictly above c, fold 3.

    The three tiles are copies of c; the first connector absorbs the
    crossing-number surplus.  When the surplus over 3*cr(c) is even the
    tiles keep their signs and the connector runs in the direction of
    the last entry of c; when it is odd the second and third tiles flip
    sign, which costs one crossing at the connector junction, and the
    connector grows by one unit to compensate.
    """
    if c.is_empty:
        raise ValueError("cannot lift the empty vector")
    n = crossing_number(c)
    if target < 3 * n:
        raise ValueError(
            f"target {target} below the minimum 3*{n} = {3 * n} for this vector"
        )
    surplus = target - 3 * n
    if surplus % 2 == 0:
        m = surplus if c.entries[-1] > 0 else -surplus
        parsing = Parsing(base=c, signs=(1, 1, 1), connectors=(m, 0))
    else:
        parsing = Parsing(base=c, signs=(1, -1, -1), connectors=(surplus + 1, 0))
    return parsing.assemble()
