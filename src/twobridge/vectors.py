"""Expanded even vectors: the combinatorial normal form for 2-bridge knots.

An expanded even vector is a finite even-length sequence over {-2, 0, 2}
whose first and last entries are nonzero and in which every zero has
equal nonzero neighbors.  Expanding each even partial quotient 2m of an
all-even continued fraction into the run +/-(2, 0, 2, ..., 0, 2) with m
nonzero entries, and concatenating the runs, turns the continued
fraction normal form into such a vector; contraction, the value of each
run in order, inverts the expansion.  A run is written by
``connector_vector`` and read by ``_connector_read``, for partial
quotients here and for parsing connectors in :mod:`twobridge.parsing`.

Vectors are considered up to negation and reversal.  Evaluating a vector
as a continued fraction (integer part 0) and canonicalizing the result
is a bijection between vector classes and 2-bridge knots, so every knot
has exactly one vector class, and the crossing number can be read off
the vector: the sum of absolute entries minus the number of sign changes
in the sequence of nonzero entries.

Two rules live here and nowhere else, both on plain entry tuples:
``_class_representative`` picks the vector that stands for a class (the
lexicographic maximum of the orbit), and ``_knot_of_entries`` reads the
knot a vector denotes off its continuants, the product of
[[x, 1], [1, 0]] over the entries, with nothing to reduce and no
inverse taken.  Every knot read from a vector is read by that rule:
``knot_from_vector``, the knots of the smaller sets in
:mod:`twobridge.parsing` and of the seams in :mod:`twobridge.seams`, and
the catalog of :mod:`twobridge.enumeration`, whose class search
multiplies the same matrices half by half.  The least
of +/-p and +/-p^-1 mod q, which names the knot, is
``rationals._orbit_min``, which ``KnotClass`` uses too.

Vectors are checked where they enter, by ``SEvenVector(...)`` and ``parse``;
:class:`VectorClass`, like ``KnotClass``, normalizes any vector to its class.
``SEvenVector._unchecked`` skips the check where validity holds by
construction: orbits and class representatives (negation and reversal keep
it), ``expand`` of a checked ``EvenCF`` and ``torus_vector`` (evenly many
odd-length runs, nonzero ends), a checked ``Parsing``'s assembly (a zero
connector joins equal-sign tiles, whose facing ends agree), and the
``two_connector_decompose`` generator and class-checked prefixes (even
prefixes of a vector that end nonzero).  ``KnotClass._unchecked`` likewise
skips normalization for a fraction that already is its knot's canonical
one (``_knot_of_entries``).  Each is ``object.__new__(cls)._fill(...)``,
which puts the fields straight into the slots (``_value.Value``).
The catalog fills its objects the same way in its own loops, without
these calls: ``enumeration._class_vectors`` each knot and its fraction,
and ``enumerate_knots`` each entry, its ``VectorClass`` and its
``SEvenVector``.  Its class representatives need no check, since the
class search joins two valid half-vectors and puts a 0 at the junction
only between equal nonzero entries.  All these values are slotted and
immutable, so one built unchecked stays as valid as the caller made it.

The check, ``crossing_number`` and ``expand`` read or write the packed form
of an entry tuple, one signed byte per entry (``_pack``): 2, 0 and -2 are
the bytes 0x02, 0x00 and 0xfe, and negation is one ``bytes.translate``
(``_NEGATE``), so their work per entry runs in C.  A valid vector passes
on its bytes (``_packs_valid``); the entry loop of ``_check_entries`` runs
only on what they refuse, and it alone words the errors.
:mod:`twobridge.parsing` finds border prefixes on the same bytes.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable

from ._value import Value
from .rationals import EvenCF, Fraction, KnotClass, _orbit_min, even_expansion

__all__ = [
    "SEvenVector",
    "VectorClass",
    "canonical_vector",
    "connector_vector",
    "contract",
    "crossing_number",
    "expand",
    "knot_from_vector",
    "torus_vector",
    "vector_from_knot",
]

_ALLOWED = (-2, 0, 2)
_ENTRY_BYTES = b"\x02\x00\xfe"  # 2, 0 and -2 packed
_NEGATE = bytes.maketrans(b"\x02\xfe", b"\xfe\x02")


def _pack(entries: tuple[int, ...]) -> bytes:
    """The entries as signed bytes, one each; ``struct.error`` on a non-integer or one outside -128..127."""
    return struct.pack(f"{len(entries)}b", *entries)


def _packs_valid(entries: tuple[int, ...]) -> bool:
    """True when the packed entries form a valid vector.

    Even length, nonzero ends, no byte but 2, 0 and -2, and no 0 next to a
    0 or between unequal entries: with the ends nonzero, every zero then
    has equal nonzero neighbors.
    """
    try:
        b = _pack(entries)
    except struct.error:
        return False
    if len(b) % 2 or (b and not (b[0] and b[-1])) or b.translate(None, _ENTRY_BYTES):
        return False
    return b"\x00\x00" not in b and b"\x02\x00\xfe" not in b and b"\xfe\x00\x02" not in b


def _check_entries(e: tuple[int, ...]) -> None:
    """Raise ValueError for the first fault of an entry tuple, reading it entry by entry.

    An entry is an integer, as ``struct`` reads one: ``2.0`` is refused
    although it equals 2.
    """
    if len(e) % 2:
        raise ValueError(f"length {len(e)} is odd")
    if e:
        if e[0] == 0 or e[-1] == 0:
            raise ValueError("first and last entries must be nonzero")
        for i, a in enumerate(e):
            if a not in _ALLOWED or not hasattr(a, "__index__"):
                raise ValueError(f"entry {a} at index {i} not in {{-2, 0, 2}}")
            if a == 0 and e[i - 1] != e[i + 1]:
                raise ValueError(
                    f"zero at index {i} needs equal nonzero neighbors, "
                    f"got {e[i - 1]} and {e[i + 1]}"
                )


class SEvenVector(Value):
    """An expanded even vector; the empty vector designates the unknot."""

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int] = ()) -> None:
        self._fill(tuple(entries))
        self.__post_init__()

    @classmethod
    def _unchecked(cls, entries: tuple[int, ...]) -> "SEvenVector":
        """A vector on an entry tuple the caller promises is valid; it is not re-checked."""
        return object.__new__(cls)._fill(entries)

    def __post_init__(self) -> None:
        """Check the entries, once for each vector the constructor builds.

        A valid vector passes on its packed form; anything else goes to the
        entry loop, which reports the first fault.  A method of its own so
        that ``bench/spans.py`` can wrap it to count checked vectors.
        """
        if not _packs_valid(self.entries):
            _check_entries(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def orbit(self) -> tuple["SEvenVector", ...]:
        """The distinct vectors among {v, -v, reverse(v), -reverse(v)}, in that order."""
        e = self.entries
        neg = tuple([-x for x in e])
        return tuple(map(SEvenVector._unchecked, dict.fromkeys((e, neg, e[::-1], neg[::-1]))))

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.entries)

    @classmethod
    def parse(cls, text: str) -> "SEvenVector":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(t) for t in text.split(",")))


def _class_representative(entries: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographic maximum of entries, -entries and their reversals; () for ().

    The ends of a valid vector are nonzero, so the maximum is the larger
    of the orbit's two members that start positive: e or -e, and the
    reversal of that or its negation.  Returns ``entries`` itself when
    it already is the representative, so callers may test with ``is``.
    """
    if not entries:
        return entries
    if entries[0] < 0:
        entries = tuple([-x for x in entries])
    rev = entries[::-1] if entries[-1] > 0 else tuple([-x for x in reversed(entries)])
    return entries if entries >= rev else rev


class VectorClass(Value):
    """A vector up to negation and reversal, held by its fixed representative.

    The constructor normalizes any vector of the class to the lexicographic
    maximum of the orbit's entry tuples, which leads with positive entries
    and so keeps the familiar positive spellings like (2,2).
    """

    __slots__ = ("representative",)
    representative: SEvenVector

    def __init__(self, representative: SEvenVector) -> None:
        rep = _class_representative(representative.entries)
        if rep is not representative.entries:
            representative = SEvenVector._unchecked(rep)
        self._fill(representative)

    def representatives(self) -> tuple[SEvenVector, ...]:
        return self.representative.orbit()

    def __len__(self) -> int:
        return len(self.representative)

    def __str__(self) -> str:
        return str(self.representative)


def canonical_vector(v: SEvenVector) -> VectorClass:
    """The class of v, keyed by the lexicographic maximum of its orbit."""
    return VectorClass(v)


def connector_vector(c: int) -> tuple[int, ...]:
    """The run of an even value: (0) for zero, else sign(c) * (2, 0, 2, ..., 0, 2).

    The run has |c|/2 nonzero entries.  It is both the expansion of an
    even partial quotient and the vector form of a parsing connector.
    """
    if c % 2:
        raise ValueError(f"connector {c} is odd")
    if c == 0:
        return (0,)
    s = 2 if c > 0 else -2
    return (s,) + (0, s) * (abs(c) // 2 - 1)


def _connector_read(entries: tuple[int, ...], pos: int) -> tuple[int, int]:
    """The run at pos, before the end, as (value, length), inverting :func:`connector_vector`.

    A zero entry is the zero connector; a nonzero entry s starts the run
    (s, 0, s, ..., 0, s), read as far as it goes.
    """
    s = entries[pos]
    if s == 0:
        return 0, 1
    j = pos + 1
    while j + 1 < len(entries) and entries[j] == 0 and entries[j + 1] == s:
        j += 2
    return s * ((j - pos + 1) // 2), j - pos


class _PackedRuns(dict):
    """Packed connector runs by value, built on first use; the runs of |c| <= 64 are kept."""

    def __missing__(self, c: int) -> bytes:
        run = _pack(connector_vector(c))
        if abs(c) <= 64:
            self[c] = run
        return run


_RUNS = _PackedRuns()


def expand(cf: EvenCF | Iterable[int]) -> SEvenVector:
    """Expand the terms of an EvenCF, or plain terms checked as one, into a vector.

    Each term +/-2m becomes +/-(2, 0, 2, ..., 0, 2) with m nonzero
    entries; runs concatenate in order with nothing between them, as
    packed bytes, unpacked once.
    """
    terms = cf.terms if isinstance(cf, EvenCF) else EvenCF(0, cf).terms
    b = b"".join(map(_RUNS.__getitem__, terms))
    return SEvenVector._unchecked(struct.unpack(f"{len(b)}b", b))


def contract(v: SEvenVector) -> tuple[int, ...]:
    """The value of each run of v, in order, inverting :func:`expand`."""
    e, out, pos = v.entries, [], 0
    while pos < len(e):
        c, clen = _connector_read(e, pos)
        out.append(c)
        pos += clen
    return tuple(out)


def knot_from_vector(v: SEvenVector) -> KnotClass:
    """The 2-bridge knot represented by v (the bijection, vector side first).

    The knot of [v], the continued fraction with integer part 0, read
    off its continuants.  The empty vector is the unknot, which has no
    knot class.
    """
    if v.is_empty:
        raise ValueError("the empty vector is the unknot and has no knot class")
    return _knot_of_entries(v.entries)


def _knot_of_entries(entries: tuple[int, ...]) -> KnotClass:
    """The knot of a nonempty valid entry tuple, which is not re-validated.

    The product of [[x, 1], [1, 0]] over the entries, left to right, is
    [[k, k0], [h, h0]] for [entries] = h/k with previous convergent
    h0/k0.  Its determinant is +/-1, so h/k is reduced and k0 = +/-h^-1
    (mod k): the knot is q = |k| with p the least of +/-h and +/-k0 mod q,
    and no inverse is taken.
    """
    k, k0, h, h0 = 1, 0, 0, 1
    for x in entries:
        k, k0, h, h0 = x * k + k0, k, x * h + h0, h
    q = abs(k)
    return KnotClass._unchecked(Fraction(_orbit_min(h, k0, q), q))


def vector_from_knot(k: KnotClass) -> VectorClass:
    """The vector class of a knot: expand the all-even form and canonicalize."""
    return VectorClass(expand(even_expansion(k.canonical)))


def crossing_number(v: SEvenVector) -> int:
    """Sum of absolute entries minus sign changes among nonzero entries.

    With the zeros deleted from the packed entries, each byte is a
    nonzero entry and each pair 2,-2 or -2,2 a sign change.
    """
    if v.is_empty:
        raise ValueError("the empty vector has no crossing number")
    b = _pack(v.entries).translate(None, b"\x00")
    return 2 * len(b) - b.count(b"\x02\xfe") - b.count(b"\xfe\x02")


def torus_vector(q: int) -> SEvenVector:
    """The vector (2, -2, 2, -2, ...) of length q - 1 for the torus knot 1/q."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"torus knot needs odd q >= 3, got {q}")
    return SEvenVector._unchecked((2, -2) * (q // 2))
