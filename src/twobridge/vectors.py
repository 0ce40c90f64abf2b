"""Expanded even vectors: the combinatorial normal form for 2-bridge knots.

An expanded even vector is a finite even-length sequence over {-2, 0, 2}
whose first and last entries are nonzero and in which every zero has
equal nonzero neighbors.  Expanding each even partial quotient 2m of an
all-even continued fraction into the run +/-(2, 0, 2, ..., 0, 2) with m
nonzero entries, and concatenating the runs, turns the continued
fraction normal form into such a vector; contraction, the value of each
run in order, inverts the expansion.  A run is written by
``connector_vector`` (packed: ``_RUNS``) and read by ``_connector_read``,
for partial quotients here and for parsing connectors in
:mod:`twobridge.parsing`, whose parse scan reads its runs inline by the
same rule.

Vectors are considered up to negation and reversal.  Evaluating a vector
as a continued fraction (integer part 0) and canonicalizing the result
is a bijection between vector classes and 2-bridge knots, so every knot
has exactly one vector class, and the crossing number can be read off
the vector: the sum of absolute entries minus the number of sign changes
in the sequence of nonzero entries.

Two rules live here and nowhere else, both on packed entries (below):
``_class_representative`` picks the vector that stands for a class (the
lexicographic maximum of the orbit), and ``_knot_of_entries`` reads the
knot a vector denotes off its continuants, the product of
[[x, 1], [1, 0]] over the entries, with nothing to reduce and no
inverse taken.  It takes that product 8 entries at a time from a table
of chunk products (``_CHUNKS``), then pairwise up a balanced tree, so
a long vector costs a few multiplications of its final size instead of
one growing multiplication per entry.  Every knot read from a vector is
read by that rule: ``knot_from_vector``, the knots of the smaller sets
in :mod:`twobridge.parsing` and of the seams in :mod:`twobridge.seams`,
and the catalog of :mod:`twobridge.enumeration`, whose class search
multiplies the same matrices half by half.  The least
of +/-p and +/-p^-1 mod q, which names the knot, is
``rationals._orbit_min``, which ``KnotClass`` uses too.

Vectors are checked at the boundary, where they enter, by ``SEvenVector(...)``
and ``parse``; :class:`VectorClass`, like ``KnotClass``, normalizes any
vector to its class.  What the library builds from parts it already holds
is valid by construction and comes through one door, unchecked:
``object.__new__(cls)._fill(...)``, which puts the fields straight into
the slots (``_value.Value``).  A vector built from packed bytes takes
that door as ``SEvenVector._from_packed(b)``, which fills the entries
unpacked from b and keeps b: orbits and class representatives (negation
and reversal keep validity), ``expand`` of a checked ``EvenCF`` and
``torus_vector`` (evenly many odd-length runs, nonzero ends), a
``Parsing``'s assembly, checked or found by the scan, and a two-connector
assembly (a zero connector joins equal-sign tiles, whose facing ends
agree), and the ``two_connector_decompose`` generator and the bases of
seams (even prefixes of a vector that end nonzero).  A knot is filled
the same way where its fraction already is its class's canonical one
(``_knot_of_entries``, whose terms are coprime, since the product's
determinant is +/-1).  The catalog fills its objects through the same
door in its own loops: ``enumeration._class_vectors`` each knot and its
fraction, and ``enumerate_knots`` each entry, its ``VectorClass`` and its
``SEvenVector``.  Its class representatives need no check, since the
class search joins two valid half-vectors and puts a 0 at the junction
only between equal nonzero entries.  All these values are slotted and
immutable, so one built unchecked stays as valid as the caller made it.

Inside the library a vector is read in one packed form, one byte per
entry: the entry x is the byte x/2 + 2, so -2, 0 and 2 are 1, 2 and 3
(``_pack``, ``_unpack``).  The code keeps the order of the entries, so two
packed vectors compare as bytes exactly as their entry tuples compare,
and the class representative, the lexicographic maximum of the orbit, is
one bytes comparison (``_class_representative``, the only representative
rule).  Negation swaps the codes 1 and 3 and keeps 2, one
``bytes.translate`` (``_negate``), and reversal is a slice; both act
entry by entry, so each commutes with the code.  This module alone writes
a byte value: the other layers take ``_pack``, ``_unpack``, ``_negate``,
the zero code ``_ZERO`` and the packed connector runs ``_RUNS`` from it,
which are written as bytes, not packed from entry tuples.  Each vector
is packed once, where it is checked, or is built as bytes, and carries
its bytes in the private slot ``_b``, which ``SEvenVector._packed``
reads; no other layer packs a vector.  A valid vector passes the check on
its bytes (``_packs_valid``) and keeps them; the entry loop of
``_check_entries`` runs only on what they refuse, and it alone words the
errors.  A tuple is unpacked only where one leaves the library: in
``_from_packed``, for each vector built from bytes, and for the classes
the upward walk of :mod:`twobridge.enumeration` reaches.  A vector only
filled, as the catalog fills its classes, is packed on its first read,
if any.  The bytes cost one byte per entry beside the tuple's eight.
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
_ZERO = 2  # the code of the entry 0; -2 and 2 are 1 and 3
# struct's signed byte of -2, 0 and 2 to its code, and every other byte to 0, the code of no entry
_ENCODE = bytes({0xFE: 1, 0: _ZERO, 2: 3}.get(i, 0) for i in range(256))
_DECODE = bytes.maketrans(b"\x01\x02\x03", b"\xfe\x00\x02")
_NEGATE = bytes.maketrans(b"\x01\x03", b"\x03\x01")


def _pack(entries: tuple[int, ...]) -> bytes:
    """The entries packed, the byte x/2 + 2 for each entry x and 0 for any other integer.

    ``struct.error`` on a non-integer or one outside -128..127.
    """
    return struct.pack(f"{len(entries)}b", *entries).translate(_ENCODE)


def _unpack(b: bytes) -> tuple[int, ...]:
    """The entry tuple of packed entries, inverting :func:`_pack`."""
    return struct.unpack(f"{len(b)}b", b.translate(_DECODE))


def _negate(b: bytes) -> bytes:
    """The packed entries negated: the codes of -2 and 2 swap, and that of 0 stays."""
    return b.translate(_NEGATE)


def _packs_valid(entries: tuple[int, ...]) -> bytes | None:
    """The packed entries when they form a valid vector, else None.

    Even length, nonzero ends, no byte 0 (no entry but -2, 0 and 2), and
    no 0 next to a 0 or between unequal entries: with the ends nonzero,
    every zero then has equal nonzero neighbors.
    """
    try:
        b = _pack(entries)
    except struct.error:
        return None
    if len(b) % 2 or (b and _ZERO in (b[0], b[-1])) or 0 in b:
        return None
    if b"\x02\x02" in b or b"\x01\x02\x03" in b or b"\x03\x02\x01" in b:
        return None
    return b


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
    """An expanded even vector; the empty vector designates the unknot.

    Its one field is ``entries``.  ``_b`` caches the packed entries
    (``_value.Value``'s rule for a slot named with ``_``); ``_packed``
    reads it.
    """

    __slots__ = ("entries", "_b")
    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int] = ()) -> None:
        self._fill(tuple(entries))
        self.__post_init__()

    @classmethod
    def _from_packed(cls, b: bytes) -> "SEvenVector":
        """The vector of packed bytes the library built valid, filled unchecked: the one door for them.

        Its entries are unpacked from b, and it carries b.
        """
        v = object.__new__(cls)._fill(_unpack(b))
        _set_packed(v, b)
        return v

    def __post_init__(self) -> None:
        """Check the entries, once for each vector the constructor builds, and keep them packed.

        A valid vector passes on its packed form, which it then carries;
        anything else goes to the entry loop, which reports the first
        fault.  A method of its own so that ``bench/spans.py`` can wrap it
        to count checked vectors.
        """
        b = _packs_valid(self.entries)
        if b is None:
            _check_entries(self.entries)
        else:
            _set_packed(self, b)

    def _packed(self) -> bytes:
        """The packed entries: those stored, or packed now and stored, for a vector only filled."""
        try:
            return self._b
        except AttributeError:
            _set_packed(self, b := _pack(self.entries))
            return b

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def orbit(self) -> tuple["SEvenVector", ...]:
        """The distinct vectors among {v, -v, reverse(v), -reverse(v)}, in that order."""
        b = self._packed()
        neg = _negate(b)
        return tuple(map(SEvenVector._from_packed, dict.fromkeys((b, neg, b[::-1], neg[::-1]))))

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.entries)

    @classmethod
    def parse(cls, text: str) -> "SEvenVector":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(t) for t in text.split(",")))


_set_packed = SEvenVector._b.__set__


def _class_representative(b: bytes) -> bytes:
    """The packed lexicographic maximum of b, -b and their reversals; b"" for b"".

    The code keeps the order of the entries, so the bytes comparison is
    the tuple order.  The ends of a valid vector are nonzero, so the
    maximum is the larger of the orbit's two members that start positive:
    b or -b, and the reversal of that or its negation.  Returns ``b``
    itself when it already is the representative, so callers may test
    with ``is``.
    """
    if not b:
        return b
    if b[0] < _ZERO:
        b = _negate(b)
    rev = b[::-1] if b[-1] > _ZERO else _negate(b[::-1])
    return b if b >= rev else rev


class VectorClass(Value):
    """A vector up to negation and reversal, held by its fixed representative.

    The constructor normalizes any vector of the class to the lexicographic
    maximum of the orbit's entry tuples, which leads with positive entries
    and so keeps the familiar positive spellings like (2,2).
    """

    __slots__ = ("representative",)
    representative: SEvenVector

    def __init__(self, representative: SEvenVector) -> None:
        rep = _class_representative(b := representative._packed())
        if rep is not b:
            representative = SEvenVector._from_packed(rep)
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
    return _unpack(_RUNS[c])


def _connector_read(b: bytes, pos: int) -> tuple[int, int]:
    """The run at pos of the packed valid vector b, as (value, length), inverting :func:`connector_vector`.

    A zero entry is the zero connector; a nonzero entry s starts the run
    (s, 0, s, ..., 0, s), which goes on exactly as long as a 0 follows,
    since in a valid vector a 0 lies between equal entries.  A run of k
    entries x, each packed as x/2 + ``_ZERO``, has the value kx, which is
    2k times the code less ``_ZERO``, and the length 2k - 1.
    """
    s, j = b[pos], pos + 1
    if s != _ZERO:
        while j < len(b) and b[j] == _ZERO:
            j += 2
    return (s - _ZERO) * (j - pos + 1), j - pos


class _PackedRuns(dict):
    """Packed connector runs by value (``_RUNS``), written as bytes on first use; the runs of |c| <= 64 are kept.

    The run of c is the code of sign(c) |c|/2 times with ``_ZERO`` between,
    or ``_ZERO`` alone for 0.
    """

    def __missing__(self, c: int) -> bytes:
        if c % 2:
            raise ValueError(f"connector {c} is odd")
        zero, s = bytes((_ZERO,)), b"\x03" if c > 0 else b"\x01"
        run = (s + zero) * (abs(c) // 2 - 1) + s if c else zero
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
    return SEvenVector._from_packed(b"".join(map(_RUNS.__getitem__, terms)))


def contract(v: SEvenVector) -> tuple[int, ...]:
    """The value of each run of v, in order, inverting :func:`expand`.

    No verb calls it; it stays as the tested inverse of ``expand``.
    """
    e, out, pos = v._packed(), [], 0
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
    return _knot_of_entries(v._packed())


def _mul(m, n):
    """The product of two 2x2 matrices, each the row-major tuple (a, b, c, d)."""
    a, b, c, d = m
    e, f, g, h = n
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


class _ChunkProducts(dict):
    """The product of [[x, 1], [1, 0]] over 8 packed entries, keyed by their bytes read as one integer.

    Built on first use.  At most 1,870 keys occur: the 1,632 runs of 8 entries
    found inside valid vectors and 238 zero-padded ends of 2, 4 or 6 entries.
    """

    def __missing__(self, key):
        k, k0, h, h0 = 1, 0, 0, 1
        for x in _unpack(struct.pack("q", key)):
            k, k0, h, h0 = x * k + k0, k, x * h + h0, h
        self[key] = m = (k, k0, h, h0)
        return m


_CHUNKS = _ChunkProducts()


def _knot_of_entries(b: bytes) -> KnotClass:
    """The knot of nonempty packed valid entries, which are not re-validated.

    The product of [[x, 1], [1, 0]] over the entries, left to right, is
    [[k, k0], [h, h0]] for [entries] = h/k with previous convergent
    h0/k0.  Its determinant is +/-1, so h/k is reduced and k0 = +/-h^-1
    (mod k): the knot is q = |k| with p the least of +/-h and +/-k0 mod q,
    and neither a gcd nor an inverse is taken.  The product is read off
    ``_CHUNKS`` 8 entries at a time, zero entries padding the last chunk
    (the length is even, and [[0, 1], [1, 0]] squared is the identity),
    and the chunk products meet up a balanced tree: long factors are
    multiplied only near its root, so the time is not quadratic in the
    length, as a left-to-right product of growing continuants is.
    """
    mats = list(map(_CHUNKS.__getitem__, memoryview(b + bytes((_ZERO,)) * (-len(b) % 8)).cast("q")))
    while len(mats) > 1:
        top = list(map(_mul, mats[::2], mats[1::2]))
        mats = top + mats[-1:] if len(mats) % 2 else top
    k, k0, h, _ = mats[0]
    q = abs(k)
    return object.__new__(KnotClass)._fill(object.__new__(Fraction)._fill(_orbit_min(h, k0, q), q))


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
    b = v._packed().translate(None, b"\x02")
    return 2 * len(b) - b.count(b"\x01\x03") - b.count(b"\x03\x01")


def torus_vector(q: int) -> SEvenVector:
    """The vector (2, -2, 2, -2, ...) of length q - 1 for the torus knot 1/q."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"torus knot needs odd q >= 3, got {q}")
    return SEvenVector._from_packed(b"\x03\x01" * (q // 2))
