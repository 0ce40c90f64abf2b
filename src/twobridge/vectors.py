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
knot a vector denotes.

Vectors are checked where they enter, by ``SEvenVector(...)`` and ``parse``;
:class:`VectorClass`, like ``KnotClass``, normalizes any vector to its class.
``SEvenVector._unchecked`` skips the check where validity holds by
construction: orbits and class representatives (negation and reversal keep
it), ``expand`` of a checked ``EvenCF`` and ``torus_vector`` (evenly many
odd-length runs, nonzero ends), a checked ``Parsing``'s assembly (a zero
connector joins equal-sign tiles, whose facing ends agree), the catalog's
class representatives (the class search joins two valid half-vectors and
puts a 0 at the junction only between equal nonzero entries), and the
``two_connector_decompose`` generator and class-checked prefixes (even
prefixes of a vector that end nonzero).
Two more private paths skip normalization for the catalog, whose search
yields each class representative with its knot: ``VectorClass._unchecked``
takes a tuple that already is its class representative, and
``KnotClass._unchecked`` a fraction that already is its knot's canonical one.
All these values are slotted and immutable (``_value.Value``), so one built
unchecked stays as valid as the caller made it.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._value import Value
from .rationals import (
    EvenCF,
    KnotClass,
    canonical_fraction,
    evaluate_terms,
    even_expansion,
)

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


class SEvenVector(Value):
    """An expanded even vector; the empty vector designates the unknot."""

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int] = ()) -> None:
        object.__setattr__(self, "entries", tuple(entries))
        self.__post_init__()

    @classmethod
    def _unchecked(cls, entries: tuple[int, ...]) -> "SEvenVector":
        """A vector on an entry tuple the caller promises is valid; it is not re-checked."""
        v = object.__new__(cls)
        object.__setattr__(v, "entries", entries)
        return v

    def __post_init__(self) -> None:
        """Check the entries, once for each vector the constructor builds.

        A method of its own so that ``bench/spans.py`` can wrap it to count
        checked vectors.
        """
        e = self.entries
        if len(e) % 2:
            raise ValueError(f"length {len(e)} is odd")
        if e:
            if e[0] == 0 or e[-1] == 0:
                raise ValueError("first and last entries must be nonzero")
            for i, a in enumerate(e):
                if a not in _ALLOWED:
                    raise ValueError(f"entry {a} at index {i} not in {{-2, 0, 2}}")
                if a == 0 and e[i - 1] != e[i + 1]:
                    raise ValueError(
                        f"zero at index {i} needs equal nonzero neighbors, "
                        f"got {e[i - 1]} and {e[i + 1]}"
                    )

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
        object.__setattr__(self, "representative", representative)

    @classmethod
    def _unchecked(cls, rep: tuple[int, ...]) -> "VectorClass":
        """The class of an entry tuple the caller promises is its class representative; it is not re-normalized."""
        c = object.__new__(cls)
        object.__setattr__(c, "representative", SEvenVector._unchecked(rep))
        return c

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


def expand(cf: EvenCF | Iterable[int]) -> SEvenVector:
    """Expand the terms of an EvenCF, or plain terms checked as one, into a vector.

    Each term +/-2m becomes +/-(2, 0, 2, ..., 0, 2) with m nonzero
    entries; runs concatenate in order with nothing between them.
    """
    terms = cf.terms if isinstance(cf, EvenCF) else EvenCF(0, cf).terms
    return SEvenVector._unchecked(tuple(a for t in terms for a in connector_vector(t)))


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

    Evaluates [v] with integer part 0 and canonicalizes.  The empty
    vector is the unknot, which has no knot class.
    """
    if v.is_empty:
        raise ValueError("the empty vector is the unknot and has no knot class")
    return _knot_of_entries(v.entries)


def _knot_of_entries(entries: tuple[int, ...]) -> KnotClass:
    """The knot of a nonempty valid entry tuple, which is not re-validated."""
    return canonical_fraction(evaluate_terms(entries))


def vector_from_knot(k: KnotClass) -> VectorClass:
    """The vector class of a knot: expand the all-even form and canonicalize."""
    return VectorClass(expand(even_expansion(k.canonical)))


def crossing_number(v: SEvenVector) -> int:
    """Sum of absolute entries minus sign changes among nonzero entries."""
    if v.is_empty:
        raise ValueError("the empty vector has no crossing number")
    total = 0
    changes = 0
    prev = 0
    for a in v.entries:
        if a == 0:
            continue
        total += 2
        if prev and a != prev:
            changes += 1
        prev = a
    return total - changes


def torus_vector(q: int) -> SEvenVector:
    """The vector (2, -2, 2, -2, ...) of length q - 1 for the torus knot 1/q."""
    if q < 3 or q % 2 == 0:
        raise ValueError(f"torus knot needs odd q >= 3, got {q}")
    return SEvenVector._unchecked((2, -2) * (q // 2))
