"""Parsings of expanded even vectors and the strict order they witness.

A vector a parses with respect to a nonempty vector b when

    a = (b, c_1, e_2*b', c_2, e_3*b, ..., e_n*b)

where b' is b reversed, tiles alternate between b and b' with signs
e_i in {+1, -1} (e_1 = +1, so a literally starts with b), n is odd, and
each connector c_i is an even integer contributing the vector (0) when
zero and otherwise sign(c_i) * (2, 0, 2, ..., 0, 2) summing to c_i.  A
zero connector forces equal signs on the tiles it joins.

Over a given b, a parsing of a is unique when it exists, so the parse
search is one forward scan over a (see ``_scan_parsing``).

A parsing with fold n >= 3 witnesses that the knot of a is strictly
greater than the knot of b in the epimorphism order; the 1-fold parsing
is just a = b.  A parsing starts with its base and survives negating or
reversing both vectors at once, so J > K exactly when J's representative
parses, with fold >= 3, over its own prefix of |K| entries and that
prefix is K's representative, and the knots below a knot are those of
the prefixes its vector, as given, parses over.  One generator,
``_prefix_parsings``, states which prefixes can be bases; the order
test, the walk of ``enumeration``, ``smaller_knots`` and
``two_connector_decompose`` all read it.

A two-connector form, 2P+1 tiles over g with connectors m, n, m, n,
..., is a parsing over g with every sign +1, so the same scan finds it,
and ``smaller_knots`` stops there: the knots below are those of the
prefixes before g and of the assemblies over g whose tile count divides
the form's.

``_tiles`` is the one statement of the layout: which orientation and
sign the next tile takes.  :class:`Parsing` (its blocks, assembly and
boundaries), the two-connector assembly and the parse scan all read
their tiles from it.  Knots are read off entry tuples with
``vectors._knot_of_entries``, and connector runs with
``vectors._connector_read``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain

from ._value import Value
from .rationals import KnotClass
from .vectors import SEvenVector, VectorClass, _class_representative, _connector_read, _knot_of_entries, connector_vector

__all__ = [
    "NoCommonFamilyError",
    "Parsing",
    "TwoConnectorForm",
    "assemble_two_connector",
    "find_parsings",
    "is_strictly_greater",
    "minimal_upper_bound",
    "parses_with_respect_to",
    "smaller_knots",
    "two_connector_decompose",
]


def _tiles(b: tuple[int, ...]) -> dict[tuple[int, int], tuple[int, ...]]:
    """The next tile of an assembly over b, keyed by (parity of the tile count so far, sign)."""
    neg = tuple([-x for x in b])
    return {(0, 1): b, (0, -1): neg, (1, 1): b[::-1], (1, -1): neg[::-1]}


class Parsing(Value):
    """One way of writing a vector as alternating b-tiles and connectors."""

    __slots__ = ("base", "signs", "connectors")
    base: SEvenVector
    signs: tuple[int, ...]
    connectors: tuple[int, ...]

    def __init__(self, base: SEvenVector, signs: Sequence[int], connectors: Sequence[int]) -> None:
        signs, connectors = tuple(signs), tuple(connectors)
        if base.is_empty:
            raise ValueError("parsing base must be nonempty")
        n = len(signs)
        if n % 2 == 0 or n < 1:
            raise ValueError(f"fold {n} must be odd")
        if len(connectors) != n - 1:
            raise ValueError("need exactly fold - 1 connectors")
        if signs[0] != 1:
            raise ValueError("first tile is unsigned b, so the first sign must be +1")
        for i, s in enumerate(signs):
            if s not in (1, -1):
                raise ValueError(f"sign {s} at tile {i + 1}")
        for i, c in enumerate(connectors, 1):
            if c % 2:
                raise ValueError(f"connector {c} at position {i} is odd")
            if c == 0 and signs[i - 1] != signs[i]:
                raise ValueError(f"zero connector {i} joins tiles of unequal sign")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "connectors", connectors)

    @property
    def fold(self) -> int:
        return len(self.signs)

    def blocks(self) -> Iterator[tuple[int, ...]]:
        """Tiles and connector vectors in assembly order."""
        tiles = _tiles(self.base.entries)
        yield tiles[(0, 1)]
        for i, (c, s) in enumerate(zip(self.connectors, self.signs[1:]), 1):
            yield connector_vector(c)
            yield tiles[(i % 2, s)]

    def assemble(self) -> SEvenVector:
        return SEvenVector._unchecked(tuple(chain.from_iterable(self.blocks())))

    def boundaries(self) -> tuple[int, ...]:
        """Interior block boundaries: cut-after-entry positions, 1-based."""
        return tuple(accumulate(map(len, self.blocks())))[:-1]

    def to_json_dict(self) -> dict:
        return {
            "base": list(self.base.entries),
            "fold": self.fold,
            "signs": list(self.signs),
            "connectors": list(self.connectors),
        }


def _scan_parsing(ea: tuple[int, ...], eb: tuple[int, ...]) -> tuple[list[int], list[int]] | None:
    """The signs and connectors of the parsing of ea with respect to eb, or None.

    A parsing over a given base is unique when it exists, so one forward
    scan finds it.  Every tile starts with a nonzero entry, an end of b,
    so a connector is the whole run at its position: a shorter read
    would leave the next tile starting with 0.  Of the two tiles that may
    come next, b or -b (b' or -b' at even places), at most one matches,
    because their first entries differ.  So each step has at most one
    way on.
    """
    la, lb = len(ea), len(eb)
    if lb == 0:
        raise ValueError("parsing base must be nonempty")
    if lb > la or ea[:lb] != eb:
        return None
    tiles = _tiles(eb)
    signs, connectors = [1], []
    pos = lb
    while pos < la:
        c, clen = _connector_read(ea, pos)
        pos += clen
        if pos == la:
            return None
        parity = len(signs) % 2
        s = 1 if ea[pos] == tiles[(parity, 1)][0] else -1
        if (c == 0 and s != signs[-1]) or ea[pos : pos + lb] != tiles[(parity, s)]:
            return None
        signs.append(s)
        connectors.append(c)
        pos += lb
    return (signs, connectors) if len(signs) % 2 else None


# A parsing as the prefix scan finds it: (base, signs, connectors).
_Scan = tuple[tuple[int, ...], list[int], list[int]]


def _parses(ea: tuple[int, ...], eb: tuple[int, ...], min_fold: int) -> tuple[list[int], list[int]] | None:
    """The scan of ea over eb when its fold is >= min_fold, else None; a short ea is not scanned."""
    la, lb = len(ea), len(eb)
    if lb == 0 or (min_fold > 1 and la < min_fold * lb + (min_fold - 1)):
        return None
    found = _scan_parsing(ea, eb)
    return found if found and len(found[0]) >= min_fold else None


def find_parsings(a: SEvenVector, b: SEvenVector) -> tuple[Parsing, ...]:
    """All parsings of a with respect to b, including the 1-fold a = b.

    A parsing over a given base is unique when it exists, so this is
    empty or holds one parsing.
    """
    found = _scan_parsing(a.entries, b.entries)
    return () if found is None else (Parsing(b, *found),)


def parses_with_respect_to(a: SEvenVector, b: SEvenVector, min_fold: int = 3) -> bool:
    """True when the parsing of a with respect to b exists and has fold >= min_fold."""
    return _parses(a.entries, b.entries, min_fold) is not None


def _prefix_parsings(ea: tuple[int, ...], start: int = 2, stop: int | None = None) -> Iterator[_Scan]:
    """Each prefix that ea parses over with fold >= 3, shortest first, as (prefix, signs, connectors).

    This is the one rule for which prefixes can be bases.  Their even
    lengths run from start to below stop, by default as far as three
    tiles fit; a prefix cut at a 0 lies in no class.  Tiles at odd places
    are b itself, not b', and the fold is odd, so the last tile is b or
    -b: a prefix that ea does not end with, up to sign, is not scanned.
    """
    hi = stop or (len(ea) - 2) // 3 + 1
    ntail = tuple([-x for x in ea[-hi:]])  # every tail compared is shorter than hi
    for blen in range(start, hi, 2):
        b = ea[:blen]
        if b[-1] != 0 and b in (ea[-blen:], ntail[-blen:]) and (found := _parses(ea, b, 3)):
            yield b, *found


def _parsing_below(entries: tuple[int, ...], rep: tuple[int, ...]) -> _Scan | None:
    """The fold >= 3 parsing of entries over its prefix in rep's class, as a ``_Scan``, or None.

    A parsing starts with its base, so only the prefix of len(rep) entries
    can be one; the empty class lies below nothing.
    """
    if not rep or _class_representative(entries[: len(rep)]) != rep:
        return None
    return next(_prefix_parsings(entries, len(rep), len(rep) + 1), None)


def is_strictly_greater(j: VectorClass, k: VectorClass) -> bool:
    """Strict order on knots via their vector classes.

    A parsing survives negating or reversing both vectors at once, so
    j > k exactly when j's representative parses, with fold >= 3, over
    its own prefix in k's class.  Equal classes fail the length test.
    """
    return _parsing_below(j.representative.entries, k.representative.entries) is not None


class TwoConnectorForm(Value):
    """A vector as 2P+1 never-negated alternating tiles with connectors m, n.

    ``count`` = 2P+1 is the number of generator tiles (>= 3); connectors
    alternate m, n, ..., m, n between consecutive tiles.  The generator
    may be empty, in which case both connectors must be nonzero and the
    vector is just the 2P connector runs.
    """

    __slots__ = ("generator", "m", "n", "count")
    generator: SEvenVector
    m: int
    n: int
    count: int

    def __init__(self, generator: SEvenVector, m: int, n: int, count: int) -> None:
        if count < 3 or count % 2 == 0:
            raise ValueError(f"tile count {count} must be odd and >= 3")
        if m % 2 or n % 2:
            raise ValueError("connectors must be even")
        if generator.is_empty and (m == 0 or n == 0):
            raise ValueError("an empty generator needs nonzero connectors")
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "count", count)

    def assemble(self) -> SEvenVector:
        return assemble_two_connector(self.generator, self.m, self.n, self.count)


def assemble_two_connector(g: SEvenVector, m: int, n: int, count: int) -> SEvenVector:
    """Assemble (g, m, g', n, g, m, g', n, ..., g) with count tiles, g' = g reversed."""
    if count < 1 or count % 2 == 0:
        raise ValueError(f"tile count {count} must be odd and positive")
    return SEvenVector(_assemble_entries(g.entries, m, n, count))


def _assemble_entries(g: tuple[int, ...], m: int, n: int, count: int) -> tuple[int, ...]:
    """g followed by count // 2 repeats of the period (m, g', n, g)."""
    tiles = _tiles(g)
    period = connector_vector(m) + tiles[(1, 1)] + connector_vector(n) + tiles[(0, 1)]
    return g + period * (count // 2)


def _bases_and_form(e: tuple[int, ...]) -> tuple[list[tuple[int, ...]], TwoConnectorForm | None]:
    """The prefixes that the nonempty e parses over, shortest first and up to its form, and that form.

    The empty generator comes first: e is its first two connector runs
    repeated.  Otherwise the first all-plus parsing with alternating
    connectors is the form on the shortest generator; with none, every
    prefix e parses over is listed.
    """
    m, mlen = _connector_read(e, 0)
    n, nlen = _connector_read(e, mlen)  # a run has odd length, so e is never one run
    reps, rest = divmod(len(e), mlen + nlen)
    if not rest and e[: mlen + nlen] * reps == e:
        return [], TwoConnectorForm(SEvenVector._unchecked(()), m, n, 2 * reps + 1)
    bases = []
    for b, signs, connectors in _prefix_parsings(e):
        if -1 not in signs and connectors[2:] == connectors[:-2]:
            return bases, TwoConnectorForm(SEvenVector._unchecked(b), connectors[0], connectors[1], len(signs))
        bases.append(b)
    return bases, None


def two_connector_decompose(v: SEvenVector) -> TwoConnectorForm | None:
    """The two-connector form of v built on its shortest generator, if any (see ``_bases_and_form``)."""
    return _bases_and_form(v.entries)[1] if v.entries else None


def smaller_knots(v: SEvenVector) -> frozenset[KnotClass]:
    """All nontrivial knots strictly below the knot of v, from one prefix scan.

    They are the knots of the prefixes v parses over.  The scan stops at
    the generator g of v's two-connector form, if any.  The longer
    prefixes give the knots of the assemblies over g whose tile count d
    divides v's (the divisor theorem; d = 1 is g itself).  The shorter
    ones that v parses over are exactly those g parses over: v is an
    all-plus assembly of g, so a parsing of g over b makes one of v over
    b, and the divisor theorem gives the converse.  So g needs no scan.

    The scan reads v as given: negating a parsing of a over b gives one
    of -a over -b, reversing it one of a' over b' or -b', and b, -b and
    b' are one knot, so every orientation of v finds the same knots.
    """
    if v.is_empty:
        raise ValueError("the unknot has nothing below it")
    bases, form = _bases_and_form(v.entries)
    if form is not None:
        g = form.generator.entries
        # the tile count is odd, so are its divisors; over an empty g, d = 1 is the unknot
        divisors = [d for d in range(1 if g else 3, form.count, 2) if form.count % d == 0]
        bases += [_assemble_entries(g, form.m, form.n, d) for d in divisors]
    return frozenset(map(_knot_of_entries, bases))


class NoCommonFamilyError(ValueError):
    """The inputs do not share a two-connector family, so the construction fails."""


def minimal_upper_bound(vectors: Sequence[SEvenVector]) -> SEvenVector:
    """The shortest vector parsing with respect to every input.

    The inputs must be pairwise incomparable members of one two-connector
    family g with fixed connectors; the bound is the assembly over the
    least common multiple of their tile counts.  A single input is its
    own bound.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    if len(vectors) == 1:
        return vectors[0]
    forms = []
    for v in vectors:
        form = two_connector_decompose(v)
        if form is None:
            raise NoCommonFamilyError(f"{v} has no two-connector form")
        forms.append(form)
    families = {(f.generator.entries, f.m, f.n) for f in forms}
    if len(families) != 1:
        raise NoCommonFamilyError(
            "inputs do not share a common family: " + "; ".join(sorted(map(str, families)))
        )
    counts = [f.count for f in forms]
    for i, ci in enumerate(counts):
        for cj in counts[i + 1 :]:
            if ci % cj == 0 or cj % ci == 0:
                raise ValueError(
                    f"tile counts {ci} and {cj} divide one another; inputs must be incomparable"
                )
    first = forms[0]
    return assemble_two_connector(first.generator, first.m, first.n, math.lcm(*counts))
