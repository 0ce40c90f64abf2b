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
``_prefix_parsings``, states which prefixes can be bases; the walk of
``enumeration``, ``smaller_knots`` and ``two_connector_decompose`` all
read it, and the order test scans the one prefix its length allows.
Only a prefix that the vector ends with, up to sign, can be a base: a
border of the vector or of its negation.  A border of L > ``_SEED``
entries starts, L entries from the end, with the vector's first
``_SEED`` entries or their negation, so ``bytes.rfind`` of those two
seeds finds the candidates and only they get the full test; shorter
lengths are tested one by one.  Every layer below the public calls reads the packed entries
of :mod:`twobridge.vectors`, where each candidate costs one C comparison
that copies nothing and each tile one slice, and a scan whose first
three tiles repeat to the end is closed by one more comparison, so
``smaller`` on a long vector takes time close to linear in its length; a
window of one length, such as the walk's, takes the same path.  These
layers pass the scan's result, the base length with the signs and
connectors; a ``Parsing`` is built only where one is returned.

Checks are made at the boundary: ``Parsing(...)`` and
``TwoConnectorForm(...)`` check the arguments a caller gives.  What
this module builds from parts it already holds is valid by construction
and comes through one door, unchecked: the parsings the scan finds, the
forms ``two_connector_decompose`` finds and their generators, filled as
``object.__new__(cls)._fill(...)``, and every assembly, a vector built
from its packed bytes by ``SEvenVector._from_packed``.

A two-connector form, 2P+1 tiles over g with connectors m, n, m, n,
..., is a parsing over g with every sign +1, so the same scan finds it,
and ``smaller_knots`` stops there: the knots below are those of the
vector's prefixes, those before g and its first d tiles for each d
dividing the tile count, which are sliced off it, not assembled.

``_tiles`` is the one statement of the layout: which orientation and
sign the next tile takes.  :class:`Parsing` (its packed layout, which
its assembly, its boundaries and ``seams.find_seams`` read), the
two-connector assembly, the parse scan and the upward walk of
``enumeration`` all read their tiles from it.  Knots are read off
packed entries with ``vectors._knot_of_entries``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate, cycle

from ._value import Value
from .rationals import KnotClass
from .vectors import (
    _RUNS, _ZERO, SEvenVector, VectorClass, _class_representative, _connector_read, _knot_of_entries, _negate,
)

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


_SEED = 8  # entries; a longer border is found by rfind of the first _SEED (see _prefix_parsings)


def _tiles(b: bytes) -> tuple[tuple[bytes, bytes], tuple[bytes, bytes]]:
    """The packed tiles of an assembly over packed b as (plus, minus) pairs: (b, -b), then (b', -b').

    The first, third, ... tile is b or -b and the others b' or -b': tile
    i with sign s, counting from 0, is ``_tiles(b)[i % 2][s < 0]``.
    """
    neg = _negate(b)
    return (b, neg), (b[::-1], neg[::-1])


class Parsing(Value):
    """One way of writing a vector as alternating b-tiles and connectors.

    The constructor checks its arguments, at the boundary; the parsings
    the scan finds, for ``find_parsings`` and the seams of
    :mod:`twobridge.seams`, come through the one door unchecked
    (``object.__new__(Parsing)._fill``), since the scan only produces odd
    folds, signs +/-1 starting with +1, even connectors and zero
    connectors between equal signs.
    """

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
        self._fill(base, signs, connectors)

    @property
    def fold(self) -> int:
        return len(self.signs)

    def _layout(self) -> list[bytes]:
        """The packed tiles and connector runs in assembly order.

        A tile has |b| entries and a run |c| - 1, or 1 for c = 0.
        """
        tiles = cycle(_tiles(self.base._packed()))
        layout = [b""] * (2 * len(self.signs) - 1)
        layout[::2] = [pair[s < 0] for pair, s in zip(tiles, self.signs)]
        layout[1::2] = map(_RUNS.__getitem__, self.connectors)
        return layout

    def assemble(self) -> SEvenVector:
        return SEvenVector._from_packed(b"".join(self._layout()))

    def boundaries(self) -> tuple[int, ...]:
        """Interior block boundaries: cut-after-entry positions, 1-based."""
        return tuple(accumulate(map(len, self._layout())))[:-1]

    def to_json_dict(self) -> dict:
        return {
            "base": list(self.base.entries),
            "fold": self.fold,
            "signs": list(self.signs),
            "connectors": list(self.connectors),
        }


def _scan_parsing(ea: bytes, eb: bytes, min_fold: int = 1) -> tuple[list[int], list[int]] | None:
    """The signs and connectors of the parsing of packed ea over packed eb when its fold is >= min_fold, or None.

    A parsing over a given base is unique when it exists, so one forward
    scan finds it.  Every tile starts with a nonzero entry, an end of b,
    so a connector is the whole run at its position, read inline as
    ``vectors._connector_read`` reads it: a shorter read would leave the
    next tile starting with 0.  Of the two tiles that may come next, b or
    -b (b' or -b' at even places), at most one matches, because their
    first entries differ.  So each step has at most one way on.  An ea
    too short for min_fold tiles and their connectors is not scanned.

    After three tiles one comparison asks whether the rest of ea is the
    period just read (connector, tile, connector, tile) repeated; if so,
    the signs and connectors repeat with it.  That is exact: the skipped
    steps would read the same bytes at the same tile parity, and the one
    test they would add, that a zero connector joins tiles of equal sign,
    holds in any valid vector, since the entries facing it are s_i e and
    s_{i+1} e for the same end e of b, and a 0 lies between equal entries.
    """
    la, lb = len(ea), len(eb)
    if lb == 0:
        raise ValueError("parsing base must be nonempty")
    if la < min_fold * (lb + 1) - 1 or ea[:lb] != eb:
        return None
    there, here = _tiles(eb)  # (plus, minus) for the next tile, here, and the one after it
    signs, connectors = [1], []
    pos = lb
    while pos < la:
        x, end = ea[pos], pos + 1
        if x != _ZERO:
            while end < la and ea[end] == _ZERO:
                end += 2
        tile = ea[end : end + lb]
        if tile == here[0]:
            s = 1
        elif tile == here[1]:
            s = -1
        else:
            return None
        if x == _ZERO and s != signs[-1]:  # a zero connector joins tiles of equal sign
            return None
        signs.append(s)
        connectors.append((x - _ZERO) * (end - pos + 1))
        pos = end + lb
        here, there = there, here
        if len(signs) == 3:
            period = pos - lb  # connector, tile, connector, tile
            if not (la - lb) % period and ea.startswith(memoryview(ea)[lb : la - period], pos):
                k = (la - pos) // period
                signs += signs[1:] * k
                connectors *= k + 1
                break
    return (signs, connectors) if len(signs) % 2 and len(signs) >= min_fold else None


def find_parsings(a: SEvenVector, b: SEvenVector) -> tuple[Parsing, ...]:
    """All parsings of a with respect to b, including the 1-fold a = b.

    A parsing over a given base is unique when it exists, so this is
    empty or holds one parsing.
    """
    found = _scan_parsing(a._packed(), b._packed())
    return () if found is None else (object.__new__(Parsing)._fill(b, *map(tuple, found)),)


def parses_with_respect_to(a: SEvenVector, b: SEvenVector, min_fold: int = 3) -> bool:
    """True when the parsing of a with respect to b exists and has fold >= min_fold.

    Nothing in the library calls it; it stays public as the order test for
    one given pair, where ``smaller_knots`` lists every knot below a.
    """
    return bool(b.entries) and _scan_parsing(a._packed(), b._packed(), min_fold) is not None


def _prefix_parsings(ea: bytes, start: int = 2, stop: int | None = None) -> Iterator[tuple[int, list[int], list[int]]]:
    """The base length, signs and connectors of each fold >= 3 parsing of packed ea over a prefix, shortest first.

    This is the one rule for which prefixes can be bases.  Their even
    lengths run from start to below stop, by default as far as three
    tiles fit; a prefix cut at a 0 lies in no class.  Tiles at odd places
    are b itself, not b', and the fold is odd, so the last tile is b or
    -b: only a border of ea or of -ea is scanned.  Lengths up to
    ``_SEED`` are tried one by one.  A longer border of length L starts,
    L entries from the end, with the first ``_SEED`` bytes of ea or of
    -ea, so the candidates are where ``rfind`` finds those seeds in the
    window; searching from the end gives the shortest first, and odd L
    are dropped.  A random vector has almost none.  Each candidate gets
    the full test: ``endswith`` on a view of the prefix compares in C,
    copies nothing and stops at the first difference, so it costs the
    same however long its prefix is.  Only the last hi entries are
    negated: no border in the window is longer.
    """
    n = len(ea)
    hi = stop or (n - 2) // 3 + 1
    negated, view = _negate(ea[-hi:]), memoryview(ea)
    far = max(start, _SEED + 2)
    lengths = list(range(start, min(hi, far), 2))
    if hi > far:
        for seed in (ea[:_SEED], _negate(ea[:_SEED])):
            end = n - far + _SEED
            while (i := ea.rfind(seed, n - hi + 1, end)) >= 0:
                if (n - i - start) % 2 == 0:
                    lengths.append(n - i)
                end = i + _SEED - 1
        lengths.sort()
    for blen in lengths:
        if ea[blen - 1] != _ZERO and (ea.endswith(b := view[:blen]) or negated.endswith(b)):
            if found := _scan_parsing(ea, ea[:blen], 3):
                yield blen, *found


def _parsing_below(ea: bytes, rep: bytes) -> tuple[list[int], list[int]] | None:
    """The signs and connectors of the fold >= 3 parsing of packed ea over its prefix in packed rep's class, or None.

    A parsing starts with its base, so only the prefix of len(rep) entries
    can be one; the empty class lies below nothing.
    """
    if not rep or _class_representative(b := ea[: len(rep)]) != rep:
        return None
    return _scan_parsing(ea, b, 3)


def is_strictly_greater(j: VectorClass, k: VectorClass) -> bool:
    """Strict order on knots via their vector classes.

    A parsing survives negating or reversing both vectors at once, so
    j > k exactly when j's representative parses, with fold >= 3, over
    its own prefix in k's class.  Three tiles of k and two connectors
    must fit in j, so a shorter j, and k itself, fail before either is
    read.
    """
    a, b = j.representative, k.representative
    return len(a) >= 3 * len(b) + 2 and _parsing_below(a._packed(), b._packed()) is not None


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
        self._fill(generator, m, n, count)

    def assemble(self) -> SEvenVector:
        return assemble_two_connector(self.generator, self.m, self.n, self.count)


def assemble_two_connector(g: SEvenVector, m: int, n: int, count: int) -> SEvenVector:
    """Assemble (g, m, g', n, g, ..., g) with count tiles: g, then count // 2 periods (m, g', n, g), g' = g reversed.

    The assembly is valid by construction, so it is not checked again: a
    zero connector joins an end of g to the same end of g', and a nonzero
    run starts and ends nonzero.  The one exception is refused by name:
    with g empty and count >= 3, a zero connector would put a 0 at an end.
    """
    if count < 1 or count % 2 == 0:
        raise ValueError(f"tile count {count} must be odd and positive")
    b = g._packed()
    if not b and count > 1 and 0 in (m, n):
        raise ValueError("an empty generator needs nonzero connectors")
    period = _RUNS[m] + _tiles(b)[1][0] + _RUNS[n] + b
    return SEvenVector._from_packed(b + period * (count // 2))


def _bases_and_form(e: bytes) -> tuple[list[bytes], TwoConnectorForm | None]:
    """The packed prefixes that the nonempty packed e parses over, shortest first and up to its form, and that form.

    The empty generator comes first: e is its first two connector runs
    repeated.  Otherwise the first all-plus parsing with alternating
    connectors is the form on the shortest generator; with none, every
    prefix e parses over is listed.
    """
    m, mlen = _connector_read(e, 0)
    n, nlen = _connector_read(e, mlen)  # a run has odd length, so e is never one run
    reps, rest = divmod(len(e), mlen + nlen)
    if not rest and e[: mlen + nlen] * reps == e:
        return [], object.__new__(TwoConnectorForm)._fill(SEvenVector._from_packed(b""), m, n, 2 * reps + 1)
    bases = []
    for blen, signs, c in _prefix_parsings(e):
        if -1 not in signs and c[2:] == c[:-2]:
            g = SEvenVector._from_packed(e[:blen])
            return bases, object.__new__(TwoConnectorForm)._fill(g, c[0], c[1], len(signs))
        bases.append(e[:blen])
    return bases, None


def two_connector_decompose(v: SEvenVector) -> TwoConnectorForm | None:
    """The two-connector form of v built on its shortest generator, if any (see ``_bases_and_form``)."""
    return _bases_and_form(v._packed())[1] if v.entries else None


def smaller_knots(v: SEvenVector) -> frozenset[KnotClass]:
    """All nontrivial knots strictly below the knot of v, from one prefix scan.

    They are the knots of the prefixes v parses over.  The scan stops at
    the generator g of v's two-connector form, if any.  The longer ones
    are v's first d tiles for each d dividing v's tile count (the
    divisor theorem; d = 1 is g), sliced off v.  The shorter ones that v
    parses over are exactly those g parses over: v is an all-plus
    assembly of g, so a parsing of g over b makes one of v over b, and
    the divisor theorem gives the converse.  So g needs no scan.

    The scan reads v as given: negating a parsing of a over b gives one
    of -a over -b, reversing it one of a' over b' or -b', and b, -b and
    b' are one knot, so every orientation of v finds the same knots.
    """
    if v.is_empty:
        raise ValueError("the unknot has nothing below it")
    bases, form = _bases_and_form(e := v._packed())
    if form is not None:
        glen, count = len(form.generator), form.count
        period = (len(e) - glen) // (count // 2)
        # d tiles end after d // 2 periods (m, g', n, g); d is odd; over an empty g, d = 1 is the unknot
        bases += [e[: glen + d // 2 * period] for d in range(1 if glen else 3, count, 2) if count % d == 0]
    return frozenset(map(_knot_of_entries, bases))


class NoCommonFamilyError(ValueError):
    """The inputs do not share a two-connector family, so the construction fails."""


def minimal_upper_bound(vectors: Sequence[SEvenVector]) -> SEvenVector:
    """The shortest vector parsing with respect to every input.

    The inputs must be pairwise incomparable members of one two-connector
    family g with fixed connectors; the bound is the assembly over the
    least common multiple of their tile counts.  A single input is its
    own bound.

    Nothing in the library calls it; it stays public as the
    Ohtsuki-Riley-Sakuma construction of a knot above several
    incomparable ones, where a search of the knots above four
    incomparable knots can start.
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
