"""Enumerating 2-bridge knots by crossing number and the EK statistic.

EK(n) is the largest number of distinct nontrivial knots strictly below
any single 2-bridge knot with crossing number n.

Knot classes are generated as vectors: every knot has exactly one
vector class, and its representative (the orbit's lexicographic
maximum) starts with 2 and has even length.  A meet-in-the-middle
search builds each representative once, from its two halves normalized
to start with 2, and keeps it when the first half is at least the
second; the halves are few (573 at n = 18 and 58,047 at n = 30, against
10,965 and 44,741,973 classes).  Each half carries its product of
[[x, 1], [1, 0]] matrices, and the knot is read off the product for the
whole vector, with no fraction evaluated or inverted.  The test suite
cross-checks this against a direct generator of expanded even vectors,
the Ernst-Sumners count and a stdlib fraction oracle.

Almost every class has nothing below it, and the strictly-smaller sets
come from generating upward.  J > K exactly when some vector of J
parses, with fold >= 3, with respect to some vector of K
(Ohtsuki-Riley-Sakuma, Geom. Topol. Monogr. 14, 2008), which forces
cr(J) >= 3 cr(K).  So assembling tiles of the representative of every
knot K with 3 cr(K) <= n, and keeping the assemblies with n crossings,
reaches every class with something below it and no other class, and
the bases each class is reached from are its strictly-smaller set.  The
walk counts each class once, at its shortest base, and keeps nothing.
The catalog takes its smaller sets from that walk, and exact EK(n) is
the largest of them, so it never lists the classes at n; the test
suite checks both against a prefix scan of every class.

Exact values are budgeted: past the budget EK(n) is refused rather
than estimated.  The assisted mode instead squeezes EK(n)
between the divisor bound from :mod:`twobridge.bounds` and certified
witnesses (torus knots, the lift of 1/9), and only falls back
to the exact walk when the squeeze is not tight.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator

from ._value import Value
from .bounds import most_divisors_up_to, nontrivial_proper_divisor_count
from .parsing import _prefix_parsings, _tiles, smaller_knots
from .rationals import Fraction, KnotClass, canonical_fraction
from .vectors import (
    VectorClass,
    _class_representative,
    _knot_of_entries,
    connector_vector,
    crossing_number,
    vector_from_knot,
)

__all__ = [
    "BudgetExceededError",
    "CatalogEntry",
    "DEFAULT_BUDGET",
    "KnotCatalog",
    "TWO_SMALLER_WITNESSES",
    "WitnessReport",
    "enumerate_knots",
    "epimorphism_number",
    "knot_classes",
    "verify_witness_table",
]

DEFAULT_BUDGET = 18


class BudgetExceededError(RuntimeError):
    """Exact enumeration was refused because n exceeds the budget."""

    def __init__(self, n: int, budget: int) -> None:
        super().__init__(
            f"EK({n}) not computed at this scale: exact enumeration is budgeted "
            f"to n <= {budget} (raise the budget to override)"
        )
        self.n = n
        self.budget = budget


def _halves(n: int) -> list[list[tuple]]:
    """The half-vectors of the class search at n crossings, by length.

    Level m - 1 holds the halves of length m <= (n - 1) // 2 that may lie
    in a vector with n crossings, as (entries, c, last, a, b, g, d):
    entries start with 2 and may end in 0, c is 2 per nonzero entry less
    one per sign change, last is the last nonzero entry, and
    [[a, b], [g, d]] is the product of [[x, 1], [1, 0]] over the entries.
    The other half has c >= m, and c >= m + 1 where the junction changes
    sign, so a half with c > n - m is in no vector with n crossings: it
    is dropped, and so is everything grown from it, which is longer and
    has no smaller c.
    """
    level = [((2,), 2, 2, 2, 1, 1, 0)]
    levels = []
    for m in range(1, (n - 1) // 2 + 1):
        level = [h for h in level if h[1] <= n - m]
        levels.append(level)
        grown = []
        for e, c, x, a, b, g, d in level:
            grown.append((e + (x,), c + 2, x, x * a + b, a, x * g + d, g))
            if e[-1]:
                grown.append((e + (-x,), c + 1, -x, b - x * a, a, d - x * g, g))
                grown.append((e + (0,), c, x, b, a, d, g))
        level = grown
    return levels


def _class_vectors(n: int) -> Iterator[tuple[tuple[int, ...], KnotClass]]:
    """The class representative of every knot with crossing number n, with its knot.

    A meet-in-the-middle search.  The representative e of a class, the
    lexicographic maximum of its orbit, starts with 2 and has even
    length 2m.  Split it into L = e[:m] and R', the reversal of e[m:]
    negated if need be to start with 2, so that e = L + s rev(R') for a
    sign s.  The other orbit member that starts with 2 begins with R',
    so e is its class representative exactly when L >= R' (when L = R',
    e is that member).  So each half L of length m (see ``_halves``)
    meets, for each s, every half R' <= L that gives n crossings, found
    with one ``bisect_right`` into a sorted group: the junction costs one
    crossing when the facing nonzero entries differ, a 0 there needs
    them to agree, and two 0s may not meet.  Every class is built once,
    and no vector of odd length is built.

    The knot is read off the product M(e) of [[x, 1], [1, 0]] over the
    entries, [[k, k0], [h, h0]] for [e] = h/k with previous convergent
    h0/k0.  M(e) = M(L) M(t) for the tail t = s rev(R'), and M(t) comes
    from M(R'): M(rev X) = M(X)^T and M(-X) = (-1)^|X| D M(X) D with
    D = diag(1, -1), whose sign (-1)^m changes nothing below and is
    dropped.  det M(e) = 1, so k0 = -h^-1 (mod k): q = |k| and p is the
    least of h, -h, k0 and -k0 mod q, the orbit {p, -p, p^-1, -p^-1},
    with no fraction evaluated and no inverse taken.  Classes come in
    the catalog's order, by q and then p.
    """
    if n < 3:
        raise ValueError(f"no 2-bridge knots below 3 crossings, got n = {n}")
    found = []
    for level in _halves(n):
        # each tail t = s rev(R') with M(t) = [[w, u], [y, z]], grouped by
        # (c, first nonzero entry, starts with 0) and sorted by R'
        tails = {}
        for r, c, x, a, b, g, d in level:
            t, zero = r[::-1], r[-1] == 0
            tails.setdefault((c, x, zero), []).append((r, (t, a, g, b, d)))
            tails.setdefault((c, -x, zero), []).append((r, (tuple([-y for y in t]), a, -g, -b, d)))
        for key, group in tails.items():
            group.sort()
            tails[key] = tuple(zip(*group))
        for e, c, x, a, b, g, d in level:
            # the tail's first nonzero entry agrees with x, or differs at one more crossing
            if e[-1]:
                joins = ((n - c, x, False), (n - c, x, True), (n - c + 1, -x, False))
            else:
                joins = ((n - c, x, False),)
            for key in joins:
                if key in tails:
                    rs, ts = tails[key]
                    for t, w, u, y, z in ts[:bisect_right(rs, e)]:
                        q = abs(a * w + b * y)
                        h, k0 = g * w + d * y, a * u + b * z
                        found.append((q, min(h % q, -h % q, k0 % q, -k0 % q), e + t))
    found.sort()
    for q, p, e in found:
        yield e, KnotClass._unchecked(Fraction(p, q))


def _knots_by_vector(n: int) -> dict[tuple[int, ...], KnotClass]:
    """Every knot with crossing number n, keyed by its class representative, by q and then p."""
    return dict(_class_vectors(n))


def knot_classes(n: int, workers: int = 1) -> set[KnotClass]:
    """All 2-bridge knot classes with crossing number exactly n.

    Generation runs in one process; ``workers`` is accepted and ignored.
    """
    return set(_knots_by_vector(n).values())


def _assemblies(b: tuple[int, ...], base_cr: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every assembly (b, c_1, e_2*b', c_2, e_3*b, ..., e_f*b) of odd fold
    f >= 3 over b, which has base_cr crossings, with n crossings in all.

    A depth-first search that tracks the crossing number, on a plain
    stack of (entries, crossing number, tile count, last sign): a tile
    adds cr(b), a zero connector (only between tiles of equal sign,
    whose facing entries then agree) adds 0, and a connector c != 0
    adds |c| less one per sign change at its two ends.  Each step adds
    at least cr(b) >= 3, so a branch ends once another step would pass
    n.  Children are pushed shortest connector first, so popped last:
    the siblings waiting beside a branch have shorter connectors than
    the ones it took, whose sizes sum to about n at most, so the stack
    holds O(n) nodes.
    """
    tiles = _tiles(b)
    stack = [(b, base_cr, 1, 1)]
    while stack:
        entries, cr, count, sign = stack.pop()
        if cr == n and count % 2:
            yield entries
        room = n - cr - base_cr  # what the next connector may add
        if room < 0:
            continue
        stack.append((entries + (0,) + tiles[(count % 2, sign)], cr + base_cr, count + 1, sign))
        for size in range(2, room + 3, 2):
            for s in (1, -1):
                tile = tiles[(count % 2, s)]
                for end in (2, -2):
                    changes = (entries[-1] != end) + (end != tile[0])
                    if size - changes <= room:
                        run = connector_vector(size * end // 2)
                        stack.append((entries + run + tile, cr + size - changes + base_cr, count + 1, s))


def _classes_with_smaller(n: int) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Each class at n crossings with a knot below it, once, with the bases of those knots.

    Each K below the class has its representative b as the prefix that
    the class representative a parses over (see ``is_strictly_greater``),
    so a is an assembly over b, and prefixes of different lengths are
    different knots.  So a is yielded from its shortest base only: where
    the assembly is its own representative and no shorter prefix parses.
    """
    for base_cr in range(3, n // 3 + 1):
        for b, _ in _class_vectors(base_cr):
            for a in _assemblies(b, base_cr, n):
                if _class_representative(a) is a and next(_prefix_parsings(a, 2, len(b)), None) is None:
                    yield a, [b, *(p for p, _, _ in _prefix_parsings(a, len(b) + 2))]


class CatalogEntry(Value):
    __slots__ = ("knot", "vector", "smaller")
    knot: KnotClass
    vector: VectorClass
    smaller: tuple[KnotClass, ...]

    def __init__(self, knot: KnotClass, vector: VectorClass, smaller: tuple[KnotClass, ...]) -> None:
        object.__setattr__(self, "knot", knot)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "smaller", smaller)

    def to_json_dict(self) -> dict:
        return {
            "p": self.knot.canonical.p,
            "q": self.knot.canonical.q,
            "vector": list(self.vector.representative.entries),
            "smaller": [
                {"p": k.canonical.p, "q": k.canonical.q} for k in self.smaller
            ],
        }


class KnotCatalog(Value):
    __slots__ = ("crossing_number", "entries")
    crossing_number: int
    entries: tuple[CatalogEntry, ...]

    def __init__(self, crossing_number: int, entries: tuple[CatalogEntry, ...]) -> None:
        object.__setattr__(self, "crossing_number", crossing_number)
        object.__setattr__(self, "entries", entries)

    @property
    def ek(self) -> int:
        return max(len(e.smaller) for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "n": self.crossing_number,
            "knots": [e.to_json_dict() for e in self.entries],
            "ek": self.ek,
        }


def enumerate_knots(n: int, workers: int = 1) -> KnotCatalog:
    """The full catalog at n crossings, strictly-smaller sets included.

    The upward walk yields each reached class once, at its shortest base,
    and only the knots of those bases are computed; every class it does not
    reach gets an empty set.  Each class comes with its knot from the class
    search, as its representative and in the catalog's order, so neither is
    normalized again and the classes are not sorted again.
    ``workers`` is ignored, as in :func:`knot_classes`.
    """
    above = dict(_classes_with_smaller(n))
    entries = []
    for rep, knot in _knots_by_vector(n).items():
        bases = above.get(rep)
        below = tuple(sorted(map(_knot_of_entries, bases), key=lambda k: k.sort_key)) if bases else ()
        entries.append(CatalogEntry(knot, VectorClass._unchecked(rep), below))
    return KnotCatalog(n, tuple(entries))


# Witness knots with exactly two strictly-smaller knots, one or two per
# crossing number from 27 through 44.
TWO_SMALLER_WITNESSES: tuple[tuple[int, Fraction], ...] = tuple(
    (n, Fraction(p, q))
    for n, p, q in [
        (27, 1, 27),
        (28, 17, 315),
        (29, 35, 621),
        (29, 19, 351),
        (30, 577, 5499),
        (30, 35, 639),
        (31, 1189, 10395),
        (31, 53, 945),
        (32, 883, 8415),
        (33, 1, 33),
        (33, 1801, 15903),
        (34, 23, 495),
        (35, 461, 5313),
        (35, 1, 35),
        (36, 29, 595),
        (37, 349, 5075),
        (37, 91, 1647),
        (38, 107, 1935),
        (39, 125, 2241),
        (40, 2107, 20079),
        (41, 127, 2295),
        (41, 4249, 37935),
        (42, 143, 2583),
        (43, 161, 2889),
        (44, 2719, 25911),
    ]
)


class WitnessReport(Value):
    __slots__ = ("n", "fraction", "crossing_number", "smaller_count")
    n: int
    fraction: Fraction
    crossing_number: int
    smaller_count: int

    def __init__(self, n: int, fraction: Fraction, crossing_number: int, smaller_count: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "fraction", fraction)
        object.__setattr__(self, "crossing_number", crossing_number)
        object.__setattr__(self, "smaller_count", smaller_count)

    @property
    def passed(self) -> bool:
        return self.crossing_number == self.n and self.smaller_count >= 2

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "fraction": str(self.fraction),
            "crossing_number": self.crossing_number,
            "smaller_count": self.smaller_count,
            "passed": self.passed,
        }


def verify_witness_table() -> tuple[WitnessReport, ...]:
    """Check every witness row: crossing number matches and >= 2 knots sit below."""
    reports = []
    for n, frac in TWO_SMALLER_WITNESSES:
        vc = vector_from_knot(canonical_fraction(frac))
        below = smaller_knots(vc.representative)
        reports.append(WitnessReport(n, frac, crossing_number(vc.representative), len(below)))
    return tuple(reports)


def _assisted_lower_bound(n: int, upper: int) -> int:
    """The certified lower bound on EK(n) when it reaches ``upper``, else a value below it.

    The torus knot 1/n has one knot below it per nontrivial proper
    divisor of n; counting them stops early, with some value below the
    divisor-bound ceiling ``upper``, once the count cannot reach it.
    For n >= 27 the 3-fold lift of 1/9 to n crossings lies above 1/9,
    and 1/9 lies above 1/3, so EK(n) >= 2.
    """
    best = nontrivial_proper_divisor_count(n, upper) if n % 2 and n >= 3 else 0
    return max(best, 2) if n >= 27 else best


def epimorphism_number(
    n: int,
    mode: str = "exact",
    budget: int | None = None,
    workers: int = 1,
) -> int:
    """EK(n): the maximal number of knots strictly below an n-crossing knot.

    ``exact`` is the most bases the upward walk yields for one class (0
    when it reaches none), refused past the budget; it keeps one integer.
    ``assisted`` first squeezes the value between the divisor-bound
    ceiling and certified witnesses, which settles many n far beyond
    any budget, and walks only when the squeeze stays open.
    ``workers`` is accepted and ignored.
    """
    if n < 3:
        raise ValueError(f"no 2-bridge knots below 3 crossings, got n = {n}")
    if mode not in ("exact", "assisted"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = DEFAULT_BUDGET if budget is None else budget
    if mode == "assisted":
        upper = most_divisors_up_to(n)
        if upper == 0:
            return 0
        if _assisted_lower_bound(n, upper) == upper:
            return upper
    if n > budget:
        raise BudgetExceededError(n, budget)
    return max((len(bases) for _, bases in _classes_with_smaller(n)), default=0)
