"""Enumerating 2-bridge knots by crossing number and the EK statistic.

EK(n) is the largest number of distinct nontrivial knots strictly below
any single 2-bridge knot with crossing number n.  Exact values come from
enumerating every knot class with that crossing number and taking the
maximum size of its strictly-smaller set.

Knot classes are generated as vectors: every knot has exactly one
vector class, and its representative (the orbit's lexicographic
maximum) starts with 2.  A depth-first search grows vectors from (2,)
one entry at a time, and the crossing number rises with every step, so
the search stops at n crossings and never needs a fraction until the
knot of each representative is read off.  The test suite cross-checks
this against a direct generator of expanded even vectors and against
the Ernst-Sumners count.

Almost every class has nothing below it, so the catalog computes
strictly-smaller sets only for the few classes that can have one, and
finds those by generating upward.  J > K exactly when some vector of J
parses, with fold >= 3, with respect to some vector of K
(Ohtsuki-Riley-Sakuma, Geom. Topol. Monogr. 14, 2008), which forces
cr(J) >= 3 cr(K).  So assembling tiles of every vector of every knot K
with 3 cr(K) <= n, and keeping the assemblies with n crossings, reaches
every class with something below it and no other class; the test suite
checks the catalog against one that scans every class.

Exact enumeration is budgeted: past the budget EK(n) is refused rather
than estimated.  The assisted mode instead squeezes EK(n)
between the divisor bound from :mod:`twobridge.bounds` and certified
witnesses (torus knots, the built-in witness table), and only falls back
to enumeration when the squeeze is not tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .bounds import most_divisors_up_to, nontrivial_proper_divisor_count
from .parsing import smaller_knots
from .rationals import Fraction, KnotClass, canonical_fraction, evaluate_terms
from .vectors import SEvenVector, VectorClass, connector_vector, crossing_number, entry_orbit, vector_from_knot

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


def _class_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """The class representative of every knot with crossing number n.

    An iterative depth-first search over the vectors that start with 2.
    A vector with last entry x grows by x (two more crossings), by 0, x
    (two more) or by -x (one more), so every valid vector that starts
    with 2 and has at most n crossings is reached exactly once, and the
    crossing number rises with every step: a branch ends once it
    reaches n.  A leaf with n crossings and even length is kept when it
    is its orbit's maximum; it already beats its negation, so one
    comparison with the reversal that also starts with 2 decides that.
    """
    if n < 3:
        raise ValueError(f"no 2-bridge knots below 3 crossings, got n = {n}")
    stack = [((2,), 2)]
    while stack:
        e, cr = stack.pop()
        if cr == n:
            if len(e) % 2 == 0 and e >= (e[::-1] if e[-1] > 0 else tuple(-a for a in reversed(e))):
                yield e
            continue
        x = e[-1]
        if cr + 2 <= n:
            stack.append((e + (x,), cr + 2))
            stack.append((e + (0, x), cr + 2))
        stack.append((e + (-x,), cr + 1))


def _knots_by_vector(n: int) -> dict[tuple[int, ...], KnotClass]:
    """Every knot with crossing number n, keyed by its class representative."""
    return {e: canonical_fraction(evaluate_terms(e)) for e in _class_vectors(n)}


def knot_classes(n: int, workers: int = 1) -> set[KnotClass]:
    """All 2-bridge knot classes with crossing number exactly n.

    Generation runs in one process; ``workers`` is accepted and ignored.
    """
    return set(_knots_by_vector(n).values())


def _classes_with_smaller(n: int) -> set[tuple[int, ...]]:
    """Representatives of the classes at n crossings with a knot below them.

    A class has a knot K below it exactly when one of its vectors is an
    assembly (b, c_1, e_2*b', c_2, e_3*b, ..., e_f*b) of odd fold f >= 3
    over a vector b of K; the four representatives of K's class are all
    of K's vectors.  The walk is an iterative depth-first search over
    such assemblies that tracks the crossing number as it goes: a tile
    adds cr(b), a zero connector (allowed only between tiles of equal
    sign, whose facing entries then agree) adds 0, and a connector
    c != 0 adds |c| less one for each sign change at its two ends.  So
    every step, one connector and one tile, adds at least cr(b) >= 3:
    the crossing number never falls, a branch is dropped once it would
    pass n, and the walk ends.  An assembly of fold >= 3 has at least
    3 cr(b) crossings, so only bases with 3 cr(K) <= n can reach n.
    """
    found: set[tuple[int, ...]] = set()
    for base_cr in range(3, n // 3 + 1):
        for rep in _class_vectors(base_cr):
            for b in entry_orbit(rep):
                rev = b[::-1]
                # next tile, keyed by (parity of the tile count so far, sign)
                tiles = {
                    (0, 1): b,
                    (0, -1): tuple(-x for x in b),
                    (1, 1): rev,
                    (1, -1): tuple(-x for x in rev),
                }
                # a node is (entries, crossing number, tile count, last sign)
                stack = [(b, base_cr, 1, 1)]
                while stack:
                    entries, cr, count, sign = stack.pop()
                    if cr == n and count % 2 and count >= 3:
                        found.add(max(entry_orbit(entries)))
                    room = n - cr - base_cr  # what the next connector may add
                    for s in (1, -1):
                        tile = tiles[(count % 2, s)]
                        # (connector run, crossings it adds) for every connector that fits
                        joins = [((0,), 0)] if s == sign and room >= 0 else []
                        for end in (2, -2):
                            changes = (entries[-1] != end) + (end != tile[0])
                            for size in range(2, room + changes + 1, 2):
                                joins.append((connector_vector(size * end // 2), size - changes))
                        for run, added in joins:
                            stack.append((entries + run + tile, cr + added + base_cr, count + 1, s))
    return found


@dataclass(frozen=True)
class CatalogEntry:
    knot: KnotClass
    vector: VectorClass
    smaller: tuple[KnotClass, ...]

    def to_json_dict(self) -> dict:
        return {
            "p": self.knot.canonical.p,
            "q": self.knot.canonical.q,
            "vector": list(self.vector.representative.entries),
            "smaller": [
                {"p": k.canonical.p, "q": k.canonical.q} for k in self.smaller
            ],
        }


@dataclass(frozen=True)
class KnotCatalog:
    crossing_number: int
    entries: tuple[CatalogEntry, ...]

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

    Only the classes that upward generation reaches can have a knot
    below them; every other entry gets an empty strictly-smaller set.
    ``workers`` is accepted and ignored, as in :func:`knot_classes`.
    """
    above = _classes_with_smaller(n)
    entries = []
    for rep, knot in sorted(_knots_by_vector(n).items(), key=lambda item: item[1].sort_key):
        v = SEvenVector(rep)
        below = ()
        if rep in above:
            below = sorted(smaller_knots(v), key=lambda k: k.sort_key)
        entries.append(CatalogEntry(knot, VectorClass(v), tuple(below)))
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


@dataclass(frozen=True)
class WitnessReport:
    n: int
    fraction: Fraction
    crossing_number: int
    smaller_count: int

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
    """
    best = 0
    if n % 2 and n >= 3:
        best = max(best, nontrivial_proper_divisor_count(n, upper))
    for wn, frac in TWO_SMALLER_WITNESSES:
        if wn == n:
            vc = vector_from_knot(canonical_fraction(frac))
            best = max(best, len(smaller_knots(vc.representative)))
    return best


def epimorphism_number(
    n: int,
    mode: str = "exact",
    budget: Optional[int] = None,
    workers: int = 1,
) -> int:
    """EK(n): the maximal number of knots strictly below an n-crossing knot.

    ``exact`` enumerates every knot class at n crossings (refused past
    the budget).  ``assisted`` first squeezes the value between the
    divisor-bound ceiling and certified witnesses, which settles many n
    far beyond any enumeration budget, and enumerates only when the
    squeeze stays open.
    """
    if n < 3:
        raise ValueError(f"no 2-bridge knots below 3 crossings, got n = {n}")
    budget = DEFAULT_BUDGET if budget is None else budget
    if mode == "exact":
        if n > budget:
            raise BudgetExceededError(n, budget)
        return enumerate_knots(n, workers=workers).ek
    if mode == "assisted":
        upper = most_divisors_up_to(n)
        if upper == 0:
            return 0
        if _assisted_lower_bound(n, upper) == upper:
            return upper
        if n > budget:
            raise BudgetExceededError(n, budget)
        return enumerate_knots(n, workers=workers).ek
    raise ValueError(f"unknown mode {mode!r}")
