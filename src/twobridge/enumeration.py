"""Enumerating 2-bridge knots by crossing number and the EK statistic.

EK(n) is the largest number of distinct nontrivial knots strictly below
any single 2-bridge knot with crossing number n.  Exact values come from
enumerating every knot class with that crossing number and taking the
maximum size of its strictly-smaller set.

Knot classes come from positive integer compositions a_1 + ... + a_k = n
with a_1, a_k >= 2: they evaluate as continued fractions to alternating
diagrams with n crossings, and keeping the odd-denominator values and
deduplicating by knot class yields every knot with crossing number n.
The test suite cross-checks this against a direct generator of
expanded even vectors.

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
from .vectors import VectorClass, connector_vector, crossing_number, entry_orbit, vector_from_knot

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


def _compositions_with_first(n: int, first: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n starting with ``first`` whose last part is >= 2."""
    rest = n - first
    if rest == 0:
        if first >= 2:
            yield (first,)
        return

    prefix = [first]

    def rec(remaining: int) -> Iterator[tuple[int, ...]]:
        for part in range(1, remaining + 1):
            prefix.append(part)
            left = remaining - part
            if left == 0:
                if part >= 2:
                    yield tuple(prefix)
            else:
                yield from rec(left)
            prefix.pop()

    yield from rec(rest)


def _classes_for_first(args: tuple[int, int]) -> set[tuple[int, int]]:
    """Worker task: canonical (p, q) pairs over one first-part slice."""
    n, first = args
    found: set[tuple[int, int]] = set()
    for comp in _compositions_with_first(n, first):
        value = evaluate_terms(comp) if _has_odd_denominator(comp) else None
        if value is not None:
            k = canonical_fraction(value)
            found.add((k.canonical.p, k.canonical.q))
    return found


def _has_odd_denominator(comp: tuple[int, ...]) -> bool:
    # Denominator parity of [a_1, ..., a_k] via the continuant recurrence mod 2.
    num, den = 0, 1
    for a in reversed(comp):
        num, den = den, (a * den + num) % 2
    return den == 1


def _classes_by_compositions(n: int, workers: int = 1) -> set[KnotClass]:
    firsts = list(range(2, n + 1))
    tasks = [(n, f) for f in firsts]
    pairs: set[tuple[int, int]] = set()
    if workers > 1 and len(tasks) > 1:
        # imported here: the pool pulls in multiprocessing, which every
        # single-process CLI call would otherwise pay for at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_classes_for_first, tasks):
                pairs |= chunk
    else:
        for task in tasks:
            pairs |= _classes_for_first(task)
    return {KnotClass(Fraction(p, q)) for p, q in pairs}


def knot_classes(n: int, workers: int = 1) -> set[KnotClass]:
    """All 2-bridge knot classes with crossing number exactly n."""
    if n < 3:
        raise ValueError(f"no 2-bridge knots below 3 crossings, got n = {n}")
    return _classes_by_compositions(n, workers)


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
        for knot in knot_classes(base_cr):
            for b in entry_orbit(vector_from_knot(knot).representative.entries):
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
    """
    classes = knot_classes(n, workers=workers)
    above = _classes_with_smaller(n)
    entries = []
    for knot in sorted(classes, key=lambda k: k.sort_key):
        vc = vector_from_knot(knot)
        got = crossing_number(vc.representative)
        if got != n:
            raise AssertionError(
                f"enumeration produced {knot} with crossing number {got}, expected {n}"
            )
        below = ()
        if vc.representative.entries in above:
            below = sorted(smaller_knots(vc.representative), key=lambda k: k.sort_key)
        entries.append(CatalogEntry(knot, vc, tuple(below)))
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
