"""Catalog enumeration and the EK sequence.

Independent routes to the same class sets keep each other honest: the
library's class generator, the direct vector generator from conftest,
and the Ernst-Sumners count.  The catalog, whose smaller sets are the
ones upward generation records, is checked against one that scans every
class, and the classes it reaches against brute-force assemblies built
with conftest's oracle.  Each catalog knot, which the class generator
reads off its continuants, is checked against conftest's stdlib fraction
oracle, and the catalog's JSON bytes are pinned by digest.  EK values for
the small window are frozen from the enumeration itself and pinned
against the certified bounds.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product

import pytest
from conftest import (
    ernst_sumners_count,
    oracle_assemble,
    oracle_conway_alexander,
    oracle_knot,
    oracle_poly_remainder,
    oracle_vectors,
)

from twobridge import (
    BudgetExceededError,
    CatalogEntry,
    Fraction,
    KnotCatalog,
    KnotClass,
    SEvenVector,
    TWO_SMALLER_WITNESSES,
    canonical_fraction,
    crossing_number,
    enumerate_knots,
    epimorphism_number,
    knot_classes,
    knot_from_vector,
    lift_construction,
    most_divisors_up_to,
    nontrivial_proper_divisor_count,
    smaller_knots,
    torus_vector,
    vector_from_knot,
    verify_witness_table,
)
from twobridge import enumeration
from twobridge.bounds import _assisted_lower_bound
from twobridge.enumeration import _assemblies, _class_vectors, _classes_with_smaller
from twobridge.vectors import _class_representative, _pack, _unpack

# EK(n) for n = 3..18: zero through 8 crossings, one from 9 through 14,
# two for 15 through 17, then back to one at 18
KNOWN_EK = {
    **{n: 0 for n in range(3, 9)},
    **{n: 1 for n in range(9, 15)},
    **{n: 2 for n in range(15, 18)},
    18: 1,
}

# SHA-256 of json.dumps(enumerate_knots(n).to_json_dict(), indent=2,
# sort_keys=True), the bytes `enumerate n --json` prints, for n = 3..18
CATALOG_SHA256 = {
    3: "e23df413a0ec4eb33d917d31cdd3df949e6224f3009cc67da4b04e721be98520",
    4: "e99d66c5267bd3ed0901aff503247bcf8b606e1325668bd93b700bb3091a1155",
    5: "c82c56e141936d6b3764108a66ab3c165c110b07955cae8871f1942134740f5e",
    6: "9d3c221af9f7ee163e37a9acc7c498540ccf392833cfa65b979a1998fc0a97b9",
    7: "dd4f9df99e2f573007dd88d630513b110373957c75d86fe76da51361c85bcf85",
    8: "ad142ad10a2ce88ed25342f22c02eb509b109b29aba87821f6be63b92504b71b",
    9: "dee084b4f6bcfdf65e34644f9a1792351ed7a681ea45568916d2700bcce1b4f2",
    10: "96f51d4d981f37cc014e69bb30a7ab0aaa0946f7570bdcd995ee53b842f0a01d",
    11: "deffa24e41e4d843aea3be08719ba993b0836519c661f6a73b7163177cff7106",
    12: "6e004e4893efba7492a9d1b553d1971807e5694719408a3e46ec6bb52de08523",
    13: "9faa2735e308be4f61b7896917042454aebfbdecccee8774b94ded48c10643f6",
    14: "bb8c3c04022ffabb509686448d357476a06d0d1a166e654617539df4199a999b",
    15: "83acc83af53db17c45a54de23239ac0dbb6c9eeac0a52c5e6275a458a6cb7bb8",
    16: "1448cde9a64671fdaa8f88959e14a8e7ee71549900465f5325badf42082f2c25",
    17: "2ce31b57ef9ba1c166147f42f9dadca49eee7e6099d12bdeb7fdb49e6f923e8e",
    18: "aab8e015246d14039c06a576c089a988baf2a945a0f68f46b1df523658c477ea",
}

# class counts per crossing number, 3..11
KNOWN_CLASS_COUNTS = (1, 1, 2, 3, 7, 12, 24, 45, 91)


def classes_by_direct_generator(n):
    out = set()
    for length in range((n + 1) // 2, n):
        if length % 2:
            continue
        for entries in oracle_vectors(length):
            v = SEvenVector(entries)
            if crossing_number(v) == n:
                out.add(knot_from_vector(v))
    return out


def brute_catalog(n):
    """The catalog with the prefix scan run on every class, not only the
    classes upward generation reaches."""
    entries = []
    for knot in sorted(knot_classes(n), key=lambda k: k.sort_key):
        vc = vector_from_knot(knot)
        below = sorted(smaller_knots(vc.representative), key=lambda k: k.sort_key)
        entries.append(CatalogEntry(knot, vc, tuple(below)))
    return KnotCatalog(n, tuple(entries))


def oracle_crossings(v):
    nonzero = [a for a in v if a]
    return 2 * len(nonzero) - sum(a != b for a, b in zip(nonzero, nonzero[1:]))


def oracle_valid(v):
    return all(v[i - 1] == v[i + 1] != 0 for i, a in enumerate(v) if a == 0)


def connector_patterns(k, halves):
    """Every k-tuple of even connectors whose |c|/2 sum to at most halves."""
    if k == 0:
        yield ()
        return
    for half in range(halves + 1):
        for c in (0,) if half == 0 else (2 * half, -2 * half):
            for rest in connector_patterns(k - 1, halves - half):
                yield (c,) + rest


def classes_above_by_assembly(n):
    """Orbit maxima of the fold >= 3 assemblies with n crossings, by brute force.

    A vector with z nonzero entries has at least z + 1 crossings and at
    most 2z - 1 entries, so the base, fold and connectors are bounded by
    counting nonzero entries alone: fold * z(base) plus the |c|/2 of the
    connectors stays below n.
    """
    out = set()
    for length in range(2, 2 * ((n - 1) // 3), 2):
        for base in oracle_vectors(length):
            z = sum(1 for a in base if a)
            for fold in range(3, n, 2):
                halves = n - 1 - fold * z
                if halves < 0:
                    break
                for signs in product((1, -1), repeat=fold - 1):
                    for conns in connector_patterns(fold - 1, halves):
                        v = oracle_assemble(base, (1,) + signs, conns)
                        if oracle_valid(v) and oracle_crossings(v) == n:
                            neg = tuple(-a for a in v)
                            out.add(max(v, neg, v[::-1], neg[::-1]))
    return out


def base_knots(bases):
    return {knot_from_vector(SEvenVector(_unpack(b))) for b in bases}


def map_walk(n):
    """The knots below each reached class, by keeping one set per class.

    Every assembly over every base representative is keyed by its class,
    so a class reached from several bases collects all of them.
    """
    found = {}
    for base_cr in range(3, n // 3 + 1):
        for b, _ in _class_vectors(base_cr):
            for entries in _assemblies(_pack(b), base_cr, n):
                found.setdefault(_unpack(_class_representative(entries)), set()).add(knot_from_vector(SEvenVector(b)))
    return found


# ---------------------------------------------------------------- classes

def test_small_catalogs_frozen():
    assert {str(k) for k in knot_classes(3)} == {"1/3"}
    assert {str(k) for k in knot_classes(4)} == {"2/5"}
    assert {str(k) for k in knot_classes(5)} == {"1/5", "2/7"}
    # 3/7 names the same knot as 2/7
    assert canonical_fraction(Fraction(3, 7)) in knot_classes(5)


def test_knot_classes_match_direct_generator():
    for n in range(3, 15):
        assert knot_classes(n) == classes_by_direct_generator(n), f"n = {n}"


def test_class_counts_match_ernst_sumners():
    for n in range(3, 21):
        assert len(knot_classes(n)) == ernst_sumners_count(n), f"n = {n}"


def test_class_vectors_are_orbit_maxima_of_every_vector():
    # one representative per class, and exactly the orbit maxima of the
    # vectors with n crossings
    for n in range(3, 15):
        reps = [e for e, _ in _class_vectors(n)]
        assert len(reps) == len(set(reps)), f"n = {n}"
        want = set()
        for length in range(2, n, 2):
            for v in oracle_vectors(length):
                if oracle_crossings(v) == n:
                    neg = tuple(-a for a in v)
                    want.add(max(v, neg, v[::-1], neg[::-1]))
        assert set(reps) == want, f"n = {n}"


def test_class_vectors_yield_each_class_once():
    # knot_classes is a set and would hide a class yielded twice; n = 3..21
    # covers both parities of n and halves of every length up to 10
    for n in range(3, 22):
        reps = [e for e, _ in _class_vectors(n)]
        assert len(reps) == ernst_sumners_count(n), f"n = {n}"
        assert len(set(reps)) == len(reps), f"n = {n}"


def test_class_vector_knots_match_oracle():
    # the search builds each knot and its fraction without the constructors,
    # which would normalize nothing
    for n in range(3, 17):
        for e, knot in _class_vectors(n):
            p, q = oracle_knot(e)
            assert (knot.canonical.p, knot.canonical.q) == (p, q), (n, e)
            assert knot == KnotClass(Fraction(p, q)), (n, e)


def test_symmetric_classes_are_read_off_their_halves():
    # classes whose two halves agree (L = R'), so each equals its own
    # normalized reversal: e[m:] is the reversal of e[:m], or its negation
    # (the last two, with m even and odd)
    palindromes = [(2, 2), (2, -2, -2, 2), (2, 0, 2, 2, 0, 2), (2, -2, 0, -2, -2, 0, -2, 2)]
    for e in [*palindromes, (2, 2, -2, -2), (2, -2, 2, -2, 2, -2)]:
        rev = e[::-1] if e[-1] > 0 else tuple(-a for a in reversed(e))
        assert rev == e
        knots = dict(_class_vectors(oracle_crossings(e)))
        assert (knots[e].canonical.p, knots[e].canonical.q) == oracle_knot(e), e


def test_class_counts_frozen():
    for n, want in zip(range(3, 12), KNOWN_CLASS_COUNTS):
        assert len(knot_classes(n)) == want


def test_knot_classes_rejects_bad_input():
    with pytest.raises(ValueError):
        knot_classes(2)


def test_worker_merge_deterministic():
    assert knot_classes(12, workers=2) == knot_classes(12, workers=1)


# ------------------------------------------------------------------ catalog

def test_catalog_structure():
    cat = enumerate_knots(5)
    assert isinstance(cat, KnotCatalog)
    assert cat.crossing_number == 5
    assert [str(e.knot) for e in cat.entries] == ["1/5", "2/7"]
    assert cat.entries[0].vector.representative.entries == (2, -2, 2, -2)
    assert all(e.smaller == () for e in cat.entries)
    assert cat.ek == 0


def test_catalog_sorted_and_consistent():
    for n in (9, 10, 11):
        cat = enumerate_knots(n)
        keys = [e.knot.sort_key for e in cat.entries]
        assert keys == sorted(keys)
        assert cat.ek == max(len(e.smaller) for e in cat.entries)
        for e in cat.entries:
            assert crossing_number(e.vector.representative) == n
            for below in e.smaller:
                assert below != e.knot


def test_catalog_vectors_have_n_crossings():
    for n in range(3, 19):
        for e in enumerate_knots(n).entries:
            assert oracle_crossings(e.vector.representative.entries) == n, (n, str(e.knot))


def test_catalog_matches_scan_of_every_class():
    for n in range(3, 18):
        assert enumerate_knots(n) == brute_catalog(n), f"n = {n}"


def test_classes_with_smaller_match_brute_assemblies():
    # the generated set holds no class without a knot below it, so the
    # catalog scans no class in vain
    for n in range(3, 16):
        want = classes_above_by_assembly(n)
        got = {e.vector.representative.entries for e in enumerate_knots(n).entries if e.smaller}
        assert got == want, f"n = {n}"
        assert {rep for rep, _ in _classes_with_smaller(n)} == want, f"n = {n}"


def test_recorded_smaller_sets_match_scan_past_the_window():
    # test_catalog_matches_scan_of_every_class covers n <= 17
    for n in range(18, 21):
        recorded = dict(_classes_with_smaller(n))
        assert recorded, f"n = {n}"
        for rep, bases in recorded.items():
            assert base_knots(bases) == smaller_knots(SEvenVector(rep)), (n, rep)


def test_walk_yields_each_class_once():
    for n in range(3, 22):
        reps = [rep for rep, _ in _classes_with_smaller(n)]
        assert len(reps) == len(set(reps)), f"n = {n}"


def test_walk_bases_match_map_walk():
    # every base is a different knot, so its length is the class's count
    for n in range(18, 22):
        walked = list(_classes_with_smaller(n))
        got = {rep: base_knots(bases) for rep, bases in walked}
        assert got == map_walk(n), f"n = {n}"
        assert all(len(bases) == len(got[rep]) for rep, bases in walked), f"n = {n}"


def test_walk_bases_divide_alexander():
    # an epimorphism J -> K makes Delta_K divide Delta_J: checked for every
    # base the walk reaches each class from at n = 19..24, past the catalogs
    # test_smaller_knots_divide_alexander covers, with both knots read by
    # oracle_knot (each packed byte x is the entry 2x - 4) and both
    # polynomials from the continuant oracle
    delta_of_base = {}
    counts = []
    for n in range(19, 25):
        classes = pairs = 0
        for rep, bases in _classes_with_smaller(n):
            delta = oracle_conway_alexander(*oracle_knot(rep))
            for b in bases:
                if b not in delta_of_base:
                    delta_of_base[b] = oracle_conway_alexander(*oracle_knot(tuple(2 * x - 4 for x in b)))
                assert not any(oracle_poly_remainder(delta, delta_of_base[b])), (rep, _unpack(b))
            classes += 1
            pairs += len(bases)
        counts.append((n, classes, pairs))
    assert counts == [
        (19, 376, 376), (20, 568, 568), (21, 902, 903), (22, 1429, 1430), (23, 2412, 2413), (24, 4161, 4161),
    ]


def test_catalog_bytes_frozen():
    for n, want in CATALOG_SHA256.items():
        data = json.dumps(enumerate_knots(n).to_json_dict(), indent=2, sort_keys=True)
        assert hashlib.sha256(data.encode()).hexdigest() == want, f"n = {n}"


def test_catalog_knots_match_oracle():
    for n in range(3, 15):
        for e in enumerate_knots(n).entries:
            got = (e.knot.canonical.p, e.knot.canonical.q)
            assert got == oracle_knot(e.vector.representative.entries), (n, str(e.knot))


def test_catalog_knots_are_normalized():
    # every knot the catalog builds, listed or below a listed one, is the
    # value the checking constructor gives, equal and with an equal hash
    for n in range(3, 17):
        for e in enumerate_knots(n).entries:
            for knot in (e.knot, *e.smaller):
                checked = KnotClass(knot.canonical)
                assert knot == checked and hash(knot) == hash(checked), (n, str(knot))


def test_catalog_json_shape():
    d = enumerate_knots(9).to_json_dict()
    assert d["n"] == 9
    assert d["ek"] == 1
    assert len(d["knots"]) == 24
    row = d["knots"][0]
    assert set(row) == {"p", "q", "vector", "smaller"}
    assert row["p"] == 1 and row["q"] == 9
    assert row["smaller"] == [{"p": 1, "q": 3}]


# ----------------------------------------------------------------------- EK

def test_ek_window_frozen():
    for n in range(3, 19):
        assert epimorphism_number(n) == KNOWN_EK[n], f"EK({n})"


def test_exact_ek_matches_catalog():
    for n in range(3, 21):
        assert epimorphism_number(n, budget=n) == enumerate_knots(n).ek, f"EK({n})"


def refuse_classes_at(monkeypatch, refused):
    """Make _class_vectors refuse to list the classes at n = refused; the
    walk still lists its bases, the classes with n // 3 crossings or fewer."""
    class_vectors = enumeration._class_vectors

    def refuse(n):
        if n == refused:
            raise AssertionError(f"listed every class at n = {n}")
        return class_vectors(n)

    monkeypatch.setattr(enumeration, "_class_vectors", refuse)


def test_exact_ek_lists_no_classes(monkeypatch):
    refuse_classes_at(monkeypatch, 18)
    assert epimorphism_number(18) == 1


def test_catalog_lists_classes_through_one_name(monkeypatch):
    # the counterpart of test_exact_ek_lists_no_classes: the catalog and
    # knot_classes list the classes at n through _class_vectors
    refuse_classes_at(monkeypatch, 9)
    for listing in (enumerate_knots, knot_classes):
        with pytest.raises(AssertionError, match="n = 9"):
            listing(9)


def test_catalog_and_exact_ek_scan_no_prefixes(monkeypatch):
    want = enumerate_knots(15)

    def refuse(v):
        raise AssertionError(f"scanned {v}")

    monkeypatch.setattr(enumeration, "smaller_knots", refuse)
    assert enumerate_knots(15) == want
    assert epimorphism_number(15) == 2


def test_exact_ek_memory_stays_flat():
    # the walk keeps nothing between assemblies; one set of knots per
    # reached class peaked at about 6 MiB here.  The peak also counts
    # CPython's tuple free lists, bounded whatever n is, so they are
    # emptied first to measure the same in any test order
    gc.collect()
    tracemalloc.start()
    try:
        assert epimorphism_number(26, budget=26) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


LISTINGS = (enumerate_knots, knot_classes)


def class_vectors_then(monkeypatch, after):
    """Make _class_vectors record gc.isenabled() at each class it yields
    and call after(n) once its classes run out; returns the record."""
    class_vectors = enumeration._class_vectors
    seen = []

    def spy(n):
        for item in class_vectors(n):
            seen.append(gc.isenabled())
            yield item
        after(n)

    monkeypatch.setattr(enumeration, "_class_vectors", spy)
    return seen


@pytest.mark.parametrize("listing", LISTINGS)
def test_listing_pauses_the_collector(monkeypatch, listing):
    seen = class_vectors_then(monkeypatch, lambda n: None)
    try:
        gc.enable()
        listing(12)
        assert seen and not any(seen)
        assert gc.isenabled()
        # a caller's pause stays in force: the call never switches it on
        gc.disable()
        listing(12)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("listing", LISTINGS)
def test_failed_listing_restores_the_collector(monkeypatch, listing):
    def fail(n):
        raise RuntimeError(f"class search broke after the classes at n = {n}")

    seen = class_vectors_then(monkeypatch, fail)
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            with pytest.raises(RuntimeError, match="class search broke"):
                listing(12)
            assert gc.isenabled() is enabled
        assert seen
    finally:
        gc.enable()


def test_catalog_build_leaves_no_cyclic_garbage():
    # why the pause is safe: the build makes no reference cycles, so with
    # the collector off throughout, a full collection afterwards finds nothing
    gc.collect()
    gc.disable()
    try:
        for n in range(3, 17):
            enumerate_knots(n)
            knot_classes(n)
        assert gc.collect() == 0
    finally:
        gc.enable()


# Builds one listing at n = 14 in a fresh interpreter, so that no
# gc.unfreeze() there can thaw what this process froze (CPython 3.12 starts
# with objects frozen).  Before the call, a full collection and empty ones
# set the middle count to 3 (or 10, or 11) and the oldest to 2.  Prints the
# counts right after the call, the young threshold, the freeze count before
# and after it, the generations collected during the call and during a
# short read of what it built, and how many times the call froze the heap.
# A case may freeze, disable the collector, start a thread or bring the
# oldest count over its threshold before the call, or fail the build, end
# that thread or start it once the classes at n = 14 are out.
PROMOTION_CHILD = """
import gc, json, sys, threading
from twobridge import enumeration

name, case = sys.argv[1:]
listing = getattr(enumeration, name)
release = threading.Event()
waiter = threading.Thread(target=release.wait)
gc.collect()  # before unfreezing: a full collection refreezes objects on 3.12
gc.unfreeze()  # nothing frozen to begin with, on every version
for _ in range(gc.get_threshold()[2] + 1 if case == "full-due" else 2):
    gc.collect(1)
for _ in range({"middle-at": 10, "middle-over": 11}.get(case, 3)):
    gc.collect(0)
if case == "frozen":
    gc.freeze()
elif case == "disabled":
    gc.disable()
elif case in ("thread", "thread-ends"):
    waiter.start()
class_vectors = enumeration._class_vectors


def then(n):
    yield from class_vectors(n)
    if n == 14 and case == "raises":
        raise RuntimeError("class search broke")
    if n == 14 and case == "thread-ends":
        release.set()
        waiter.join()
    if n == 14 and case == "thread-starts":
        waiter.start()


enumeration._class_vectors = then
frozen = gc.get_freeze_count()
freeze, promoted = gc.freeze, []
gc.freeze = lambda: promoted.append(freeze())
during, read, built = [], [], None
gc.callbacks.append(lambda phase, info: phase == "start"
                    and (during if built is None else read).append(info["generation"]))
try:
    built = listing(14)
    counts = gc.get_count()
except RuntimeError:
    counts = gc.get_count()
if name == "enumerate_knots" and built is not None:
    built.ek
elif built is not None:
    max(k.canonical.q for k in built)
gc.callbacks.clear()
release.set()
print(json.dumps([counts, gc.get_threshold()[0], frozen, gc.get_freeze_count(), during, read,
                  len(promoted)]))
"""


def promotion_child(listing, case):
    proc = subprocess.run([sys.executable, "-c", PROMOTION_CHILD, listing.__name__, case],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case, middle_old", [("alone", (4, 2)), ("middle-at", (11, 2)),
                                               ("middle-over", (0, 3))])
@pytest.mark.parametrize("listing", LISTINGS)
def test_listing_hands_its_build_to_the_oldest_generation(listing, case, middle_old):
    # enabled, alone, nothing frozen and no full collection due: the build
    # is promoted once, the young count is zeroed, the middle and oldest
    # counts read as the collection the build sets off would leave them
    # (a middle one once the middle count is over its threshold of 10),
    # and reading the build sets off no collection
    counts, threshold, frozen, frozen_after, _, read, promoted = promotion_child(listing, case)
    young, middle, old = counts
    assert promoted == 1 and young < threshold
    assert (middle, old) == middle_old
    assert (frozen, frozen_after, read) == (0, 0, [])


@pytest.mark.parametrize("case", ["frozen", "thread", "thread-ends", "thread-starts", "disabled", "raises",
                                  "full-due"])
@pytest.mark.parametrize("listing", LISTINGS)
def test_listing_promotes_nothing_unless_safe(listing, case):
    # a caller's frozen objects stay frozen; a thread that ran beside the
    # build leaves its cyclic garbage young; a caller's gc.disable() and a
    # failed build move nothing; and where a full collection may be due the
    # collector's own rule decides it.  So the build stays young: the young
    # count still holds it, or a collection has walked it since (unwinding
    # a failed build allocates)
    counts, threshold, frozen, frozen_after, during, read, promoted = promotion_child(listing, case)
    assert promoted == 0
    assert counts[0] > threshold or during or read
    assert not (during or read) or case != "disabled"
    assert frozen_after == frozen
    assert (frozen > 0) is (case == "frozen")


@pytest.mark.parametrize("listing", LISTINGS)
def test_small_builds_are_not_promoted_again(listing):
    # a build that stays under the young threshold sets off no collection,
    # so there is nothing to stand in for: once one has shown that, later
    # calls at that n make no collection on entry and freeze nothing
    code = ("import gc\nfrom twobridge import enumeration\ngc.unfreeze()\n"
            "seen = []\nfreeze = gc.freeze\ngc.freeze = lambda: seen.append(freeze())\n"
            f"enumeration.{listing.__name__}(6)\nfrozen = len(seen)\n"
            "gc.callbacks.append(lambda phase, info: seen.append(phase))\n"
            f"for _ in range(3):\n    enumeration.{listing.__name__}(6)\nprint(frozen, len(seen))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


# Loops enumerate_knots(12), whose build is promoted, a given number of
# times, making a two-list cycle on every pass that is dropped before the
# call ("before") or held across it and dropped after ("across"), and never
# calls gc.collect() after a full collection at the start.  Prints how many
# of the first 100 cycles are still alive, how many of all are, and how
# many calls promoted their build.
CYCLES_CHILD = """
import gc, sys, weakref
from twobridge import enumerate_knots

class Cycle(list):
    pass

held, loops = sys.argv[1] == "across", int(sys.argv[2])
gc.collect()  # before unfreezing: a full collection refreezes objects on 3.12
gc.unfreeze()  # nothing frozen to begin with, on every version
gc.set_threshold(700, 10, 10)  # the defaults before CPython 3.13, which raised 700 to 2000
promoted = []
freeze = gc.freeze
gc.freeze = lambda: promoted.append(freeze())
refs = []
for _ in range(loops):
    a = Cycle()
    a.append(Cycle([a]))
    refs.append(weakref.ref(a))
    if not held:
        del a
    enumerate_knots(12)
    if held:
        del a
print(sum(r() is not None for r in refs[:100]), sum(r() is not None for r in refs), len(promoted))
"""


def cycles_child(when, loops):
    proc = subprocess.run([sys.executable, "-c", CYCLES_CHILD, when, str(loops)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return map(int, proc.stdout.split())


def test_promotion_first_frees_the_callers_cycles():
    # cycles the caller dropped before a promoted call are freed by the
    # collection on entry, not handed to the oldest generation with the build
    _, alive, promoted = cycles_child("before", 100)
    assert promoted == 100
    assert alive == 0


def test_promotion_leaves_cycles_held_across_it_to_the_collector():
    # cycles held across a promoted call reach the oldest generation, to
    # wait for a full collection.  The promotion keeps the generation
    # counts, so after (threshold1 + 2) * (threshold2 + 1) promoted calls a
    # full collection is due, and builds stay young until the collector's
    # own rule calls one: the cycles left waiting stay bounded
    _, alive, promoted = cycles_child("across", 1000)
    assert 50 <= promoted <= 12 * 11
    assert alive < 500


def test_ek_lift_inequality():
    # anything counted below an n-crossing knot also sits below its lift,
    # together with the lifted knot itself
    for n in range(3, 7):
        for target in range(3 * n, min(3 * n + 5, 19)):
            assert epimorphism_number(target) >= KNOWN_EK[n] + 1, (n, target)


def test_ek_budget():
    with pytest.raises(BudgetExceededError) as info:
        epimorphism_number(19)
    assert info.value.n == 19
    assert info.value.budget == 18
    with pytest.raises(BudgetExceededError):
        epimorphism_number(19, budget=18)


def test_ek_budget_override_extended():
    if not os.environ.get("TWOBRIDGE_EXTENDED"):
        pytest.skip("set TWOBRIDGE_EXTENDED=1 for the n = 19 run")
    assert epimorphism_number(19, budget=19) == 1


def test_ek_rejects_bad_input():
    with pytest.raises(ValueError):
        epimorphism_number(2)
    with pytest.raises(ValueError):
        epimorphism_number(9, mode="nonsense")


# ------------------------------------------------------------------ assisted

def test_assisted_certificates():
    # bound meets witness: no enumeration anywhere near these n
    assert epimorphism_number(45, mode="assisted") == 4
    assert epimorphism_number(105, mode="assisted") == 6
    assert epimorphism_number(28, mode="assisted") == 2
    assert epimorphism_number(27, mode="assisted") == 2
    assert epimorphism_number(33, mode="assisted") == 2
    assert epimorphism_number(9, mode="assisted") == 1


def test_assisted_trivial_and_fallback():
    assert epimorphism_number(8, mode="assisted") == 0  # ceiling is zero
    # open squeeze at n = 10 (even, no witness): falls back to enumeration
    assert epimorphism_number(10, mode="assisted") == 1
    # fallback respects the budget
    with pytest.raises(BudgetExceededError):
        epimorphism_number(20, mode="assisted")


def test_assisted_verdict_unchanged_by_early_stop():
    # the lower bound stops counting divisors once it cannot reach the
    # ceiling; whether it meets the ceiling must not change
    witnessed = {}
    for n, frac in TWO_SMALLER_WITNESSES:
        below = smaller_knots(vector_from_knot(canonical_fraction(frac)).representative)
        witnessed[n] = max(witnessed.get(n, 0), len(below))
    for n in [*range(3, 2002), 45, 105, 315, 945, 10395]:
        upper = most_divisors_up_to(n)
        full = max(nontrivial_proper_divisor_count(n) if n % 2 else 0, witnessed.get(n, 0))
        assert (_assisted_lower_bound(n, upper) == upper) == (full == upper), n


def test_lift_of_nine_certifies_two_below_from_27():
    # the assisted path certifies EK(N) >= 2 for N >= 27 by this lift
    for n in range(27, 60):
        assert len(smaller_knots(lift_construction(torus_vector(9), n))) >= 2, n


def test_assisted_agrees_with_exact_on_window():
    for n in range(3, 15):
        assert epimorphism_number(n, mode="assisted") == KNOWN_EK[n]


# ----------------------------------------------------------------- witnesses

def test_witness_rows_frozen():
    assert len(TWO_SMALLER_WITNESSES) == 25
    ns = [n for n, _ in TWO_SMALLER_WITNESSES]
    assert ns == sorted(ns)
    assert set(ns) == set(range(27, 45))


def test_witness_table_all_pass():
    reports = verify_witness_table()
    assert len(reports) == 25
    for r in reports:
        assert r.passed, f"{r.fraction} at n = {r.n}"
        assert r.crossing_number == r.n
        assert r.smaller_count == 2
    d = reports[0].to_json_dict()
    assert d == {
        "n": 27,
        "fraction": "1/27",
        "crossing_number": 27,
        "smaller_count": 2,
        "passed": True,
    }
