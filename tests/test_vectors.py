"""Expanded even vectors and the fraction <-> vector bijection.

Independent oracles used here:

* a from-scratch recursive generator of every valid vector of a given
  length, cross-checked against the closed-form count
  sum_k C(k-1, n-k) * 2^(2k-n)  (choose which gaps between the k nonzero
  entries carry a zero, then assign signs; gaps with a zero force equal
  signs on both sides);
* the Euclid quotient sum of q/p, which equals the crossing number of
  the knot p/q and never sees the vector code path;
* ``oracle_knot``, which evaluates a vector over stdlib fractions where
  the package reads its knot off continuants.
"""

import copy
import fractions
import itertools
import math
import pickle
import random

import pytest
from conftest import (
    connector_entries,
    ernst_sumners_count,
    euclid_quotient_sum,
    oracle_count,
    oracle_knot,
    oracle_vectors,
)

from twobridge import (
    EvenCF,
    Fraction,
    SEvenVector,
    VectorClass,
    canonical_fraction,
    canonical_vector,
    connector_vector,
    contract,
    crossing_number,
    even_expansion,
    expand,
    knot_classes,
    knot_from_vector,
    is_strictly_greater,
    smaller_knots,
    torus_vector,
    vector_from_knot,
)
from twobridge.cli import main
from twobridge.vectors import _RUNS, _check_entries, _class_representative, _pack, _packs_valid, _unpack


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize(
    "entries",
    [
        (2,),  # odd length
        (0, 2),  # zero at the start
        (2, 0),  # zero at the end
        (2, 0, -2, 2),  # unequal neighbors around the zero
        (2, 0, 0, 2),  # adjacent zeros
        (2, 4),  # entry outside {-2, 0, 2}
        (1, 2),
    ],
)
def test_vector_rejects_invalid(entries):
    with pytest.raises(ValueError):
        SEvenVector(entries)


def test_vector_accepts_valid():
    assert SEvenVector(()).is_empty
    assert len(SEvenVector((2, 0, 2, -2))) == 4
    assert str(SEvenVector((2, 2, 0, 2, 2, 0, 2, 2))) == "2,2,0,2,2,0,2,2"
    assert SEvenVector.parse("2,0,2,-2").entries == (2, 0, 2, -2)


def test_vector_rejects_non_integer_entries():
    # 2.0 == 2, but a float is no entry: (2.0, 0.0, 2.0, 2.0) used to pass
    # the check and make knot_from_vector raise TypeError
    with pytest.raises(ValueError, match=r"^entry 2\.0 at index 0 not in \{-2, 0, 2\}$"):
        SEvenVector((2.0, 0.0, 2.0, 2.0))
    with pytest.raises(ValueError, match=r"^entry 0\.0 at index 2 not in \{-2, 0, 2\}$"):
        SEvenVector((2, 2, 0.0, 2, 2, 2))
    with pytest.raises(ValueError, match=r"^entry 2 at index 1 not in \{-2, 0, 2\}$"):
        SEvenVector((2, fractions.Fraction(2)))


def _value_error(f, entries):
    try:
        f(entries)
    except ValueError as exc:
        return str(exc)
    return None


def test_packed_check_matches_entry_loop():
    # every tuple over {-2, 0, 2} of length <= 8, and every valid vector of
    # length <= 6 with one entry replaced by a foreign value: the
    # constructor accepts what the entry loop accepts and reports the
    # loop's first error, and the packed test alone accepts every vector
    # the loop accepts
    valid = {e for n in range(0, 9, 2) for e in oracle_vectors(n)}
    cases = [t for n in range(9) for t in itertools.product((-2, 0, 2), repeat=n)]
    foreign = (1, 4, 128, -128, 300, True, False, 2.0, -2.0, 0.0)
    cases += [e[:i] + (x,) + e[i + 1 :] for e in valid if len(e) <= 6 for i in range(len(e)) for x in foreign]
    for t in cases:
        want = _value_error(_check_entries, t)
        assert _value_error(SEvenVector, t) == want, t
        assert (_packs_valid(t) is not None) == (want is None), t
        # only False, which is the integer 0, stands in for an entry
        ints = tuple(0 if x is False else x for x in t)
        assert (want is None) == (ints in valid and all(type(x) in (int, bool) for x in t)), t


def test_generator_matches_closed_form_count():
    for n in (2, 4, 6, 8, 10, 12):
        vs = oracle_vectors(n)
        assert len(vs) == oracle_count(n)
        for entries in vs:
            SEvenVector(entries)  # all validate


# ---------------------------------------------------------------- expansion

def test_expand_frozen():
    assert expand((2, 4, 4, 2)).entries == (2, 2, 0, 2, 2, 0, 2, 2)
    assert expand((6, -4)).entries == (2, 0, 2, 0, 2, -2, 0, -2)
    assert expand((2, -2)).entries == (2, -2)
    assert expand(EvenCF(0, (2, 2))).entries == (2, 2)


def test_expand_rejects_odd_or_zero_terms():
    with pytest.raises(ValueError):
        expand((2, 3))
    with pytest.raises(ValueError):
        expand((2,))  # an odd term count
    with pytest.raises(ValueError):
        expand((2, 0))


def test_contract_inverts_expand():
    rng = random.Random(20260821)
    for _ in range(2000):
        terms = tuple(
            rng.choice((-1, 1)) * 2 * rng.randint(1, 5)
            for _ in range(2 * rng.randint(1, 6))
        )
        assert contract(expand(terms)) == terms


def test_contract_exhaustive_small():
    for n in (2, 4, 6, 8):
        for entries in oracle_vectors(n):
            v = SEvenVector(entries)
            assert expand(contract(v)).entries == v.entries


# ---------------------------------------------------------------- classes

def test_canonical_vector_frozen():
    assert canonical_vector(SEvenVector((-2, -2))).representative.entries == (2, 2)
    assert canonical_vector(SEvenVector((-2, 2))).representative.entries == (2, -2)
    v = SEvenVector((2, 2, 0, 2, 2, 0, 2, 2))
    assert canonical_vector(v).representative.entries == v.entries


def test_canonical_vector_constant_on_orbit():
    for entries in oracle_vectors(6):
        v = SEvenVector(entries)
        cls = canonical_vector(v)
        for w in v.orbit():
            assert canonical_vector(w) == cls
        assert cls.representative.entries in {u.entries for u in cls.representatives()}


def test_vector_class_constructor_normalizes():
    # like KnotClass, the constructor takes any vector of the class
    assert VectorClass(SEvenVector((-2, -2))).representative.entries == (2, 2)
    for n in (2, 4, 6):
        for entries in oracle_vectors(n):
            v = SEvenVector(entries)
            # v is in its own orbit, so this also gives canonical_vector(v) == VectorClass(v)
            assert {VectorClass(w) for w in v.orbit()} == {canonical_vector(v)}


def test_class_representative_is_orbit_maximum():
    # the two-candidate rule on packed entries, one bytes comparison,
    # against the maximum over all four orbit members as tuples; a
    # representative comes back as the same object
    assert _class_representative(b"") == b""
    rng = random.Random(20261018)
    short = [e for n in range(2, 13, 2) for e in oracle_vectors(n)]
    long = [random_vector(rng, 2 * rng.randint(1, 200)).entries for _ in range(2000)]
    for entries in short + long:
        neg = tuple(-x for x in entries)
        want = max(entries, neg, entries[::-1], neg[::-1])
        packed = _pack(entries)
        got = _class_representative(packed)
        assert _unpack(got) == want
        assert (got is packed) == (entries == want)


def test_unchecked_results_are_valid():
    # vectors the library builds without the entry check pass it when
    # rebuilt through the checking constructor
    def valid(v):
        return SEvenVector(v.entries) == v

    for n in range(2, 13, 2):
        for entries in oracle_vectors(n):
            v = SEvenVector(entries)
            assert all(map(valid, v.orbit())) and valid(canonical_vector(v).representative)
            assert valid(vector_from_knot(knot_from_vector(v)).representative)
    rng = random.Random(20261019)
    for _ in range(2000):
        terms = [rng.choice((-1, 1)) * 2 * rng.randint(1, 5) for _ in range(2 * rng.randint(0, 8))]
        assert valid(expand(terms))
    assert all(valid(torus_vector(q)) for q in range(3, 100, 2))


# ---------------------------------------------------------------- packed form

def _tiled(b):
    return b + [2] + [-x for x in b[::-1]] + [-2] + [-x for x in b]


def _orbit_max(e):
    neg = tuple(-x for x in e)
    return max(e, neg, e[::-1], neg[::-1])


# the class representative of the 1538-entry vector of the CI smoke lines,
# which is kept as the representative, and the 170-entry vector it is
# assembled over, negated: it starts negative, so its representative is
# built anew
BASE = [2 if i * i % 7 < 4 else -2 for i in range(170)]
LONG = _orbit_max(tuple(_tiled(_tiled(BASE))))
NEGATIVE_FIRST = tuple(-x for x in BASE)


def _count_packs(monkeypatch):
    """The entry tuples handed to ``vectors._pack`` from now on, in call order."""
    import twobridge.vectors

    real, calls = twobridge.vectors._pack, []

    def counting(entries):
        calls.append(entries)
        return real(entries)

    monkeypatch.setattr(twobridge.vectors, "_pack", counting)
    return calls


def test_each_vector_is_packed_once(monkeypatch, capsys):
    # a vector is packed where it is checked; every later read, the class
    # representative built anew included, takes the bytes it carries
    for entries in (LONG, NEGATIVE_FIRST):
        v = SEvenVector(entries)
        assert (canonical_vector(v).representative is v) == (entries is LONG)
        vector_from_knot(knot_from_vector(v))  # fills the cache of connector runs
    calls = _count_packs(monkeypatch)
    assert main(["compare", ",".join(map(str, LONG)), ",".join(map(str, NEGATIVE_FIRST))]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "relation: greater"
    assert calls == [LONG, NEGATIVE_FIRST]
    for entries in (LONG, NEGATIVE_FIRST):
        calls.clear()
        smaller_knots(SEvenVector(entries))
        assert calls == [entries]
        v = SEvenVector(entries)
        k, cr = knot_from_vector(v), crossing_number(v)
        calls.clear()
        assert crossing_number(vector_from_knot(k).representative) == cr
        assert calls == []


def test_connector_runs_are_written_as_bytes(monkeypatch):
    # each run is written straight as bytes, kept for |c| <= 64 and written
    # anew past that, and never goes through an entry tuple and _pack
    for c in range(-200, 201, 2):
        assert connector_vector(c) == _unpack(_RUNS[c]) == connector_entries(c), c
    calls = _count_packs(monkeypatch)
    for c in (66, -200, 66, -200):
        assert _unpack(_RUNS[c]) == connector_entries(c)
    assert expand(EvenCF.parse("0+[130,2]")).entries == connector_entries(130) + (2,)
    assert calls == []
    for c in (3, -1, 201):
        for read in (connector_vector, _RUNS.__getitem__):
            with pytest.raises(ValueError, match=f"^connector {c} is odd$"):
                read(c)


def test_carried_bytes_never_change_an_answer():
    # checked, built from its packed bytes through the one door, and filled
    # as the catalog fills its vectors: the same value, the same answers
    def answers(v):
        return (
            knot_from_vector(v),
            crossing_number(v),
            canonical_vector(v),
            v.orbit(),
            smaller_knots(v),
        )

    for n in range(2, 11, 2):
        for entries in oracle_vectors(n):
            ways = (
                SEvenVector(entries),
                SEvenVector._from_packed(_pack(entries)),
                object.__new__(SEvenVector)._fill(entries),
            )
            assert ways[1] == ways[0] == ways[2] and len({hash(v) for v in ways}) == 1
            assert answers(ways[1]) == answers(ways[0]) == answers(ways[2]), entries
    v = SEvenVector((2, 0, 2, -2))
    assert v._packed() == _pack(v.entries)
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert w == v and hash(w) == hash(v) == hash((v.entries,)) and w._packed() == v._packed()
    assert repr(v) == "SEvenVector(entries=(2, 0, 2, -2))"


# ---------------------------------------------------------------- bijection

def test_bijection_exhaustive_up_to_length_12():
    # knot_from_vector is constant on vector classes, injective across
    # them, and vector_from_knot inverts it
    knot_to_class = {}
    for n in (2, 4, 6, 8, 10, 12):
        for entries in oracle_vectors(n):
            v = SEvenVector(entries)
            cls = canonical_vector(v)
            k = knot_from_vector(v)
            prior = knot_to_class.setdefault(k, cls)
            assert prior == cls, f"{k} reached from two classes"
    # distinct knots == distinct vector classes, and the orbit sizes
    # partition the raw vector count exactly
    classes = set(knot_to_class.values())
    assert len(classes) == len(knot_to_class)
    assert sum(len(c.representatives()) for c in classes) == sum(
        oracle_count(n) for n in (2, 4, 6, 8, 10, 12)
    )
    for k, cls in knot_to_class.items():
        assert vector_from_knot(k) == cls


@pytest.mark.parametrize("n", [2, 6, 10, 18, 64, 66, 512, 1030, 2048, 2054, 4096, 65538])
def test_knot_from_vector_matches_oracle_on_long_vectors(n):
    # random signs, then a zero wherever the coin allows one: between two
    # equal entries whose left neighbor is not itself a zero.  The knot is
    # read in chunks of 8 entries multiplied up a balanced tree: the
    # lengths include every padded tail (2, 4 or 6 entries past a chunk)
    # and odd chunk counts at several levels of the tree.
    rng = random.Random(n)
    for _ in range(3):
        e = [rng.choice((2, -2)) for _ in range(n)]
        for i in range(1, n - 1):
            if e[i - 1] and e[i - 1] == e[i + 1] and rng.random() < 0.5:
                e[i] = 0
        v = SEvenVector(e)
        assert n < 64 or 0 in v.entries
        k = knot_from_vector(v)
        assert (k.canonical.p, k.canonical.q) == oracle_knot(v.entries)


def test_bijection_rejects_empty():
    with pytest.raises(ValueError):
        knot_from_vector(SEvenVector(()))


# ---------------------------------------------------------------- crossings

def test_crossing_number_frozen():
    assert crossing_number(torus_vector(27)) == 27
    assert crossing_number(SEvenVector((2, 2))) == 4
    assert crossing_number(SEvenVector((2, 2, 0, 2, 2, 0, 2, 2))) == 12
    assert crossing_number(SEvenVector((2, -2))) == 3


def test_crossing_number_euclid_oracle_sweep():
    # cr(p/q) via the vector pipeline == Euclid quotient sum of q/p,
    # for every reduced fraction with odd q <= 501, every orbit member
    for q in range(3, 502, 2):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            v = expand(even_expansion(Fraction(p, q)))
            assert crossing_number(v) == euclid_quotient_sum(p, q)


def test_crossing_number_constant_on_knot_class():
    for q in range(3, 302, 2):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            k = canonical_fraction(Fraction(p, q))
            vs = [expand(even_expansion(Fraction(p, q)))]
            vs.append(expand(even_expansion(k.canonical)))
            crs = {crossing_number(v) for v in vs}
            for w in vs[0].orbit():
                crs.add(crossing_number(w))
            assert len(crs) == 1


def test_crossing_number_and_expand_match_oracles_up_to_14():
    # every knot with at most 14 crossings: expand gives the runs of the
    # even terms written out entry by entry, and every member of the
    # orbit has the Euclid quotient sum of q/p as its crossing number
    count = 0
    for n in range(3, 15):
        for k in knot_classes(n):
            cf = even_expansion(k.canonical)
            v = expand(cf)
            assert v.entries == tuple(x for t in cf.terms for x in connector_entries(t))
            assert euclid_quotient_sum(k.canonical.p, k.canonical.q) == n
            assert {crossing_number(w) for w in v.orbit()} == {n}
            count += 1
    assert count == sum(ernst_sumners_count(n) for n in range(3, 15)) == 1407


def random_vector(rng, n):
    entries = [rng.choice((2, -2))]
    while len(entries) < n:
        if entries[-1] == 0:
            entries.append(entries[-2])
        elif len(entries) == n - 1:
            entries.append(rng.choice((2, -2)))
        else:
            entries.append(rng.choice((2, -2, 0)))
    return SEvenVector(tuple(entries))


def test_crossing_number_bounds_random():
    # l + 1 <= cr <= 2l on seeded random vectors (full-size run lives in
    # the acceptance suite)
    rng = random.Random(1202)
    for _ in range(20000):
        v = random_vector(rng, 2 * rng.randint(1, 15))
        cr = crossing_number(v)
        assert len(v) + 1 <= cr <= 2 * len(v)


# ---------------------------------------------------------------- torus

def test_torus_vector_frozen():
    assert torus_vector(3).entries == (2, -2)
    assert torus_vector(5).entries == (2, -2, 2, -2)


def test_torus_vector_properties():
    for q in range(3, 120, 2):
        v = torus_vector(q)
        assert str(knot_from_vector(v)) == f"1/{q}"
        assert crossing_number(v) == q


def test_torus_vector_rejects_bad_q():
    with pytest.raises(ValueError):
        torus_vector(4)
    with pytest.raises(ValueError):
        torus_vector(1)
