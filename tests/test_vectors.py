"""Expanded even vectors and the fraction <-> vector bijection.

Independent oracles used here:

* a from-scratch recursive generator of every valid vector of a given
  length, cross-checked against the closed-form count
  sum_k C(k-1, n-k) * 2^(2k-n)  (choose which gaps between the k nonzero
  entries carry a zero, then assign signs; gaps with a zero force equal
  signs on both sides);
* the Euclid quotient sum of q/p, which equals the crossing number of
  the knot p/q and never sees the vector code path.
"""

import math
import random

import pytest
from conftest import euclid_quotient_sum, oracle_count, oracle_vectors

from twobridge import (
    EvenCF,
    Fraction,
    SEvenVector,
    VectorClass,
    canonical_fraction,
    canonical_vector,
    contract,
    crossing_number,
    even_expansion,
    expand,
    knot_from_vector,
    torus_vector,
    vector_from_knot,
)
from twobridge.vectors import _class_representative


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
    # the two-candidate rule against the maximum over all four orbit
    # members; a representative comes back as the same object
    assert _class_representative(()) == ()
    rng = random.Random(20261018)
    short = [e for n in range(2, 13, 2) for e in oracle_vectors(n)]
    long = [random_vector(rng, 2 * rng.randint(1, 200)).entries for _ in range(2000)]
    for entries in short + long:
        neg = tuple(-x for x in entries)
        want = max(entries, neg, entries[::-1], neg[::-1])
        got = _class_representative(entries)
        assert got == want
        assert (got is entries) == (entries == want)


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
