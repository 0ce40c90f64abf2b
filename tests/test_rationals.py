"""Exact fraction/continued-fraction layer.

Expected values come from an independent oracle built on stdlib
fractions.Fraction: a recursive evaluator for r + 1/(a1 + 1/(a2 + ...)),
plus a direct orbit computation for the knot equivalence p' = +-p^(+-1)
(mod q).  Frozen literals below were produced by that oracle.
"""

import fractions
import math

import pytest

from twobridge import (
    CFDivisionError,
    EvenCF,
    Fraction,
    InvalidFractionError,
    KnotClass,
    canonical_fraction,
    evaluate_cf,
    evaluate_terms,
    even_expansion,
    same_knot,
)


def oracle_eval(terms, integer_part=0):
    """Recursive CF value over stdlib fractions; raises ZeroDivisionError."""
    def tail(i):
        if i == len(terms):
            return None
        rest = tail(i + 1)
        val = fractions.Fraction(terms[i]) if rest is None else terms[i] + rest
        return fractions.Fraction(1) / val
    rest = tail(0)
    if rest is None:
        return fractions.Fraction(integer_part)
    return integer_part + rest


def oracle_orbit(p, q):
    """{p, p^-1, -p, -p^-1} mod q, as residues in 1..q-1."""
    inv = pow(p, -1, q)
    return {p % q, inv, (q - p) % q, (q - inv) % q}


# ---------------------------------------------------------------- evaluation

EVAL_CASES = [
    ((2, 2), 0, 2, 5),
    ((2, 4, 4, 2), 0, 38, 85),
    ((), 5, 5, 1),
    ((2, -2), 0, 2, 3),
    ((2, 2, 0, 2, 2, 0, 2, 2), 0, 38, 85),  # zeros allowed by the evaluator
    ((-2, 2), 1, 1, 3),
]


@pytest.mark.parametrize("terms,r,p,q", EVAL_CASES)
def test_evaluate_terms_frozen(terms, r, p, q):
    got = evaluate_terms(terms, integer_part=r)
    assert (got.p, got.q) == (p, q)
    assert fractions.Fraction(p, q) == oracle_eval(terms, r)


def test_evaluate_cf_matches_evaluate_terms():
    cf = EvenCF(0, (2, 4, 4, 2))
    assert evaluate_cf(cf) == evaluate_terms((2, 4, 4, 2))


def test_evaluate_terms_oracle_sweep():
    # every short tuple over {-4,-2,0,2,4}: identical value, identical
    # failure (zero tail -> CFDivisionError; even denominator -> rejected
    # as a link by the Fraction constructor)
    entries = [-4, -2, 0, 2, 4]
    tuples = [()]
    for _ in range(4):
        tuples = [t + (e,) for t in tuples for e in entries]
        for terms in tuples:
            try:
                want = oracle_eval(terms)
            except ZeroDivisionError:
                with pytest.raises(CFDivisionError):
                    evaluate_terms(terms)
                continue
            if want.denominator % 2 == 0:
                with pytest.raises(InvalidFractionError):
                    evaluate_terms(terms)
                continue
            got = evaluate_terms(terms)
            assert fractions.Fraction(got.p, got.q) == want


def test_division_error_reports_position():
    # trailing 0 means the innermost reciprocal 1/0: tail fails at term 5
    with pytest.raises(CFDivisionError) as info:
        evaluate_terms((2, -2, 2, -2, 0))
    assert info.value.position == 5


# ---------------------------------------------------------------- fractions

def test_fraction_parse_and_str():
    f = Fraction.parse("38/85")
    assert (f.p, f.q) == (38, 85)
    assert str(f) == "38/85"
    assert Fraction.parse("-3/5") == Fraction(-3, 5)
    assert Fraction.parse("7") == Fraction(7, 1)


def test_fraction_normalizes():
    assert Fraction(2, 6) == Fraction(1, 3)
    assert Fraction(-2, -6) == Fraction(1, 3)
    assert Fraction(1, -3) == Fraction(-1, 3)


@pytest.mark.parametrize("text", ["4/8", "1/2", "5/0", "3/-7x", ""])
def test_fraction_rejects_bad_input(text):
    with pytest.raises(InvalidFractionError):
        Fraction.parse(text)


def test_canonical_fraction_rejects_unknot_and_links():
    with pytest.raises(InvalidFractionError):
        canonical_fraction(Fraction(0, 3))  # reduces to 0/1
    with pytest.raises(InvalidFractionError):
        canonical_fraction(Fraction(5, 1))
    with pytest.raises(InvalidFractionError):
        Fraction(2, 4)  # reduces to 1/2, a link


# ---------------------------------------------------------------- expansion

def test_even_expansion_frozen_cases():
    assert str(even_expansion(Fraction(38, 85))) == "0+[2,4,4,2]"
    assert str(even_expansion(Fraction(2, 5))) == "0+[2,2]"


def test_even_expansion_torus_shape():
    cf = even_expansion(Fraction(1, 27))
    assert len(cf.terms) == 26
    assert cf.r % 2 == 1  # parity matches p = 1
    assert oracle_eval(cf.terms, cf.r) == fractions.Fraction(1, 27)


def all_reduced(limit):
    for q in range(3, limit + 1, 2):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield p, q


def test_even_expansion_roundtrip_exhaustive():
    # structural invariants + exact round trip for every reduced p/q, q <= 401
    for p, q in all_reduced(401):
        cf = even_expansion(Fraction(p, q))
        assert len(cf.terms) % 2 == 0
        assert all(t != 0 and t % 2 == 0 for t in cf.terms)
        assert cf.r % 2 == p % 2
        assert oracle_eval(cf.terms, cf.r) == fractions.Fraction(p, q)


def test_even_cf_shape_enforced():
    with pytest.raises(ValueError):
        EvenCF(0, (2, 3))  # odd term
    with pytest.raises(ValueError):
        EvenCF(0, (2, 0))  # zero term
    with pytest.raises(ValueError):
        EvenCF(0, (2, 2, 2))  # odd count


def test_even_cf_parse_roundtrip():
    cf = EvenCF.parse("1+[2,-2,4,2]")
    assert cf.r == 1
    assert cf.terms == (2, -2, 4, 2)
    assert EvenCF.parse(str(cf)) == cf


# ---------------------------------------------------------------- classes

def test_canonical_fraction_frozen():
    assert str(canonical_fraction(Fraction(26, 27))) == "1/27"
    assert str(canonical_fraction(Fraction(38, 85))) == "38/85"
    assert str(canonical_fraction(Fraction(47, 85))) == "38/85"
    assert str(canonical_fraction(Fraction(2, 3))) == "1/3"


def test_canonical_fraction_oracle_sweep():
    for p, q in all_reduced(301):
        got = canonical_fraction(Fraction(p, q))
        orbit = oracle_orbit(p, q)
        assert got.canonical.q == q
        assert got.canonical.p == min(orbit)
        # idempotent and constant on the orbit
        for r in orbit:
            assert canonical_fraction(Fraction(r, q)) == got


def test_same_knot():
    assert same_knot(Fraction(2, 7), Fraction(3, 7))
    assert not same_knot(Fraction(1, 5), Fraction(1, 7))
    assert same_knot(Fraction(38, 85), Fraction(47, 85))
    assert same_knot(Fraction(1, 3), Fraction(-1, 3))


def test_knot_class_constructor_normalizes():
    # any fraction of the class gives the class, as Fraction normalizes
    # sign and gcd; q < 3 is still refused with canonical_fraction's message
    for p, q in [(1, 3), (2, 7), (3, 7), (38, 85), (17, 315)]:
        for r in oracle_orbit(p, q):
            for f in (Fraction(r, q), Fraction(r - q, q), Fraction(r + 2 * q, q)):
                assert KnotClass(f) == canonical_fraction(f)
                assert KnotClass(f).canonical == Fraction(min(oracle_orbit(p, q)), q)
    assert KnotClass(Fraction(3, 5)).canonical == Fraction(2, 5)
    for f in (Fraction(1, 1), Fraction(-3, 1), Fraction(0, 3)):
        with pytest.raises(InvalidFractionError, match="does not identify a nontrivial 2-bridge knot"):
            KnotClass(f)


def test_knot_class_sort_key_orders_by_denominator_then_numerator():
    ks = [
        canonical_fraction(Fraction(p, q))
        for p, q in [(1, 7), (2, 7), (1, 5), (1, 3)]
    ]
    ordered = sorted(ks, key=lambda k: k.sort_key)
    assert [str(k) for k in ordered] == ["1/3", "1/5", "1/7", "2/7"]
