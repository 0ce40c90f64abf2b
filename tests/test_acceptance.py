"""Acceptance gate: one test per release criterion, one report line each.

Every criterion runs at its stated scale and tolerance; timed criteria
measure wall-clock time and fail past their limit.  The terminal summary
(see conftest) prints ACCEPTANCE <n>: PASS/FAIL for each.  Set
TWOBRIDGE_EXTENDED=1 to add the raised-budget window to criterion 2.
"""

import functools
import os
import random
import subprocess
import sys
import time

from conftest import (
    all_reduced,
    oracle_vectors,
    record_acceptance,
)
from test_enumeration import classes_by_direct_generator
from test_parsing import classes_with_crossing_up_to, oracle_smaller
from test_vectors import random_vector

from twobridge import (
    Fraction,
    SEvenVector,
    canonical_fraction,
    crossing_number,
    enumerate_knots,
    epimorphism_number,
    evaluate_terms,
    even_expansion,
    expand,
    find_parsings,
    find_seams,
    is_strictly_greater,
    knot_classes,
    knot_from_vector,
    least_odd_with_divisors,
    lift_construction,
    negate_segments,
    smaller_knots,
    torus_vector,
    two_connector_decompose,
    vector_from_knot,
    verify_witness_table,
)

NOTES = {}


def criterion(cid, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                msg = str(exc).strip().splitlines()[0] if str(exc).strip() else type(exc).__name__
                record_acceptance(cid, False, f"{label}: {msg[:160]}")
                raise
            record_acceptance(cid, True, NOTES.get(cid, label))
        return wrapper
    return deco


# -------------------------------------------------------------- criterion 1

KNOWN_TABLE_1_TO_14 = (9, 15, 45, 45, 105, 105, 225, 315, 315, 315, 945, 945, 945, 945)


@criterion(1, "divisor table to 10^6")
def test_criterion_1_divisor_table():
    t0 = time.perf_counter()
    for m, want in enumerate(KNOWN_TABLE_1_TO_14, start=1):
        assert least_odd_with_divisors(m) == want, f"m={m}"

    # independent mark sieve: odd numbers only have odd divisors, so
    # marking odd multiples of every odd d >= 3 counts exactly the
    # nontrivial proper divisors of every odd n
    limit = 10**6
    counts = [0] * (limit + 1)
    for d in range(3, limit // 2 + 1, 2):
        for mult in range(3 * d, limit + 1, 2 * d):
            counts[mult] += 1
    first = [3]
    for n in range(3, limit + 1, 2):
        while len(first) <= counts[n]:
            first.append(n)
    for m, value in enumerate(first):
        assert least_odd_with_divisors(m) == value, f"m={m}"

    elapsed = time.perf_counter() - t0
    NOTES[1] = f"{len(first)} table rows, sieve to 10^6 agrees, {elapsed:.1f}s"
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, limit 10s"


# -------------------------------------------------------------- criterion 2

KNOWN_EK = {
    **{n: 0 for n in range(3, 9)},
    **{n: 1 for n in range(9, 15)},
    **{n: 2 for n in range(15, 18)},
    18: 1,
}
EXTENDED_EK = {
    19: 1, 20: 1, 21: 2, 22: 2, 23: 2, 24: 1, 25: 2, 26: 2, 27: 2, 28: 2, 29: 2, 30: 2, 31: 2, 32: 2, 33: 2,
}


@criterion(2, "exact EK window 3..18")
def test_criterion_2_ek_window():
    t0 = time.perf_counter()
    for n in range(3, 19):
        got = epimorphism_number(n, mode="exact")
        assert got == KNOWN_EK[n], f"EK({n}) = {got}, want {KNOWN_EK[n]}"
    elapsed = time.perf_counter() - t0
    note = f"3..18 exact in {elapsed:.1f}s"
    if os.environ.get("TWOBRIDGE_EXTENDED"):
        workers = os.cpu_count() or 1
        for n, want in EXTENDED_EK.items():
            got = epimorphism_number(n, mode="exact", budget=n, workers=workers)
            assert got == want, f"EK({n}) = {got}, want {want}"
        # no witness row within the exact window may beat the exact maximum
        for r in verify_witness_table():
            if r.n in EXTENDED_EK:
                assert r.smaller_count <= EXTENDED_EK[r.n], f"{r.fraction}: {r.smaller_count} below"
        note += f", extended 19..{max(EXTENDED_EK)} in {time.perf_counter() - t0 - elapsed:.0f}s"
    NOTES[2] = note
    assert elapsed < 600.0, f"criterion 2 took {elapsed:.0f}s, limit 600s"


# -------------------------------------------------------------- criterion 3

@criterion(3, "witness rows 27..44")
def test_criterion_3_witness_rows():
    t0 = time.perf_counter()
    reports = verify_witness_table()
    assert len(reports) == 25
    for r in reports:
        assert r.crossing_number == r.n, f"{r.fraction}: cr {r.crossing_number} != {r.n}"
        assert r.smaller_count >= 2, f"{r.fraction}: only {r.smaller_count} below"
    elapsed = time.perf_counter() - t0
    NOTES[3] = f"25 rows in {elapsed:.2f}s"
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s, limit 60s"


# -------------------------------------------------------------- criterion 4

@criterion(4, "worked example 38/85")
def test_criterion_4_worked_example():
    knot = canonical_fraction(Fraction(38, 85))
    assert str(knot) == "38/85"
    assert str(even_expansion(knot.canonical)) == "0+[2,4,4,2]"
    vec = vector_from_knot(knot).representative
    assert vec.entries == (2, 2, 0, 2, 2, 0, 2, 2)
    assert crossing_number(vec) == 12
    ps = find_parsings(vec, SEvenVector((2, 2)))
    assert [p.fold for p in ps] == [3]
    form = two_connector_decompose(vec)
    assert (form.generator.entries, form.m, form.n, form.count) == ((2, 2), 0, 0, 3)
    assert {str(k) for k in smaller_knots(vec)} == {"2/5"}


# -------------------------------------------------------------- criterion 5

@criterion(5, "seam pipeline from the 27-crossing torus vector")
def test_criterion_5_seam_pipeline():
    v = torus_vector(27)
    parsings = find_parsings(v, torus_vector(3)) + find_parsings(v, torus_vector(9))
    seams = find_seams(v, parsings)
    assert seams.cuts == (8, 9, 17, 18)
    for segments, fraction, cr in (
        ((5,), "17/315", 28),
        ((4,), "35/621", 29),
        ((3, 5), "577/5499", 30),
        ((2, 4), "1189/10395", 31),
    ):
        out = negate_segments(seams, segments)
        assert str(knot_from_vector(out)) == fraction, f"segments {segments}"
        assert crossing_number(out) == cr, f"segments {segments}"


# -------------------------------------------------------------- criterion 6

@criterion(6, "torus divisor order and assisted certificates")
def test_criterion_6_torus_certificates():
    got = {str(k) for k in smaller_knots(torus_vector(45))}
    assert got == {"1/3", "1/5", "1/9", "1/15"}
    assert epimorphism_number(45, mode="assisted") == 4
    assert epimorphism_number(105, mode="assisted") == 6


# -------------------------------------------------------------- criterion 7

def prop_roundtrip_all_reduced_to_2001():
    for p, q in all_reduced(2001):
        f = Fraction(p, q)
        cf = even_expansion(f)
        v = expand(cf)
        assert evaluate_terms(v.entries, cf.r) == f, f"{p}/{q}"


def prop_suzuki_bounds_100k_random():
    rng = random.Random(8512)
    for _ in range(100000):
        v = random_vector(rng, 2 * rng.randint(1, 20))
        cr = crossing_number(v)
        assert len(v) + 1 <= cr <= 2 * len(v), str(v)


def prop_length_bound_on_found_parsings():
    found = 0
    corpus = []
    for cls in classes_with_crossing_up_to(12):
        corpus.extend(cls.representative.orbit())
    corpus += [torus_vector(q) for q in (9, 15, 21, 25, 27, 33, 35, 45, 63, 81, 105)]
    for a in corpus:
        ea = a.entries
        for blen in range(2, len(ea) - 1, 2):
            if ea[blen - 1] == 0:
                continue
            base = SEvenVector(ea[:blen])
            for p in find_parsings(a, base):
                found += 1
                assert p.assemble().entries == ea
                assert len(ea) >= p.fold * blen + p.fold - 1
    assert found > 100, f"only {found} parsings exercised"


def prop_divisor_table_inequalities():
    vals = [least_odd_with_divisors(m) for m in range(31)]
    for a, b in zip(vals, vals[1:]):
        assert a <= b <= 3 * a
    for r in range(11):
        for s in range(11):
            assert vals[r] * vals[s] >= vals[r + s + 1], (r, s)


def prop_smaller_matches_oracle_to_12():
    for cls in classes_with_crossing_up_to(12):
        v = cls.representative
        assert smaller_knots(v) == oracle_smaller(v), str(v)


def prop_classes_match_direct_generator_3_to_14():
    for n in range(3, 15):
        assert knot_classes(n) == classes_by_direct_generator(n), f"n = {n}"


def prop_antisymmetry_to_10():
    classes = classes_with_crossing_up_to(10)
    for i, j in enumerate(classes):
        assert not is_strictly_greater(j, j)
        for k in classes[i + 1 :]:
            assert not (
                is_strictly_greater(j, k) and is_strictly_greater(k, j)
            ), f"{j} vs {k}"


def prop_lift_sweep():
    checked = 0
    for n in (2, 4, 6, 8):
        for entries in oracle_vectors(n):
            c = SEvenVector(entries)
            ncr = crossing_number(c)
            for target in range(3 * ncr, 3 * ncr + 7):
                d = lift_construction(c, target)
                assert crossing_number(d) == target, (entries, target)
                checked += 1
    assert checked == 6888


def prop_divisor_bound_over_catalogs():
    for n in range(3, 15):
        for entry in enumerate_knots(n).entries:
            m = len(entry.smaller)
            assert least_odd_with_divisors(m) <= n, (str(entry.knot), m)


PROPERTY_SUITES = (
    ("roundtrip to q=2001", prop_roundtrip_all_reduced_to_2001),
    ("crossing bounds on 10^5 random vectors", prop_suzuki_bounds_100k_random),
    ("length bound on found parsings", prop_length_bound_on_found_parsings),
    ("divisor table inequalities", prop_divisor_table_inequalities),
    ("smaller sets vs oracle to cr 12", prop_smaller_matches_oracle_to_12),
    ("classes match direct generator 3..14", prop_classes_match_direct_generator_3_to_14),
    ("strict order antisymmetry to cr 10", prop_antisymmetry_to_10),
    ("lift sweep to length 8", prop_lift_sweep),
    ("divisor bound over catalogs 3..14", prop_divisor_bound_over_catalogs),
)


@criterion(7, "property suites")
def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    failures = []
    for name, prop in PROPERTY_SUITES:
        try:
            prop()
        except AssertionError as exc:
            first = str(exc).strip().splitlines()[0] if str(exc).strip() else ""
            failures.append(f"{name}: {first[:120]}")
    NOTES[7] = (
        f"{len(PROPERTY_SUITES)} suites in {time.perf_counter() - t0:.1f}s"
    )
    assert not failures, "; ".join(failures)


# -------------------------------------------------------------- criterion 8

@criterion(8, "byte-identical verify reports")
def test_criterion_8_determinism():
    def run(*extra):
        proc = subprocess.run(
            [sys.executable, "-m", "twobridge", "verify-paper", *extra],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    outs = {run(), run(), run("--workers", "2"), run("--workers", "3")}
    assert len(outs) == 1, "verify reports differ across runs or worker counts"
