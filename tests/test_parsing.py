"""Parsings, the strict order, two-connector families, smaller-knot sets.

The load-bearing oracle here is ``oracle_smaller``: an exhaustive
generate-and-compare search that enumerates every candidate base,
fold, sign pattern, and connector assignment, assembles the candidate
with :func:`conftest.oracle_assemble`, and compares tuples.  It shares
no search code with the package, only the definitions.
"""

import itertools
import random

import pytest
from conftest import (
    connector_entries,
    oracle_alexander,
    oracle_conway_alexander,
    oracle_assemble,
    oracle_borders,
    oracle_knot,
    oracle_poly_remainder,
    oracle_vectors,
)
from test_vectors import random_vector

from twobridge import (
    NoCommonFamilyError,
    Parsing,
    SEvenVector,
    TwoConnectorForm,
    assemble_two_connector,
    canonical_fraction,
    canonical_vector,
    connector_vector,
    crossing_number,
    enumerate_knots,
    find_parsings,
    Fraction,
    is_strictly_greater,
    knot_classes,
    knot_from_vector,
    minimal_upper_bound,
    parses_with_respect_to,
    smaller_knots,
    torus_vector,
    two_connector_decompose,
    vector_from_knot,
)
from twobridge import parsing
from twobridge.parsing import _parsing_below, _prefix_parsings, _scan_parsing
from twobridge.vectors import _pack

V = SEvenVector


def classes_with_crossing_up_to(top):
    """All vector classes with crossing number <= top, via the direct
    generator (lengths above top - 1 cannot stay under the bound)."""
    seen = {}
    for n in range(2, top, 2):
        for entries in oracle_vectors(n):
            v = V(entries)
            if crossing_number(v) <= top:
                seen.setdefault(canonical_vector(v), None)
    return list(seen)


def oracle_smaller(v):
    """Brute-force smaller-knot set: every base prefix of every orbit
    member, every odd fold >= 3, every sign/connector assignment."""
    out = set()
    for a in (w.entries for w in v.orbit()):
        la = len(a)
        for blen in range(2, la, 2):
            b = a[:blen]
            if b[-1] == 0:
                continue
            for fold in range(3, la, 2):
                if fold * blen + (fold - 1) > la:
                    break
                budget = la - fold * blen
                conn_values = [
                    c
                    for c in range(-la - 1, la + 2)
                    if c % 2 == 0 and (1 if c == 0 else abs(c) - 1) <= budget
                ]
                for conns in itertools.product(conn_values, repeat=fold - 1):
                    used = sum(1 if c == 0 else abs(c) - 1 for c in conns)
                    if used != budget:
                        continue
                    for tail in itertools.product((1, -1), repeat=fold - 1):
                        signs = (1,) + tail
                        if any(
                            c == 0 and signs[i] != signs[i + 1]
                            for i, c in enumerate(conns)
                        ):
                            continue
                        if oracle_assemble(b, signs, conns) == a:
                            out.add(knot_from_vector(V(b)))
    return frozenset(out)


# ------------------------------------------------------------- primitives

def test_connector_vector_frozen():
    assert connector_vector(0) == (0,)
    assert connector_vector(2) == (2,)
    assert connector_vector(-6) == (-2, 0, -2, 0, -2)
    with pytest.raises(ValueError):
        connector_vector(3)


def test_parsing_validation():
    b = V((2, 2))
    with pytest.raises(ValueError):
        Parsing(b, (1, 1), (0,))  # even fold
    with pytest.raises(ValueError):
        Parsing(b, (-1, 1, 1), (0, 0))  # first sign must be +1
    with pytest.raises(ValueError):
        Parsing(b, (1, -1, -1), (0, 0))  # zero connector across a sign flip
    with pytest.raises(ValueError):
        Parsing(b, (1, 1, 1), (0,))  # connector count


def test_parsing_assemble_and_boundaries():
    p = Parsing(V((2, 2)), (1, 1, 1), (0, 0))
    assert p.assemble().entries == (2, 2, 0, 2, 2, 0, 2, 2)
    assert p.boundaries() == (2, 3, 5, 6)
    assert p.fold == 3
    assert p.to_json_dict() == {
        "base": [2, 2],
        "fold": 3,
        "signs": [1, 1, 1],
        "connectors": [0, 0],
    }


def oracle_boundaries(base, connectors):
    """Cut after every tile and every connector but the last tile."""
    cuts, pos = [], 0
    for c in connectors:
        pos += len(base)
        cuts.append(pos)
        pos += len(connector_entries(c))
        cuts.append(pos)
    return tuple(cuts)


def test_parsing_layout_matches_oracle_random():
    rng = random.Random(1018)
    bases = [e for n in (2, 4, 6) for e in oracle_vectors(n)]
    for _ in range(500):
        base = rng.choice(bases)
        signs, connectors = [1], []
        for _ in range(rng.choice((0, 2, 4, 6))):
            c = rng.randrange(-6, 8, 2)
            signs.append(signs[-1] if c == 0 else rng.choice((1, -1)))
            connectors.append(c)
        p = Parsing(V(base), tuple(signs), tuple(connectors))
        assert p.assemble().entries == oracle_assemble(base, signs, connectors)
        assert p.boundaries() == oracle_boundaries(base, connectors)


def test_assemble_two_connector_matches_oracle_random():
    rng = random.Random(1019)
    generators = [e for n in (0, 2, 4, 6) for e in oracle_vectors(n)]
    for _ in range(500):
        g = rng.choice(generators)
        sizes = range(-6, 8, 2) if g else (-6, -4, -2, 2, 4, 6)
        m, n = rng.choice(sizes), rng.choice(sizes)
        count = rng.randrange(1, 11, 2)
        connectors = [n if i % 2 else m for i in range(count - 1)]
        want = oracle_assemble(g, (1,) * count, connectors)
        assert assemble_two_connector(V(g), m, n, count).entries == want
    # the sizes above leave out the one invalid case: an empty generator
    # with a zero connector
    with pytest.raises(ValueError):
        assemble_two_connector(V(()), 0, 2, 3)


def test_assemble_two_connector_is_valid_by_construction():
    # the assembly is built from its packed bytes without the entry check:
    # every generator of at most 8 entries, the empty one included, with
    # every small connector pair and tile count, rebuilds through the
    # checking constructor to the same value and bytes
    generators = [e for n in range(0, 9, 2) for e in oracle_vectors(n)]
    sizes = range(-6, 7, 2)
    refused = 0
    for g, m, n, count in itertools.product(generators, sizes, sizes, (1, 3, 5)):
        if not g and count >= 3 and 0 in (m, n):
            with pytest.raises(ValueError, match="^an empty generator needs nonzero connectors$"):
                assemble_two_connector(V(g), m, n, count)
            refused += 1
            continue
        out = assemble_two_connector(V(g), m, n, count)
        assert out.entries == oracle_assemble(g, (1,) * count, [n if i % 2 else m for i in range(count - 1)])
        checked = V(out.entries)
        assert checked == out and checked._packed() == out._packed(), (g, m, n, count)
    assert refused == 2 * 13
    for g, m, n, count in [((2, 2), 3, 2, 3), ((2, 2), 2, 2, 4), ((2, 2), 2, 2, 0), ((2, 2), 2, 2, -3)]:
        with pytest.raises(ValueError):
            assemble_two_connector(V(g), m, n, count)


# ------------------------------------------------------------ find_parsings

def test_find_parsings_worked_vector():
    ps = find_parsings(V((2, 2, 0, 2, 2, 0, 2, 2)), V((2, 2)))
    assert len(ps) == 1
    assert ps[0].fold == 3
    assert ps[0].signs == (1, 1, 1)
    assert ps[0].connectors == (0, 0)


def test_find_parsings_torus():
    ps = find_parsings(torus_vector(27), V((2, -2)))
    assert [p.fold for p in ps] == [9]
    assert ps[0].signs == (1,) * 9
    assert ps[0].connectors == (2, -2, 2, -2, 2, -2, 2, -2)


def test_find_parsings_identity_and_mismatch():
    ps = find_parsings(V((2, 2)), V((2, 2)))
    assert [(p.fold, p.connectors) for p in ps] == [(1, ())]
    assert find_parsings(V((2, 2)), V((2, -2))) == ()


def test_find_parsings_reassemble_and_length_bound():
    # every parsing found over a corpus reassembles bit-exact and obeys
    # len(a) >= fold * len(b) + fold - 1
    corpus = [
        (torus_vector(27), V((2, -2))),
        (torus_vector(27), torus_vector(9)),
        (torus_vector(45), torus_vector(15)),
        (V((2, 2, 0, 2, 2, 0, 2, 2)), V((2, 2))),
        (assemble_two_connector(V((2, -2)), 2, 0, 5), V((2, -2))),
    ]
    total = 0
    for a, b in corpus:
        for p in find_parsings(a, b):
            total += 1
            assert p.assemble().entries == a.entries
            assert len(a) >= p.fold * len(b) + p.fold - 1
    assert total >= 4


def test_parses_with_respect_to_matches_find_parsings():
    vs = [V(e) for e in oracle_vectors(8)]
    base = V((2, -2))
    for a in vs:
        folds = [p.fold for p in find_parsings(a, base)]
        for min_fold in (3, 5, 7):
            assert parses_with_respect_to(a, base, min_fold=min_fold) == any(
                f >= min_fold for f in folds
            ), (a, min_fold)
        assert parses_with_respect_to(a, base, min_fold=1) == bool(folds)


def oracle_parsings(a, b):
    """Every parsing of a over b, as (fold, signs, connectors), found by
    assembling every fold, sign pattern and connector assignment."""
    la, lb = len(a), len(b)
    out = []
    for fold in range(1, la + 1, 2):
        budget = la - fold * lb
        if budget < fold - 1:
            break
        conn_values = [
            c
            for c in range(-budget - 1, budget + 2)
            if c % 2 == 0 and (1 if c == 0 else abs(c) - 1) <= budget
        ]
        for conns in itertools.product(conn_values, repeat=fold - 1):
            if sum(1 if c == 0 else abs(c) - 1 for c in conns) != budget:
                continue
            for tail in itertools.product((1, -1), repeat=fold - 1):
                signs = (1,) + tail
                if any(c == 0 and signs[i] != signs[i + 1] for i, c in enumerate(conns)):
                    continue
                if oracle_assemble(b, signs, conns) == a:
                    out.append((fold, signs, conns))
    return out


def test_find_parsings_matches_brute_force_up_to_10():
    # a parsing over a given base is unique when it exists
    pairs = 0
    for n in range(2, 11, 2):
        for a in oracle_vectors(n):
            for blen in range(2, n + 1, 2):
                b = a[:blen]
                if b[-1] == 0:
                    continue
                want = oracle_parsings(a, b)
                assert len(want) <= 1, (a, b)
                got = [(p.fold, p.signs, p.connectors) for p in find_parsings(V(a), V(b))]
                assert got == want, (a, b)
                pairs += 1
    assert pairs == 24204


def random_parsing(rng, bases, folds=range(0, 41, 2)):
    """A random base with signs and connectors: zero connectors, short runs
    and runs with |c| up to 70, past the 64 whose packed runs are kept."""
    base = rng.choice(bases)
    signs, connectors = [1], []
    for _ in range(rng.choice(folds)):
        c = rng.choice((0, rng.randrange(-8, 10, 2), rng.randrange(-70, 72, 2)))
        signs.append(signs[-1] if c == 0 else rng.choice((1, -1)))
        connectors.append(c)
    return base, signs, connectors


def test_find_parsings_recovers_random_assembly():
    rng = random.Random(1107)
    bases = [e for n in (2, 4, 6, 8) for e in oracle_vectors(n)]
    seen = set()
    for _ in range(2000):
        base, signs, connectors = random_parsing(rng, bases)
        a = oracle_assemble(base, signs, connectors)
        assert _scan_parsing(_pack(a), _pack(base)) == (signs, connectors), (a, base)
        got = [(p.signs, p.connectors) for p in find_parsings(V(a), V(base))]
        assert got == [(tuple(signs), tuple(connectors))], (a, base)
        seen.update(("negative tile",) * (-1 in signs) + ("zero connector",) * (0 in connectors))
        seen.update(("long run",) * any(abs(c) > 64 for c in connectors))
    assert seen == {"negative tile", "zero connector", "long run"}


def test_scan_parsing_rejects_broken_assemblies():
    # The scan fails on a perturbed last tile (its last entry negated, which
    # keeps the vector valid when a nonzero precedes it), on a vector cut
    # after a nonzero entry of its last connector, and on an even fold.
    rng = random.Random(2808)
    bases = [e for n in (2, 4, 6, 8) for e in oracle_vectors(n)]
    cases = {"tile": 0, "cut": 0, "even": 0}
    for _ in range(1000):
        base, signs, connectors = random_parsing(rng, bases, folds=range(2, 21, 2))
        a = oracle_assemble(base, signs, connectors)
        if a[-2]:
            assert _scan_parsing(_pack(a[:-1] + (-a[-1],)), _pack(base)) is None, (a, base)
            cases["tile"] += 1
        start = len(oracle_assemble(base, signs[:-1], connectors[:-1]))
        for end in range(start + 1, start + len(connector_entries(connectors[-1])) + 1, 2) if connectors[-1] else ():
            assert _scan_parsing(_pack(a[:end]), _pack(base)) is None, (a, base, end)
            cases["cut"] += 1
        even = oracle_assemble(base, signs[:-1], connectors[:-1])
        assert _scan_parsing(_pack(even), _pack(base)) is None, (even, base)
        cases["even"] += 1
    assert min(cases.values()) > 100, cases


# ------------------------------------------------------------- strict order

def test_is_strictly_greater_frozen():
    t27 = canonical_vector(torus_vector(27))
    t9 = canonical_vector(torus_vector(9))
    t3 = canonical_vector(torus_vector(3))
    t5 = canonical_vector(torus_vector(5))
    assert is_strictly_greater(t27, t3)
    assert is_strictly_greater(t27, t9)
    assert is_strictly_greater(t9, t3)
    assert not is_strictly_greater(t3, t9)
    assert not is_strictly_greater(t27, t5)
    assert not is_strictly_greater(t27, t27)


def test_is_strictly_greater_empty_class():
    # the unknot's class is empty: nothing lies below it and it lies below
    # nothing, and neither question scans an empty prefix
    empty = canonical_vector(SEvenVector(()))
    for k in (empty, canonical_vector(torus_vector(3)), canonical_vector(torus_vector(27))):
        assert not is_strictly_greater(empty, k)
        assert not is_strictly_greater(k, empty)


def test_strict_order_antisymmetric_small():
    classes = classes_with_crossing_up_to(10)
    assert len(classes) == 1 + 1 + 2 + 3 + 7 + 12 + 24 + 45
    for j in classes:
        assert not is_strictly_greater(j, j)
    for j, k in itertools.combinations(classes, 2):
        assert not (is_strictly_greater(j, k) and is_strictly_greater(k, j))


def test_strict_order_matches_oracle_up_to_10():
    classes = classes_with_crossing_up_to(10)
    for j in classes:
        below = oracle_smaller(j.representative)
        for k in classes:
            want = knot_from_vector(k.representative) in below
            assert is_strictly_greater(j, k) == want, (str(j), str(k))


# ---------------------------------------------------------- two-connector

def test_two_connector_decompose_frozen():
    form = two_connector_decompose(V((2, 2, 0, 2, 2, 0, 2, 2)))
    assert (form.generator.entries, form.m, form.n, form.count) == ((2, 2), 0, 0, 3)
    form = two_connector_decompose(torus_vector(27))
    assert (form.generator.entries, form.m, form.n, form.count) == ((), 2, -2, 27)
    form = two_connector_decompose(V((2, 2)))
    assert (form.generator.entries, form.m, form.n, form.count) == ((), 2, 2, 3)
    assert two_connector_decompose(V((2, -2, -2, 2, -2, -2, 2, -2))) is None


def oracle_two_connector_form(e):
    """(generator, m, n, count) on the shortest generator, by trying every
    connector pair whose runs sit where the first two connectors go."""
    lv = len(e)
    runs = [(c, connector_entries(c)) for c in range(-lv, lv + 1, 2)]
    for glen in range(0, lv, 2):
        g = e[:glen]
        if g and g[-1] == 0:
            continue
        found = []
        for m, mrun in runs:
            if e[glen : glen + len(mrun)] != mrun:
                continue
            for n, nrun in runs:
                at = 2 * glen + len(mrun)
                if e[at : at + len(nrun)] != nrun:
                    continue
                reps, rest = divmod(lv - glen, at + len(nrun))
                if rest or reps < 1:
                    continue
                count = 2 * reps + 1
                if oracle_assemble(g, (1,) * count, [n if i % 2 else m for i in range(count - 1)]) == e:
                    found.append((g, m, n, count))
        if found:
            assert len(found) == 1, found
            return found[0]
    return None


def test_two_connector_decompose_matches_oracle_up_to_12():
    for length in range(2, 13, 2):
        for entries in oracle_vectors(length):
            form = two_connector_decompose(V(entries))
            got = form and (form.generator.entries, form.m, form.n, form.count)
            assert got == oracle_two_connector_form(entries), entries


def test_two_connector_decompose_passes_mixed_sign_parsings():
    # over a prefix shorter than the generator the scan can find a fold >= 3
    # parsing with mixed signs: no form, so the search goes on.  Vectors of
    # at most 12 entries never reach this path
    g = V((2, 2, 2, -2, -2, -2, 2, 2))
    v = assemble_two_connector(g, 2, 2, 3)
    (p,) = find_parsings(v, V((2, 2)))
    assert (len(v), p.fold, set(p.signs)) == (26, 9, {1, -1})
    form = two_connector_decompose(v)
    assert (form.generator.entries, form.m, form.n, form.count) == (g.entries, 2, 2, 3)
    assert oracle_two_connector_form(v.entries) == (g.entries, 2, 2, 3)

    # random assemblies of at most 60 entries over a mixed-sign assembly
    rng = random.Random(1818)
    checked = passed_by = 0
    while checked < 150:
        signs, connectors = [1], []
        for _ in range(rng.choice((2, 4))):
            c = rng.randrange(-4, 6, 2)
            signs.append(signs[-1] if c == 0 else rng.choice((1, -1)))
            connectors.append(c)
        if -1 not in signs:
            continue
        inner = Parsing(random_vector(rng, rng.choice((2, 4))), tuple(signs), tuple(connectors))
        v = assemble_two_connector(inner.assemble(), rng.randrange(-4, 6, 2), rng.randrange(-4, 6, 2), 3)
        if len(v) > 60:
            continue
        form = two_connector_decompose(v)
        got = form and (form.generator.entries, form.m, form.n, form.count)
        assert got == oracle_two_connector_form(v.entries), v
        checked += 1
        passed_by += any(
            len(p.signs) >= 3 and -1 in p.signs
            for blen in range(2, len(form.generator) if form else 0, 2)
            if v.entries[blen - 1]
            for p in find_parsings(v, V(v.entries[:blen]))
        )
    assert passed_by > 100, passed_by

    # all-plus parsings, every other one with alternating connectors: the
    # scan finds a form over the base only when they alternate
    forms = 0
    for i in range(150):
        fold = rng.choice((5, 7))
        connectors = [rng.randrange(-2, 4, 2) for _ in range(fold - 1)]
        if i % 2:
            connectors = [connectors[j % 2] for j in range(fold - 1)]
        v = Parsing(random_vector(rng, 2), (1,) * fold, tuple(connectors)).assemble()
        form = two_connector_decompose(v)
        got = form and (form.generator.entries, form.m, form.n, form.count)
        assert got == oracle_two_connector_form(v.entries), v
        forms += form is not None
    assert 70 < forms < 140, forms


def test_two_connector_generator_is_valid():
    # the generator is cut from the vector without the entry check
    for length in range(2, 13, 2):
        for entries in oracle_vectors(length):
            form = two_connector_decompose(V(entries))
            if form is not None:
                assert V(form.generator.entries) == form.generator, entries


def test_two_connector_form_validation():
    with pytest.raises(ValueError):
        TwoConnectorForm(V(()), 0, 2, 3)  # empty generator, zero connector
    with pytest.raises(ValueError):
        TwoConnectorForm(V((2, 2)), 0, 0, 4)  # even count
    with pytest.raises(ValueError):
        TwoConnectorForm(V((2, 2)), 1, 0, 3)  # odd connector


def test_decompose_roundtrip_exhaustive():
    # whenever a form is found it reassembles exactly, and its count is
    # maximal (the generator does not decompose further with the same
    # connectors)
    for n in (2, 4, 6, 8, 10):
        for entries in oracle_vectors(n):
            v = V(entries)
            form = two_connector_decompose(v)
            if form is None:
                continue
            assert form.assemble().entries == v.entries
            inner = two_connector_decompose(form.generator) if not form.generator.is_empty else None
            if inner is not None:
                assert (inner.m, inner.n) != (form.m, form.n)


# ------------------------------------------------------------ smaller sets

def test_smaller_knots_frozen():
    assert {str(k) for k in smaller_knots(torus_vector(27))} == {"1/3", "1/9"}
    assert {str(k) for k in smaller_knots(V((2, 2, 0, 2, 2, 0, 2, 2)))} == {"2/5"}
    assert smaller_knots(V((2, 2))) == frozenset()
    assert {str(k) for k in smaller_knots(V((2, -2, -2, 2, -2, -2, 2, -2)))} == {"1/3"}


def test_smaller_knots_oracle_all_classes_up_to_12():
    classes = classes_with_crossing_up_to(12)
    assert len(classes) == 95 + 91 + 176
    for cls in classes:
        v = cls.representative
        assert smaller_knots(v) == oracle_smaller(v), str(v)


def test_smaller_knots_class_invariant():
    for cls in classes_with_crossing_up_to(9):
        want = smaller_knots(cls.representative)
        for rep in cls.representatives():
            assert smaller_knots(rep) == want


def random_assembly(rng, base, fold, last_sign):
    """oracle_assemble over base with random signs and connectors, the
    last tile signed last_sign; a zero connector only joins equal signs."""
    signs = (1,) + tuple(rng.choice((1, -1)) for _ in range(fold - 2)) + (last_sign,)
    connectors = [
        rng.choice([c for c in range(-6, 8, 2) if c or signs[i] == signs[i + 1]])
        for i in range(fold - 1)
    ]
    return oracle_assemble(base, signs, connectors)


def unfiltered_smaller(v):
    """Smaller set by the plain scan: every nonzero-ended even prefix of
    every orbit member is searched, whatever the member ends with."""
    out = set()
    for a in v.orbit():
        e = a.entries
        for blen in range(2, len(e), 2):
            if e[blen - 1] == 0:
                continue
            b = V(e[:blen])
            if parses_with_respect_to(a, b, min_fold=3):
                out.add(knot_from_vector(b))
    return frozenset(out)


def test_smaller_knots_matches_unfiltered_scan_random():
    rng = random.Random(2026)
    vectors = [random_vector(rng, rng.randrange(2, 302, 2)).entries for _ in range(40)]
    for last_sign in (1, -1):
        for _ in range(30):
            base = random_vector(rng, rng.randrange(2, 42, 2)).entries
            vectors.append(random_assembly(rng, base, rng.choice((3, 5, 7)), last_sign))
    # ends with +-b but no parsing: b, a connector, a random middle tile,
    # a connector, then b or -b
    misses = 0
    while misses < 30:
        base = random_vector(rng, rng.randrange(2, 22, 2)).entries
        middle = random_vector(rng, rng.randrange(2, 42, 2)).entries
        tail = base if rng.random() < 0.5 else tuple(-x for x in base)
        a = base + connector_entries(2) + middle + connector_entries(-2) + tail
        if not parses_with_respect_to(V(a), V(base)):
            vectors.append(a)
            misses += 1
    assert sum(1 for a in vectors if two_connector_decompose(V(a)) is None) > 100
    # the scan reads the vector as given, so every orientation must agree
    for a in vectors:
        v = V(a)
        want = unfiltered_smaller(v)
        for w in v.orbit():
            assert smaller_knots(w) == want, w.entries


def test_smaller_knots_long_assembly_with_negated_last_tile():
    # a random 5-fold assembly, and the 1538-entry vector of the CI smoke
    # step: the 3-fold assembly b, -b', -b over such an assembly of a
    # 170-entry vector; each in all four orientations
    rng = random.Random(2027)
    base = random_vector(rng, 300).entries
    tri = lambda b: b + (2,) + tuple(-x for x in b[::-1]) + (-2,) + tuple(-x for x in b)
    small = tuple(2 if i * i % 7 < 4 else -2 for i in range(170))
    for b, a in ((base, random_assembly(rng, base, 5, -1)), (tri(small), tri(tri(small)))):
        assert len(a) >= 1500
        assert two_connector_decompose(V(a)) is None
        want = unfiltered_smaller(V(a))
        assert knot_from_vector(V(b)) in want
        orbit = V(a).orbit()
        assert len(orbit) == 4
        for w in orbit:
            assert smaller_knots(w) == want, w.entries


def test_smaller_knots_nested_forms_match_unfiltered_scan():
    # two-connector assemblies over a generator that has knots below it:
    # the scan stops at the generator and lists the divisor assemblies
    # over it, so the knots below the generator must come from the
    # prefixes before it; each in all four orientations
    v = assemble_two_connector(torus_vector(9), 2, 4, 15)
    assert len(v) == 148
    assert {str(k) for k in smaller_knots(v)} == {"1/3", "1/9", "53/945", "5617/100161"}
    rng = random.Random(1919)
    generators = [torus_vector(9).entries, torus_vector(15).entries]
    while len(generators) < 8:
        base = random_vector(rng, rng.randrange(2, 9, 2)).entries
        signs = (1, rng.choice((1, -1)), rng.choice((1, -1)))
        if -1 in signs:
            connectors = [rng.choice([c for c in range(-4, 6, 2) if c or signs[i] == signs[i + 1]]) for i in range(2)]
            generators.append(oracle_assemble(base, signs, connectors))
    nested = 0
    for g in generators:
        for _ in range(4):
            v = assemble_two_connector(V(g), rng.randrange(-4, 6, 2), rng.randrange(-4, 6, 2), rng.randrange(3, 17, 2))
            want = unfiltered_smaller(v)
            for w in v.orbit():
                assert smaller_knots(w) == want, w.entries
            form = two_connector_decompose(v)
            nested += form is not None and bool(unfiltered_smaller(form.generator))
    assert nested >= 24, nested


def test_smaller_knots_divide_determinant():
    # For a 2-bridge knot p/q the Alexander polynomial at -1 is +-q, and an
    # epimorphism J -> K makes Delta_K divide Delta_J, so q_K | q_J for
    # every K below J; q_J comes from the definitions (oracle_knot)
    pairs = 0
    for cls in classes_with_crossing_up_to(12):
        v = cls.representative
        _, q = oracle_knot(v.entries)
        for k in smaller_knots(v):
            assert q % k.canonical.q == 0, (str(v), str(k))
            pairs += 1
    assert pairs == 25
    below = smaller_knots(torus_vector(3003))
    assert len(below) == 14
    assert all(3003 % k.canonical.q == 0 for k in below)


def test_oracle_alexander_pinned():
    assert oracle_alexander(1, 3) == [1, -1, 1]
    assert oracle_alexander(2, 5) == [-1, 3, -1]
    assert oracle_alexander(1, 5) == [1, -1, 1, -1, 1]
    # for a 2-bridge knot p/q, |Delta(-1)| = q
    classes = [k for n in range(3, 13) for k in knot_classes(n)]
    assert len(classes) == 362
    for k in classes:
        p, q = k.canonical.p, k.canonical.q
        assert abs(sum(c * (-1) ** i for i, c in enumerate(oracle_alexander(p, q)))) == q, (p, q)
    # the negative control: Delta of 1/3 does not divide Delta of 1/5
    assert any(oracle_poly_remainder(oracle_alexander(1, 5), oracle_alexander(1, 3)))


def test_smaller_knots_divide_alexander():
    # an epimorphism J -> K makes Delta_K divide Delta_J: checked for every
    # knot smaller_knots finds below the catalog classes with n <= 18 and
    # below seven torus vectors, with Delta_J from the definitions
    def check(v):
        delta = oracle_alexander(*oracle_knot(v.entries))
        below = smaller_knots(v)
        for k in below:
            rem = oracle_poly_remainder(delta, oracle_alexander(k.canonical.p, k.canonical.q))
            assert not any(rem), (v.entries, str(k))
        return len(below)

    classes = pairs = 0
    forms = {True: 0, False: 0}  # by whether the generator is empty
    for n in range(3, 19):
        for entry in enumerate_knots(n).entries:
            if entry.smaller:
                rep = entry.vector.representative
                classes += 1
                pairs += check(rep)
                if (form := two_connector_decompose(rep)) is not None:
                    forms[form.generator.is_empty] += 1
    assert (classes, pairs) == (531, 534)
    assert forms == {False: 83, True: 4}  # both sliced routes of smaller_knots
    for q in (27, 45, 105, 225, 315, 1023, 3003):
        assert check(torus_vector(q)) > 0, q


def test_oracle_conway_alexander_matches_sum_formula():
    # the continuant oracle against the sum formula, up to sign, on every
    # class with n <= 14
    classes = [k.canonical for n in range(3, 15) for k in knot_classes(n)]
    assert len(classes) == 1407
    for f in classes:
        want = oracle_alexander(f.p, f.q)
        assert oracle_conway_alexander(f.p, f.q) in (want, [-c for c in want]), f


def test_smaller_knots_divide_alexander_long_vectors():
    # Delta_K divides Delta_J, both from the continuant oracle, for every
    # knot below the 1538-entry vector of the CI smoke step and below
    # random assemblies of up to 2,048 entries, each of which has its
    # base's knot below it
    rng = random.Random(2048)
    tri = lambda b: b + (2,) + tuple(-x for x in b[::-1]) + (-2,) + tuple(-x for x in b)
    small = tuple(2 if i * i % 7 < 4 else -2 for i in range(170))
    cases = [(tri(small), tri(tri(small)))]
    while len(cases) < 11:
        base = random_vector(rng, 2 * rng.randint(1, 300)).entries
        fold = rng.choice([f for f in (3, 5, 7, 9, 15, 31) if f * (len(base) + 7) < 2048])
        cases.append((base, random_assembly(rng, base, fold, rng.choice((1, -1)))))
    assert max(len(a) for _, a in cases) > 1500
    for base, a in cases:
        below = smaller_knots(V(a))
        assert knot_from_vector(V(base)) in below, (len(base), len(a))
        delta = oracle_conway_alexander(*oracle_knot(a))
        for k in below:
            rem = oracle_poly_remainder(delta, oracle_conway_alexander(k.canonical.p, k.canonical.q))
            assert not any(rem), (len(a), str(k))


def test_smaller_knots_builds_no_assembly(monkeypatch):
    # the divisor bases of a two-connector form are prefixes of the vector,
    # sliced off it: smaller_knots assembles nothing
    cases = [
        (torus_vector(45), {"1/3", "1/5", "1/9", "1/15"}),
        (assemble_two_connector(torus_vector(9), 2, 4, 15), {"1/3", "1/9", "53/945", "5617/100161"}),
        (V((2, 2, 0, 2, 2, 0, 2, 2)), {"2/5"}),
    ]

    def refuse(*args):
        raise AssertionError(f"built {args}")

    class RefusedRuns:
        __getitem__ = staticmethod(refuse)

    monkeypatch.setattr(parsing, "assemble_two_connector", refuse)
    monkeypatch.setattr(parsing, "_RUNS", RefusedRuns())
    for v, want in cases:
        assert {str(k) for k in smaller_knots(v)} == want


def test_parsing_below_replays_by_oracle_assembly():
    # the witness that seams and negate take for each knot below: the signs
    # and connectors of a parsing of fold >= 3 over the prefix of the
    # representative, which rebuild the representative without the library
    cases = [
        (e.vector.representative.entries, vector_from_knot(k).representative.entries)
        for n in range(3, 15)
        for e in enumerate_knots(n).entries
        for k in e.smaller
    ]
    rep27 = canonical_vector(torus_vector(27)).representative.entries
    cases += [(rep27, canonical_vector(torus_vector(q)).representative.entries) for q in (3, 9)]
    assert len(cases) == 61
    for rep, base_rep in cases:
        signs, connectors = _parsing_below(_pack(rep), _pack(base_rep))
        assert len(signs) >= 3, (rep, base_rep)
        assert oracle_assemble(rep[: len(base_rep)], signs, connectors) == rep, (rep, base_rep)


def scanned_lengths(monkeypatch, a):
    """The base lengths _prefix_parsings scans on a, and the parsings it yields.

    It scans a prefix only where a ends with that prefix up to sign, so
    the lengths scanned are its border lengths."""
    scanned = []

    def scan(ea, eb, min_fold=1):
        scanned.append(len(eb))
        return _scan_parsing(ea, eb, min_fold)

    with monkeypatch.context() as m:
        m.setattr(parsing, "_scan_parsing", scan)
        found = list(_prefix_parsings(_pack(a)))
    return scanned, found


def test_prefix_parsings_long_vectors_match_border_oracle(monkeypatch):
    # 65,536 entries: a random vector, a 3-fold assembly b, 2, b', 4, b
    # and the same with its last tile negated; the border lengths scanned
    # and the prefixes parsed over are pinned against the entry-by-entry
    # oracle and the assembly
    rng = random.Random(65536)
    base = random_vector(rng, 21844).entries
    cases = [
        (random_vector(rng, 65536).entries, []),
        (oracle_assemble(base, (1, 1, 1), (2, 4)), [len(base)]),
        (oracle_assemble(base, (1, 1, -1), (2, 4)), [len(base)]),
    ]
    for a, parsed in cases:
        assert len(a) == 65536
        hi = (len(a) - 2) // 3 + 1
        borders = oracle_borders(a, 2, hi)
        assert set(parsed) <= set(borders)
        scanned, found = scanned_lengths(monkeypatch, a)
        assert scanned == borders
        assert [blen for blen, _, _ in found] == parsed
        for blen, signs, connectors in found:
            assert oracle_assemble(a[:blen], signs, connectors) == a


def test_prefix_parsings_packed_and_tuple_windows_agree(monkeypatch):
    # one border path for every window: over random vectors, signed
    # assemblies and periodic vectors (a border at every period), the
    # widest window scans exactly the oracle's border lengths, and windows
    # of one length each find the prefixes it finds
    rng = random.Random(2028)
    vectors = [random_vector(rng, rng.randrange(60, 400, 2)).entries for _ in range(20)]
    for _ in range(60):
        base = random_vector(rng, rng.randrange(2, 40, 2)).entries
        vectors.append(random_assembly(rng, base, rng.choice((3, 5, 7, 9)), rng.choice((1, -1))))
    vectors += [torus_vector(q).entries for q in (61, 99, 301)]
    vectors += [(2, 2, 0, 2, -2) * 20 + (2, 2), (2, -2, -2) * 40, (2, 2), (2, -2, 2, -2)]
    for a in vectors:
        hi = (len(a) - 2) // 3 + 1
        scanned, wide = scanned_lengths(monkeypatch, a)
        assert scanned == oracle_borders(a, 2, hi), a
        narrow = [p for blen in range(2, hi, 2) for p in _prefix_parsings(_pack(a), blen, blen + 1)]
        assert wide == narrow, a


# ----------------------------------------------------- chain family facts

CHAIN_CONNECTORS = [
    (m, n)
    for m in (-4, -2, 2, 4)
    for n in (-4, -2, 2, 4)
]


def test_chain_parsings_track_divisors():
    # for the empty-generator family, parsings with respect to a shorter
    # chain exist exactly at divisor counts, with the quotient fold
    empty = V(())
    for m, n in CHAIN_CONNECTORS:
        for p in range(1, 14):
            count = 2 * p + 1
            a = assemble_two_connector(empty, m, n, count)
            for q in range(1, p + 1):
                sub = 2 * q + 1
                if sub == count:
                    continue
                b = assemble_two_connector(empty, m, n, sub)
                ps = find_parsings(a, b)
                if count % sub == 0:
                    assert any(x.fold == count // sub for x in ps), (m, n, count, sub)
                else:
                    assert ps == (), (m, n, count, sub)


def test_chain_smaller_sets_are_divisor_sets():
    empty = V(())
    for m, n in CHAIN_CONNECTORS:
        for p in range(1, 14):
            count = 2 * p + 1
            a = assemble_two_connector(empty, m, n, count)
            want = {
                knot_from_vector(assemble_two_connector(empty, m, n, d))
                for d in range(3, count, 2)
                if count % d == 0
            }
            assert set(smaller_knots(a)) == want, (m, n, count)


def test_chain_decompose_recovers_count():
    empty = V(())
    for m, n in CHAIN_CONNECTORS:
        for p in (1, 2, 3, 6, 13):
            count = 2 * p + 1
            a = assemble_two_connector(empty, m, n, count)
            form = two_connector_decompose(a)
            assert form is not None
            assert form.generator.is_empty
            assert (form.m, form.n, form.count) == (m, n, count)


def test_nested_chain_identity():
    # (g^(2p+1))^(2q+1) assembled with the same connector pair equals
    # g^((2p+1)(2q+1)) entry for entry
    for g in (V((2, 2)), V((2, -2))):
        for m, n in ((2, 2), (2, -2), (0, 4), (4, -2)):
            for p in (1, 2):
                for q in (1, 2):
                    w = assemble_two_connector(g, m, n, 2 * p + 1)
                    lhs = assemble_two_connector(w, m, n, 2 * q + 1)
                    rhs = assemble_two_connector(g, m, n, (2 * p + 1) * (2 * q + 1))
                    assert lhs.entries == rhs.entries


# -------------------------------------------------------------- upper bound

def test_minimal_upper_bound_torus():
    out = minimal_upper_bound([torus_vector(3), torus_vector(5)])
    assert out.entries == torus_vector(15).entries


def test_minimal_upper_bound_generated_family():
    g = V((2, 2))
    a = assemble_two_connector(g, 0, 4, 3)
    b = assemble_two_connector(g, 0, 4, 5)
    out = minimal_upper_bound([a, b])
    assert out.entries == assemble_two_connector(g, 0, 4, 15).entries
    ja = canonical_vector(a)
    jb = canonical_vector(b)
    jo = canonical_vector(out)
    assert is_strictly_greater(jo, ja)
    assert is_strictly_greater(jo, jb)


def test_minimal_upper_bound_single_and_errors():
    v = torus_vector(9)
    assert minimal_upper_bound([v]) is v
    with pytest.raises(NoCommonFamilyError):
        minimal_upper_bound([torus_vector(3), V((2, 2))])
    with pytest.raises(NoCommonFamilyError):
        minimal_upper_bound([torus_vector(3), V((2, -2, -2, 2, -2, -2, 2, -2))])
    with pytest.raises(ValueError):
        minimal_upper_bound([torus_vector(3), torus_vector(9)])
    with pytest.raises(ValueError):
        minimal_upper_bound([])
