"""Seam cutting, segment negation, and the 3-fold lift.

The four frozen negation outcomes (fractions and crossing numbers) were
verified by hand through the fraction evaluator: negate the segment
entries, evaluate the vector as a continued fraction, canonicalize.
The lift sweeps re-check every vector of length <= 8 against the
targets 3n..3n+6, and every vector of length <= 6 against 3n..3n+11.
"""

import pytest
from conftest import oracle_vectors

from twobridge import (
    Parsing,
    SeamSet,
    SEvenVector,
    canonical_vector,
    crossing_number,
    find_parsings,
    find_seams,
    is_strictly_greater,
    knot_from_vector,
    lift_construction,
    negate_segments,
    smaller_knots,
    torus_vector,
)

V = SEvenVector


def two_base_seams():
    v = torus_vector(27)
    parsings = find_parsings(v, torus_vector(3)) + find_parsings(v, torus_vector(9))
    return find_seams(v, parsings)


# ------------------------------------------------------------------- seams

def test_find_seams_torus_27():
    seams = two_base_seams()
    assert len(seams.parsings) == 2
    assert seams.cuts == (8, 9, 17, 18)
    assert seams.segments == ((1, 8), (9, 9), (10, 17), (18, 18), (19, 26))


def test_find_seams_single_parsing():
    v = V((2, 2, 0, 2, 2, 0, 2, 2))
    ps = find_parsings(v, V((2, 2)))
    seams = find_seams(v, ps)
    assert seams.cuts == (2, 3, 5, 6)
    assert seams.segments == ((1, 2), (3, 3), (4, 5), (6, 6), (7, 8))


def test_find_seams_one_fold_has_no_cuts():
    v = V((2, 2))
    seams = find_seams(v, find_parsings(v, v))
    assert seams.cuts == ()
    assert seams.segments == ((1, 2),)


def test_find_seams_rejects_foreign_parsing():
    stray = Parsing(V((2, 2)), (1, 1, 1), (0, 0))
    with pytest.raises(ValueError):
        find_seams(torus_vector(27), (stray,))
    with pytest.raises(ValueError):
        find_seams(torus_vector(27), ())


def test_seam_set_json_shape():
    seams = two_base_seams()
    d = seams.to_json_dict()
    assert d["cuts"] == [8, 9, 17, 18]
    assert d["segments"] == [[1, 8], [9, 9], [10, 17], [18, 18], [19, 26]]
    assert len(d["parsings"]) == 2
    assert d["vector"] == list(torus_vector(27).entries)


# ---------------------------------------------------------------- negation

NEGATIONS = [
    ((5,), "17/315", 28),
    ((4,), "35/621", 29),
    ((3, 5), "577/5499", 30),
    ((2, 4), "1189/10395", 31),
]


@pytest.mark.parametrize("segments,fraction,cr", NEGATIONS)
def test_negate_segments_frozen(segments, fraction, cr):
    seams = two_base_seams()
    out = negate_segments(seams, segments)
    assert str(knot_from_vector(out)) == fraction
    assert crossing_number(out) == cr
    # negation moves crossings only through sign changes
    assert sum(abs(e) for e in out.entries) == sum(
        abs(e) for e in seams.vector.entries
    )
    # the result still sits above both torus bases
    for q in (3, 9):
        assert is_strictly_greater(
            canonical_vector(out), canonical_vector(torus_vector(q))
        )


def test_negate_segments_validates_selection():
    seams = two_base_seams()
    with pytest.raises(ValueError):
        negate_segments(seams, ())
    with pytest.raises(ValueError):
        negate_segments(seams, (0,))
    with pytest.raises(ValueError):
        negate_segments(seams, (6,))


def test_negate_segments_rejects_zero_break():
    v = V((2, 2, 0, 2, 2, 0, 2, 2))
    seams = find_seams(v, find_parsings(v, V((2, 2))))
    # segment 1 is the first tile; flipping it alone strands the zero
    # between entries of opposite sign
    with pytest.raises(ValueError, match="breaks the vector"):
        negate_segments(seams, (1,))


def test_negate_segments_rejects_order_loss():
    # a hand-built cut that is not a true seam: flipping half a tile
    # destroys every parsing over the base
    v = V((2, 2, 0, 2, 2, 0, 2, 2))
    p = find_parsings(v, V((2, 2)))[0]
    doctored = SeamSet(v, (p,), (1,))
    with pytest.raises(ValueError, match="loses the order"):
        negate_segments(doctored, (1,))


def test_negate_all_segments_gives_mirror_class():
    seams = two_base_seams()
    out = negate_segments(seams, (1, 2, 3, 4, 5))
    assert canonical_vector(out) == canonical_vector(seams.vector)


# -------------------------------------------------------------------- lift

def test_lift_frozen_cases():
    out = lift_construction(V((2, -2)), 10)
    assert out.entries == (2, -2, 2, 2, -2, 0, -2, 2)
    assert str(knot_from_vector(out)) == "19/69"
    assert crossing_number(out) == 10

    out = lift_construction(V((2, 2)), 12)
    assert out.entries == (2, 2, 0, 2, 2, 0, 2, 2)
    assert str(knot_from_vector(out)) == "38/85"

    out = lift_construction(V((2, 2)), 13)
    assert out.entries == (2, 2, 2, -2, -2, 0, -2, -2)
    assert crossing_number(out) == 13

    out = lift_construction(V((2, 2)), 14)
    assert out.entries == (2, 2, 2, 2, 2, 0, 2, 2)
    assert crossing_number(out) == 14


def test_lift_rejects_bad_targets():
    with pytest.raises(ValueError):
        lift_construction(V((2, 2)), 11)  # below 3 * cr
    with pytest.raises(ValueError):
        lift_construction(V(()), 9)


def test_lift_sweep_hits_target_and_order():
    # every vector of length <= 8, every target in [3n, 3n + 6]
    checked = 0
    for n in (2, 4, 6, 8):
        for entries in oracle_vectors(n):
            c = V(entries)
            ncr = crossing_number(c)
            cc = canonical_vector(c)
            for target in range(3 * ncr, 3 * ncr + 7):
                d = lift_construction(c, target)
                assert crossing_number(d) == target, (entries, target)
                assert is_strictly_greater(canonical_vector(d), cc), (entries, target)
                checked += 1
    assert checked == 6888


def test_lift_results_are_valid():
    # a lift is a parsing assembled without the entry check
    for n in (2, 4, 6):
        for entries in oracle_vectors(n):
            c = V(entries)
            ncr = crossing_number(c)
            for target in range(3 * ncr, 3 * ncr + 12):
                d = lift_construction(c, target)
                assert V(d.entries) == d, (entries, target)


def test_lift_accepts_any_target_from_3n():
    # targets past the 3n..3n+6 window: every vector of length <= 6,
    # every target in [3n, 3n + 11]
    checked = 0
    for n in (2, 4, 6):
        for entries in oracle_vectors(n):
            c = V(entries)
            ncr = crossing_number(c)
            cc = canonical_vector(c)
            for target in range(3 * ncr, 3 * ncr + 12):
                d = lift_construction(c, target)
                assert crossing_number(d) == target, (entries, target)
                assert is_strictly_greater(canonical_vector(d), cc), (entries, target)
                checked += 1
    assert checked == 2016


def test_lift_lands_in_smaller_set_spotcheck():
    # smaller_knots is the expensive direction; sample the sweep
    i = 0
    for n in (2, 4, 6, 8):
        for entries in oracle_vectors(n):
            c = V(entries)
            ncr = crossing_number(c)
            for target in range(3 * ncr, 3 * ncr + 7):
                i += 1
                if i % 101:
                    continue
                d = lift_construction(c, target)
                assert knot_from_vector(c) in smaller_knots(d), (entries, target)
