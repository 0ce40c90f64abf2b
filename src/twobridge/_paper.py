"""The checks of the ``verify-paper`` verb: the paper's reference tables and constructions.

Only ``verify-paper`` runs this code: its handler, in
:mod:`twobridge._verbs.verify`, imports it, and no other verb compiles
it.  It lists the knots below a vector with ``_verbs._shared._below``,
as ``smaller`` and ``torus`` do.  Each check imports the library names it
uses when it runs, so a name replaced in its home module is the one
called.
"""

from __future__ import annotations

from ._verbs._shared import _below

# Reference tables.  The same values are frozen independently in the
# test suite.
_KNOWN_CM = {
    0: 3, 1: 9, 2: 15, 3: 45, 4: 45, 5: 105, 6: 105, 7: 225,
    8: 315, 9: 315, 10: 315, 11: 945, 12: 945, 13: 945, 14: 945,
}
_KNOWN_EK = {
    3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0,
    9: 1, 10: 1, 11: 1, 12: 1, 13: 1, 14: 1,
    15: 2, 16: 2, 17: 2, 18: 1,
    19: 1, 20: 1, 21: 2, 22: 2, 23: 2, 24: 1,
}


# Each check is a lazy sequence of (label, got, want) cases: it fails at
# its first case with got != want and computes nothing after it.


def _witness_cases(reports):
    for r in reports:
        yield f"{r.fraction} crossing number", r.crossing_number, r.n
        yield f"{r.fraction} has >= 2 below", r.smaller_count >= 2, True


def _worked_example_cases():
    from .parsing import two_connector_decompose
    from .rationals import Fraction, canonical_fraction, even_expansion
    from .vectors import crossing_number, vector_from_knot

    knot = canonical_fraction(Fraction(38, 85))
    yield "canonical form", str(knot), "38/85"
    yield "even continued fraction", str(even_expansion(knot.canonical)), "0+[2,4,4,2]"
    vec = vector_from_knot(knot).representative
    yield "vector", vec.entries, (2, 2, 0, 2, 2, 0, 2, 2)
    yield "crossing number", crossing_number(vec), 12
    form = two_connector_decompose(vec)
    yield "two-connector form", form and (form.generator.entries, form.count), ((2, 2), 3)
    yield "knots below", [str(k) for k in _below(vec)], ["2/5"]


_SEAM_NEGATIONS = (
    ((5,), "17/315", 28),
    ((4,), "35/621", 29),
    ((3, 5), "577/5499", 30),
    ((2, 4), "1189/10395", 31),
)


def _seam_pipeline_cases():
    from .rationals import Fraction, canonical_fraction
    from .seams import _gather_seams, negate_segments
    from .vectors import crossing_number, knot_from_vector, torus_vector

    seam = _gather_seams(torus_vector(27), [canonical_fraction(Fraction(1, q)) for q in (3, 9)])
    yield "cuts", seam.cuts, (8, 9, 17, 18)
    for segments, fraction, cr in _SEAM_NEGATIONS:
        out = negate_segments(seam, segments)
        yield f"negating {list(segments)}", str(knot_from_vector(out)), fraction
        yield f"crossing number after negating {list(segments)}", crossing_number(out), cr


def _torus_certificate_cases():
    from .enumeration import epimorphism_number
    from .vectors import torus_vector

    for q, below in ((27, ["1/3", "1/9"]), (45, ["1/3", "1/5", "1/9", "1/15"])):
        yield f"knots below the (2,{q}) torus knot", [str(k) for k in _below(torus_vector(q))], below
    for n, ek in ((45, 4), (105, 6)):
        yield f"assisted ek({n})", epimorphism_number(n, mode="assisted"), ek


def _checks(budget: int):
    """(name, cases, OK detail) per check, each row made after the one before has run."""
    from .bounds import least_odd_with_divisors
    from .enumeration import epimorphism_number, verify_witness_table

    cm_cases = ((f"m={m}", least_odd_with_divisors(m), want) for m, want in sorted(_KNOWN_CM.items()))
    yield "cm-table", cm_cases, f"{len(_KNOWN_CM)} values"
    # the window always holds n = 3, so a budget below 3 is refused, not passed vacuously
    top = max(3, min(budget, max(_KNOWN_EK)))
    ek_cases = (
        (f"n={n}", epimorphism_number(n, mode="exact", budget=budget), _KNOWN_EK[n])
        for n in range(3, top + 1)
    )
    yield "ek-window", ek_cases, f"n=3..{top}"
    reports = verify_witness_table()
    yield "witnesses", _witness_cases(reports), f"{len(reports)} rows"
    yield "worked-example", _worked_example_cases(), "38/85"
    yield "seam-pipeline", _seam_pipeline_cases(), f"{len(_SEAM_NEGATIONS)} negations"
    yield "torus-certificates", _torus_certificate_cases(), "2 orders, 2 assisted values"


def verify(budget: int):
    """The verify-paper handler's result, (text, json_payload, exit_code), at an EK budget."""
    results = []
    for name, cases, detail in _checks(budget):
        failed = next((case for case in cases if case[1] != case[2]), None)
        if failed:
            detail = "{}: got {}, want {}".format(*failed)
        results.append({"name": name, "passed": not failed, "detail": detail})
    passed = all(r["passed"] for r in results)
    lines = [f"{r['name']}: {'OK' if r['passed'] else 'FAIL'} ({r['detail']})" for r in results]
    lines.append(f"verify: {'OK' if passed else 'FAIL'}")
    return "\n".join(lines), {"checks": results, "passed": passed}, 0 if passed else 1
