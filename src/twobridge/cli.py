"""Command line interface.

Verbs operate on knots given as fractions ("17/315"), even continued
fractions ("0+[2,4,4,2]"), or vectors ("2,2,0,2,2,0,2,2"); vectors are
told apart by their commas without brackets.  Every verb prints a small
deterministic text report, or JSON with --json.  For convert, smaller,
compare, negate, lift and torus, each field is the text line
``name: value`` and the JSON key ``name`` with ``-`` as ``_``; vectors
and integer lists are comma-joined in text, knot lists space-joined,
both are lists in JSON, and knots and continued fractions are strings
in both.  Output never contains timestamps or machine details, so
identical invocations produce identical bytes regardless of worker count.

Exit codes: 0 success, 1 failed check or internal error (including
"error: resource-exhausted:" when a computation runs out of recursion
depth or memory), 2 usage error, 3 invalid fraction or continued
fraction, 4 enumeration budget exceeded.

Each verb is a fresh process that compiles every module it imports, so
each handler imports the library names it uses when it runs, and ``main``
builds the parser of the one verb it is given: ``cr`` and ``convert``
load only ``rationals`` and ``vectors``, ``cm`` only ``bounds``, and
``verify-paper`` every layer.  Compiling ``cli`` takes 7.1 ms,
``enumeration`` 4.4, ``parsing`` 4.4, ``vectors`` 2.7, ``rationals``
2.4, ``bounds`` 2.1, ``seams`` 1.5 and ``_value`` 0.7 (medians of 7,
2 CPUs, Python 3.11.7, no bytecode written).  Annotations that name
library classes are never evaluated, so those classes are not imported
for them.
"""

from __future__ import annotations

import argparse
import re
import sys

__all__ = ["build_parser", "main"]

VERIFY_DEFAULT_BUDGET = 14

# Reference tables used by the verify-paper verb.  The same values are
# frozen independently in the test suite.
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


def _as_vector(text: str) -> SEvenVector:
    """Read a knot's vector from vector, continued fraction or fraction syntax."""
    from .rationals import EvenCF, Fraction, InvalidFractionError, canonical_fraction
    from .vectors import SEvenVector, expand, vector_from_knot

    if "[" in text:  # before the comma test: a continued fraction has commas too
        cf = EvenCF.parse(text)
        if not cf.terms:
            raise InvalidFractionError(f"{cf.r}/1 does not identify a nontrivial 2-bridge knot")
        return expand(cf)
    if "," in text:
        return SEvenVector.parse(text)
    return vector_from_knot(canonical_fraction(Fraction.parse(text))).representative


def _gather_seams(v: SEvenVector, bases: list[KnotClass]) -> SeamSet:
    """Seams of v with respect to its parsings over the given base knots, each strictly below v."""
    from .parsing import Parsing, _parsing_below
    from .seams import find_seams
    from .vectors import SEvenVector, vector_from_knot

    parsings = []
    for knot in bases:
        found = _parsing_below(v.entries, vector_from_knot(knot).representative.entries)
        if found is None:
            raise ValueError(f"the vector has no parsings with respect to {knot.canonical}")
        base, signs, connectors = found
        parsings.append(Parsing(SEvenVector._unchecked(base), signs, connectors))
    return find_seams(v, tuple(parsings))


def _below(v: SEvenVector) -> list[KnotClass]:
    from .parsing import smaller_knots

    return sorted(smaller_knots(v), key=lambda k: k.sort_key)


def _seam_bases(v: SEvenVector, wrt: list[str] | None) -> list[KnotClass]:
    from .vectors import knot_from_vector

    if wrt:
        return sorted({knot_from_vector(_as_vector(t)) for t in wrt}, key=lambda k: k.sort_key)
    bases = _below(v)
    if not bases:
        raise ValueError("no knots lie strictly below this vector; pass --wrt explicitly")
    return bases


def _render(value) -> tuple[str, object]:
    """The text and JSON forms of one report value."""
    from .rationals import EvenCF, KnotClass
    from .vectors import SEvenVector

    if isinstance(value, SEvenVector):
        value = value.entries
    if isinstance(value, (KnotClass, EvenCF)):
        return str(value), str(value)
    if isinstance(value, (tuple, list)):
        if value and isinstance(value[0], KnotClass):
            return " ".join(map(str, value)), [str(k) for k in value]
        return ",".join(map(str, value)), list(value)
    return str(value), value


def _report(fields, tail=(), **json_only):
    """The handler result for (name, value) fields, text-only tail lines and JSON-only keywords."""
    lines, payload = [], {}
    for name, value in fields:
        text, payload[name.replace("-", "_")] = _render(value)
        lines.append(f"{name}: {text}")
    payload.update((key, _render(value)[1]) for key, value in json_only.items())
    return "\n".join([*lines, *tail]), payload, 0


def _knot_fields(v: SEvenVector) -> list[tuple[str, object]]:
    from .vectors import crossing_number, knot_from_vector

    knot, n = knot_from_vector(v), crossing_number(v)
    return [("vector", v), ("fraction", knot), ("crossing-number", n)]


# Each handler takes the parsed arguments, with args.budget resolved by
# main (None stands for the library's DEFAULT_BUDGET), and returns
# (text, json_payload, exit_code).  It imports the library names it uses
# when it runs.


def _cmd_convert(args):
    from .rationals import even_expansion
    from .vectors import canonical_vector, crossing_number, knot_from_vector

    vec = canonical_vector(_as_vector(args.input)).representative
    knot = knot_from_vector(vec)
    cf, n = even_expansion(knot.canonical), crossing_number(vec)
    return _report([("fraction", knot), ("even-cf", cf), ("vector", vec), ("crossing-number", n)])


def _cmd_cr(args):
    from .vectors import crossing_number

    vec = _as_vector(args.input)
    n = crossing_number(vec)
    return str(n), {"vector": list(vec.entries), "crossing_number": n}, 0


def _cmd_smaller(args):
    vec = _as_vector(args.input)
    below = _below(vec)
    return _report([("count", len(below))], map(str, below), vector=vec, smaller=below)


def _cmd_compare(args):
    from .parsing import is_strictly_greater
    from .vectors import canonical_vector, knot_from_vector

    va = canonical_vector(_as_vector(args.a))
    vb = canonical_vector(_as_vector(args.b))
    ka = knot_from_vector(va.representative)
    kb = knot_from_vector(vb.representative)
    above = is_strictly_greater(va, vb)
    below = is_strictly_greater(vb, va)
    relation = "equal" if va == vb else "greater" if above else "less" if below else "incomparable"
    fields = [("a", ka), ("b", kb), ("relation", relation)]
    return _report(fields, a_above_b=above, b_above_a=below)


def _cmd_cm(args):
    from .bounds import bound_entry, bound_table

    if args.m < 0:
        raise ValueError(f"m must be nonnegative, got {args.m}")
    if args.table:
        rows = bound_table(args.m)
        text = "\n".join(f"{e.m} {e.value}" for e in rows)
        payload = {"table": [e.to_json_dict() for e in rows]}
    else:
        entry = bound_entry(args.m)
        text = str(entry.value)
        payload = entry.to_json_dict()
    return text, payload, 0


def _cmd_ek(args):
    from .enumeration import epimorphism_number

    value = epimorphism_number(args.n, mode=args.mode, budget=args.budget)
    return str(value), {"n": args.n, "mode": args.mode, "ek": value}, 0


def _cmd_enumerate(args):
    from .enumeration import DEFAULT_BUDGET, BudgetExceededError, enumerate_knots

    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    if args.n > budget:
        raise BudgetExceededError(args.n, budget)
    catalog = enumerate_knots(args.n)
    if args.json:  # a catalog is large: build only the form that is printed
        return "", catalog.to_json_dict(), 0
    lines = [f"n: {catalog.crossing_number}", f"count: {len(catalog.entries)}", f"ek: {catalog.ek}"]
    for entry in catalog.entries:
        below = ";".join(str(k.canonical) for k in entry.smaller) or "-"
        lines.append(
            f"knot={entry.knot.canonical} vector={entry.vector} smaller={below}"
        )
    return "\n".join(lines), None, 0


def _cmd_seams(args):
    vec = _as_vector(args.input)
    bases = _seam_bases(vec, args.wrt)
    seam = _gather_seams(vec, bases)
    segs = " ".join(f"{i}={lo}..{hi}" for i, (lo, hi) in enumerate(seam.segments, 1))
    text = "\n".join(
        [
            f"vector: {vec}",
            f"bases: {' '.join(map(str, bases))}",
            f"parsings: {len(seam.parsings)}",
            f"cuts: {','.join(str(c) for c in seam.cuts) or '-'}",
            f"segments: {segs}",
        ]
    )
    payload = seam.to_json_dict()
    payload["bases"] = [str(k.canonical) for k in bases]
    return text, payload, 0


def _cmd_negate(args):
    from .seams import negate_segments

    vec = _as_vector(args.input)
    segments = tuple(sorted({int(t) for t in args.segments.split(",")}))
    bases = _seam_bases(vec, args.wrt)
    seam = _gather_seams(vec, bases)
    out = negate_segments(seam, segments)
    fields = _knot_fields(out) + [("negated-segments", segments), ("still-above", bases)]
    return _report(fields, cuts=seam.cuts)


def _cmd_lift(args):
    from .seams import lift_construction

    base = _as_vector(args.input)
    return _report(_knot_fields(lift_construction(base, args.target)), base=base)


def _cmd_torus(args):
    from .vectors import crossing_number, knot_from_vector, torus_vector

    vec = torus_vector(args.q)
    knot = knot_from_vector(vec)
    below = _below(vec)
    fields = [("fraction", knot), ("vector", vec), ("crossing-number", crossing_number(vec))]
    return _report(fields + [("count", len(below))], map(str, below), smaller=below)


# Each verify-paper check is a lazy sequence of (label, got, want) cases:
# it fails at its first case with got != want and computes nothing after it.


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
    from .seams import negate_segments
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


def _cmd_verify(args):
    results = []
    for name, cases, detail in _checks(args.budget):
        failed = next((case for case in cases if case[1] != case[2]), None)
        if failed:
            detail = "{}: got {}, want {}".format(*failed)
        results.append({"name": name, "passed": not failed, "detail": detail})
    passed = all(r["passed"] for r in results)
    lines = [f"{r['name']}: {'OK' if r['passed'] else 'FAIL'} ({r['detail']})" for r in results]
    lines.append(f"verify: {'OK' if passed else 'FAIL'}")
    return "\n".join(lines), {"checks": results, "passed": passed}, 0 if passed else 1


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with a minus and a digit as a value.

    Plain argparse reads ``-2,2`` or ``-1/3`` as an unknown option, since
    it only knows negative numbers.  No option of this CLI starts with a
    digit, so a vector or fraction with a negative first entry needs no
    ``--`` in front.  Subparsers inherit this class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


# The flags every verb takes, after -h: (option, keywords).
_COMMON_FLAGS = (
    ("--json", dict(action="store_true", help="emit JSON instead of text")),
    ("--budget", dict(type=int, default=None, help="largest n enumerated exactly")),
    ("--workers", dict(type=int, default=None, help="accepted for compatibility; enumeration runs in one process")),
    ("--out", dict(default=None, metavar="FILE", help="write output to FILE instead of stdout")),
    ("--config", dict(default=None, metavar="FILE", help="JSON file with defaults for these flags")),
)


def _parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of the verb named ``only`` alone.

    Every verb is declared here once.  The one-verb parser lists every
    verb in its usage line as the full one does, so both print the same
    help and usage errors; a name that is no verb gets the full parser.
    """
    parser = _Parser(
        prog="twobridge",
        description="Exact arithmetic for the partial order on 2-bridge knots.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    names = []

    def verb(name, handler, summary, *positionals, flags=(), exclusive=(), **defaults):
        """A verb with the common flags, its positionals (m, n and q are integers), its flags and its handler."""
        names.append(name)
        if only not in (None, name):
            return
        p = sub.add_parser(name, help=summary)
        for option, keywords in _COMMON_FLAGS:
            p.add_argument(option, **keywords)
        for arg in positionals:
            p.add_argument(arg, type=int if arg in ("m", "n", "q") else None)
        for option, keywords in flags:
            p.add_argument(option, **keywords)
        if exclusive:
            group = p.add_mutually_exclusive_group()
            for option, keywords in exclusive:
                group.add_argument(option, **keywords)
        p.set_defaults(handler=handler, **defaults)

    wrt = ("--wrt", dict(action="append", metavar="BASE", help="base knot; repeatable (default: every smaller knot)"))
    verb("convert", _cmd_convert, "fraction, continued fraction, and vector forms of a knot", "input")
    verb("cr", _cmd_cr, "crossing number of a knot or vector", "input")
    verb("smaller", _cmd_smaller, "knots strictly below a knot or vector", "input")
    verb("compare", _cmd_compare, "order relation between two knots", "a", "b")
    verb(
        "cm", _cmd_cm, "least odd number with at least m nontrivial proper divisors", "m",
        flags=[("--table", dict(action="store_true", help="print all values up to m"))],
    )
    verb(
        "ek", _cmd_ek, "largest number of knots below any knot with n crossings", "n", mode="exact",
        exclusive=[
            ("--exact", dict(dest="mode", action="store_const", const="exact")),
            ("--assisted", dict(dest="mode", action="store_const", const="assisted")),
        ],
    )
    verb("enumerate", _cmd_enumerate, "catalog of all 2-bridge knots with n crossings", "n")
    verb("seams", _cmd_seams, "common cut positions over all parsings of a vector", "input", flags=[wrt])
    verb(
        "negate", _cmd_negate, "negate seam segments and re-verify the order", "input",
        flags=[("--segments", dict(required=True, help="comma separated 1-based segment numbers")), wrt],
    )
    verb(
        "lift", _cmd_lift, "vector with a chosen crossing number strictly above a given one", "input",
        flags=[("--target", dict(type=int, required=True, help="crossing number of the lifted vector"))],
    )
    verb("torus", _cmd_torus, "the (2,q) torus knot, its vector, and the knots below it", "q")
    verb(
        "verify-paper", _cmd_verify, "check the built-in reference tables and constructions",
        default_budget=VERIFY_DEFAULT_BUDGET,
    )

    if only is not None:
        if not sub.choices:
            return _parser()
        sub.metavar = "{" + ",".join(names) + "}"
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser()


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    import json  # imported where used: every verb is a fresh process, and most never need it

    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    if not isinstance(data.get("json", False), bool):
        raise ValueError(f'config file {path}: "json" must be true or false')
    if type(data.get("budget", 0)) is not int:
        raise ValueError(f'config file {path}: "budget" must be an integer')
    return data


# The library's exception classes, imported only when an exception
# reaches main: except clauses are evaluated in order, on demand.


def _fraction_errors() -> tuple[type[Exception], ...]:
    from .rationals import CFDivisionError, InvalidFractionError

    return InvalidFractionError, CFDivisionError


def _budget_error() -> type[Exception]:
    from .enumeration import BudgetExceededError

    return BudgetExceededError


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv[0] if argv else None).parse_args(argv)
    try:
        config = _load_config(args.config)
        args.json = args.json or config.get("json", False)
        if args.budget is None:
            args.budget = config.get("budget", getattr(args, "default_budget", None))
        text, payload, code = args.handler(args)
        if args.json:
            import json  # as in _load_config

            text = json.dumps(payload, indent=2, sort_keys=True)
        if not text.endswith("\n"):
            text += "\n"
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except (RecursionError, MemoryError) as exc:  # first, so that reporting them imports nothing
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"error: resource-exhausted: {detail}", file=sys.stderr)
        return 1
    except _fraction_errors() as exc:
        print(f"error: invalid-fraction: {exc}", file=sys.stderr)
        return 3
    except _budget_error() as exc:
        print(f"error: budget-exceeded: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
