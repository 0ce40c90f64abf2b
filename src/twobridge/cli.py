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
depth or memory, or a repeat count past 2^63 overflows an index), 2
usage error, 3 invalid fraction or continued fraction, 4 enumeration
budget exceeded.

Each verb is a fresh process that compiles every module it imports, so
each handler imports the library names it uses when it runs: ``cr`` and
``convert`` load only ``rationals`` and ``vectors``, ``cm`` only
``bounds``, ``ek --assisted`` only ``bounds`` where the divisor bounds
settle EK(n), and ``verify-paper`` every layer.  Annotations that name
library classes are never evaluated, so those classes are not imported
for them.  Code that few runs need lives outside this module, which
every verb compiles: verify-paper's checks in :mod:`twobridge._paper`,
and the argparse parser in :mod:`twobridge._argparser`.  ``main`` reads
argv itself where argparse's reading of it is fixed (see ``_read``), and
imports argparse, which loads ``gettext``, ``locale`` and ``re``, only
for the rest: help, usage errors, ``--``, ``--opt=value``, abbreviated
options, and ``--exact`` with ``--assisted``.  It then builds the parser
of the one verb it is given.
"""

from __future__ import annotations

import sys

__all__ = ["build_parser", "main"]

VERIFY_DEFAULT_BUDGET = 14

def _is_fraction(text: str) -> bool:
    """True for fraction syntax: no bracket, which a continued fraction has, and no comma, which a vector has."""
    return "[" not in text and "," not in text


def _as_vector(text: str) -> SEvenVector:
    """Read a knot's vector from vector, continued fraction or fraction syntax."""
    from .rationals import EvenCF, Fraction, InvalidFractionError, canonical_fraction
    from .vectors import SEvenVector, expand, vector_from_knot

    if _is_fraction(text):
        return vector_from_knot(canonical_fraction(Fraction.parse(text))).representative
    if "[" in text:  # before the comma test: a continued fraction has commas too
        cf = EvenCF.parse(text)
        if not cf.terms:
            raise InvalidFractionError(f"{cf.r}/1 does not identify a nontrivial 2-bridge knot")
        return expand(cf)
    return SEvenVector.parse(text)


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
    from .rationals import Fraction, canonical_fraction, even_expansion
    from .vectors import canonical_vector, crossing_number, knot_from_vector, vector_from_knot

    if _is_fraction(args.input):  # the knot is at hand, and its fraction keeps the one expansion
        knot = canonical_fraction(Fraction.parse(args.input))
        vec = vector_from_knot(knot).representative
    else:
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
    value = None
    if args.mode == "assisted":  # the bounds alone settle most n, with no layer of knots loaded
        from .bounds import _assisted_ek

        value = _assisted_ek(args.n)
    if value is None:  # what epimorphism_number does once the squeeze is open
        from .enumeration import epimorphism_number

        value = epimorphism_number(args.n, mode="exact", budget=args.budget)
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
    from .seams import _gather_seams

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
    from .seams import _gather_seams, negate_segments

    vec = _as_vector(args.input)
    try:
        segments = tuple(sorted({int(t) for t in args.segments.split(",")}))
    except ValueError:
        raise ValueError(f"--segments takes comma separated segment numbers, got {args.segments!r}") from None
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


def _cmd_verify(args):
    from ._paper import verify

    return verify(args.budget)


# The flags every verb takes, after -h: (option, keywords).
_COMMON_FLAGS = (
    ("--json", dict(action="store_true", help="emit JSON instead of text")),
    ("--budget", dict(type=int, default=None, help="largest n enumerated exactly")),
    ("--workers", dict(type=int, default=None, help="accepted for compatibility; enumeration runs in one process")),
    ("--out", dict(default=None, metavar="FILE", help="write output to FILE instead of stdout")),
    ("--config", dict(default=None, metavar="FILE", help="JSON file with defaults for these flags")),
)

_INT_POSITIONALS = ("m", "n", "q")


def _verb(handler, summary, *positionals, flags=(), exclusive=(), **defaults):
    """A row of _VERBS: handler, summary, positionals, flags, exclusive flags and set_defaults values.

    ``handler`` names the function that runs the verb; it is looked up when
    a verb is read, so a replaced handler is the one called.  Positionals in
    _INT_POSITIONALS are integers.  Flags, taken after _COMMON_FLAGS, and
    the mutually exclusive flags are (option, keywords) pairs for
    add_argument.
    """
    return handler, summary, positionals, flags, exclusive, defaults


_WRT = ("--wrt", dict(action="append", metavar="BASE", help="base knot; repeatable (default: every smaller knot)"))

# Every verb, declared once: _read and _argparser.parser both read this table.
_VERBS = {
    "convert": _verb("_cmd_convert", "fraction, continued fraction, and vector forms of a knot", "input"),
    "cr": _verb("_cmd_cr", "crossing number of a knot or vector", "input"),
    "smaller": _verb("_cmd_smaller", "knots strictly below a knot or vector", "input"),
    "compare": _verb("_cmd_compare", "order relation between two knots", "a", "b"),
    "cm": _verb(
        "_cmd_cm", "least odd number with at least m nontrivial proper divisors", "m",
        flags=[("--table", dict(action="store_true", help="print all values up to m"))],
    ),
    "ek": _verb(
        "_cmd_ek", "largest number of knots below any knot with n crossings", "n", mode="exact",
        exclusive=[
            ("--exact", dict(dest="mode", action="store_const", const="exact")),
            ("--assisted", dict(dest="mode", action="store_const", const="assisted")),
        ],
    ),
    "enumerate": _verb("_cmd_enumerate", "catalog of all 2-bridge knots with n crossings", "n"),
    "seams": _verb("_cmd_seams", "common cut positions over all parsings of a vector", "input", flags=[_WRT]),
    "negate": _verb(
        "_cmd_negate", "negate seam segments and re-verify the order", "input",
        flags=[("--segments", dict(required=True, help="comma separated 1-based segment numbers")), _WRT],
    ),
    "lift": _verb(
        "_cmd_lift", "vector with a chosen crossing number strictly above a given one", "input",
        flags=[("--target", dict(type=int, required=True, help="crossing number of the lifted vector"))],
    ),
    "torus": _verb("_cmd_torus", "the (2,q) torus knot, its vector, and the knots below it", "q"),
    "verify-paper": _verb(
        "_cmd_verify", "check the built-in reference tables and constructions",
        default_budget=VERIFY_DEFAULT_BUDGET,
    ),
}


def _is_value(token: str) -> bool:
    r"""True if argparse reads ``token`` as a value: no leading minus, or _argparser._Parser's rule ``^-\.?\d``.

    ``str.isdecimal`` holds for the same characters as ``\d`` in a str pattern.
    """
    if not token.startswith("-"):
        return True
    return (token[2:3] if token[1:2] == "." else token[1:2]).isdecimal()


def _read(argv: list[str]):
    """The attributes ``build_parser().parse_args(argv)`` gives, or None where argparse must read ``argv``.

    Reads an argv whose meaning under argparse is fixed: a verb, then in
    any order that verb's exact option strings, the one value after each
    option that takes one, and its positionals, as many as it declares,
    every required option present.  A value or positional reads as in
    _is_value.  Everything else is None: help, ``--``, ``--opt=value``,
    abbreviations, unknown options, a missing or unreadable value, and
    two flags of one mutually exclusive group, whose conflict rule
    argparse decides.
    """
    row = _VERBS.get(argv[0]) if argv else None
    if row is None:
        return None
    handler, _, positionals, flags, exclusive, defaults = row
    declared = (*_COMMON_FLAGS, *flags, *exclusive)
    options = {option: (keywords.get("dest", option[2:]), keywords) for option, keywords in declared}
    attrs = {"verb": argv[0]}
    for dest, keywords in options.values():
        attrs[dest] = False if keywords.get("action") == "store_true" else keywords.get("default")
    attrs.update(defaults, handler=globals()[handler])
    found, seen = [], set()
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if token not in options:
                if not _is_value(token):
                    return None
                found.append(token)
                continue
            seen.add(token)
            dest, keywords = options[token]
            action = keywords.get("action")
            if action == "store_true":
                attrs[dest] = True
            elif action == "store_const":
                attrs[dest] = keywords["const"]
            else:
                value = next(tokens, "-")  # a missing value: "-" is refused below as argparse refuses it
                if not _is_value(value):
                    return None
                value = int(value) if keywords.get("type") is int else value
                attrs[dest] = [*(attrs[dest] or ()), value] if action == "append" else value
        if len(found) != len(positionals) or len(seen.intersection(dict(exclusive))) > 1:
            return None
        if any(keywords.get("required") and option not in seen for option, keywords in flags):
            return None
        attrs.update((name, int(text) if name in _INT_POSITIONALS else text) for name, text in zip(positionals, found))
    except ValueError:  # int() refused a value: argparse words that error
        return None
    return type(sys.implementation)(**attrs)  # types.SimpleNamespace, without importing types


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every verb (see :mod:`twobridge._argparser`)."""
    from ._argparser import parser

    return parser()


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
    args = _read(argv)
    if args is None:
        from ._argparser import parser

        args = parser(argv[0] if argv else None).parse_args(argv)
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
    except (RecursionError, MemoryError, OverflowError) as exc:  # first, so that reporting them imports nothing
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
