"""Command line interface: the dispatcher of the verbs.

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
this module holds only what every verb runs: the table of verbs
(``_VERBS``), the argv reader (``_read``), config loading, ``main`` with
its error mapping, and the input reader most verbs run (``_as_vector``).
Each verb's handler, ``_cmd_<name>`` (``_cmd_verify`` for
``verify-paper``), is in its own module ``twobridge._verbs.<name>``,
imported only when that verb runs and reachable here by its name
(``__getattr__``).  A handler imports the library names it uses when it
runs: ``cr`` and ``convert`` load only ``rationals`` and ``vectors``,
``cm`` only ``bounds``, ``ek --assisted`` only ``bounds`` where the
divisor bounds settle EK(n), and ``verify-paper`` every layer, with its
checks in :mod:`twobridge._paper`.
An error exit loads nothing more: ``main`` matches a library exception
class only once its layer is loaded (``_raised``).  Annotations that
name library classes are never evaluated, so those classes are not
imported for them.  ``main`` reads argv itself where argparse's reading
of it is fixed (see ``_read``), and imports the parser of
:mod:`twobridge._argparser`, and with it argparse, which loads
``gettext``, ``locale`` and ``re``, only for the rest: help, usage
errors, ``--``, ``--opt=value``, abbreviated options, and ``--exact``
with ``--assisted``.  It then builds the parser of the one verb it is
given.

Every way of starting the CLI calls ``sys.exit(run())``: ``run`` calls
``main``, then freezes the heap (``gc.freeze()``) so that interpreter
finalization does not walk it.  ``main`` itself never freezes.
"""

from __future__ import annotations

import sys

__all__ = ["build_parser", "main", "run"]

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

    ``handler`` names the function that runs the verb, ``_cmd_<name>`` in
    the module ``twobridge._verbs.<name>`` (see ``__getattr__``); it is
    looked up when a verb is read, so a handler replaced on this module is
    the one called.  Positionals in _INT_POSITIONALS are integers.  Flags,
    taken after _COMMON_FLAGS, and the mutually exclusive flags are
    (option, keywords) pairs for add_argument.
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
    attrs.update(defaults, handler=globals().get(handler) or __getattr__(handler))
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


def __getattr__(name: str):
    """A verb's handler, ``_cmd_<name>``, from its own module ``twobridge._verbs.<name>`` (PEP 562).

    Only the verb that runs imports its handler's module, so every verb
    compiles this dispatcher and its own handler, and no other handler.
    """
    if not any(row[0] == name for row in _VERBS.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}._verbs.{name[5:]}", fromlist=[name]), name)


def _raised(layer: str, *names: str) -> tuple[type[Exception], ...]:
    """The exception classes ``names`` of a library layer, or none while the layer is not loaded.

    A class whose module was never imported cannot have been raised, so an
    error exit loads no layer that its verb did not run.  except clauses
    are evaluated in order, only when an exception reaches them.
    """
    module = sys.modules.get(f"{__package__}.{layer}")
    return tuple(getattr(module, name) for name in names) if module else ()


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
    except _raised("rationals", "InvalidFractionError", "CFDivisionError") as exc:
        print(f"error: invalid-fraction: {exc}", file=sys.stderr)
        return 3
    except _raised("enumeration", "BudgetExceededError") as exc:
        print(f"error: budget-exceeded: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def run() -> int:
    """Run ``main`` on ``sys.argv``, then freeze the heap: the entry point of every way the CLI is started.

    ``python -m twobridge``, ``python -m twobridge.cli`` and the console
    script all call ``sys.exit(run())``.  ``gc.freeze()`` moves every live
    object into the permanent generation, so the full collections of
    interpreter finalization skip them instead of walking the whole heap.

    - The heap is frozen only after ``main`` returns or raises, argparse's
      ``SystemExit`` included: ``enumeration._collector_paused`` hands a
      build's objects on to the old generation only while nothing is
      frozen, so a freeze before the verb runs would leave an ``ek`` or
      ``enumerate`` build young.
    - ``main`` never freezes: tests, benchmark set-up and library callers
      run it in their own process.
    - The process ends through ``sys.exit``, never ``os._exit``, which
      would skip atexit hooks and file flushes.
    - No option, flag or environment variable turns this on or off.
    """
    import gc  # here, not at the top: callers of main never need it

    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
