"""The argparse parser of the command line, built from :data:`twobridge.cli._VERBS`.

``cli.main`` reads every argv whose meaning is fixed itself (``cli._read``)
and builds a parser here only for the rest: help, usage errors, ``--``,
``--opt=value``, abbreviated options, and ``--exact`` with ``--assisted``.
``cli.build_parser`` returns the parser of every verb.  argparse loads
``gettext`` and ``locale``, and this module is compiled, only then.
"""

from __future__ import annotations

import argparse
import re

from . import cli


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


def parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of the verb named ``only`` alone.

    The one-verb parser lists every verb in its usage line as the full one
    does, so both print the same help and usage errors; a name that is no
    verb gets the full parser.  Each verb's handler is looked up in
    :mod:`twobridge.cli` when the parser is built, so a replaced handler is
    the one called.
    """
    top = _Parser(
        prog="twobridge",
        description="Exact arithmetic for the partial order on 2-bridge knots.",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    verbs = cli._VERBS
    if only in verbs:
        sub.metavar = "{" + ",".join(verbs) + "}"
        verbs = {only: verbs[only]}
    for name, (handler, summary, positionals, flags, exclusive, defaults) in verbs.items():
        p = sub.add_parser(name, help=summary)
        for option, keywords in cli._COMMON_FLAGS:
            p.add_argument(option, **keywords)
        for arg in positionals:
            p.add_argument(arg, type=int if arg in cli._INT_POSITIONALS else None)
        for option, keywords in flags:
            p.add_argument(option, **keywords)
        if exclusive:
            group = p.add_mutually_exclusive_group()
            for option, keywords in exclusive:
                group.add_argument(option, **keywords)
        p.set_defaults(handler=getattr(cli, handler), **defaults)
    return top
