"""``verify-paper``: the built-in reference tables and constructions, checked in :mod:`twobridge._paper`."""

from .._paper import verify


def _cmd_verify(args):
    return verify(args.budget)
