"""The handlers of the CLI verbs: ``_cmd_<name>`` in the module ``<name>``.

:mod:`twobridge.cli` imports a handler's module only when its verb runs,
so each verb compiles its own handler and no other.  What more than one
handler runs is in ``_shared``; the input reader, ``cli._as_vector``,
stays in ``cli``, since most verbs run it.

Each handler takes the parsed arguments, with args.budget resolved by
main (None stands for the library's DEFAULT_BUDGET), and returns
(text, json_payload, exit_code).  It imports the library names it uses
when it runs, so a name replaced in its home module is the one called.
"""
