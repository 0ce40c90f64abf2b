"""``cm``: the least odd number with at least m nontrivial proper divisors."""


def _cmd_cm(args):
    from ..bounds import bound_entry, bound_table

    if args.table:
        rows = bound_table(args.m)
        text = "\n".join(f"{e.m} {e.value}" for e in rows)
        payload = {"table": [e.to_json_dict() for e in rows]}
    else:
        entry = bound_entry(args.m)
        text = str(entry.value)
        payload = entry.to_json_dict()
    return text, payload, 0
