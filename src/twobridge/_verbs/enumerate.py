"""``enumerate``: the catalog of all 2-bridge knots with n crossings."""


def _cmd_enumerate(args):
    from ..enumeration import DEFAULT_BUDGET, BudgetExceededError, enumerate_knots

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
