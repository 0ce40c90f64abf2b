"""``ek``: the largest number of knots below any knot with n crossings."""


def _cmd_ek(args):
    value = None
    if args.mode == "assisted":  # the bounds alone settle most n, with no layer of knots loaded
        from ..bounds import _assisted_ek

        value = _assisted_ek(args.n)
    if value is None:  # what epimorphism_number does once the squeeze is open
        from ..enumeration import epimorphism_number

        value = epimorphism_number(args.n, mode="exact", budget=args.budget)
    return str(value), {"n": args.n, "mode": args.mode, "ek": value}, 0
