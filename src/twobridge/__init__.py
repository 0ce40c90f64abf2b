"""Exact arithmetic for the epimorphism partial order on 2-bridge knots.

The package identifies a 2-bridge knot with the equivalence class of a
reduced fraction p/q (q odd), moves between fractions, all-even
continued fractions, and expanded even vectors, and decides the partial
order "maps onto" through vector parsings.  On top of the order it
provides crossing-number catalogs, the growth statistic EK(n) with its
divisor-counting bounds, seam negation, and 3-fold lifts.

``import twobridge`` loads no submodule.  The root's public names are
those of its layers' ``__all__`` lists, and each is written only there.
The first use of a name (PEP 562 ``__getattr__``) imports the layers in
``_LAYERS`` order, binds each one's public names here and stops at the
first layer that holds the name, so every later ``twobridge.X`` is a
plain attribute read.  A name of one of the first four layers loads
only what its own module imports; a name of ``seams`` or ``bounds`` also
loads the layers before it, and an unknown name and the first
``dir(twobridge)`` load every layer.  ``from twobridge import *`` binds
every name, and submodules stay reachable as attributes.  Each CLI verb is a
fresh process, and without written bytecode every module it imports is
compiled again, so the root imports only what a name asks for.  Layers
are loaded with ``__import__``, so ``-X importtime`` reports each one.
"""

__version__ = "0.1.0"

# Each of the first four layers imports every layer before it, so a
# lookup of their names loads nothing more than the name's home module
# does.  Those are the only names that the catalog and order-query
# set-up snippets look up.  seams and bounds come last: a lookup of one
# of their names also loads every layer before it.
_LAYERS = ("rationals", "vectors", "parsing", "enumeration", "seams", "bounds")


def __getattr__(name: str):
    if name.startswith("__") and name.endswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    root, public = globals(), set()
    for layer in _LAYERS:
        module = __import__(f"{__name__}.{layer}", fromlist=["__all__"])
        public.update(module.__all__)
        root.update({n: getattr(module, n) for n in module.__all__})
        if name in root:
            return root[name]
    if name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    root["__all__"] = sorted(public)
    return root["__all__"]


def __dir__() -> list[str]:
    public = globals().get("__all__") or __getattr__("__all__")
    return sorted({*globals(), *public})
