"""Exact arithmetic for the epimorphism partial order on 2-bridge knots.

The package identifies a 2-bridge knot with the equivalence class of a
reduced fraction p/q (q odd), moves between fractions, all-even
continued fractions, and expanded even vectors, and decides the partial
order "maps onto" through vector parsings.  On top of the order it
provides crossing-number catalogs, the growth statistic EK(n) with its
divisor-counting bounds, seam negation, and 3-fold lifts.
"""

from . import bounds, enumeration, parsing, rationals, seams, vectors
from .bounds import *
from .enumeration import *
from .parsing import *
from .rationals import *
from .seams import *
from .vectors import *

__version__ = "0.1.0"

__all__ = sorted(
    {name for mod in (bounds, enumeration, parsing, rationals, seams, vectors) for name in mod.__all__}
)
