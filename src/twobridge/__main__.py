"""``python -m twobridge``: run the CLI through :func:`twobridge.cli.run`.

``run`` calls ``main`` on ``sys.argv``, then freezes the heap with
``gc.freeze()`` once ``main`` has returned or raised, so the full
collections of interpreter finalization skip every object the verb left
alive.  ``python -m twobridge.cli`` and the console script take the same
exit path.
"""

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
