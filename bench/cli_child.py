"""Traced stand-in for ``python -m twobridge``: spans installed, then ``cli.main``.

Usage: python3 bench/cli_child.py SPAN_DIR VERB [ARGS...]

Writes the span edges of this process to a new JSON file in SPAN_DIR,
whatever the verb's outcome; exit code, stdout, stderr and tracebacks
are those of the real command.
"""

import json
import os
import sys
from pathlib import Path

from spans import Tracer


def main() -> int:
    span_dir = Path(sys.argv[1])
    import twobridge.cli

    tracer = Tracer()
    tracer.install()
    try:
        return twobridge.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        (span_dir / f"{os.getpid()}.json").write_text(json.dumps(tracer.edge_list()))


if __name__ == "__main__":
    sys.exit(main())
