"""Write bench/expected.json: the outputs the benchmark compares against.

Run once, from the root of a checkout of the commit whose outputs are
the reference:

    python3 bench/record.py

It records the JSON digest of each catalog in ``workloads.CATALOG_NS``
and, for a fixed pool of CLI invocations, the exit code and a digest of
stdout.  The pool is generated from a fixed seed, so it is the same for
every benchmark seed; a benchmark seed only chooses which light verbs
from the pool a CLI sequence runs and in which order.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import oracle
from workloads import CATALOG_NS, CLI_HEAVY, catalog_digest, cli_env

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
POOL_SEED = 2018


def vec(v) -> str:
    """A vector argument; the class representative starts with 2, so argparse takes it."""
    return ",".join(map(str, oracle.representative(v)))


def frac(v) -> str:
    p, q = oracle.knot_of_vector(v)
    return f"{p}/{q}"


def light_pool() -> list[list[str]]:
    """Invocations that each finish in about the CLI start-up time."""
    rng = random.Random(POOL_SEED)
    pool: list[list[str]] = []
    for _ in range(12):
        v = oracle.random_vector(rng, 2 * rng.randint(3, 30))
        form = rng.choice(("fraction", "vector"))
        pool.append(["convert", frac(v) if form == "fraction" else vec(v)])
    pool.append(["convert", "0+[2,4,4,2]"])
    for _ in range(8):
        pool.append(["cr", vec(oracle.random_vector(rng, 2 * rng.randint(2, 40)))])
    for q in (27, 45, 105, 225, 315, 1023):
        pool.append(["smaller", f"1/{q}"])
    for _ in range(6):
        base = oracle.random_vector(rng, 2 * rng.randint(1, 4))
        signs = [1] + [rng.choice((1, -1)) for _ in range(2)]
        conns = [rng.choice((-2, 2)) for _ in range(2)]
        pool.append(["smaller", vec(oracle.assemble(base, signs, conns))])
    for a, b in ((45, 9), (27, 5), (9, 45), (105, 15), (225, 75), (63, 21), (1023, 3), (35, 7)):
        pool.append(["compare", f"1/{a}", f"1/{b}"])
    for _ in range(4):
        a = oracle.representative(oracle.random_vector(rng, 2 * rng.randint(4, 20)))
        b = a[:4] if a[3] != 0 else a[:2]
        pool.append(["compare", vec(a), vec(b)])
    for q in (3, 9, 27, 45, 63, 99, 105, 135, 225, 301):
        pool.append(["torus", str(q)])
    for _ in range(6):
        c = oracle.random_vector(rng, 2 * rng.randint(1, 5))
        target = 3 * oracle.crossing_number(c) + rng.randint(0, 6)
        pool.append(["lift", vec(c), "--target", str(target)])
    for args in (["1/27"], ["1/45"], ["1/63", "--wrt", "1/7"], ["1/105", "--wrt", "1/5"], ["1/75", "--wrt", "1/3", "--wrt", "1/5"]):
        pool.append(["seams"] + args)
    for args in (["1/27", "--segments", "3,5"], ["1/27", "--segments", "2,4"], ["1/63", "--wrt", "1/3", "--wrt", "1/7", "--segments", "1"]):
        pool.append(["negate"] + args)
    for n in (21, 27, 33, 35, 45, 63, 75, 105):
        pool.append(["ek", str(n), "--assisted"])
    for m in (0, 3, 7, 11, 14):
        pool.append(["cm", str(m)])
    pool.append(["convert", "3/4"])  # typed error: even denominator, exit 3
    pool.append(["ek", "30", "--budget", "18"])  # typed error: budget, exit 4
    return pool


def record(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "twobridge"] + argv, cwd=ROOT,
        env=cli_env(ROOT),
        capture_output=True, text=True, timeout=300,
    )
    if "Traceback" in proc.stderr:
        raise SystemExit(f"{argv} crashed: {proc.stderr.strip().splitlines()[-1]}")
    return {
        "argv": argv,
        "rc": proc.returncode,
        "stdout_sha256": hashlib.sha256(proc.stdout.encode()).hexdigest(),
    }


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from twobridge import enumerate_knots

    data = {
        "catalog_sha256": {str(n): catalog_digest(enumerate_knots(n)) for n in CATALOG_NS},
        "cli_light": [record(argv) for argv in light_pool()],
        "cli_heavy": [record(argv) for argv in CLI_HEAVY],
    }
    (BENCH / "expected.json").write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    main()
