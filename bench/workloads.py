"""The three workloads: generated inputs, the timed calls, and their checks.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned and been checked.  Work comes
in units of fixed composition (a catalog pass, a block of 60 queries,
one CLI verb sequence), so a unit's wall time is comparable between
runs and seeds.  Library calls go through attributes of the ``twobridge``
package and its modules at call time, so the tracer's rebinding applies.

The long torus cases (vectors of 3000 to 4000 entries against 1/3) are
not operations of any workload: they raise RecursionError in the
current code, and the benchmark's workloads must not fail.  They run as
a probe after the measured units of ``queries`` and ``cli``, and their
outcome is reported separately.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import oracle

BENCH = Path(__file__).resolve().parent

CATALOG_NS = (16, 17, 18)
FROZEN_EK = {16: 2, 17: 2, 18: 1}
CHECK_CLASSES_UP_TO = 19

# An equal share for each of the six kinds of query; the compare share is
# split evenly between lift-vs-base and random pairs.  The weights are a
# choice, not measured call shares.
QUERY_BLOCK = (
    ("smaller_random", 10),
    ("smaller_parsing", 10),
    ("smaller_two_connector", 10),
    ("compare_lift", 5),
    ("compare_random", 5),
    ("torus_seams", 10),
    ("convert", 10),
)
QUERY_BLOCKS_PER_SEED = 10
QUERY_MIN_LEN, QUERY_MAX_LEN = 16, 2048

CLI_HEAVY = (
    ["cm", "40"],
    ["cm", "80"],
    ["cm", "95"],
    ["cm", "120"],
    ["ek", "16", "--budget", "16"],
    ["verify-paper"],
)
# 18 light verbs to 6 heavy ones put item_p50_ms among the light verbs and
# item_p90_ms among the middle heavy ones (cm 80, ek 16), away from the edge
# between the two groups, where it would jump from run to run.
CLI_LIGHT_PER_SEQUENCE = 18
CLI_TIMEOUT_S = 120
KNOWN_CM = {
    0: 3, 1: 9, 2: 15, 3: 45, 4: 45, 5: 105, 6: 105, 7: 225,
    8: 315, 9: 315, 10: 315, 11: 945, 12: 945, 13: 945, 14: 945,
}
KNOWN_ASSISTED_EK = {45: 4, 105: 6}

SETUP_SNIPPETS = {
    "catalog": "import twobridge as tb\ntb.enumerate_knots(12).ek",
    "queries": "import twobridge as tb\ntb.smaller_knots(tb.torus_vector(45))",
    "cli": (
        "import contextlib, io\nimport twobridge.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    twobridge.cli.main(['cr', '2,2'])"
    ),
}


def tb():
    import twobridge

    return twobridge


_expected: dict = {}


def expected() -> dict:
    """bench/expected.json, written by bench/record.py at the reference commit."""
    if not _expected:
        _expected.update(json.loads((BENCH / "expected.json").read_text()))
    return _expected


def raw(fn):
    """The library function behind a tracing wrapper, for use in checks."""
    return getattr(fn, "__wrapped__", fn)


def pq(k) -> tuple[int, int]:
    return (k.canonical.p, k.canonical.q)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when the output is right
    items: int = 1
    answered: Callable[[Any], bool] = lambda result: True


# ---------------------------------------------------------------- catalog


def _compact(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def catalog_digest(catalog) -> str:
    """SHA-256 of the catalog's compact, key-sorted JSON, hashed one entry at a time.

    Equal to hashing ``json.dumps(catalog.to_json_dict(), sort_keys=True,
    separators=(",", ":"))``, without holding a second copy of the catalog.
    """
    h = hashlib.sha256(b'{"ek":' + _compact(catalog.ek) + b',"knots":[')
    for i, entry in enumerate(catalog.entries):
        h.update((b"," if i else b"") + _compact(entry.to_json_dict()))
    h.update(b'],"n":' + _compact(catalog.crossing_number) + b"}")
    return h.hexdigest()


def _catalog_op(n: int) -> Op:
    def run():
        catalog = tb().enumerate_knots(n, workers=1)
        return catalog, catalog.ek

    def check(result) -> Optional[str]:
        catalog, ek = result
        if len(catalog.entries) != oracle.class_count(n):
            return f"n={n}: {len(catalog.entries)} classes, closed form gives {oracle.class_count(n)}"
        if ek != FROZEN_EK[n]:
            return f"n={n}: EK {ek}, want {FROZEN_EK[n]}"
        digest = catalog_digest(catalog)
        if digest != expected()["catalog_sha256"][str(n)]:
            return f"n={n}: catalog digest {digest[:12]} differs from the recorded one"
        return None

    return Op(f"enumerate_{n}", run, check, items=oracle.class_count(n))


def catalog_units(seed: int) -> Iterator[list[Op]]:
    # The catalog is fully determined by n; the seed only has to exist.
    while True:
        yield [_catalog_op(n) for n in CATALOG_NS]


def catalog_final_checks() -> list[str]:
    """Class counts from knot_classes against the closed form, n = 3..19."""
    errors = []
    for n in range(3, CHECK_CLASSES_UP_TO + 1):
        got = len(raw(tb().knot_classes)(n))
        if got != oracle.class_count(n):
            errors.append(f"knot_classes({n}) has {got} classes, closed form {oracle.class_count(n)}")
    return errors


# ---------------------------------------------------------------- queries


def _even(x: float, lo: int = 2) -> int:
    return max(lo, 2 * round(x / 2))


def _smaller_check(v: tuple[int, ...], must_contain=()):
    memo: list[set] = []  # the oracle's answer, computed on the first check

    def check(result) -> Optional[str]:
        got = {pq(k) for k in result}
        for base in must_contain:
            if base not in got:
                return f"base {base} missing from the smaller set of a length-{len(v)} vector"
        if not memo:
            memo.append(oracle.smaller_set(v))
        want = memo[0]
        if got != want:
            return f"smaller set of a length-{len(v)} vector: got {sorted(got)}, want {sorted(want)}"
        return None

    return check


def _smaller_op(kind: str, v: tuple[int, ...], must_contain=()) -> Op:
    return Op(kind, lambda: tb().smaller_knots(tb().SEvenVector(v)), _smaller_check(v, must_contain))


def _q_smaller_random(rng: random.Random, length: int) -> Op:
    return _smaller_op("smaller_random", oracle.random_vector(rng, length))


def _random_signs_connectors(rng: random.Random, fold: int):
    signs = [1]
    conns = []
    for _ in range(fold - 1):
        s = rng.choice((1, -1))
        c = rng.choice((-4, -2, 0, 2, 4)) if s == signs[-1] else rng.choice((-4, -2, 2, 4))
        signs.append(s)
        conns.append(c)
    return signs, conns


def _q_smaller_parsing(rng: random.Random, length: int) -> Op:
    blen = _even(math.exp(rng.uniform(math.log(2), math.log(max(2, length / 4)))))
    base = oracle.random_vector(rng, blen)
    fold = max(3, int(length / (blen + 2)) | 1)
    signs, conns = _random_signs_connectors(rng, fold)
    v = oracle.assemble(base, signs, conns)
    return _smaller_op("smaller_parsing", v, [oracle.knot_of_vector(base)])


def _two_connector(g: tuple[int, ...], m: int, n: int, count: int) -> tuple[int, ...]:
    return oracle.assemble(g, [1] * count, [m if i % 2 == 0 else n for i in range(count - 1)])


def _q_smaller_two_connector(rng: random.Random, length: int) -> Op:
    if rng.random() < 0.1:
        g: tuple[int, ...] = ()
        m, n = rng.choice((-4, -2, 2, 4)), rng.choice((-4, -2, 2, 4))
    else:
        g = oracle.random_vector(rng, _even(math.exp(rng.uniform(math.log(2), math.log(max(2, length / 5))))))
        m, n = rng.choice((-4, -2, 0, 2, 4)), rng.choice((-4, -2, 0, 2, 4))
    per_tile = len(g) + (len(oracle.connector(m)) + len(oracle.connector(n))) / 2
    count = max(3, int(length / per_tile) | 1)
    v = _two_connector(g, m, n, count)
    bases = [
        oracle.knot_of_vector(_two_connector(g, m, n, d))
        for d in range(1, count, 2)
        if count % d == 0 and (g or d > 1)
    ]
    return _smaller_op("smaller_two_connector", v, bases)


def _compare(a, b) -> str:
    """compare A B as the CLI does it, on SEvenVector inputs."""
    t = tb()
    va, vb = t.canonical_vector(a), t.canonical_vector(b)
    t.knot_from_vector(va.representative)
    t.knot_from_vector(vb.representative)
    if va == vb:
        return "equal"
    above = t.is_strictly_greater(va, vb)
    below = t.is_strictly_greater(vb, va)
    return "greater" if above else "less" if below else "incomparable"


def _q_compare_lift(rng: random.Random, length: int) -> Op:
    c = oracle.random_vector(rng, _even(length / 3))
    target = 3 * oracle.crossing_number(c) + rng.randint(0, 6)

    def run():
        t = tb()
        base = t.SEvenVector(c)
        lifted = t.lift_construction(base, target)
        return lifted.entries, _compare(lifted, base)

    def check(result) -> Optional[str]:
        lifted, rel = result
        if rel != "greater":
            return f"lift of a length-{len(c)} vector compares as {rel}, want greater"
        if oracle.crossing_number(lifted) != target:
            return f"lift has crossing number {oracle.crossing_number(lifted)}, want {target}"
        if not oracle.parses(lifted, c):
            return "lift does not parse with respect to its base"
        return None

    return Op("compare_lift", run, check)


def _q_compare_random(rng: random.Random, length: int) -> Op:
    a = oracle.random_vector(rng, length)
    blen = _even(rng.uniform(2, max(2, length / 3)))
    b = a[:blen] if rng.random() < 0.5 and a[blen - 1] != 0 else oracle.random_vector(rng, blen)
    want = oracle.relation(a, b)

    def run():
        t = tb()
        return _compare(t.SEvenVector(a), t.SEvenVector(b))

    return Op("compare_random", run, lambda rel: None if rel == want else f"relation {rel}, want {want}")


def _torus_seams(q: int, d: int, pick: int) -> Op:
    """Seams of the torus knot 1/q over every parsing w.r.t. 1/d, then a negation."""
    base = oracle.representative(oracle.torus(d))
    want_cuts = None
    for rep in oracle.orbit(base):
        for cuts in oracle.parsing_cuts(oracle.torus(q), rep):
            want_cuts = set(cuts) if want_cuts is None else want_cuts & set(cuts)
    want_cuts = tuple(sorted(want_cuts or ()))

    def run():
        t = tb()
        v = t.torus_vector(q)
        reps = t.vector_from_knot(t.canonical_fraction(t.Fraction(1, d))).representatives()
        parsings = [p for rep in reps for p in t.find_parsings(v, rep)]
        seams = t.find_seams(v, tuple(parsings))
        count = len(seams.segments)
        chosen = random.Random(pick).sample(range(1, count + 1), min(count, 1 + pick % 3))
        return seams.cuts, t.negate_segments(seams, tuple(chosen)).entries

    def check(result) -> Optional[str]:
        cuts, out = result
        if tuple(cuts) != want_cuts:
            return f"seams of 1/{q} w.r.t. 1/{d}: cuts differ from the oracle's"
        if sum(map(abs, out)) != 2 * (q - 1):
            return f"negation of 1/{q} changed the entry mass"
        if not oracle.greater(out, base):
            return f"negated 1/{q} no longer lies above 1/{d}"
        return None

    return Op("torus_seams", run, check)


def _q_torus_seams(rng: random.Random, length: int) -> Op:
    d = rng.choice((3, 5, 7, 9, 11, 13, 15))
    k = max(3, int((length + 1) / d) | 1)
    return _torus_seams(d * k, d, rng.randrange(1 << 30))


def _q_convert(rng: random.Random, length: int) -> Op:
    v = oracle.random_vector(rng, length)
    p, q = oracle.fraction_of(v)
    want = oracle.knot(p, q)
    inv = pow(p, -1, q)
    given = rng.choice((p, inv, -p, -inv)) + q * rng.randint(-3, 3)
    want_vec = oracle.representative(v)

    def run():
        t = tb()
        k = t.canonical_fraction(t.Fraction(given, q))
        cf = t.even_expansion(k.canonical)
        vec = t.vector_from_knot(k).representative
        return k, cf, vec, t.crossing_number(vec)

    def check(result) -> Optional[str]:
        k, cf, vec, n = result
        if pq(k) != want:
            return f"canonical fraction {k} of a length-{length} vector, want {want}"
        if raw(tb().evaluate_terms)(cf.terms, cf.r) != k.canonical:
            return f"even expansion of {k} does not evaluate back to it"
        if vec.entries != want_vec:
            return f"vector of {k} differs from the class representative"
        if n != oracle.crossing_number(v):
            return f"crossing number {n}, want {oracle.crossing_number(v)}"
        return None

    return Op("convert", run, check)


_QUERY_MAKERS = {
    "smaller_random": _q_smaller_random,
    "smaller_parsing": _q_smaller_parsing,
    "smaller_two_connector": _q_smaller_two_connector,
    "compare_lift": _q_compare_lift,
    "compare_random": _q_compare_random,
    "torus_seams": _q_torus_seams,
    "convert": _q_convert,
}


def query_units(seed: int) -> Iterator[list[Op]]:
    """A fixed set of query blocks for the seed, repeated in order for as long as the run lasts.

    Vector lengths are stratified log-uniform over 16..2048 within each
    kind of query: every block gets one length from each of the kind's
    coarse strata, and over the whole set each fine stratum is used once.
    So blocks cost about the same, seeds differ little in their mix, and
    repeating the set means every run and every commit times the same
    inputs.
    """
    rng = random.Random(seed)
    span = math.log(QUERY_MAX_LEN / QUERY_MIN_LEN)
    nblocks = QUERY_BLOCKS_PER_SEED
    blocks: list[list[Op]] = [[] for _ in range(nblocks)]
    for kind, count in QUERY_BLOCK:
        for coarse in range(count):
            for b, fine in enumerate(rng.sample(range(nblocks), nblocks)):
                stratum = coarse * nblocks + fine
                length = _even(QUERY_MIN_LEN * math.exp(span * (stratum + rng.random()) / (count * nblocks)))
                blocks[b].append(_QUERY_MAKERS[kind](rng, length))
    for block in blocks:
        rng.shuffle(block)
    return itertools.cycle(blocks)


def long_torus_probe(seed: int) -> list[Op]:
    """compare and seams on torus vectors of 3000..4000 entries against 1/3."""
    rng = random.Random(seed)
    q_cmp = rng.randrange(3001, 4001, 2)
    q_seam = 3 * rng.randrange(1001, 1333, 2)
    want = oracle.torus_relation(q_cmp, 3)

    def compare():
        t = tb()
        return _compare(t.torus_vector(q_cmp), t.torus_vector(3))

    return [
        Op("long_torus_compare", compare, lambda rel: None if rel == want else f"1/{q_cmp} vs 1/3: {rel}, want {want}"),
        _torus_seams(q_seam, 3, rng.randrange(1 << 30)),
    ]


# ---------------------------------------------------------------- cli


# Told of each CLI child once it has started, and of None once it has
# ended, so that run.py's pacer can stop the child while it samples.
child_hook: Callable[[Optional[subprocess.Popen]], None] = lambda proc: None


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _cli_verdict(proc: subprocess.CompletedProcess, want_rc: int, want_stdout: Optional[str],
                 want_sha: Optional[str], extra: Callable[[str], Optional[str]]) -> Optional[str]:
    if "Traceback" in proc.stderr:
        return "traceback: " + proc.stderr.strip().splitlines()[-1]
    if proc.returncode != want_rc:
        return f"exit {proc.returncode}, want {want_rc}"
    if want_rc != 0 and not proc.stderr.startswith("error:"):
        return f"exit {want_rc} without a typed error line"
    if want_stdout is not None and proc.stdout != want_stdout:
        return "stdout differs from the expected bytes"
    if want_sha is not None and hashlib.sha256(proc.stdout.encode()).hexdigest() != want_sha:
        return "stdout differs from the bytes recorded at the seed commit"
    return extra(proc.stdout)


def _independent_cli_check(argv: list[str]) -> Callable[[str], Optional[str]]:
    """Checks that do not rest on recorded bytes, where one applies."""
    verb = argv[0]
    if verb == "cm" and len(argv) == 2:
        m = int(argv[1])

        def cm(out: str) -> Optional[str]:
            value = int(out)
            if m in KNOWN_CM and value != KNOWN_CM[m]:
                return f"cm {m} = {value}, want {KNOWN_CM[m]}"
            d = sum(1 for i in range(3, value // 3 + 1, 2) if value % i == 0)
            return None if value % 2 and d >= m else f"cm {m} = {value} has {d} divisors"

        return cm
    if verb == "ek" and argv[2:] == ["--assisted"] and int(argv[1]) in KNOWN_ASSISTED_EK:
        want = KNOWN_ASSISTED_EK[int(argv[1])]
        return lambda out: None if out == f"{want}\n" else f"ek {argv[1]} = {out.strip()}, want {want}"
    if verb == "ek" and argv[1] in {str(n) for n in FROZEN_EK} and "--assisted" not in argv:
        want = FROZEN_EK[int(argv[1])]
        return lambda out: None if out == f"{want}\n" else f"ek {argv[1]} = {out.strip()}, want {want}"
    if verb == "torus":
        q = int(argv[1])
        divs = [d for d in range(3, q) if q % d == 0]
        lines = [f"count: {len(divs)}"] + [f"1/{d}" for d in divs]
        return lambda out: None if out.splitlines()[3:] == lines else f"torus {q}: wrong knots below"
    if verb == "compare" and all(a.startswith("1/") for a in argv[1:3]):
        a, b = int(argv[1][2:]), int(argv[2][2:])
        want = oracle.torus_relation(a, b)
        return lambda out: None if out.endswith(f"relation: {want}\n") else f"1/{a} vs 1/{b}: want {want}"
    if verb == "verify-paper":
        return lambda out: None if out.endswith("verify: OK\n") else "verify-paper did not end OK"
    return lambda out: None


def _cli_op(root: Path, argv: list[str], want_rc: int, want_stdout: Optional[str],
            want_sha: Optional[str], runner: list[str]) -> Op:
    extra = _independent_cli_check(argv) if want_rc == 0 else (lambda out: None)

    def run():
        with subprocess.Popen(runner + argv, cwd=root, env=cli_env(root), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, process_group=0) as proc:
            child_hook(proc)
            try:
                stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
            finally:
                child_hook(None)
        return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)

    return Op(argv[0], run, lambda proc: _cli_verdict(proc, want_rc, want_stdout, want_sha, extra),
              answered=lambda proc: proc.returncode == 0)


def cli_sequence(seed: int) -> list[dict]:
    """The verb sequence for a seed: fixed heavy verbs plus light verbs drawn from the pool."""
    rng = random.Random(seed)
    pool = list(expected()["cli_light"])
    rng.shuffle(pool)
    light = []
    for case in pool:  # one case of every verb first, so each verb has a latency
        if case["argv"][0] not in {c["argv"][0] for c in light}:
            light.append(case)
    light += [case for case in pool if case not in light][: CLI_LIGHT_PER_SEQUENCE - len(light)]
    seq = light + list(expected()["cli_heavy"])
    rng.shuffle(seq)
    return seq


def cli_units(seed: int, root: Path, runner: list[str]) -> Iterator[list[Op]]:
    seq = cli_sequence(seed)
    while True:
        yield [_cli_op(root, c["argv"], c["rc"], None, c["stdout_sha256"], runner) for c in seq]


def seams_text(q: int, d: int) -> str:
    """The expected stdout of ``seams 1/q --wrt 1/d``, rendered from the oracle."""
    v = oracle.torus(q)
    all_cuts = [cuts for rep in oracle.orbit(oracle.representative(oracle.torus(d)))
                for cuts in oracle.parsing_cuts(v, rep)]
    common = sorted(set.intersection(*(set(c) for c in all_cuts))) if all_cuts else []
    bounds = [0] + common + [len(v)]
    segs = " ".join(f"{i}={bounds[i - 1] + 1}..{bounds[i]}" for i in range(1, len(bounds)))
    return "\n".join([
        "vector: " + ",".join(map(str, v)),
        f"bases: 1/{d}",
        f"parsings: {len(all_cuts)}",
        "cuts: " + (",".join(map(str, common)) or "-"),
        f"segments: {segs}",
    ]) + "\n"


def cli_probe(root: Path, runner: list[str]) -> list[Op]:
    return [
        _cli_op(root, ["compare", "1/3001", "1/3"], 0,
                "a: 1/3001\nb: 1/3\nrelation: incomparable\n", None, runner),
        _cli_op(root, ["seams", "1/3003", "--wrt", "1/3"], 0, seams_text(3003, 3), None, runner),
    ]
