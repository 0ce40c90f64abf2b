"""Stdlib-only benchmark for twobridge: end-to-end run or traced run of one workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload catalog|queries|cli --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped; its
timings are paced, that is scaled to a nominal host speed (see pace.py).
``--trace 1`` runs a fixed amount of the same workload twice, untraced
and then traced, and reports the per-layer metrics and the tracing
overhead.  Every operation's output is checked; a wrong answer or an
exception is a failed operation.  Each metric is printed with its unit,
the full record goes to ``bench/out/<workload>-seed<N>-trace<T>.json``,
and the last line of stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import workloads
from pace import Pacer
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_EVERY_S = 0.5
SETUP_MIN = 15
IMPORT_REPEATS = 5
W2_N = 19
TRACE_UNITS = {"catalog": 1, "queries": 5, "cli": 1}
VERBS = ("convert", "cr", "smaller", "compare", "torus", "lift", "seams", "negate", "ek", "cm", "verify-paper")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "unit_s": "s",
}

# name -> (span, stat); stat is calls, self_s, or an outcome name
LAYER_STATS = {}
for span, stats in (
    ("rationals.canonical_fraction", ("calls", "self_s")),
    ("rationals.even_expansion", ("calls", "self_s")),
    ("rationals.evaluate_terms", ("calls", "self_s")),
    ("vectors.vector_from_knot", ("calls", "self_s")),
    ("vectors.canonical_vector", ("calls", "self_s")),
    ("vectors.expand", ("self_s",)),
    ("vectors.knot_from_vector", ("self_s",)),
    ("vectors.crossing_number", ("self_s",)),
    ("parsing.smaller_knots", ("calls", "self_s", "nonempty_frac")),
    ("parsing.two_connector_decompose", ("calls", "self_s", "form_frac")),
    ("parsing.parses_with_respect_to", ("calls", "self_s", "true_frac")),
    ("parsing.find_parsings", ("calls", "self_s", "parsings")),
    ("parsing.is_strictly_greater", ("calls", "self_s")),
    ("parsing.assemble_two_connector", ("self_s",)),
    ("enumeration.knot_classes", ("self_s", "classes")),
    ("enumeration.enumerate_knots", ("self_s",)),
    ("bounds.least_odd_with_divisors", ("calls", "self_s")),
    ("bounds.nontrivial_proper_divisor_count", ("self_s",)),
    ("seams.find_seams", ("self_s",)),
    ("seams.negate_segments", ("self_s",)),
    ("seams.lift_construction", ("self_s",)),
    ("cli.main", ("self_s",)),
):
    for stat in stats:
        LAYER_STATS[f"{span}.{stat}"] = (span, stat)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_seconds(snippet: str) -> float:
    """Run a snippet in a fresh interpreter; return the time it spent after start-up."""
    code = (
        "import time\n_t0 = time.perf_counter()\n" + snippet +
        "\nprint(time.perf_counter() - _t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(ROOT),
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        fail(f"set-up child failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1])


class Sample:
    __slots__ = ("kind", "start", "seconds", "error", "items", "answered", "paced")

    def __init__(self, kind: str, start: float, seconds: float, error: Optional[str], items: int,
                 answered: bool) -> None:
        self.kind, self.start, self.seconds, self.error, self.items = kind, start, seconds, error, items
        self.answered = answered  # returned an answer, right or wrong, rather than failing
        self.paced = seconds  # scaled to nominal host speed once the run's pace is known


def run_op(op) -> Sample:
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # any exception, RecursionError included, is a failed op
        return Sample(op.kind, t0, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"[:300], op.items, False)
    seconds = time.perf_counter() - t0
    try:
        error = op.check(result)
    except Exception as exc:
        error = f"check raised {type(exc).__name__}: {exc}"[:300]
    return Sample(op.kind, t0, seconds, error, op.items, op.answered(result))


class SetupSampler:
    """Set-up time in fresh interpreters, sampled at most every SETUP_EVERY_S seconds.

    Called between the ops of a run, so the samples, and their median,
    span the same stretch of time as the ops they are reported with.
    Each sample is paced by pace samples taken just before and after it.
    """

    def __init__(self, workload: str, pacer: Pacer) -> None:
        self.snippet = workloads.SETUP_SNIPPETS[workload]
        self.pacer = pacer
        self.raw: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.last = -math.inf

    def __call__(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.pacer(force=True)
            t0 = time.perf_counter()
            self.raw.append(child_seconds(self.snippet))
            self.spans.append((t0, time.perf_counter()))
            self.pacer(force=True)
            self.last = time.perf_counter()

    def fill(self) -> list[float]:
        """At least SETUP_MIN samples, each paced once the run's pace is known."""
        while len(self.raw) < SETUP_MIN:
            self(force=True)
        return self.samples()

    def samples(self) -> list[float]:
        return [s * self.pacer.paced(t0, t1) / (t1 - t0) for s, (t0, t1) in zip(self.raw, self.spans)]


def run_units(units, seconds: Optional[float] = None, count: Optional[int] = None,
              between=lambda: None, pacer: Optional[Pacer] = None) -> list[list[Sample]]:
    """Run whole units: ``count`` of them, or as many as fit in ``seconds`` (at least one).

    ``between`` is called after every op, outside the op's timing.  With
    a ``pacer``, pace is sampled before the first op, through the run and
    after the last op, and every sample's ``paced`` time is set.
    """
    done: list[list[Sample]] = []
    start = time.perf_counter()
    if pacer:
        pacer(force=True)
        pacer.start()
    for unit in units:
        t0 = time.perf_counter()
        samples = []
        for op in unit:
            if pacer:
                pacer.inside = True
            samples.append(run_op(op))
            if pacer:
                pacer.inside = False
                pacer()
            between()
        done.append(samples)
        took = time.perf_counter() - t0
        if count is not None:
            if len(done) >= count:
                break
        elif time.perf_counter() - start + 0.5 * took >= seconds:
            break
    if pacer:
        pacer.stop()
        pacer(force=True)
        for s in (s for unit in done for s in unit):
            s.paced = pacer.paced(s.start, s.start + s.seconds)
    return done


def ranked_item_ms(samples: list[Sample]) -> list[float]:
    """Each op's paced latency per item, sorted; a failed op ranks above every successful one."""
    per_item = [1000 * s.paced / s.items for s in samples]
    ok = sorted(ms for ms, s in zip(per_item, samples) if s.error is None)
    return ok + [max(per_item)] * (len(samples) - len(ok))


def end_to_end(units: list[list[Sample]], setup: list[float], peak_rss_kib: int) -> dict:
    samples = [s for unit in units for s in unit]
    ranked = ranked_item_ms(samples)
    busy = sum(s.paced for s in samples)
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_rss_kib / 1024,
        "items_per_s": sum(s.items for s in samples if s.error is None) / busy,
        "item_p50_ms": percentile(ranked, 50),
        "item_p90_ms": percentile(ranked, 90),
        "unit_s": statistics.median(sum(s.paced for s in unit) for unit in units),
    }


def units_for(workload: str, seed: int, runner: list[str]):
    if workload == "catalog":
        return workloads.catalog_units(seed)
    if workload == "queries":
        return workloads.query_units(seed)
    return workloads.cli_units(seed, ROOT, runner)


def probe_for(workload: str, seed: int) -> list:
    if workload == "queries":
        return workloads.long_torus_probe(seed)
    if workload == "cli":
        return workloads.cli_probe(ROOT, [sys.executable, "-m", "twobridge"])
    return []


def w2_speedup() -> dict:
    """knot_classes(19) wall time at 1 worker over that at 2 (never more than nproc)."""
    import twobridge

    workers = max(1, min(2, os.cpu_count() or 1))
    times: dict[int, list[float]] = {1: [], workers: []}
    for order in ((1, workers), (workers, 1)):
        for w in order:
            t0 = time.perf_counter()
            twobridge.knot_classes(W2_N, workers=w)
            times[w].append(time.perf_counter() - t0)
    return {"workers": workers, "n": W2_N, "speedup": statistics.median(times[1]) / statistics.median(times[workers])}


def traced_run(workload: str, seed: int) -> tuple[dict, dict, list[list[Sample]]]:
    """Fixed units untraced, then the same units traced; per-layer metrics and overhead."""
    count = TRACE_UNITS[workload]
    plain = run_units(units_for(workload, seed, [sys.executable, "-m", "twobridge"]), count=count)
    tracer = Tracer()
    span_dir = BENCH / "out" / f"spans-{workload}-{seed}"
    if workload == "cli":
        span_dir.mkdir(parents=True, exist_ok=True)
        for stale in span_dir.glob("*.json"):
            stale.unlink()
        traced = run_units(units_for(workload, seed, [sys.executable, str(BENCH / "cli_child.py"), str(span_dir)]), count=count)
        for path in sorted(span_dir.glob("*.json")):
            tracer.merge(json.loads(path.read_text()))
            path.unlink()
        span_dir.rmdir()
    else:
        tracer.install()
        try:
            traced = run_units(units_for(workload, seed, []), count=count)
        finally:
            tracer.uninstall()
    totals = tracer.totals()
    layer: dict[str, float] = {}
    for name, (span, stat) in LAYER_STATS.items():
        calls, _, self_s, outcome = totals.get(span, [0, 0.0, 0.0, 0])
        if stat == "calls":
            layer[name] = calls
        elif stat == "self_s":
            layer[name] = self_s
        elif stat.endswith("_frac"):
            layer[name] = outcome / calls if calls else 0.0
        else:
            layer[name] = outcome
    layer["vectors.SEvenVector.constructed"] = totals.get("vectors.SEvenVector.__post_init__", [0])[0]
    busy_plain = sum(s.seconds for u in plain for s in u)
    busy_traced = sum(s.seconds for u in traced for s in u)
    layer["trace.overhead_frac"] = busy_traced / busy_plain - 1
    w2 = w2_speedup()
    layer["enumeration.knot_classes.w2_speedup"] = w2["speedup"]
    layer["cli.import_s"] = statistics.median(
        child_seconds("import twobridge.cli") for _ in range(IMPORT_REPEATS)
    )
    for verb in VERBS:
        times = [1000 * s.seconds for u in traced for s in u if workload == "cli" and s.kind == verb]
        layer[f"cli.{verb}.p50_ms"] = statistics.median(times) if times else 0.0
    extra = {
        "w2": w2,
        "overhead": {"untraced_busy_s": busy_plain, "traced_busy_s": busy_traced},
        "edges": tracer.edge_list(),
    }
    return layer, extra, plain + traced


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in ("self_s", "import_s"):
        return "s"
    if stat == "p50_ms":
        return "ms"
    if stat.endswith("_frac") or stat == "w2_speedup":
        return "ratio"
    return "count"


def git_commit() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "queries", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.trace:
        # One CPU for this process and its children, so that pace samples
        # and the work they scale, in this process or in a child, run on
        # the same CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "twobridge" / "__init__.py").is_file():
        fail(f"no twobridge package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import twobridge

    if Path(twobridge.__file__).resolve().parent != (SRC / "twobridge").resolve():
        fail(f"imported twobridge from {twobridge.__file__}, not from {SRC}")

    wall0 = time.perf_counter()
    exec(workloads.SETUP_SNIPPETS[args.workload], {})  # warm this process and the bytecode cache
    pacer = Pacer()
    workloads.child_hook = lambda proc: setattr(pacer, "child", proc)
    setup = SetupSampler(args.workload, pacer)

    errors: list[str] = []
    extra: dict = {}
    if args.trace:
        setup.fill()
        layer, extra, units = traced_run(args.workload, args.seed)
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layer.items()}
    else:
        units = run_units(units_for(args.workload, args.seed, [sys.executable, "-m", "twobridge"]),
                          seconds=args.seconds, between=setup, pacer=pacer)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        e2e = end_to_end(units, setup.fill(), resource.getrusage(who).ru_maxrss)
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}

    if args.workload == "catalog":
        errors += workloads.catalog_final_checks()
    probe = [run_op(op) for op in probe_for(args.workload, args.seed)]
    samples = [s for unit in units for s in unit]
    failed = [s for s in samples if s.error is not None]
    # A probe that still fails is the known defect; a probe that answers must answer right.
    wrong_probe = [s for s in probe if s.error is not None and s.answered]
    if args.trace:
        metrics["probe.long_torus_failed"] = {"value": sum(s.error is not None for s in probe), "unit": "count"}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "wall_s": time.perf_counter() - wall0,
        "units": len(units),
        "ops": len(samples),
        "ops_failed": len(failed),
        "failures": [f"{s.kind}: {s.error}" for s in failed[:20]],
        "final_check_errors": errors,
        "probe": [{"kind": s.kind, "ms": 1000 * s.seconds, "error": s.error} for s in probe],
        "setup_samples_s": setup.samples(),
        "setup_raw_s": setup.raw,
        "pace_samples_s": pacer.seconds,
        "op_samples": [[[x.kind, x.seconds, x.paced, x.items, x.error is None] for x in unit] for unit in units],
        "metrics": metrics,
        **extra,
    }
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  units {len(units)}  "
          f"ops {len(samples)}  failed {len(failed)}  python {record['python']}  cpus {record['cpu_count']}")
    for message in record["failures"] + errors:
        print(f"  FAILED {message}")
    for s in probe:
        print(f"  probe {s.kind}: {'ok' if s.error is None else s.error}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    correct = not failed and not errors and not wrong_probe
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failed) + len(errors), "metrics": metrics}))


if __name__ == "__main__":
    main()
