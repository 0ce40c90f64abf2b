"""Summarize sets of bench/run.py records: per workload and metric, the median and quartile spread.

Usage, from the root of a checkout, after runs of bench/run.py:

    python3 bench/summarize.py [DIR ...] [--write FILE]

Each DIR (default ``bench/out``) holds the records of one set of runs.
For each set, prints one line per (workload, metric) with the median
over runs and the spread (third minus first quartile, as a share of the
median).  With two or more sets it also prints each later set's
median as a change from the first set's.  ``--write`` stores the summaries,
with the run records' environment, as JSON keyed by set name.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
RECORD_KEYS = ("commit", "cpu_count", "python", "platform", "seconds")


def stats(values: list[float], unit: str) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "unit": unit,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def summarize(runs: list[dict]) -> dict:
    summary = {
        "seeds": [r["seed"] for r in runs],
        "ops": [r["ops"] for r in runs],
        "ops_failed": [r["ops_failed"] for r in runs],
        "probe_failures": [sum(p["error"] is not None for p in r["probe"]) for r in runs],
        "record": {key: runs[0][key] for key in RECORD_KEYS},
        "metrics": {
            name: stats([r["metrics"][name]["value"] for r in runs], first["unit"])
            for name, first in runs[0]["metrics"].items()
        },
    }
    return summary


def summarize_dir(directory: Path) -> dict:
    groups: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        run = json.loads(path.read_text())
        groups.setdefault(f"{run['workload']}/trace{run['trace']}", []).append(run)
    return {key: summarize(runs) for key, runs in sorted(groups.items())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="*", type=Path, default=[OUT])
    parser.add_argument("--write", metavar="FILE")
    args = parser.parse_args()
    sets = {directory.name: summarize_dir(directory) for directory in args.dirs}
    first = next(iter(sets.values()))
    for set_name, summary in sets.items():
        print(f"== {set_name}")
        for key, s in summary.items():
            print(f"{key}: {len(s['seeds'])} runs, seeds {s['seeds']}, failed ops {sum(s['ops_failed'])}")
            for name, m in s["metrics"].items():
                shift = ""
                base = first.get(key, {}).get("metrics", {}).get(name)
                if summary is not first and base and base["median"]:
                    shift = f"  vs first set {m['median'] / base['median'] - 1:+.3f}"
                print(f"  {name:48s} {m['median']:>12.6g} {m['unit']:6s} spread {m['spread']:.3f}{shift}")
    if args.write:
        Path(args.write).write_text(json.dumps(sets, indent=1) + "\n")


if __name__ == "__main__":
    main()
