"""Spans around the package's public functions, installed from outside.

``Tracer.install`` rebinds every public function of the seven modules
wherever its name is bound in a ``twobridge.*`` namespace (so
``smaller_knots`` is caught as :mod:`twobridge.enumeration` imported it,
and recursive calls through module globals are caught too), and wraps
``SEvenVector.__post_init__``.  Each finished span is folded into an
edge record keyed by (parent span name, span name): calls, total time,
self time (duration minus the time its child spans cover) and an
outcome tally.  A pass over n = 16..19 makes millions of spans, so they
are aggregated per edge as they close rather than stored one by one.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("rationals", "vectors", "parsing", "enumeration", "bounds", "seams", "cli")

# Outcome tallies: summed over calls, divided by calls for *_frac metrics.
OUTCOMES = {
    "parsing.smaller_knots": ("nonempty", lambda r: 1 if r else 0),
    "parsing.two_connector_decompose": ("form", lambda r: 0 if r is None else 1),
    "parsing.parses_with_respect_to": ("true", lambda r: 1 if r else 0),
    "parsing.find_parsings": ("parsings", len),
    "enumeration.knot_classes": ("classes", len),
}

POST_INIT = "vectors.SEvenVector.__post_init__"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, child_time]
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, total, self, outcome]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, edges = self.stack, self.edges
        outcome = OUTCOMES.get(name, (None, None))[1]

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                rec = edges.get((parent and parent[0], name))
                if rec is None:
                    rec = edges[(parent and parent[0], name)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if outcome is not None and result is not None:
                    rec[3] += outcome(result)

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self) -> None:
        """Wrap the public functions of every module of the package."""
        targets = {}
        for short in MODULES:
            mod = importlib.import_module(f"twobridge.{short}")
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "twobridge" or modname.startswith("twobridge.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        sev = importlib.import_module("twobridge.vectors").SEvenVector
        self._undo.append((sev, "__post_init__", sev.__dict__["__post_init__"]))
        sev.__post_init__ = self._wrap(POST_INIT, sev.__dict__["__post_init__"])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def merge(self, edges: list[dict]) -> None:
        """Add edges written by ``edge_list`` in another process."""
        for edge in edges:
            rec = self.edges.setdefault((edge["parent"], edge["name"]), [0, 0.0, 0.0, 0])
            for i, key in enumerate(("calls", "total_s", "self_s", "outcome")):
                rec[i] += edge[key]

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, total_s, self_s, outcome], summed over parents."""
        out: dict[str, list] = {}
        for (_, name), rec in self.edges.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += rec[i]
        return out

    def edge_list(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": r[0], "total_s": r[1], "self_s": r[2], "outcome": r[3]}
            for (parent, name), r in sorted(self.edges.items(), key=lambda kv: -kv[1][2])
        ]
