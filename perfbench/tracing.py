"""Timing wrappers around the public functions of each mcd_forge module.

``Tracer.install`` rebinds every traced name in every loaded ``mcd_forge``
module that holds it: ``from .x import y`` makes a binding per caller, and a
module calling its own function goes through its own global.  The program's
files are not touched.

Each call becomes a span (id, parent id, name, start, end).  A span's self
time is its duration minus the time of the traced calls directly under it.
The hot leaves in ``FOLDED`` are called up to 10^5 times per op (rank in the
prefix search, a grid check per column triple), so they are not kept as
spans; their calls and time are added to the parent span (``folded``) and to
the per-name totals.  Counts are read from arguments and
results at the boundary.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
from math import comb
from pathlib import Path
from time import perf_counter

#: module -> traced public names (``Class.method`` for methods)
TARGETS = {
    "gf": ("galois_field",),
    "linalg": ("generate_linear_array", "is_proportional", "dot", "rank"),
    "designs": ("expand_levels", "method_of_replacement", "collapse_levels"),
    "construct": ("max_independent_prefixes", "admissible_set",
                  "common_nonorthogonal", "general_construction",
                  "MarginallyCoupledDesign.full_verification"),
    "verify": ("check_oa_strength", "check_mcd", "check_noncascading",
               "check_grid_stratification", "check_mcd_by_slices"),
    "bundle": ("write_bundle", "read_bundle"),
    "catalog": ("all_rows", "verify_row"),
    "cli": ("main",),
}

FOLDED = frozenset({"linalg.rank", "linalg.dot", "linalg.is_proportional",
                    "verify.check_grid_stratification"})


def _lex_rank(combo, m: int) -> int:
    """Position of a sorted index tuple among all len(combo)-subsets of
    range(m) in lexicographic order."""
    t, r, prev = len(combo), 0, -1
    for i, c in enumerate(combo):
        r += sum(comb(m - 1 - v, t - 1 - i) for v in range(prev + 1, c))
        prev = c
    return r


def _scanned(report, m: int, t: int) -> int:
    """Subsets an early-exit scan visited: all of them on a pass, else up to
    and including the reported one."""
    subject = report.checks[0].subject
    return _lex_rank(subject, m) + 1 if subject else comb(m, t)


def _file_bytes(path) -> int:
    path = Path(path)
    side = path.with_suffix(".meta.json")
    return path.stat().st_size + (side.stat().st_size
                                  if path.suffix == ".csv" else 0)


def _prefix_counts(args, result, folded):
    return {"rank_calls": folded.get("linalg.rank", 0),
            "size_over_bound": result.size / result.bound,
            "certified": int(result.certified == "provably-maximal")}


#: name -> f(bound arguments, result, folded leaf calls) -> counts
COUNTERS = {
    "linalg.generate_linear_array": lambda a, r, f: {"cells": r.size},
    "designs.expand_levels": lambda a, r, f: {"cells": a["collapsed"].data.size},
    "construct.max_independent_prefixes": _prefix_counts,
    "verify.check_oa_strength": lambda a, r, f: {
        "subsets": _scanned(r, a["a"].m, a["t"])},
    "verify.check_noncascading": lambda a, r, f: {
        "pairs": _scanned(r, a["collapsed"].k, 2)},
    "bundle.write_bundle": lambda a, r, f: {"bytes": _file_bytes(r)},
    "bundle.read_bundle": lambda a, r, f: {"bytes": _file_bytes(a["path"])},
}


class Tracer:
    """Spans and per-name totals of one process, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[list] = []
        self._ids = itertools.count()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "mcd_forge" or name.startswith("mcd_forge.")]
        for layer, names in TARGETS.items():
            mod = importlib.import_module("mcd_forge." + layer)
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = getattr(owner, attr)
                wrapped = self._wrap(f"{layer}.{attr}", original)
                setattr(owner, attr, wrapped)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        stack, spans, ids = self._stack, self.spans, self._ids
        folded_leaf = name in FOLDED

        def traced(*args, **kwargs):
            frame = [0.0, None if folded_leaf else next(ids), {}]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                    if folded_leaf:
                        folded = parent[2]
                        folded[name] = folded.get(name, 0) + 1
                if not folded_leaf:
                    spans.append((frame[1], parent and parent[1], name,
                                  start, end, frame[2]))
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result,
                                          frame[2]).items():
                    stats[key] = stats.get(key, 0) + value
            return result

        return traced
