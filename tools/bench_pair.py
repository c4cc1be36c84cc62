"""Benchmark a change against its parent commit in alternating pairs.

    python3 tools/bench_pair.py --label kernel --workloads construct-large \
        verify-sweep --seeds 73 74 75 --base HEAD

Exports ``--base`` with ``git archive`` into a temporary directory and
copies the working tree's ``src/`` and ``perfbench/`` beside it, then for
each seed and workload runs ``perfbench/run.py`` once on each copy, one
after the other, swapping which goes first from seed to seed so that a
drift in machine speed favours neither side.  Each side runs its own
``perfbench/`` and ``src/``, from a fresh directory without bytecode
caches: stale ``__pycache__`` files in the working tree, never rewritten
under ``PYTHONDONTWRITEBYTECODE``, moved the change's peak RSS by 0.3 MB.
The end-to-end metrics of every run, their medians and interquartile
ranges, the number of pairs the change wins, and how much worse the
change's median is than the base's, against the metric's bound in
``BENCHMARK.json``, are written to ``BENCH_<label>.json`` at the root of
the working tree; each metric outside its bound is also printed.  After
the timed pairs, one ``--trace 1`` run per side and workload at each of
the first ``TRACED_SEEDS`` seeds, again swapping which side goes first,
adds the per-layer metrics (self times, call and cell counts) under
``layers``, each as its median, quartiles and interquartile range.
``environment`` names the BLAS numpy was built with and the thread-count
variables the op processes ran with.

Run it with no other benchmark running: ``perfbench/run.py`` pins itself and
its children to one CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent

#: seeds with a traced run per side: one run cannot resolve a few ms
TRACED_SEEDS = 3


def export(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into ``dest``; returns the full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = dest / "base.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                       stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result and details.
    With ``trace`` the metrics are the per-layer ones."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: run in {tree} failed:\n{proc.stderr}")
    details, result = (json.loads(line)
                       for line in proc.stdout.strip().splitlines()[-2:])
    return {"metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "correct": result["correct"], "fail_ratio": details["fail_ratio"],
            "speed_factor": details["speed_factor"],
            "environment": details["environment"]}


def blas() -> dict:
    """Name and version of the BLAS this numpy was built with."""
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 only prints its configuration
        return {"name": "unknown", "version": "unknown"}
    return {"name": info.get("name"), "version": info.get("version")}


def child_threads(tree: Path) -> dict:
    """The thread-count variables ``perfbench/run.py`` in ``tree`` sets
    for the op processes it starts, from its ``child_env()``."""
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        import run
    finally:
        sys.path.pop(0)
    return {k: v for k, v in sorted(run.child_env().items())
            if k.endswith("_THREADS")}


def spread(values: list[float]) -> dict:
    """Median, quartiles and interquartile range."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per end-to-end metric: spreads, pairs won, and ``worse_by``, the
    change median over the base median minus 1, signed so that positive
    is worse, checked against the metric's ``bound`` in BENCHMARK.json."""
    summary = {}
    for name, spec in metrics.items():
        base = [r["base"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        worse_by = sign * (statistics.median(change)
                           / statistics.median(base) - 1)
        summary[name] = {"better": spec["better"], "base": spread(base),
                         "change": spread(change),
                         "change_wins": f"{wins}/{len(runs)}",
                         "worse_by": worse_by, "bound": spec["bound"],
                         "within_bound": worse_by <= spec["bound"]}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--base", default="HEAD",
                        help="commit to compare the working tree against")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs: dict[str, list] = {w: [] for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        sha = export(args.base, Path(tmp))
        trees = {"base": Path(tmp) / "tree", "change": Path(tmp) / "change"}
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, trees["change"] / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for i, seed in enumerate(args.seeds):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for workload in args.workloads:
                pair = {"seed": seed, "order": order}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed,
                                          args.seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{pair[side]['metrics']}", file=sys.stderr)
                runs[workload].append(pair)
        traced = {w: {"base": [], "change": []} for w in args.workloads}
        for i, seed in enumerate(args.seeds[:TRACED_SEEDS]):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for workload in args.workloads:
                for side in order:
                    traced[workload][side].append(run_once(
                        trees[side], workload, seed, args.seconds,
                        trace=1)["metrics"])
        layers = {w: {side: {name: spread([r[name] for r in side_runs])
                             for name in side_runs[0]}
                      for side, side_runs in sides.items()}
                  for w, sides in traced.items()}
        threads = child_threads(trees["change"])
    first = runs[args.workloads[0]][0]["change"]["environment"]
    bench = {
        "label": args.label, "seconds": args.seconds, "base": sha,
        "change": "working tree on top of the base",
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__, "nproc": os.cpu_count(),
                        "cpu": first["cpu"], "blas": blas(),
                        "child_threads": threads},
        "workloads": {w: {"summary": summarize(r, metrics), "runs": r}
                      for w, r in runs.items()},
        "layers": layers,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps({w: b["summary"] for w, b in bench["workloads"].items()},
                     indent=1))
    for w, b in bench["workloads"].items():
        for name, m in b["summary"].items():
            if not m["within_bound"]:
                print(f"outside its bound: {w} {name} is worse by "
                      f"{m['worse_by']:.1%} (bound {m['bound']:.0%})",
                      file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
