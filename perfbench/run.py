"""mcd-forge benchmark: drive the CLI the way a user does and check every output.

    python3 perfbench/run.py --workload construct-large --seed 1 --seconds 26 --trace 0

A closed loop with one client: one op at a time, each in a fresh interpreter
(``child.py``), which reports its own peak RSS.  The workload seed makes the
inputs; the program receives only argv and files.  Whole passes over the
workload's fixed op list are run, as many as ``--seconds`` holds at the
reference pass time, so every run of a workload measures the same ops.
With ``--trace 1`` passes alternate untraced and traced, and the per-layer
numbers come from the traced ones.

The last stdout line is the result JSON (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it holds the details: every metric
per op kind, tail percentiles with their sample counts, input sizes and
failure reasons.  ``--workload all`` runs every workload and prints a table.
Spans and details are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench"

#: a run stops starting ops after this many seconds and counts the rest failed
RUN_BUDGET_S = 165.0
SETUP_REPEATS = 7
#: median ``calibrate()`` time within a run on the reference machine
CAL_REF_S = 0.026
KINDS = ("construct", "verify", "catalog", "oracle")

#: end-to-end metrics of every workload: name -> unit.  Medians and tails
#: of op times are in the details: with 3 to 6 samples of each op per run
#: they pick single samples and spread too much between runs to gate on.
END_TO_END = {"wall_s": "s", "op_ms_geomean": "ms", "peak_rss_mb": "MB",
              "setup_s": "s"}

#: per-layer metrics every workload reports (traced run): name -> unit.
#: Self times of layers that only some workloads reach are in the details.
PER_LAYER = {
    "cli.main.self_s": "s", "cli.import_s": "s",
    "verify.check_mcd.self_s": "s", "verify.check_oa_strength.self_s": "s",
    "verify.check_noncascading.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_ratio": "1",
    "gf.galois_field.calls": "count",
    "linalg.generate_linear_array.calls": "count",
    "linalg.generate_linear_array.cells": "count",
    "linalg.is_proportional.calls": "count", "linalg.dot.calls": "count",
    "linalg.rank.calls": "count",
    "designs.expand_levels.calls": "count",
    "designs.expand_levels.cells": "count",
    "construct.max_independent_prefixes.calls": "count",
    "construct.max_independent_prefixes.rank_calls": "count",
    "verify.check_oa_strength.calls": "count",
    "verify.check_oa_strength.subsets": "count",
    "verify.check_noncascading.pairs": "count",
    "verify.check_grid_stratification.calls": "count",
    "verify.check_mcd_by_slices.calls": "count",
    "bundle.write_bundle.bytes": "count", "bundle.read_bundle.bytes": "count",
    "catalog.verify_row.calls": "count",
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MCD_FORGE_SEED"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def calibrate() -> float:
    """Seconds for a fixed mix of the work the program does: interpreter
    loops, dict building, numpy counting and JSON encoding.

    The reference VM changes speed by up to a quarter within a minute, for
    every process alike.  Times are reported at the reference machine's
    speed: raw time x CAL_REF_S / (median calibration of the run).  One
    calibration runs before every op, while no child is running, on the CPU
    the op will run on (see ``main``)."""
    import numpy as np

    start = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    table = {i: str(i) for i in range(20_000)}
    levels = np.arange(20_000) % 97
    for _ in range(100):
        np.bincount(levels)
    json.dumps([total, len(table), *range(30_000)])
    return perf_counter() - start


@dataclass
class Spawned:
    exit_code: int | None
    wall_s: float
    timed_out: bool


def spawn(argv: list[str], timeout_s: float, log: Path, env) -> Spawned:
    """Run one child to completion or kill it at ``timeout_s``; either way it
    is reaped before this returns."""
    killed = threading.Event()
    reaped = threading.Lock()
    with log.open("wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env)

    def kill():
        with reaped:
            if proc.returncode is None:
                os.kill(proc.pid, signal.SIGKILL)
                killed.set()

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = perf_counter() - start
        with reaped:
            _, status = os.waitpid(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return Spawned(None if killed.is_set() else proc.returncode, wall,
                   killed.is_set())


@dataclass
class OpRun:
    op: str
    kind: str
    pass_index: int
    traced: bool
    ok: bool
    reason: str = ""
    wall_s: float | None = None
    op_s: float | None = None
    import_s: float | None = None
    rss_mb: float | None = None
    size: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _digest(arr) -> str:
    import numpy as np

    a = np.ascontiguousarray(arr, dtype="<i8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def design_facts(path: Path) -> dict:
    """Digests and sizes of a written design (JSON, or CSV + sidecar)."""
    import numpy as np

    files = [path]
    if path.suffix == ".csv":
        files.append(path.with_suffix(".meta.json"))
        meta = json.loads(files[1].read_text())
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        m = sum(1 for h in rows[0] if h.startswith("q"))
        data = np.array(rows[1:], dtype=np.int64)
        d1, d2 = data[:, :m], data[:, m:]
    else:
        meta = json.loads(path.read_text())
        d1, d2 = np.array(meta["d1"]), np.array(meta["d2"])
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.read_bytes())
    n, m, k = d1.shape[0], d1.shape[1], d2.shape[1]
    return {
        "d1": _digest(d1), "collapsed": _digest(d2 // meta["s"]),
        "provenance": hashlib.sha256(json.dumps(
            meta["provenance"], sort_keys=True).encode()).hexdigest(),
        "file": digest.hexdigest(), "n": n, "m": m, "k": k,
    }


_MATERIALIZED = re.compile(r"materialized (\d+) rows, (\d+) failure")
_TABLE_ROW = re.compile(r"^\| \d", re.M)


class Runner:
    """One benchmark run: a workload, its seed, a scratch directory."""

    def __init__(self, workload: wl.Workload, seed: int, trace: bool,
                 src: Path = SRC, expected: dict | None = None,
                 directory: Path | None = None):
        self.workload = workload
        self.trace = trace
        self.src = src
        self.rng = random.Random(seed)
        self.seeds = wl.draw_seeds(workload, self.rng)
        self.expected = expected if expected is not None else json.loads(
            (BENCH_DIR / "expected.json").read_text())
        self.dir = directory or OUT_ROOT / f"{workload.name}-trace{int(trace)}"
        self.files = self.dir / "designs"
        self.env = child_env()
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.runs: list[OpRun] = []
        self.calibrations: list[float] = []
        self.first_file: dict[str, str] = {}
        self.sizes: dict[str, dict] = {}
        shutil.rmtree(self.dir, ignore_errors=True)
        self.files.mkdir(parents=True)

    # -- one op --------------------------------------------------------------

    def run_op(self, op: wl.Op, pass_index: int, traced: bool) -> OpRun:
        rec = OpRun(op.id, op.kind, pass_index, traced, ok=False)
        self.runs.append(rec)
        timeout = min(op.timeout_s, self.deadline - perf_counter())
        if timeout <= 0:
            rec.reason = "not started: run budget spent"
            return rec
        self.calibrations.append(calibrate())
        if op.kind == "construct":
            # a failed build must not leave the previous pass's file behind
            for stale in (op.file, Path(op.file).with_suffix(".meta.json")):
                (self.files / stale).unlink(missing_ok=True)
        result_path = self.dir / "result.json"
        result_path.unlink(missing_ok=True)
        spec = {"src": str(self.src), "kind": op.kind, "trace": traced,
                "result": str(result_path),
                "argv": wl.op_argv(op, self.files, self.seeds),
                "file": str(self.files / op.file) if op.file else None}
        log = self.dir / "child.log"
        child = spawn([sys.executable, str(BENCH_DIR / "child.py"),
                       json.dumps(spec)], timeout, log, self.env)
        rec.wall_s = child.wall_s
        if child.timed_out:
            rec.reason = f"timeout after {timeout:.1f} s"
            return rec
        if not result_path.exists():
            last = log.read_text(errors="replace").strip().splitlines()[-1:]
            rec.reason = f"crash, exit {child.exit_code}: {' '.join(last)}"
            return rec
        res = json.loads(result_path.read_text())
        rec.op_s, rec.import_s = res["op_s"], res["import_s"]
        rec.rss_mb = res["peak_rss_mb"]
        rec.stats, rec.spans = res.get("stats", {}), res.get("spans", [])
        rec.reason = self.check(op, res, rec)
        rec.ok = not rec.reason
        return rec

    def check(self, op: wl.Op, res: dict, rec: OpRun) -> str:
        """Empty string when the op's output is right, else what is wrong."""
        if op.kind == "construct":
            return self._check_construct(op, res, rec)
        if op.kind == "catalog":
            rec.size = {"rows": op.rows}
            want_rc = 1 if op.failures else 0
            if res["rc"] != want_rc:
                return f"exit {res['rc']}, expected {want_rc}"
            found = _MATERIALIZED.search(res["stdout"])
            rows, failures = ((int(found[1]), int(found[2])) if found
                              else (len(_TABLE_ROW.findall(res["stdout"])), 0))
            if (rows, failures) != (op.rows, op.failures):
                return (f"{rows} rows, {failures} failures; expected "
                        f"{op.rows} and {op.failures}")
            return ""
        rec.size = self.sizes.get(op.file, {})
        if op.kind == "oracle":
            got = res["oracle"]
            if got != res["check_mcd"]:
                return f"oracle says {got}, check_mcd says {res['check_mcd']}"
            return "" if got == (op.verdict == "PASS") else (
                f"oracle verdict {got}, expected {op.verdict}")
        want_rc = 0 if op.verdict == "PASS" else 1
        if res["rc"] != want_rc:
            return f"exit {res['rc']}, expected {want_rc} ({op.verdict})"
        try:
            report = json.loads(res["stdout"])
            first = next((c["name"] for c in report["checks"]
                          if not c["passed"]), None)
        except (ValueError, KeyError, TypeError):
            return "verify --json printed no readable report"
        if first != op.first_fail:
            return f"first failing check {first!r}, expected {op.first_fail!r}"
        return ""

    def _check_construct(self, op: wl.Op, res: dict, rec: OpRun) -> str:
        if res["rc"] != 0:
            return f"exit {res['rc']}"
        try:
            facts = design_facts(self.files / op.file)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        rec.size = self.sizes[op.file] = {
            "n": facts["n"], "m": facts["m"], "k": facts["k"],
            "cells": facts["n"] * (facts["m"] + facts["k"])}
        expected = self.expected.get(op.id)
        if expected is None:
            return "no expected digests recorded"
        wrong = [key for key, value in expected.items() if facts[key] != value]
        if wrong:
            return "mismatch: " + ", ".join(wrong)
        first = self.first_file.setdefault(op.id, facts["file"])
        if first != facts["file"]:
            return "not byte-identical to the same op in the first pass"
        return ""

    # -- the run -------------------------------------------------------------

    def prepare(self) -> set[str]:
        """Make the inputs (untimed).  Returns files that could not be made."""
        broken: set[str] = set()
        for op in self.workload.fixtures:
            if not self.run_op(op, -1, False).ok:
                broken.add(op.file)
        for tamper in self.workload.tampers:
            if tamper.base in broken:
                broken.add(tamper.file)
                continue
            wl.make_tamper(tamper, self.files, self.rng)
            self.sizes[tamper.file] = self.sizes[tamper.base]
        return broken

    def measure(self, seconds: float) -> None:
        broken = self.prepare()
        for p in range(wl.pass_count(self.workload, seconds, self.trace)):
            traced = self.trace and p % 2 == 1
            for op in self.workload.ops:
                if op.kind != "construct" and op.file in broken:
                    self.runs.append(OpRun(op.id, op.kind, p, traced, False,
                                           f"input {op.file} was not made"))
                else:
                    self.run_op(op, p, traced)

    def timed(self, traced: bool) -> list[OpRun]:
        return [r for r in self.runs if r.pass_index >= 0 and r.traced == traced]

    def setup_times(self) -> list[float]:
        """Seconds from starting a fresh interpreter until ``import
        mcd_forge`` returns; the first start (which may compile bytecode) is
        dropped."""
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import mcd_forge; print(time.perf_counter())")
        times = []
        for _ in range(SETUP_REPEATS + 1):
            self.calibrations.append(calibrate())
            start = perf_counter()
            out = subprocess.run([sys.executable, "-c", code, str(self.src)],
                                 env=self.env, capture_output=True, text=True,
                                 timeout=60, check=True)
            times.append(float(out.stdout) - start)
        return times[1:]

    def speed_factor(self) -> float:
        return CAL_REF_S / statistics.median(self.calibrations)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least ten
    samples above it, or the maximum when that percentile would lie below
    the median (fewer than twenty samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def pass_wall(runs: list[OpRun]) -> float:
    """A typical pass: the sum over ops of each op's median wall time (a
    killed op counts with the time it ran)."""
    walls: dict[str, list[float]] = {}
    for r in runs:
        if r.wall_s is not None:
            walls.setdefault(r.op, []).append(r.wall_s)
    return sum(statistics.median(w) for w in walls.values())


def end_to_end(runner: Runner, setup: list[float],
               factor: float) -> tuple[dict, dict]:
    """(metrics for the result line, details); times at reference speed."""
    runs = runner.timed(False)
    done = [r for r in runs if r.op_s is not None]
    metrics = {
        "wall_s": pass_wall(runs) * factor,
        "op_ms_geomean": statistics.geometric_mean(
            r.op_s * 1000 * factor for r in done),
        "peak_rss_mb": max(r.rss_mb for r in runs if r.rss_mb is not None),
        "setup_s": statistics.median(setup) * factor,
    }
    details = {}
    for kind in ("op",) + KINDS:
        ms = [r.op_s * 1000 * factor for r in done if kind in ("op", r.kind)]
        if ms:
            value, pct, n = tail(ms)
            details[f"{kind}_ms_p50"] = {"value": statistics.median(ms),
                                         "unit": "ms", "samples": n}
            details[f"{kind}_ms_tail"] = {"value": value, "unit": "ms",
                                          "percentile": pct, "samples": n}
    return metrics, details


def per_layer(runner: Runner, factor: float) -> tuple[dict, dict]:
    """Per-pass layer totals of the traced passes, and all of them in detail;
    times at reference speed."""
    traced = runner.timed(True)
    passes = len({r.pass_index for r in traced})
    totals: dict[str, float] = {}
    for r in traced:
        for name, stats in r.stats.items():
            for key, value in stats.items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    layer = {key: value / passes * (factor if key.endswith("_s") else 1)
             for key, value in totals.items()}
    search = "construct.max_independent_prefixes"
    calls = totals[f"{search}.calls"]
    layer.pop(f"{search}.certified", None)
    layer[f"{search}.certified_ratio"] = (
        totals[f"{search}.certified"] / calls if calls else None)
    layer[f"{search}.size_over_bound"] = (
        totals[f"{search}.size_over_bound"] / calls if calls else None)
    traced_wall = pass_wall(traced)
    untraced_wall = pass_wall(runner.timed(False))
    layer.update({
        "cli.import_s": statistics.median(r.import_s for r in traced
                                          if r.import_s is not None) * factor,
        "trace.wall_s": traced_wall * factor,
        "trace.untraced_wall_s": untraced_wall * factor,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    metrics = {name: layer.get(name, 0) for name in PER_LAYER}
    return metrics, layer


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def run_workload(workload: wl.Workload, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    runner = Runner(workload, seed, trace)
    setup = runner.setup_times()
    runner.measure(seconds)
    failed = [r for r in runner.runs if not r.ok]
    if not any(r.op_s is not None for r in runner.timed(False)):
        raise SystemExit(f"error: no {workload.name} op completed: "
                         + "; ".join(sorted({r.reason for r in failed})))
    factor = runner.speed_factor()
    metrics, kinds = end_to_end(runner, setup, factor)
    details = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "passes": wl.pass_count(workload, seconds, trace),
        "environment": environment(), "speed_factor": factor,
        "calibration_s": runner.calibrations, "setup_s_samples": setup,
        "fail_ratio": len(failed) / len(runner.runs),
        "by_kind": kinds,
        "ops": [{"op": r.op, "pass": r.pass_index, "traced": r.traced,
                 "ok": r.ok, "reason": r.reason, "wall_s": r.wall_s,
                 "op_ms": None if r.op_s is None else r.op_s * 1000,
                 "rss_mb": r.rss_mb, "size": r.size} for r in runner.runs],
    }
    units = END_TO_END
    if trace:
        metrics, details["layers"] = per_layer(runner, factor)
        units = PER_LAYER
        with (runner.dir / "spans.jsonl").open("w") as fh:
            for r in runner.timed(True):
                for sid, parent, name, start, end, folded in r.spans:
                    fh.write(json.dumps({
                        "op": r.op, "pass": r.pass_index, "id": sid,
                        "parent": parent, "name": name, "start": start,
                        "end": end, "folded": folded}) + "\n")
    (runner.dir / "details.json").write_text(json.dumps(details, indent=1))
    shutil.rmtree(runner.files, ignore_errors=True)
    result = {"correct": not failed, "attempted": len(runner.runs),
              "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, details


def print_table(results: dict) -> None:
    """Every metric of every workload, by name and unit; '-' where the
    workload has no op of that kind."""
    units: dict[str, str] = {}
    columns = []
    for result, details in results.values():
        found = result["metrics"] | details["by_kind"] | {
            "fail_ratio": {"value": details["fail_ratio"], "unit": "1"}}
        for name, m in found.items():
            if "unit" in m:
                units.setdefault(name, m["unit"])
        columns.append(found)
    print(f"{'metric':<26}{'unit':<7}" + "".join(f"{w:>17}" for w in results))
    for name, unit in units.items():
        cells = [f"{c[name]['value']:.4g}" if name in c else "-"
                 for c in columns]
        print(f"{name:<26}{unit:<7}" + "".join(f"{c:>17}" for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mcd_forge" / "cli.py").is_file():
        print(f"error: no mcd_forge sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and the children, which inherit it, so each
    # calibration runs where the ops run; on the reference VM this cut the
    # run-to-run spread of verify-sweep from about 10 % to 4 %.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    chosen = (list(wl.WORKLOADS.values()) if args.workload == "all"
              else [wl.WORKLOADS[args.workload]])
    results = {w.name: run_workload(w, args.seed, args.seconds,
                                    bool(args.trace)) for w in chosen}
    if args.workload == "all":
        print_table(results)
        print(json.dumps({name: r for name, (r, _) in results.items()}))
    else:
        result, details = results[args.workload]
        print(json.dumps(details["by_kind"] | {
            "fail_ratio": details["fail_ratio"],
            "failures": [o for o in details["ops"] if not o["ok"]],
            "environment": details["environment"],
            "speed_factor": details["speed_factor"]}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
