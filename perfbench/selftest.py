"""Self-test of the benchmark harness (it tests the benchmark, not mcd-forge).

    python3 perfbench/selftest.py

A wrong expected digest, a tampered file that the program wrongly passes and
a timed-out op must each count as a failed op; a smoke variant built from
cheap ops of the three workloads must pass, traced and untraced, in seconds;
a checkout without the program must make run.py exit non-zero without a
result.  Everything is written under .perfbench/selftest/.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest
from time import perf_counter

import run
import workloads as wl

SCRATCH = run.OUT_ROOT / "selftest"

_BY_ID = {op.id: op for w in wl.WORKLOADS.values()
          for op in w.fixtures + w.ops}

SMOKE = wl.Workload(
    name="smoke",
    why="cheap ops of every kind",
    fixtures=(_BY_ID["fx-n256"],),
    tampers=(wl.Tamper("move", "n256.json", "n256_move.json"),),
    ops=(
        _BY_ID["cl-anti8"],
        _BY_ID["cl-verify-anti8"],
        _BY_ID["vs-move"],
        _BY_ID["vs-oracle-move"],
        wl.Op("smoke-catalog", "catalog",
              ("catalog", "--s", "4", "--u-max", "3", "--materialize"),
              rows=19, failures=0),
    ),
    pass_s=1.0,
)

#: a stand-in program whose verify passes every file
FAKE_CLI = '''
import json
def main(argv=None):
    print(json.dumps({"passed": True, "checks": [
        {"name": "pair-balance", "subject": [], "passed": True, "detail": ""}]}))
    return 0
'''


def _runner(name: str, **kwargs) -> run.Runner:
    return run.Runner(SMOKE, seed=3, trace=False,
                      directory=SCRATCH / name, **kwargs)


class HarnessTest(unittest.TestCase):

    def test_smoke_untraced_and_traced(self):
        start = perf_counter()
        for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result, details = run.run_workload(SMOKE, 5, 1, trace)
            failures = [o for o in details["ops"] if not o["ok"]]
            self.assertEqual(failures, [])
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), set(names))
            for metric in result["metrics"].values():
                self.assertIsInstance(metric["value"], (int, float))
        self.assertLess(perf_counter() - start, 60)

    def test_wrong_expected_digest_fails(self):
        expected = json.loads((run.BENCH_DIR / "expected.json").read_text())
        expected["cl-anti8"]["d1"] = "0" * 64
        rec = _runner("digest", expected=expected).run_op(
            _BY_ID["cl-anti8"], 0, False)
        self.assertFalse(rec.ok)
        self.assertIn("mismatch: d1", rec.reason)

    def test_program_passing_a_tampered_file_fails(self):
        fake = SCRATCH / "fake_src"
        (fake / "mcd_forge").mkdir(parents=True, exist_ok=True)
        (fake / "mcd_forge" / "__init__.py").write_text("")
        (fake / "mcd_forge" / "cli.py").write_text(FAKE_CLI)
        runner = _runner("tampered")
        self.assertEqual(runner.prepare(), set())
        runner.src = fake
        rec = runner.run_op(_BY_ID["vs-move"], 0, False)
        self.assertFalse(rec.ok)
        self.assertIn("expected 1 (FAIL)", rec.reason)

    def test_timed_out_op_fails_and_is_reaped(self):
        slow = dataclasses.replace(_BY_ID["cl-anti8"], timeout_s=0.05)
        rec = _runner("timeout").run_op(slow, 0, False)
        self.assertFalse(rec.ok)
        self.assertTrue(rec.reason.startswith("timeout"))
        with self.assertRaises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_checkout_without_program_gives_no_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")

    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(wl.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_tail_leaves_ten_samples_above(self):
        self.assertEqual(run.tail([float(v) for v in range(1, 21)]),
                         (10.0, 50.0, 20))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))


if __name__ == "__main__":
    unittest.main()
