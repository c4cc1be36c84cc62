"""Rewrite expected.json from the program as it is now.

    python3 perfbench/regen_expected.py

Only for a change that is meant to alter written designs.  Records, per
construct op, the digests the benchmark checks: D1, the collapsed design
floor(D2/s) and the provenance (all seed-invariant), plus the whole file for
ops built with the ``identity`` seed.
"""

from __future__ import annotations

import json

import workloads as wl
from run import BENCH_DIR, OUT_ROOT, Runner, design_facts

KEYS = ("d1", "collapsed", "provenance", "n", "m", "k")


def main() -> None:
    expected = {}
    for workload in wl.WORKLOADS.values():
        runner = Runner(workload, seed=1, trace=False, expected={},
                        directory=OUT_ROOT / "regen" / workload.name)
        for op in workload.fixtures + workload.ops:
            if op.kind != "construct":
                continue
            rec = runner.run_op(op, 0, False)
            if rec.reason != "no expected digests recorded":
                raise SystemExit(f"{op.id}: {rec.reason}")
            facts = design_facts(runner.files / op.file)
            keys = KEYS + (("file",) if wl.IDENTITY in op.argv else ())
            expected[op.id] = {key: facts[key] for key in keys}
    (BENCH_DIR / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
