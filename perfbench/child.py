"""Run one benchmark op in this fresh interpreter and write its result.

Usage: python3 child.py '<json spec>'

The spec names the program's source directory, the op kind, its argv (CLI
ops) or input file (oracle ops), whether to trace, and where to write the
result JSON.  A crash leaves no result file, which the parent counts as a
failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter


def _peak_rss_mb() -> float:
    """This process's own peak RSS.  getrusage, and wait4 in the parent,
    report the larger of it and the parent's peak at fork, which exec keeps;
    VmHWM belongs to this address space alone."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    start = perf_counter()
    from mcd_forge import cli
    result = {"import_s": perf_counter() - start}
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["kind"] == "oracle":
        from mcd_forge import bundle, verify

        b = bundle.read_bundle(spec["file"])
        d1, d2 = b.design_objects()
        start = perf_counter()
        slices = verify.check_mcd_by_slices(d1, d2, b.s)
        collapsed = verify.check_mcd(d1, d2, b.s)
        result["op_s"] = perf_counter() - start
        result.update(rc=0, oracle=slices.passed, check_mcd=collapsed.passed)
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = perf_counter()
            rc = cli.main(spec["argv"])
            result["op_s"] = perf_counter() - start
        result.update(rc=rc, stdout=out.getvalue())
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer:
        result["stats"] = tracer.stats
        result["spans"] = tracer.spans
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
