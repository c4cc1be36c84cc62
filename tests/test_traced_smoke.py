"""The benchmark's traced run still sees every layer it reports.

``perfbench/child.py`` runs one CLI op with ``perfbench/tracing.py``
rebinding the traced names; a rename or a bypassed layer would leave a
layer at zero calls and the benchmark reading nothing for it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LAYERS = {
    "construct": ("construct.full_verification",),
    "verify": ("verify.check_mcd", "verify.check_noncascading",
               "verify.check_oa_strength", "verify.check_grid_stratification"),
}


def _traced_op(tmp_path, name, argv):
    result = tmp_path / f"{name}.result.json"
    spec = {"src": str(ROOT / "src"), "kind": name, "argv": argv,
            "trace": True, "result": str(result)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         json.dumps(spec)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_traced_construct_and_verify_reach_every_layer(tmp_path):
    design = str(tmp_path / "am.json")
    ops = {
        "construct": ["construct", "--method", "anti-mirror", "--u", "4",
                      "--u1", "2", "--out", design],
        "verify": ["verify", "--in", design, "--strength", "2",
                   "--stratify", "2x2"],
    }
    for name, argv in ops.items():
        res = _traced_op(tmp_path, name, argv)
        assert res["rc"] == 0, res["stdout"]
        for layer in LAYERS[name]:
            assert res["stats"][layer]["calls"] > 0, (name, layer)
