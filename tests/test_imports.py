"""No op loads a numpy submodule it does not use, and no plain CLI run
loads argparse.

Each op runs in a fresh interpreter, as a user's run does, and the test
compares the child's ``sys.modules`` before and after the op.  On numpy
>= 2.3 the first ``np.unique(a)`` in a process imports ``numpy.ma``
(11-15 ms), and a seeded level expansion imports ``numpy.random`` for its
PCG64 streams (about 12 ms).  On older numpy, ``import numpy`` loads both,
so nothing is new after any op and the test checks nothing there.
argparse, with the ``gettext`` and ``locale`` imports of its first message
lookup, is built only for help, unusual argv forms and usage errors.
Only ``mcd_forge.cli`` freezes the collector's heap: a library module
imported into a host process leaves the host's objects collectable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcd_forge.bundle import read_bundle, write_bundle
from mcd_forge.cli import EXIT_OK, EXIT_VERIFY_FAILED, main

SRC = Path(__file__).resolve().parent.parent / "src"

#: the child: imports the package, then runs one op, a CLI argv or
#: ["oracle", path], and prints its exit code and the modules it loaded
CHILD = """
import contextlib, io, json, sys
from mcd_forge import bundle, cli, verify
op = json.loads(sys.argv[1])
before = set(sys.modules)
if op[0] == "oracle":
    b = bundle.read_bundle(op[1])
    d1, d2 = b.design_objects()
    reports = (verify.check_mcd_by_slices(d1, d2, b.s),
               verify.check_mcd(d1, d2, b.s))
    rc = 0 if all(r.passed for r in reports) else 1
else:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(op)
print(json.dumps([rc, sorted(set(sys.modules) - before)]))
"""

THEOREM1 = ("construct", "--method", "theorem1", "--s", "3", "--u", "3",
            "--u1", "2")


def _run_child(script, argv):
    """What the child ``script`` prints for ``argv``, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _new_numpy_modules(argv):
    """(exit code, the numpy modules first loaded during the op)."""
    rc, new = _run_child(CHILD, argv)
    return rc, [m for m in new if m.startswith("numpy.")]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    paths = {"json": str(tmp / "t.json"), "csv": str(tmp / "t.csv"),
             "am": str(tmp / "am.json"), "tampered": str(tmp / "bad.json"),
             "ii": str(tmp / "ii.json"), "out": str(tmp / "out")}
    for name in ("json", "csv"):
        assert main([*THEOREM1, "--seed", "identity",
                     "--out", paths[name]]) == EXIT_OK
    assert main(["construct", "--method", "anti-mirror", "--u", "4",
                 "--u1", "2", "--out", paths["am"]]) == EXIT_OK
    assert main(["construct", "--method", "theorem1", "--s", "2", "--u", "4",
                 "--u1", "2", "--item", "ii", "--out", paths["ii"]]) == EXIT_OK
    b = read_bundle(paths["json"])
    b.d1[0, 0] = (b.d1[0, 0] + 1) % b.s
    write_bundle(paths["tampered"], b)
    return paths


OPS = {
    "verify-json": (("verify", "--in", "{json}", "--json"), EXIT_OK),
    "verify-csv": (("verify", "--in", "{csv}", "--json"), EXIT_OK),
    "strength-3": (("verify", "--in", "{ii}", "--strength", "3"),
                   EXIT_OK),
    "stratify": (("verify", "--in", "{am}", "--stratify", "2x2x2"),
                 EXIT_OK),
    "tampered": (("verify", "--in", "{tampered}"), EXIT_VERIFY_FAILED),
    "oracle": (("oracle", "{json}"), EXIT_OK),
    "construct-json": ((*THEOREM1, "--seed", "identity", "--out",
                        "{out}.json"), EXIT_OK),
    "construct-csv": ((*THEOREM1, "--seed", "identity", "--out",
                       "{out}.csv"), EXIT_OK),
    "construct-theorem2": (("construct", "--method", "theorem2", "--s", "3",
                            "--u", "4", "--u1", "2", "--v", "2", "--seed",
                            "identity", "--out", "{out}-t2.json"), EXIT_OK),
    "construct-anti-mirror": (("construct", "--method", "anti-mirror", "--u",
                               "5", "--u1", "2", "--seed", "identity",
                               "--out", "{out}-am.csv"), EXIT_OK),
    "construct-general": (("construct", "--method", "general", "--s", "3",
                           "--z", "1,2,0", "--x", "1,2,0", "--x", "1,0,1",
                           "--generator", "0=0,0,1|1,1,0", "--seed",
                           "identity", "--out", "{out}-g.json"), EXIT_OK),
    "catalog": (("catalog", "--s", "3", "--u-max", "3", "--materialize"),
                EXIT_OK),
}


def _argv(template, files):
    return [arg.format_map(files) for arg in template]


@pytest.mark.parametrize("op", sorted(OPS))
def test_op_loads_no_numpy_submodule(op, files):
    # the by-slices oracle listed each D1 column's levels with np.unique,
    # whose first call imported numpy.ma: 85-90 % of a cold oracle op
    template, code = OPS[op]
    rc, new = _new_numpy_modules(_argv(template, files))
    assert rc == code
    assert new == [], op


def test_a_seeded_construct_loads_only_numpy_random(files):
    rc, new = _new_numpy_modules(
        [*THEOREM1, "--seed", "7", "--out", files["out"] + ".json"])
    assert rc == EXIT_OK
    assert all(m == "numpy.random" or m.startswith("numpy.random.")
               for m in new), new


#: the child: runs one CLI argv and prints its exit code and which of
#: argparse, gettext and locale it loaded, the package's import included;
#: what numpy's own import loads is not the package's to save
PARSER_CHILD = """
import sys, numpy
before = set(sys.modules)
import contextlib, io, json
from mcd_forge import cli
op = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(op)
print(json.dumps([rc, sorted({"argparse", "gettext", "locale"}
                             & (set(sys.modules) - before))]))
"""


@pytest.mark.parametrize("op", ["verify-json", "strength-3", "stratify",
                                "tampered", "construct-json", "catalog"])
def test_a_plain_op_loads_no_argparse(op, files):
    # building the argparse tree, and the locale import of its first
    # gettext lookup, took 2.3-2.8 ms of a 4.4-5.5 ms small verify
    template, code = OPS[op]
    assert _run_child(PARSER_CHILD, _argv(template, files)) == [code, []]


#: the child: imports one module in a fresh interpreter and prints how many
#: objects the collector has frozen
FREEZE_CHILD = """
import gc, importlib, json, sys
importlib.import_module(json.loads(sys.argv[1]))
print(gc.get_freeze_count())
"""


def test_the_cli_freezes_its_import_time_heap():
    # the objects loaded with the CLI live until the process ends; frozen,
    # shutdown's collection skipped them: 23.8 -> 7.6 ms per process
    assert _run_child(FREEZE_CHILD, "mcd_forge.cli") > 0


@pytest.mark.parametrize("module", [
    "mcd_forge", *(f"mcd_forge.{name}" for name in (
        "bundle", "verify", "construct", "catalog", "designs", "linalg",
        "gf", "nstar", "errors"))])
def test_a_library_import_leaves_the_collector_as_it_found_it(module):
    # a library imported late in a host process must not freeze the host's
    # objects for good
    assert _run_child(FREEZE_CHILD, module) == 0
