"""The benchmark's workloads: fixed op lists, their inputs and the expected results.

An op is one invocation a user would make: ``construct``, ``verify`` or
``catalog`` through the CLI, or ``oracle``, the library call
``check_mcd_by_slices`` on a read-back design (checked against ``check_mcd``).
Every op runs in a fresh interpreter, so each one pays the cold caches
(``galois_field``, the cached prefix search) a real invocation pays.

The workload seed picks each integer ``--seed`` and the tamper positions;
which ops use ``identity`` is fixed, because ``designs.expand_levels`` takes a
different path for the two and the mix must not change between runs.

Expected verdicts of verify and oracle ops come from how their input was
made (a clean design passes, a tamper breaks a known check), never from the
program.  Construct and fixture ops are checked against ``expected.json``
(see ``regen_expected.py``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

#: seed placeholders in an op's argv
INT_SEED = "{int_seed}"
IDENTITY = "identity"


@dataclass(frozen=True)
class Op:
    """One program invocation.  ``file`` is the output of a construct op and
    the input of a verify or oracle op; ``argv`` may hold ``{file}`` and
    ``{int_seed}``.  ``verdict``/``first_fail`` are the expected outcome of a
    verify or oracle op; ``rows``/``failures`` that of a catalog op."""

    id: str
    kind: str
    argv: tuple[str, ...] = ()
    file: str | None = None
    verdict: str | None = None
    first_fail: str | None = None
    rows: int | None = None
    failures: int | None = None
    timeout_s: float = 60.0


@dataclass(frozen=True)
class Tamper:
    """A corrupted copy of a fixture design; the ops reading it state the
    check it must trip."""

    id: str
    base: str
    file: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    #: seconds one pass takes on the reference machine (2-core Xeon VM, at
    #: its usual speed); sets the pass count so every run of a workload
    #: measures the same op multiset
    pass_s: float
    fixtures: tuple[Op, ...] = ()
    tampers: tuple[Tamper, ...] = ()


def _construct(op_id: str, params: str, seed: str, file: str) -> Op:
    return Op(op_id, "construct",
              ("construct", *params.split(), "--seed", seed, "--out", "{file}"),
              file=file)


def _verify(op_id: str, file: str, extra: str = "", verdict: str = "PASS",
            first_fail: str | None = None) -> Op:
    return Op(op_id, "verify", ("verify", "--in", "{file}", *extra.split(),
                                "--json"),
              file=file, verdict=verdict, first_fail=first_fail)


def _oracle(op_id: str, file: str, verdict: str) -> Op:
    return Op(op_id, "oracle", file=file, verdict=verdict)


_T1_S2 = "--method theorem1 --s 2 --u 10 --u1 2"
_T1_M144 = "--method theorem1 --s 4 --u 5 --u1 3 --item ii"
_T2_S3 = "--method theorem2 --s 3 --u 6 --u1 3 --v 3 --item ii"
_ANTI8 = "--method anti-mirror --u 8 --u1 2"
_T1_N256 = "--method theorem1 --s 4 --u 4 --u1 2"

_LARGE_BUILDS = (
    _construct("cl-t1-s2-seeded", _T1_S2, INT_SEED, "t1_s2_seeded.json"),
    _construct("cl-t1-s2-identity", _T1_S2, IDENTITY, "t1_s2_identity.csv"),
    _construct("cl-t1-m144", _T1_M144, INT_SEED, "t1_m144.csv"),
    _construct("cl-t2-s3", _T2_S3, IDENTITY, "t2_s3.json"),
    _construct("cl-anti8", _ANTI8, INT_SEED, "anti8.json"),
)

CONSTRUCT_LARGE = Workload(
    name="construct-large",
    why=("big designs built, written as JSON and CSV, then re-verified: "
         "level expansion, linear arrays, the O(k^2) pair check and bundle "
         "I/O carry the time"),
    ops=_LARGE_BUILDS + tuple(
        _verify("cl-verify-" + op.id[3:], op.file) for op in _LARGE_BUILDS),
    pass_s=10.0,
)

VERIFY_SWEEP = Workload(
    name="verify-sweep",
    why=("read and verify only, on passing and early-failing files made "
         "before timing; no construction, so the build layers stay idle"),
    fixtures=(
        _construct("fx-m144", _T1_M144, INT_SEED, "m144.csv"),
        _construct("fx-anti8", _ANTI8, INT_SEED, "anti8.json"),
        _construct("fx-t2-s3", _T2_S3, IDENTITY, "t2_s3.json"),
        _construct("fx-n256", _T1_N256, INT_SEED, "n256.json"),
    ),
    tampers=(
        # one D2 value swapped into another window: the pair count breaks
        Tamper("move", "n256.json", "n256_move.json"),
        # a D2 column copied over another: the collapsed columns cascade
        Tamper("dup", "n256.json", "n256_dup.json"),
        # a level >= s in a non-leading D1 column: strength 2 breaks
        Tamper("range", "n256.json", "n256_range.json"),
    ),
    ops=(
        _verify("vs-m144-strength2", "m144.csv", "--strength 2"),
        _verify("vs-anti8-stratify", "anti8.json", "--stratify 2x2x2"),
        # D1 is generated by admissible vectors, which hold dependent triples
        _verify("vs-t2-strength3", "t2_s3.json", "--strength 3", "FAIL",
                "oa-strength(3)"),
        _verify("vs-move", "n256_move.json", "", "FAIL", "pair-balance"),
        _verify("vs-dup", "n256_dup.json", "", "FAIL", "non-cascading"),
        _verify("vs-range", "n256_range.json", "", "FAIL", "oa-strength(2)"),
        _oracle("vs-oracle-n256", "n256.json", "PASS"),
        _oracle("vs-oracle-anti8", "anti8.json", "PASS"),
        _oracle("vs-oracle-move", "n256_move.json", "FAIL"),
        # a duplicated column is still marginally coupled
        _oracle("vs-oracle-dup", "n256_dup.json", "PASS"),
    ),
    pass_s=5.0,
)

CATALOG_SEARCH = Workload(
    name="catalog-search",
    why=("the (9,3) independent-prefix search, paid cold twice, and 108 "
         "small materialized designs: rank calls and per-call overhead, "
         "no large arrays"),
    ops=(
        # 5 theorem1 rows (u=2,3) + 28 theorem2 rows (n* = 1, 8, 10)
        Op("cs-catalog-s9", "catalog", ("catalog", "--s", "9", "--u-max", "3"),
           rows=33, failures=0),
        _construct("cs-t2-s9", "--method theorem2 --s 9 --u 3 --u1 3 --v 4",
                   INT_SEED, "t2_s9.json"),
        Op("cs-catalog-s3-materialize", "catalog",
           ("catalog", "--s", "3", "--u-max", "5", "--materialize"),
           rows=54, failures=0),
    ),
    pass_s=9.0,
)

WORKLOADS = {w.name: w for w in (CONSTRUCT_LARGE, VERIFY_SWEEP, CATALOG_SEARCH)}


def pass_count(workload: Workload, seconds: float, traced: bool) -> int:
    """Whole passes that fit in ``seconds`` at the reference pass time.

    Fixed by the arguments alone, so two commits measure the same ops; a
    traced run needs at least one untraced and one traced pass."""
    passes = max(1, round(seconds / workload.pass_s))
    return max(passes, 2) if traced else passes


def draw_seeds(workload: Workload, rng: random.Random) -> dict[str, str]:
    """One integer ``--seed`` per op that takes one, in op order."""
    return {op.id: str(rng.randrange(1, 2 ** 31))
            for op in workload.fixtures + workload.ops
            if INT_SEED in op.argv}


def op_argv(op: Op, directory: Path, seeds: dict[str, str]) -> list[str]:
    return [a.replace("{file}", str(directory / op.file) if op.file else "")
            .replace(INT_SEED, seeds.get(op.id, ""))
            for a in op.argv]


def make_tamper(tamper: Tamper, directory: Path, rng: random.Random) -> None:
    """Write a corrupted copy of a JSON design.  Positions come from ``rng``;
    each corruption is chosen so that one known check is the first of the
    verify battery to fail."""
    obj = json.loads((directory / tamper.base).read_text())
    d1, d2, s = obj["d1"], obj["d2"], obj["s"]
    n, m, k = len(d1), len(d1[0]), len(d2[0])
    if tamper.id == "move":
        # Rows r1, r2 differ in D1 column 0 and sit in different windows of
        # D2 column j; swapping their values keeps D2 Latin but puts the
        # (D1 level, collapsed level) pair of r1 on a second row.  The last
        # column and the two highest levels of D1 column 0 make the checks,
        # which scan in that order, meet the swap after the same share of
        # work on every seed.
        j, top = k - 1, s - 1
        r1 = rng.choice([r for r in range(n) if d1[r][0] == top - 1])
        r2 = rng.choice([r for r in range(n) if d1[r][0] == top
                         and d2[r][j] // s != d2[r1][j] // s])
        d2[r1][j], d2[r2][j] = d2[r2][j], d2[r1][j]
    elif tamper.id == "dup":
        j, j2 = rng.sample(range(k), 2)
        for row in d2:
            row[j2] = row[j]
    elif tamper.id == "range":
        d1[rng.randrange(n)][rng.randrange(1, m)] = rng.randrange(s, 2 * s)
    else:
        raise ValueError(f"unknown tamper {tamper.id!r}")
    (directory / tamper.file).write_text(
        json.dumps(obj, sort_keys=True, indent=2) + "\n")
