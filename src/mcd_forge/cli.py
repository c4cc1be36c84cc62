"""Command-line front end.

Three subcommands:

* ``construct`` builds a design (method theorem1 | theorem2 | anti-mirror
  | general), verifies it, and writes a JSON bundle or CSV + sidecar.
  Construction never emits an unverified design.
* ``verify`` re-checks a written file by brute force.
* ``catalog`` prints the parameter tables, optionally materializing and
  verifying every row; a row over a size cap is reported as skipped.

All three verify through the one battery, ``verify.battery``.

Exit codes: 0 success, 1 verification failure, 2 parameter/file error,
3 internal error (a constructed design failed its own verification).

Seed resolution for ``construct``: --seed flag, else the MCD_FORGE_SEED
environment variable, else "identity" (in-order level expansion).
``catalog --materialize`` always uses "identity": its checks are
seed-invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .bundle import bundle_from_design, read_bundle, write_bundle
from .catalog import all_rows, verify_row
from .construct import (
    _cached_prefix_search,
    anti_mirror_construction,
    direct_construction,
    general_construction,
    subspace_construction,
)
from .designs import IDENTITY_SEED
from .errors import BadParamsError, McdForgeError, TooLargeError
from .gf import galois_field
from .verify import battery

SEED_ENV_VAR = "MCD_FORGE_SEED"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARAM_ERROR = 2
EXIT_INTERNAL = 3
#: a reader that closed stdout ends the run as SIGPIPE would: 128 + 13
EXIT_BROKEN_PIPE = 141


def _parse_seed(text: str):
    if text == IDENTITY_SEED:
        return text
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise BadParamsError(
            f"seed must be a non-negative integer or {IDENTITY_SEED!r}, "
            f"got {text!r}")
    return seed


def _resolve_seed(args) -> int | str:
    if args.seed is not None:
        return _parse_seed(args.seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return _parse_seed(env)
    return IDENTITY_SEED


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise BadParamsError(f"bad vector {text!r}; expected e.g. 1,2,0") from None


def _parse_generator(text: str) -> tuple[int, list[tuple[int, ...]]]:
    head, sep, tail = text.partition("=")
    if not sep:
        raise BadParamsError(
            f"bad generator override {text!r}; expected INDEX=c1|c2|...")
    try:
        index = int(head)
    except ValueError:
        raise BadParamsError(f"bad x index in {text!r}") from None
    columns = [_parse_vector(part) for part in tail.split("|")]
    return index, columns


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise BadParamsError(message)


def cmd_construct(args) -> int:
    method = args.method
    # the options the method reads, besides --seed and --out
    reads = {"theorem1": "s u u1 item", "theorem2": "s u u1 v item",
             "anti-mirror": "s u u1", "general": "s z x generator"}[method]
    unread = [f"--{name}" for name in "s u u1 v item z x generator".split()
              if getattr(args, name) is not None and name not in reads.split()]
    _require(not unread, f"{method} does not take {', '.join(unread)}")
    seed = _resolve_seed(args)
    item = args.item or "i"
    if method == "anti-mirror":
        _require(args.s in (None, 2), "anti-mirror designs are two-level")
        _require(args.u is not None and args.u1 is not None,
                 "anti-mirror needs --u and --u1")
        mcd = anti_mirror_construction(args.u, args.u1, seed)
    elif method in ("theorem1", "theorem2"):
        _require(args.s is not None and args.u is not None
                 and args.u1 is not None,
                 f"{method} needs --s, --u and --u1")
        field = galois_field(args.s)
        if method == "theorem1":
            mcd = direct_construction(field, args.u, args.u1, item, seed)
        else:
            _require(args.v is not None, "theorem2 needs --v")
            mcd = subspace_construction(field, args.u, args.u1, args.v,
                                        item, seed)
    else:  # general
        _require(args.s is not None, "general needs --s")
        _require(bool(args.z) and bool(args.x),
                 "general needs at least one --z and one --x")
        field = galois_field(args.s)
        overrides = {}
        for text in args.generator or []:
            index, columns = _parse_generator(text)
            if index in overrides:
                raise BadParamsError(f"duplicate generator override for x {index}")
            overrides[index] = columns
        mcd = general_construction(
            field, [_parse_vector(z) for z in args.z],
            [_parse_vector(x) for x in args.x],
            seed, generator_overrides=overrides or None)

    report = mcd.full_verification()
    if not report.passed:
        print("internal error: constructed design failed verification",
              file=sys.stderr)
        for line in report.lines():
            print(line, file=sys.stderr)
        return EXIT_INTERNAL

    out = write_bundle(args.out, bundle_from_design(mcd))
    print(f"wrote {out} ({mcd.d1.n} runs, {mcd.d1.m} qualitative + "
          f"{mcd.d2.k} quantitative columns, method {mcd.provenance.method})")
    return EXIT_OK


def _parse_cells(text: str) -> tuple[int, ...]:
    try:
        cells = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise BadParamsError(
            f"bad grid {text!r}; expected e.g. 2x2 or 3x3x3") from None
    _require(len(cells) >= 1 and all(c >= 1 for c in cells),
             f"bad grid {text!r}")
    return cells


def cmd_verify(args) -> int:
    b = read_bundle(args.infile)
    d1, d2 = b.design_objects()
    cells = None if args.stratify is None else _parse_cells(args.stratify)
    report = battery(d1, d2, b.s, args.strength, cells)
    if args.json:
        payload = {"passed": report.passed,
                   "checks": [asdict(c) for c in report.checks]}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in report.lines():
            print(line)
        print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_catalog(args) -> int:
    rows = all_rows(args.s, args.u_max)
    if args.format == "json":
        print(json.dumps([asdict(r) for r in rows], indent=2))
    elif args.format == "csv":
        cols = ["s", "u", "u1", "method", "v", "star", "n_a", "g",
                "free_coords", "k",
                "d1_i_runs", "d1_i_cols", "d1_i_levels", "d1_i_strength",
                "d2_i_runs", "d2_i_cols",
                "d1_ii_runs", "d1_ii_cols", "d1_ii_levels", "d1_ii_strength",
                "d2_ii_runs", "d2_ii_cols"]
        print(",".join(cols))
        for r in rows:
            flat = [r.s, r.u, r.u1, r.method, r.v, int(r.star), r.n_a, r.g,
                    r.free_coords, r.k, *r.d1_i, *r.d2_i, *r.d1_ii, *r.d2_ii]
            print(",".join("" if x is None else str(x) for x in flat))
    else:  # md
        t1 = [r for r in rows if r.method == "theorem1"]
        t2 = [r for r in rows if r.method == "theorem2"]
        print(f"## method theorem1 (s={args.s}, u <= {args.u_max})")
        print("| u | u1 | n_A | D1 (i) | D2 (i) | D1 (ii) | D2 (ii) |")
        print("|---|----|-----|--------|--------|---------|---------|")
        for r in t1:
            print(f"| {r.u} | {r.u1} | {r.n_a} | OA{r.d1_i} | LHD{r.d2_i} | "
                  f"OA{r.d1_ii} | LHD{r.d2_ii} |")
        print()
        print(f"## method theorem2 (s={args.s}, u <= {args.u_max})")
        print("| u | u1 | v | g | u-u1 | k | D1 (i) | D2 (i) | D1 (ii) | D2 (ii) |")
        print("|---|----|---|---|------|---|--------|--------|---------|---------|")
        for r in t2:
            # v* is n*; v+ is an arc's size, n* is at least that
            proven = (_cached_prefix_search(r.s, r.u1).certified
                      == "provably-maximal")
            vtxt = f"{r.v}{'*' if proven else '+'}" if r.star else f"{r.v}"
            print(f"| {r.u} | {r.u1} | {vtxt} | {r.g} | {r.free_coords} | "
                  f"{r.k} | OA{r.d1_i} | LHD{r.d2_i} | OA{r.d1_ii} | "
                  f"LHD{r.d2_ii} |")

    if args.materialize:
        failures = skipped = 0
        for r in rows:
            tag = (f"{r.method} u={r.u} u1={r.u1}"
                   + (f" v={r.v}" if r.v is not None else ""))
            try:
                report = verify_row(r)
            except TooLargeError as exc:  # a row over a cap is not built
                skipped += 1
                print(f"skipped {tag}: {exc}")
                continue
            if report.passed:
                print(f"verified {tag}")
            else:
                failures += 1
                print(f"FAILED {tag}")
                for line in report.lines():
                    print(f"  {line}")
        print(f"materialized {len(rows) - skipped} rows, {failures} failure(s)"
              + (f", {skipped} skipped over a cap" if skipped else ""))
        if failures:
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcd-forge",
        description="Construct and verify marginally coupled designs: "
                    "an s-level orthogonal array for qualitative factors "
                    "paired with a non-cascading Latin hypercube for "
                    "quantitative factors.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build, verify, and write a design")
    c.add_argument("--method", required=True,
                   choices=["theorem1", "theorem2", "anti-mirror", "general"])
    c.add_argument("--s", type=int, help="number of levels (prime power)")
    c.add_argument("--u", type=int, help="run-count exponent: n = s^u")
    c.add_argument("--u1", type=int, help="constrained coordinate count")
    c.add_argument("--v", type=int, help="groups traded (theorem2)")
    c.add_argument("--item", choices=["i", "ii"],
                   help="which side gets the qualitative columns "
                        "(theorem1/theorem2; default: i)")
    c.add_argument("--seed", help="integer or 'identity' (default: "
                   f"${SEED_ENV_VAR} or 'identity')")
    c.add_argument("--z", action="append",
                   help="qualitative generator vector, e.g. 1,2,0 "
                        "(general; repeatable)")
    c.add_argument("--x", action="append",
                   help="quantitative generator vector (general; repeatable)")
    c.add_argument("--generator", action="append", metavar="J=C1|C2|...",
                   help="explicit null-space columns for x index J "
                        "(general; repeatable)")
    c.add_argument("--out", required=True,
                   help="output path (.csv: CSV + sidecar, else JSON)")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="re-check a written design file")
    v.add_argument("--in", dest="infile", required=True, help="bundle path")
    v.add_argument("--strength", type=int,
                   help="additionally check D1 at this strength")
    v.add_argument("--stratify", metavar="AxB[xC]",
                   help="check every matching D2 column subset on this grid")
    v.add_argument("--json", action="store_true",
                   help="machine-readable report")
    v.set_defaults(func=cmd_verify)

    k = sub.add_parser("catalog", help="print the parameter tables")
    k.add_argument("--s", type=int, required=True)
    k.add_argument("--u-max", type=int, required=True)
    k.add_argument("--format", choices=["md", "csv", "json"], default="md")
    k.add_argument("--materialize", action="store_true",
                   help="construct and verify every row")
    k.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # quiet, as a pipe's writer killed by SIGPIPE; what is left in the
        # stdout buffer goes to the null device at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (McdForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
