"""Command-line front end.

Three subcommands:

* ``construct`` builds a design (method theorem1 | theorem2 | anti-mirror
  | general), verifies it, and writes a JSON bundle or CSV + sidecar.
  Construction never emits an unverified design.
* ``verify`` re-checks a written file by brute force.
* ``catalog`` prints the parameter tables, optionally materializing and
  verifying every row; a row over a size cap is reported as skipped.

All three verify through the one battery, ``verify.battery``.

A plain argv (the command, then options by their exact names, each with
its value) is read straight from the option table ``COMMANDS``.  argparse,
built from the same table, reads every other argv and prints every help,
usage and error text.

The module body ends by freezing the garbage collector's heap, so the
collector never scans the import-time objects again; only the CLI does
this, because a library import would freeze its host's objects for good.

Exit codes: 0 success, 1 verification failure, 2 parameter/file error,
3 internal error (a constructed design failed its own verification).

Seed resolution for ``construct``: --seed flag, else the MCD_FORGE_SEED
environment variable, else "identity" (in-order level expansion).
``catalog --materialize`` always uses "identity": its checks are
seed-invariant.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from dataclasses import asdict
from types import SimpleNamespace

from .bundle import bundle_from_design, read_bundle, write_bundle
from .catalog import all_rows, verify_row
from .construct import (
    anti_mirror_construction,
    direct_construction,
    general_construction,
    subspace_construction,
)
from .designs import IDENTITY_SEED
from .errors import BadParamsError, McdForgeError, TooLargeError
from .gf import galois_field
from .nstar import prefix_set
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
    cells = None if args.stratify is None else _parse_cells(args.stratify)
    # no file makes a strength below 1 valid; one above m needs the file
    _require(args.strength is None or args.strength >= 1,
             "strength must be at least 1")
    b = read_bundle(args.infile)
    d1, d2 = b.design_objects()
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
            proven = prefix_set(r.s, r.u1).certified == "provably-maximal"
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


#: The CLI's one definition: each command as (name, help line, handler,
#: options), each option as (flag, the keyword arguments of argparse's
#: ``add_argument``), in help order.  build_parser() builds argparse's tree
#: from it, and _read_plain() reads the plain argv of a run from it, so the
#: two cannot drift apart.  An option reads one value unless its action is
#: "store_true" (no value) or "append" (one value per use, in a list).
COMMANDS = (
    ("construct", "build, verify, and write a design", cmd_construct, (
        ("--method", {"required": True,
                      "choices": ["theorem1", "theorem2", "anti-mirror",
                                  "general"]}),
        ("--s", {"type": int, "help": "number of levels (prime power)"}),
        ("--u", {"type": int, "help": "run-count exponent: n = s^u"}),
        ("--u1", {"type": int, "help": "constrained coordinate count"}),
        ("--v", {"type": int, "help": "groups traded (theorem2)"}),
        ("--item", {"choices": ["i", "ii"],
                    "help": "which side gets the qualitative columns "
                            "(theorem1/theorem2; default: i)"}),
        ("--seed", {"help": "integer or 'identity' (default: "
                            f"${SEED_ENV_VAR} or 'identity')"}),
        ("--z", {"action": "append",
                 "help": "qualitative generator vector, e.g. 1,2,0 "
                         "(general; repeatable)"}),
        ("--x", {"action": "append",
                 "help": "quantitative generator vector (general; "
                         "repeatable)"}),
        ("--generator", {"action": "append", "metavar": "J=C1|C2|...",
                         "help": "explicit null-space columns for x index J "
                                 "(general; repeatable)"}),
        ("--out", {"required": True,
                   "help": "output path (.csv: CSV + sidecar, else JSON)"}),
    )),
    ("verify", "re-check a written design file", cmd_verify, (
        ("--in", {"dest": "infile", "required": True, "help": "bundle path"}),
        ("--strength", {"type": int,
                        "help": "additionally check D1 at this strength"}),
        ("--stratify", {"metavar": "AxB[xC]",
                        "help": "check every matching D2 column subset on "
                                "this grid"}),
        ("--json", {"action": "store_true",
                    "help": "machine-readable report"}),
    )),
    ("catalog", "print the parameter tables", cmd_catalog, (
        ("--s", {"type": int, "required": True}),
        ("--u-max", {"type": int, "required": True}),
        ("--format", {"choices": ["md", "csv", "json"], "default": "md"}),
        ("--materialize", {"action": "store_true",
                           "help": "construct and verify every row"}),
    )),
)


def _dest(flag: str, kwargs: dict) -> str:
    return kwargs.get("dest", flag[2:].replace("-", "_"))


def build_parser():
    """argparse's parser (an ``argparse.ArgumentParser``) for COMMANDS.
    It prints every help, usage and error text, and parses each argv that
    _read_plain declines.  argparse is imported here: with the ``gettext``
    and ``locale`` imports its first message lookup makes, building and
    running it costs 2-3 ms, more than reading and verifying a small file."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mcd-forge",
        description="Construct and verify marginally coupled designs: "
                    "an s-level orthogonal array for qualitative factors "
                    "paired with a non-cascading Latin hypercube for "
                    "quantitative factors.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, handler, options in COMMANDS:
        command = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(func=handler)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser() would make of ``argv``, read straight
    from COMMANDS, when ``argv`` has the plain form: the command first,
    then options by their exact names, each value the next token and not
    starting with "-", int values through ``int``, values among their
    choices, only an append option more than once, every required option
    present.  None for any other argv (help, abbreviations, --opt=value,
    values starting with "-", every error), which argparse then parses,
    prints or refuses as it always has."""
    for name, _, handler, options in COMMANDS:
        if argv[:1] == [name]:
            break
    else:
        return None
    table = dict(options)
    args = SimpleNamespace(command=name, func=handler)
    for flag, kwargs in options:
        unset = False if kwargs.get("action") == "store_true" else None
        setattr(args, _dest(flag, kwargs), kwargs.get("default", unset))
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = table.get(flag)
        if kwargs is None:
            return None
        dest, action = _dest(flag, kwargs), kwargs.get("action")
        if flag in seen and action != "append":
            return None
        seen.add(flag)
        if action == "store_true":
            setattr(args, dest, True)
            continue
        text = next(tokens, "-")  # no value declines as a "-" value does
        if text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        if action == "append":
            value = [*(getattr(args, dest) or ()), value]
        setattr(args, dest, value)
    if any(kwargs.get("required") and flag not in seen
           for flag, kwargs in options):
        return None
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv) or build_parser().parse_args(argv)
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


# everything loaded by now lives until the process ends: no collection
# during the command, and no pass at shutdown, scans or frees it again
gc.freeze()

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
