"""Brute-force property checks.

Every claim a construction makes is checkable here by direct counting:
no linear algebra, no knowledge of how the design was built.  Checks
return a VerificationReport rather than raising, so a tampered file can
be loaded and diagnosed.  Counterexamples are deterministic: subsets are
scanned in lexicographic order and the first violation is reported.
All counting is integer-exact; nothing here produces a float.

``battery`` is the one battery that construct, verify and the catalog
run: ``check_mcd``, ``check_noncascading``, and optionally a declared
D1 strength and a grid-stratification sweep.

``check_oa_strength``, the pair-balance step of ``check_mcd`` and the
``check_grid_stratification`` sweep all count through one kernel,
``_first_unbalanced``.  It walks the caller's scans (head, lo, hi) in
order, each the t-subsets head + (j,), lo <= j < hi, that share their
first t-1 columns (the head), counts each scan as one batch and returns
the first unbalanced subset: each last column (tail) is coded into a
block of its own, in place in one int64 buffer, and one bincount counts
a chunk of up to 2^16 codes.  Each column is range-checked once, on the
caller's array, before the kernel copies it into the smallest unsigned
type that holds its levels; a tail that is out of range or does not
divide n ends the batch unencoded, so no entry can alias into a valid
combination or another subset's block.

``check_mcd`` tests the marginal-coupling property through the collapsed
pair condition: every (D1 column, collapsed D2 column) pair must be a
strength-2 mixed orthogonal array.  ``check_mcd_by_slices`` is the
independent definitional oracle: within each level-slice of each D1
column, every D2 column must put exactly one point into each of the n/s
consecutive length-s value windows.  It counts each (column, level) slice
once, with one bincount over every D2 column's windows, and uses neither
the kernel nor the collapse.  The two must agree on any input; the
acceptance suite holds them to that on random and constructed designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, prod

import numpy as np

from .designs import (
    CollapsedDesign,
    LatinHypercube,
    OrthogonalArray,
    _require_level_count,
    collapse_levels,
)
from .errors import (
    BadGridError,
    BadParamsError,
    NotDivisibleError,
    RunCountMismatchError,
    StrengthExceedsColumnsError,
    TooLargeError,
)

#: largest verification a construction may need, in n * (column pairs):
#: pair balance counts n rows for each of the m * k (D1, D2) pairs, and
#: the D1 strength-2 check for each of the m(m-1)/2 D1 pairs.  At 4.5-20
#: ns per unit one check_mcd takes at most about 1.4-6 s.  A strength-t
#: check, n * C(m, t) cells, and a --stratify sweep, n * C(k, arity) cells
#: at 5-8 ns each, have the same cap.
MAX_PAIR_WORK = 300_000_000


def _require_work(work: int, what: str, unit: str) -> None:
    """Refuse, before it counts anything, a check of ``work`` cells over
    MAX_PAIR_WORK: TooLargeError naming ``what`` and the count."""
    if work > MAX_PAIR_WORK:
        raise TooLargeError(f"{what} {work} {unit} cells, over the cap of "
                            f"{MAX_PAIR_WORK}")


def require_mcd_work(n: int, m: int, k: int) -> None:
    """Refuse a check_mcd of n runs, m D1 and k D2 columns that counts over
    the cap: n * (m * k + m(m-1)/2) run-pair cells."""
    _require_work(n * (m * k + m * (m - 1) // 2),
                  f"verifying {n} runs x {m} + {k} columns counts", "run-pair")


@dataclass(frozen=True)
class CheckResult:
    name: str
    subject: tuple
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        subj = f" {self.subject}" if self.subject else ""
        det = f" -- {self.detail}" if self.detail else ""
        return f"[{status}] {self.name}{subj}{det}"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _first_unbalanced(blocks, levels, scans):
    """The counting kernel over the rows of the integer 2-D ``blocks``,
    stacked in order (``data.T`` for a design matrix), with level counts
    ``levels``.  Each scan (head, lo, hi) asks whether every subset
    head + (j,), lo <= j < hi, holds every level combination n / (product
    of its levels) times.  Returns None when all of them do, else
    (subset, found) for the first subset that does not, in scan order:
    found is None when its level count does not divide n, () when a
    column leaves its level range, else (combination, count, expected)
    for its first off-count combination."""
    levels = tuple(map(int, levels))
    # range-check the caller's arrays before the narrowing copy below, so
    # that no entry can wrap into range; a negative entry reads as a huge
    # unsigned one: one max per column
    tops = []
    for block in blocks:
        block = np.asarray(block, dtype=np.int64)
        tops += block.view(np.uint64).max(axis=1, initial=0).tolist()
    bad = [top >= lev for top, lev in zip(tops, levels)]
    # one row per column, codes formed in int64; a copy larger than the
    # chunk buffer is held in the smallest type that holds every level
    # (below that, the mixed-type arithmetic costs more than it saves)
    c, n = len(levels), np.shape(blocks[0])[1]
    cols = np.empty((c, n), dtype=np.min_scalar_type(max(levels) - 1)
                    if c * n > 1 << 16 else np.int64)
    np.concatenate(blocks, out=cols, casting="unsafe")
    run_end = list(range(1, c + 1))  # end of j's chunk: level change or bad
    for j in range(c - 2, -1, -1):
        if levels[j + 1] == levels[j] and not bad[j + 1]:
            run_end[j] = run_end[j + 1]
    width = max(1, (1 << 16) // max(n, 1))  # tails per chunk
    buf = np.empty((min(width, c), n), dtype=np.int64)
    for head, lo, hi in scans:
        full = prod(levels[j] for j in head)
        a, base = lo, None
        while a < hi:
            size = full * levels[a]
            if not size or n % size:
                return head + (a,), None
            if bad[a] or any(bad[j] for j in head):
                return head + (a,), ()
            if base is None:
                # little-endian codes: the first column varies fastest, at
                # weight 1; the others are weighed in int64
                base, weight = ((cols[head[0]], levels[head[0]]) if head
                                else (0, 1))
                for j in head[1:]:
                    base = np.multiply(cols[j], weight, dtype=np.int64) + base
                    weight *= levels[j]
            b = min(hi, a + width, run_end[a])
            codes = buf[:b - a]
            np.multiply(cols[a:b], full, out=codes, dtype=np.int64)
            codes += base
            if b - a > 1:
                codes += np.arange(0, (b - a) * size, size)[:, None]
            counts = np.bincount(codes.ravel(), minlength=(b - a) * size)
            off = np.flatnonzero(counts != n // size)
            if off.size:
                i = int(off[0]) // size
                block = counts[i * size:(i + 1) * size].reshape(
                    [levels[j] for j in (a + i, *head[::-1])]).T
                hit = int(np.flatnonzero(block.ravel() != n // size)[0])
                combo = tuple(map(int, np.unravel_index(hit, block.shape)))
                return head + (a + i,), (combo, int(block.flat[hit]), n // size)
            a = b
    return None


def check_oa_strength(a: OrthogonalArray, t: int) -> VerificationReport:
    """Strength-t check by exhaustive counting: every t-subset of columns
    must contain each level combination exactly n / (product of levels)
    times.  Reports the lexicographically first violating subset and
    combination."""
    if t < 1:
        raise BadParamsError("strength must be at least 1")
    if t > a.m:
        raise StrengthExceedsColumnsError(
            f"strength {t} exceeds column count {a.m}")
    name = f"oa-strength({t})"
    hit = _first_unbalanced((a.data.T,), a.levels, (
        (h, h[-1] + 1 if h else 0, a.m)
        for h in combinations(range(a.m - 1), t - 1)))
    if hit is None:
        return VerificationReport((CheckResult(name, (), True),))
    cols, found = hit
    if found is None:
        detail = (f"run count {a.n} not divisible by "
                  f"{prod(a.levels[c] for c in cols)} level combinations")
    elif not found:
        detail = "entries outside the declared level range"
    else:
        combo, count, expected = found
        detail = (f"combination {combo} appears {count} times, "
                  f"expected {expected}")
    return VerificationReport((CheckResult(name, cols, False, detail),))


def _latin_check(d2: LatinHypercube) -> CheckResult:
    ranked = np.array(d2.data.T, order="C")  # rows sort in contiguous memory
    ranked.sort(axis=1)
    wrong = (ranked != np.arange(d2.n)).any(axis=1)
    if not wrong.any():
        return CheckResult("latin-hypercube", (), True)
    j = int(wrong.argmax())
    missing = sorted(set(range(d2.n)) - set(d2.data[:, j].tolist()))
    what = f"value {missing[0]} missing" if missing else "duplicate values"
    return CheckResult("latin-hypercube", (j,), False,
                       f"column {j} is not a permutation of 0..{d2.n - 1} "
                       f"({what})")


def _pair_balance(d1: OrthogonalArray, d2: LatinHypercube, s: int) -> CheckResult:
    """Every (D1 column, collapsed D2 column) pair must hit each (level,
    level) combination exactly once -- the collapsed form of marginal
    coupling."""
    m, k, n = d1.m, d2.k, d1.n
    hit = _first_unbalanced((d1.data.T, d2.data.T // s),
                            (s,) * m + (n // s,) * k,
                            (((i,), m, m + k) for i in range(m)))
    if hit is None:
        return CheckResult("pair-balance", (), True)
    (i, j), found = hit
    j -= m
    if not found:
        detail = (f"levels out of range for D1 column {i} / "
                  f"collapsed D2 column {j}")
    else:
        (a, b), count, _ = found
        detail = (f"(D1 column {i} = {a}, collapsed D2 column {j} = {b}) "
                  f"occurs {count} times, expected 1")
    return CheckResult("pair-balance", (i, j), False, detail)


def _structural_checks(d1: OrthogonalArray, d2: LatinHypercube,
                       s: int) -> list[CheckResult]:
    _require_level_count(s)
    if d1.n != d2.n:
        raise RunCountMismatchError(
            f"D1 has {d1.n} runs but D2 has {d2.n}")
    if d1.n % s != 0:
        raise NotDivisibleError(f"run count {d1.n} not divisible by s={s}")
    checks = [check_oa_strength(d1, min(2, d1.m)).checks[0]]
    checks.append(_latin_check(d2))
    return checks


def check_mcd(d1: OrthogonalArray, d2: LatinHypercube, s: int) -> VerificationReport:
    """Marginal-coupling check via the collapsed pair condition, plus the
    prerequisites: D1 a strength-2 orthogonal array (strength 1 when it has
    a single column) and D2 a Latin hypercube."""
    checks = _structural_checks(d1, d2, s)
    checks.append(_pair_balance(d1, d2, s))
    return VerificationReport(tuple(checks))


def check_mcd_by_slices(d1: OrthogonalArray, d2: LatinHypercube,
                        s: int) -> VerificationReport:
    """Definitional marginal-coupling oracle, independent of the collapse
    machinery: for each level of each D1 column, the rows at that level
    must place every D2 column's values one-per-window into the n/s
    consecutive windows [vs, vs+s).  Agrees with check_mcd on any input."""
    checks = _structural_checks(d1, d2, s)
    n, k = d1.n, d2.k
    nlev = n // s
    # cell j * nlev + v counts column j's points in window v; a value
    # outside 0..n-1 goes to the spare last cell, which is no window
    cells = d2.data // s + np.arange(k) * nlev
    cells[(d2.data < 0) | (d2.data >= n)] = k * nlev
    for i in range(d1.m):
        col = d1.data[:, i]
        for level in np.unique(col).tolist():
            counts = np.bincount(cells[col == level].ravel(),
                                 minlength=k * nlev + 1)[:-1]
            off = np.flatnonzero(counts != 1)
            if off.size:
                j, v = divmod(int(off[0]), nlev)
                checks.append(CheckResult(
                    "slice-coverage", (i, j), False,
                    f"D1 column {i} level {level}: D2 column {j} has "
                    f"{int(counts[off[0]])} points in window "
                    f"[{v * s}, {(v + 1) * s - 1}], expected 1"))
                return VerificationReport(tuple(checks))
    checks.append(CheckResult("slice-coverage", (), True))
    return VerificationReport(tuple(checks))


def first_equal_pair(keys) -> tuple[int, int] | None:
    """The lexicographically first pair (i, j), i < j, of equal keys, or
    None when all keys differ.  One dict pass over hashable keys."""
    first: dict = {}
    pair = None
    for j, key in enumerate(keys):
        i = first.setdefault(key, j)
        if i != j and (pair is None or i < pair[0]):
            pair = (i, j)
    return pair


def check_noncascading(collapsed: CollapsedDesign) -> VerificationReport:
    """No two collapsed columns may be equal up to level relabeling, that
    is, replacing each entry by the row where its value first appears in
    its column must give two different columns.  One stable argsort per
    block of columns finds those rows."""
    n, k = collapsed.data.shape
    step, keys = max(1, (1 << 16) // max(n, 1)), []
    for a in range(0, k, step):
        block = np.ascontiguousarray(collapsed.data[:, a:a + step].T)
        order = np.argsort(block, axis=1, kind="stable").astype(np.int32)
        ranked = np.take_along_axis(block, order, axis=1)
        # sorted position of each run of equal values, holding its first row
        start = np.zeros_like(order)
        start[:, 1:] = np.where(ranked[:, 1:] != ranked[:, :-1],
                                np.arange(1, n), 0)
        np.maximum.accumulate(start, axis=1, out=start)
        rows = np.empty_like(order)
        np.put_along_axis(rows, order,
                          np.take_along_axis(order, start, axis=1), axis=1)
        keys += map(np.ndarray.tobytes, rows)
    pair = first_equal_pair(keys)
    if pair:
        i, j = pair
        result = CheckResult(
            "non-cascading", pair, False,
            f"columns {i} and {j} are level-relabelings of each other")
        return VerificationReport((result,))
    return VerificationReport((CheckResult("non-cascading", (), True),))


def _grid_name(cells: tuple[int, ...]) -> str:
    return "grid-stratification(" + "x".join(str(c) for c in cells) + ")"


def check_grid_stratification(d2: LatinHypercube, dims: tuple[int, ...],
                              cells: tuple[int, ...]) -> VerificationReport:
    """Does every len(cells)-subset of the columns ``dims`` spread evenly
    over a cells[0] x cells[1] x ... grid?  Subsets are taken by position
    in ``dims``, in lexicographic order, and the column at a subset's i-th
    place maps to cell floor(value / (n / cells[i])); every cell must hold
    exactly n / prod(cells) points.  Reports the first subset that does
    not; with len(dims) == len(cells) that is the one subset ``dims``.

    One block of cell columns per distinct cell count is built once, and
    the counting kernel counts each head (the first len(cells) - 1 places)
    against all of its tails in one batch.  The sweep is sized before any
    of that: n * C(len(dims), len(cells)) run-subset cells at most."""
    n, r, places = d2.n, len(cells), len(dims)
    if not cells or places < r:
        raise BadGridError("need a cell count per grid axis and at least "
                           "one selected column per cell count")
    if any(not 0 <= d < d2.k for d in dims):
        raise BadGridError(f"column selection {dims} outside 0..{d2.k - 1}")
    if any(c < 1 or n % c != 0 for c in cells):
        raise BadGridError(f"cell counts {cells} must divide n={n}")
    full = int(prod(cells))
    if n % full != 0:
        raise BadGridError(f"grid of {full} cells does not divide n={n}")
    _require_work(n * comb(places, r), f"{_grid_name(cells)} sweep:",
                  "run-subset")
    # row offset[c] + p of the stack holds column dims[p] in c cells
    sizes = sorted(set(cells))
    offset = {c: i * places for i, c in enumerate(sizes)}
    selected = d2.data.T[list(dims)]
    tails = offset[cells[-1]]
    hit = _first_unbalanced(
        [selected // (n // c) for c in sizes],
        [c for c in sizes for _ in dims],
        ((tuple(offset[c] + p for c, p in zip(cells, h)),
          tails + (h[-1] + 1 if h else 0), tails + places)
         for h in combinations(range(places - 1), r - 1)))
    name = _grid_name(cells)
    if hit is None:
        return VerificationReport((CheckResult(name, tuple(dims), True),))
    subset, found = hit
    if not found:
        detail = "entries outside the declared level range"
    else:
        cell, count, expected = found
        detail = f"cell {cell} holds {count} points, expected {expected}"
    subject = tuple(dims[j % places] for j in subset)
    return VerificationReport((CheckResult(name, subject, False, detail),))


def battery(d1: OrthogonalArray, d2: LatinHypercube, s: int,
            strength: int | None = None,
            stratify: tuple[int, ...] | None = None) -> VerificationReport:
    """The one verification battery behind construct, verify and the
    catalog: check_mcd, check_noncascading on floor(D2 / s), then
    optionally D1 at ``strength`` and a grid-stratification sweep over
    every D2 column subset of the grid's arity, stopping at the first
    failing subset.  Each check is sized first, so that an oversize one is
    refused (TooLargeError) before any counting; the sweep, reported last,
    runs first."""
    _require_level_count(s)
    require_mcd_work(d1.n, d1.m, d2.k)
    if strength is not None and strength > 0:
        _require_work(d1.n * comb(d1.m, strength),
                      f"oa-strength({strength}) check counts", "run-subset")
    if stratify is not None:
        if len(stratify) > d2.k:
            raise BadParamsError(
                f"grid arity {len(stratify)} exceeds the {d2.k} columns")
        sweep = check_grid_stratification(d2, tuple(range(d2.k)), stratify)
    checks = [*check_mcd(d1, d2, s).checks,
              *check_noncascading(collapse_levels(d2, s)).checks]
    if strength is not None:
        # check_mcd opens with this very check: list it again, not rerun
        checks += (checks[:1] if strength == min(2, d1.m)
                   else check_oa_strength(d1, strength).checks)
    if stratify is not None:
        checks += sweep.checks if not sweep.passed else (CheckResult(
            _grid_name(stratify) + " on all column subsets", (), True),)
    return VerificationReport(tuple(checks))
