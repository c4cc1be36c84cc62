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

``check_oa_strength``, the pair-balance step of ``check_mcd`` and
``check_grid_stratification`` all count through one kernel,
``_combo_counter``.  It range-checks every column once before encoding, so
an entry outside its declared level range fails the check instead of
aliasing into a valid level combination, and it returns the first
off-count combination, decoded, so each check only words its detail.

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
from itertools import combinations, product
from math import prod

import numpy as np

from .designs import (
    CollapsedDesign,
    LatinHypercube,
    OrthogonalArray,
    collapse_levels,
)
from .errors import (
    BadGridError,
    BadParamsError,
    NotDivisibleError,
    RunCountMismatchError,
    StrengthExceedsColumnsError,
)


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

    def merged_with(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.checks + other.checks)


def _combo_counter(columns, levels):
    """The counting kernel.  Returns ``first_unbalanced(cols)`` over the
    columns ``cols`` of ``columns``, a sequence of equal-length 1-D arrays
    (``data.T`` for a design matrix): None when every level combination
    occurs n / (product of the levels) times, ``()`` when one of the
    columns holds an entry outside its level range, and otherwise
    ``(combination, count, expected)`` for the first off-count combination
    in lexicographic order.

    Every column is range-checked against 0..levels[j]-1 once, here,
    before any encoding, so no out-of-range entry can alias into a valid
    combination.  Combinations are encoded big-endian (first column most
    significant), so code order is lexicographic order.
    """
    columns = list(columns)
    levels = tuple(int(v) for v in levels)
    bad = [col.min(initial=0) < 0 or col.max(initial=0) >= lev
           for col, lev in zip(columns, levels)]
    any_bad = any(bad)

    def first_unbalanced(cols: tuple[int, ...]) -> tuple | None:
        if any_bad and any(bad[c] for c in cols):
            return ()
        codes, full = columns[cols[0]], levels[cols[0]]
        for c in cols[1:]:
            codes = codes * levels[c] + columns[c]
            full *= levels[c]
        expected = len(codes) // full
        counts = np.bincount(codes, minlength=full)
        off = np.flatnonzero(counts != expected)
        if not off.size:
            return None
        code = int(off[0])
        combo = np.unravel_index(code, tuple(levels[c] for c in cols))
        return tuple(int(x) for x in combo), int(counts[code]), expected

    return first_unbalanced


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
    first_unbalanced = _combo_counter(a.data.T, a.levels)
    for cols in combinations(range(a.m), t):
        full = int(prod(a.levels[c] for c in cols))
        if a.n % full != 0:
            detail = (f"run count {a.n} not divisible by {full} level "
                      "combinations")
        elif (found := first_unbalanced(cols)) is None:
            continue
        elif not found:
            detail = "entries outside the declared level range"
        else:
            combo, count, expected = found
            detail = (f"combination {combo} appears {count} times, "
                      f"expected {expected}")
        return VerificationReport((CheckResult(name, cols, False, detail),))
    return VerificationReport((CheckResult(name, (), True),))


def _latin_check(d2: LatinHypercube) -> CheckResult:
    n = d2.n
    for j in range(d2.k):
        col = np.sort(d2.data[:, j])
        if not (col == np.arange(n)).all():
            missing = sorted(set(range(n)) - set(d2.data[:, j].tolist()))
            what = (f"value {missing[0]} missing" if missing
                    else "duplicate values")
            return CheckResult("latin-hypercube", (j,), False,
                               f"column {j} is not a permutation of 0..{n - 1}"
                               f" ({what})")
    return CheckResult("latin-hypercube", (), True)


def _pair_balance(d1: OrthogonalArray, tilde: np.ndarray, s: int) -> CheckResult:
    """Every (D1 column, collapsed column) pair must hit each (level, level)
    combination exactly once -- the collapsed form of marginal coupling."""
    m, k, nlev = d1.m, tilde.shape[1], d1.n // s
    first_unbalanced = _combo_counter([*d1.data.T, *tilde.T],
                                      (s,) * m + (nlev,) * k)
    for i, j in product(range(m), range(k)):
        found = first_unbalanced((i, m + j))
        if found is None:
            continue
        if not found:
            detail = (f"levels out of range for D1 column {i} / "
                      f"collapsed D2 column {j}")
        else:
            (a, b), count, _ = found
            detail = (f"(D1 column {i} = {a}, collapsed D2 column {j} = {b}) "
                      f"occurs {count} times, expected 1")
        return CheckResult("pair-balance", (i, j), False, detail)
    return CheckResult("pair-balance", (), True)


def _structural_checks(d1: OrthogonalArray, d2: LatinHypercube,
                       s: int) -> list[CheckResult]:
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
    checks.append(_pair_balance(d1, d2.data // s, s))
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


def _relabel_by_first_occurrence(col: np.ndarray) -> tuple[int, ...]:
    """Canonical form of a column under level bijections."""
    mapping: dict[int, int] = {}
    return tuple(mapping.setdefault(v, len(mapping)) for v in col.tolist())


def check_noncascading(collapsed: CollapsedDesign) -> VerificationReport:
    """No two collapsed columns may be equal up to level relabeling."""
    pair = first_equal_pair(_relabel_by_first_occurrence(col)
                            for col in collapsed.data.T)
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
    """Do the selected columns spread evenly over a cells[0] x cells[1] x ...
    grid?  Column c maps to cell floor(value / (n / cells)); every cell must
    hold exactly n / prod(cells) points."""
    n = d2.n
    if len(dims) != len(cells) or not dims:
        raise BadGridError("need one cell count per selected column")
    if any(not 0 <= d < d2.k for d in dims):
        raise BadGridError(f"column selection {dims} outside 0..{d2.k - 1}")
    if any(c < 1 or n % c != 0 for c in cells):
        raise BadGridError(f"cell counts {cells} must divide n={n}")
    full = int(prod(cells))
    if n % full != 0:
        raise BadGridError(
            f"grid of {full} cells does not divide n={n}")
    cell_cols = [d2.data[:, d] // (n // c) for d, c in zip(dims, cells)]
    found = _combo_counter(cell_cols, cells)(tuple(range(len(cells))))
    name = _grid_name(cells)
    if found is None:
        return VerificationReport((CheckResult(name, tuple(dims), True),))
    if not found:
        detail = "entries outside the declared level range"
    else:
        cell, count, expected = found
        detail = f"cell {cell} holds {count} points, expected {expected}"
    return VerificationReport((CheckResult(name, tuple(dims), False, detail),))


def battery(d1: OrthogonalArray, d2: LatinHypercube, s: int,
            strength: int | None = None,
            stratify: tuple[int, ...] | None = None) -> VerificationReport:
    """The one verification battery behind construct, verify and the
    catalog: check_mcd, check_noncascading on floor(D2 / s), then
    optionally D1 at ``strength`` and a grid-stratification sweep over
    every D2 column subset of the grid's arity, stopping at the first
    failing subset."""
    report = check_mcd(d1, d2, s)
    report = report.merged_with(check_noncascading(collapse_levels(d2, s)))
    if strength is not None:
        if strength == min(2, d1.m):
            # check_mcd opens with this very check: list it again, not rerun
            extra = VerificationReport(report.checks[:1])
        else:
            extra = check_oa_strength(d1, strength)
        report = report.merged_with(extra)
    if stratify is not None:
        if len(stratify) > d2.k:
            raise BadParamsError(
                f"grid arity {len(stratify)} exceeds the {d2.k} columns")
        sweep = (check_grid_stratification(d2, dims, stratify)
                 for dims in combinations(range(d2.k), len(stratify)))
        failed = next((r for r in sweep if not r.passed), None)
        report = report.merged_with(failed or VerificationReport((
            CheckResult(_grid_name(stratify) + " on all column subsets",
                        (), True),)))
    return report
