"""Brute-force property checks.

Every claim a construction makes is checkable here by direct counting:
no linear algebra, no knowledge of how the design was built.  Checks
return a VerificationReport rather than raising, so a tampered file can
be loaded and diagnosed.  Counterexamples are deterministic: subsets are
scanned in lexicographic order and the first violation is reported.
All counting is exact: float32 holds every count below 2^24 exactly,
and no report holds a float.

``battery`` is the one battery that construct, verify and the catalog
run: ``check_mcd``, ``check_noncascading``, and optionally a declared
D1 strength and a grid-stratification sweep.  ``require_mcd_work``, its
first step, refuses a design over MAX_DESIGN_CELLS cells or MAX_PAIR_WORK.

``check_oa_strength``, the pair-balance step of ``check_mcd`` and the
``check_grid_stratification`` sweep all count through one kernel,
``_first_unbalanced``.  It walks the caller's scans (head, lo, hi) in
order, each the t-subsets head + (j,), lo <= j < hi, that share their
first t-1 columns (the head), and returns the first unbalanced subset.
Each column is range-checked once, on the caller's array in its own
type, before the kernel copies it into the smallest unsigned type that
holds every level up to n; a column of more levels does not divide n and
is never counted.  A block the caller gives with a divisor, D2 for pair
balance and the grid sweep, is floor-divided in that one copy.  A call's
scans share one t.  Only bincount finds and words a failure; one-hot
products only clear blocks of scans:

* One-hot products, when the call has fewer than EXACT_FLOAT32 runs, no
  column out of range (so no level below 1) and its widest table, the
  product of the t largest levels, has at most NARROW_TABLE cells.  The
  scans go in blocks of heads, the first of one head and each next twice
  as large, so that an early failure costs little: onehot(head codes)
  times onehot(tails)^T, float32 products of 0/1 matrices summed over
  blocks of runs.  When every (t-1)-subset of the call's columns is
  uniform (always at t = 1; else asked of the kernel one level down),
  the one-hots leave each column's last level out: a table whose
  (t-1)-way margins are uniform is uniform exactly when its cells on
  levels 0..L-2 are, so a 2 x 2 x 2 grid takes one row per column and 1
  cell of 8.  Each operand and each product holds at most BLOCK_BYTES,
  and the path at most five of them at once.  Each product is made in
  pieces of at most 2^18 multiply-adds, which a threaded BLAS runs on
  one thread, so that a busy core cannot stall it.
* Bincount, for every block the products do not clear (an off count, or
  fewer than PRODUCT_CELLS run-subset cells) and every scan of any other
  call: each last column (tail) is coded into a block of its own, in
  place in one int64 buffer of at most BLOCK_BYTES (one column at least),
  and one bincount counts a chunk of those codes.  A tail that is out of
  range or does not divide n ends the chunk unencoded, so no entry can
  alias into a valid combination or another subset's block.

``check_mcd`` tests the marginal-coupling property through the collapsed
pair condition: every (D1 column, collapsed D2 column) pair must be a
strength-2 mixed orthogonal array.  ``check_mcd_by_slices`` is the
independent definitional oracle: within each level-slice of each D1
column, every D2 column must put exactly one point into each of the n/s
consecutive length-s value windows.  It counts each (column, level) slice
with one bincount per block of whole D2 columns, each block's int64 cell
indices at most BLOCK_BYTES, and uses neither the kernel nor the
collapse.  The two must agree on any input; the acceptance suite holds
them to that on random and constructed designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb, isqrt, prod
from operator import add

import numpy as np

from .designs import (
    CollapsedDesign,
    LatinHypercube,
    OrthogonalArray,
    _block_width,
    _floor_divided,
    _narrow_type,
    _require_level_count,
)
from .errors import (
    BadGridError,
    BadParamsError,
    NotDivisibleError,
    RunCountMismatchError,
    StrengthExceedsColumnsError,
    TooLargeError,
)
from .linalg import _INTEGER_TYPES

#: largest design construct builds or the battery checks, in n * (m + k)
#: cells: a construct run peaked at 13.5 bytes of RSS a cell at 4.2M cells
#: and 41 at 1.05M (D2 in int16), JSON or CSV alike, well under 1 GiB.
MAX_DESIGN_CELLS = 5_000_000

#: largest verification a construction may need, in n * (column pairs):
#: pair balance counts n rows for each of the m * k (D1, D2) pairs, and
#: the D1 strength-2 check for each of the m(m-1)/2 D1 pairs.  At 0.7-20
#: ns per unit (m = 2 to 144, n = 625 to 4096; the low end is D1's check
#: as one-hot products) one check_mcd takes at most about 0.2-6 s.  A
#: strength-t check, n * C(m, t) cells, and a --stratify sweep, n * C(k,
#: arity) cells, have the same cap: 0.15-3 ns a cell as products, 4.5-8
#: ns by bincount.
MAX_PAIR_WORK = 300_000_000

#: a call whose widest table, the product of its t largest levels, has
#: at most this many cells is counted by one-hot products, whose work
#: grows with the table: strength-2 checks of 57 to 150 columns, each
#: column's last level left out, took 0.06-0.15 of bincount's time with
#: tables of 4 and 9 cells, 0.24 with 16, 0.43-0.48 with 25 and 0.95-1.1
#: with 49
NARROW_TABLE = 25
#: float32 holds every integer below this exactly, so products count
#: only designs of fewer runs
EXACT_FLOAT32 = 1 << 24
#: the fewest run-subset cells, one bincount chunk, a block of scans
#: must hold to be counted by products: below it, on designs of 9
#: to 81 runs, products took 1.1-2 times as long as bincount
PRODUCT_CELLS = 1 << 16


def _require_work(work: int, what: str, unit: str) -> None:
    """Refuse, before it counts anything, a check of ``work`` cells over
    MAX_PAIR_WORK: TooLargeError naming ``what`` and the count."""
    if work > MAX_PAIR_WORK:
        raise TooLargeError(f"{what} {work} {unit} cells, over the cap of "
                            f"{MAX_PAIR_WORK}")


def _require_run_cap(s: int, u: int) -> None:
    """Refuse s^u runs alone over MAX_DESIGN_CELLS without computing s^u,
    which for u = 20000 has more digits than Python will print."""
    if s ** min(u, 64) > MAX_DESIGN_CELLS:
        raise TooLargeError(
            f"{s}^{u} runs is over the cap of {MAX_DESIGN_CELLS} cells")


def _require_cells(n: int, m: int, k: int) -> None:
    """Refuse a design of n runs, m D1 and k D2 columns whose n(m + k)
    cells are over MAX_DESIGN_CELLS."""
    if n * (m + k) > MAX_DESIGN_CELLS:
        raise TooLargeError(f"{n} runs x {m} + {k} columns is {n * (m + k)} "
                            f"cells, over the cap of {MAX_DESIGN_CELLS}")


def require_mcd_work(n: int, m: int, k: int) -> None:
    """Refuse a design of n runs, m D1 and k D2 columns over either cap:
    first its n(m + k) cells over MAX_DESIGN_CELLS, then a check_mcd that
    counts n * (m * k + m(m-1)/2) run-pair cells over MAX_PAIR_WORK."""
    _require_cells(n, m, k)
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


def _first_unbalanced(blocks, levels, scans, divisors=None):
    """The counting kernel over the rows of the integer 2-D ``blocks``,
    stacked in order (``data.T`` for a design matrix), each floor-divided
    by its entry of ``divisors`` (all 1 when None), with level counts
    ``levels``.  Each scan (head, lo, hi) asks whether every subset
    head + (j,), lo <= j < hi, holds every level combination n / (product
    of its levels) times.  Returns None when all of them do, else
    (subset, found) for the first subset that does not, in scan order:
    found is None when its level count does not divide n, () when a
    column leaves its level range, else (combination, count, expected)
    for its first off-count combination.  ``scans`` may be any iterable
    of at least one scan, all of one t.  _bincount_hit counts every block
    of heads that _products_clear does not clear."""
    levels = tuple(map(int, levels))
    divisors = divisors or (1,) * len(blocks)
    # range-check the caller's arrays, in their own types, before the
    # narrowing copy below, so that no entry can wrap into range: one min
    # and one max per column, compared as Python ints.  Floor division by
    # q >= 1 is monotone, so floor(min / q) and floor(max / q) are the
    # least and greatest of the divided column
    lows, tops = [], []
    for part, q in zip(blocks, divisors):
        lows += [low // q for low in part.min(axis=1, initial=0).tolist()]
        tops += [top // q for top in part.max(axis=1, initial=0).tolist()]
    bad = [low < 0 or top >= lev
           for low, top, lev in zip(lows, tops, levels)]
    # one row per column, codes formed in int64, in one copy, which also
    # floor-divides: counting the callers' rows uncopied, in their own
    # types, made every battery slower.  A copy of more than 2^16 cells
    # holds the smallest type that holds every level up to n (below
    # it, mixed-type arithmetic costs more than it saves); a column of more
    # levels does not divide n and is never coded
    c, n = len(levels), np.shape(blocks[0])[1]
    cols = np.empty((c, n), dtype=np.min_scalar_type(min(max(levels), n) - 1)
                    if c * n > 1 << 16 else np.int64)
    row = 0
    for part, q in zip(blocks, divisors):
        out, row = cols[row:row + len(part)], row + len(part)
        if q == 1:
            np.copyto(out, part, casting="unsafe")
        else:
            _floor_divided(part, q, out)
    run_end = list(range(1, c + 1))  # end of j's chunk: level change or bad
    for j in range(c - 2, -1, -1):
        if levels[j + 1] == levels[j] and not bad[j + 1]:
            run_end[j] = run_end[j + 1]
    return _counted(cols, levels, bad, run_end, scans)


def _counted(cols, levels, bad, run_end, scans):
    """The kernel's answer on its copied rows ``cols``: by bincount alone
    when the call cannot take products, else in blocks of heads that the
    products clear or bincount recounts.  The products leave each
    column's last level out when every (t-1)-subset of the call's columns
    is uniform (Moebius inversion over the margins, the contrast form of
    OA strength): always at t = 1, else asked of this function one level
    down."""
    scans = iter(scans)
    block = list(islice(scans, 1))  # the first block, of one head, fixes t
    (c, n), t = cols.shape, len(block[0][0]) + 1
    # one-hot rows per operand: as many as keep a float32 operand of all n
    # runs and a square product within one block, but at least 64 (with
    # 1,024 runs at a time past that)
    cells = _block_width(4)
    width = min(isqrt(cells), max(isqrt(cells // 16), _block_width(4, n)))
    # no scan's table is wider than the product of the t largest levels;
    # a level below 1 always marks its column bad
    top = sorted(levels, reverse=True)[:t]
    if n >= EXACT_FLOAT32 or any(bad) or prod(top) > min(NARROW_TABLE, width):
        return _bincount_hit(cols, levels, bad, run_end, chain(block, scans))
    # heads whose one-hots fit, gathered from a copy in the narrowest type
    # (bincount's copy of at most 2^16 cells is int64), so that a block's
    # gathered head columns hold at most BLOCK_BYTES
    size, most, cut = 1, width // prod(top[:-1]), None
    narrow = cols.astype(np.min_scalar_type(top[0] - 1), copy=False)
    while block:
        # asked once, at the first block large enough for products, so that
        # a call too small for them never pays for the question
        if cut is None and n * sum(hi - lo for _, lo, hi in block) >= (
                PRODUCT_CELLS):
            cut = int(t == 1 or _counted(cols, levels, bad, run_end, (
                (h, h[-1] + 1 if h else 0, c)
                for h in combinations(range(c - 1), t - 2))) is None)
            most = width // max(1, prod(lev - cut for lev in top[:-1]))
        if not _products_clear(narrow, levels, block, width, cut or 0):
            hit = _bincount_hit(cols, levels, bad, run_end, block)
            if hit:
                return hit
        size = min(2 * size, most)
        block = list(islice(scans, size))
    return None


def _one_hot(codes, widths):
    """float32 sum(widths) x rows matrix of 0s and 1s: group g of the
    codes' rows takes ``widths[g]`` rows, and its row v holds a 1 where
    the group's code is v.  A code outside 0..widths[g]-1 sets no 1."""
    top = int(widths.max())
    hot = codes[:, None, :] == np.arange(top, dtype=codes.dtype)[:, None]
    if (widths != top).any():
        hot = hot[np.arange(top) < widths[:, None]]
    return hot.reshape(int(widths.sum()), codes.shape[1]).astype(np.float32)


def _products_clear(cols, levels, scans, width: int, cut: int) -> bool:
    """True when every subset of the in-range ``scans`` holds each level
    combination n / (product of its levels) times, on levels 0..L-1-cut
    of each column; False at the first off count, and on fewer than
    PRODUCT_CELLS run-subset cells.  One-hots of the heads' level
    combinations, the elementwise products of their columns' indicator
    rows, and of the tails' levels, at most ``width`` rows each, meet in
    float32 products summed over blocks of BLOCK_BYTES / (4 width) runs,
    each count exact below EXACT_FLOAT32."""
    n, runs = cols.shape[1], _block_width(4, width)
    if n * sum(hi - lo for _, lo, hi in scans) < PRODUCT_CELLS:
        return False
    levels = np.array(levels, dtype=np.int32)
    heads, lo, hi = map(np.array, zip(*scans))
    heads = heads.astype(np.intp)  # an empty head reads as float
    full, hot = levels[heads].prod(axis=1), (levels - cut)[heads].prod(axis=1)
    t0, t1 = int(lo.min()), int(hi.max())
    tails = levels[t0:t1]
    # the level combinations on levels 0..L-1-cut of the block's largest
    # levels, head position by head position, the first slowest; each
    # head keeps those within its own levels
    box = (levels[heads] - cut).max(axis=0, initial=0)
    digits = np.indices(box).reshape(len(box), int(prod(box)))
    keep = (digits < (levels[heads] - cut)[:, :, None]).all(axis=1)

    def head_hot(r):  # the heads' one-hot over runs r to r + runs - 1
        on = np.ones((len(scans), 1, min(n - r, runs)), dtype=bool)
        for j, b in zip(heads.T, box.tolist()):  # products of indicators
            rows = cols[j, None, r:r + runs] == np.arange(
                b, dtype=cols.dtype)[:, None]
            on = (on[:, :, None] & rows[:, None]).reshape(
                len(scans), on.shape[1] * b, on.shape[2])
        return on[keep].astype(np.float32)

    once = head_hot(0) if n <= runs else None  # one block of runs
    step = width // max(1, int(tails.max()) - cut)  # tails a product
    for a in range(0, t1 - t0, step):
        b, counts = min(t1 - t0, a + step), 0
        for r in range(0, max(n, 1), runs):
            counts += _sliced_product(
                head_hot(r) if once is None else once,
                _one_hot(cols[t0 + a:t0 + b, r:r + runs], tails[a:b] - cut))
        # count x head levels x tail level is n exactly when the count is
        # n / size; a float32 product past 2^24 rounds to one above n
        counts *= full.repeat(hot)[:, None]
        counts *= tails[a:b].repeat(tails[a:b] - cut)
        i, q = np.nonzero(counts != n)
        # each off count's scan and tail; a head meets tails past its scan
        i = np.repeat(np.arange(len(scans)), hot)[i]
        q = np.repeat(np.arange(t0 + a, t0 + b), tails[a:b] - cut)[q]
        if ((lo[i] <= q) & (q < hi[i])).any():
            return False
    return True


def _sliced_product(h, t):
    """h @ t.T, in groups of rows of h of at most 2^18 multiply-adds each,
    which a threaded BLAS such as OpenBLAS runs on one thread: larger
    threaded products stalled 8-16 ms each while another process held the
    other core."""
    rows = max(1, (1 << 18) // max(1, t.size))
    cut = len(h) - len(h) % rows
    out = np.empty((len(h), len(t)), dtype=np.float32)
    np.matmul(h[:cut].reshape(cut // rows, rows, h.shape[1]), t.T,
              out=out[:cut].reshape(cut // rows, rows, len(t)))
    np.matmul(h[cut:], t.T, out=out[cut:])
    return out


def _bincount_hit(cols, levels, bad, run_end, scans):
    """The kernel's answer on ``scans`` by bincount: each tail is coded
    into a block of its own, in place in one int64 buffer of at most
    BLOCK_BYTES, and one bincount counts a chunk of those codes, into no
    more counts than codes; a chunk ends where ``run_end`` says, at a
    level change or a column out of range."""
    n = cols.shape[1]
    width = _block_width(8, n)  # tails per chunk
    buf = np.empty((min(width, len(levels)), n), dtype=np.int64)
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
                return head + (a + i,), (combo, int(block.flat[hit]),
                                         n // size)
            a, counts = b, None  # one chunk's counts at a time
    return None


def _require_runs(n: int) -> None:
    """Every count of a design without runs is 0 = n / size: no check may
    pass it."""
    if not n:
        raise BadParamsError("the design has no runs")


def _require_strength(t: int, m: int) -> None:
    """A strength is an integer in 1..m, the column count; a bool is
    not an integer."""
    if type(t) not in _INTEGER_TYPES:
        raise BadParamsError(f"strength must be an integer, not {t!r}")
    if t < 1:
        raise BadParamsError("strength must be at least 1")
    if t > m:
        raise StrengthExceedsColumnsError(
            f"strength {t} exceeds column count {m}")


def check_oa_strength(a: OrthogonalArray, t: int) -> VerificationReport:
    """Strength-t check by exhaustive counting: every t-subset of columns
    must contain each level combination exactly n / (product of levels)
    times.  Reports the lexicographically first violating subset and
    combination."""
    _require_runs(a.n)
    _require_strength(t, a.m)
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
    """Each column a permutation of 0..n-1: blocks of whole columns, at
    most ``BLOCK_BYTES`` in D2's type, are copied to contiguous rows and
    sorted, so D2 is never copied whole.  n entries that miss no value
    are a permutation, so a failing column is named with the least it
    misses."""
    n, width = d2.n, _block_width(d2.data.itemsize, d2.n)
    for lo in range(0, d2.k, width):
        ranked = np.array(d2.data[:, lo:lo + width].T, order="C")
        ranked.sort(axis=1)
        wrong = (ranked != np.arange(n)).any(axis=1)
        if wrong.any():
            break
    else:
        return CheckResult("latin-hypercube", (), True)
    j = lo + int(wrong.argmax())
    missing = min(set(range(n)).difference(d2.data[:, j].tolist()))
    return CheckResult("latin-hypercube", (j,), False,
                       f"column {j} is not a permutation of 0..{n - 1} "
                       f"(value {missing} missing)")


def _pair_balance(d1: OrthogonalArray, d2: LatinHypercube, s: int) -> CheckResult:
    """Every (D1 column, collapsed D2 column) pair must hit each (level,
    level) combination exactly once -- the collapsed form of marginal
    coupling."""
    m, k, n = d1.m, d2.k, d1.n
    hit = _first_unbalanced((d1.data.T, d2.data.T),
                            (s,) * m + (n // s,) * k,
                            (((i,), m, m + k) for i in range(m)), (1, s))
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
    _require_runs(d1.n)
    if not d1.m:
        raise BadParamsError("D1 has no columns")
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


def _level_slices(d1: OrthogonalArray):
    """(D1 column, level) for each level of each D1 column, in order.  A
    column's levels, ascending, are the entries of one np.sort of it where
    the value changes.  np.unique lists the same levels, but on numpy >=
    2.3 its first call in a process imports numpy.ma: 11-15 ms, against
    1-2 ms for the rest of a cold oracle call on a 256-run design."""
    for i, col in enumerate(d1.data.T):
        ordered = np.sort(col)
        starts = np.append(True, ordered[1:] != ordered[:-1])
        yield from ((i, level) for level in ordered[starts].tolist())


def check_mcd_by_slices(d1: OrthogonalArray, d2: LatinHypercube,
                        s: int) -> VerificationReport:
    """Definitional marginal-coupling oracle, independent of the collapse
    machinery: for each level of each D1 column, the rows at that level
    must place every D2 column's values one-per-window into the n/s
    consecutive windows [vs, vs+s).  Agrees with check_mcd on any input.

    D2 is counted in blocks of whole columns whose int64 cell indices hold
    BLOCK_BYTES, each slice of a block with one bincount.  The first block
    counts every slice up to its first failure; each later block recounts
    only the slices before the first failure found so far, so the report
    names the first failure in (D1 column, level, D2 column, window)
    order, as one count over all of D2 would."""
    checks = _structural_checks(d1, d2, s)
    n, k = d1.n, d2.k
    nlev, width = n // s, _block_width(8, n)
    slices, failure = _level_slices(d1), None
    for lo in range(0, k, width):
        part = d2.data[:, lo:lo + width]
        b = part.shape[1]
        # cell j * nlev + v counts the block's column j's points in window
        # v; a value outside 0..n-1 goes to the spare last cell, no window
        cells = np.empty(part.shape, dtype=np.intp)
        _floor_divided(part, s, cells)
        cells += np.arange(0, b * nlev, nlev)
        cells[(part < 0) | (part >= n)] = b * nlev
        passed = []
        for i, level in slices:
            counts = np.bincount(cells[d1.data[:, i] == level].ravel(),
                                 minlength=b * nlev + 1)[:-1]
            off = np.flatnonzero(counts != 1)
            if off.size:
                j, v = divmod(int(off[0]), nlev)
                failure = CheckResult(
                    "slice-coverage", (i, lo + j), False,
                    f"D1 column {i} level {level}: D2 column {lo + j} has "
                    f"{int(counts[off[0]])} points in window "
                    f"[{v * s}, {(v + 1) * s - 1}], expected 1")
                break
            passed.append((i, level))
        slices = passed
    checks.append(failure or CheckResult("slice-coverage", (), True))
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


#: a column key's fixed-size digest: equal keys give equal digests, and
#: the columns of each digest met twice are compared again by their keys
_digest = hash


def _relabeled_blocks(data: np.ndarray, q: int, columns=None):
    """The columns of the integer n x k ``data`` (those of the list
    ``columns``, else all), each floor-divided by q >= 1 and relabeled:
    each entry replaced by the row where its value first appears in its
    column.  One (b, n) array per block of b columns, in the narrowest type
    that holds n-1, whose int64 codes hold at most BLOCK_BYTES (one column
    at least).  A block holding any value outside 0..n-1 first has each
    column's values replaced by their ranks, one np.searchsorted into the
    sorted column, which keeps equal values equal and distinct ones
    distinct.  Every block is then relabeled in one pass: each cell's code
    is its value plus n times its column's place in the block, one
    np.minimum.at of the row numbers over the codes finds the first row of
    each code, and one gather hands it back to every cell."""
    n = data.shape[0]
    kind = _narrow_type(max(n - 1, 0))
    runs = np.arange(n, dtype=kind)
    step = _block_width(8, n)
    count = data.shape[1] if columns is None else len(columns)
    for a in range(0, count, step):
        part = (data[:, a:a + step] if columns is None
                else data[:, columns[a:a + step]]).T
        codes = np.empty(part.shape, dtype=np.intp)
        _floor_divided(part, q, codes)
        if codes.min(initial=0) < 0 or codes.max(initial=-1) >= n:
            for c in codes:
                c[...] = np.sort(c).searchsorted(c)
        codes += np.arange(0, len(codes) * n, n)[:, None]
        first = np.full(codes.size, n - 1, dtype=kind)
        # flat codes and row numbers in first's own type: numpy 2.4
        # broadcast 1-D values over 2-D indices wrongly, and values of
        # another type take ufunc.at's casting path, ten times slower
        np.minimum.at(first, codes.ravel(), np.tile(runs, len(codes)))
        yield first[codes]


def check_noncascading(collapsed: CollapsedDesign | LatinHypercube,
                       divisor: int = 1) -> VerificationReport:
    """No two columns of floor(``collapsed.data`` / divisor) may be equal
    up to level relabeling, that is, replacing each entry by the row where
    its value first appears in its column must give two different columns;
    the lexicographically first equal pair is reported.  The battery passes
    D2 with divisor s, so that D2 is collapsed block by block, never whole.

    Each column's key, its row of first rows, is kept only as a fixed-size
    digest, and the columns of every digest met more than once are
    relabeled again and compared by their keys, so that a digest collision
    changes no answer: the first equal pair is the least of those groups'
    first pairs."""
    first, groups = {}, {}
    digests = (_digest(row.tobytes()) for rows in _relabeled_blocks(
        collapsed.data, divisor) for row in rows)
    for j, digest in enumerate(digests):
        i = first.setdefault(digest, j)
        if i != j:
            groups.setdefault(i, [i]).append(j)
    pairs = []
    for cols in groups.values():
        pair = first_equal_pair(row.tobytes() for rows in _relabeled_blocks(
            collapsed.data, divisor, cols) for row in rows)
        if pair:
            pairs.append((cols[pair[0]], cols[pair[1]]))
    pair = min(pairs, default=None)
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
    _require_runs(n)
    if not cells or places < r:
        raise BadGridError("need a cell count per grid axis and at least "
                           "one selected column per cell count")
    for what, values in (("column selection", dims), ("cell counts", cells)):
        if not {*map(type, values)} <= _INTEGER_TYPES:  # bools are not ints
            raise BadGridError(f"{what} {values} must be integers")
    if any(not 0 <= d < d2.k for d in dims):
        raise BadGridError(f"column selection {dims} outside 0..{d2.k - 1}")
    if any(c < 1 or n % c != 0 for c in cells):
        raise BadGridError(f"cell counts {cells} must divide n={n}")
    full = int(prod(cells))
    if n % full != 0:
        raise BadGridError(f"grid of {full} cells does not divide n={n}")
    _require_work(n * comb(places, r), f"{_grid_name(cells)} sweep:",
                  "run-subset")
    # row shift[i] + p of the stack holds column dims[p] in cells[i] cells
    sizes = sorted(set(cells))
    shift = [sizes.index(c) * places for c in cells]
    # the battery's sweep selects every column in order: a view, no copy
    selected = (d2.data.T if list(dims) == list(range(d2.k))
                else d2.data.T[list(dims)])
    tails = shift[-1]
    hit = _first_unbalanced(
        [selected] * len(sizes), [c for c in sizes for _ in dims],
        ((tuple(map(add, shift, h)), tails + (h[-1] + 1 if h else 0),
          tails + places)
         for h in combinations(range(places - 1), r - 1)),
        [n // c for c in sizes])
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
    failing subset.  A strength outside 1..m is refused, and the design
    and each check sized, before any counting (TooLargeError over a
    cap); the sweep, reported last, runs first."""
    _require_level_count(s)
    require_mcd_work(d1.n, d1.m, d2.k)
    if strength is not None:
        _require_strength(strength, d1.m)
        _require_work(d1.n * comb(d1.m, strength),
                      f"oa-strength({strength}) check counts", "run-subset")
    if stratify is not None:
        if len(stratify) > d2.k:
            raise BadParamsError(
                f"grid arity {len(stratify)} exceeds the {d2.k} columns")
        sweep = check_grid_stratification(d2, tuple(range(d2.k)), stratify)
    checks = [*check_mcd(d1, d2, s).checks, *check_noncascading(d2, s).checks]
    if strength is not None:
        # check_mcd opens with this very check: list it again, not rerun
        checks += (checks[:1] if strength == min(2, d1.m)
                   else check_oa_strength(d1, strength).checks)
    if stratify is not None:
        checks += sweep.checks if not sweep.passed else (CheckResult(
            _grid_name(stratify) + " on all column subsets", (), True),)
    return VerificationReport(tuple(checks))
