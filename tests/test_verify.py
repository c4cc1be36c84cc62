"""Brute-force checks: strength, coupling, cascading, grid stratification."""

import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import prod

import numpy as np
import pytest

import mcd_forge.verify as verify
from mcd_forge.construct import anti_mirror_construction, direct_construction
from mcd_forge.designs import (
    CollapsedDesign,
    LatinHypercube,
    OrthogonalArray,
    expand_levels,
)
from mcd_forge.errors import (
    BadGridError,
    BadParamsError,
    MalformedCollapsedDesignError,
    McdForgeError,
    NotDivisibleError,
    RunCountMismatchError,
    StrengthExceedsColumnsError,
    TooLargeError,
)
from mcd_forge.gf import galois_field
from mcd_forge.verify import (
    CheckResult,
    VerificationReport,
    battery,
    check_grid_stratification,
    check_mcd,
    check_mcd_by_slices,
    check_noncascading,
    check_oa_strength,
)
from golden_data import EXAMPLE1_COLLAPSED, EXAMPLE1_QUALITATIVE

# 4-run, 3-column, 2-level array of strength exactly 2
OA_4_3_2 = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_check_result_lines():
    ok = CheckResult("latin-hypercube", (), True)
    assert ok.line() == "[pass] latin-hypercube"
    bad = CheckResult("pair-balance", (0, 1), False, "something off")
    assert bad.line() == "[FAIL] pair-balance (0, 1) -- something off"


def test_report_aggregation():
    a = check_oa_strength(OrthogonalArray(OA_4_3_2, (2, 2, 2)), 2)
    assert a.passed
    assert a.failures() == ()
    assert a.lines() == ["[pass] oa-strength(2)"]
    b = check_oa_strength(OrthogonalArray([[0], [0], [1], [0]], (2,)), 1)
    assert not b.passed
    merged = VerificationReport(a.checks + b.checks)
    assert len(merged.checks) == 2
    assert not merged.passed
    assert len(merged.failures()) == 1


def test_oa_strength_passes():
    oa = OrthogonalArray(OA_4_3_2, (2, 2, 2))
    assert check_oa_strength(oa, 1).passed
    assert check_oa_strength(oa, 2).passed


def test_oa_strength_mixed_levels():
    rows = [(a, b) for a in range(2) for b in range(4)]
    oa = OrthogonalArray(rows, (2, 4))
    assert check_oa_strength(oa, 2).passed
    # the first off-count code decodes digit by digit over levels (2, 4)
    rows[5] = (1, 2)
    failure = check_oa_strength(OrthogonalArray(rows, (2, 4)), 2).checks[0]
    assert failure.subject == (0, 1)
    assert failure.detail == "combination (1, 1) appears 0 times, expected 1"


def test_oa_strength_detects_imbalance():
    tampered = [row[:] for row in OA_4_3_2]
    tampered[0][0] = 1
    report = check_oa_strength(OrthogonalArray(tampered, (2, 2, 2)), 2)
    assert not report.passed
    failure = report.failures()[0]
    # lexicographically first violating subset and combination
    assert failure.subject == (0, 1)
    assert "combination (0, 0) appears 0 times, expected 1" in failure.detail


def test_oa_strength_not_divisible():
    oa = OrthogonalArray(OA_4_3_2, (2, 2, 2))
    report = check_oa_strength(oa, 3)
    assert not report.passed
    assert "not divisible" in report.failures()[0].detail


def test_oa_strength_fails_closed_on_a_level_count_past_int32():
    # the count path is chosen before any level is held as an int32, and
    # the narrowed copy is sized by the levels up to n, so a declared
    # level count of 2^40 gives its report on any run count
    for n in (4096, 1 << 15):
        rows = np.arange(n)
        data = np.column_stack([rows % 2, rows // 2 % 2, np.zeros_like(rows)])
        report = check_oa_strength(OrthogonalArray(data, (2, 2, 2 ** 40)), 2)
        assert report.lines() == [
            f"[FAIL] oa-strength(2) (0, 2) -- run count {n} not divisible by "
            "2199023255552 level combinations"]


def test_oa_strength_out_of_range_entries():
    for bad_value in (2, -1):
        data = [row[:] for row in OA_4_3_2]
        data[3][2] = bad_value
        report = check_oa_strength(OrthogonalArray(data, (2, 2, 2)), 1)
        assert not report.passed
        assert "outside the declared level range" in report.failures()[0].detail


def test_oa_strength_parameter_validation():
    oa = OrthogonalArray(OA_4_3_2, (2, 2, 2))
    with pytest.raises(ValueError):
        check_oa_strength(oa, 0)
    with pytest.raises(BadParamsError, match="strength must be at least 1"):
        check_oa_strength(oa, -1)
    with pytest.raises(StrengthExceedsColumnsError):
        check_oa_strength(oa, 4)


def _example1_design():
    d1 = OrthogonalArray([[v] for v in EXAMPLE1_QUALITATIVE], (3,))
    collapsed = CollapsedDesign(3, [[v] for v in EXAMPLE1_COLLAPSED])
    d2 = expand_levels(collapsed, 3)
    return d1, d2


def test_mcd_checks_pass_on_worked_example():
    d1, d2 = _example1_design()
    assert check_mcd(d1, d2, 3).passed
    assert check_mcd_by_slices(d1, d2, 3).passed


def test_mcd_checks_pass_on_tiny_hand_design():
    d1 = OrthogonalArray([[0], [1], [0], [1]], (2,))
    d2 = LatinHypercube([[0], [2], [3], [1]])
    assert check_mcd(d1, d2, 2).passed
    assert check_mcd_by_slices(d1, d2, 2).passed


def test_mcd_checks_fail_on_tampered_design():
    d1, d2 = _example1_design()
    data = d2.data.copy()
    # swap two values that live in different windows of the same D1 slice
    data[0, 0], data[3, 0] = data[3, 0], data[0, 0]
    bad = LatinHypercube(data)
    r1 = check_mcd(d1, bad, 3)
    r2 = check_mcd_by_slices(d1, bad, 3)
    assert not r1.passed
    assert not r2.passed
    names = [c.name for c in r1.failures()]
    assert "pair-balance" in names
    names2 = [c.name for c in r2.failures()]
    assert "slice-coverage" in names2
    assert r2.failures()[-1] == CheckResult(
        "slice-coverage", (0, 0), False,
        "D1 column 0 level 0: D2 column 0 has 0 points in window [0, 2], "
        "expected 1")


def test_mcd_detects_unbalanced_qualitative_part():
    d1 = OrthogonalArray([[0], [0], [0], [1]], (2,))
    d2 = LatinHypercube([[0], [2], [3], [1]])
    report = check_mcd(d1, d2, 2)
    assert not report.passed
    assert report.failures()[0].name == "oa-strength(1)"


def test_mcd_detects_broken_latin_column():
    d1 = OrthogonalArray([[0], [1], [0], [1]], (2,))
    d2 = LatinHypercube([[0], [2], [3], [3]])
    report = check_mcd(d1, d2, 2)
    assert not report.passed
    failure = next(c for c in report.failures()
                   if c.name == "latin-hypercube")
    assert "value 1 missing" in failure.detail


def test_mcd_structural_errors():
    d1 = OrthogonalArray([[0], [1], [0]], (2,))
    d2 = LatinHypercube([[0], [1], [2], [3]])
    with pytest.raises(RunCountMismatchError):
        check_mcd(d1, d2, 2)
    with pytest.raises(NotDivisibleError):
        check_mcd(OrthogonalArray([[0], [1], [0], [1]], (2,)), d2, 3)


def test_mcd_oracles_agree_on_random_inputs():
    # the collapsed pair condition and the window-counting definition must
    # deliver the same verdict on arbitrary designs, valid or not
    rng = np.random.default_rng(424242)
    for s, n in [(2, 8), (3, 9), (3, 27)]:
        for _ in range(25):
            m = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            d1 = OrthogonalArray(
                rng.integers(0, s, size=(n, m)), (s,) * m)
            d2 = LatinHypercube(np.stack(
                [rng.permutation(n) for _ in range(k)], axis=1))
            assert (check_mcd(d1, d2, s).passed
                    == check_mcd_by_slices(d1, d2, s).passed)


def _loop_slice_coverage(d1, d2, s):
    """The per-window loop form of the by-slices oracle, kept as the
    reference its one-count-per-slice form must reproduce exactly."""
    nlev = d1.n // s
    for i in range(d1.m):
        col = d1.data[:, i]
        for level in sorted(set(col.tolist())):
            rows = np.flatnonzero(col == level)
            for j in range(d2.k):
                values = d2.data[rows, j].tolist()
                for v in range(nlev):
                    window = [x for x in values if v * s <= x < (v + 1) * s]
                    if len(window) != 1:
                        return CheckResult(
                            "slice-coverage", (i, j), False,
                            f"D1 column {i} level {level}: D2 column {j} has "
                            f"{len(window)} points in window "
                            f"[{v * s}, {(v + 1) * s - 1}], expected 1")
    return CheckResult("slice-coverage", (), True)


def _tampered_copies(d1, d2, s, rng):
    """The design itself, then copies with one D2 swap, one D2 entry out of
    0..n-1, one D1 entry out of 0..s-1 (the int64 extremes included, for
    both), or one column replaced."""
    n, m, k = d1.n, d1.m, d2.k
    yield d1, d2
    int64 = np.iinfo(np.int64)
    for value in (-5, n, n + 44, 2 ** 62, int(int64.min), int(int64.max)):
        data = d2.data.astype(np.int64)
        data[rng.integers(n), rng.integers(k)] = value
        yield d1, LatinHypercube(data)
    for _ in range(3):
        data = d2.data.copy()
        j, (a, b) = rng.integers(k), rng.choice(n, 2, replace=False)
        data[[a, b], j] = data[[b, a], j]
        yield d1, LatinHypercube(data)
    for value in (-1, s, int(int64.min), int(int64.max)):
        data = d1.data.astype(np.int64)
        data[rng.integers(n), rng.integers(m)] = value
        yield OrthogonalArray(data, d1.levels), d2
    if k > 1:
        data = d2.data.copy()
        data[:, k - 1] = data[:, 0]
        yield d1, LatinHypercube(data)
    if m > 1:
        data = d1.data.copy()
        data[:, 0] = data[:, m - 1]
        yield OrthogonalArray(data, d1.levels), d2


def test_mcd_by_slices_matches_the_per_window_loop():
    rng = np.random.default_rng(20261018)
    designs = [(mcd.d1, mcd.d2, mcd.params.s) for mcd in (
        direct_construction(galois_field(2), 4, 2),
        direct_construction(galois_field(3), 3, 2),
        direct_construction(galois_field(4), 3, 2, "ii", seed=7),
        anti_mirror_construction(5, 2, seed=11),
    )]
    for s, n in [(2, 8), (3, 9), (3, 27), (4, 16)]:
        for _ in range(8):
            m, k = (int(x) for x in rng.integers(1, 4, size=2))
            designs.append((
                OrthogonalArray(rng.integers(0, s, size=(n, m)), (s,) * m),
                LatinHypercube(np.stack(
                    [rng.permutation(n) for _ in range(k)], axis=1)),
                s))
    verdicts = []
    for d1, d2, s in designs:
        for t1, t2 in _tampered_copies(d1, d2, s, rng):
            report = check_mcd_by_slices(t1, t2, s)
            assert len(report.checks) == 3
            assert report.checks[-1] == _loop_slice_coverage(t1, t2, s)
            verdicts.append(report.checks[-1].passed)
    assert any(verdicts) and not all(verdicts)


def test_noncascading_check():
    ok = CollapsedDesign(2, [[0, 0], [0, 1], [1, 0], [1, 1]])
    assert check_noncascading(ok).passed
    # second column is a relabeling of the first
    dup = CollapsedDesign(2, [[0, 1], [0, 1], [1, 0], [1, 0]])
    report = check_noncascading(dup)
    assert not report.passed
    assert report.failures()[0].subject == (0, 1)
    # columns A, B, B', A': the lexicographically first pair is (0, 3),
    # not the first duplicate met in column order, (1, 2)
    abba = CollapsedDesign(2, [[0, 0, 1, 1], [0, 1, 0, 1],
                               [1, 0, 1, 0], [1, 1, 0, 0]])
    assert check_noncascading(abba).failures()[0].subject == (0, 3)
    # a single column never cascades
    assert check_noncascading(CollapsedDesign(2, [[0], [0], [1], [1]])).passed


def test_grid_stratification_passes():
    data = [[0, 0], [1, 2], [2, 4], [3, 6], [4, 1], [5, 3], [6, 5], [7, 7]]
    d2 = LatinHypercube(data)
    report = check_grid_stratification(d2, (0, 1), (2, 2))
    assert report.passed
    assert report.checks[0].name == "grid-stratification(2x2)"
    # any single Latin column stratifies on any divisor cell count
    for c in (1, 2, 4, 8):
        assert check_grid_stratification(d2, (0,), (c,)).passed


def test_grid_stratification_detects_clumping():
    # both columns identical: diagonal cells get everything
    data = np.stack([np.arange(8), np.arange(8)], axis=1)
    report = check_grid_stratification(LatinHypercube(data), (0, 1), (2, 2))
    assert not report.passed
    assert "cell (0, 0) holds 4 points, expected 2" in report.failures()[0].detail


def test_grid_stratification_parameter_validation():
    d2 = LatinHypercube([[v] for v in range(8)])
    with pytest.raises(BadGridError):
        check_grid_stratification(d2, (), ())
    with pytest.raises(BadGridError):
        check_grid_stratification(d2, (0,), (2, 2))
    with pytest.raises(BadGridError):
        check_grid_stratification(d2, (1,), (2,))
    with pytest.raises(BadGridError):
        check_grid_stratification(d2, (0,), (3,))
    with pytest.raises(BadGridError):
        check_grid_stratification(d2, (0,), (0,))
    two = LatinHypercube(np.stack([np.arange(8), np.arange(8)], axis=1))
    with pytest.raises(BadGridError):
        check_grid_stratification(two, (0, 1), (4, 4))


def test_oa_strength_out_of_range_in_later_column():
    # a 3 in column 1 must not alias into a valid (level, level) cell
    data = [[0, 3], [0, 1], [0, 2], [0, 0], [1, 1], [1, 2],
            [2, 0], [2, 1], [2, 2]]
    report = check_oa_strength(OrthogonalArray(data, (3, 3)), 2)
    assert not report.passed
    failure = report.failures()[0]
    assert failure.subject == (0, 1)
    assert failure.detail == "entries outside the declared level range"


def test_oa_strength_reports_first_subset_with_bad_column():
    # column 2 is out of range, but subset (0, 1) is unbalanced first
    data = [[0, 0, 0], [0, 0, 1], [1, 0, 1], [1, 1, 5]]
    report = check_oa_strength(OrthogonalArray(data, (2, 2, 2)), 2)
    assert report.failures()[0].subject == (0, 1)
    assert "appears" in report.failures()[0].detail
    report = check_oa_strength(OrthogonalArray(data, (2, 2, 2)), 1)
    assert report.failures()[0].subject == (1,)


def test_grid_stratification_out_of_range_values():
    data = [[0, 0], [1, 1], [2, 4], [3, 8], [4, 2], [5, 5], [6, 6], [7, -1]]
    report = check_grid_stratification(LatinHypercube(data), (0, 1), (2, 2))
    assert not report.passed
    failure = report.failures()[0]
    assert failure.subject == (0, 1)
    assert failure.detail == "entries outside the declared level range"
    # 2**62 * 4 wraps to 0 in int64, the cell the missing 0 left short:
    # the cell index must not be formed by multiplying first
    huge = LatinHypercube([[2 ** 62]] + [[v] for v in range(1, 16)])
    report = check_grid_stratification(huge, (0,), (4,))
    assert report.failures()[0].detail == (
        "entries outside the declared level range")


def test_pair_balance_out_of_range_collapsed_levels():
    # D2 // 2 is [0, 2, -1, 1]: without the range check the codes
    # D1 * 2 + collapsed land on every valid cell exactly once
    d1 = OrthogonalArray([[0], [0], [1], [1]], (2,))
    d2 = LatinHypercube([[0], [4], [-2], [2]])
    report = check_mcd(d1, d2, 2)
    pair = next(c for c in report.checks if c.name == "pair-balance")
    assert not pair.passed
    assert pair.subject == (0, 0)
    assert "levels out of range" in pair.detail
    assert not check_mcd_by_slices(d1, d2, 2).passed


def _anti_mirror(u=4):
    return anti_mirror_construction(u, 2, "identity")


def test_battery_runs_each_strength_once(monkeypatch):
    calls = []
    real = verify.check_oa_strength

    def counting(a, t):
        calls.append(t)
        return real(a, t)

    monkeypatch.setattr(verify, "check_oa_strength", counting)
    mcd = _anti_mirror()
    report = battery(mcd.d1, mcd.d2, 2, strength=2)
    assert calls == [2]
    assert [c.name for c in report.checks] == [
        "oa-strength(2)", "latin-hypercube", "pair-balance",
        "non-cascading", "oa-strength(2)"]
    calls.clear()
    report = battery(mcd.d1, mcd.d2, 2, strength=1)
    assert calls == [2, 1]
    assert report.checks[-1].name == "oa-strength(1)"


def test_battery_stratify_sweep():
    mcd = _anti_mirror(5)
    report = battery(mcd.d1, mcd.d2, 2, stratify=(2, 2, 2))
    assert report.passed
    assert report.lines()[-1] == (
        "[pass] grid-stratification(2x2x2) on all column subsets")
    # identical columns clump on the diagonal of every 2x2 grid
    twin = LatinHypercube(np.repeat(mcd.d2.data[:, :1], 2, axis=1))
    report = battery(mcd.d1, twin, 2, stratify=(2, 2))
    assert report.checks[-1].subject == (0, 1)
    assert not report.checks[-1].passed
    with pytest.raises(BadParamsError, match="grid arity 3 exceeds"):
        battery(mcd.d1, twin, 2, stratify=(2, 2, 2))


def test_battery_refuses_a_strength_outside_1_to_m_before_counting(
        monkeypatch):
    # the whole battery, the sweep included, used to run before
    # check_oa_strength refused the strength: 0.28-0.30 s on a 2^11-run
    # design, for an answer known from m alone
    mcd = _anti_mirror()
    m = mcd.d1.m

    def no_counting(*args):
        raise AssertionError("counted before refusing the strength")

    monkeypatch.setattr(verify, "_first_unbalanced", no_counting)
    for strength, error, text in (
            (0, BadParamsError, "strength must be at least 1"),
            (-1, BadParamsError, "strength must be at least 1"),
            (m + 1, StrengthExceedsColumnsError,
             f"strength {m + 1} exceeds column count {m}"),
            (999, StrengthExceedsColumnsError,
             f"strength 999 exceeds column count {m}")):
        with pytest.raises(error) as exc:
            battery(mcd.d1, mcd.d2, 2, strength=strength, stratify=(2, 2))
        assert str(exc.value) == text
        # the strength is now refused before a grid wider than D2
        with pytest.raises(error):
            battery(mcd.d1, mcd.d2, 2, strength=strength,
                    stratify=(2,) * (mcd.d2.k + 1))


def _reference_first_failure(data, levels, subsets):
    """Per-subset reference for the counting kernel: divisibility, then the
    range of each column, then a Counter of row tuples, subset by subset."""
    n = len(data)
    for cols in subsets:
        full = prod(levels[c] for c in cols)
        if n % full:
            return cols, (f"run count {n} not divisible by {full} level "
                          "combinations")
        if any(not 0 <= row[c] < levels[c] for row in data for c in cols):
            return cols, "entries outside the declared level range"
        counts = Counter(tuple(row[c] for c in cols) for row in data)
        for combo in product(*(range(levels[c]) for c in cols)):
            if counts[combo] != n // full:
                return cols, (f"combination {combo} appears {counts[combo]} "
                              f"times, expected {n // full}")
    return None


def _mixed_level_array(rng):
    """Columns of levels 2, 3, 4 and 6, each balanced over a replicated
    2 x 3 x 4 factorial; some have their rows shuffled, so higher strengths
    fail at varied subsets."""
    grid = np.array(list(product(range(2), range(3), range(4))))
    grid = np.tile(grid, (int(rng.integers(1, 3)), 1))
    pool = {2: [grid[:, 0], grid[:, 2] % 2, (grid[:, 0] + grid[:, 2]) % 2],
            3: [grid[:, 1], (grid[:, 1] + grid[:, 2]) % 3],
            4: [grid[:, 2], (grid[:, 2] + 2 * grid[:, 0]) % 4],
            6: [grid[:, 0] * 3 + grid[:, 1], grid[:, 1] * 2 + grid[:, 2] % 2]}
    cols, levels = [], []
    for _ in range(int(rng.integers(1, 7))):
        lev = int(rng.choice([2, 3, 4, 6]))
        options = pool[lev]
        col = options[int(rng.integers(len(options)))].copy()
        if rng.random() < 0.3:
            rng.shuffle(col)
        cols.append(col)
        levels.append(lev)
    return np.column_stack(cols), levels


def test_counting_kernel_matches_per_subset_reference():
    rng = np.random.default_rng(20240607)
    seen = set()
    for trial in range(400):
        data, levels = _mixed_level_array(rng)
        n, m = data.shape
        fault = trial % 4
        col = int(rng.integers(m))
        if fault == 1 and m > 1:
            # a negative entry in a later column must not alias into the
            # block of the column before it
            data[int(rng.integers(n)), max(col, 1)] = -1
        elif fault == 2:
            data[int(rng.integers(n)), col] = levels[col]
        elif fault == 3:
            levels[col] = 5  # 5 divides no run count here
            data[:, col] %= 5
        for t in range(1, min(3, m) + 1):
            report = check_oa_strength(OrthogonalArray(data, levels), t)
            expected = _reference_first_failure(
                data.tolist(), levels, combinations(range(m), t))
            got = report.checks[0]
            if expected is None:
                assert got.passed and got.subject == ()
            else:
                assert not got.passed
                assert (got.subject, got.detail) == expected
                seen.add(expected[1].split()[0])
    # every kind of failure came up
    assert seen == {"run", "entries", "combination"}


def test_pair_balance_batch_stops_at_an_out_of_range_tail():
    mcd = _anti_mirror()
    n, k = mcd.d2.n, mcd.d2.k
    for j in (1, k - 1):
        for value in (-2, n):
            d2 = mcd.d2.data.copy()
            d2[3, j] = value
            report = check_mcd(mcd.d1, LatinHypercube(d2), 2)
            pair = next(c for c in report.checks if c.name == "pair-balance")
            tilde = np.hstack([mcd.d1.data, d2 // 2]).tolist()
            subsets = [(i, mcd.d1.m + jj) for i in range(mcd.d1.m)
                       for jj in range(k)]
            cols, _ = _reference_first_failure(
                tilde, [2] * mcd.d1.m + [n // 2] * k, subsets)
            assert pair.subject == (cols[0], cols[1] - mcd.d1.m) == (0, j)
            assert pair.detail == (f"levels out of range for D1 column 0 / "
                                   f"collapsed D2 column {j}")


def test_pair_balance_fails_closed_on_a_design_without_runs():
    d1 = OrthogonalArray(np.zeros((0, 2), dtype=np.int64), (2, 2))
    d2 = LatinHypercube(np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(BadParamsError, match="^the design has no runs$"):
        check_mcd(d1, d2, 2)


def test_both_oracles_refuse_a_design_without_runs_or_d1_columns():
    # no runs: check_mcd failed pair balance on levels "out of range",
    # where check_mcd_by_slices passed; no D1 columns: both asked for a
    # strength of at least 1, which no caller gave
    cases = (
        (OrthogonalArray(np.zeros((0, 2), dtype=np.int64), (2, 2)),
         LatinHypercube(np.zeros((0, 3), dtype=np.int64)),
         "the design has no runs"),
        (OrthogonalArray(np.zeros((4, 0), dtype=np.int64), ()),
         LatinHypercube(np.arange(4).reshape(4, 1)), "D1 has no columns"))
    for d1, d2, message in cases:
        for check in (check_mcd, check_mcd_by_slices, battery):
            with pytest.raises(BadParamsError, match=f"^{message}$"):
                check(d1, d2, 2)


def test_strength_and_grid_checks_refuse_a_design_without_runs():
    # each count of a design without runs is 0 = n / size, so both checks
    # passed it, where check_mcd refuses it
    d1 = OrthogonalArray(np.zeros((0, 2), dtype=np.int64), (2, 2))
    d2 = LatinHypercube(np.zeros((0, 3), dtype=np.int64))
    for check in (lambda: check_oa_strength(d1, 2),
                  lambda: check_oa_strength(d1, 1),
                  lambda: check_grid_stratification(d2, (0, 1, 2), (2, 2)),
                  lambda: check_grid_stratification(d2, (0,), (2,))):
        with pytest.raises(BadParamsError, match="^the design has no runs$"):
            check()


def test_grid_stratification_matches_per_subset_reference():
    rng = np.random.default_rng(7)
    mcd = _anti_mirror(5)
    data = mcd.d2.data.copy()
    data[:, 3] = rng.permutation(data[:, 3])
    n = mcd.d2.n
    for cells in ((2,), (2, 4), (4, 2), (2, 2, 2), (4, 2, 2)):
        for dims in combinations(range(6), len(cells)):
            report = check_grid_stratification(LatinHypercube(data), dims,
                                               cells)
            cell_rows = [[row[d] // (n // c) for d, c in zip(dims, cells)]
                         for row in data.tolist()]
            found = _reference_first_failure(
                cell_rows, list(cells), [tuple(range(len(cells)))])
            got = report.checks[0]
            if found is None:
                assert got.passed
            else:
                detail = found[1].replace("combination", "cell").replace(
                    "appears", "holds").replace(" times", " points")
                assert got.detail == detail



def _grid_reference(data, dims, cells):
    """The per-subset definition of the grid sweep: each len(cells)-subset
    of places in ``dims``, in lexicographic order, mapped to cell units
    and counted by ``_reference_first_failure``."""
    n = len(data)
    for places in combinations(range(len(dims)), len(cells)):
        cols = tuple(dims[p] for p in places)
        cell_rows = [[row[d] // (n // c) for d, c in zip(cols, cells)]
                     for row in data]
        found = _reference_first_failure(cell_rows, list(cells),
                                         [tuple(range(len(cells)))])
        if found:
            return cols, found[1].replace("combination", "cell").replace(
                "appears", "holds").replace(" times", " points")
    return None


def test_grid_sweep_matches_per_subset_definition():
    rng = np.random.default_rng(2718)
    mcd = _anti_mirror(5)
    seen = set()
    for trial in range(48):
        if trial % 2:
            n, k = 16, int(rng.integers(3, 6))
            data = np.column_stack([rng.permutation(n) for _ in range(k)])
        else:
            data = mcd.d2.data.copy()
            n, k = data.shape
            col = int(rng.integers(k))
            if trial % 4:
                data[:, col] = rng.permutation(data[:, col])
            else:
                # two swapped entries break a few cells of one column
                i, j = rng.choice(n, 2, replace=False)
                data[[i, j], col] = data[[j, i], col]
        if trial % 3 == 0:
            # an entry past either end of 0..n-1, negative ones included
            data[int(rng.integers(n)), int(rng.integers(k))] = int(
                rng.choice([-1, -n - 3, n, 2 * n + 1]))
        d2 = LatinHypercube(data)
        for cells in ((2,), (2, 4), (4, 2), (2, 2, 2), (4, 2, 2)):
            # unsorted, and with repeats
            dims = tuple(int(d) for d in rng.choice(
                k, int(rng.integers(len(cells), len(cells) + 3))))
            got = check_grid_stratification(d2, dims, cells).checks[0]
            expected = _grid_reference(data.tolist(), dims, cells)
            one_by_one = next((r.checks[0] for r in (
                check_grid_stratification(d2, tuple(dims[p] for p in places),
                                          cells)
                for places in combinations(range(len(dims)), len(cells)))
                if not r.passed), None)
            if expected is None:
                assert got.passed and got.subject == dims
                assert one_by_one is None
            else:
                assert not got.passed
                assert (got.subject, got.detail) == expected
                assert (one_by_one.subject, one_by_one.detail) == expected
                seen.add(expected[1].split()[0])
    assert seen == {"cell", "entries"}


def test_counting_kernel_keeps_wide_levels_and_wrapping_entries():
    # wide levels are multiplied past the narrow copy's type: codes must be
    # formed in int64; entries that wrap onto a valid level in that type
    # must still read as out of range.  Every input here has more than
    # 2^16 cells, so the kernel holds a narrow copy
    for wide in (200, 40000):
        n = 4 * wide * -(-(1 << 15) // (4 * wide))
        rows = np.arange(n)
        data = np.column_stack([rows % 2, rows // 2 % wide,
                                rows // (2 * wide) % 2])
        levels = (2, wide, 2)
        for row, col, value in ((n - 1, 1, wide - 2), (n - 1, 1, None),
                                (3, 0, 2 ** 32 + 1), (3, 2, -255),
                                (5, 1, -(2 ** 16) + 1)):
            tampered = data.copy()
            if value is not None:
                tampered[row, col] = value
            # one subset: the head (0, 1) weighs column 1 by 2, and the
            # tail is weighed by 2 * wide
            report = check_oa_strength(OrthogonalArray(tampered, levels), 3)
            expected = _reference_first_failure(tampered.tolist(), levels,
                                                [(0, 1, 2)])
            got = report.checks[0]
            if expected is None:
                assert got.passed
            else:
                assert (got.subject, got.detail) == expected
    # pair balance stacks D1 with collapsed D2 (levels n / 2) in one copy
    n = 1 << 15
    rows = np.arange(n)
    d2 = LatinHypercube(np.column_stack([rows, n - 1 - rows]))
    for value in (None, 2 ** 32 + 1, -(2 ** 16) + 1):
        d1 = np.column_stack([rows % 2, 1 - rows % 2])
        if value is not None:
            d1[2, 1] = value
        pair = check_mcd(OrthogonalArray(d1, (2, 2)), d2, 2).checks[2]
        if value is None:
            assert pair.passed
        else:
            assert (pair.subject, pair.detail) == (
                (1, 0), "levels out of range for D1 column 1 / collapsed D2 "
                        "column 0")


@pytest.fixture(params=["product", "bincount"])
def count_path(request, monkeypatch):
    """Runs a test once with every scan whose operands fit counted as
    one-hot products, however few its heads, and once with every scan
    counted by bincount; each run checks that its path was taken."""
    calls = []
    real = verify._products_clear

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "_products_clear", counted)
    if request.param == "product":
        monkeypatch.setattr(verify, "NARROW_TABLE", 1 << 30)
        monkeypatch.setattr(verify, "PRODUCT_CELLS", 0)
        # one-hots of 1024 rows, so that a table of 800 cells fits one
        monkeypatch.setattr(verify, "ONEHOT_BYTES", 1 << 25)
    else:
        monkeypatch.setattr(verify, "NARROW_TABLE", 0)
    yield request.param
    assert bool(calls) == (request.param == "product")


def test_kernel_references_hold_on_each_count_path(count_path):
    test_counting_kernel_matches_per_subset_reference()
    test_grid_stratification_matches_per_subset_reference()
    test_counting_kernel_keeps_wide_levels_and_wrapping_entries()


def test_count_paths_agree_on_degenerate_inputs(monkeypatch):
    # runless designs, 0- and 1-level columns and entries out of range:
    # with every scan sent to products, or none, the kernel answers alike
    rng = np.random.default_rng(11)
    for _ in range(300):
        c, n = int(rng.integers(1, 6)), int(rng.choice([0, 1, 4, 6, 12]))
        levels = [int(rng.choice([0, 1, 2, 3, 6])) for _ in range(c)]
        data = np.array([rng.integers(0, lev, n) if lev else np.zeros(n)
                         for lev in levels], dtype=np.int64).reshape(c, n)
        if n and rng.random() < 0.3:
            data[int(rng.integers(c)), int(rng.integers(n))] = int(
                rng.choice([-1, 7, 2 ** 40]))
        t = int(rng.integers(1, min(3, c) + 1))
        scans = [(h, h[-1] + 1 if h else 0, c)
                 for h in combinations(range(c - 1), t - 1)]
        answers = []
        for narrow, cells in ((1 << 30, 0), (0, 1 << 16)):
            monkeypatch.setattr(verify, "NARROW_TABLE", narrow)
            monkeypatch.setattr(verify, "PRODUCT_CELLS", cells)
            answers.append(verify._first_unbalanced((data,), levels, scans))
        assert answers[0] == answers[1]


def _product_path_cases():
    """The two checks the product path carries on the benchmark, on their
    designs: D1 of theorem1 s=4 u=5 u1=3 item ii at strength 2 (144
    columns of 4 levels on 1024 runs), and the 2x2x2 sweep of an
    anti-mirror u=8 D2 (64 columns on 256 runs); then each with one entry
    of its last column moved, and out of range."""
    d1 = direct_construction(galois_field(4), 5, 3, "ii", seed=1).d1
    d2 = anti_mirror_construction(8, 2, 1).d2
    cases = []
    for fault in (None, "moved", "out of range"):
        a, b = d1.data.copy(), d2.data.copy()
        if fault == "moved":
            a[5, -1], b[5, -1] = (a[5, -1] + 1) % 4, (b[5, -1] + 128) % 256
        elif fault:
            a[5, -1], b[5, -1] = 4, 256
        cases.append(lambda a=a: check_oa_strength(
            OrthogonalArray(a, d1.levels), 2))
        cases.append(lambda b=b: check_grid_stratification(
            LatinHypercube(b), tuple(range(d2.k)), (2, 2, 2)))
    return cases


def test_exactness_bound_routes_around_products(monkeypatch):
    # float32 counts are exact only below 2^24 runs; with that bound set
    # below n every scan goes to bincount, and the reports stay the same
    calls = []
    real = verify._products_clear
    monkeypatch.setattr(verify, "_products_clear",
                        lambda *args: calls.append(args) or real(*args))
    reports = [case() for case in _product_path_cases()]
    assert [r.passed for r in reports] == [True, True] + [False] * 4
    assert calls
    calls.clear()
    monkeypatch.setattr(verify, "EXACT_FLOAT32", 256)
    assert [case() for case in _product_path_cases()] == reports
    assert calls == []


def test_count_path_is_chosen_once_per_call(monkeypatch):
    # products only when the t largest levels make a narrow table: with
    # levels 13, 2, 2 and 3 the table of (0, 3) has 39 cells, so the
    # narrow scans of heads (1,) and (2,) go to bincount with it
    calls = []
    real = verify._products_clear
    monkeypatch.setattr(verify, "_products_clear",
                        lambda *args: calls.append(args) or real(*args))
    levels = (13, 2, 2, 3)
    data = np.tile(np.array(list(product(*map(range, levels)))), (160, 1))
    for fault in (None, (7, 3, 2), (9, 1, 0)):
        if fault:
            data = data.copy()
            data[fault[:2]] = fault[2]
        report = check_oa_strength(OrthogonalArray(data, levels), 2)
        expected = _reference_first_failure(data.tolist(), levels,
                                            combinations(range(4), 2))
        assert (expected is None) == (fault is None) == report.passed
        if fault:
            got = report.checks[0]
            assert (got.subject, got.detail) == expected
    assert len(data) == 24960 and calls == []
    # the m144 strength-2 check and the anti8 2x2x2 sweep take products,
    # and the kernel reads a list of scans as it reads a generator
    for case in _product_path_cases()[:2]:
        assert case().passed and calls
        calls.clear()
    d1 = direct_construction(galois_field(4), 5, 3, "ii", seed=1).d1
    scans = [((i,), i + 1, d1.m) for i in range(d1.m - 1)]
    assert verify._first_unbalanced((d1.data.T,), d1.levels, scans) is None
    assert calls


def test_a_declined_block_costs_time_never_a_verdict(monkeypatch):
    # bincount recounts every block the products do not clear, so a
    # predicate that clears nothing leaves every report as it was
    reports = [case() for case in _product_path_cases()]
    monkeypatch.setattr(verify, "_products_clear", lambda *args: False)
    assert [case() for case in _product_path_cases()] == reports


def test_products_only_clear_in_range_blocks(monkeypatch):
    # a call holding an out-of-range column never reaches the predicate;
    # with one entry moved, it clears every block before the failure and
    # declines the block that holds it
    answers = []
    real = verify._products_clear

    def recorded(cols, levels, scans, width):
        answers.append((scans, real(cols, levels, scans, width)))
        return answers[-1][1]

    monkeypatch.setattr(verify, "_products_clear", recorded)
    cases = _product_path_cases()
    for case in cases[4:]:  # out of range
        assert case().checks[0].detail == (
            "entries outside the declared level range")
        assert answers == []
    for case in cases[2:4]:  # moved
        *head, j = case().checks[0].subject
        *cleared, (scans, clear) = answers
        assert all(ok for _, ok in cleared) and not clear
        assert any(tuple(head) == h and lo <= j < hi for h, lo, hi in scans)
        answers.clear()


def test_product_path_holds_its_byte_bound(monkeypatch):
    # every product call's traced peak, its operands, products and index
    # arrays together, stays within five one-hot operands
    peaks = []
    real = verify._products_clear

    def traced(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        found = real(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return found

    cases = _product_path_cases()
    monkeypatch.setattr(verify, "_products_clear", traced)
    tracemalloc.start()
    try:
        for case in cases:
            case()
    finally:
        tracemalloc.stop()
    assert len(peaks) > 10
    assert max(peaks) <= 5 * verify.ONEHOT_BYTES


def test_grid_stratification_call_is_sized_before_it_runs(monkeypatch):
    mcd = _anti_mirror()
    n, k = mcd.d2.n, mcd.d2.k
    monkeypatch.setattr(verify, "MAX_PAIR_WORK", n * k * (k - 1) // 2 - 1)
    with pytest.raises(TooLargeError, match=r"grid-stratification\(2x2\) "
                                            "sweep"):
        check_grid_stratification(mcd.d2, tuple(range(k)), (2, 2))
    assert check_grid_stratification(mcd.d2, tuple(range(k - 1)),
                                     (2, 2)).passed

def _reference_noncascading_pair(data):
    keys = []
    for col in data.T.tolist():
        mapping = {}
        keys.append(tuple(mapping.setdefault(v, len(mapping)) for v in col))
    pairs = [(i, j) for i in range(len(keys)) for j in range(i + 1, len(keys))
             if keys[i] == keys[j]]
    return pairs[0] if pairs else None


def test_noncascading_matches_dict_relabel_reference():
    rng = np.random.default_rng(11)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    for trial in range(300):
        n, k = int(rng.integers(1, 12)), int(rng.integers(1, 7))
        values = np.array([lo, hi, -3, -1, 0, 2])[:int(rng.integers(1, 7))]
        data = rng.choice(values, size=(n, k))
        if k > 1 and trial % 2:
            # a relabeled copy of one column in another
            i, j = sorted(rng.choice(k, 2, replace=False).tolist())
            relabel = dict(zip(values.tolist(),
                               rng.permutation(values).tolist()))
            data[:, j] = [relabel[v] for v in data[:, i].tolist()]
        report = check_noncascading(CollapsedDesign(2, data))
        expected = _reference_noncascading_pair(data)
        got = report.checks[0]
        assert got.subject == (expected or ())
        assert got.passed == (expected is None)


def _relabeled(column, values):
    """``column`` with its distinct levels, in order of first appearance,
    replaced by ``values`` in order: a relabeling onto any ints."""
    mapping = {}
    for v in column.tolist():
        if v not in mapping:
            mapping[v] = values[len(mapping)]
    return np.array([mapping[v] for v in column.tolist()], dtype=np.int64)


def _noncascading_cases(rng):
    """Collapsed designs with values in 0..n-1, which check_noncascading
    relabels in one pass: built ones, random ones, and copies with a
    relabeled or duplicated column, some across blocks of columns."""
    # a second column whose classes start after row 0: np.minimum.at with
    # 2-D codes and 1-D row numbers got these first rows wrong
    yield np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
    yield np.array([[0, 2, 2], [1, 2, 0], [1, 0, 0], [0, 0, 2]])
    for mcd, s in ((direct_construction(galois_field(2), 6, 2), 2),
                   (direct_construction(galois_field(3), 3, 2, "ii", 5), 3),
                   (anti_mirror_construction(5, 2, seed=3), 2)):
        data = (mcd.d2.data // s).astype(np.int64)
        yield data
        copy = data.copy()
        copy[:, -1] = _relabeled(copy[:, 1], rng.permutation(mcd.d2.n // s))
        yield copy
    for _ in range(60):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        data = rng.integers(0, min(n, int(rng.integers(1, 5))), size=(n, k))
        if k > 1:
            i, j = rng.choice(k, 2, replace=False)
            data[:, j] = _relabeled(data[:, i], rng.permutation(n))
        yield data
    # 2^14 runs: blocks of four columns; column 9 is column 2 relabeled,
    # and column 6 a copy of column 9
    n = 1 << 14
    data = np.stack([rng.permutation(n) // 2 for _ in range(11)], axis=1)
    data[:, 9] = _relabeled(data[:, 2], rng.permutation(n // 2))
    data[:, 6] = data[:, 9]
    yield data


def test_noncascading_one_pass_matches_the_sort_path_and_a_dict_relabel():
    # every block in 0..n-1 is relabeled in one pass; the same columns
    # moved out of that range, by a shift or onto the int64 extremes, are
    # first replaced by their ranks, one np.searchsorted into the sorted
    # column, in one block or all of them.  A shift or a relabeling keeps
    # every pair's verdict, so all must report as the pure-Python
    # first-occurrence relabel does, in every signed type that holds the
    # values
    rng = np.random.default_rng(20261019)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    kinds = (np.int8, np.int16, np.int32, np.int64)
    verdicts = []
    for data in _noncascading_cases(rng):
        n, k = data.shape
        expected = _reference_noncascading_pair(data)
        j = expected[1] if expected else int(rng.integers(k))
        edge = data.copy()  # one column onto the extremes, >= n and < 0
        edge[:, j] = _relabeled(edge[:, j], [lo, hi, n, -1, *range(
            n + 1, 2 * n)])
        variants = [data, data - n, data + n, edge]
        reports = set()
        for variant in variants:
            for kind in kinds:
                if np.iinfo(kind).min <= variant.min() \
                        and variant.max() <= np.iinfo(kind).max:
                    reports.add(check_noncascading(CollapsedDesign(
                        2, variant.astype(kind))))
        assert reports == {check_noncascading(CollapsedDesign(2, data))}
        got = reports.pop().checks[0]
        assert got.subject == (expected or ())
        assert got.passed == (expected is None)
        verdicts.append(got.passed)
    assert any(verdicts) and not all(verdicts)


def test_noncascading_reports_the_first_pair():
    data = [[5, 0, 9, -1, 0], [5, 1, 9, 7, 1], [6, 0, 8, -1, 0]]
    report = check_noncascading(CollapsedDesign(2, data))
    failure = report.failures()[0]
    # columns 0, 2 and 3 are relabelings of one another, and so are 1 and 4
    assert failure.subject == (0, 2)
    assert failure.detail == ("columns 0 and 2 are level-relabelings of "
                              "each other")
    assert check_noncascading(CollapsedDesign(2, [[3], [-3]])).passed


def test_stratify_sweep_is_sized_before_it_runs(monkeypatch):
    mcd = _anti_mirror(5)  # check_mcd's 544 cells stay under the cap
    n, k = mcd.d2.n, mcd.d2.k
    monkeypatch.setattr(verify, "MAX_PAIR_WORK", n * (k * (k - 1) // 2) - 1)
    with pytest.raises(TooLargeError, match="sweep"):
        battery(mcd.d1, mcd.d2, 2, stratify=(2, 2))
    # a one-column grid scans only k subsets, well under the cap
    assert battery(mcd.d1, mcd.d2, 2, stratify=(2,)).passed


def test_checks_refuse_a_level_count_below_one(monkeypatch):
    # s = 0 raised ZeroDivisionError; s = -3 gave a report, or a bare
    # ValueError from check_mcd_by_slices
    mcd = direct_construction(galois_field(3), 2, 1, "i")
    # s = 1 still gives its report: the 3-level D1 is out of range
    out_of_range = ("[FAIL] pair-balance (0, 0) -- levels out of range for "
                    "D1 column 0 / collapsed D2 column 0")
    assert check_mcd(mcd.d1, mcd.d2, 1).lines()[-1] == out_of_range
    assert check_mcd_by_slices(mcd.d1, mcd.d2, 1).lines()[-1].startswith(
        "[FAIL] slice-coverage (0, 0)")
    assert battery(mcd.d1, mcd.d2, 1).lines()[2:] == [
        out_of_range, "[FAIL] non-cascading (0, 1) -- columns 0 and 1 are "
        "level-relabelings of each other"]
    for s in (0, -3):
        message = f"^level count s must be at least 1, got {s}$"
        for check in (check_mcd, check_mcd_by_slices, battery):
            with pytest.raises(BadParamsError, match=message):
                check(mcd.d1, mcd.d2, s)

    def no_counting(*args):
        raise AssertionError("counted before refusing s")

    # the sweep runs first in battery, but s is refused before it
    monkeypatch.setattr(verify, "_first_unbalanced", no_counting)
    with pytest.raises(BadParamsError, match="got 0$"):
        battery(mcd.d1, mcd.d2, 0, strength=1, stratify=(3, 3))


def _outcome(check, *args, **kwargs):
    """A check's report, an expansion's values and type, or the type and
    text of the library error either raised."""
    try:
        out = check(*args, **kwargs)
    except McdForgeError as exc:
        return type(exc), str(exc)
    if isinstance(out, LatinHypercube):
        return out.data.dtype, out.data.tolist()
    return out


def _outcomes(d1, levels, d2, s, cells):
    """Every check on the int64 arrays ``d1`` and ``d2`` and their int8,
    int16 and int32 copies that hold every entry, and the expansion of
    the collapsed ``d2`` in each type, by type."""
    collapsed = np.floor_divide(d2, s)
    found = {}
    for kind in (np.int64, np.int8, np.int16, np.int32):
        info = np.iinfo(kind)
        if min(d1.min(), d2.min()) < info.min \
                or max(d1.max(), d2.max()) > info.max:
            continue
        a, b = OrthogonalArray(d1.astype(kind), levels), \
            LatinHypercube(d2.astype(kind))
        assert a.data.dtype == b.data.dtype == kind
        t = min(3, a.m)
        found[kind] = (
            _outcome(battery, a, b, s, strength=t, stratify=cells),
            *(_outcome(check_oa_strength, a, i) for i in range(1, t + 1)),
            _outcome(check_grid_stratification, b, tuple(range(b.k)), cells),
            _outcome(check_mcd_by_slices, a, b, s),
            *(_outcome(expand_levels,
                       CollapsedDesign(s, collapsed.astype(kind)), s, seed)
              for seed in ("identity", 7)))
    return found


def test_narrow_copies_give_the_reports_of_their_int64_arrays():
    # each build and tamper is held as int64, then as every narrower
    # signed type that holds it: reports, errors and expansions must not
    # depend on the type (nor, doing no narrow arithmetic, on numpy's
    # casting rules)
    rng = np.random.default_rng(20261019)
    builds = ((direct_construction(galois_field(2), 4, 2), (2, 2)),
              (direct_construction(galois_field(3), 3, 2), (3, 3)),
              (direct_construction(galois_field(4), 3, 2, "ii", seed=7),
               (4, 2)),
              (anti_mirror_construction(5, 2, seed=11), (2, 2, 2)))
    kinds, verdicts = Counter(), []
    for mcd, cells in builds:
        s = mcd.params.s
        for t1, t2 in _tampered_copies(mcd.d1, mcd.d2, s, rng):
            found = _outcomes(t1.data.astype(np.int64), t1.levels,
                              t2.data.astype(np.int64), s, cells)
            kinds.update(list(found))
            reference = found[np.int64]
            for kind, outcome in found.items():
                assert outcome == reference, (mcd.params, kind)
            verdicts.append(reference[0].passed)
    # the int64 extremes stay int64; -5, n and n + 44 fit every narrow type
    assert kinds[np.int64] > kinds[np.int32] == kinds[np.int8] > 0
    assert any(verdicts) and not all(verdicts)


def test_a_narrow_negative_entry_fails_closed_past_its_types_range():
    # -1 viewed unsigned in its own width reads 255 or 65,535, inside a
    # level count past the type's range: it must still be out of range
    for kind, levels in ((np.int8, 300), (np.int16, 40_000)):
        data = (np.arange(levels) % (np.iinfo(kind).max + 1))[:, None]
        data[3] = -1
        reports = {check_oa_strength(OrthogonalArray(data.astype(k),
                                                     (levels,)), 1)
                   for k in (kind, np.int64)}
        assert reports == {VerificationReport((CheckResult(
            "oa-strength(1)", (0,), False,
            "entries outside the declared level range"),))}
    # D2 of 512 runs in int8: collapsed, 256 levels per column
    d1 = np.arange(512)[:, None] % 2
    d2 = (np.arange(512) % 128)[:, None]
    d2[3] = -1
    found = _outcomes(d1, (2,), d2, 2, (512,))
    assert set(found) == {np.int64, np.int8, np.int16, np.int32}
    assert all(outcome == found[np.int64] for outcome in found.values())
    battery_report, _, grid, _, identity, _ = found[np.int64]
    assert battery_report.checks[2] == CheckResult(
        "pair-balance", (0, 0), False,
        "levels out of range for D1 column 0 / collapsed D2 column 0")
    assert grid.checks[0].detail == "entries outside the declared level range"
    # two cells of 256 values each: a divisor past int8's range
    halves = {check_grid_stratification(LatinHypercube(d2.astype(kind)),
                                        (0,), (2,))
              for kind in (np.int8, np.int64)}
    assert [r.checks[0].detail for r in halves] == [
        "entries outside the declared level range"]
    assert identity == (MalformedCollapsedDesignError,
                        "column 0 does not take each level 0..255 "
                        "exactly 2 times")


def test_built_designs_hold_narrow_matrices():
    # seeded s=2 u=10: D2 and its collapsed form in int16 (n = 1024), so
    # that building and verifying peak at about 4.4 MiB; with both int64
    # the peak was 9.4-9.6 MiB, in check_noncascading
    tracemalloc.start()
    try:
        mcd = direct_construction(galois_field(2), 10, 2, "i", 7)
        report = mcd.full_verification()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert mcd.d2.data.dtype == mcd.collapsed.data.dtype == np.int16
    assert peak < 6 << 20, peak


def test_pair_balance_and_the_grid_sweep_hold_d2_once():
    # theorem1 s=2 u=11, 2048 x (2 + 512) cells: the kernel floor-divides
    # D2 in its one narrowing copy.  Dividing first made pair balance hold
    # D2 three times (2.77 x its bytes, traced) and a one-axis sweep over
    # every column 2.68 x; now 1.77 x (the copy and its chunk buffers)
    # and 0.69 x (uint8 cells)
    mcd = direct_construction(galois_field(2), 11, 2, "i")
    d1, d2 = mcd.d1, mcd.d2
    assert d2.n * (d1.m + d2.k) >= 1 << 20
    peaks = []
    tracemalloc.start()
    try:
        for check in (lambda: check_mcd(d1, d2, 2).checks[-1],
                      lambda: check_grid_stratification(
                          d2, tuple(range(d2.k)), (4,)).checks[0]):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            assert check().passed
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 2.25 * d2.data.nbytes, peaks
    assert peaks[1] < 1.25 * d2.data.nbytes, peaks


def test_the_latin_check_holds_d2_once():
    # theorem1 s=2 u=11, D2 2048 x 512 in int16: the check sorted a whole
    # C-order copy of D2 beside a k x n bool, 1.57 x D2's bytes, traced;
    # it now sorts blocks of whole columns of at most BLOCK_CELLS cells
    d2 = direct_construction(galois_field(2), 11, 2, "i").d2
    assert d2.data.dtype == np.int16 and d2.data.shape == (2048, 512)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert verify._latin_check(d2).passed
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * d2.data.nbytes, peak
    # the first failing column is found past the first block, as before
    data = d2.data.copy()
    data[7, 300], data[9, 450] = data[8, 300], data[10, 450]
    missing = min(set(range(2048)) - set(data[:, 300].tolist()))
    result = verify._latin_check(LatinHypercube(data))
    assert (result.passed, result.subject) == (False, (300,))
    assert result.detail == ("column 300 is not a permutation of 0..2047 "
                             f"(value {missing} missing)")
