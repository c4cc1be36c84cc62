"""Design containers, level collapse/expansion, and base-s row encoding."""

import dataclasses
import re
import tracemalloc
import typing

import numpy as np
import pytest

import mcd_forge
from mcd_forge.designs import (
    IDENTITY_SEED,
    INDEX_BYTES,
    CollapsedDesign,
    LatinHypercube,
    OrthogonalArray,
    _column_rng,
    collapse_levels,
    expand_levels,
    method_of_replacement,
)
from mcd_forge.bundle import bundle_from_design, read_bundle, write_bundle
from mcd_forge.construct import direct_construction
from mcd_forge.gf import galois_field
from mcd_forge.errors import (
    BadParamsError,
    LevelOutOfRangeError,
    MalformedCollapsedDesignError,
    McdForgeError,
    NotDivisibleError,
)
from mcd_forge.verify import check_noncascading
from golden_data import EXAMPLE1_COLLAPSED


def _random_latin_hypercube(rng, n, k):
    return LatinHypercube(np.stack(
        [rng.permutation(n) for _ in range(k)], axis=1))


def test_public_dataclass_annotations_resolve():
    checked = []
    for name in mcd_forge.__all__:
        obj = getattr(mcd_forge, name)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj):
            typing.get_type_hints(obj)
            checked.append(name)
    assert {"MarginallyCoupledDesign", "OrthogonalArray"} <= set(checked)


def test_container_shapes():
    oa = OrthogonalArray([[0, 1], [1, 0]], levels=(2, 2))
    assert oa.n == 2 and oa.m == 2
    assert oa.data.dtype == np.int64

    lh = LatinHypercube([[0, 1], [1, 0]])
    assert lh.n == 2 and lh.k == 2

    cd = CollapsedDesign(2, [[0, 1], [0, 1], [1, 0], [1, 0]])
    assert cd.n == 4 and cd.k == 2


def test_containers_keep_signed_integer_types():
    # a signed-integer array is held as it is, without a copy; lists,
    # unsigned, bool and float data become int64, as before
    for kind in (np.int8, np.int16, np.int32, np.int64):
        data = np.array([[0, 1], [1, 0]], dtype=kind)
        for box in (OrthogonalArray(data, (2, 2)), LatinHypercube(data),
                    CollapsedDesign(2, data)):
            assert box.data is data
    for data in ([[0, 1], [1, 0]], np.eye(2, dtype=np.uint8),
                 np.eye(2, dtype=bool), np.eye(2)):
        assert LatinHypercube(data).data.dtype == np.int64


def test_expansion_builds_the_narrowest_type_holding_n():
    # int8 to 128 runs, int16 to 32,768, int32 beyond; the collapse keeps
    # D2's type, and divides in a wider one only when s does not fit
    for s, nlev, kind in ((2, 64, np.int8), (2, 65, np.int16),
                          (4, 8192, np.int16), (2, 16385, np.int32)):
        collapsed = CollapsedDesign(s, np.repeat(np.arange(nlev), s)[:, None])
        for seed in (IDENTITY_SEED, 5):
            d2 = expand_levels(collapsed, s, seed)
            assert d2.data.dtype == kind
            assert sorted(d2.data[:, 0].tolist()) == list(range(s * nlev))
            assert collapse_levels(d2, s).data.dtype == kind
    d2 = LatinHypercube(np.array([[-128], [127]] * 256, dtype=np.int8))
    halves = collapse_levels(d2, 256)
    assert halves.data.dtype == np.int16
    assert halves.data.ravel().tolist() == [-1, 0] * 256


def test_container_validation():
    with pytest.raises(ValueError):
        OrthogonalArray([[0, 1], [1, 0]], levels=(2,))
    with pytest.raises(ValueError):
        OrthogonalArray([0, 1, 2], levels=(3,))
    with pytest.raises(ValueError):
        LatinHypercube([0, 1, 2])


def test_method_of_replacement_golden():
    enc = method_of_replacement([[0, 0], [0, 1], [1, 2]], s=3)
    assert list(enc) == [0, 1, 5]
    # first column is the most significant digit
    enc2 = method_of_replacement([[1, 0, 1], [0, 1, 1]], s=2)
    assert list(enc2) == [5, 3]


def test_method_of_replacement_is_injective_on_rows():
    rng = np.random.default_rng(77)
    for s, c in [(2, 4), (3, 3), (5, 2)]:
        rows = rng.integers(0, s, size=(40, c))
        enc = method_of_replacement(rows, s)
        for i in range(len(rows)):
            for j in range(len(rows)):
                assert (enc[i] == enc[j]) == (rows[i] == rows[j]).all()


def test_method_of_replacement_range_check():
    with pytest.raises(LevelOutOfRangeError):
        method_of_replacement([[0, 3]], s=3)
    with pytest.raises(LevelOutOfRangeError):
        method_of_replacement([[0, -1]], s=3)


def test_collapse_levels():
    lh = LatinHypercube([[0], [3], [1], [4], [2], [5]])
    cd = collapse_levels(lh, 3)
    assert cd.s == 3
    assert list(cd.data[:, 0]) == [0, 1, 0, 1, 0, 1]
    with pytest.raises(NotDivisibleError):
        collapse_levels(lh, 4)


def test_expand_levels_identity_seed_golden():
    cd = CollapsedDesign(3, [[0], [1], [0], [1], [0], [1]])
    lh = expand_levels(cd, 3, IDENTITY_SEED)
    # level v is replaced by 3v, 3v+1, 3v+2 in row order
    assert list(lh.data[:, 0]) == [0, 3, 1, 4, 2, 5]


def test_expand_levels_worked_example_round_trip():
    cd = CollapsedDesign(3, [[v] for v in EXAMPLE1_COLLAPSED])
    lh = expand_levels(cd, 3, IDENTITY_SEED)
    assert sorted(lh.data[:, 0]) == list(range(27))
    back = collapse_levels(lh, 3)
    assert (back.data == cd.data).all()


def _expand_levels_per_level(cd, s, seed):
    """Reference expansion: one row scan and one permutation(s) draw per
    level, levels in order, on the column's own PCG64 stream."""
    n, k = cd.data.shape
    out = np.empty((n, k), dtype=np.int64)
    for j in range(k):
        col = cd.data[:, j]
        rng = None if seed == IDENTITY_SEED else np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed), j])))
        for v in range(n // s):
            rows = np.flatnonzero(col == v)
            out[rows, j] = v * s + (np.arange(s) if rng is None
                                    else rng.permutation(s))
    return out


def test_expand_inverts_collapse_for_any_seed():
    rng = np.random.default_rng(60601)
    for s, nlev, k in [(2, 4, 3), (3, 9, 2), (5, 5, 2), (2, 64, 3),
                       (4, 16, 2), (9, 9, 2)]:
        n = s * nlev
        lh = _random_latin_hypercube(rng, n, k)
        cd = collapse_levels(lh, s)
        for seed in (IDENTITY_SEED, 0, 1, 7, 12345, 2 ** 31 - 1):
            expanded = expand_levels(cd, s, seed)
            # still a Latin hypercube
            for j in range(k):
                assert sorted(expanded.data[:, j]) == list(range(n))
            # and collapsing recovers the input exactly
            assert (collapse_levels(expanded, s).data == cd.data).all()
            # the same values as the per-level scan, draw for draw
            assert (expanded.data
                    == _expand_levels_per_level(cd, s, seed)).all()


def test_expand_levels_seed_determinism():
    cd = CollapsedDesign(3, np.repeat(np.arange(9), 3).reshape(27, 1))
    a = expand_levels(cd, 3, seed=42)
    b = expand_levels(cd, 3, seed=42)
    assert (a.data == b.data).all()
    c = expand_levels(cd, 3, seed=43)
    assert (a.data != c.data).any()


def test_expand_levels_refuses_seeds_a_file_could_not_hold(tmp_path):
    # 1.5 and True built the design as seed 1 and recorded the original,
    # which read_bundle then refused; -1 and "abc" raised a bare ValueError
    cd = CollapsedDesign(3, np.repeat(np.arange(9), 3).reshape(27, 1))
    f3 = mcd_forge.galois_field(3)
    for seed in (1.5, True, np.True_, "7", -1, "abc", None, 7.0):
        message = (r"^seed must be a non-negative integer or 'identity', "
                   rf"got {re.escape(repr(seed))}$")
        with pytest.raises(BadParamsError, match=message):
            expand_levels(cd, 3, seed)
        with pytest.raises(BadParamsError, match=message):
            direct_construction(f3, 3, 2, "i", seed)
    # numpy ints are ints: the same design, and a file that reads back
    want = expand_levels(cd, 3, 7).data
    for seed in (np.int64(7), np.uint8(7), np.int32(7)):
        assert (expand_levels(cd, 3, seed).data == want).all()
        path = write_bundle(tmp_path / "d.json", bundle_from_design(
            direct_construction(f3, 3, 2, "i", seed)))
        assert read_bundle(path).seed == 7
    assert (expand_levels(cd, 3, 0).data
            != expand_levels(cd, 3, IDENTITY_SEED).data).any()


def test_expand_levels_streams_are_per_column():
    # expanding column j is unaffected by how many other columns ride along,
    # so a column-parallel implementation would give identical output
    rng = np.random.default_rng(8080)
    lh = _random_latin_hypercube(rng, 12, 3)
    cd = collapse_levels(lh, 2)
    full = expand_levels(cd, 2, seed=7)
    lone = expand_levels(CollapsedDesign(2, cd.data[:, :1]), 2, seed=7)
    assert (full.data[:, 0] == lone.data[:, 0]).all()


def test_expand_levels_rejects_malformed_columns():
    # level 0 appears four times, level 1 twice
    cd = CollapsedDesign(3, [[0], [0], [0], [0], [1], [1]])
    with pytest.raises(MalformedCollapsedDesignError):
        expand_levels(cd, 3)
    # negative entries are malformed, not a numpy crash
    cd_neg = CollapsedDesign(3, [[-1], [0], [0], [1], [1], [1]])
    with pytest.raises(MalformedCollapsedDesignError):
        expand_levels(cd_neg, 3)
    # value beyond the level range
    cd_big = CollapsedDesign(3, [[0], [0], [0], [2], [2], [2]])
    with pytest.raises(MalformedCollapsedDesignError):
        expand_levels(cd_big, 3)
    with pytest.raises(NotDivisibleError):
        expand_levels(CollapsedDesign(4, [[0], [0], [1]]), 4)


def _expand_by_column(collapsed, s, seed):
    """Reference: expand one column at a time, one stable argsort and,
    seeded, one draw from the column's own stream per column."""
    n, k = collapsed.data.shape
    nlev = n // s
    out = np.empty((n, k), dtype=np.int64)
    for j in range(k):
        rows = np.argsort(collapsed.data[:, j], kind="stable").reshape(nlev, s)
        offsets = (np.arange(s) if seed == IDENTITY_SEED
                   else _column_rng(seed, j).permuted(
                       np.tile(np.arange(s), (nlev, 1)), axis=1))
        out[rows, j] = np.arange(0, n, s)[:, None] + offsets
    return out


def _collapsed_spanning_two_blocks(rng, n, s):
    """A valid collapsed design with a few more columns than one block of
    expansion holds, int64 indices of ``INDEX_BYTES``, and that block's
    width."""
    width = INDEX_BYTES // 8 // n
    levels = np.repeat(np.arange(n // s), s)[:, None]
    data = rng.permuted(np.tile(levels, (1, width + 7)), axis=0)
    return CollapsedDesign(s, data), width


@pytest.mark.parametrize("seed", [IDENTITY_SEED, 20240611])
def test_expand_levels_across_a_block_boundary(seed):
    rng = np.random.default_rng(99)
    for n, s in [(16, 2), (27, 3)]:
        cd, width = _collapsed_spanning_two_blocks(rng, n, s)
        assert cd.k > width
        got = expand_levels(cd, s, seed).data
        assert (got == _expand_by_column(cd, s, seed)).all()
        assert (collapse_levels(LatinHypercube(got), s).data == cd.data).all()


@pytest.mark.parametrize("seed", [IDENTITY_SEED, 7])
def test_expand_levels_holds_one_block_beyond_its_input_and_output(seed):
    # theorem1 s=2 u=10's collapsed D2, 1024 x 256 in int16: blocks of
    # BLOCK_CELLS cells, whose int64 argsort and scatter indices were 1 MiB
    # each, peaked 2.5 MiB above D2's 0.5 MiB (traced); a block's indices
    # now hold INDEX_BYTES
    collapsed = direct_construction(galois_field(2), 10, 2).collapsed
    expand_levels(CollapsedDesign(2, [[0], [0], [1], [1]]), 2, seed)  # warm
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        d2 = expand_levels(collapsed, 2, seed)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert d2.data.nbytes == 1 << 19
    assert peak - d2.data.nbytes <= 3 * INDEX_BYTES, peak
    assert (collapse_levels(d2, 2).data == collapsed.data).all()


def test_expand_levels_names_the_first_bad_column_past_a_block():
    rng = np.random.default_rng(100)
    cd, width = _collapsed_spanning_two_blocks(rng, 16, 2)
    for bad in (-1, 8, None):  # negative, past the levels, a level short
        data = cd.data.copy()
        for j in (width + 2, width + 5):
            data[0, j] = (data[0, j] + 1) % 8 if bad is None else bad
        with pytest.raises(MalformedCollapsedDesignError,
                           match=f"^column {width + 2} "):
            expand_levels(CollapsedDesign(2, data), 2, 5)


def _pair_cascades(c1, c2):
    report = check_noncascading(CollapsedDesign(2, np.stack([c1, c2], 1)))
    if report.passed:
        return False
    assert report.failures()[0].subject == (0, 1)
    return True


def test_is_cascading_pair():
    # equal up to a level bijection: the pair cascades
    assert _pair_cascades([0, 1, 2, 0], [5, 3, 1, 5])
    assert _pair_cascades([0, 0, 1], [1, 1, 0])
    assert not _pair_cascades([0, 1, 2, 0], [0, 1, 2, 2])
    # same multiset of levels, different row partition
    assert not _pair_cascades([0, 0, 1, 1], [0, 1, 0, 1])


def test_is_cascading_pair_under_random_relabelings():
    rng = np.random.default_rng(31337)
    for _ in range(20):
        nlev = int(rng.integers(2, 6))
        col = rng.integers(0, nlev, size=30)
        relabel = rng.permutation(nlev)
        assert _pair_cascades(col, relabel[col])


def test_malformed_design_data_raises_a_package_error():
    # each raised a bare ValueError, which ``except McdForgeError`` missed
    flat = "design data must be 2-D, got shape \\(3,\\)"
    for make, message in (
            (lambda: OrthogonalArray([0, 1, 0], (2,)), flat),
            (lambda: LatinHypercube([0, 1, 2]), flat),
            (lambda: CollapsedDesign(3, [0, 1, 2]), flat),
            (lambda: method_of_replacement([0, 1, 2], 3), flat),
            (lambda: OrthogonalArray([[0, 1], [1, 0]], (2,)),
             "one level count per column required")):
        with pytest.raises(McdForgeError, match=message):
            make()


def test_level_operations_refuse_a_level_count_below_one():
    # s = 0 raised ZeroDivisionError; s = -3 collapsed to negative levels
    lhd = LatinHypercube([[0, 2], [1, 0], [2, 1]])
    for s in (0, -3):
        message = f"^level count s must be at least 1, got {s}$"
        with pytest.raises(BadParamsError, match=message):
            collapse_levels(lhd, s)
        with pytest.raises(BadParamsError, match=message):
            expand_levels(CollapsedDesign(1, lhd.data), s)
    # s = 1 is the identity collapse and expansion
    assert (collapse_levels(lhd, 1).data == lhd.data).all()
    assert (expand_levels(CollapsedDesign(1, lhd.data), 1).data
            == lhd.data).all()
