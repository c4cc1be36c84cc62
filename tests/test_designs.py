"""Design containers, level collapse/expansion, and base-s row encoding."""

import dataclasses
import typing

import numpy as np
import pytest

import mcd_forge
from mcd_forge.designs import (
    BLOCK_CELLS,
    IDENTITY_SEED,
    CollapsedDesign,
    LatinHypercube,
    OrthogonalArray,
    _column_rng,
    collapse_levels,
    expand_levels,
    method_of_replacement,
)
from mcd_forge.errors import (
    LevelOutOfRangeError,
    MalformedCollapsedDesignError,
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
    ``BLOCK_CELLS`` cells holds, and that block's width."""
    width = BLOCK_CELLS // n
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
