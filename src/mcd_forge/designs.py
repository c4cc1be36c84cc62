"""Design containers and level operations.

Three thin containers: OrthogonalArray (mixed levels allowed),
LatinHypercube (each column a permutation of 0..n-1), and CollapsedDesign
(columns with n/s levels, each taken exactly s times).  Containers validate
structure only -- shape and dtype -- never the combinatorial properties,
so that files read back from disk can always be *loaded* and then checked;
the verify module reports property violations instead of raising.  A
container keeps a signed-integer array in its own type and holds anything
else as int64.  The constructions build D1 in int8, which holds every
level s <= 32 allows; level expansion builds D2 in the narrowest signed
type that holds n-1 (int8, int16 up to 32,768 runs, int32 beyond), and
the collapse keeps D2's type.

Level operations:

* ``collapse_levels`` maps a Latin hypercube to floor(D/s), the s-to-1
  level collapse.
* ``expand_levels`` inverts it: level v of a collapsed column becomes the
  s values vs..vs+s-1, assigned to the s rows holding v.  With the
  "identity" pseudo-seed the values are assigned in row order; with an
  integer seed each column gets an independent PCG64 stream
  (SeedSequence([seed, column_index])) and the values are permuted, one
  permutation of 0..s-1 per level, drawn in level order.  A block of
  columns costs one stable argsort and one scatter, a column one batched
  draw.  Identical seeds give identical designs; per-column streams mean
  neither the block size nor parallel work could change the output.
* ``method_of_replacement`` encodes the rows of an n x (u-1) s-level array
  as single base-s integers (ordinary positional notation, no field
  arithmetic): column j carries weight s^(u-2-j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParamsError,
    LevelOutOfRangeError,
    MalformedCollapsedDesignError,
    NotDivisibleError,
)

#: pseudo-seed selecting in-order (deterministic, permutation-free) expansion
IDENTITY_SEED = "identity"

Seed = int | str

#: cells each temporary of a blocked pass holds: a block of columns in
#: level expansion and D2's build, of subsets in the prefix check
BLOCK_CELLS = 1 << 17


def _as_matrix(data) -> np.ndarray:
    """``data`` as a 2-D array: a signed-integer array keeps its type,
    anything else (lists, unsigned, bool, float) becomes int64."""
    signed = isinstance(data, np.ndarray) and data.dtype.kind == "i"
    arr = np.asarray(data, dtype=data.dtype if signed else np.int64)
    if arr.ndim != 2:
        raise BadParamsError(f"design data must be 2-D, got shape {arr.shape}")
    return arr


def _narrow_type(top: int) -> np.dtype:
    """The narrowest signed integer type that holds 0..top."""
    return np.min_scalar_type(-top - 1)


def _floor_divided(data: np.ndarray, q: int) -> np.ndarray:
    """data // q for q >= 1, in data's type or, when q does not fit it,
    the narrowest that holds q: never a wider copy than needed, and the
    same values under every numpy's casting rules."""
    kind = np.promote_types(data.dtype, _narrow_type(q))
    return np.floor_divide(data, kind.type(q), dtype=kind)


def _require_level_count(s) -> None:
    if s < 1:  # before anything divides by s
        raise BadParamsError(f"level count s must be at least 1, got {s}")


@dataclass(eq=False)
class OrthogonalArray:
    """n x m integer array with declared per-column level counts; its
    strength is counted by verify.check_oa_strength."""

    data: np.ndarray
    levels: tuple[int, ...]

    def __post_init__(self):
        self.data = _as_matrix(self.data)
        self.levels = tuple(int(v) for v in self.levels)
        if len(self.levels) != self.data.shape[1]:
            raise BadParamsError("one level count per column required")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]


@dataclass(eq=False)
class LatinHypercube:
    """n x k integer array; a valid instance has each column a permutation
    of 0..n-1 (checked by verify, not here)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = _as_matrix(self.data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def k(self) -> int:
        return self.data.shape[1]


@dataclass(eq=False)
class CollapsedDesign:
    """n x k integer array over levels 0..n/s-1, each level s times per
    column in a valid instance."""

    s: int
    data: np.ndarray

    def __post_init__(self):
        self.data = _as_matrix(self.data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def k(self) -> int:
        return self.data.shape[1]


def method_of_replacement(a0, s: int) -> np.ndarray:
    """Encode each row of the n x c s-level array ``a0`` as one integer in
    0..s^c-1 via ordinary positional notation: column j has weight
    s^(c-1-j).  Rows are equal iff their encodings are equal."""
    arr = _as_matrix(a0)
    if arr.size and (arr.min() < 0 or arr.max() >= s):
        bad = np.argwhere((arr < 0) | (arr >= s))[0]
        raise LevelOutOfRangeError(
            f"entry at row {bad[0]}, column {bad[1]} outside 0..{s - 1}")
    c = arr.shape[1]
    weights = s ** np.arange(c - 1, -1, -1, dtype=np.int64)
    return arr @ weights


def collapse_levels(d2: LatinHypercube, s: int) -> CollapsedDesign:
    """floor(D2 / s): n levels -> n/s levels, each appearing s times."""
    _require_level_count(s)
    if d2.n % s != 0:
        raise NotDivisibleError(f"run count {d2.n} not divisible by s={s}")
    return CollapsedDesign(s, _floor_divided(d2.data, s))


def _column_rng(seed: int, column: int) -> np.random.Generator:
    """Independent, platform-stable stream for one column."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), int(column)])))


def expand_levels(collapsed: CollapsedDesign, s: int,
                  seed: Seed = IDENTITY_SEED) -> LatinHypercube:
    """Replace level v of each column with a permutation of vs..vs+s-1
    across the s rows holding v.  Inverse of collapse_levels for any seed.

    seed="identity": values assigned in row order (pure function of input).
    integer seed: values permuted per (column, level) by the column's
    PCG64 stream.  Any other seed, a bool or a negative int included,
    raises BadParamsError: a design built from 1.5 as seed 1 would be
    written with a seed ``read_bundle`` refuses.

    Columns go in blocks of ``BLOCK_CELLS`` cells.  One stable argsort
    per block groups each column's rows: row v of the (n/s, s) reshape
    holds the rows carrying level v, in row order, and the sorted levels
    must read 0 (s times), 1 (s times), and so on.  The seeded offsets
    come from one ``permuted(..., axis=1)`` call per column over n/s
    copies of 0..s-1, which draws from the stream exactly as n/s
    successive ``permutation(s)`` calls would.  So the stream is still
    consumed level by level in level order, and that order must be kept
    for seeded designs to stay byte-identical.  D2 is held in the
    narrowest signed type that holds n-1.
    """
    if not (seed == IDENTITY_SEED or isinstance(seed, (int, np.integer))
            and not isinstance(seed, bool) and seed >= 0):
        raise BadParamsError(f"seed must be a non-negative integer or "
                             f"{IDENTITY_SEED!r}, got {seed!r}")
    _require_level_count(s)
    n, k = collapsed.n, collapsed.k
    if n % s != 0:
        raise NotDivisibleError(f"run count {n} not divisible by s={s}")
    nlev = n // s
    kind = _narrow_type(n - 1)
    out = np.empty((n, k), dtype=kind)
    tiles = np.tile(np.arange(s, dtype=kind), (nlev, 1))
    starts = np.arange(0, n, s, dtype=kind)[:, None]
    width = max(1, BLOCK_CELLS // max(n, 1))
    for lo in range(0, k, width):
        block = collapsed.data[:, lo:lo + width].T
        b = len(block)
        bad = ((block.min(axis=1, initial=0) < 0)
               | (block.max(axis=1, initial=-1) >= nlev))
        # in range, levels fit the narrowest dtype, which numpy radix-sorts
        keys = block.astype(np.min_scalar_type(nlev - 1))
        rows = np.argsort(keys, axis=1, kind="stable")
        bad |= (np.take_along_axis(keys, rows, axis=1)
                != np.repeat(np.arange(nlev), s)).any(axis=1)
        if bad.any():
            raise MalformedCollapsedDesignError(
                f"column {lo + bad.argmax()} does not take each level "
                f"0..{nlev - 1} exactly {s} times")
        if seed == IDENTITY_SEED:
            values = np.arange(n, dtype=kind)[None]
        else:
            values = np.empty((b, nlev, s), dtype=kind)
            for i in range(b):
                _column_rng(seed, lo + i).permuted(tiles, axis=1,
                                                   out=values[i])
            values += starts
            values = values.reshape(b, n)
        np.put_along_axis(out[:, lo:lo + b], rows.T, values.T, axis=0)
    return LatinHypercube(out)
