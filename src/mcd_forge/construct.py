"""Constructions of marginally coupled designs with s^u runs.

All constructions share one mechanism.  Pick vectors z_1..z_m (qualitative
side) and x_1..x_k (quantitative side) in GF(s)^u such that z_i^T x_j != 0
for every pair.  The z's, as generator columns, produce the s-level array
D1 = (lambda^T z_1, ..., lambda^T z_m) over all s^u coefficient vectors
lambda.  Each x_j contributes one quantitative column: the u-1 canonical
basis vectors of the null space O(x_j) = {y : y^T x_j = 0} generate an
s^(u-1)-level full factorial, whose rows are base-s encoded into a single
column d_j with s^(u-1) levels; level replacement then expands the d's
into a Latin hypercube D2.  The pairing condition makes every
(D1 column, d_j) pair a strength-2 mixed orthogonal array -- which is
exactly the marginal-coupling property -- and distinct null spaces keep
the d's non-cascading.

The named constructions differ only in which vectors they pick:

* ``direct_construction``: unit vectors e_1..e_u1 against the whole
  admissible set A (all vectors with first entry 1 and entries 2..u1
  nonzero); item "i" puts the units on the qualitative side, item "ii"
  swaps the roles.
* ``subspace_construction``: scales the qualitative side up or down by
  trading columns between E = span(e_1..e_u1) and A.  A is partitioned
  into groups A_i by first-u1 prefix b_i; choosing v prefixes whose
  vectors are u1-wise independent leaves the common non-orthogonal set
  (the E members orthogonal to none of the chosen prefixes) as the other
  side's generators.  How many prefixes can be traded, n*, and which,
  ``nstar.prefix_set`` decides.
* ``anti_mirror_construction`` (s=2 only): like the subspace construction
  at v=1, but the generator matrix of each O(x_i) is forced to lead with
  eta_i = (1, 1, 0...0, complement of the tail of x_i), which buys a
  2x2x2 grid guarantee on every triple of quantitative columns.
* ``stratified_generator_choice``: picks pairwise non-proportional leading
  generator columns across the x's, buying an s x s grid guarantee on
  every pair of quantitative columns.

``general_construction`` is the open variant, and the one that checks
vectors: any vectors, any explicit generator overrides, every
precondition checked.  The named constructions pass the arrays they derive
to ``_assemble`` unchecked; counting (``full_verification``) checks them.
Every build is sized first by ``verify.require_mcd_work``, as a read file is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, islice, product
from math import comb
from typing import TypeVar

import numpy as np

from .designs import (
    IDENTITY_SEED,
    CollapsedDesign,
    LatinHypercube,
    OrthogonalArray,
    Seed,
    _block_width,
    _narrow_type,
    collapse_levels,
    expand_levels,
)
from .errors import (
    BadParamsError,
    NotApplicableError,
    OrthogonalityViolationError,
    ProportionalVectorsError,
    TooManyColumnsError,
    VOutOfRangeError,
    ZeroVectorError,
)
from .gf import GaloisField, galois_field
from .linalg import (
    _INTEGER_TYPES,
    Vector,
    _completed_bases,
    _dots,
    _enumeration_size,
    _field_rows,
    _kept_rows,
    _leading_one,
    _null_space_bases,
    _require_entries,
    generate_linear_array,
)
from .nstar import PrefixSearch, max_independent_prefixes  # re-exported
from .nstar import independent_prefix_bound, prefix_set
from .verify import MAX_DESIGN_CELLS  # re-exported
from .verify import _require_run_cap, battery, first_equal_pair, require_mcd_work

# ---------------------------------------------------------------------------
# vector families
# ---------------------------------------------------------------------------


def unit_combinations(field: GaloisField, u: int, u1: int) -> list[Vector]:
    """E: all s^u1 linear combinations of e_1..e_u1, as length-u vectors,
    coefficients in base-s order."""
    _check_u_u1(u, u1)
    _require_entries(_enumeration_size(field.s, u1), u)
    return [lam + (0,) * (u - u1)
            for lam in product(range(field.s), repeat=u1)]


@dataclass(frozen=True)
class AdmissibleSet:
    """All vectors of GF(s)^u with first entry 1 and entries 2..u1 nonzero,
    in base-s order.  Size (s-1)^(u1-1) * s^(u-u1)."""

    field: GaloisField
    u: int
    u1: int
    vectors: tuple[Vector, ...]

    @property
    def size(self) -> int:
        return len(self.vectors)


def admissible_set(field: GaloisField, u: int, u1: int) -> AdmissibleSet:
    _check_u_u1(u, u1)
    s = field.s
    _enumeration_size(s, u)
    _require_entries((s - 1) ** (u1 - 1) * s ** (u - u1), u)
    # digit by digit (1, then u1-1 nonzero, then u-u1 free): base-s order
    return AdmissibleSet(field, u, u1, tuple(product(
        (1,), *[range(1, s)] * (u1 - 1), *[range(s)] * (u - u1))))


@dataclass(frozen=True)
class AdmissiblePartition:
    """The admissible set split into groups sharing a first-u1 prefix.

    Prefixes (the b_i, length u1) appear in base-s order; each group holds
    the s^(u-u1) members with that prefix, still in base-s order.
    """

    field: GaloisField
    u: int
    u1: int
    prefixes: tuple[Vector, ...]
    groups: tuple[tuple[Vector, ...], ...]

    @property
    def group_count(self) -> int:
        return len(self.prefixes)


def partition_admissible(aset: AdmissibleSet) -> AdmissiblePartition:
    """Group A by prefix.  Because the free coordinates are least
    significant in base-s order, groups are consecutive equal-size blocks."""
    block = aset.field.s ** (aset.u - aset.u1)
    groups = tuple(aset.vectors[i:i + block]
                   for i in range(0, len(aset.vectors), block))
    prefixes = tuple(g[0][:aset.u1] for g in groups)
    for pref, grp in zip(prefixes, groups):
        assert all(v[:aset.u1] == pref for v in grp)
    return AdmissiblePartition(aset.field, aset.u, aset.u1, prefixes, groups)


def nonorthogonal_combos(part: AdmissiblePartition,
                         index: int) -> NonorthogonalIntersection:
    """Ebar_i: the members of E with nonzero dot product against prefix i.
    Always (s-1) * s^(u1-1) of them."""
    return common_nonorthogonal(part, (index,))


@dataclass(frozen=True)
class NonorthogonalIntersection:
    """Common non-orthogonal set over several prefixes.

    ``vectors`` is the full intersection of the Ebar_i (size f),
    ``normalized`` keeps only members whose first nonzero entry is 1 --
    one per direction (size g = f / (s-1)).  ``prefixes_independent``
    tells whether the chosen prefixes are min(v, u1)-wise independent,
    the hypothesis of ``expected_intersection_size``.
    """

    prefix_indices: tuple[int, ...]
    vectors: tuple[Vector, ...]
    normalized: tuple[Vector, ...]
    prefixes_independent: bool

    @property
    def size(self) -> int:
        return len(self.vectors)


def expected_intersection_size(s: int, u1: int, v: int) -> int:
    """Closed-form size of the common non-orthogonal set over v prefixes
    that are min(v, u1)-wise independent: inclusion-exclusion over the
    nonzero members of E, i prefixes being orthogonal to s^(u1-i) - 1 of
    them and to none once i >= u1, gives the sum over i <= min(v, u1) of
    (-1)^i C(v, i) (s^(u1-i) - 1), or (s-1)^v s^(u1-v) for v <= u1."""
    if v < 1:
        raise VOutOfRangeError(f"v must be at least 1, got {v}")
    return sum((-1) ** i * comb(v, i) * (s ** (u1 - i) - 1)
               for i in range(min(v, u1) + 1))


def common_nonorthogonal(part: AdmissiblePartition,
                         prefix_indices) -> NonorthogonalIntersection:
    """Intersection of Ebar_i over the chosen prefixes, with its
    leading-1 (normalized) members and whether the prefixes are
    independent enough for the closed-form size."""
    indices = tuple(prefix_indices)
    for i in indices:  # bools and floats are not labels
        if type(i) not in _INTEGER_TYPES or not 0 <= i < part.group_count:
            raise BadParamsError(f"prefix index {i!r} is not an integer "
                                 f"in 0..{part.group_count - 1}")
    indices = tuple(map(int, indices))
    if not indices:
        raise BadParamsError("need at least one prefix index")
    if len(set(indices)) != len(indices):
        raise BadParamsError(f"duplicate prefix indices in {indices}")
    f = part.field
    rows = np.array([part.prefixes[i] for i in indices])
    # row r holds z_r^T b for every chosen prefix b, z_r in E's order
    hits = generate_linear_array(f, rows).all(axis=1)
    members = tuple(compress(unit_combinations(f, part.u, part.u1),
                             hits.tolist()))
    normalized = tuple(z for z in members if next(filter(None, z)) == 1)
    # every k-subset of the prefixes, in blocks of one stacked elimination
    k = min(len(rows), part.u1)
    subsets = combinations(range(len(rows)), k)
    independent = True
    while independent and (block := list(
            islice(subsets, _block_width(8, k * part.u1)))):
        independent = bool(_kept_rows(f, rows[block]).all())
    return NonorthogonalIntersection(indices, members, normalized,
                                     independent)


# ---------------------------------------------------------------------------
# pairing witness
# ---------------------------------------------------------------------------


def orthogonal_witness(field: GaloisField, u: int, u1: int, z) -> Vector:
    """For z in E with at least two nonzero coefficients, produce an
    admissible x with z^T x = 0 -- the witness that such z cannot join the
    qualitative side when the whole admissible set is in play.

    With nz the nonzero coordinate positions of z and lam* the sum of all
    but the last nonzero coefficient: if lam* != 0, set x[last] =
    -z[last]^(-1) lam* and everything else 1.  Otherwise (needs >= 3
    nonzero entries) set x[second-last] to the element of index 2 and
    x[last] = -z[last]^(-1) z[second-last] (alpha2 - 1).
    """
    _check_u_u1(u, u1)
    if field.s < 3:
        raise NotApplicableError("witness construction needs s >= 3")
    z = _field_rows(field, [z], "z vector")[0]
    if len(z) != u:
        raise BadParamsError(f"z must have length {u}")
    if z[u1:].any():
        raise NotApplicableError(
            "z lies outside the span of the first u1 unit vectors")
    nz = np.flatnonzero(z)
    if len(nz) < 2:
        raise NotApplicableError(
            "z needs at least two nonzero coefficients")
    last, alpha2 = nz[-1], 2
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    x = np.ones(u, dtype=np.int64)
    lam = _dots(field, z[:last], x[:last])  # lam*
    if lam == 0:
        x[nz[-2]] = alpha2
        lam = mul[z[nz[-2]], add[alpha2, neg[1]]]
    x[last] = mul[neg[field.inv_table[z[last]]], lam]
    assert _dots(field, z, x) == 0
    return tuple(x.tolist())


# ---------------------------------------------------------------------------
# the constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionParams:
    s: int
    u: int
    u1: int | None = None
    v: int | None = None
    item: str | None = None
    seed: Seed = IDENTITY_SEED


@dataclass(frozen=True)
class Provenance:
    """What produced the design: method tag plus the chosen vectors."""

    method: str
    z_vectors: tuple[Vector, ...]
    x_vectors: tuple[Vector, ...]
    generator_columns: tuple[tuple[Vector, ...], ...]


@dataclass(eq=False)
class MarginallyCoupledDesign:
    """A verified-or-verifiable bundle: s-level D1 and Latin hypercube D2,
    each held once."""

    d1: OrthogonalArray
    d2: LatinHypercube
    params: ConstructionParams
    provenance: Provenance

    @property
    def collapsed(self) -> CollapsedDesign:
        """floor(D2 / s), the collapsed form the construction built and
        expanded into D2, made again from D2 on each access."""
        return collapse_levels(self.d2, self.params.s)

    def full_verification(self):
        return battery(self.d1, self.d2, self.params.s)


def _check_size(s: int, u: int, m: int, k: int) -> None:
    """Fail closed, before anything is enumerated, on a design of s^u runs
    and m + k columns too large to build or to verify."""
    _require_run_cap(s, u)
    require_mcd_work(s ** u, m, k)


def _check_u_u1(u: int, u1: int) -> None:
    if u < 1:
        raise BadParamsError(f"u must be at least 1, got {u}")
    if not 1 <= u1 <= u:
        raise BadParamsError(f"u1 must lie in 1..{u}, got {u1}")


def _check_directions(field: GaloisField, rows: np.ndarray,
                      label: str) -> None:
    """Reject the first zero row, then the first proportional pair."""
    zero = np.flatnonzero(~rows.any(axis=1))
    if zero.size:
        raise ZeroVectorError(f"{label} vector {zero[0]} is zero")
    pair = first_equal_pair(map(tuple, _leading_one(field, rows).tolist()))
    if pair:
        raise ProportionalVectorsError(
            f"{label} vectors {pair[0]} and {pair[1]} are proportional")


def general_construction(field: GaloisField, z_list, x_list,
                         seed: Seed = IDENTITY_SEED,
                         generator_overrides: dict[int, tuple] | None = None,
                         ) -> MarginallyCoupledDesign:
    """Build an MCD from explicit vectors.  Checks every precondition:
    entries in GF(s), equal dimensions, no zero or pairwise-proportional
    vectors on either side, and z_i^T x_j != 0 for every pair (all
    offending pairs listed).  Each vector set may be a sequence of int
    sequences or a (count, u) int array, and is checked once, as one array.

    ``generator_overrides`` maps an x index to u-1 explicit generator
    columns for its null space (each must be orthogonal to that x and the
    columns linearly independent); unlisted x's use the canonical
    null-space basis.  After the keys, the overrides are checked in
    ascending x order, each for shape, then orthogonality, then
    independence, and the first failure raises.
    """
    zs = _field_rows(field, z_list, "z vector")
    xs = _field_rows(field, x_list, "x vector")
    if not len(zs) or not len(xs):
        raise BadParamsError("need at least one z and one x vector")
    u = zs.shape[1]
    if xs.shape[1] != u:
        raise BadParamsError("all z and x vectors must share one dimension")
    if u < 2:
        raise BadParamsError("construction needs u >= 2")
    _check_size(field.s, u, len(zs), len(xs))
    _check_directions(field, zs, "z")
    _check_directions(field, xs, "x")
    clashes = np.argwhere(_dots(field, zs[:, None], xs[None]) == 0)
    if clashes.size:
        raise OrthogonalityViolationError(
            "z^T x = 0 for (z index, x index) pairs: "
            + ", ".join(str((int(i), int(j))) for i, j in clashes))

    overrides = generator_overrides or {}
    for j in overrides:
        if type(j) not in _INTEGER_TYPES or not 0 <= j < len(xs):
            raise BadParamsError(
                f"generator override for unknown x index {j!r}")
    gens = _null_space_bases(field, xs)
    for j in sorted(overrides):
        cols = _field_rows(field, overrides[j], f"generator[{j}] vector")
        if cols.shape != (u - 1, u):
            raise BadParamsError(
                f"override for x {j} must be {u - 1} columns of length {u}")
        dots = _dots(field, cols, xs[j])
        if dots.any():
            raise BadParamsError(
                f"override column {tuple(cols[dots.argmax()].tolist())}"
                f" is not orthogonal to x {j}")
        if not _kept_rows(field, cols[None]).all():
            raise BadParamsError(
                f"override columns for x {j} are linearly dependent")
        gens[j] = cols
    return _assemble(field, zs, xs, gens, "general",
                     ConstructionParams(s=field.s, u=u, seed=seed))


def _replaced_columns(field: GaloisField, gens: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapsed D2 of (k, u-1, u) generator matrices, as its (k, n)
    transpose, with the distinct generator columns, (d, u), and the index
    among them of each matrix's columns, (k, u-1).

    Column j is the method of replacement over the linear array of
    generator matrix j: the sum over i of s^(u-2-i) times the linear-array
    column of its generator column i.  Few generator columns differ across
    the x's (17 of 2,304 at theorem1 s=2 u=10), so each is coded as its
    base-s integer, below n, and a mask over 0..n-1 lists the distinct
    codes in order: np.unique would import numpy.ma on numpy >= 2.3, and
    the first np.sort in a process paged in 320 KiB of sort code, which
    raised a small construct's peak RSS.  ``generate_linear_array`` builds
    each distinct column once, in blocks as wide as the result's, as an
    int8 row of n bytes (1,043 rows for the 1,024 x's of anti-mirror u=12,
    whose leads all differ; up to (u-1) k with explicit overrides).
    Blocks of the result, ``BLOCK_BYTES`` in D2's type, are summed from
    row gathers of those rows, with no whole-matrix temporary; a row of the
    result is a column of the collapsed design, contiguous, as
    ``expand_levels`` reads it."""
    s = field.s
    k, _, u = gens.shape
    n = s ** u
    place = s ** np.arange(u - 1, -1, -1)
    codes = gens @ place
    seen = np.zeros(n, dtype=bool)
    seen[codes] = True
    distinct = np.flatnonzero(seen)
    which = distinct.searchsorted(codes)
    columns = distinct[:, None] // place % s
    tilde = np.empty((k, n), dtype=_narrow_type(n - 1))
    width = _block_width(tilde.itemsize, n)
    digits = np.empty((len(columns), n), dtype=np.int8)
    for lo in range(0, len(columns), width):
        digits[lo:lo + width] = generate_linear_array(
            field, columns[lo:lo + width]).T
    for lo in range(0, k, width):
        block, rows = tilde[lo:lo + width], which[lo:lo + width]
        block[...] = digits[rows[:, 0]]
        for i in range(1, u - 1):
            block *= s
            block += digits[rows[:, i]]
    return tilde, columns, which


def _assemble(field: GaloisField, zs: np.ndarray, xs: np.ndarray,
              gens: np.ndarray, method: str,
              params: ConstructionParams) -> MarginallyCoupledDesign:
    """D1, D2 (expanded with ``params.seed``) and the provenance of int
    arrays of z's, x's and (k, u-1, u) null-space generators, unchecked.
    The provenance shares one tuple per distinct generator column."""
    s = field.s
    d1 = OrthogonalArray(generate_linear_array(field, zs), (s,) * len(zs))
    tilde, columns, which = _replaced_columns(field, gens)
    d2 = expand_levels(CollapsedDesign(s, tilde.T), s, params.seed)
    del tilde  # the design holds D2 alone
    shared = list(map(tuple, columns.tolist()))
    return MarginallyCoupledDesign(
        d1, d2, params,
        Provenance(method, tuple(map(tuple, zs.tolist())),
                   tuple(map(tuple, xs.tolist())),
                   tuple(tuple(map(shared.__getitem__, row))
                         for row in which.tolist())))


T = TypeVar("T")


def _item_sides(item: str, primary: T, secondary: T) -> tuple[T, T]:
    if item == "i":
        return primary, secondary
    if item == "ii":
        return secondary, primary
    raise BadParamsError(f"item must be 'i' or 'ii', got {item!r}")


def direct_construction(field: GaloisField, u: int, u1: int, item: str = "i",
                        seed: Seed = IDENTITY_SEED) -> MarginallyCoupledDesign:
    """Unit vectors against the whole admissible set.

    item "i":  D1 from e_1..e_u1 (strength u1), D2 with |A| columns.
    item "ii": D1 from A (strength 2), D2 with u1 columns.
    """
    _check_u_u1(u, u1)
    if u < 2:
        raise BadParamsError("construction needs u >= 2")
    s = field.s
    _require_run_cap(s, u)  # before the closed forms in s^u below
    _check_size(s, u, *_item_sides(item, u1,
                                   (s - 1) ** (u1 - 1) * s ** (u - u1)))
    units = np.eye(u1, u, dtype=np.int64)
    avecs = np.array(admissible_set(field, u, u1).vectors)
    zs, xs = _item_sides(item, units, avecs)
    return _assemble(field, zs, xs, _null_space_bases(field, xs), "theorem1",
                     ConstructionParams(s, u, u1, None, item, seed))


def subspace_construction(field: GaloisField, u: int, u1: int, v: int,
                          item: str = "i",
                          seed: Seed = IDENTITY_SEED) -> MarginallyCoupledDesign:
    """Trade v admissible groups against the common non-orthogonal subset
    of E.  Uses the first v labels of the n* prefix set of
    ``nstar.prefix_set``; v must lie in 1..n* (its size).

    item "i":  D1 from the g(v) normalized common members, D2 with
               v * s^(u-u1) columns.
    item "ii": the swap.
    """
    _check_u_u1(u, u1)
    if u < 2:
        raise BadParamsError("construction needs u >= 2")
    s = field.s
    _require_run_cap(s, u)  # before the closed forms in s^u below
    # n* never exceeds the bound, so a larger v is refused before the
    # search, with the bound in the message
    bound = independent_prefix_bound(s, u1)
    if v > bound:
        raise VOutOfRangeError(
            f"v={v} exceeds the bound {bound} on n* for s={s}, u1={u1}")
    # the closed forms reject v < 1 and size the design before the search
    _check_size(s, u, *_item_sides(
        item, expected_intersection_size(s, u1, v) // (s - 1),
        v * s ** (u - u1)))
    search = prefix_set(s, u1)
    if v > search.size:
        raise VOutOfRangeError(
            f"v={v} outside 1..{search.size} for s={s}, u1={u1}")
    part = partition_admissible(admissible_set(field, u, u1))
    chosen = search.labels[:v]
    estar = np.array(common_nonorthogonal(part, chosen).normalized)
    astar = np.concatenate([part.groups[i] for i in chosen])
    zs, xs = _item_sides(item, estar, astar)
    return _assemble(field, zs, xs, _null_space_bases(field, xs), "theorem2",
                     ConstructionParams(s, u, u1, v, item, seed))


def anti_mirror_construction(u: int, u1: int,
                             seed: Seed = IDENTITY_SEED) -> MarginallyCoupledDesign:
    """Two-level subspace construction (v=1) with anti-mirrored generator
    leads: x_i = (1..1, y_i) over all tails y_i, and the generator matrix
    of O(x_i) is forced to open with eta_i = (1, 1, 0..0, complement of
    y_i).  Every triple of quantitative columns then spreads one point
    per octant of the 2x2x2 grid.  Requires 2 <= u1 < u-1.
    """
    field = galois_field(2)
    if not 2 <= u1 < u - 1:
        raise BadParamsError(
            f"anti-mirror arrangement needs 2 <= u1 < u-1, "
            f"got u1={u1}, u={u}")
    _require_run_cap(2, u)  # before the closed forms in 2^u
    _check_size(2, u, 2 ** (u1 - 1), 2 ** (u - u1))
    tails = list(product(range(2), repeat=u - u1))
    xs = np.array([(1,) * u1 + tail for tail in tails])
    etas = np.array([(1, 1) + (0,) * (u1 - 2) + tuple(1 - b for b in tail)
                     for tail in tails])
    assert not _dots(field, etas, xs).any()
    part = partition_admissible(admissible_set(field, u, u1))
    zs = np.array(common_nonorthogonal(part, (0,)).normalized)
    return _assemble(field, zs, xs, _completed_bases(field, xs, etas[:, None]),
                     "anti-mirror", ConstructionParams(2, u, u1, 1, None, seed))


def stratified_generator_choice(field: GaloisField,
                                x_list) -> list[tuple[Vector, ...]]:
    """Choose generator matrices whose leading columns are pairwise
    non-proportional across the x's: the leading base-s digits of the
    quantitative columns then form a strength-2 s-level array, i.e. every
    pair of quantitative columns spreads evenly over the s x s grid.

    At most (s^(u-1) - 1) / (s - 1) columns can be served (one direction
    each); beyond that TooManyColumnsError is raised.  Greedy over each
    null space's normalized members in base-s order, so deterministic.
    """
    xs = _field_rows(field, x_list, "x vector")
    if not len(xs):
        raise BadParamsError("need at least one x vector")
    u = xs.shape[1]
    if u < 2:
        raise BadParamsError("needs u >= 2")
    _check_directions(field, xs, "x")
    s = field.s
    capacity = (s ** (u - 1) - 1) // (s - 1)
    if len(xs) > capacity:
        raise TooManyColumnsError(
            f"{len(xs)} columns requested but only {capacity} pairwise "
            f"non-proportional directions exist in a {u - 1}-dimensional "
            f"null space")
    # each lead is the first normalized member of its O(x), in base-s
    # order, that no earlier x took; one is always free below capacity
    place = s ** np.arange(u - 1, -1, -1)
    leads = np.empty_like(xs)
    for j, basis in enumerate(_null_space_bases(field, xs)):
        span = generate_linear_array(field, basis.T)
        span = span[span.any(axis=1)
                    & (_leading_one(field, span) == span).all(axis=1)]
        leads[j] = span[np.isin(span @ place, leads[:j] @ place,
                                invert=True).argmax()]
    bases = _completed_bases(field, xs, leads[:, None])
    return [tuple(map(tuple, b)) for b in bases.tolist()]
