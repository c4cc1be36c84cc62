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
  side's generators.
* ``anti_mirror_construction`` (s=2 only): like the subspace construction
  at v=1, but the generator matrix of each O(x_i) is forced to lead with
  eta_i = (1, 1, 0...0, complement of the tail of x_i), which buys a
  2x2x2 grid guarantee on every triple of quantitative columns.
* ``stratified_generator_choice``: picks pairwise non-proportional leading
  generator columns across the x's, buying an s x s grid guarantee on
  every pair of quantitative columns.

``general_construction`` is the open variant: any vectors, any explicit
generator overrides, every precondition checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, product
from math import comb
from typing import TypeVar

import numpy as np

from .designs import (
    IDENTITY_SEED,
    CollapsedDesign,
    LatinHypercube,
    OrthogonalArray,
    Seed,
    expand_levels,
    method_of_replacement,
)
from .errors import (
    BadParamsError,
    NotApplicableError,
    OrthogonalityViolationError,
    ProportionalVectorsError,
    TooLargeError,
    TooManyColumnsError,
    VOutOfRangeError,
    ZeroVectorError,
)
from .gf import GaloisField, galois_field
from .linalg import (
    Vector,
    _enumeration_size,
    _leading_one,
    dot,
    enumerate_span,
    enumerate_tuples,
    extend_to_basis,
    generate_linear_array,
    orthogonal_complement_basis,
    rank,
    unit_vector,
)
from .verify import battery, first_equal_pair, require_mcd_work

# ---------------------------------------------------------------------------
# vector families
# ---------------------------------------------------------------------------


def unit_combinations(field: GaloisField, u: int, u1: int) -> list[Vector]:
    """E: all s^u1 linear combinations of e_1..e_u1, as length-u vectors,
    coefficients in base-s order."""
    _check_u_u1(u, u1)
    return [lam + (0,) * (u - u1) for lam in enumerate_tuples(field, u1)]


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
    # digit by digit (1, then u1-1 nonzero, then u-u1 free): base-s order
    vecs = tuple(product((1,), *[range(1, s)] * (u1 - 1),
                         *[range(s)] * (u - u1)))
    return AdmissibleSet(field, u, u1, vecs)


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
    that are min(v, u1)-wise independent: (s-1)^v s^(u1-v) for v <= u1,
    and the alternating binomial sum (rank saturates at u1) beyond."""
    if v < 1:
        raise VOutOfRangeError(f"v must be at least 1, got {v}")
    if v <= u1:
        return (s - 1) ** v * s ** (u1 - v)
    head = sum((-1) ** i * comb(v, i) * s ** (u1 - i) for i in range(u1 + 1))
    tail = sum((-1) ** i * comb(v, i) for i in range(u1 + 1, v + 1))
    return head + tail


def common_nonorthogonal(part: AdmissiblePartition,
                         prefix_indices) -> NonorthogonalIntersection:
    """Intersection of Ebar_i over the chosen prefixes, with its
    leading-1 (normalized) members and whether the prefixes are
    independent enough for the closed-form size."""
    indices = tuple(int(i) for i in prefix_indices)
    if not indices:
        raise BadParamsError("need at least one prefix index")
    if len(set(indices)) != len(indices):
        raise BadParamsError(f"duplicate prefix indices in {indices}")
    for i in indices:
        if not 0 <= i < part.group_count:
            raise BadParamsError(
                f"prefix index {i} outside 0..{part.group_count - 1}")
    f = part.field
    prefixes = [part.prefixes[i] for i in indices]
    # row r holds z_r^T b for every chosen prefix b, z_r in E's order
    hits = generate_linear_array(f, prefixes).all(axis=1)
    members = tuple(compress(unit_combinations(f, part.u, part.u1),
                             hits.tolist()))
    normalized = tuple(z for z in members if next(filter(None, z)) == 1)
    k = min(len(prefixes), part.u1)
    independent = all(rank(f, sub) == k for sub in combinations(prefixes, k))
    return NonorthogonalIntersection(indices, members, normalized,
                                     independent)


# ---------------------------------------------------------------------------
# prefix capacity: how many groups can be traded at once
# ---------------------------------------------------------------------------


def independent_prefix_bound(s: int, u1: int) -> int:
    """Upper bound on the number of prefixes with every u1 of them
    linearly independent.  These prefixes are points of an arc in
    PG(u1-1, s), so the bounds on arcs apply:

    * u1 = 1 or s = 2: 1; u1 = 2: s - 1.  Both exact.
    * s <= u1: u1 + 1 (Bush 1952).
    * u1 = 3: s + 1 for odd s, s + 2 for even s (Bose 1947; Segre 1955).
    * s + 1, the MDS bound, for u1 < s when s is prime (S. Ball, JEMS 14,
      2012); when u1 = 4 and s > 4 (Segre 1955 for odd s, L. R. A. Casse
      1979 for even s); when s = p^h and u1 <= 2p - 2 (S. Ball and
      J. De Beule, Des. Codes Cryptogr. 65, 2012).
    * (8, 6): 9.  An n-arc in PG(k-1, s) gives one in PG(n-k-1, s), the
      dual MDS code, so a 10-arc in PG(5, 8) would give a 10-arc in
      PG(3, 8), past the u1 = 4 bound of 9.
    * otherwise s + u1 - 2 for odd s and s + u1 - 1 for even s.
    """
    if u1 < 1:
        raise BadParamsError(f"u1 must be at least 1, got {u1}")
    if u1 == 1 or s == 2:
        return 1
    if u1 == 2:
        return s - 1
    if s <= u1:
        return u1 + 1
    p = next(c for c in range(2, s + 1) if s % c == 0)
    if p == s or u1 == 4 or u1 <= 2 * p - 2 or (s, u1) == (8, 6):
        return s + 1
    if s % 2 == 1:
        return s + u1 - 2
    return s + u1 - 1


@dataclass(frozen=True)
class PrefixSearch:
    """A set of prefixes with every min(size, u1) of them independent.

    ``labels`` index the partition prefixes (base-s order over the
    nonzero tail digits), ascending.  ``certified`` is
    "provably-maximal" when the size equals ``bound`` or the search
    exhausted the whole candidate space; "maximal-within-search" when
    the search ran out of budget; "arc-lower-bound" for an arc below
    the bound, so that n* is at least its size.
    """

    s: int
    u1: int
    labels: tuple[int, ...]
    prefixes: tuple[Vector, ...]
    bound: int
    certified: str

    @property
    def size(self) -> int:
        return len(self.labels)


_SEARCH_NODE_BUDGET = 1 << 20


def max_independent_prefixes(field: GaloisField, u1: int) -> PrefixSearch:
    """Deterministic branch-and-bound for a maximum set of prefixes with
    every min(size, u1)-subset linearly independent.

    Candidates are scanned in label order, so the returned label set is
    the first maximum found and is stable across runs.  The search prunes
    with the closed-form bound and stops as soon as the bound is attained.

    A candidate may join exactly when it lies in the span of no set of at
    most u1-1 selected prefixes.  Such sets are independent, so this is
    the rank test: with fewer than u1 selected the whole selection is one,
    beyond that each (u1-1)-subset plus the candidate needs rank u1.
    ``blocked`` counts the spans holding each candidate: c joining adds
    the span of c with each set of at most u1-2 selected prefixes, and
    popping c takes it off.
    """
    s = field.s
    if u1 < 1:
        raise BadParamsError(f"u1 must be at least 1, got {u1}")
    _enumeration_size(s - 1, u1 - 1)
    cands: list[Vector] = [(1,) + tail for tail in
                           product(range(1, s), repeat=u1 - 1)]
    place = (s - 1) ** np.arange(u1 - 2, -1, -1)
    blocked = np.zeros(len(cands), dtype=np.int64)
    bound = independent_prefix_bound(s, u1)
    best: list[int] = []
    nodes = 0
    exhausted = True

    def spans_with(sel: list[int], c: int) -> np.ndarray:
        counts = np.zeros(len(cands), dtype=np.int64)
        for size in range(min(len(sel), u1 - 2) + 1):
            for sub in combinations(sel, size):
                span = generate_linear_array(
                    field, list(zip(*(cands[i] for i in sub + (c,)))))
                # each candidate in the span, once: leading 1, tail in base s-1
                inside = (span[:, 0] == 1) & (span[:, 1:] != 0).all(axis=1)
                counts[(span[inside, 1:] - 1) @ place] += 1
        return counts

    def dfs(start: int, sel: list[int]) -> bool:
        nonlocal best, nodes, exhausted
        if len(sel) > len(best):
            best = list(sel)
            if len(best) >= bound:
                return True
        for c in range(start, len(cands)):
            nodes += 1
            if nodes > _SEARCH_NODE_BUDGET:
                exhausted = False
                return True
            if len(sel) + (len(cands) - c) <= len(best):
                break
            if not blocked[c]:
                counts = spans_with(sel, c)
                blocked[:] += counts
                sel.append(c)
                done = dfs(c + 1, sel)
                sel.pop()
                blocked[:] -= counts
                if done:
                    return True
        return False

    dfs(0, [])
    certified = ("provably-maximal" if len(best) == bound or exhausted
                 else "maximal-within-search")
    labels = tuple(best)
    return PrefixSearch(s, u1, labels,
                        tuple(cands[i] for i in labels), bound, certified)


@lru_cache(maxsize=None)
def _cached_prefix_search(s: int, u1: int) -> PrefixSearch:
    """The n* prefix set that constructions and the catalog use: the
    search for s <= 7, u1 <= 2 and u1 > 6, ``nstar.prefix_set`` (a table
    or an arc) for every other cell."""
    if s <= 7 or not 3 <= u1 <= 6:
        return max_independent_prefixes(galois_field(s), u1)
    from .nstar import prefix_set  # off the import path of the other cells
    return prefix_set(s, u1)


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
    z = tuple(int(c) for c in z)
    if len(z) != u:
        raise BadParamsError(f"z must have length {u}")
    if any(z[i] != 0 for i in range(u1, u)):
        raise NotApplicableError(
            "z lies outside the span of the first u1 unit vectors")
    nz = [i for i in range(u1) if z[i] != 0]
    if len(nz) < 2:
        raise NotApplicableError(
            "z needs at least two nonzero coefficients")
    last, alpha2 = nz[-1], 2
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    x = [1] * u
    lam = dot(field, z[:last], (1,) * last)  # lam*
    if lam == 0:
        x[nz[-2]] = alpha2
        lam = mul[z[nz[-2]], add[alpha2, neg[1]]]
    x[last] = int(mul[neg[field.inv_table[z[last]]], lam])
    witness = tuple(x)
    assert dot(field, z, witness) == 0
    return witness


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
    """A verified-or-verifiable bundle: s-level D1, Latin hypercube D2,
    and the collapsed form of D2 the construction actually built."""

    d1: OrthogonalArray
    d2: LatinHypercube
    collapsed: CollapsedDesign
    params: ConstructionParams
    provenance: Provenance

    def full_verification(self):
        return battery(self.d1, self.d2, self.params.s)


#: largest design a construction builds, in cells n * (m + k).  A whole
#: construct run peaked at 38 bytes of RSS per cell at 4.2M cells and 68 at
#: 1.05M, as JSON or CSV alike, so the largest accepted design stays well
#: under 1 GiB.
MAX_DESIGN_CELLS = 5_000_000


def _check_runs(s: int, u: int) -> None:
    """Fail closed on s^u runs alone over the cell cap without computing
    s^u, which for u = 20000 has more digits than Python will print."""
    if s ** min(u, 64) > MAX_DESIGN_CELLS:
        raise TooLargeError(
            f"{s}^{u} runs is over the cap of {MAX_DESIGN_CELLS} cells")


def _check_size(s: int, u: int, m: int, k: int) -> None:
    """Fail closed, before anything is enumerated, on a design with s^u
    runs, m qualitative and k quantitative columns that is too large to
    build or to verify."""
    _check_runs(s, u)
    n = s ** u
    cells = n * (m + k)
    if cells > MAX_DESIGN_CELLS:
        raise TooLargeError(
            f"{n} runs x {m} + {k} columns is {cells} cells, over the "
            f"cap of {MAX_DESIGN_CELLS}")
    require_mcd_work(n, m, k)


def _check_u_u1(u: int, u1: int) -> None:
    if u < 1:
        raise BadParamsError(f"u must be at least 1, got {u}")
    if not 1 <= u1 <= u:
        raise BadParamsError(f"u1 must lie in 1..{u}, got {u1}")


def _check_directions(field: GaloisField, vecs: list[Vector],
                      label: str) -> None:
    """Reject the first zero vector, then the first proportional pair."""
    rows = np.array(vecs, dtype=np.int64)
    zero = np.flatnonzero(~rows.any(axis=1))
    if zero.size:
        raise ZeroVectorError(f"{label} vector {zero[0]} is zero")
    pair = first_equal_pair(map(tuple, _leading_one(field, rows).tolist()))
    if pair:
        raise ProportionalVectorsError(
            f"{label} vectors {pair[0]} and {pair[1]} are proportional")


def _as_vectors(field: GaloisField, vecs, label: str) -> list[Vector]:
    out = []
    for i, v in enumerate(vecs):
        vec = tuple(int(c) for c in v)
        if any(not 0 <= c < field.s for c in vec):
            raise BadParamsError(
                f"{label} vector {i} has entries outside GF({field.s})")
        out.append(vec)
    return out


def general_construction(field: GaloisField, z_list, x_list,
                         seed: Seed = IDENTITY_SEED,
                         generator_overrides: dict[int, tuple] | None = None,
                         method: str = "general",
                         params: ConstructionParams | None = None,
                         ) -> MarginallyCoupledDesign:
    """Build an MCD from explicit vectors.  Checks every precondition:
    equal dimensions, no zero or pairwise-proportional vectors on either
    side, and z_i^T x_j != 0 for every pair (all offending pairs listed).

    ``generator_overrides`` maps an x index to an explicit tuple of u-1
    generator columns for its null space (each must be orthogonal to that
    x and the tuple linearly independent); unlisted x's use the canonical
    null-space basis.
    """
    zs = _as_vectors(field, z_list, "z")
    xs = _as_vectors(field, x_list, "x")
    if not zs or not xs:
        raise BadParamsError("need at least one z and one x vector")
    u = len(zs[0])
    if any(len(v) != u for v in zs + xs):
        raise BadParamsError("all z and x vectors must share one dimension")
    if u < 2:
        raise BadParamsError("construction needs u >= 2")
    _check_size(field.s, u, len(zs), len(xs))
    _check_directions(field, zs, "z")
    _check_directions(field, xs, "x")
    s = field.s
    d1 = generate_linear_array(field, zs)
    # row x of D1 (x read as a base-s number) holds x^T z for every z
    dots = d1[np.array(xs) @ s ** np.arange(u - 1, -1, -1)]
    clashes = [(int(i), int(j)) for i, j in np.argwhere(dots.T == 0)]
    if clashes:
        raise OrthogonalityViolationError(
            "z^T x = 0 for (z index, x index) pairs: "
            + ", ".join(map(str, clashes)))
    d1 = OrthogonalArray(d1, (s,) * len(zs))

    overrides = generator_overrides or {}
    for j in overrides:
        if not 0 <= j < len(xs):
            raise BadParamsError(f"generator override for unknown x index {j}")
    gens: list[tuple[Vector, ...]] = []
    for j, x in enumerate(xs):
        if j in overrides:
            cols = _as_vectors(field, overrides[j], f"generator[{j}]")
            if len(cols) != u - 1 or any(len(c) != u for c in cols):
                raise BadParamsError(
                    f"override for x {j} must be {u - 1} columns of length {u}")
            bad = [c for c in cols if dot(field, c, x) != 0]
            if bad:
                raise BadParamsError(
                    f"override column {bad[0]} is not orthogonal to x {j}")
            if rank(field, cols) != u - 1:
                raise BadParamsError(
                    f"override columns for x {j} are linearly dependent")
            gens.append(tuple(cols))
        else:
            gens.append(orthogonal_complement_basis(field, x).vectors)

    tilde = np.stack(
        [method_of_replacement(generate_linear_array(field, cols), s)
         for cols in gens], axis=1)
    collapsed = CollapsedDesign(s, tilde)
    d2 = expand_levels(collapsed, s, seed)
    return MarginallyCoupledDesign(
        d1, d2, collapsed,
        params or ConstructionParams(s=s, u=u, seed=seed),
        Provenance(method, tuple(zs), tuple(xs), tuple(gens)))


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
    _check_runs(s, u)  # before the closed forms in s^u below
    _check_size(s, u, *_item_sides(item, u1,
                                   (s - 1) ** (u1 - 1) * s ** (u - u1)))
    units = [unit_vector(u, i) for i in range(u1)]
    avecs = list(admissible_set(field, u, u1).vectors)
    zs, xs = _item_sides(item, units, avecs)
    params = ConstructionParams(field.s, u, u1, None, item, seed)
    return general_construction(field, zs, xs, seed,
                                method="theorem1", params=params)


def subspace_construction(field: GaloisField, u: int, u1: int, v: int,
                          item: str = "i",
                          seed: Seed = IDENTITY_SEED) -> MarginallyCoupledDesign:
    """Trade v admissible groups against the common non-orthogonal subset
    of E.  Uses the first v labels of the n* prefix set of
    ``_cached_prefix_search``; v must lie in 1..n* (its size).

    item "i":  D1 from the g(v) normalized common members, D2 with
               v * s^(u-u1) columns.
    item "ii": the swap.
    """
    _check_u_u1(u, u1)
    if u < 2:
        raise BadParamsError("construction needs u >= 2")
    s = field.s
    _check_runs(s, u)  # before the closed forms in s^u below
    # n* never exceeds the bound, and the closed form below costs O(v)
    # big-integer terms, so a larger v is refused before either runs
    bound = independent_prefix_bound(s, u1)
    if v > bound:
        raise VOutOfRangeError(
            f"v={v} exceeds the bound {bound} on n* for s={s}, u1={u1}")
    # the closed forms reject v < 1 and size the design before the search
    _check_size(s, u, *_item_sides(
        item, expected_intersection_size(s, u1, v) // (s - 1),
        v * s ** (u - u1)))
    search = _cached_prefix_search(s, u1)
    if v > search.size:
        raise VOutOfRangeError(
            f"v={v} outside 1..{search.size} for s={s}, u1={u1}")
    part = partition_admissible(admissible_set(field, u, u1))
    chosen = search.labels[:v]
    inter = common_nonorthogonal(part, chosen)
    estar = list(inter.normalized)
    astar = [x for i in chosen for x in part.groups[i]]
    zs, xs = _item_sides(item, estar, astar)
    params = ConstructionParams(field.s, u, u1, v, item, seed)
    return general_construction(field, zs, xs, seed,
                                method="theorem2", params=params)


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
    _check_runs(2, u)  # before the closed forms in 2^u
    _check_size(2, u, 2 ** (u1 - 1), 2 ** (u - u1))
    tails = list(product(range(2), repeat=u - u1))
    xs = [(1,) * u1 + tail for tail in tails]
    overrides: dict[int, tuple] = {}
    for j, tail in enumerate(tails):
        eta = (1, 1) + (0,) * (u1 - 2) + tuple(1 - b for b in tail)
        assert dot(field, eta, xs[j]) == 0
        overrides[j] = extend_to_basis(field, xs[j], [eta])
    part = partition_admissible(admissible_set(field, u, u1))
    zs = list(common_nonorthogonal(part, (0,)).normalized)
    params = ConstructionParams(2, u, u1, 1, None, seed)
    return general_construction(field, zs, xs, seed,
                                generator_overrides=overrides,
                                method="anti-mirror", params=params)


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
    xs = _as_vectors(field, x_list, "x")
    if not xs:
        raise BadParamsError("need at least one x vector")
    u = len(xs[0])
    if any(len(x) != u for x in xs):
        raise BadParamsError("all x vectors must share one dimension")
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
    used: set[Vector] = set()
    result: list[tuple[Vector, ...]] = []
    for x in xs:
        span = np.array(enumerate_span(orthogonal_complement_basis(field, x)))
        canonical = (span.any(axis=1)
                     & (_leading_one(field, span) == span).all(axis=1))
        lead = next(w for w in map(tuple, span[canonical].tolist())
                    if w not in used)
        used.add(lead)
        result.append(extend_to_basis(field, x, [lead]))
    return result
