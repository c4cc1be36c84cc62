"""Parameter catalog: every design family the constructions reach, with the
advertised sizes, and on demand the materialized + verified designs.

One CatalogRow per parameter set, carrying both pairings (item "i" and
item "ii") like the published tables do.  Advertised strengths follow the
table convention for s >= 3 (strength 2 on the admissible side even for a
single column); for s = 2 the honest min(3, width) is recorded.
Verification always checks at min(advertised, width).
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import (
    direct_construction,
    expected_intersection_size,
    subspace_construction,
)
from .errors import BadParamsError
from .gf import checked_order, galois_field
from .nstar import prefix_set
from .verify import CheckResult, VerificationReport, battery

U_MAX_CAP = 6


@dataclass(frozen=True)
class CatalogRow:
    s: int
    u: int
    u1: int
    method: str              # "theorem1" | "theorem2"
    v: int | None            # theorem2 only
    star: bool               # v == n* marker
    n_a: int | None          # theorem1 only: admissible-set size
    g: int | None            # theorem2 only: normalized intersection size
    free_coords: int         # u - u1
    k: int | None            # theorem2 only: v * s^(u-u1)
    d1_i: tuple[int, int, int, int]    # (runs, columns, levels, strength)
    d2_i: tuple[int, int]              # (runs, columns)
    d1_ii: tuple[int, int, int, int]
    d2_ii: tuple[int, int]


def _check_sweep_params(s: int, u_max: int) -> None:
    checked_order(s)
    if not 2 <= u_max <= U_MAX_CAP:
        raise BadParamsError(f"u_max must lie in 2..{U_MAX_CAP}, got {u_max}")


def direct_rows(s: int, u_max: int) -> list[CatalogRow]:
    """Unit-vectors-against-admissible-set rows for u = 2..u_max, u1 <= u."""
    _check_sweep_params(s, u_max)
    rows = []
    for u in range(2, u_max + 1):
        n = s ** u
        for u1 in range(1, u + 1):
            n_a = (s - 1) ** (u1 - 1) * s ** (u - u1)
            rows.append(CatalogRow(
                s=s, u=u, u1=u1, method="theorem1",
                v=None, star=False, n_a=n_a, g=None,
                free_coords=u - u1, k=None,
                d1_i=(n, u1, s, u1), d2_i=(n, n_a),
                d1_ii=(n, n_a, s, min(2, n_a)), d2_ii=(n, u1)))
    return rows


def subspace_rows(s: int, u_max: int) -> list[CatalogRow]:
    """Subspace-trading rows for u = 2..u_max, u1 <= u, v = 1..n*."""
    _check_sweep_params(s, u_max)
    rows = []
    for u in range(2, u_max + 1):
        n = s ** u
        for u1 in range(1, u + 1):
            nstar = prefix_set(s, u1).size
            for v in range(1, nstar + 1):
                g = expected_intersection_size(s, u1, v) // (s - 1)
                k = v * s ** (u - u1)
                if s == 2:
                    t_g, t_k = min(3, g), min(3, k)
                else:
                    t_g = t_k = 2
                rows.append(CatalogRow(
                    s=s, u=u, u1=u1, method="theorem2",
                    v=v, star=(v == nstar), n_a=None, g=g,
                    free_coords=u - u1, k=k,
                    d1_i=(n, g, s, t_g), d2_i=(n, k),
                    d1_ii=(n, k, s, t_k), d2_ii=(n, g)))
    return rows


def all_rows(s: int, u_max: int) -> list[CatalogRow]:
    return direct_rows(s, u_max) + subspace_rows(s, u_max)


def materialize(row: CatalogRow, item: str):
    """Construct the design a row advertises under one pairing, with the
    identity seed: every check of the battery is seed-invariant."""
    field = galois_field(row.s)
    if row.method == "theorem1":
        return direct_construction(field, row.u, row.u1, item)
    if row.method == "theorem2":
        return subspace_construction(field, row.u, row.u1, row.v, item)
    raise BadParamsError(f"row has unknown method {row.method!r}")


def verify_row(row: CatalogRow) -> VerificationReport:
    """Materialize both pairings of a row and run the battery with the
    advertised D1 strength clamped to the column count, then check the
    advertised dimensions."""
    checks: list[CheckResult] = []
    for item, d1_adv, d2_adv in (("i", row.d1_i, row.d2_i),
                                 ("ii", row.d1_ii, row.d2_ii)):
        mcd = materialize(row, item)
        n, m_adv, _, t_adv = d1_adv
        checks.extend(battery(mcd.d1, mcd.d2, row.s,
                              strength=min(t_adv, mcd.d1.m)).checks)
        dims_ok = (mcd.d1.data.shape == (n, m_adv)
                   and mcd.d2.data.shape == (d2_adv[0], d2_adv[1]))
        detail = "" if dims_ok else (
            f"item {item}: got D1 {mcd.d1.data.shape}, D2 "
            f"{mcd.d2.data.shape}, advertised {d1_adv} / {d2_adv}")
        checks.append(CheckResult("advertised-parameters", (item,),
                                  dims_ok, detail))
    return VerificationReport(tuple(checks))
