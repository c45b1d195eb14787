"""Bundled corpus: small verified constructions plus parameter-only rows for
the larger published designs.

Every payload is built here, from a table row or a generator, and gated
through its verifier when loaded, so a mistyped row or a broken generator
surfaces as an error instead of a silently wrong golden object; no data file
is shipped.  Parameter-only entries carry the published key-count bound b_opt
for arithmetic cross-checks; their designs are beyond desk scale.  Entry
names are unique, which the test suite asserts; the registry is one dict
keyed by name.
"""

from __future__ import annotations

from collections.abc import Callable

from .designs import (BlockDesign, DesignParameters, complete_design,
                      verify_design)
from .difference_families import DifferenceFamily, netto_triples, verify_df
from .errors import ConstructionError
from .record import record


@record
class CatalogEntry:
    """One named corpus item.

    kind 'design' payloads load as (BlockDesign, t, lambda); 'cdf' as
    DifferenceFamily; 'apa' as PerpendicularArray; 'params-only' entries
    have no payload (loader is None).  A loader takes the work budget its
    generators and verifier charge.
    """

    name: str
    kind: str
    summary: str
    note: str
    params: DesignParameters | None = None
    b_opt: int | None = None
    loader: Callable | None = None


def _gated_df(name: str, v: int, lam: int, blocks: tuple,
              budget: int | None) -> DifferenceFamily:
    df = DifferenceFamily(v=v, lambda_=lam, base_blocks=blocks)
    verify_df(df, budget).require(
        ConstructionError, f"catalog entry {name!r} failed difference verification")
    return df


def _gated_design(design: BlockDesign, t: int, lam: int, name: str,
                  budget: int | None):
    verify_design(design, t, lam, budget).require(
        ConstructionError, f"catalog entry {name!r} failed design verification")
    return design, t, lam


def _van_rees(budget: int | None):
    from .apa import van_rees_array   # verifies the array before returning
    return van_rees_array(budget)


_BUNDLED = " from bundled data"

# (name, v, lambda, base blocks, summary tail, note) of each non-Netto CDF
_CDFS = (
    ("cdf-13-3-1", 13, 1, ((0, 1, 4), (0, 2, 7)),
     ": base blocks {0,1,4}, {0,2,7}",
     "classical two-block difference family over Z_13; develops into "
     "the optimal 26-key system on 13 messages"),
    ("fano-cdf", 7, 1, ((1, 2, 4),), ": base block {1,2,4}",
     "quadratic residues mod 7; develops into the Fano plane"),
    ("biplane-cdf-11-5-2", 11, 2, ((1, 3, 4, 5, 9),),
     ": base block {1,3,4,5,9}",
     "quadratic residues mod 11; develops into the 2-(11,5,2) "
     "biplane, a near-optimal system"),
    ("cdf-13-4-1", 13, 1, ((0, 1, 3, 9),), _BUNDLED,
     "planar difference set {0,1,3,9} (projective plane of order 3)"),
    ("cdf-41-5-1", 41, 1, ((1, 10, 16, 18, 37), (2, 20, 32, 33, 36)), _BUNDLED,
     "radical two-block family over GF(41): cosets of the 5th roots of unity"),
    ("cdf-31-6-1", 31, 1, ((0, 1, 3, 8, 12, 18),), _BUNDLED,
     "planar difference set (projective plane of order 5), found by "
     "exhaustive difference-tally search"),
    ("cdf-337-7-1", 337, 1,
     ((1, 8, 52, 64, 79, 175, 295), (62, 66, 92, 159, 180, 191, 261),
      (6, 39, 47, 48, 85, 137, 312), (35, 59, 69, 135, 215, 218, 280),
      (36, 148, 173, 187, 234, 282, 288), (17, 77, 136, 210, 279, 297, 332),
      (7, 27, 43, 56, 111, 214, 216), (97, 102, 125, 142, 249, 307, 326)),
     _BUNDLED,
     "radical eight-block family over GF(337): multiplicative cosets of "
     "the 7th roots of unity"),
    ("cdf-57-8-1", 57, 1, ((0, 1, 3, 13, 32, 36, 43, 52),), _BUNDLED,
     "planar difference set (projective plane of order 7), found by "
     "exhaustive difference-tally search"),
    ("cdf-73-9-1", 73, 1, ((1, 2, 4, 8, 16, 32, 37, 55, 64),), _BUNDLED,
     "the 9th roots of unity in GF(73) form a planar difference set"),
)

_AG23_BLOCKS = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (1, 5, 6), (2, 3, 7),
    (0, 5, 7), (1, 3, 8), (2, 4, 6),
)

_NETTO_PRIMES = (7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97)

# (t, v, k, lambda, b): small Steiner design parameter rows with their
# published key counts b = C(v,t)/C(k,t)
_STEINER_ROWS = (
    (3, 26, 5, 1, 260),
    (4, 11, 5, 1, 66),
    (4, 23, 7, 1, 253),
    (4, 23, 5, 1, 1771),
    (4, 47, 5, 1, 35673),
    (4, 83, 5, 1, 367524),
    (4, 71, 5, 1, 194327),
    (4, 107, 5, 1, 1032122),
    (4, 131, 5, 1, 2343328),
    (4, 167, 5, 1, 6251311),
    (4, 243, 5, 1, 28344492),
    (5, 12, 6, 1, 132),
    (5, 84, 6, 1, 5145336),
    (5, 244, 6, 1, 1152676008),
)

# (t, v, k, lambda, b_opt): published 6- and 7-design parameter rows; actual
# key count is lambda * b_opt
_T67_ROWS = (
    (6, 19, 7, 4, 3876),
    (6, 22, 7, 8, 10659),
    (6, 23, 7, 4, 14421),
    (6, 25, 7, 6, 25300),
    (6, 32, 7, 6, 129456),
    (7, 24, 8, 8, 43263),
    (7, 26, 8, 6, 82225),
    (7, 33, 8, 10, 534006),
)

# (t, v, k, lambda, b_opt): published 8-design parameter rows
_T8_ROWS = (
    (8, 31, 10, 100, 175305),
    (8, 27, 11, 432, 13455),
    (8, 36, 11, 1260, 183396),
    (8, 40, 11, 1440, 466089),
    (8, 27, 12, 1296, 4485),
)


def _build_registry():
    entries = []
    add = entries.append

    for name, v, lam, blocks, summary, note in _CDFS:
        params = DesignParameters(2, v, len(blocks[0]), lam)
        add(CatalogEntry(
            name=name, kind="cdf", note=note, params=params,
            summary=f"CDF({v},{params.k},{lam}){summary}",
            loader=lambda budget, row=(name, v, lam, blocks): _gated_df(
                *row, budget)))

    for q in _NETTO_PRIMES:
        add(CatalogEntry(
            name=f"netto-{q}", kind="cdf",
            summary=f"Netto triple system CDF({q},3,1)",
            note="Netto's construction from sixth-power cosets mod q",
            params=DesignParameters(2, q, 3, 1),
            # netto_triples verifies the family before returning
            loader=(lambda budget, qq=q: netto_triples(qq, budget))))

    add(CatalogEntry(
        name="complete-5-3", kind="design",
        summary="3-(5,3,1): all ten 3-subsets of five points",
        note="complete design; the smallest 2-fold secure example",
        params=DesignParameters(3, 5, 3, 1),
        loader=lambda budget: _gated_design(
            complete_design(5, 3, budget), 3, 1, "complete-5-3", budget)))
    add(CatalogEntry(
        name="ag-2-3", kind="design",
        summary="2-(9,3,1): the affine plane of order 3",
        note="negative example for balancing: b=12 is not divisible by v=9",
        params=DesignParameters(2, 9, 3, 1),
        loader=lambda budget: _gated_design(
            BlockDesign(v=9, blocks=_AG23_BLOCKS), 2, 1, "ag-2-3", budget)))

    add(CatalogEntry(
        name="van-rees-apa", kind="apa",
        summary="APA_1(2,3,11): 55 rows, five base rows developed mod 11",
        note="van Rees's perpendicular array on 11 symbols",
        loader=_van_rees))

    for t, v, k, lam, b in _STEINER_ROWS:
        add(CatalogEntry(
            name=f"params-{t}-{v}-{k}-{lam}", kind="params-only",
            summary=f"{t}-({v},{k},{lam}) Steiner parameters, b = {b}",
            note="published optimal parameter row; design not bundled "
                 "(beyond desk scale)",
            params=DesignParameters(t, v, k, lam), b_opt=b))
    for t, v, k, lam, b_opt in _T67_ROWS + _T8_ROWS:
        add(CatalogEntry(
            name=f"params-{t}-{v}-{k}-{lam}", kind="params-only",
            summary=f"{t}-({v},{k},{lam}) parameters, b = {lam}*{b_opt}",
            note="published parameter row from the Kramer–Mesner-style "
                 "construction literature; design not bundled",
            params=DesignParameters(t, v, k, lam), b_opt=b_opt))

    return {entry.name: entry for entry in entries}


_REGISTRY = _build_registry()


def entries():
    """All catalog entries, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get(name: str) -> CatalogEntry:
    """Look up one entry; KeyError for unknown names."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown catalog entry {name!r}")
    return _REGISTRY[name]


def load_payload(name: str, budget: int | None = None):
    """Load and verify the payload of a named entry, every generator and
    verifier charging against `budget`.

    Returns (design, t, lambda) / DifferenceFamily / PerpendicularArray
    depending on kind; None for params-only rows.
    """
    loader = get(name).loader
    return None if loader is None else loader(budget)
