"""Shared fixtures and helpers for the test suite.

The golden constants here were checked by hand (or against published tables)
before being frozen; tests compare library output against them rather than
against other library output.
"""

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from authdesigns import (
    DifferenceFamily,
    DomainError,
    EncodingMatrix,
    SecrecySystem,
    balance,
    catalog,
    complete_design,
    develop,
    develop_matrix,
    lambda_table,
)
from authdesigns.balancing import SplitGraph
from authdesigns.designs import canonical_blocks

# The published balanced ordering of the twofold (13, 3) system built from
# base blocks {0, 1, 4} and {0, 2, 7} over Z_13: rows e_1..e_26, columns
# s_1..s_3.  Row i (0-based) of the first orbit is (g, 1+g, 4+g) mod 13 and
# of the second orbit (g, 2+g, 7+g) mod 13 -- frozen entry for entry.
Z13_GOLDEN_ROWS = (
    (0, 1, 4), (1, 2, 5), (2, 3, 6), (3, 4, 7), (4, 5, 8), (5, 6, 9),
    (6, 7, 10), (7, 8, 11), (8, 9, 12), (9, 10, 0), (10, 11, 1),
    (11, 12, 2), (12, 0, 3),
    (0, 2, 7), (1, 3, 8), (2, 4, 9), (3, 5, 10), (4, 6, 11), (5, 7, 12),
    (6, 8, 0), (7, 9, 1), (8, 10, 2), (9, 11, 3), (10, 12, 4), (11, 0, 5),
    (12, 1, 6),
)

Z13_BASES = ((0, 1, 4), (0, 2, 7))
FANO_BASES = ((1, 2, 4),)
BIPLANE_BASES = ((1, 3, 4, 5, 9),)


@pytest.fixture(scope="session")
def z13_df():
    return DifferenceFamily(13, 1, Z13_BASES)


@pytest.fixture(scope="session")
def fano_df():
    return DifferenceFamily(7, 1, FANO_BASES)


@pytest.fixture(scope="session")
def biplane_df():
    return DifferenceFamily(11, 2, BIPLANE_BASES)


@pytest.fixture(scope="session")
def z13_matrix(z13_df):
    return develop_matrix(z13_df)


@pytest.fixture(scope="session")
def z13_system(z13_matrix):
    return SecrecySystem(z13_matrix)


@pytest.fixture(scope="session")
def fano_matrix(fano_df):
    return develop_matrix(fano_df)


@pytest.fixture(scope="session")
def fano_system(fano_matrix):
    return SecrecySystem(fano_matrix)


@pytest.fixture(scope="session")
def biplane_system(biplane_df):
    return SecrecySystem(develop_matrix(biplane_df))


@pytest.fixture(scope="session")
def complete53_design():
    return complete_design(5, 3)


@pytest.fixture(scope="session")
def complete53_system(complete53_design):
    return SecrecySystem(balance(complete53_design))


@pytest.fixture(scope="session")
def fano_design(fano_df):
    return develop(fano_df)


def buildable_names():
    """Names of the catalog entries a system can be built from (designs and
    CDFs)."""
    return [e.name for e in catalog.entries() if e.kind in ("design", "cdf")]


def built_systems():
    """(name, t, matrix) for every catalog entry a system can be built from;
    entries whose parameters fail the divisibility gate are refused by
    construction and asserted as such."""
    out = []
    for name in buildable_names():
        entry = catalog.get(name)
        payload = catalog.load_payload(name)
        if entry.kind == "cdf":
            out.append((name, 2, develop_matrix(payload)))
        else:
            design, t, _ = payload
            if lambda_table(entry.params)[0] % entry.params.v:
                with pytest.raises(DomainError):
                    balance(design)
                continue
            out.append((name, t, balance(design)))
    assert len(out) >= 20
    return out


def develop_rows(v, bases):
    """Rows of the Z_v-orbits of the base blocks, short orbits included."""
    return tuple(sorted({tuple(sorted((x + g) % v for x in base))
                         for base in bases for g in range(v)}))


def swapped(rng: random.Random, blocks, swaps: int) -> tuple:
    """`blocks` after `swaps` seeded point swaps, each of a point x of a
    block A, not in a block B, for a point y of B, not in A: this keeps
    every point's replication.  A swap that would repeat a block is drawn
    again."""
    rows = set(blocks)
    while swaps:
        A, B = rng.sample(sorted(rows), 2)
        x, y = rng.choice(sorted({*A} - {*B})), rng.choice(sorted({*B} - {*A}))
        A2, B2 = tuple(sorted({*A} - {x} | {y})), tuple(sorted({*B} - {y} | {x}))
        if A2 not in rows and B2 not in rows:
            rows = rows - {A, B} | {A2, B2}
            swaps -= 1
    return canonical_blocks(rows)


def pair_corpus():
    """(name, v, blocks) of families to count pairs on: every catalog entry
    a system is built from, as a design (CDFs developed), and two seeded
    relabellings of it; each of these less one block, and over one point
    more than it uses; the Z_13-orbit of {0, 1, 2, 3}, with r = 4 but pairs
    in 1 to 3 blocks; seeded families of C(v,2)/C(k,2) distinct k-sets,
    whose λ = 1 is whole while r varies; at λ ≥ 2, where the digit width
    bits(λ) exceeds one bit: the union of the Z_13-orbits of {0, 1, 2, 3}
    and {0, 1, 2, 4}, with a whole λ = 2 and r = 8 but pairs in 0 to 5
    blocks (w = 2), and the complete 2-(6,4,6) (w = 3); and seeded near
    misses, point swaps that keep the replication on designs of λ = 1 to
    4, so that each passes the gates r·v = b·k and a whole λ."""
    rng = random.Random(26)
    cases = []
    for name in buildable_names():
        payload = catalog.load_payload(name)
        design = develop(payload) if catalog.get(name).kind == "cdf" else payload[0]
        v = design.v
        for tag in ("", "-relabelled-1", "-relabelled-2"):
            blocks = design.blocks
            if tag:
                perm = rng.sample(range(v), v)
                blocks = canonical_blocks([perm[x] for x in B] for B in blocks)
            cases += [(name + tag, v, blocks),
                      (name + tag + "-less-one", v, blocks[1:]),
                      (name + tag + "-extra-point", v + 1, blocks)]
    cases.append(("z13-orbit-0123", 13, develop_rows(13, [range(4)])))
    for v, k in ((7, 3), (13, 4), (16, 6), (21, 5), (31, 6)) * 2:
        blocks = set()
        while len(blocks) < comb(v, 2) // comb(k, 2):
            blocks.add(tuple(sorted(rng.sample(range(v), k))))
        cases.append((f"random-{v}-{k}", v, canonical_blocks(blocks)))
    cases += [("z13-orbits-0123-0124", 13,
               develop_rows(13, [(0, 1, 2, 3), (0, 1, 2, 4)])),
              ("complete-6-4", 6, complete_design(6, 4).blocks)]
    near = {"fano": (7, [(0, 1, 3)]), "z13-4": (13, [(0, 1, 3, 9)]),
            "fano-complement": (7, [(2, 4, 5, 6)]),
            "z7-lambda-3": (7, [(0, 1, 2), (0, 2, 4), (0, 1, 4)]),
            "z7-lambda-4": (7, [(0, 1, 2), (0, 2, 4), (0, 1, 4), (0, 1, 3)])}
    for name, (v, bases) in near.items():
        for n, swaps in enumerate((1, 1, 2, 3)):
            cases.append((f"{name}-swapped-{n}", v,
                          swapped(rng, develop_rows(v, bases), swaps)))
    return cases


def pair_counts(blocks) -> Counter:
    """The blocks holding each pair, counted pair by pair."""
    return Counter(pair for B in blocks for pair in combinations(B, 2))


def uniform_pair_lambda(v, blocks) -> int:
    """λ when every pair of 0..v-1 lies in λ ≥ 1 blocks, else 0."""
    counts = pair_counts(blocks)
    values = set(counts.values())
    return values.pop() if len(counts) == comb(v, 2) and len(values) == 1 else 0


def make_regular_bipartite(rng: random.Random, n: int, k: int) -> SplitGraph:
    """Random k-regular bipartite multigraph on n points and n rows, flat:
    slot m of row j holds the point the m-th of k uniformly random perfect
    matchings sends there (repeated edges allowed)."""
    rows = [[None] * k for _ in range(n)]
    for m in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            rows[perm[i]][m] = i
    return SplitGraph(n, tuple(x for row in rows for x in row))


def assert_proper_coloring(graph: SplitGraph, cells, k: int) -> None:
    """`cells` is an equitable coloring's row-major table: row j's k cells
    hold the points of its k edges as a multiset, and every column holds
    every point exactly c = rows/points times (c = 1: each column is a
    perfect matching of a k-regular graph)."""
    assert len(cells) == len(graph.edges)
    rows, rest = divmod(len(graph.edges), k)
    assert rest == 0
    c, rest = divmod(rows, graph.n)
    assert rest == 0 and c == graph.c
    for j in range(rows):
        row = slice(j * k, (j + 1) * k)
        assert Counter(cells[row]) == Counter(graph.edges[row]), \
            f"row {j} is not a permutation of its edges' points"
    for color in range(k):
        assert Counter(cells[color::k]) == dict.fromkeys(range(graph.n), c), \
            f"column {color} holds the points unevenly"


def mutate_entry(rng: random.Random, matrix: EncodingMatrix,
                 attempts: int = 2000):
    """One random single-entry change that keeps the matrix structurally
    valid (rows stay duplicate-free and pairwise distinct as sets).

    Returns (mutated_matrix, (row, col, new_value)).  Raises ValueError when
    no such mutation turns up — e.g. for a complete design, where every
    possible row set is already present and mutations die at the
    constructor instead.
    """
    row_sets = {frozenset(r) for r in matrix.rows}
    for _ in range(attempts):
        r = rng.randrange(len(matrix.rows))
        c = rng.randrange(matrix.k)
        x = rng.randrange(matrix.v)
        row = matrix.rows[r]
        if x in row:
            continue
        new_row = row[:c] + (x,) + row[c + 1:]
        if frozenset(new_row) in row_sets:
            continue
        rows = matrix.rows[:r] + (new_row,) + matrix.rows[r + 1:]
        return EncodingMatrix(matrix.v, matrix.k, rows), (r, c, x)
    raise ValueError("no structurally valid single-entry mutation found")
