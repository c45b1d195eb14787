"""Balanced orderings of block designs via equitable edge coloring.

A design with v | b can always have its blocks ordered into rows so that
every point occupies every column in exactly c = b/v rows, which makes the
matrix a perfect-secrecy encoding matrix under equiprobable keys: color the
incidence graph, one flat row-major point array, with the k columns so that
each block sees every color once and each point every color c times (de
Werra, 1971).  `edge_color` returns the coloring as its row-major cell table,
row j's point of color α in cell j·k + α, and `balance` cuts it into rows.
It builds its matrix through `record.unchecked`, without the row checks of
`EncodingMatrix`, once each row, sorted, equals its block.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, cycle, islice, repeat
from operator import eq

from .errors import DomainError, StructuralError
from .fileio import MAX_FAILURES, check_int, check_rows, fields, require, show_int
from .record import record, unchecked


@record
class EncodingMatrix:
    """b x k matrix: rows are keys, columns are source states, entries are
    messages in [0, v).

    Construction enforces row structure (k distinct in-range entries per row,
    rows pairwise distinct as sets), except in `balance` and `develop_matrix`,
    which prove it and build with `record.unchecked`.  The balanced-form
    property — every message exactly b/v times in every column — is checked
    separately by `verify_balanced`, so unbalanced matrices remain
    representable."""

    v: int
    k: int
    rows: tuple

    def __post_init__(self):
        check_int("v", self.v, 1)
        check_int("k", self.k, 1)
        rows = check_rows(self.rows, self.v, "row", size=self.k)
        if len(set(map(frozenset, rows))) != len(rows):
            seen = {}   # name the first repeated set
            for idx, key in enumerate(map(frozenset, rows)):
                if key in seen:
                    raise StructuralError(
                        "two rows carry the same message set",
                        offenders=[(seen[key], idx, tuple(sorted(key)))])
                seen[key] = idx
        object.__setattr__(self, "rows", rows)

    @property
    def b(self) -> int:
        return len(self.rows)

    def column_counts(self) -> tuple:
        """The k column Counters, counts[col][m] = rows holding message m in
        column col: the one tally of both the secrecy and balance checks,
        which build it only when `in_development_order` misses."""
        return tuple(map(Counter, zip(*self.rows)))

    def in_development_order(self) -> bool:
        """True iff v | b and, in every run of v rows from row s, row s+g is
        row s plus g mod v, as in `develop_matrix`: the keys are then
        translation-invariant and each column holds every message b/v
        times.  In C, row by row: a run against the zip of the ring slices
        at its first row's entries, up to the first row that differs."""
        v, rows = self.v, self.rows
        if len(rows) % v:
            return False
        ring = (*range(v), *range(v))
        return all(all(map(eq, rows[s:s + v], zip(*[ring[x:x + v] for x in rows[s]])))
                   for s in range(0, len(rows), v))


@record
class SplitGraph:
    """Bipartite multigraph of n points and c·n rows, flat: edge e joins row
    e // k to point edges[e], k = len(edges) // (c·n).  Construction checks
    that every point has degree c·k, naming each (point, degree) of [0, n)
    that misses it, so k >= 1 and all points are in range."""

    n: int
    edges: tuple   # row-major points
    c: int = 1

    def __post_init__(self):
        k = len(self.edges) // (check_int("n", self.n, 1) * check_int("c", self.c, 1))
        degrees, d = Counter(self.edges), self.c * k
        if degrees != dict.fromkeys(range(self.n), d):
            raise StructuralError(
                f"graph is not {k}-regular bipartite"
                + f" with points of degree {d}" * (self.c > 1),
                [(x, degrees[x]) for x in range(self.n) if degrees[x] != d][:MAX_FAILURES])


def split_points(design: BlockDesign) -> SplitGraph:
    """The incidence graph of a design, once v | b, c = b/v: edge j·k + i
    joins block j to its i-th point; `SplitGraph` checks uniform replication."""
    v, b = design.v, design.b
    if b % v != 0:
        raise DomainError(
            f"balanced ordering needs v | b; got b={b}, v={v} (b mod v = {b % v})")
    return SplitGraph(v, tuple(chain.from_iterable(design.blocks)), b // v)


def edge_color(graph: SplitGraph) -> tuple:
    """Equitable k-edge-coloring, as its cell table: b·k points, row-major,
    cell j·k + α holding the point row j colors α.  Each row is a
    permutation of its edges' points, and each point sits in every column
    exactly c times.

    Points are colored in turn, a point's edges in index order.  The t-th
    edge (x, j) takes the first color from t mod k on, cyclically, that x
    holds fewer than c times and row j lacks.  Failing that, with α open at
    x and β lacking in row j, row j's α cell moves to β.  Its point then
    holds c+1 β cells, so one of them in a row not yet entered moves to α
    (in a row lacking α if there is one: the walk ends there), that row's
    α point moves to β, and the walk goes on at that point.  Earlier points
    hold every color c times and x holds c β cells, so only a row lacking
    α ends the walk, leaving α open at x and in row j.

    Termination: each row is entered once at most, and an entered row's β
    cell holds a point the walk pushed off α.  A point's pushed cells were
    among its at most c α cells at the start, so a point with c+1 β cells
    always has one in a row not yet entered.  A walk thus takes at most
    b = c·n steps of O(c) work: O(E·b·c) worst case for E edges.
    """
    edges, c = graph.edges, graph.c
    k = len(edges) // (graph.n * c)
    # a row is named by its first cell, s = j·k
    free = [(1 << k) - 1] * len(edges)      # free[s], bit α: row s lacks α
    at = [[] for _ in range(graph.n * k)]   # at[x·k + α]: rows x holds α in
    cells = [-1] * len(edges)
    from_t = [(1 << k) - (1 << t) for t in range(k)]   # colors t, ..., k-1
    color = {1 << alpha: alpha for alpha in range(k)}
    by_point = [[] for _ in range(graph.n)]  # a point's rows, one per edge
    starts = chain.from_iterable(map(repeat, range(0, len(edges), k), repeat(k)))
    for s, x in zip(starts, edges):
        by_point[x].append(s)
    for x, mine in enumerate(by_point):
        room = (1 << k) - 1                 # bit α: x holds < c α cells
        own = at[x * k:x * k + k]           # own[α]: x's α rows
        for s, first in zip(mine, cycle(from_t)):
            bit = room & free[s]
            if bit:
                bit = bit & first or bit
                bit &= -bit
            else:
                bit, b_bit = room & -room, free[s] & -free[s]
                alpha, beta = color[bit], color[b_bit]
                free[s] ^= bit | b_bit       # β taken; α is retaken below
                y, r, entered = cells[s + alpha], s, {s}
                while y != -1:
                    # y moves from α to β in row r, and from β to α in row g
                    alphas, betas, g = at[y * k + alpha], at[y * k + beta], None
                    for h in betas:
                        if h not in entered:
                            g = h if g is None else g
                            if free[h] & bit:   # the walk ends there
                                g = h
                                break
                    alphas[alphas.index(r)], betas[betas.index(g)] = g, r
                    cells[r + beta], r = y, g
                    entered.add(r)
                    y, cells[r + alpha] = cells[r + alpha], y
                cells[r + beta] = -1
                free[r] ^= bit | b_bit
            alpha = color[bit]
            cells[s + alpha] = x
            free[s] ^= bit
            held = own[alpha]
            held.append(s)
            if len(held) == c:
                room ^= bit
    return tuple(cells)


def balance(design: BlockDesign) -> EncodingMatrix:
    """Order each block into a row so every message lands in every column
    exactly b/v times: row j is row j of the `edge_color` cell table.

    The matrix skips the checks of `EncodingMatrix(v, k, rows)`: a
    `BlockDesign` has v >= 1 and in-range, duplicate-free blocks of one
    size k >= 1 (`SplitGraph`), distinct as sets.  Each row, sorted, must
    equal its block (one comparison, in C), so the rows are permutations of
    the blocks even for a faulty table, and every check of the constructor
    would pass."""
    rows = tuple(zip(*[iter(edge_color(split_points(design)))] * design.k))
    require(list(map(tuple, map(sorted, rows))) == list(design.blocks),
            "the coloring put a row off its block")
    return unchecked(EncodingMatrix, design.v, design.k, rows)


def verify_balanced(matrix: EncodingMatrix) -> VerificationReport:
    """Valid iff every message appears exactly b/v times in every column
    (never when v ∤ b): with λ = b/v `in_development_order` or, on a miss,
    when each column's `EncodingMatrix.column_counts` is the uniform dict,
    in C; else the first MAX_FAILURES ((message, column), count) failures,
    message-major, scanned lazily: when v ∤ b every cell fails, otherwise
    the v·k cells number at most b·k.  No count is then common to all."""
    from .designs import VerificationReport   # lazily: `attack` skips designs
    v, b = matrix.v, matrix.b
    if matrix.in_development_order():
        return VerificationReport(True, b // v, ())
    counts = matrix.column_counts()
    if not b % v and all(map(dict.__eq__, counts, repeat(
            dict.fromkeys(range(v), b // v)))):
        return VerificationReport(True, b // v, ())
    cells = (((m, col), c.get(m, 0)) for m in range(v) for col, c in enumerate(counts))
    expected = Fraction(b, v)
    return VerificationReport(False, None, tuple(islice(
        (cell for cell in cells if cell[1] != expected), MAX_FAILURES)))


# ---------------------------------------------------------------------------
# file format: {"v": int, "k": int, "b": int, "rows": [[int,...],...],
#               "provenance": {"source": "design"|"cdf", "input_digest": hex}}

def matrix_to_json(matrix: EncodingMatrix, provenance: dict | None = None) -> dict:
    doc = {"v": matrix.v, "k": matrix.k, "b": matrix.b,
           "rows": [list(r) for r in matrix.rows]}
    if provenance is not None:
        doc["provenance"] = dict(provenance)
    return doc


def matrix_from_json(doc) -> EncodingMatrix:
    v, k, b, rows = fields(doc, "v", "k", "b", "rows")
    matrix = EncodingMatrix(v, k, rows)
    require(matrix.b == check_int("b", b, 1),
            f"declared b={show_int(b)} but found {matrix.b} rows")
    return matrix


def format_matrix_table(matrix: EncodingMatrix) -> str:
    """Plain-text tabular dump: one labeled row per key, one column per
    source state."""
    width = max(2, len(str(matrix.v - 1))) + 2
    label_width = len(f"e_{matrix.b}")
    lines = [" " * label_width + "  " + "  ".join(
        f"{'s_' + str(j + 1):>{width}}" for j in range(matrix.k))]
    for i, row in enumerate(matrix.rows, start=1):
        lines.append(f"{'e_' + str(i):<{label_width}}  "
                     + "  ".join(f"{x:>{width}}" for x in row))
    return "\n".join(lines)
