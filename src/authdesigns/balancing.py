"""Balanced orderings of block designs via point-splitting and edge coloring.

A design with v | b can always have its blocks ordered into rows so that
every point occupies every column position in exactly b/v rows: split each
point into b/v copies of degree k, and k-edge-color the resulting k-regular
bipartite copy/block incidence graph (colors = column positions).  The
coloring follows König's constructive proof: each edge takes a color free
at both ends, after at most one swap of two colors along an alternating
path (`edge_color`).  That balanced ordering is exactly what makes the
matrix a perfect-secrecy encoding matrix under equiprobable keys.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, product, repeat
from operator import itemgetter
from typing import Optional

from .errors import DomainError, StructuralError
from .fileio import check_int, check_rows, int_field, int_rows
from .record import record


@record
class EncodingMatrix:
    """b x k matrix: rows are keys, columns are source states, entries are
    messages in [0, v).

    Construction enforces row structure (k distinct in-range entries per row,
    rows pairwise distinct as sets).  The balanced-form property — every
    message exactly b/v times in every column — is checked separately by
    `verify_balanced`, so unbalanced matrices remain representable (mutation
    tests depend on that).
    """

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
        """counts[m][col] = rows holding message m in column col; the one
        tally behind both the balance and the secrecy checks."""
        columns = map(Counter, zip(*self.rows))
        return tuple(zip(*(map(c.get, range(self.v), repeat(0))
                           for c in columns)))


@record
class SplitGraph:
    """k-regular bipartite multigraph after point-splitting: n vertices a
    side, an edge (a, z) per incidence.  Splitting gives v·(b/v) = b point
    copies, copy a of point a // (b/v), against the b blocks.  Construction
    refuses a graph not k-regular on n + n vertices, k = len(edges) // n >= 1,
    so `edge_color` needs no check of its own.
    """

    n: int
    edges: tuple   # (left vertex, right vertex)

    def __post_init__(self):
        k = len(self.edges) // check_int("n", self.n, 1)
        # equal to a Counter per side: so k >= 1 and every end lies in [0, n)
        regular = dict.fromkeys(range(self.n), k)
        if any(Counter(map(itemgetter(side), self.edges)) != regular
               for side in (0, 1)):
            raise StructuralError(f"graph is not {k}-regular bipartite")


def split_points(design: BlockDesign) -> SplitGraph:
    """Split each point into b/v copies, each taking k consecutive incidences
    (ascending block index), yielding a k-regular bipartite graph.

    Caller is responsible for having verified the design; v | b is checked
    here because the construction is meaningless without it.
    """
    v, k, b = design.v, design.k, design.b
    if b % v != 0:
        raise DomainError(
            f"balanced ordering needs v | b; got b={b}, v={v} (b mod v = {b % v})")
    copies = b // v
    incidences = [[] for _ in range(v)]
    for j, block in enumerate(design.blocks):
        for x in block:
            incidences[x].append(j)
    from .designs import tally_report
    report = tally_report(dict(enumerate(map(len, incidences))), range(v), v,
                          k * copies)
    if not report.valid:
        raise StructuralError(
            f"point replication must be uniform r = k*b/v = {k * copies}",
            offenders=report.failures)
    # point-major, the i-th incidence falls on copy i // k
    copy_of = chain.from_iterable(map(repeat, range(b), repeat(k)))
    return SplitGraph(b, tuple(zip(copy_of, chain.from_iterable(incidences))))


def edge_color(graph: SplitGraph) -> tuple:
    """Proper k-edge-coloring of a k-regular bipartite graph, k its common
    degree.

    Returns a color in [0, k) per edge, aligned with graph.edges.  König's
    alternating-path coloring, edges taken in index order: for edge (a, z)
    let α be the lowest color free at a and β the lowest free at z.  Use α
    if it is free at z, else β if it is free at a.  Otherwise swap α↔β along
    the α/β path that starts at z (its first edge is z's α-edge).  That path
    arrives at left vertices only by α-edges and α is free at a, so it never
    reaches a; after the swap α is free at both ends.  A path visits each
    vertex at most once, so the worst case is O(E·V); regularity bounds the
    degrees by k, so a free color always exists.  Deterministic by
    construction.
    """
    edges = graph.edges
    k = len(edges) // graph.n
    # n·k slots a side: at[vertex * k + color] = edge id holding that color, or -1
    left_at, right_at = [-1] * len(edges), [-1] * len(edges)
    colors = [-1] * len(edges)
    for eid, (a, z) in enumerate(edges):
        la, rz = a * k, z * k
        alpha = left_at.index(-1, la, la + k) - la
        beta = right_at.index(-1, rz, rz + k) - rz
        if right_at[rz + alpha] != -1:
            if left_at[la + beta] == -1:
                alpha = beta
            else:
                # swap the α and β slots at every vertex of the path
                y = rz
                while True:
                    e = right_at[y + alpha]
                    right_at[y + alpha] = right_at[y + beta]
                    right_at[y + beta] = e
                    if e == -1:
                        break
                    colors[e] = beta
                    x = edges[e][0] * k
                    f = left_at[x + beta]
                    left_at[x + beta] = left_at[x + alpha]
                    left_at[x + alpha] = f
                    if f == -1:
                        break
                    colors[f] = alpha
                    y = edges[f][1] * k
        left_at[la + alpha] = eid
        right_at[rz + alpha] = eid
        colors[eid] = alpha
    return tuple(colors)


def balance(design: BlockDesign) -> EncodingMatrix:
    """Order each block into a row so every message lands in every column
    exactly b/v times: the column of x in block B is the color of the edge
    joining x's copy to B."""
    graph = split_points(design)
    # copy a belongs to point a // (b/v); the entries share one int per point
    point_of = [x for x in range(design.v) for _ in range(design.b // design.v)]
    rows = [[None] * design.k for _ in range(design.b)]
    for (a, z), color in zip(graph.edges, edge_color(graph)):
        rows[z][color] = point_of[a]
    return EncodingMatrix(v=design.v, k=design.k, rows=rows)


def verify_balanced(matrix: EncodingMatrix) -> VerificationReport:
    """Valid iff every message appears exactly b/v times in every column;
    failures are ((message, column), count), message-major.  When v does
    not divide b, every cell misses the target b/v and the report is invalid."""
    from .designs import tally_report   # not at import: `attack` skips designs
    v, k = matrix.v, matrix.k
    cells = dict(zip(product(range(v), range(k)),
                     chain.from_iterable(matrix.column_counts())))
    return tally_report(cells, cells, v * k, Fraction(matrix.b, v))


# ---------------------------------------------------------------------------
# file format: {"v": int, "k": int, "b": int, "rows": [[int,...],...],
#               "provenance": {"source": "design"|"cdf", "input_digest": hex}}

def matrix_to_json(matrix: EncodingMatrix, provenance: Optional[dict] = None) -> dict:
    doc = {
        "v": matrix.v,
        "k": matrix.k,
        "b": matrix.b,
        "rows": [list(r) for r in matrix.rows],
    }
    if provenance is not None:
        doc["provenance"] = dict(provenance)
    return doc


def matrix_from_json(doc) -> EncodingMatrix:
    v = int_field(doc, "v", minimum=1)
    k = int_field(doc, "k", minimum=1)
    b = int_field(doc, "b", minimum=1)
    matrix = EncodingMatrix(v=v, k=k, rows=int_rows(doc, "rows"))
    if matrix.b != b:
        raise StructuralError(f"declared b={b} but found {matrix.b} rows")
    return matrix


def format_matrix_table(matrix: EncodingMatrix) -> str:
    """Plain-text tabular dump: one labeled row per key, one column per
    source state."""
    width = max(2, len(str(matrix.v - 1)))
    label_width = len(f"e_{matrix.b}")
    header = " " * label_width + "  " + "  ".join(
        f"{'s_' + str(j + 1):>{width + 2}}" for j in range(matrix.k))
    lines = [header]
    for i, row in enumerate(matrix.rows, start=1):
        label = f"e_{i}"
        lines.append(f"{label:<{label_width}}  " + "  ".join(
            f"{x:>{width + 2}}" for x in row))
    return "\n".join(lines)
