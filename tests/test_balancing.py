"""Point-splitting, edge coloring, and balanced matrix construction."""

import json
import random
from collections import Counter
from itertools import combinations

import pytest

from authdesigns import (
    BlockDesign,
    DomainError,
    EncodingMatrix,
    StructuralError,
    balance,
    develop,
    edge_color,
    format_matrix_table,
    split_points,
    verify_balanced,
)
from authdesigns import balancing, catalog
from authdesigns.balancing import (
    SplitGraph,
    matrix_from_json,
    matrix_to_json,
)
from authdesigns.fileio import (atomic_write_json, canonical_dumps, digest,
                               load_json)

from conftest import (assert_proper_coloring, buildable_names,
                      make_regular_bipartite)


# --------------------------------------------------------------- structure

def test_matrix_structural_rejections():
    with pytest.raises(StructuralError):
        EncodingMatrix(7, 3, ((0, 1),))            # wrong row length
    with pytest.raises(StructuralError):
        EncodingMatrix(7, 3, ((0, 1, 1),))         # repeat inside a row
    with pytest.raises(StructuralError):
        EncodingMatrix(7, 3, ((0, 1, 7),))         # out of range
    with pytest.raises(StructuralError):
        EncodingMatrix(7, 3, ((0, 1, 2), (2, 1, 0)))  # same row as a set
    with pytest.raises(StructuralError):
        EncodingMatrix(7, 3, ())


@pytest.mark.parametrize("v, k", [(True, 1), (2, True)], ids=["v", "k"])
def test_matrix_rejects_bool_sizes(v, k):
    # bool is an int subclass; True would otherwise pass as 1
    with pytest.raises(StructuralError):
        EncodingMatrix(v=v, k=k, rows=((0,),))


def test_unbalanced_matrices_are_representable():
    m = EncodingMatrix(4, 2, ((0, 1), (0, 2)))
    report = verify_balanced(m)
    assert not report.valid


def test_column_counts_match_a_cell_by_cell_count():
    rng = random.Random(83)
    for _ in range(40):
        v = rng.randint(1, 9)
        k = rng.randint(1, v)
        pool = list(combinations(range(v), k))
        rows = tuple(tuple(rng.sample(row, k))
                     for row in rng.sample(pool, rng.randint(1, min(9, len(pool)))))
        counts = [{} for _ in range(k)]
        for row in rows:
            for col, m in enumerate(row):
                counts[col][m] = counts[col].get(m, 0) + 1
        got = EncodingMatrix(v, k, rows).column_counts()
        # one Counter per column, holding only the messages it holds
        assert type(got) is tuple and all(type(c) is Counter for c in got)
        assert list(map(dict, got)) == counts


# ------------------------------------------------------------- splitting

def test_split_fano(fano_design):
    g = split_points(fano_design)
    assert (g.n, g.c) == (7, 1)           # b/v = 1 row per point and column
    assert len(g.edges) == 21             # construction checked the degrees
    # edge j·k + i joins block j to its i-th point: the blocks, row-major
    assert g.edges == tuple(x for block in fano_design.blocks for x in block)


def test_split_with_multiple_copies(z13_df, complete53_design):
    # c = b/v > 1: each point is one vertex of degree c·k, not c copies
    g = split_points(develop(z13_df))
    assert (g.n, g.c) == (13, 2) and len(g.edges) == 26 * 3
    g53 = split_points(complete53_design)
    assert (g53.n, g53.c) == (5, 2) and len(g53.edges) == 10 * 3
    # complete 3-(5,3,1): blocks (0,1,2), (0,1,3), ... in block-major order
    assert g53.edges[:6] == (0, 1, 2, 0, 1, 3)
    assert g53.edges.count(0) == 6      # r = c·k


def test_split_refuses_indivisible():
    # 2-(9,3,1): b = 12, 9 does not divide 12
    from authdesigns.catalog import load_payload

    affine, _, _ = load_payload("ag-2-3")
    with pytest.raises(DomainError) as exc:
        split_points(affine)
    assert "v | b" in str(exc.value) or "divid" in str(exc.value)


def test_split_refuses_uneven_replication():
    # v | b, yet the points lie in 3, 2, 2 and 1 blocks against r = 2
    with pytest.raises(StructuralError) as exc:
        split_points(BlockDesign(4, ((0, 1), (0, 2), (0, 3), (1, 2))))
    assert str(exc.value) == "graph is not 2-regular bipartite"
    assert exc.value.offenders == [(0, 3), (3, 1)]
    # 0 lies in 39 blocks and 1, 2 in r = 2; the rest fail, capped
    star = BlockDesign(40, tuple((0, x) for x in range(1, 40)) + ((1, 2),))
    with pytest.raises(StructuralError) as exc:
        split_points(star)
    assert exc.value.offenders == [(0, 39)] + [(x, 1) for x in range(3, 34)]


# ---------------------------------------------------------------- coloring

def test_edge_color_fano(fano_design):
    g = split_points(fano_design)
    # c = 1: each column is a perfect matching
    assert_proper_coloring(g, edge_color(g), 3)


def test_edge_color_trivial_matching():
    g = SplitGraph(2, (1, 0))       # row 0 holds point 1, row 1 point 0
    assert edge_color(g) == (1, 0)


def test_edge_color_handles_multigraph():
    # k parallel copies of one perfect matching: parallel edges force
    # distinct colors, and every color class must be that matching
    rng = random.Random(7)
    for n, k in ((2, 2), (1, 4), (9, 3), (50, 7)):
        perm = list(range(n))
        rng.shuffle(perm)
        matching = sorted((a, perm[a]) for a in range(n))   # (point, row)
        holds = sorted(range(n), key=perm.__getitem__)      # row j's point
        g = SplitGraph(n, tuple(x for x in holds for _ in range(k)))
        cells = edge_color(g)
        assert_proper_coloring(g, cells, k)
        for c in range(k):
            assert sorted((x, j) for j, x in enumerate(cells[c::k])) == matching


def test_edge_color_random_regular_graphs():
    rng = random.Random(31337)
    for _ in range(60):
        n = rng.randint(2, 120)
        k = rng.randint(1, 8)
        g = make_regular_bipartite(rng, n, k)
        assert_proper_coloring(g, edge_color(g), k)


def test_edge_color_rejects_irregular():
    # construction is the one regularity check, so edge_color never sees
    # one; rows have degree k by construction, so only points can be uneven
    with pytest.raises(StructuralError) as exc:
        SplitGraph(2, (0, 0, 1))
    assert str(exc.value) == "graph is not 1-regular bipartite"
    assert exc.value.offenders == [(0, 2)]     # (point, degree)
    for n, edges in ((2, ()),                 # k = 0
                     (2, (0, 1, 0)),          # 3 edges on 2 points, 2 rows
                     (2, (0, 0, 0, 1)),       # point degrees 3, 1 for k = 2
                     (2, (0, 2)),             # point out of range
                     (2, (0, -1)),            # point below range
                     (1, (0, 0, 1))):         # n too small
        with pytest.raises(StructuralError, match="-regular bipartite"):
            SplitGraph(n, edges)
    with pytest.raises(StructuralError):
        SplitGraph(0, ())
    assert SplitGraph(2, (0, 1, 1, 0)).n == 2


def test_edge_color_random_incidence_multigraphs():
    # n points of degree c·k against c·n rows of degree k, a point possibly
    # twice in one row: every point must see each color exactly c times
    rng = random.Random(2718)
    for c in range(2, 7):
        for _ in range(40):
            n, k = rng.randint(1, 40), rng.randint(1, 8)
            ends = [x for x in range(n) for _ in range(c * k)]
            rng.shuffle(ends)       # row-major: row j holds ends[jk:(j+1)k]
            g = SplitGraph(n, tuple(ends), c)
            assert_proper_coloring(g, edge_color(g), k)
    with pytest.raises(StructuralError) as exc:     # point degrees 3 and 1
        SplitGraph(2, (0, 0, 0, 1), 2)
    assert str(exc.value) == "graph is not 1-regular bipartite with points of degree 2"
    assert exc.value.offenders == [(0, 3), (1, 1)]


def test_edge_color_is_deterministic():
    rng = random.Random(5)
    g = make_regular_bipartite(rng, 40, 5)
    assert edge_color(g) == edge_color(g)


# ----------------------------------------------------------------- balance

def test_balance_fano(fano_design):
    m = balance(fano_design)
    report = verify_balanced(m)
    assert report.valid and report.inferred_lambda == 1
    assert {tuple(sorted(r)) for r in m.rows} == set(fano_design.blocks)


def test_balance_developed_family(z13_df):
    m = balance(develop(z13_df))
    report = verify_balanced(m)
    assert report.valid and report.inferred_lambda == 2


def test_balance_complete_design(complete53_design):
    m = balance(complete53_design)
    report = verify_balanced(m)
    assert report.valid and report.inferred_lambda == 2
    assert {tuple(sorted(r)) for r in m.rows} == set(complete53_design.blocks)


def test_balance_deterministic_bytes(complete53_design):
    a = canonical_dumps(matrix_to_json(balance(complete53_design)))
    b = canonical_dumps(matrix_to_json(balance(complete53_design)))
    assert a == b


def relabelled(name, seed):
    """A developed catalog family put through a seeded point permutation: no
    longer translation-invariant, and its colorings need alternating walks."""
    from authdesigns.catalog import load_payload

    family = load_payload(name)
    rng = random.Random(seed)
    perm = list(range(family.v))
    rng.shuffle(perm)
    return BlockDesign(family.v, tuple(tuple(perm[x] for x in block)
                                       for block in develop(family).blocks))


def test_balance_relabelled_netto_97():
    design = relabelled("netto-97", 97)
    shifted = {tuple(sorted((x + 1) % design.v for x in block))
               for block in design.blocks}
    assert shifted != set(design.blocks)
    graph = split_points(design)
    assert graph.c == 16
    assert_proper_coloring(graph, edge_color(graph), design.k)
    m = balance(design)
    assert verify_balanced(m).valid
    assert [tuple(sorted(r)) for r in m.rows] == list(design.blocks)
    assert balance(design) == m


def test_balance_relabelled_netto_61():
    # c = b/v = 10 rows for every point and column
    design = relabelled("netto-61", 61)
    graph = split_points(design)
    assert (graph.n, graph.c) == (61, 10)
    assert_proper_coloring(graph, edge_color(graph), design.k)
    m = balance(design)
    report = verify_balanced(m)
    assert report.valid and report.inferred_lambda == 10
    assert [tuple(sorted(r)) for r in m.rows] == list(design.blocks)


# digest(matrix_to_json(balance(design))): the rows' order and every column
# the coloring chose are frozen
BALANCED_DIGESTS = {
    "fano": "5957781648db4b8253a18b4cc7db2ca13c7552503f18a7e0e99e3eb5102ca237",
    "complete-5-3": "fbe84df5db2679d0c424a6ec77a0a065f951385c86128d739469881bd20586c6",
    "relabelled-netto-97":
        "f3d9faba7a190f86953642b788c59615deb2c2a26bbd2afe29fb01a55423be10",
    "relabelled-cdf-337-7-1":
        "160b615a0b0eae955f0881d15bbf776aeb64cba03644c7e0fbf04249064cf782",
    "relabelled-netto-61":
        "1a3e62426ed9a21fc074f5269206dfe0d8eb0f120f74e99426eb06e27d67ef12",
}


def test_balanced_design_artifacts_are_golden(fano_design, complete53_design):
    designs = {"fano": fano_design, "complete-5-3": complete53_design,
               "relabelled-netto-97": relabelled("netto-97", 97),
               "relabelled-cdf-337-7-1": relabelled("cdf-337-7-1", 13),
               "relabelled-netto-61": relabelled("netto-61", 7)}
    assert {name: digest(matrix_to_json(balance(design)))
            for name, design in designs.items()} == BALANCED_DIGESTS


def uniform_design(rng, v, k, c):
    """A random design with b = c·v blocks, each point in c·k of them: c
    distinct full orbits of random k-subsets under x -> x+1 mod v, then a
    random relabelling of the points."""
    while True:
        bases = [rng.sample(range(v), k) for _ in range(c)]
        blocks = {frozenset((x + g) % v for x in base)
                  for base in bases for g in range(v)}
        if len(blocks) == c * v:
            perm = list(range(v))
            rng.shuffle(perm)
            return BlockDesign(v, tuple(tuple(perm[x] for x in block)
                                        for block in blocks))


def test_balance_skips_only_checks_its_rows_pass():
    # balance builds its matrix without EncodingMatrix's row checks; the
    # public constructor, given the same rows, must accept them unchanged
    designs = {}
    for name in buildable_names():
        payload = catalog.load_payload(name)
        design = develop(payload) if catalog.get(name).kind == "cdf" else payload[0]
        if design.b % design.v:
            with pytest.raises(DomainError):
                balance(design)
        else:
            designs[name] = design
    assert len(designs) == 21 and designs["complete-5-3"].b == 2 * 5
    for name, seed in (("netto-61", 7), ("netto-97", 11), ("cdf-337-7-1", 13)):
        designs[f"relabelled-{name}"] = relabelled(name, seed)
    rng = random.Random(16)
    for n in range(30):         # v >= 9: Z_v has 4 full orbits of k-sets, k >= 2
        v = rng.randint(9, 30)
        designs[f"random-{n}"] = uniform_design(rng, v, rng.randint(2, 5),
                                                rng.randint(2, 4))
    for name, design in designs.items():
        m = balance(design)
        assert type(m.rows) is tuple and {type(r) for r in m.rows} == {tuple}
        assert {type(x) for r in m.rows for x in r} == {int}, name
        assert m == EncodingMatrix(design.v, design.k, m.rows), name
        assert verify_balanced(m).valid, name


def test_balance_refuses_a_coloring_with_a_row_clash(monkeypatch, fano_design,
                                                    complete53_design):
    # balance skips the constructor's row checks, so a cell table whose row
    # is not a permutation of its block must be refused, not returned
    real = balancing.edge_color

    def hole(cells, k, row):
        cells[row * k + 1] = -1

    def repeat_point(cells, k, row):
        cells[row * k + 1] = cells[row * k]

    def swap_rows(cells, k, row):
        # rows j and j+1 trade a point each, and both stay duplicate-free
        mine, other = row * k, (row + 1) % (len(cells) // k) * k
        i = next(i for i in range(mine, mine + k) if cells[i] not in cells[other:other + k])
        o = next(o for o in range(other, other + k) if cells[o] not in cells[mine:mine + k])
        cells[i], cells[o] = cells[o], cells[i]

    for fault in (hole, repeat_point, swap_rows):
        for design in (fano_design, complete53_design):
            for row in (0, design.b - 1):
                def faulty(graph, fault=fault, k=design.k, row=row):
                    cells = list(real(graph))
                    fault(cells, k, row)
                    return tuple(cells)
                monkeypatch.setattr(balancing, "edge_color", faulty)
                with pytest.raises(StructuralError, match="off its block"):
                    balance(design)
    monkeypatch.setattr(balancing, "edge_color", real)
    assert verify_balanced(balance(fano_design)).valid


def test_verify_balanced_witness(fano_design):
    m = balance(fano_design)
    # swap two entries inside one row: rows stay valid, balance breaks
    r0 = m.rows[0]
    swapped = (r0[1], r0[0]) + r0[2:]
    broken = EncodingMatrix(m.v, m.k, (swapped,) + m.rows[1:])
    report = verify_balanced(broken)
    assert not report.valid
    (msg, col), count = report.failures[0]
    assert count != broken.b // broken.v
    assert sum(1 for row in broken.rows if row[col] == msg) == count


def test_verify_balanced_indivisible_expected_none():
    m = EncodingMatrix(4, 2, ((0, 1), (1, 2), (2, 3)))
    report = verify_balanced(m)
    assert not report.valid and report.inferred_lambda is None
    # b/v = 3/4 is no count: every cell fails, message-major from (0, 0)
    assert report.failures[:3] == (((0, 0), 1), ((0, 1), 0), ((1, 0), 1))


# -------------------------------------------------------------------- json

def test_matrix_json_roundtrip(tmp_path, fano_design):
    m = balance(fano_design)
    path = tmp_path / "m.json"
    atomic_write_json(matrix_to_json(
        m, {"source": "design", "input_digest": digest({"v": 7})}), path)
    assert matrix_from_json(load_json(path)) == m
    doc = json.loads(path.read_text())
    assert doc["provenance"]["source"] == "design"
    assert doc["provenance"]["input_digest"] == digest({"v": 7})


def test_matrix_json_rejects_b_mismatch(fano_design):
    doc = matrix_to_json(balance(fano_design))
    doc["b"] = 8
    with pytest.raises(StructuralError):
        matrix_from_json(doc)


def test_format_matrix_table(fano_design):
    text = format_matrix_table(balance(fano_design))
    assert "e_1" in text and "e_7" in text and "s_3" in text
    assert len(text.splitlines()) == 8    # header + 7 keys
