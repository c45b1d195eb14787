"""Authentication perpendicular arrays."""

import random
from itertools import combinations

import pytest

from authdesigns import (
    BudgetError,
    PerpendicularArray,
    StructuralError,
    van_rees_array,
    verify_apa,
)
from authdesigns.apa import (
    VAN_REES_BASE_ROWS,
    apa_from_json,
    apa_to_json,
)
from authdesigns.fileio import atomic_write_json, load_json


@pytest.fixture(scope="module")
def van_rees():
    return van_rees_array()


def test_van_rees_shape_and_order(van_rees):
    assert (van_rees.t, van_rees.k, van_rees.v, van_rees.lambda_) == (2, 3, 11, 1)
    assert len(van_rees.rows) == 55
    assert van_rees.rows[0] == (0, 1, 2)
    # rows run base-major: (base 1, shift 1) sits at index 11 + 1
    assert van_rees.rows[12] == tuple((x + 1) % 11 for x in VAN_REES_BASE_ROWS[1])
    assert verify_apa(van_rees).valid


def test_van_rees_pair_property(van_rees):
    # the by-hand check: every symbol pair lies in exactly 3 rows, and within
    # those rows each of the two symbols visits each column exactly once
    for x1, x2 in combinations(range(11), 2):
        containing = [row for row in van_rees.rows if x1 in row and x2 in row]
        assert len(containing) == 3
        for x in (x1, x2):
            cols = sorted(row.index(x) for row in containing)
            assert cols == [0, 1, 2]


def test_cyclic_latin_square_is_apa():
    rows = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
    array = PerpendicularArray(t=1, k=4, v=4, lambda_=1, rows=rows)
    assert verify_apa(array).valid


def test_column_repeat_fails_clause_ii():
    rows = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]   # column counts now skewed
    array = PerpendicularArray(t=1, k=4, v=4, lambda_=1,
                               rows=tuple(tuple(r) for r in rows))
    report = verify_apa(array)
    assert not report.valid
    assert report.failures[0][0][0] == "ii"


def test_repeated_symbol_fails_clause_i():
    array = PerpendicularArray(t=1, k=2, v=2, lambda_=1,
                               rows=((0, 0), (1, 1)))
    report = verify_apa(array)
    assert not report.valid
    assert report.failures[0][0][0] == "i"


def test_uniformity_clause_iii_detected():
    # (0,1),(1,2),(2,0) covers every pair once in the only column pair, so
    # clauses (i) and (ii) hold; but the rows containing {0,1} place 0 in
    # column 0 only, so clause (iii) fails
    array = PerpendicularArray(t=2, k=2, v=3, lambda_=1,
                               rows=((0, 1), (1, 2), (2, 0)))
    report = verify_apa(array)
    assert not report.valid
    assert report.failures[0][0][0] == "iii"


def test_swapping_two_symbols_in_one_row_invalidates(van_rees):
    rows = list(van_rees.rows)
    r0 = rows[0]
    rows[0] = (r0[1], r0[0], r0[2])
    mutated = PerpendicularArray(t=2, k=3, v=11, lambda_=1, rows=tuple(rows))
    report = verify_apa(mutated)
    assert not report.valid
    assert report.failures[0][0][0] in ("ii", "iii")


def first_clause_ii_failure(array):
    """Clause (ii) by brute force: the first (columns, symbols), both in
    lexicographic order, whose rows do not number lambda."""
    for cols in combinations(range(array.k), array.t):
        for symbols in combinations(range(array.v), array.t):
            got = sum(sorted(row[c] for c in cols) == list(symbols)
                      for row in array.rows)
            if got != array.lambda_:
                return ("ii", cols, symbols), got
    return None


def test_random_single_cell_mutations_invalidate(van_rees):
    rng = random.Random(41)
    for _ in range(40):
        rows = [list(r) for r in van_rees.rows]
        i = rng.randrange(55)
        j = rng.randrange(3)
        old = rows[i][j]
        rows[i][j] = rng.choice([x for x in range(11) if x != old])
        mutated = PerpendicularArray(t=2, k=3, v=11, lambda_=1,
                                     rows=tuple(tuple(r) for r in rows))
        report = verify_apa(mutated)
        assert not report.valid
        assert report.failures[0][0][0] in ("i", "ii", "iii")
        # a changed cell always unbalances some column pair: clause (ii)
        # reports its first failure, found independently here
        assert first_clause_ii_failure(mutated) in report.failures
    # seeded swaps of two cells of one column keep every column's symbols
    rng = random.Random(43)
    for _ in range(20):
        rows = [list(r) for r in van_rees.rows]
        i, i2 = rng.sample(range(55), 2)
        j = rng.randrange(3)
        rows[i][j], rows[i2][j] = rows[i2][j], rows[i][j]
        mutated = PerpendicularArray(t=2, k=3, v=11, lambda_=1,
                                     rows=tuple(tuple(r) for r in rows))
        witness = first_clause_ii_failure(mutated)
        ii = [f for f in verify_apa(mutated).failures if f[0][0] == "ii"]
        assert ii == ([witness] if witness else [])


def test_structural_rejections():
    with pytest.raises(StructuralError):
        PerpendicularArray(t=2, k=3, v=11, lambda_=1,
                           rows=((0, 1, 2),))          # wrong row count
    with pytest.raises(StructuralError):
        PerpendicularArray(t=1, k=2, v=2, lambda_=1,
                           rows=((0, 2), (1, 0)))      # symbol out of range
    with pytest.raises(StructuralError):
        PerpendicularArray(t=3, k=2, v=4, lambda_=1, rows=())  # t > k
    with pytest.raises(StructuralError):
        PerpendicularArray(t=1, k=2, v=2, lambda_=0, rows=())


def test_verify_respects_budget(van_rees):
    with pytest.raises(BudgetError):
        verify_apa(van_rees, budget=3)


def test_apa_json_roundtrip(tmp_path, van_rees):
    path = tmp_path / "apa.json"
    atomic_write_json(apa_to_json(van_rees), path)
    assert apa_from_json(load_json(path)) == van_rees
    assert apa_from_json(apa_to_json(van_rees)) == van_rees


def test_apa_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"t": 2, "k": 3')
    with pytest.raises(StructuralError):
        apa_from_json(load_json(path))
