"""Authentication perpendicular arrays."""

import random
from math import comb
from collections import Counter
from itertools import chain, combinations, permutations

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
from authdesigns.designs import VerificationReport
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


def first_clause_iii_failure(array):
    """Clause (iii) by the definition: for s < t, each (s+1)-subset of
    symbols in lexicographic order, the rows holding all of it anywhere,
    then each x in it: the first whose other s symbols do not occupy every
    s-subset of columns equally often, with its counts."""
    k = array.k
    rows_with = [set() for _ in range(array.v)]
    for idx, row in enumerate(array.rows):
        for x in row:
            rows_with[x].add(idx)
    for s in range(1, array.t):
        for subset in combinations(range(array.v), s + 1):
            containing = set.intersection(*(rows_with[x] for x in subset))
            if not containing:
                continue
            for x in subset:
                rest = tuple(y for y in subset if y != x)
                tally = Counter(frozenset(c for c in range(k)
                                          if array.rows[idx][c] in rest)
                                for idx in containing)
                counts = tuple(tally[frozenset(cs)]
                               for cs in combinations(range(k), s))
                if len(set(counts)) != 1:
                    return ("iii", s, subset, x), counts
    return None


def oracle_report(array):
    """`verify_apa`'s report rebuilt from the three first-failure oracles."""
    failures = [(("i", idx, row), len(set(row)))
                for idx, row in enumerate(array.rows) if len(set(row)) != array.k]
    failures = failures[:1] + [f for f in (first_clause_ii_failure(array),
                                           first_clause_iii_failure(array)) if f]
    return VerificationReport(valid=not failures,
                              inferred_lambda=None if failures else array.lambda_,
                              failures=tuple(failures))


def all_arrangements(t, k, v):
    """Every arrangement of k of the v symbols: an APA of index
    t!·(v-t)!/(v-k)!, uniform in clause (iii) by symmetry."""
    rows = tuple(permutations(range(v), k))
    return PerpendicularArray(t=t, k=k, v=v, lambda_=len(rows) // comb(v, t),
                              rows=rows)


def mutate(rng, rows, v):
    """One of: swap two cells of a row, swap two rows' cells of one column,
    or overwrite a cell (which may repeat a symbol within its row)."""
    rows = [list(r) for r in rows]
    i, i2 = rng.randrange(len(rows)), rng.randrange(len(rows))
    j, j2 = rng.randrange(len(rows[0])), rng.randrange(len(rows[0]))
    move = rng.randrange(3)
    if move == 0:
        rows[i][j], rows[i][j2] = rows[i][j2], rows[i][j]
    elif move == 1:
        rows[i][j], rows[i2][j] = rows[i2][j], rows[i][j]
    else:
        rows[i][j] = rng.randrange(v)
    return tuple(map(tuple, rows))


def random_arrays(rng, count):
    """Seeded arrays of random rows, about one in ten repeating a symbol."""
    for _ in range(count):
        v = rng.randint(2, 6)
        k = rng.randint(1, v)
        t = rng.randint(1, min(k, 3))
        rows = []
        for _ in range(rng.randint(1, 2) * comb(v, t)):
            row = rng.sample(range(v), k)
            if rng.random() < 0.1:
                row[rng.randrange(k)] = rng.randrange(v)
            rows.append(tuple(row))
        yield PerpendicularArray(t=t, k=k, v=v, lambda_=len(rows) // comb(v, t),
                                 rows=tuple(rows))


def mutants(rng, bases, count):
    """Up to two `mutate` steps on seeded choices among `bases`."""
    for _ in range(count):
        base = rng.choice(bases)
        rows = base.rows
        for _ in range(rng.randrange(3)):
            rows = mutate(rng, rows, base.v)
        yield PerpendicularArray(t=base.t, k=base.k, v=base.v,
                                 lambda_=base.lambda_, rows=rows)


def test_verify_apa_matches_the_clause_oracles(van_rees):
    # the full report equals the one the oracles rebuild
    rng = random.Random(61)
    arrangements = [all_arrangements(*tkv) for tkv in
                    ((2, 2, 3), (2, 3, 3), (2, 3, 4), (3, 3, 4), (2, 4, 4), (3, 4, 4))]
    outcomes = Counter()
    for array in chain(random_arrays(rng, 2000), mutants(rng, arrangements, 800),
                       mutants(rng, [van_rees], 100)):
        report = verify_apa(array)
        assert report == oracle_report(array), array
        iii = first_clause_iii_failure(array)
        outcomes["valid" if report.valid else "iii" if iii else "no iii"] += 1
        if iii and iii[0][1:3] != (1, (0, 1)):
            outcomes["iii past the first subset"] += 1
        if report.failures and report.failures[0][0][0] == "i":
            outcomes["repeated symbol"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_verify_apa_charge_is_pinned(van_rees):
    # van Rees: 3·165 for (ii), 165 for (i), 165 + 2·(825 + 55·7) for (iii);
    # all 6 arrangements of 3 symbols (k = v = 3, lambda 2):
    # 3·12 + 18 + 18 + 2·(90 + 3·7)
    for array, cost in ((van_rees, 3245), (all_arrangements(2, 3, 3), 294)):
        with pytest.raises(BudgetError):
            verify_apa(array, budget=cost - 1)
        assert verify_apa(array, budget=cost).valid


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
