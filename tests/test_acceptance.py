"""Acceptance suite: ten go/no-go checks over the whole pipeline.

Each test prints exactly one `ACCEPTANCE n: PASS/FAIL` line (visible with
`pytest -s`; on failure pytest shows the captured line plus the assertion).
Values are pinned as exact rationals; runtime ceilings are asserted with
`time.perf_counter` around the measured work only.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from authdesigns import (
    DesignParameters,
    EncodingMatrix,
    SecrecySystem,
    StructuralError,
    analyze,
    deception_probability,
    develop,
    edge_color,
    lambda_table,
    massey_schobi_bound,
    perfect_secrecy_check,
    teirlinck_params,
    van_rees_array,
    verify_apa,
    verify_balanced,
    voracle_offline_value,
    voracle_online_value,
)
from authdesigns import catalog
from authdesigns.balancing import matrix_from_json
from authdesigns.cli import main as cli_main
from authdesigns.difference_families import df_to_json
from authdesigns.fileio import atomic_write_json, load_json

from conftest import (Z13_GOLDEN_ROWS, assert_proper_coloring, built_systems,
                      make_regular_bipartite)


@contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {n}: PASS — {description}")


def test_criterion_01_published_table_reproduction(tmp_path, z13_df,
                                                   capsys):
    with criterion(1, "build reproduces the published 26x3 matrix"):
        src = tmp_path / "z13.json"
        atomic_write_json(df_to_json(z13_df), src)
        out = tmp_path / "matrix.json"
        start = time.perf_counter()
        code = cli_main(["build", str(src), "--kind", "cdf",
                         "--out", str(out)])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code == 0
        matrix = matrix_from_json(load_json(out))
        assert (matrix.b, matrix.k) == (26, 3)
        assert matrix.rows[:13] == Z13_GOLDEN_ROWS[:13]    # first orbit
        assert matrix.rows[13:] == Z13_GOLDEN_ROWS[13:]    # second orbit
        assert elapsed < 1.0, f"build took {elapsed:.2f}s"


def test_criterion_02_perfect_secrecy_and_mutations():
    with criterion(2, "all built systems balanced; mutations detected"):
        rng = random.Random(20250801)
        for name, _, matrix in built_systems():
            start = time.perf_counter()
            report = verify_balanced(matrix)
            assert report.valid, name
            assert report.inferred_lambda == matrix.b // matrix.v
            ok, witness = perfect_secrecy_check(matrix)
            assert ok, (name, witness)
            for _ in range(3):
                r = rng.randrange(matrix.b)
                c = rng.randrange(matrix.k)
                x = rng.choice([m for m in range(matrix.v)
                                if m != matrix.rows[r][c]])
                rows = (matrix.rows[:r]
                        + (matrix.rows[r][:c] + (x,) + matrix.rows[r][c + 1:],)
                        + matrix.rows[r + 1:])
                try:
                    mutated = EncodingMatrix(matrix.v, matrix.k, rows)
                except StructuralError:
                    continue          # caught even before verification
                assert not perfect_secrecy_check(mutated)[0], (name, r, c, x)
                assert not verify_balanced(mutated).valid, (name, r, c, x)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"


def test_criterion_03_deception_values(z13_system, fano_system,
                                       complete53_system, biplane_system):
    with criterion(3, "pinned deception probabilities, exact"):
        start = time.perf_counter()
        pinned = [
            (z13_system, [Fraction(3, 13), Fraction(1, 6)]),
            (fano_system, [Fraction(3, 7), Fraction(1, 3)]),
            (complete53_system,
             [Fraction(3, 5), Fraction(1, 2), Fraction(1, 3)]),
            (biplane_system, [Fraction(5, 11), Fraction(2, 5)]),
        ]
        for system, values in pinned:
            for i, expected in enumerate(values):
                assert deception_probability(system, i) == expected, \
                    (system.v, system.k, i)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{elapsed:.2f}s"


def test_criterion_04_oracle_games(fano_system):
    with criterion(4, "oracle game values; both games tight below t on t-designs"):
        start = time.perf_counter()
        for i in (0, 1, 2):
            assert voracle_offline_value(fano_system, i) == Fraction(3, 7)
        online = voracle_online_value(fano_system, 1)
        assert online == 1 - Fraction(math.comb(4, 2), math.comb(7, 2))
        assert online == Fraction(5, 7)
        # rows forming a t-design form an (i+1)-design for every i < t
        for name, t, matrix in built_systems():
            system = SecrecySystem(matrix)
            for model in ("oracle-offline", "oracle-online"):
                for res in analyze(system, model, range(t)).orders:
                    assert res.tight, (name, model, res.i)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"{elapsed:.2f}s"


def test_criterion_05_divisibility_gate(tmp_path, capsys):
    with criterion(5, "build refuses 2-(9,3,1); params reports b = 12"):
        design_path = tmp_path / "affine.json"
        assert cli_main(["catalog", "export", "ag-2-3",
                         "--out", str(design_path)]) == 0
        capsys.readouterr()
        code = cli_main(["build", str(design_path), "--kind", "design",
                         "--out", str(tmp_path / "m.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "v | b" in captured.err or "divid" in captured.err
        code = cli_main(["params", "--t", "2", "--v", "9", "--k", "3",
                         "--lambda", "1", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["b"] == "12"
        assert doc["divisible"] is False and doc["b_mod_v"] == 3


def test_criterion_06_edge_coloring_properties():
    with criterion(6, "proper colorings on 100 random regular graphs"):
        rng = random.Random(6011)
        start = time.perf_counter()
        cases = [(200, 8), (200, 1), (1, 1)]
        while len(cases) < 100:
            cases.append((rng.randint(2, 200), rng.randint(1, 8)))
        for n, k in cases:
            graph = make_regular_bipartite(rng, n, k)
            assert_proper_coloring(graph, edge_color(graph), k)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"{elapsed:.2f}s"


def test_criterion_07_counting_identities():
    with criterion(7, "random parameter identities + direct block counts"):
        rng = random.Random(777)
        start = time.perf_counter()
        for _ in range(1000):
            t = rng.randint(1, 6)
            k = rng.randint(t, t + 5)
            v = rng.randint(k + 1, k + 60)
            lam_min = math.lcm(*(
                math.comb(k - s, t - s)
                // math.gcd(math.comb(v - s, t - s), math.comb(k - s, t - s))
                for s in range(t + 1)))
            params = DesignParameters(t, v, k, lam_min * rng.randint(1, 100))
            table = lambda_table(params)
            assert all(value.denominator == 1 for value in table)
            b, r = table[:2]
            assert b * k == v * r
            if t >= 2:
                assert r * (k - 1) == table[2] * (v - 1)

        # integrality formulas against literal subset counting
        desk = [(catalog.load_payload("complete-5-3")[0], 3, 1),
                (catalog.load_payload("ag-2-3")[0], 2, 1),
                (develop(catalog.load_payload("fano-cdf")), 2, 1),
                (develop(catalog.load_payload("cdf-13-3-1")), 2, 1),
                (develop(catalog.load_payload("biplane-cdf-11-5-2")), 2, 2),
                (develop(catalog.load_payload("cdf-13-4-1")), 2, 1)]
        for design, t, lam in desk:
            table = lambda_table(DesignParameters(t, design.v, design.k, lam))
            for s, expected in enumerate(table):
                assert expected.denominator == 1
                for subset in list(combinations(range(design.v), s))[:12]:
                    count = sum(1 for blk in design.blocks
                                if set(subset) <= set(blk))
                    assert count == expected, (design.v, design.k, s, subset)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{elapsed:.2f}s"


def test_criterion_08_published_bounds():
    with criterion(8, "published key-count optima and divisibility"):
        assert massey_schobi_bound(19, 7, 6) == 3876
        assert massey_schobi_bound(24, 8, 7) == 43263
        assert massey_schobi_bound(31, 10, 8) == 175305
        rows = [e for e in catalog.entries() if e.kind == "params-only"]
        assert len(rows) >= 20
        for entry in rows:
            p = entry.params
            assert massey_schobi_bound(p.v, p.k, p.t) == entry.b_opt, entry.name
            b = lambda_table(p)[0]
            assert b % p.v == 0, (entry.name, b, b % p.v)


def test_criterion_09_perpendicular_array():
    with criterion(9, "55-row array verifies; pair property exhaustive"):
        start = time.perf_counter()
        array = van_rees_array()
        assert (array.t, array.k, array.v, array.lambda_) == (2, 3, 11, 1)
        assert verify_apa(array).valid
        for x1, x2 in combinations(range(11), 2):
            rows = [row for row in array.rows if x1 in row and x2 in row]
            assert len(rows) == 3
            for x in (x1, x2):
                assert sorted(row.index(x) for row in rows) == [0, 1, 2]
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{elapsed:.2f}s"


def test_criterion_10_teirlinck_parameters():
    with criterion(10, "t = 1..7 family parameters, big-integer exact"):
        for t in range(1, 8):
            modulus = math.factorial(t + 1) ** (2 * t + 1)
            v = t + modulus                    # smallest admissible order
            params, b = teirlinck_params(t, v)
            assert params.lambda_ == modulus
            closed = (math.factorial(t + 1) ** (2 * t) * math.factorial(t)
                      * math.comb(v, t))
            table = lambda_table(params)
            assert all(value.denominator == 1 for value in table)
            assert b == closed == table[0]
        assert teirlinck_params(7, 7 + math.factorial(8) ** 15)[0].lambda_ \
            == 40320 ** 15
