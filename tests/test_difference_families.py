"""Cyclic difference families: tallies, development, Netto triples."""

import json
import random
from collections import Counter
from math import gcd, isqrt

import pytest

from authdesigns import (
    BlockDesign,
    BudgetError,
    DifferenceFamily,
    EncodingMatrix,
    balance,
    catalog,
    DomainError,
    StructuralError,
    develop,
    develop_matrix,
    netto_triples,
    verify_balanced,
    verify_design,
    verify_df,
)
from authdesigns import balancing, designs
from authdesigns.difference_families import (
    _translates,
    _zero_translates,
    df_from_json,
    df_to_json,
    is_prime,
    smallest_primitive_root,
)
from authdesigns.fileio import atomic_write_json, load_json, show_int

from conftest import Z13_GOLDEN_ROWS, buildable_names


def _difference_tally(df):
    # independent route: Counter over explicitly enumerated signed pairs
    counts = Counter()
    for block in df.base_blocks:
        for x in block:
            for y in block:
                if x != y:
                    counts[(x - y) % df.v] += 1
    return counts


# ------------------------------------------------------------- verification

def test_verify_family_against_independent_tally(z13_df, fano_df,
                                                 biplane_df):
    for df in (z13_df, fano_df, biplane_df):
        report = verify_df(df)
        assert report.valid
        assert report.inferred_lambda == df.lambda_
        tally = _difference_tally(df)
        assert all(tally[res] == df.lambda_ for res in range(1, df.v))


def test_verify_reports_residue_witnesses(z13_df):
    # drop one base block: differences of {0,2,7} vanish from the tally
    broken = DifferenceFamily(13, 1, (z13_df.base_blocks[0],))
    report = verify_df(broken)
    assert not report.valid
    tally = _difference_tally(broken)
    for residue, observed in report.failures:
        assert tally[residue] == observed != 1


def test_verify_df_charge_is_pinned(z13_df):
    # n = 2·3·2 = 12 differences; reads and scan are each bounded by
    # min(v-1, n + 32): 12 + 2·12 = 36, and 12 + 2·44 = 100 at a v
    # far past the differences
    for df, cost in ((catalog.load_payload("cdf-13-3-1"), 36),
                     (DifferenceFamily(10**30, 1, z13_df.base_blocks), 100)):
        with pytest.raises(BudgetError):
            verify_df(df, budget=cost - 1)
        assert verify_df(df, budget=cost).valid == (df == z13_df)


def test_verify_uses_declared_lambda(fano_df):
    overdeclared = DifferenceFamily(7, 2, fano_df.base_blocks)
    report = verify_df(overdeclared)
    assert not report.valid
    assert report.inferred_lambda == 1    # the uniform count is still there


def test_structural_rejections():
    with pytest.raises(StructuralError):
        DifferenceFamily(13, 1, ((0, 1, 13),))    # residue out of range
    with pytest.raises(StructuralError):
        DifferenceFamily(13, 1, ((0, 1, 1),))     # repeat inside a block
    with pytest.raises(StructuralError):
        DifferenceFamily(13, 1, ())               # no base blocks
    with pytest.raises(StructuralError):
        DifferenceFamily(13, 1, ((0,),))          # block size < 2
    with pytest.raises(StructuralError):
        DifferenceFamily(13, 1, ((0, 1, 4), (0, 2)))  # uneven sizes
    with pytest.raises(StructuralError):
        DifferenceFamily(13, 0, ((0, 1, 4),))
    with pytest.raises(StructuralError):
        DifferenceFamily(7, True, ((1, 2, 4),))   # bool is an int subclass


def test_coordinate_order_is_preserved():
    df = DifferenceFamily(13, 1, ((4, 0, 1), (7, 2, 0)))
    assert df.base_blocks == ((4, 0, 1), (7, 2, 0))


# -------------------------------------------------------------- development

def test_develop_fano_matches_hand_list(fano_df):
    # oracle: translates of {1,2,4} computed inline, canonically sorted
    expected = sorted(
        tuple(sorted((x + g) % 7 for x in (1, 2, 4))) for g in range(7))
    design = develop(fano_df)
    assert list(design.blocks) == expected
    assert verify_design(design, 2).valid


def test_develop_yields_two_designs_on_corpus(z13_df, fano_df,
                                              biplane_df):
    for df in (z13_df, fano_df, biplane_df, netto_triples(13),
               netto_triples(19)):
        design = develop(df)
        assert len(design.blocks) == df.l * df.v
        report = verify_design(design, 2, lambda_=df.lambda_)
        assert report.valid, report.failures[:3]


def test_develop_random_pair_families():
    # {x, x+c} for c = 1..m over Z_{2m+1} is a CDF(2m+1, 2, 1); translating
    # each base block must not change the developed design
    rng = random.Random(4)
    for _ in range(20):
        m = rng.randint(2, 8)
        v = 2 * m + 1
        shifts = [rng.randrange(v) for _ in range(m)]
        blocks = tuple(
            ((s) % v, (s + c) % v) for c, s in zip(range(1, m + 1), shifts))
        df = DifferenceFamily(v, 1, blocks)
        assert verify_df(df).valid
        design = develop(df)
        assert verify_design(design, 2, lambda_=1).valid
        plain = develop(DifferenceFamily(
            v, 1, tuple((0, c) for c in range(1, m + 1))))
        assert design == plain


def all_translates(df):
    return [tuple((x + g) % df.v for x in B)
            for B in df.base_blocks for g in range(df.v)]


# The orbit gate is the only guard of the unchecked developments: the
# translates of these families repeat, and the row checks refuse them.
# The Z_3 and Z_7 families pass verify_df.

def test_develop_rejects_short_orbits():
    for df in (DifferenceFamily(6, 2, ((0, 3),)),
               DifferenceFamily(6, 4, ((0, 2, 4),)),
               DifferenceFamily(3, 3, ((0, 1, 2),))):
        for develops in (develop, develop_matrix):
            with pytest.raises(DomainError, match="short orbit"):
                develops(df)
        with pytest.raises(StructuralError):
            EncodingMatrix(df.v, df.k, all_translates(df))


def test_develop_rejects_same_orbit_duplicates():
    for df in (DifferenceFamily(13, 2, ((0, 1), (5, 6))),
               DifferenceFamily(7, 2, ((1, 2, 4), (2, 4, 1)))):
        for develops in (develop, develop_matrix):
            with pytest.raises(DomainError, match="same translation orbit"):
                develops(df)
        with pytest.raises(StructuralError):
            BlockDesign(df.v, all_translates(df))


def v_translate_canon(block, v):
    """The least sorted translate over all v shifts: the oracle of
    `_zero_translates`, whose least entry is the canon."""
    return min(tuple(sorted((x + g) % v for x in block)) for g in range(v))


def test_orbit_canon_matches_all_translates():
    # the Z_6 / Z_8 short orbits (lengths 3; 2, 4 and 8), then random blocks
    cases = [((0, 3), 6), ((0, 1), 6), ((0, 2, 4, 6), 8), ((0, 1, 4, 5), 8),
             ((0, 1, 2, 3), 8), ((3,), 5), ((4, 0, 2, 3, 1), 5)]
    rng = random.Random(29)
    for _ in range(2000):
        v = rng.randint(2, 24)
        cases.append((tuple(rng.sample(range(v), rng.randint(1, v))), v))
    for block, v in cases:
        shifts = _zero_translates(block, v)
        assert [s[0] for s in shifts] == [0] * len(block)
        assert min(shifts) == v_translate_canon(block, v), (block, v)


def test_short_orbit_refusals_name_the_first_stabilizer():
    # unions of c cosets of the subgroup step·Z_v, shuffled, among random
    # k-sets and translates of earlier blocks: the first short orbit is
    # refused, before any same-orbit pair, with the first g = y - d_0 (y in
    # block order) that fixes its block as a set
    rng = random.Random(37)
    refused = 0
    for _ in range(400):
        v = rng.choice((4, 6, 8, 9, 10, 12, 15))
        step = rng.choice([d for d in range(1, v) if v % d == 0])
        c = rng.randrange(1, step) if step > 1 else 1
        k = c * (v // step)
        if k == v:
            continue
        blocks = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                block = [(r + m) % v for r in rng.sample(range(step), c)
                         for m in range(0, v, step)]
            elif blocks and rng.random() < 0.3:
                g = rng.randrange(v)
                block = [(x + g) % v for x in rng.choice(blocks)]
            else:
                block = rng.sample(range(v), k)
            rng.shuffle(block)
            blocks.append(tuple(block))
        expected = None
        for block in blocks:
            stabilizers = [(d - block[0]) % v for d in block[1:]
                           if {(x + d - block[0]) % v for x in block} == set(block)]
            if stabilizers:
                expected = (f"base block {show_int(block)} has a short "
                            f"orbit (stabilized by g={stabilizers[0]}); only "
                            "full-orbit families are supported")
                break
        if expected is None:
            continue
        with pytest.raises(DomainError) as exc:
            develop_matrix(DifferenceFamily(v, 1, tuple(blocks)))
        assert str(exc.value) == expected
        refused += 1
    assert refused > 100, refused


def test_same_orbit_refusals_match_all_translates():
    # random blocks mixed with shuffled translates of earlier ones: the
    # development is refused at the first pair the v-translate canon joins
    rng = random.Random(31)
    outcomes = Counter()
    for _ in range(500):
        v, blocks = rng.randint(3, 16), []
        k = rng.randint(2, v - 1)
        for _ in range(rng.randint(1, 4)):
            if blocks and rng.random() < 0.4:
                g = rng.randrange(v)
                block = [(x + g) % v for x in rng.choice(blocks)]
                rng.shuffle(block)
            else:
                block = rng.sample(range(v), k)
            blocks.append(tuple(block))
        if any(len({frozenset((x + g) % v for x in B) for g in range(v)}) < v
               for B in blocks):
            continue            # a short orbit is refused before this check
        seen, pair = {}, None
        for block in blocks:
            canon = v_translate_canon(block, v)
            if canon in seen:
                pair = (seen[canon], block)
                break
            seen[canon] = block
        df = DifferenceFamily(v, 1, tuple(blocks))
        if pair is None:
            assert develop_matrix(df).b == len(blocks) * v
        else:
            with pytest.raises(DomainError) as exc:
                develop_matrix(df)
            assert str(exc.value) == (
                f"base blocks {show_int(pair[0])} and {show_int(pair[1])} "
                "lie in the same translation orbit")
        outcomes[pair is None] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


# ------------------------------------------------------------ matrix path

def test_develop_matrix_rows_are_the_translates():
    for name in buildable_names():
        if catalog.get(name).kind != "cdf":
            continue
        df = catalog.load_payload(name)
        translates = tuple(all_translates(df))
        assert develop_matrix(df).rows == translates, name
        assert develop(df).blocks == tuple(sorted(map(tuple, map(sorted, translates))))

def test_develop_matrix_reproduces_published_table(z13_df):
    matrix = develop_matrix(z13_df)
    assert matrix.rows == Z13_GOLDEN_ROWS


def test_develop_matrix_rows_are_develop_blocks(z13_df, fano_df,
                                                biplane_df):
    for df in (z13_df, fano_df, biplane_df):
        matrix = develop_matrix(df)
        as_design = {tuple(sorted(r)) for r in matrix.rows}
        assert as_design == set(develop(df).blocks)


def test_develop_matrix_is_balanced(z13_df, fano_df, biplane_df):
    for df in (z13_df, fano_df, biplane_df, netto_triples(31)):
        report = verify_balanced(develop_matrix(df))
        assert report.valid
        assert report.inferred_lambda == df.l


# ------------------------------------------------ unchecked developments

def catalog_cdfs():
    return [catalog.load_payload(name) for name in buildable_names()
            if catalog.get(name).kind == "cdf"]


def full_orbits(v, blocks):
    """Whether every block has v distinct translates and no two blocks
    share one: checked over all v shifts, as sets."""
    orbits = [{frozenset((x + g) % v for x in B) for g in range(v)} for B in blocks]
    return (all(len(o) == v for o in orbits)
            and len(set().union(*orbits)) == v * len(blocks))


def development_corpus():
    """Every catalog CDF, two seeded affine images x -> ux + s of each (the
    attack-cyclic set-up maps them so), and seeded random full-orbit
    families, difference families or not."""
    rng = random.Random(22)
    corpus = []
    for df in catalog_cdfs():
        corpus.append(df)
        for _ in range(2):
            u = rng.choice([u for u in range(1, df.v) if gcd(u, df.v) == 1])
            s = rng.randrange(df.v)
            corpus.append(DifferenceFamily(df.v, df.lambda_, tuple(
                tuple((u * x + s) % df.v for x in B) for B in df.base_blocks)))
    random_families = 0
    while random_families < 300:
        v = rng.randint(2, 30)
        k = rng.randint(2, v)
        blocks = tuple(tuple(rng.sample(range(v), k))
                       for _ in range(rng.randint(1, 4)))
        if full_orbits(v, blocks):
            corpus.append(DifferenceFamily(v, 1, blocks))
            random_families += 1
    return corpus


def test_unchecked_developments_equal_the_checked_records():
    # develop_matrix and develop skip the constructors' checks, which the
    # development proves; the records must be those the checks build
    for df in development_corpus():
        matrix, design = develop_matrix(df), develop(df)
        assert matrix == EncodingMatrix(df.v, df.k, matrix.rows), df
        assert design == BlockDesign(df.v, _translates(df)), df
        assert matrix.b == design.b == df.l * df.v


def test_developments_and_balance_skip_the_row_checks(monkeypatch):
    families = catalog_cdfs()

    def refuse(*args, **kwargs):
        raise AssertionError("a row check ran")

    monkeypatch.setattr(balancing, "check_rows", refuse)
    monkeypatch.setattr(designs, "check_rows", refuse)
    for df in families:
        matrix, design = develop_matrix(df), develop(df)
        assert matrix.b == design.b == df.l * df.v
        if df.v < 100:
            assert balance(design).b == design.b
    with pytest.raises(AssertionError, match="a row check ran"):
        EncodingMatrix(df.v, df.k, matrix.rows)
    with pytest.raises(AssertionError, match="a row check ran"):
        BlockDesign(df.v, design.blocks)


# ------------------------------------------------------------------- netto

def test_netto_smallest_cases_exactly():
    # q=7: w=3, d=1 -> (3^0, 3^2, 3^4) = (1, 2, 4)
    assert netto_triples(7).base_blocks == ((1, 2, 4),)
    # q=13: w=2, d=2 -> (1, 16, 256) = (1,3,9) and (2, 32, 512) = (2,6,5)
    assert netto_triples(13).base_blocks == ((1, 3, 9), (2, 6, 5))


def test_netto_valid_for_all_admissible_primes_below_1000():
    qs = [q for q in range(7, 1000) if is_prime(q) and q % 6 == 1]
    assert len(qs) > 30
    for q in qs:
        df = netto_triples(q)
        assert df.l == (q - 1) // 6
        assert verify_df(df).valid


def test_netto_rejects_bad_inputs():
    with pytest.raises(DomainError):
        netto_triples(11)      # prime but 11 % 6 == 5
    with pytest.raises(DomainError):
        netto_triples(25)      # 1 mod 6 but composite
    with pytest.raises(DomainError):
        netto_triples(6)


def test_primitive_roots():
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(13) == 2
    assert smallest_primitive_root(41) == 6
    assert smallest_primitive_root(2) == 1
    with pytest.raises(DomainError):
        smallest_primitive_root(15)


def test_orbit_refusals_echo_bounded_blocks():
    # both refusals name their blocks through show_int: at most ten entries
    # each, however long the block, and no int past the int-to-text limit
    whole = tuple(range(200))
    cases = [(DifferenceFamily(200, 200, (whole,)),
              "base block (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...) has a short "
              "orbit (stabilized by g=1); only full-orbit families are "
              "supported"),
             (DifferenceFamily(200, 1, (whole[:150], whole[1:151])),
              "base blocks (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...) and (1, 2, 3, "
              "4, 5, 6, 7, 8, 9, 10, ...) lie in the same translation orbit")]
    # past the int-to-text limit, the entries and g are named by their size
    big = 10**5000
    cases.append((DifferenceFamily(2 * big, 1, ((0, big),)),
                  "base block (0, an int of 5001 digits) has a short orbit "
                  "(stabilized by g=an int of 5001 digits); only full-orbit "
                  "families are supported"))
    assert verify_df(cases[0][0]).valid
    for df, message in cases:
        with pytest.raises(DomainError) as exc:
            develop_matrix(df)
        assert str(exc.value) == message


def test_primitive_root_refusal_names_a_long_q_by_its_digits():
    # q is not prime, and past the int-to-text limit it is named by its size
    with pytest.raises(DomainError) as exc:
        smallest_primitive_root(10**5000)
    assert str(exc.value) == "an int of 5001 digits is not prime"
    with pytest.raises(DomainError, match="^15 is not prime$"):
        smallest_primitive_root(15)


def test_primitive_root_search_is_charged_before_it_factors(monkeypatch):
    # q - 1 = 2p with p prime: trial division alone would run to 10^9
    monkeypatch.delenv("AUTHDESIGNS_BUDGET", raising=False)
    q = 10**18 + 7243
    assert is_prime(q) and is_prime((q - 1) // 2)
    with pytest.raises(BudgetError, match="primitive root search") as exc:
        smallest_primitive_root(q)
    assert exc.value.required == isqrt(q) + 60 + (q - 1) * 59
    # q = 97, L = 7: 9 + 7 + 96·6 = 592
    with pytest.raises(BudgetError):
        smallest_primitive_root(97, budget=591)
    assert smallest_primitive_root(97, budget=592) == 5
    # netto_triples passes its budget on, to the root search and verify_df,
    # so a lower AUTHDESIGNS_BUDGET does not reach them
    monkeypatch.setenv("AUTHDESIGNS_BUDGET", "5")
    with pytest.raises(BudgetError, match="netto_triples"):
        netto_triples(97, budget=1209)
    assert netto_triples(97, budget=1210).l == 16


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n
    assert is_prime(2 ** 61 - 1)            # Mersenne prime
    assert not is_prime(2 ** 61 + 1)


def test_is_prime_refuses_past_its_deterministic_range():
    # the least strong pseudoprime to all twelve bases 2..37; it is
    # ≡ 1 (mod 6), so netto_triples would take it for an admissible prime
    psi = 318665857834031151167461
    assert psi == 399165290221 * 798330580441 and psi % 6 == 1
    for call in (is_prime, netto_triples, smallest_primitive_root):
        with pytest.raises(DomainError, match="only n < "):
            call(psi)
    assert not is_prime(2 * psi)            # a base still divides it
    assert is_prime(psi - 20)               # the largest prime in range


def test_netto_charges_its_work_before_doing_it(monkeypatch):
    # q = 4,000,039, L = 22: 104,001,352 steps, past the default 10^8, so
    # the 666,673 blocks are refused before any is built
    monkeypatch.delenv("AUTHDESIGNS_BUDGET", raising=False)
    with pytest.raises(BudgetError, match="netto_triples"):
        netto_triples(4000039)
    # q = 97, L = 7: (97 + 13)·(7 + 4) = 1,210
    monkeypatch.setenv("AUTHDESIGNS_BUDGET", "1209")
    with pytest.raises(BudgetError):
        netto_triples(97)
    monkeypatch.setenv("AUTHDESIGNS_BUDGET", "1210")
    assert netto_triples(97).l == 16


# -------------------------------------------------------------------- json

def test_df_json_roundtrip(tmp_path, biplane_df):
    path = tmp_path / "biplane.json"
    atomic_write_json(df_to_json(biplane_df), path)
    assert df_from_json(load_json(path)) == biplane_df
    doc = json.loads(path.read_text())
    assert doc["v"] == 11 and doc["lambda"] == 2


def test_df_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"v": 13, "lambda": 1')
    with pytest.raises(StructuralError):
        df_from_json(load_json(path))
    path.write_text('{"v": 13, "base_blocks": [[0, 1, 4]]}')
    with pytest.raises(StructuralError):
        df_from_json(load_json(path))


def test_df_from_json_is_inverse(z13_df):
    assert df_from_json(df_to_json(z13_df)) == z13_df
