"""Exact spoofing and oracle-game analysis.

The naive_* functions are independent re-derivations used as oracles: plain
set/list recursions with explicit posteriors, no bitmasks, no memoization,
no factor cancellation.  They are deliberately slow and only run on small
systems.
"""

import builtins
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from pathlib import Path

import pytest

from authdesigns import (
    BudgetError,
    DifferenceFamily,
    DomainError,
    EncodingMatrix,
    SecrecySystem,
    analyze,
    balance,
    catalog,
    deception_bound,
    deception_probability,
    develop,
    develop_matrix,
    offline_bound,
    online_bound,
    perfect_secrecy_check,
    verify_balanced,
    voracle_offline_value,
    voracle_online_value,
)
from authdesigns import analysis, designs
from authdesigns.analysis import check_order, report_to_json

from conftest import (buildable_names, built_systems, develop_rows,
                      mutate_entry, pair_corpus, uniform_pair_lambda)


def naive_deception(matrix: EncodingMatrix, i: int) -> Fraction:
    """P(observe O) * best posterior acceptance, summed over observations."""
    rows = [frozenset(r) for r in matrix.rows]
    b, k, v = len(rows), matrix.k, matrix.v
    events = {}
    for M in rows:
        for S in combinations(sorted(M), i):
            events[S] = events.get(S, 0) + 1
    total = Fraction(0)
    for O, cnt in events.items():
        Oset = set(O)
        best = Fraction(0)
        for m in range(v):
            if m in Oset:
                continue
            cnt_ext = sum(1 for M in rows if Oset <= M and m in M)
            best = max(best, Fraction(cnt_ext, cnt))
        total += Fraction(cnt, b * comb(k, i)) * best
    return total


def naive_offline(matrix: EncodingMatrix, i: int) -> Fraction:
    """Probe phase then spoof phase; an accepted probe ends the experiment
    with nothing gained, so only all-rejected runs reach the spoof."""
    rows = [frozenset(r) for r in matrix.rows]
    v = matrix.v

    def val(rejected, q, cons):
        if q == 0:
            best = max(sum(1 for e in cons if m in rows[e]) for m in range(v))
            return Fraction(best, len(cons))
        best = val(rejected, q - 1, cons)     # withhold remaining probes
        for m in range(v):
            if m in rejected:
                continue
            rej = [e for e in cons if m not in rows[e]]
            if not rej:
                continue
            cand = Fraction(len(rej), len(cons)) * val(rejected | {m}, q - 1, rej)
            best = max(best, cand)
        return best

    return val(frozenset(), i, list(range(len(rows))))


def naive_online(matrix: EncodingMatrix, i: int) -> Fraction:
    """i+1 submissions, win on first acceptance."""
    rows = [frozenset(r) for r in matrix.rows]
    v = matrix.v

    def val(rejected, s, cons):
        if s == 0:
            return Fraction(0)
        best = Fraction(0)
        for m in range(v):
            if m in rejected:
                continue
            acc = [e for e in cons if m in rows[e]]
            rej = [e for e in cons if m not in rows[e]]
            if not acc:
                cand = val(rejected | {m}, s - 1, cons)
            else:
                cand = Fraction(len(acc), len(cons))
                if rej and s > 1:
                    cand += Fraction(len(rej), len(cons)) * val(
                        rejected | {m}, s - 1, rej)
            best = max(best, cand)
        return best

    return val(frozenset(), i + 1, list(range(len(rows))))


def random_unbalanced_matrices(seed, count=12):
    """Small matrices with random distinct row sets in random column order;
    almost none of them is balanced."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = rng.randint(3, 7)
        k = rng.randint(1, v - 1)
        row_sets = rng.sample(list(combinations(range(v), k)),
                              rng.randint(1, min(6, comb(v, k))))
        rows = tuple(tuple(rng.sample(row, k)) for row in row_sets)
        out.append(EncodingMatrix(v, k, rows))
    return out


def random_small_systems(seed, count):
    """Over v <= 9: random distinct row sets, and unions of the Z_v-orbits
    of one or two random k-sets (translation-invariant), a third of those
    less one row; rows in random column order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = rng.randint(3, 9)
        k = rng.randint(2, v - 1)
        pool = list(combinations(range(v), k))
        developed = list(develop_rows(v, rng.sample(pool, rng.randint(1, 2))))
        if len(developed) > 1 and rng.random() < 1 / 3:
            developed.pop(rng.randrange(len(developed)))
        for rows in (rng.sample(pool, rng.randint(1, min(12, len(pool)))),
                     developed):
            out.append(EncodingMatrix(v, k, tuple(
                tuple(rng.sample(row, k)) for row in rows)))
    return out


# ----------------------------------------------------------------- secrecy

def test_perfect_secrecy_on_balanced_systems(z13_matrix, fano_matrix,
                                             complete53_system):
    for m in (z13_matrix, fano_matrix, complete53_system.matrix):
        ok, witness = perfect_secrecy_check(m)
        assert ok and witness is None


def test_perfect_secrecy_single_row():
    # a single key with k >= 2 always leaks: its row entries are distinct,
    # so each of its messages sits in exactly one column.  k = 1 is the
    # only single-row case with nothing to compare.
    for v in (3, 5):
        ok, witness = perfect_secrecy_check(EncodingMatrix(v, 3, ((0, 1, 2),)))
        assert not ok
        msg, (ca, cb) = witness
        row = (0, 1, 2)
        count = lambda col: 1 if row[col] == msg else 0
        assert count(ca) != count(cb)
    ok, _ = perfect_secrecy_check(EncodingMatrix(1, 1, ((0,),)))
    assert ok


def test_perfect_secrecy_mutation_breaks(z13_matrix):
    rng = random.Random(7)
    for _ in range(25):
        mutated, (r, c, x) = mutate_entry(rng, z13_matrix)
        ok, witness = perfect_secrecy_check(mutated)
        assert not ok
        msg, (ca, cb) = witness
        col_counts = [sum(1 for row in mutated.rows if row[col] == msg)
                      for col in range(mutated.k)]
        assert col_counts[ca] != col_counts[cb]


def naive_secrecy(matrix):
    """(ok, witness) from one count per (message, column), message-major:
    the oracle of the whole-column comparison."""
    for m in range(matrix.v):
        counts = [sum(row[col] == m for row in matrix.rows)
                  for col in range(matrix.k)]
        for col in range(1, matrix.k):
            if counts[col] != counts[0]:
                return False, (m, (0, col))
    return True, None


def test_perfect_secrecy_matches_the_per_cell_count(z13_matrix):
    rng = random.Random(97)
    # message 2 is missing from column 1 only, 4 from column 0 only and 5
    # from both
    cases = [EncodingMatrix(6, 2, ((0, 1), (1, 3), (2, 0), (3, 4))),
             EncodingMatrix(4, 2, ((0, 1), (1, 2), (2, 3), (3, 0))),
             *random_unbalanced_matrices(101, 40),
             *random_small_systems(103, 20),
             *(mutate_entry(rng, z13_matrix)[0] for _ in range(10)),
             *(m for _, m in catalog_developments())]
    for _ in range(10):
        v = rng.randint(1, 6)
        cases.append(EncodingMatrix(v, 1, tuple(
            (m,) for m in rng.sample(range(v), rng.randint(1, v)))))
    verdicts = Counter()
    for matrix in cases:
        result = perfect_secrecy_check(matrix)
        assert result == naive_secrecy(matrix), matrix
        verdicts[result[0]] += 1
    assert perfect_secrecy_check(cases[0]) == (False, (2, (0, 1)))
    assert verdicts[True] >= 30 and verdicts[False] >= 60, verdicts


def test_balanced_matrices_have_perfect_secrecy():
    # balanced is the secrecy criterion with every count at b/v: both
    # checks read the one column tally, and the first implies the second
    cases = [*random_small_systems(107, 60), *random_unbalanced_matrices(109, 60),
             *(m for _, m in catalog_developments())]
    verdicts = Counter()
    for matrix in cases:
        balanced = verify_balanced(matrix).valid
        secret = perfect_secrecy_check(matrix)
        if balanced:
            assert secret == (True, None), matrix
        verdicts[balanced, secret[0]] += 1
    assert min(verdicts.values()) >= 5 and len(verdicts) == 3, verdicts
    # every message once per column, but v = 4 does not divide b = 3
    m = EncodingMatrix(4, 2, ((0, 1), (1, 2), (2, 0)))
    assert perfect_secrecy_check(m) == (True, None)
    assert not verify_balanced(m).valid


def test_message_masks_consistency(z13_system):
    for m, mask in enumerate(z13_system.message_masks):
        hits = [e for e, row in enumerate(z13_system.matrix.rows)
                if m in row]
        assert mask == sum(1 << e for e in hits)
        assert mask.bit_count() == len(hits)


# ---------------------------------------------------------------- classical

def test_deception_pinned_values(z13_system, fano_system,
                                 complete53_system, biplane_system):
    assert deception_probability(z13_system, 0) == Fraction(3, 13)
    assert deception_probability(z13_system, 1) == Fraction(1, 6)
    assert deception_probability(fano_system, 0) == Fraction(3, 7)
    assert deception_probability(fano_system, 1) == Fraction(1, 3)
    assert deception_probability(complete53_system, 0) == Fraction(3, 5)
    assert deception_probability(complete53_system, 1) == Fraction(1, 2)
    assert deception_probability(complete53_system, 2) == Fraction(1, 3)
    assert deception_probability(biplane_system, 0) == Fraction(5, 11)
    assert deception_probability(biplane_system, 1) == Fraction(2, 5)


def test_deception_matches_naive_oracle(fano_system, complete53_system,
                                        biplane_system):
    rng = random.Random(11)
    cases = [fano_system.matrix, complete53_system.matrix,
             biplane_system.matrix]
    # complete 3-(5,3,1) admits no structurally valid mutation (all row
    # sets already present), so only the other two get mutated variants
    for base in (fano_system.matrix, biplane_system.matrix):
        cases.append(mutate_entry(rng, base)[0])
    for matrix in (*cases, *random_small_systems(59, 40)):
        system = SecrecySystem(matrix)
        for i in range(matrix.k):
            assert deception_probability(system, i) == naive_deception(
                matrix, i), (matrix, i)


def test_deception_never_below_bound(fano_system):
    rng = random.Random(13)
    for _ in range(10):
        matrix, _ = mutate_entry(rng, fano_system.matrix)
        system = SecrecySystem(matrix)
        for i in range(3):
            assert deception_probability(system, i) >= deception_bound(
                system.v, system.k, i)


def test_deception_domain_errors(fano_system):
    for bad in (-1, 3, 7, "1"):
        with pytest.raises(DomainError):
            deception_probability(fano_system, bad)


def test_security_orders(z13_system, fano_system, complete53_system):
    assert analyze(z13_system, "classic", range(3)).security_order == 1
    assert analyze(fano_system, "classic", range(3)).security_order == 1
    assert analyze(complete53_system, "classic", range(3)).security_order == 2
    with pytest.raises(DomainError):
        analyze(fano_system, "classic", range(4))
    # orders 0..t must all be present: order 1 missing stops the count at 0
    assert analyze(complete53_system, "classic", [0, 2]).security_order == 0
    # a loose order 0 gives -1, whatever follows
    rng = random.Random(31)
    mutated = SecrecySystem(mutate_entry(rng, fano_system.matrix)[0])
    report = analyze(mutated, "classic", [0, 1])
    assert not report.orders[0].tight
    assert report.security_order == -1


def test_analyze_classic_report(z13_system):
    report = analyze(z13_system, "classic", [2, 0, 1])
    assert report.model == "classic"
    assert [r.i for r in report.orders] == [0, 1, 2]
    assert report.security_order == 1
    assert report.orders[0].tight and report.orders[1].tight
    assert not report.orders[2].tight
    assert report.orders[2].value > report.orders[2].bound
    doc = report_to_json(report, digest="ab" * 32)
    assert doc["input_digest"] == "ab" * 32
    assert doc["model"] == "classic" and doc["security_order"] == 1
    assert [entry["i"] for entry in doc["orders"]] == [0, 1, 2]
    assert "input_digest" not in report_to_json(report)


def test_analyze_matches_direct_calls():
    models = {
        "classic": (deception_probability,
                    lambda s, i: deception_bound(s.v, s.k, i)),
        "oracle-offline": (voracle_offline_value,
                           lambda s, i: offline_bound(s.v, s.k)),
        "oracle-online": (voracle_online_value,
                          lambda s, i: online_bound(s.v, s.k, i)),
    }
    systems = built_systems()
    assert len(systems) == 21
    for name, _, matrix in systems:
        system = SecrecySystem(matrix)
        for model, (value, bound) in models.items():
            orders = range(min(3, system.k)) if model == "classic" else range(3)
            report = analyze(system, model, orders)
            assert report.model == model
            assert [res.i for res in report.orders] == list(orders)
            for res in report.orders:
                expected = value(system, res.i), bound(system, res.i)
                assert (res.value, res.bound) == expected, (name, model, res.i)
                assert res.tight == (res.value == res.bound)


def test_analyze_unknown_model(fano_system):
    for model in ("oracle", "Classic", "", None):
        with pytest.raises(DomainError):
            analyze(fano_system, model, [0])


@pytest.mark.parametrize("model", ["classic", "oracle-offline", "oracle-online"])
def test_analyze_rejects_a_bool_order(fano_system, model):
    # bool is an int subclass: True would otherwise run as order 1
    with pytest.raises(DomainError):
        analyze(fano_system, model, [0, True])


def test_shared_observation_cases():
    # O = {0} lies in both keys but no other message does: best({0}) = 1
    apart = EncodingMatrix(5, 3, ((0, 1, 2), (0, 3, 4)))
    # O = {0} lies in both keys and so does 1: best({0}) = 2
    overlap = EncodingMatrix(4, 3, ((0, 1, 2), (0, 1, 3)))
    for matrix, values in ((apart, (1, Fraction(5, 6), 1)),
                           (overlap, (1, 1, Fraction(5, 6)))):
        system = SecrecySystem(matrix)
        assert not system.developed
        for i, value in enumerate(values):
            assert deception_probability(system, i) == value
            assert naive_deception(matrix, i) == value


# ------------------------------------------------------------ oracle games

def test_offline_pinned_and_independent_of_order(fano_system,
                                                 z13_system,
                                                 complete53_system):
    for i in range(4):
        assert voracle_offline_value(fano_system, i) == Fraction(3, 7)
    for i in range(3):
        assert voracle_offline_value(z13_system, i) == Fraction(3, 13)
        assert voracle_offline_value(complete53_system, i) == Fraction(3, 5)


def test_offline_equals_best_single_message(fano_system, biplane_system):
    # probing is pure loss, so the game value collapses to max_m cnt(m)/b;
    # holds for unbalanced matrices too
    rng = random.Random(17)
    cases = [fano_system.matrix, biplane_system.matrix]
    for base in list(cases):
        cases.append(mutate_entry(rng, base)[0])
    for matrix in cases:
        system = SecrecySystem(matrix)
        best = max(mask.bit_count() for mask in system.message_masks)
        expected = Fraction(best, system.b)
        for i in range(3):
            assert voracle_offline_value(system, i) == expected


def test_offline_matches_naive(fano_system, complete53_system):
    rng = random.Random(19)
    mutated, _ = mutate_entry(rng, fano_system.matrix)
    for matrix in (fano_system.matrix, complete53_system.matrix, mutated,
                   *random_unbalanced_matrices(37)):
        system = SecrecySystem(matrix)
        for i in range(3):
            assert voracle_offline_value(system, i) == naive_offline(
                matrix, i)


def test_online_pinned_values(fano_system, z13_system,
                              complete53_system):
    assert voracle_online_value(fano_system, 0) == Fraction(3, 7)
    assert voracle_online_value(fano_system, 1) == Fraction(5, 7)
    assert voracle_online_value(z13_system, 1) == Fraction(11, 26)
    assert voracle_online_value(z13_system, 1) == online_bound(13, 3, 1)
    # three submissions against five messages of which three are valid
    assert voracle_online_value(complete53_system, 2) == 1


def test_online_matches_naive(fano_system):
    rng = random.Random(23)
    mutated, _ = mutate_entry(rng, fano_system.matrix)
    small = EncodingMatrix(4, 2, ((0, 1), (1, 2), (2, 3), (3, 0)))
    for matrix in (fano_system.matrix, mutated, small,
                   *random_unbalanced_matrices(41)):
        system = SecrecySystem(matrix)
        for i in range(3):
            assert voracle_online_value(system, i) == naive_online(matrix, i)


def test_online_monotone_and_exhaustive(fano_system):
    values = [voracle_online_value(fano_system, i) for i in range(5)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] == 1     # v - k = 4 wasted submissions then a sure hit
    assert all(0 < val <= 1 for val in values)


def test_online_never_below_bound(fano_system):
    rng = random.Random(29)
    for _ in range(8):
        matrix, _ = mutate_entry(rng, fano_system.matrix)
        system = SecrecySystem(matrix)
        for i in range(3):
            assert voracle_online_value(system, i) >= online_bound(
                system.v, system.k, i)


def test_oracle_tightness_equivalence(fano_system, z13_system,
                                      complete53_system):
    # rows forming a t-design: both games tight at every order i < t
    for system, t in ((fano_system, 2), (z13_system, 2),
                      (complete53_system, 3)):
        for model in ("oracle-offline", "oracle-online"):
            for res in analyze(system, model, range(t)).orders:
                assert res.tight, (model, res.i)
    # this mutation leaves some message in more than b·k/v rows, so
    # both games go loose together
    rng = random.Random(31)
    mutated = SecrecySystem(mutate_entry(rng, fano_system.matrix)[0])
    for model in ("oracle-offline", "oracle-online"):
        for res in analyze(mutated, model, [0, 1]).orders:
            assert not res.tight, (model, res.i)
    # the developed 6-cycle is balanced, hence offline-tight, but its rows
    # are no 2-design, so at i = 1 the online game beats its floor
    cycle = SecrecySystem(develop_matrix(DifferenceFamily(6, 1, ((0, 1),))))
    off = analyze(cycle, "oracle-offline", [1]).orders[0]
    on = analyze(cycle, "oracle-online", [1]).orders[0]
    assert off.value == Fraction(1, 3) == off.bound
    assert off.tight
    assert on.value == Fraction(2, 3)
    assert on.bound == Fraction(3, 5)
    assert not on.tight


def tightness_cases(seed, count):
    """Over v <= 7: random row sets (any number up to all k-sets), the
    Z_v-orbits of random k-sets (every message in equally many rows), and
    every complete design."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = rng.randint(2, 7)
        k = rng.randint(1, v - 1)
        pool = list(combinations(range(v), k))
        out.append(EncodingMatrix(v, k, tuple(
            rng.sample(pool, rng.randint(1, len(pool))))))
        out.append(EncodingMatrix(v, k, develop_rows(v, [rng.choice(pool)])))
    out.extend(EncodingMatrix(v, k, tuple(combinations(range(v), k)))
               for v in range(2, 8) for k in range(1, v))
    return out


def test_tightness_characterizations():
    # offline-tight <=> every message lies in exactly b·k/v rows;
    # online-tight at order i <=> every (i+1)-set of messages misses the
    # same number of rows, i.e. the row complements form an (i+1)-design,
    # trivially so when i+1 > v-k (every such set meets every row)
    seen = set()
    for matrix in tightness_cases(53, 150):
        v, k, b = matrix.v, matrix.k, matrix.b
        rows = [set(r) for r in matrix.rows]
        offline = all(sum(m in r for r in rows) * v == b * k
                      for m in range(v))
        system = SecrecySystem(matrix)
        for off, on in zip(analyze(system, "oracle-offline", range(v)).orders,
                           analyze(system, "oracle-online", range(v)).orders):
            i = on.i
            subsets = [set(S) for S in combinations(range(v), i + 1)]
            # S misses a row iff S lies in the row's complement
            missed = {sum(not (S & r) for r in rows) for S in subsets}
            online = len(missed) == 1
            if i + 1 > v - k:
                assert missed == {0}
            assert off.tight == offline, (matrix, i)
            assert on.tight == online, (matrix, i)
            seen.add((offline, online, i + 1 > v - k))
    # all four verdict pairs occur; a non-trivial (i+1)-design of
    # complements is also a 1-design, so it forces offline tightness
    assert {(o, n) for o, n, _ in seen} == {(True, True), (True, False),
                                           (False, True), (False, False)}
    assert (True, True, False) in seen and (False, True, False) not in seen


def test_analyze_both_oracle_reports(fano_system):
    offline = analyze(fano_system, "oracle-offline", [1, 0])
    online = analyze(fano_system, "oracle-online", [1, 0])
    assert [r.i for r in online.orders] == [0, 1]
    assert [r.i for r in offline.orders] == [0, 1]
    res = online.orders[1]
    assert res.value == Fraction(5, 7) == res.bound and res.tight
    res = offline.orders[1]
    assert res.value == Fraction(3, 7) == res.bound and res.tight
    assert [r.tight for r in online.orders] == [True, True]
    # the oracle JSON carries no security order; the classic JSON does
    for report in (offline, online):
        doc = report_to_json(report, digest="cd" * 32)
        assert doc["model"] == report.model
        assert "security_order" not in doc
        assert doc["orders"][1] == {
            "i": 1, "tight": True,
            "value": {"num": str(report.orders[1].value.numerator),
                      "den": "7"},
            "bound": {"num": str(report.orders[1].bound.numerator),
                      "den": "7"}}
    assert "security_order" in report_to_json(
        analyze(fano_system, "classic", [0]))


def test_oracle_game_domain_errors(fano_system):
    for bad in (-1, 7, 100, None):
        with pytest.raises(DomainError):
            voracle_offline_value(fano_system, bad)
        with pytest.raises(DomainError):
            voracle_online_value(fano_system, bad)


# ------------------------------------------------------ cyclic reduction

def random_developments(seed, count=10):
    """Unions of the Z_v-orbits of one or two random k-sets, v not prime,
    rows in random column order; every one is translation-invariant."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = rng.choice((6, 8, 9, 10, 12))
        k = rng.randint(2, 4)
        row_sets = set()
        for _ in range(rng.randint(1, 2)):
            base = rng.sample(range(v), k)
            row_sets |= {frozenset((x + g) % v for x in base) for g in range(v)}
        rows = tuple(tuple(rng.sample(sorted(r), k))
                     for r in sorted(row_sets, key=sorted))
        out.append(EncodingMatrix(v, k, rows))
    return out


def development_rows(v, bases):
    """Rows of the Z_v-orbits of the base blocks in development order,
    orbit by orbit, row g of each (d_1+g, ..., d_k+g) mod v."""
    return tuple(tuple((x + g) % v for x in base)
                 for base in bases for g in range(v))


def relaid(matrix):
    """The key sets of `matrix` in development order, each run from the
    first of its rows in that orbit, as the row stands; None when an orbit
    is short or leaves the keys, so that no such layout exists."""
    v, left, rows = matrix.v, set(map(frozenset, matrix.rows)), []
    for row in matrix.rows:
        if frozenset(row) in left:
            run = [tuple((x + g) % v for x in row) for g in range(v)]
            keys = set(map(frozenset, run))
            if len(keys) < v or not keys <= left:
                return None
            left -= keys
            rows += run
    return EncodingMatrix(v, matrix.k, tuple(rows))


# orbit lengths 3 and 6 over Z_6; 2, 4 and 8 over Z_8
SHORT_ORBITS = (
    EncodingMatrix(6, 2, develop_rows(6, ((0, 3), (0, 1)))),
    EncodingMatrix(8, 4, develop_rows(8, ((0, 2, 4, 6), (0, 1, 4, 5),
                                          (0, 1, 2, 3)))),
)


def frozenset_translation_check(matrix):
    """Whether x ↦ x+1 mod v maps every key set onto a key set: the oracle
    of translation invariance, which `SecrecySystem.developed` implies."""
    keys = {frozenset(row) for row in matrix.rows}
    return all(frozenset((m + 1) % matrix.v for m in key) in keys
               for key in keys)


def relabelled(matrix, seed):
    """The matrix under a random permutation of the messages that leaves it
    no longer translation-invariant; every spoofing and game value stays."""
    rng = random.Random(seed)
    for _ in range(100):
        perm = list(range(matrix.v))
        rng.shuffle(perm)
        copy = EncodingMatrix(matrix.v, matrix.k, tuple(
            tuple(perm[m] for m in row) for row in matrix.rows))
        if not frozenset_translation_check(copy):
            return copy
    raise AssertionError("no relabelling breaks the translation invariance")


def catalog_developments():
    return [(name, develop_matrix(catalog.load_payload(name)))
            for name in buildable_names()
            if catalog.get(name).kind == "cdf"]


def test_translation_check_counterexamples(fano_system):
    # the development proof anchors the Fano plane; a system with short
    # orbits is invariant but has no development order, so it runs
    # unanchored
    assert fano_system.developed
    for matrix in SHORT_ORBITS:
        assert frozenset_translation_check(matrix)
        assert relaid(matrix) is None and not SecrecySystem(matrix).developed
    # invariant under x ↦ x+2 only
    matching = EncodingMatrix(6, 2, ((0, 1), (2, 3), (4, 5)))
    # a developed CDF with one row removed
    z13_less = EncodingMatrix(13, 3, develop_rows(13, ((0, 1, 4), (0, 2, 7)))[1:])
    for matrix in (matching, z13_less):
        system = SecrecySystem(matrix)
        assert not frozenset_translation_check(matrix) and not system.developed
        for i in range(matrix.k):
            assert deception_probability(system, i) == naive_deception(matrix, i)
        for i in range(3):
            assert voracle_online_value(system, i) == naive_online(matrix, i)


def affine_images(matrix, seed):
    """The matrix under seeded maps x ↦ u·x + s mod v, gcd(u, v) = 1; a
    translation-invariant matrix stays so."""
    rng = random.Random(seed)
    v = matrix.v
    units = [u for u in range(1, v) if gcd(u, v) == 1] or [1]
    for _ in range(3):
        u, shift = rng.choice(units), rng.randrange(v)
        yield EncodingMatrix(v, matrix.k, tuple(
            tuple((u * m + shift) % v for m in row) for row in matrix.rows))


def development_layouts(seed):
    """(kind, matrix) from developments in development order, row g of
    each orbit (d_1+g, ..., d_k+g) mod v: the catalog's and seeded full
    orbits over v <= 12.  "hit": the rows as they are, so the system is
    developed.  "shuffled": the rows shuffled.  "rotated": the same rows,
    row g rotated g places within the row, then shuffled.  "balanced": the
    key sets balanced by edge colouring.  These three are invariant and
    not developed.  "less": the shuffled rows less the translate of one
    row, the first row and its translate kept, so not invariant."""
    rng = random.Random(seed)
    layouts = [matrix for _, matrix in catalog_developments()]
    while len(layouts) < 40:
        v = rng.randint(3, 12)
        k = rng.randint(2, v - 1)
        bases = [rng.sample(range(v), k) for _ in range(rng.randint(1, 3))]
        rows = development_rows(v, bases)
        if len(set(map(frozenset, rows))) == len(rows):
            layouts.append(EncodingMatrix(v, k, rows))
    for matrix in layouts:
        v, k = matrix.v, matrix.k
        shuffled = out_of_order(matrix, matrix.rows, rng)
        rotated = out_of_order(matrix, [row[g % v % k:] + row[:g % v % k]
                                        for g, row in enumerate(matrix.rows)], rng)
        translate = {frozenset(row): tuple((m + 1) % v for m in row)
                     for row in shuffled.rows}
        keep = {shuffled.rows[0], translate[frozenset(shuffled.rows[0])]}
        drop = rng.choice([translate[frozenset(row)] for row in shuffled.rows
                           if translate[frozenset(row)] not in keep])
        yield "hit", matrix
        yield "shuffled", shuffled
        yield "rotated", rotated
        yield "balanced", balance(designs.BlockDesign(v, matrix.rows))
        yield "less", EncodingMatrix(v, k, tuple(
            row for row in shuffled.rows if row != drop))


def out_of_order(matrix, rows, rng):
    """A matrix of the v and k of `matrix` with `rows` shuffled until they
    are not in development order."""
    rows = list(rows)
    while True:
        rng.shuffle(rows)
        shuffled = EncodingMatrix(matrix.v, matrix.k, tuple(rows))
        if not development_order(shuffled):
            return shuffled


def test_translation_check_matches_frozenset_oracle():
    # `developed` implies the frozenset oracle on every layout; a system it
    # does not anchor runs unanchored whether invariant or not, and on the
    # small invariant ones orders 0-2 of all three models equal the naive
    # oracles.  The tails against their definition: anchored, the rows
    # through 0, sorted, less the 0; otherwise every row sorted; in row
    # order.  The "order" layouts start each run at a seeded g, in a
    # shuffled order of the orbits
    cases = [("tiny", EncodingMatrix(1, 1, ((0,),))),
             ("tiny", EncodingMatrix(2, 1, ((0,), (1,)))),
             ("tiny", EncodingMatrix(2, 1, ((1,),))),
             ("tiny", EncodingMatrix(2, 2, ((1, 0),))),
             ("one-key", EncodingMatrix(4, 4, ((2, 0, 3, 1),))),
             *(("short", matrix) for matrix in SHORT_ORBITS),
             *(("small", matrix) for matrix in random_small_systems(61, 40))]
    for seed, (_, matrix) in enumerate(catalog_developments()):
        for image in affine_images(matrix, seed):
            cases += [("image", image), ("relabelled", relabelled(image, seed)),
                      ("image-less", EncodingMatrix(image.v, image.k,
                                                    image.rows[1:]))]
    cases += development_layouts(109)
    cases += [case for case in development_order_cases(127) if case[0] == "order"]
    kinds, checked = Counter(), Counter()
    for kind, matrix in cases:
        system = SecrecySystem(matrix)
        invariant, developed = frozenset_translation_check(matrix), system.developed
        assert invariant or not developed, matrix
        assert developed == development_order(matrix), matrix
        a = 1 if developed else 0
        assert system.tails == [sorted(row)[a:] for row in matrix.rows
                                if not a or 0 in row], matrix
        kinds[kind, developed, invariant] += 1
        if invariant and not developed and matrix.v ** 3 * matrix.b <= 20_000:
            v, k = matrix.v, matrix.k
            for i in range(min(3, k)):
                assert deception_probability(system, i) == naive_deception(
                    matrix, i), (matrix, i)
            for i in range(min(3, v)):
                assert voracle_offline_value(system, i) == naive_offline(
                    matrix, i), (matrix, i)
                assert voracle_online_value(system, i) == naive_online(
                    matrix, i), (matrix, i)
            checked[kind] += 1
    assert kinds == {
        ("tiny", True, True): 2, ("tiny", False, True): 1,
        ("tiny", False, False): 1, ("one-key", False, True): 1,
        ("short", False, True): 2, ("small", False, True): 32,
        ("small", False, False): 48, ("image", True, True): 4,
        ("image", False, True): 56, ("relabelled", False, False): 60,
        ("image-less", False, False): 60, ("hit", True, True): 40,
        ("shuffled", False, True): 40, ("rotated", False, True): 40,
        ("balanced", False, True): 40, ("less", False, False): 40,
        ("order", True, True): 40}, kinds
    assert checked == {"tiny": 1, "one-key": 1, "short": 2, "small": 32,
                       "image": 8, "shuffled": 19, "rotated": 19,
                       "balanced": 19}, checked


def test_each_key_is_sorted_at_most_once(monkeypatch):
    # the biplane (λ = 2) runs the spoofing loop at order 2 over its tails:
    # developed, they are its 5 keys through 0, each sorted once; any other
    # layout sorts each of its 11 keys once.  Nothing is cached on the
    # matrix, which may outlive a system
    sorts = Counter()

    def counting_sorted(iterable, **kwargs):
        if type(iterable) is tuple:
            sorts[iterable] += 1
        return builtins.sorted(iterable, **kwargs)

    monkeypatch.setattr(analysis, "sorted", counting_sorted, raising=False)
    family = DifferenceFamily(11, 2, ((1, 3, 4, 5, 9),))
    biplane = develop_matrix(family)
    rotated = EncodingMatrix(11, 5, tuple(row[g % 5:] + row[:g % 5]
                                          for g, row in enumerate(biplane.rows)))
    balanced = balance(develop(family))
    for matrix, developed, secret in ((biplane, True, True),
                                      (balanced, False, True),
                                      (rotated, False, False)):
        sorts.clear()
        system = SecrecySystem(matrix)
        assert perfect_secrecy_check(matrix)[0] == secret
        assert verify_balanced(matrix).valid == secret
        for model, orders in (("classic", (0, 1, 2)), ("oracle-offline", (0, 1)),
                              ("oracle-online", (0, 1, 2))):
            analyze(system, model, orders)
        assert system.developed == developed and "tails" in vars(system)
        assert set(sorts) <= set(matrix.rows) and set(sorts.values()) == {1}
        assert len(sorts) == (5 if developed else 11)
        assert set(vars(matrix)) == {"v", "k", "rows"}


def test_translation_check_memory_follows_entries_not_v():
    # the v keys (g, g+1) mod v at v = 20,000, in development order: a key
    # held as a v-bit int would take b·v/8 = 50 MB, the proof's ring and
    # slices take a few hundred bytes a key
    v = 20_000
    matrix = EncodingMatrix(v, 2, tuple((g, (g + 1) % v) for g in range(v)))
    system = SecrecySystem(matrix)
    tracemalloc.start()
    try:
        assert system.developed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * matrix.b * matrix.k, peak
    # order 1 runs within the default budget: each message lies in two keys
    # and every extension of it in one
    assert deception_probability(system, 1) == Fraction(1, 2)
    # v ∤ b: the proof refuses before its 2v-entry ring is built, and
    # order 0, charged the setup, counts the two entries
    system = SecrecySystem(EncodingMatrix(10**7, 2, ((0, 1),)))
    tracemalloc.start()
    try:
        assert not system.developed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**4, peak
    assert deception_probability(system, 0) == 1


def test_witness_scans_follow_the_entries_not_v(monkeypatch):
    # one row over v = 10^7: the secrecy witness is sought among the two
    # messages that occur, with no range over v, and the balance scan, every
    # cell failing as v ∤ b, stops at its MAX_FAILURES-th failure with no
    # table of the v·k cells
    def short_range(*args):
        steps = builtins.range(*args)
        assert len(steps) <= 10, args
        return steps

    monkeypatch.setattr(analysis, "range", short_range, raising=False)
    v = 10**7
    matrix = EncodingMatrix(v, 2, ((v - 1, v - 2),))
    tracemalloc.start()
    try:
        secrecy, balanced = perfect_secrecy_check(matrix), verify_balanced(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5, peak
    assert secrecy == (False, (v - 2, (0, 1)))
    assert balanced == designs.VerificationReport(False, None, tuple(
        ((m, col), 0) for m in range(16) for col in (0, 1)))


def development_order(matrix):
    """Whether v | b and, in every run of v rows from row s, row s+g is row
    s plus g mod v: the definition `EncodingMatrix.in_development_order`
    proves row by row."""
    v, rows = matrix.v, matrix.rows
    return matrix.b % v == 0 and all(
        rows[s + g] == tuple((m + g) % v for m in rows[s])
        for s in range(0, matrix.b, v) for g in range(v))


def tallied_secrecy(matrix):
    """`perfect_secrecy_check` read from the column Counters alone."""
    counts = matrix.column_counts()
    for m in range(matrix.v):
        for col in range(1, matrix.k):
            if counts[col][m] != counts[0][m]:
                return False, (m, (0, col))
    return True, None


def tallied_balance(matrix):
    """`verify_balanced` read from the column Counters alone."""
    counts, v, k = matrix.column_counts(), matrix.v, matrix.k
    cells = {(m, col): counts[col][m] for m in range(v) for col in range(k)}
    return designs.tally_report(cells, cells, v * k, Fraction(matrix.b, v))


def development_order_cases(seed):
    """(kind, matrix) around every catalog development: "order", the
    development with each orbit's run started at a seeded g and the orbits
    reordered, both in development order; "image", its affine images;
    "shuffled", its rows shuffled; "mutant", one-entry changes, each named
    with its (row, column); "indivisible", v ∤ b: less its last row, plus
    one k-set that is no row, and one row of a larger v.  Then the balanced
    complete 3-(5,3,1)."""
    rng = random.Random(seed)
    for n, (_, matrix) in enumerate(catalog_developments()):
        v, k, rows = matrix.v, matrix.k, matrix.rows
        yield "order", matrix
        runs = [rows[s:s + v] for s in range(0, matrix.b, v)]
        runs = [run[g:] + run[:g] for run, g in zip(runs, (
            rng.randrange(v) for _ in runs))]
        rng.shuffle(runs)
        yield "order", EncodingMatrix(v, k, sum(runs, ()))
        for image in affine_images(matrix, n):
            yield "image", image
        yield "shuffled", out_of_order(matrix, rows, rng)
        for _ in range(6):
            mutant, (r, c, _) = mutate_entry(rng, matrix)
            yield ("mutant", r >= v, c > 0), mutant
        known = set(map(frozenset, rows))
        extra = next(row for row in combinations(range(v), k)
                     if frozenset(row) not in known)
        yield "indivisible", EncodingMatrix(v, k, rows[:-1])
        yield "indivisible", EncodingMatrix(v, k, rows + (extra,))
        yield "indivisible", EncodingMatrix(v + 1, k, rows[:1])
    yield "balanced", balance(designs.BlockDesign(5, tuple(combinations(range(5), 3))))


def test_development_order_proof_matches_the_column_tallies():
    # a matrix in development order is balanced and perfectly secret by
    # its proof; every other one is tallied.  Both verdicts, witnesses and
    # inferred λ included, equal those the column Counters alone give
    kinds = Counter()
    for kind, matrix in development_order_cases(113):
        proof = matrix.in_development_order()
        assert proof == development_order(matrix), (kind, matrix)
        assert perfect_secrecy_check(matrix) == tallied_secrecy(matrix), matrix
        assert verify_balanced(matrix) == tallied_balance(matrix), matrix
        kinds[kind, proof] += 1
    assert kinds["order", True] == 40 and kinds["shuffled", False] == 20, kinds
    assert kinds["image", True] >= 3 and kinds["image", False] >= 20, kinds
    assert kinds["indivisible", False] == 60 and kinds["balanced", False], kinds
    # mutants in a later run, and in a later column, of the first run too
    mutants = [key for key in kinds if key[0][0] == "mutant"]
    assert all(not proof for _, proof in mutants), kinds
    for later_run, later_col in ((True, False), (False, True), (True, True)):
        assert kinds[("mutant", later_run, later_col), False] >= 5, kinds


def test_order_zero_agrees_across_models():
    # max_m r_m / b: spoofing, the online game at order 0 and the offline
    # game at every order, on unbalanced and mutated matrices
    rng = random.Random(67)
    cases = [*random_unbalanced_matrices(71), *random_small_systems(73, 10)]
    for _, matrix in catalog_developments():
        if matrix.b <= 100:
            cases.append(mutate_entry(rng, matrix)[0])
    # anchored, k/v with no count of the entries
    anchored = [m for _, m in catalog_developments() if m.b <= 100]
    developed = 0
    for matrix in (*cases, *anchored):
        system = SecrecySystem(matrix)
        value = deception_probability(system, 0)
        assert value == naive_deception(matrix, 0) == voracle_online_value(
            system, 0), matrix
        for i in range(min(3, matrix.v)):
            assert voracle_offline_value(system, i) == value
        assert ("replication" in vars(system)) != system.developed
        if system.developed:
            assert value == Fraction(matrix.k, matrix.v)
            developed += 1
    assert developed == len(anchored), developed


def test_cyclic_reduction_matches_naive():
    # each invariant system as it stands and, where its orbits are full,
    # relaid in development order, which anchors it
    small = [m for _, m in catalog_developments() if m.b * m.v <= 1100]
    assert len(small) >= 6
    developed = 0
    for matrix in (*small, *SHORT_ORBITS, *random_developments(43)):
        assert frozenset_translation_check(matrix)
        laid = relaid(matrix)
        for case in (matrix,) if laid in (None, matrix) else (matrix, laid):
            system = SecrecySystem(case)
            developed += system.developed
            for i in range(min(3, case.k)):
                assert deception_probability(system, i) == naive_deception(
                    case, i), (case.v, case.k, i)
            for i in range(3):
                assert voracle_online_value(system, i) == naive_online(
                    case, i), (case.v, case.k, i)
    # the small catalog developments, and every random one relaid
    assert developed == len(small) + 10 == 18, developed


def test_cyclic_reduction_matches_relabelled_copy():
    # anchored where the orbits are full (relaid in development order)
    cases = [*catalog_developments(),
             *((f"short-{n}", m) for n, m in enumerate(SHORT_ORBITS)),
             *((f"random-{n}", m) for n, m in enumerate(random_developments(47)))]
    developed = 0
    for seed, (name, matrix) in enumerate(cases):
        assert frozenset_translation_check(matrix), name
        system = SecrecySystem(relaid(matrix) or matrix)
        copy = SecrecySystem(relabelled(matrix, seed))
        developed += system.developed
        for i in range(1, min(3, matrix.k)):
            assert deception_probability(system, i) == deception_probability(
                copy, i), (name, i)
        for i in range(1, 3 if matrix.v <= 100 else 2):
            assert voracle_online_value(system, i) == voracle_online_value(
                copy, i), (name, i)
    # the catalog developments, and every random one relaid
    assert developed == 20 + 10, developed


# ------------------------------------------------------ pair tally

def pair_tally_cases():
    """Systems that reach every branch of orders 1 and 2; the invariant
    ones with full orbits in development order, so they are anchored."""
    cycle6 = EncodingMatrix(6, 2, development_rows(6, ((0, 1),)))
    return {
        # r varies and the best pair {0, 3} shares no key
        "apart": EncodingMatrix(6, 2, ((0, 1), (0, 2), (3, 4), (3, 5))),
        # r varies, some pairs share no key, {0, 1} shares two
        "uneven": EncodingMatrix(6, 3, ((0, 1, 2), (0, 1, 3), (0, 4, 5))),
        # r uniform, not invariant, most pairs share no key
        "cycle6-relabelled": relabelled(cycle6, 2),
        # developed, and 0 never meets 2, 3 or 4
        "cycle6": cycle6,
        "z9-013": EncodingMatrix(9, 3, development_rows(9, ((0, 1, 3),))),
        # λ = 2 on every pair, developed and relabelled
        "biplane": develop_matrix(DifferenceFamily(11, 2, ((1, 3, 4, 5, 9),))),
        "biplane-relabelled": relabelled(develop_matrix(
            DifferenceFamily(11, 2, ((1, 3, 4, 5, 9),))), 3),
        # k = 2, and k = 1 with an empty tally, with and without symmetry
        "pentagon-relabelled": relabelled(
            EncodingMatrix(5, 2, develop_rows(5, ((0, 1),))), 4),
        "singletons": EncodingMatrix(4, 1, ((0,), (1,), (2,), (3,))),
        "singletons-short": EncodingMatrix(4, 1, ((2,), (0,), (3,))),
        # invariant with short orbits, so never developed: each message
        # in one key, so at order 1 no O = {x} is shared, and the pair
        # count misses messages (λ would be 1/3 and 2/5)
        "halves": EncodingMatrix(4, 2, ((0, 2), (1, 3))),
        "thirds": EncodingMatrix(6, 3, ((0, 2, 4), (1, 3, 5))),
    }


# r·v = b·k and a positive integer λ from the parameters, with
# non-uniform pair counts: Z_7-orbits of {0,1,2} and {0,1,3}, whose pairs
# through 0 lie in 3, 2 and 1 keys (λ would be 2), and seven triples over
# 7 points, each point in three, three pairs in two (λ would be 1)
GATED_UNEVEN = {
    "z7-two-orbits": EncodingMatrix(7, 3, development_rows(7, ((0, 1, 2),
                                                               (0, 1, 3)))),
    "triples-7": EncodingMatrix(7, 3, ((0, 5, 1), (4, 0, 3), (5, 6, 0),
                                       (2, 6, 1), (3, 1, 4), (2, 3, 5),
                                       (6, 4, 2))),
}


def test_pair_tally_paths_match_the_naive_oracles():
    # each value on a fresh system, at the charge of the path its shape
    # (below) takes: refused one step under it
    cases = pair_tally_cases()
    shape = {}
    for name, matrix in cases.items():
        system = SecrecySystem(matrix)
        a = 1 if system.developed else 0
        b, k, v, lam = matrix.b, matrix.k, matrix.v, system.pair_lambda
        uniform_r = system.replication * v == b * k
        for i in range(1, min(3, k)):
            assert charged_exactly(
                deception_probability, matrix, i,
                deception_charge(b, k, v, i, a, lam)) == naive_deception(
                    matrix, i), (name, i)
        assert charged_exactly(
            voracle_online_value, matrix, 1,
            online_charge(b, k, v, 1, a, lam, uniform_r)) == naive_online(
                matrix, 1), name
        # the branches these cases are meant to reach: λ from the uniform
        # check, then, when it is 0, whether the fallback's pair tally
        # misses a pair (None: the check settles) and whether r is uniform
        held = {pair for tail in system.tails
                for pair in combinations(tail, 2 - a)}
        shape[name] = (a, lam, None if lam
                       else len(held) < comb(v - a, 2 - a), uniform_r)
    assert shape["apart"] == shape["uneven"] == (0, 0, True, False)
    assert shape["cycle6-relabelled"] == (0, 0, True, True)
    assert shape["cycle6"] == shape["z9-013"] == (1, 0, True, True)
    assert shape["biplane"] == (1, 2, None, True)
    assert shape["biplane-relabelled"] == (0, 2, None, True)
    assert shape["pentagon-relabelled"] == (0, 0, True, True)
    assert shape["singletons"] == (1, 0, True, True)
    assert shape["singletons-short"] == (0, 0, True, False)
    assert shape["halves"] == shape["thirds"] == (0, 0, True, True)
    assert SecrecySystem(cases["singletons"]).tails == [[]]
    for name in ("halves", "thirds"):
        assert len(SecrecySystem(cases[name]).tails) == 2, name
    # the unshared pair {0, 3} covers all four keys, any shared one three
    assert voracle_online_value(SecrecySystem(cases["apart"]), 1) == 1


def test_tails_hold_every_key_through_the_anchor():
    # anchored, the keys through 0 with 0 removed; otherwise every row;
    # each sorted, in row order.  Their (2-a)-subsets are then the pairs
    # through the anchor, each as often as keys hold it: λ = 2 here
    biplane = pair_tally_cases()["biplane"]
    for matrix, a in ((biplane, 1), (relabelled(biplane, 5), 0)):
        system = SecrecySystem(matrix)
        assert system.developed == bool(a)
        expected = ([sorted(set(row) - {0}) for row in matrix.rows if 0 in row]
                    if a else [sorted(row) for row in matrix.rows])
        assert system.tails == expected
        assert len(expected) == (5 if a else 11)
        pairs = Counter(pair for tail in system.tails
                        for pair in combinations(tail, 2 - a))
        assert len(pairs) == comb(matrix.v - a, 2 - a)
        assert set(pairs.values()) == {2}


def test_pair_tally_fuzz_matches_the_naive_oracles():
    # seeded systems over v <= 9, invariant and not, with k = 1 too, and
    # each one with full orbits also relaid in development order, which
    # anchors it; each value from one system queried in both orders and
    # from a fresh one
    rng = random.Random(79)
    cases = [*random_small_systems(83, 40), *random_unbalanced_matrices(89, 30)]
    for _ in range(10):
        v = rng.randint(2, 7)
        cases.append(EncodingMatrix(v, 1, tuple(
            (m,) for m in rng.sample(range(v), rng.randint(1, v)))))
    cases += [laid for laid in map(relaid, cases) if laid is not None]
    developed = 0
    for matrix in cases:
        shared = SecrecySystem(matrix)
        developed += shared.developed
        calls = [(voracle_online_value, 1, naive_online(matrix, 1))]
        calls += [(deception_probability, i, naive_deception(matrix, i))
                  for i in range(1, min(3, matrix.k))]
        for fn, i, expected in (*calls, *reversed(calls)):
            assert fn(shared, i) == expected, (matrix, fn.__name__, i)
            assert fn(SecrecySystem(matrix), i) == expected
    assert (developed, len(cases)) == (27, 146), (developed, len(cases))


# ------------------------------------------------------ uniform pair check

def uniform_pair_cases():
    """(name, matrix, anchored, λ) with every pair in λ keys: one key
    holding every message (invariant, but v ∤ b, so never developed), and
    the triangle and the 4-subsets of 5 points in development order; then
    three unanchored systems, whose digit sums run at width w = bits(λ):
    AG(2,3) (r = 4) and the Fano plane (r = 3), each relabelled, at w = 1,
    where the diagonal digit r overflows into its neighbours, and the
    balanced complete 2-(5,3,3), whose λ = 3 fills both bits of w = 2 and
    whose r = 6 overflows them."""
    ag = catalog.load_payload("ag-2-3")[0]
    fano = develop_matrix(DifferenceFamily(7, 1, ((0, 1, 3),)))
    return [
        ("one-key", EncodingMatrix(4, 4, ((2, 0, 3, 1),)), False, 1),
        ("triangle", EncodingMatrix(3, 2, development_rows(3, ((0, 1),))),
         True, 1),
        ("complete-5-4", EncodingMatrix(5, 4, development_rows(
            5, ((0, 1, 2, 3),))), True, 3),
        ("ag-2-3-relabelled", relabelled(
            EncodingMatrix(ag.v, ag.k, ag.blocks), 8), False, 1),
        ("fano-relabelled", relabelled(fano, 9), False, 1),
        ("complete-5-3-balanced", balance(
            catalog.load_payload("complete-5-3")[0]), False, 3),
    ]


def gate_lambda(system):
    """λ as the parameters give it (through the anchor when there is one),
    a Fraction, or None when r·v != b·k."""
    b, k, v = system.b, system.k, system.v
    a = 1 if system.developed else 0
    r = b * k // v if a else system.replication
    if r * v != b * k:
        return None
    return Fraction((r if a else b) * comb(k - a, 2 - a), comb(v - a, 2 - a))


def test_uniform_pair_check_settles_orders_one_and_two():
    replications = []
    for name, matrix, anchored, lam in uniform_pair_cases():
        system = SecrecySystem(matrix)
        assert system.developed == anchored, name
        replications.append(system.replication)
        for i in range(1, min(3, matrix.k)):
            assert deception_probability(system, i) == naive_deception(
                matrix, i), (name, i)
        assert voracle_online_value(system, 1) == naive_online(matrix, 1), name
        assert system.pair_lambda == gate_lambda(system) == lam, name
        # the check settles orders 1 and 2 (at order 2 only when λ = 1):
        # each call is charged the setup and no more
        b, k, v = matrix.b, matrix.k, matrix.v
        for i in range(1, min(3, k)):
            charged_exactly(deception_probability, matrix, i,
                            deception_charge(b, k, v, i, anchored, lam))
        charged_exactly(voracle_online_value, matrix, 1,
                        online_charge(b, k, v, 1, anchored, lam))
    assert replications == [1, 2, 4, 4, 3, 6]


def test_uniform_pair_check_falls_back_on_uneven_pairs():
    # GATED_UNEVEN has a whole λ from its parameters and fails the
    # anchored count or the digit comparison; a relabelled Steiner system
    # less one row fails the gate r·v = b·k
    z13 = develop_matrix(DifferenceFamily(13, 1, ((0, 1, 4), (0, 2, 7))))
    fano = develop_matrix(DifferenceFamily(7, 1, ((0, 1, 3),)))
    cases = dict(GATED_UNEVEN)
    for name, matrix, seed in (("z13", z13, 10), ("fano", fano, 11)):
        copy = relabelled(matrix, seed)
        cases[f"{name}-relabelled-less-one-row"] = EncodingMatrix(
            copy.v, copy.k, copy.rows[1:])
    for name, matrix in cases.items():
        system = SecrecySystem(matrix)
        lam = gate_lambda(system)
        gated = lam is not None and lam.denominator == 1 and lam > 0
        assert gated == (name in GATED_UNEVEN), name
        for i in (1, 2):
            assert deception_probability(system, i) == naive_deception(
                matrix, i), (name, i)
        assert voracle_online_value(system, 1) == naive_online(matrix, 1), name
        assert system.pair_lambda == 0, name
        # and each call is charged the fallback on top of the setup
        b, k, v, a = matrix.b, matrix.k, matrix.v, system.developed
        for i in (1, 2):
            charged_exactly(deception_probability, matrix, i,
                            deception_charge(b, k, v, i, a, 0))
        charged_exactly(voracle_online_value, matrix, 1, online_charge(
            b, k, v, 1, a, 0, system.replication * v == b * k))


def test_anchored_pair_check_is_the_uniform_pair_count():
    # anchored, λ is the number of keys holding {0, y}, read here from the
    # rows one y at a time, when that is one number for every y ≠ 0, else 0
    cases = [*pair_tally_cases().items(), *GATED_UNEVEN.items(),
             *((name, matrix) for name, matrix, _, _ in uniform_pair_cases()),
             *catalog_developments()]
    anchored = []
    for name, matrix in cases:
        system = SecrecySystem(matrix)
        if system.developed:
            held = {sum(0 in row and y in row for row in matrix.rows)
                    for y in range(1, matrix.v)}
            lam = held.pop() if len(held) == 1 else 0
            assert system.pair_lambda == lam, name
            anchored.append(bool(lam))
    assert (len(anchored), sum(anchored)) == (27, 23), anchored


def test_both_pair_checks_agree_with_the_pair_count():
    # `SecrecySystem.pair_lambda` (the anchored count, or the digit sums
    # through `designs.pair_lambda`) and `designs.pair_lambda` on the rows,
    # as `verify_design` calls it, both give the uniform pair count or 0;
    # each family with full orbits also relaid in development order, which
    # anchors it
    anchored = set()
    for name, v, blocks in pair_corpus():
        lam = uniform_pair_lambda(v, blocks)
        matrix = EncodingMatrix(v, len(blocks[0]), blocks)
        assert designs.pair_lambda(v, blocks) == lam, name
        for case in filter(None, (matrix, relaid(matrix))):
            system = SecrecySystem(case)
            assert system.pair_lambda == lam, name
            anchored.add((system.developed, bool(lam)))
    assert anchored == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_masks_are_built_only_for_online_orders_from_two():
    # every catalog development is a 2-design: the uniform check settles
    # order 1, spoofing at every order when λ = 1 and the online game at
    # orders below k when λ = 1, with or without symmetry; the biplane
    # (λ = 2) at orders 2..k-1, and every system at order k, are charged
    # the loops on top of the setup
    lams = []
    for _, matrix in catalog_developments()[:4]:
        lam = Fraction(matrix.b * comb(matrix.k, 2), comb(matrix.v, 2))
        lams.append(lam)
        for case in (matrix, relabelled(matrix, 6)):
            system = SecrecySystem(case)
            b, k, v = case.b, case.k, case.v
            for model in ("classic", "oracle-offline", "oracle-online"):
                analyze(system, model, range(k if lam == 1 else 2))
            assert "message_masks" not in vars(system)
            assert vars(system)["pair_lambda"] == lam
            anchored = system.developed
            for i in range(1, k):
                for fn, documented in ((deception_probability, deception_charge),
                                       (voracle_online_value, online_charge)):
                    cost = documented(b, k, v, i, anchored, lam)
                    assert charged_exactly(fn, case, i, cost) == fn(system, i)
                    assert (cost == setup_charge(b, k, v)) == (i == 1 or lam == 1)
            assert ("message_masks" in vars(system)) == (lam != 1)
            if comb(v, k + 1) <= 2000:
                cost = online_charge(b, k, v, k, anchored, lam)
                assert charged_exactly(voracle_online_value, case, k, cost) == (
                    voracle_online_value(system, k))
                assert "message_masks" in vars(system)
    assert sorted(set(lams)) == [1, 2]


def best_cover_through(matrix, i, message):
    """max over the (i+1)-sets S through `message` of |⋃_{m∈S} mask_m| / b,
    from a fresh system's `message_masks`: the online value of a system
    whose automorphisms are transitive on the messages, as they are on
    every development and its relabellings."""
    masks = SecrecySystem(matrix).message_masks
    others = masks[:message] + masks[message + 1:]
    best = 0
    for rest in combinations(others, i):
        union = masks[message]
        for mask in rest:
            union |= mask
        best = max(best, union.bit_count())
    return Fraction(best, matrix.b)


def test_steiner_closed_forms_match_the_brute_force():
    # λ = 1 at orders 2..k-1: spoofing is 1 and the online game
    # ((i+1)·(r-1) + 1)/b, read from the uniform check at the setup; checked
    # against the mask union and naive_deception where they are small
    checked = Counter()
    for seed, (name, matrix) in enumerate(catalog_developments()):
        b, k, v = matrix.b, matrix.k, matrix.v
        if b * comb(k, 2) != comb(v, 2):
            continue
        r = b * k // v
        for case in (matrix, relabelled(matrix, seed)):
            system = SecrecySystem(case)
            for i in range(2, k):
                online = charged_exactly(voracle_online_value, case, i,
                                         setup_charge(b, k, v))
                assert online == voracle_online_value(system, i) == Fraction(
                    (i + 1) * (r - 1) + 1, b), (name, i)
                assert deception_probability(system, i) == 1
                assert "message_masks" not in vars(system)
                if comb(v - 1, i) <= 20_000:
                    assert online == best_cover_through(case, i, case.rows[0][0])
                    checked["online"] += 1
                if b * comb(k, i) * v * b <= 3 * 10**6:
                    assert naive_deception(case, i) == 1, (name, i)
                    checked["classic"] += 1
    assert checked == {"online": 42, "classic": 32}, checked


def test_steiner_closed_forms_leave_other_systems_to_the_loops():
    # the biplane (λ = 2) at orders 2..k-1, the order i = k where i+1
    # messages fit in no key, and the Fano plane less a row (λ = 0) are
    # charged the loops and build the masks
    biplane, fano, z13, netto61 = (dict(catalog_developments())[name] for name in (
        "biplane-cdf-11-5-2", "fano-cdf", "cdf-13-3-1", "netto-61"))
    less = EncodingMatrix(7, 3, fano.rows[1:])
    cases = [(biplane, i) for i in (2, 3, 4)]
    cases += [(relabelled(biplane, 12), 3), (z13, 3), (relabelled(z13, 13), 3),
              (netto61, 3), (less, 2)]
    for matrix, i in cases:
        system = SecrecySystem(matrix)
        b, k, v = matrix.b, matrix.k, matrix.v
        lam, anchored = system.pair_lambda, system.developed
        assert (lam, i < k) != (1, True)
        cost = online_charge(b, k, v, i, anchored, lam)
        assert cost > setup_charge(b, k, v)
        value = charged_exactly(voracle_online_value, matrix, i, cost)
        # the Fano plane less a row has no automorphism moving message 0
        expected = (naive_online(matrix, i) if matrix is less
                    else best_cover_through(matrix, i, 0))
        assert value == voracle_online_value(system, i) == expected, (v, k, i)
        assert "message_masks" in vars(system)
        if i < k:
            assert charged_exactly(
                deception_probability, matrix, i,
                deception_charge(b, k, v, i, anchored, lam)) == naive_deception(
                    matrix, i)
    # i = k: below the closed form ((i+1)·(r-1) + 1)/b, 21/26 and 117/610
    assert voracle_online_value(SecrecySystem(z13), 3) == Fraction(19, 26)
    assert voracle_online_value(SecrecySystem(netto61), 3) == Fraction(115, 610)


# ------------------------------------------------------------------ budget

def test_budget_errors(z13_system):
    for fn in (deception_probability, voracle_offline_value,
               voracle_online_value):
        with pytest.raises(BudgetError) as exc:
            fn(z13_system, 1, budget=5)
        assert exc.value.budget == 5
        assert exc.value.required > 5


def setup_charge(b, k, v):
    """The documented setup charge, 8·v + 24·b·k, of every call at every
    order: it dominates every stage before a loop in the references below,
    whose worst route, unanchored, is proof_reference + U + the tails =
    2v + b·(3k+1) + 3·b·k + min(v, b·k) + 4v + 6 + b·k <= 8v + 24·b·k as
    b, k >= 1.  Every reference is at least the proof, 2v + b·(3k+1), and
    8·(2v + 3·b·k + b) >= 8v + 24·b·k, so the setup is at most eight times
    it."""
    return 8 * v + 24 * b * k


def deception_charge(b, k, v, i, anchored, lam):
    """The documented charge of `deception_probability`: the setup, and on
    top the loop's term when the uniform pair check (λ = 0 when it fails)
    does not settle the order."""
    if i == 0 or lam and (i == 1 or lam == 1):
        return setup_charge(b, k, v)
    a = 1 if anchored else 0
    n = b * k // v if anchored else b
    return setup_charge(b, k, v) + 2 * b + n * comb(k - a, i - a) * (2 * (k - a) + 4)


def online_charge(b, k, v, i, anchored, lam, uniform_r=True):
    """The documented charge of `voracle_online_value`: the setup, and on
    top the loop's term when the uniform pair check does not settle the
    order, uniform_r whether every message lies in r keys."""
    if i == 0 or lam == 1 and i < k or lam and i == 1:
        return setup_charge(b, k, v)
    a = 1 if anchored else 0
    if i == 1:
        pairs = (b * k // v if anchored else b) * comb(k - a, 2 - a)
        through = comb(v - a, 2 - a)
        return setup_charge(b, k, v) + b + pairs + (
            min(pairs, through) if uniform_r else v + 4 * through)
    return (setup_charge(b, k, v) + b * k + i * comb(v - 1 - a, i - a)
            + 2 * comb(v - a, i + 1 - a))


def proof_reference(b, k, v):
    """The steps of the development proof, the one stage before
    `SecrecySystem.developed` answers, one step per ring entry and per
    message sliced, zipped or compared and per row compared:
    `EncodingMatrix.in_development_order` builds the 2v-entry ring, and
    per run slices it at the k entries of its first row, zips the slices
    and compares the v rows, 3·b·k + b in all.  E = 2v + b·(3k+1)."""
    return 2 * v + b * (3 * k + 1)


def order_zero_reference(b, k, v, anchored):
    """The steps of order 0 in every model, and of the offline game at
    every order: the proof, then, with no anchor, one step per message
    counted and per distinct message compared, b·k + min(v, b·k)."""
    return proof_reference(b, k, v) + (0 if anchored else b * k + min(v, b * k))


def uniform_reference(b, k, v, anchored):
    """The steps of the proof and the uniform pair check U after it.
    Unanchored, U is `designs.pair_charge`.  Anchored, one step per message
    sorted, sliced, listed, counted or read and per offset: `SecrecySystem.tails`
    finds the n = b·k/v keys holding 0 by n offsets sorted per run, 2n,
    sorts them and slices the 0 off, n·(2k-1); the tally and the set make
    and read n·(k-1) counts each; two length tests and the pop: U =
    n·(4k-1) + 3."""
    return proof_reference(b, k, v) + (
        (4 * k - 1) * (b * k // v) + 3 if anchored else designs.pair_charge(v, b, k))


def deception_reference(b, k, v, i, anchored, lam):
    """The steps of `deception_probability`, stage by stage; λ = 0 when
    the uniform pair check fails.  Past the check, unanchored, the tails
    sort every key, b·k; then one step per key read, tally increment,
    distinct observation scanned, membership test, key gathered, message
    counted, message deleted, count compared and value summed.  With a =
    |anchor|, j = i-a and n keys tallied (b, or b·k/v anchored: every
    message lies in equally many keys), the loop meets N = n·C(k-a, j)
    (key, observation) pairs: b reads, N increments and at most N distinct
    observations; if any is shared, at most b tails are read again for N
    membership tests and H <= N keys gathered, H = Σ_{shared} cnt.  A
    shared O counts cnt(O)·(k-a) messages, then deletes its j and compares
    what is left, at most cnt(O)·(k-a) together: 2·(k-a)·H in all.  So
    2·b + N·(2·(k-a) + 4)."""
    if i == 0:
        return order_zero_reference(b, k, v, anchored)
    a = 1 if anchored else 0
    n = b * k // v if anchored else b
    work = uniform_reference(b, k, v, anchored)
    if lam and (i == 1 or lam == 1):
        return work
    return (work + (0 if anchored else b * k) + 2 * b
            + n * comb(k - a, i - a) * (2 * (k - a) + 4))


def online_reference(b, k, v, i, anchored, lam, uniform_r=True):
    """The steps of `voracle_online_value`, stage by stage: the uniform
    pair check runs at order 1 and at orders below k.  Past it, at i = 1,
    unanchored, the tails sort every key, b·k; then b reads and P =
    n·C(k-a, 2-a) increments for the tally (n = b, or b·k/v anchored) and
    at most min(P, T) counts compared for the min, T = C(v-a, 2-a), or,
    when r varies, v counts read into a list and per pair an add, a count
    looked up, a subtraction and a comparison, v + 4·T.  At i >= 2, one
    step per OR or popcount: b·k for the masks; i ORs for each of the
    C(v-1-a, i-a) prefixes with an extension (largest message at most
    v-2); an OR and a popcount for each of the C(v-a, i+1-a) sets."""
    if i == 0:
        return order_zero_reference(b, k, v, anchored)
    a = 1 if anchored else 0
    work = (uniform_reference(b, k, v, anchored) if i == 1 or i < k
            else proof_reference(b, k, v))
    if lam == 1 and i < k or lam and i == 1:
        return work
    if i == 1:
        pairs = (b * k // v if anchored else b) * comb(k - a, 2 - a)
        through = comb(v - a, 2 - a)
        return work + (0 if anchored else b * k) + b + pairs + (
            min(pairs, through) if uniform_r else v + 4 * through)
    return (work + b * k + i * comb(v - 1 - a, i - a)
            + 2 * comb(v - a, i + 1 - a))


def charged_exactly(fn, matrix, i, cost):
    """fn(·, i) on a fresh system is refused at budget cost - 1, asking for
    cost, and passes at cost; returns the value."""
    with pytest.raises(BudgetError) as exc:
        fn(SecrecySystem(matrix), i, budget=cost - 1)
    assert exc.value.required == cost, (matrix, fn.__name__, i)
    return fn(SecrecySystem(matrix), i, budget=cost)


def charge_of(fn, matrix, i):
    """The charge of fn(·, i) on a fresh system, found without running a
    loop: the setup it asks at budget 1, then what it asks at the setup,
    or the setup when it passes there."""
    with pytest.raises(BudgetError) as exc:
        fn(SecrecySystem(matrix), i, budget=1)
    setup = exc.value.required
    try:
        fn(SecrecySystem(matrix), i, budget=setup)
    except BudgetError as err:
        return err.required
    return setup


def test_budget_charges_on_both_paths(z13_system):
    # every call is charged the setup before the development proof runs;
    # on Z_13 (λ = 1, k = 3) and its relabelled copy the uniform pair
    # check then settles spoofing at orders 1 and 2 and the online game at
    # orders 1 and 2 within it; at order 3 = k the online game charges the
    # mask loop on top, and order 0 and the offline game are the setup
    b, k, v = z13_system.b, z13_system.k, z13_system.v
    setup = setup_charge(b, k, v)
    copy = SecrecySystem(relabelled(z13_system.matrix, 0))
    for system, anchored in ((z13_system, True), (copy, False)):
        assert system.developed == anchored
        for fn, orders in ((deception_probability, (0, 1, 2)),
                           (voracle_offline_value, (0, 1, 2)),
                           (voracle_online_value, (0, 1, 2, 3))):
            for i in orders:
                with pytest.raises(BudgetError) as exc:
                    fn(system, i, budget=5)
                assert exc.value.required == setup
                if fn is voracle_online_value and i == 3:
                    with pytest.raises(BudgetError) as exc:
                        fn(system, i, budget=setup)
                    assert exc.value.required == online_charge(
                        b, k, v, 3, anchored, 1)
                else:
                    assert fn(system, i, budget=setup) == fn(z13_system, i)
    assert setup == 8 * 13 + 24 * 78 == 1976
    # the masks, 3 ORs for each of the C(11, 2) prefixes through 0, and an
    # OR and a popcount for each of the C(12, 3) sets
    assert online_charge(b, k, v, 3, True, 1) == 1976 + 78 + 165 + 440
    # the stage references these dominate: the proof; then, anchored, the
    # 6 keys through 0 found by their offsets, sorted and counted;
    # unanchored, r counted and all 26 keys summed into 13 rows
    assert proof_reference(b, k, v) == 26 + 26 * 10 == 286
    assert uniform_reference(b, k, v, True) == 286 + 12 + 54 + 3 == 355
    assert uniform_reference(b, k, v, False) == 286 + 234 + 13 + 52 + 6 == 591
    assert online_reference(b, k, v, 3, True, 1) == 286 + 78 + 165 + 440
    assert order_zero_reference(b, k, v, False) == 286 + 91


def test_setup_is_charged_before_the_route_is_known(z13_system):
    # Z_13 as developed and balanced by edge colouring, whose rows are not
    # in development order, are charged the same setup, refused one step
    # under it before `developed` is asked; order 0 is the setup, and order
    # 1 is settled within it by the uniform pair check, anchored on the
    # developed system and by the digit sums on the balanced one
    balanced = balance(develop(DifferenceFamily(13, 1, ((0, 1, 4), (0, 2, 7)))))
    b, k, v = 26, 3, 13
    setup = setup_charge(b, k, v)
    for matrix, developed in ((z13_system.matrix, True), (balanced, False)):
        assert development_order(matrix) == developed
        assert charged_exactly(voracle_offline_value, matrix, 0, setup) == (
            Fraction(k, v))
        assert charged_exactly(deception_probability, matrix, 1, setup) == (
            Fraction(1, 6))
        system = SecrecySystem(matrix)
        with pytest.raises(BudgetError):
            voracle_offline_value(system, 0, budget=setup - 1)
        assert "developed" not in vars(system)
        assert voracle_offline_value(system, 0, budget=setup) == Fraction(k, v)
        assert system.developed == developed
    # the stages each runs at order 1: the proof, then the anchored count
    # or the digit sums
    assert uniform_reference(b, k, v, True) < uniform_reference(b, k, v, False) < setup


def charge_cases():
    """(name, system, anchored, λ, uniform r) on every path of orders 1
    and 2: Z_13 and its relabelled copy, the biplane (λ = 2) and its
    relabelled copy, two systems with a whole λ from their parameters and
    pairs in one key and in two, with and without symmetry, and an unbalanced
    matrix."""
    z13 = develop_matrix(DifferenceFamily(13, 1, ((0, 1, 4), (0, 2, 7))))
    biplane = develop_matrix(DifferenceFamily(11, 2, ((1, 3, 4, 5, 9),)))
    uneven = EncodingMatrix(6, 3, ((0, 1, 2), (0, 1, 3), (0, 4, 5)))
    return [("z13", SecrecySystem(z13), True, 1, True),
            ("z13-relabelled", SecrecySystem(relabelled(z13, 0)), False, 1,
             True),
            ("biplane", SecrecySystem(biplane), True, 2, True),
            ("biplane-relabelled", SecrecySystem(relabelled(biplane, 1)),
             False, 2, True),
            ("z7-two-orbits", SecrecySystem(GATED_UNEVEN["z7-two-orbits"]),
             True, 0, True),
            ("triples-7", SecrecySystem(GATED_UNEVEN["triples-7"]), False, 0,
             True),
            ("uneven", SecrecySystem(uneven), False, 0, False)]


def test_order_one_and_two_charges_are_pinned():
    # each documented charge passes as the budget and is refused one step
    # below it, with the value unchanged
    seen = set()
    for name, system, anchored, lam, uniform_r in charge_cases():
        assert system.developed == anchored, name
        b, k, v = system.b, system.k, system.v
        calls = [(deception_probability, i,
                  deception_charge(b, k, v, i, anchored, lam)) for i in (1, 2)]
        calls.append((voracle_online_value, 1,
                      online_charge(b, k, v, 1, anchored, lam, uniform_r)))
        for fn, i, cost in calls:
            assert charged_exactly(fn, system.matrix, i, cost) == fn(
                system, i), (name, i)
            assert system.pair_lambda == lam, name
            settled = bool(lam) and (i == 1 or lam == 1)
            # the setup alone, or the loop on top of it
            assert (cost == setup_charge(b, k, v)) == settled
            seen.add((fn.__name__, i, anchored, settled,
                      uniform_r if fn is voracle_online_value else None))
    assert len(seen) == 13, sorted(seen)
    # on the 7-point triples the uniform check fails, spoofing at order 1
    # loops over the 21 (key, message) pairs, and r being uniform, the
    # online game reads the 21 pairs once for the min instead of four
    # steps each in the scan
    assert setup_charge(7, 3, 7) == 56 + 504 == 560
    assert deception_charge(7, 3, 7, 1, False, 0) == 560 + 14 + 21 * 10
    assert online_charge(7, 3, 7, 1, False, 0) == 560 + 7 + 21 + 21
    assert online_charge(7, 3, 7, 1, False, 0, False) == 560 + 7 + 7 + 21 + 4 * 21
    # their stage references: the proof, the digit sums, and before either
    # loop the tails, the 21 messages sorted
    assert proof_reference(7, 3, 7) == 14 + 7 * 10 == 84
    assert uniform_reference(7, 3, 7, False) == 84 + 63 + 7 + 28 + 6 == 188
    assert deception_reference(7, 3, 7, 1, False, 0) == 188 + 21 + 14 + 21 * 10
    assert online_reference(7, 3, 7, 1, False, 0, False) == (
        188 + 21 + 7 + 7 + 21 + 4 * 21)


def reference_corpus():
    """(name, matrix): six catalog developments as developed, balanced by
    edge colouring, with their rows shuffled and less their first row;
    complete 3-(5,3,1) balanced; the Z_v-orbit of {0, 1, 2} at v = 13 and
    200 in development order, and at 200 relabelled, which has no anchor,
    puts every message in 3 keys and holds pairs in 0, 1 and 2 keys (λ =
    0); and every system built from the catalog."""
    rng = random.Random(131)
    cases = []
    for name in ("fano-cdf", "cdf-13-3-1", "cdf-13-4-1", "biplane-cdf-11-5-2",
                 "netto-19", "cdf-31-6-1"):
        df = catalog.load_payload(name)
        matrix = develop_matrix(df)
        rows = list(matrix.rows)
        rng.shuffle(rows)
        cases += [(name, matrix), (f"{name}-balanced", balance(develop(df))),
                  (f"{name}-shuffled", EncodingMatrix(matrix.v, matrix.k, tuple(rows))),
                  (f"{name}-less", EncodingMatrix(matrix.v, matrix.k, matrix.rows[1:]))]
    cases.append(("complete-5-3", balance(designs.BlockDesign(
        5, tuple(combinations(range(5), 3))))))
    for v in (13, 200):
        cases.append((f"012-mod-{v}", EncodingMatrix(v, 3, development_rows(
            v, ((0, 1, 2),)))))
    cases.append(("012-mod-200-relabelled", relabelled(cases[-1][1], 14)))
    cases += [(f"built-{name}", matrix) for name, _, matrix in built_systems()]
    return cases


def test_every_charge_dominates_its_stage_reference():
    # at every model and at orders 0..min(k+1, 4), each call asks exactly
    # its documented charge, at least the steps its stages and loop take
    # (the reference) and at most eight times them; where the loop is
    # small, it also passes at that charge.  Relabelled (0, 1, 2) mod 200
    # has the order-1 online scan at v + 4·C(v,2) steps far above its
    # min over the pairs, so a charge folding the two formulas fails the
    # factor there; a setup of E alone fails wherever a stage after the
    # proof runs
    ratios, names = [], set()
    for name, matrix in reference_corpus():
        system = SecrecySystem(matrix)
        b, k, v = matrix.b, matrix.k, matrix.v
        anchored, lam = system.developed, system.pair_lambda
        uniform_r = system.replication * v == b * k
        orders = range(min(k + 1, 4, v - 1) + 1)
        calls = [(deception_probability, i,
                  deception_charge(b, k, v, i, anchored, lam),
                  deception_reference(b, k, v, i, anchored, lam))
                 for i in orders if i < k]
        calls += [(voracle_offline_value, i, setup_charge(b, k, v),
                   order_zero_reference(b, k, v, anchored)) for i in orders]
        calls += [(voracle_online_value, i,
                   online_charge(b, k, v, i, anchored, lam, uniform_r),
                   online_reference(b, k, v, i, anchored, lam, uniform_r))
                  for i in orders]
        for fn, i, cost, reference in calls:
            assert charge_of(fn, matrix, i) == cost, (name, fn.__name__, i)
            assert reference <= cost <= 8 * reference, (name, fn.__name__, i)
            ratios.append(Fraction(cost, reference))
            if cost - setup_charge(b, k, v) <= 20_000:
                assert charged_exactly(fn, matrix, i, cost) == fn(system, i)
        names.add(name)
    assert len(names) == 28 + len(built_systems()), len(names)
    assert len(ratios) >= 600 and 1 < min(ratios) and max(ratios) < 8, (
        len(ratios), float(min(ratios)), float(max(ratios)))


def test_check_order_is_the_one_order_rule(fano_system):
    # v = 7, k = 3; the value functions refuse with check_order's message
    value_of = {"classic": deception_probability,
                "oracle-offline": voracle_offline_value,
                "oracle-online": voracle_online_value}
    for model, good, bad, message in (
            ("classic", 2, 3, "attack order must satisfy 0 <= i < k=3, got 3"),
            ("oracle-offline", 6, 7, "oracle game order must satisfy "
                                     "0 <= i <= v-1=6, got 7"),
            ("oracle-online", 0, -1, "oracle game order must satisfy "
                                     "0 <= i <= v-1=6, got -1")):
        assert check_order(fano_system, model, good) is None
        for call in (check_order, lambda s, m, i: value_of[m](s, i)):
            with pytest.raises(DomainError) as exc:
                call(fano_system, model, bad)
            assert str(exc.value) == message


def test_importing_analysis_leaves_balancing_unloaded():
    # analysis names EncodingMatrix only in annotations, and imports
    # designs only for the pair check of a system without an anchor
    done = subprocess.run(
        [sys.executable, "-c", "import sys, authdesigns.analysis; "
         "print('authdesigns.balancing' in sys.modules, "
         "'authdesigns.designs' in sys.modules)"],
        env=dict(os.environ,
                 PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False False"
