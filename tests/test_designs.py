"""Parameter arithmetic, verification, and constructions for block designs."""

import json
import math
import random
from itertools import combinations

import pytest

from authdesigns import (
    BlockDesign,
    BudgetError,
    DesignParameters,
    DomainError,
    StructuralError,
    complete_design,
    derived_design,
    lambda_table,
    massey_schobi_bound,
    optimality_class,
    teirlinck_params,
    verify_design,
)
from authdesigns import catalog, designs, develop
from authdesigns.cli import main
from authdesigns.designs import (
    VerificationReport,
    design_from_json,
    design_to_json,
    pair_charge,
    pair_lambda,
    tally_report,
)
from authdesigns.fileio import MAX_FAILURES, atomic_write_json, load_json

from conftest import pair_corpus, pair_counts, uniform_pair_lambda


def _random_admissible(rng: random.Random):
    """Random admissible parameter set: pick t, k, v, then the smallest
    feasible lambda (lcm of the denominators) times a random factor."""
    t = rng.randint(1, 5)
    k = rng.randint(t, t + 4)
    v = rng.randint(k + 1, k + 40)
    denominators = []
    for s in range(t + 1):
        num = math.comb(v - s, t - s)
        den = math.comb(k - s, t - s)
        g = math.gcd(num, den)
        denominators.append(den // g)
    lam_min = math.lcm(*denominators)
    return DesignParameters(t, v, k, lam_min * rng.randint(1, 50))


# ---------------------------------------------------------------- parameters

def test_parameters_reject_bad_shapes():
    for t, v, k, lam in [(0, 7, 3, 1), (2, 7, 8, 1), (4, 7, 3, 1),
                         (2, 7, 3, 0), (2, 7, 3, -2), (2, 0, 0, 1)]:
        with pytest.raises((StructuralError, DomainError)):
            DesignParameters(t, v, k, lam)


def test_lambda_s_matches_direct_count_on_developed_design(fano_design):
    # oracle: count Fano blocks through s fixed points directly
    table = lambda_table(DesignParameters(2, 7, 3, 1))
    for s, subset in [(0, ()), (1, (3,)), (2, (1, 2))]:
        expected = sum(1 for blk in fano_design.blocks
                       if set(subset) <= set(blk))
        assert table[s] == expected
    assert table == [7, 3, 1]


def test_lambda_s_on_complete_design():
    # 3-(5,3,1) realized by all triples: b = C(5,3) = 10, r = C(4,2) = 6
    table = lambda_table(DesignParameters(3, 5, 3, 1))
    assert table[0] == len(list(combinations(range(5), 3)))
    assert table[1] == len([c for c in combinations(range(5), 3) if 0 in c])
    assert table[3] == 1 and len(table) == 4


def test_lambda_s_fraction_for_inadmissible():
    # 2-(8,3,1): r = 7/2, b = 28/3
    from fractions import Fraction

    assert lambda_table(DesignParameters(2, 8, 3, 1)) == [
        Fraction(28, 3), Fraction(7, 2), 1]


def test_admissible_params_have_integral_cascade():
    table = lambda_table(DesignParameters(2, 9, 3, 1))
    assert table == [12, 4, 1]
    assert all(value.denominator == 1 for value in table)


def test_counting_identities_random():
    # b*k == v*r and r*(k-1) == lambda_2*(v-1) on random admissible params
    rng = random.Random(20260825)
    for _ in range(300):
        p = _random_admissible(rng)
        table = lambda_table(p)
        assert all(value.denominator == 1 for value in table)
        b, r = table[:2]
        assert b * p.k == p.v * r
        if p.t >= 2:
            assert r * (p.k - 1) == table[2] * (p.v - 1)


# --------------------------------------------------------------- block sets

def test_block_design_canonicalizes_order():
    d = BlockDesign(7, ((4, 2, 1), (0, 1, 3)))
    assert d.blocks == ((0, 1, 3), (1, 2, 4))


def test_block_design_rejects_garbage():
    with pytest.raises(StructuralError):
        BlockDesign(7, ((0, 1, 7),))       # point out of range
    with pytest.raises(StructuralError):
        BlockDesign(7, ((0, 1, 1),))       # repeated point
    with pytest.raises(StructuralError):
        BlockDesign(7, ((0, 1, 2), (2, 1, 0)))  # duplicate block
    with pytest.raises(StructuralError):
        BlockDesign(7, ((0, 1, 2), (0, 1)))  # mixed block sizes


def test_verify_complete_design_is_trivially_valid():
    d = complete_design(5, 3)
    report = verify_design(d, 3)
    assert report.valid
    assert report.inferred_lambda == 1
    assert report.failures == ()


def test_verify_detects_declared_lambda_mismatch():
    d = complete_design(5, 3)
    report = verify_design(d, 3, lambda_=2)
    assert not report.valid
    assert report.inferred_lambda == 1
    assert report.failures  # witnesses present


def test_verify_detects_missing_block(fano_design):
    broken = BlockDesign(7, fano_design.blocks[1:])
    report = verify_design(broken, 2)
    assert not report.valid
    # every failure names a t-subset with its observed count
    for subset, count in report.failures:
        assert len(subset) == 2
        observed = sum(1 for blk in broken.blocks
                       if set(subset) <= set(blk))
        assert count == observed


def test_verify_respects_budget():
    with pytest.raises(BudgetError) as exc:
        verify_design(complete_design(12, 4), 4, budget=10)
    assert exc.value.required > exc.value.budget == 10


# ---------------------------------------------------------- pair digit sums

def tallied(design, lam):
    """The report of the pair tally alone: `tally_report` over every pair."""
    return tally_report(pair_counts(design.blocks),
                        combinations(range(design.v), 2),
                        math.comb(design.v, 2), lam)


def digits_first(v, b, k):
    """(U, T): the charges of the digit sums and of the tally, U = None
    when `verify_design` at t = 2 runs the tally alone: unless
    b·C(k,2)/C(v,2) is whole and U < T."""
    tally, digits = 2 * math.comb(v, 2) + b * math.comb(k, 2), pair_charge(v, b, k)
    whole = not b * math.comb(k, 2) % math.comb(v, 2)
    return (digits if whole and digits < tally else None), tally


def test_pair_digit_sums_and_the_tally_give_one_report(monkeypatch):
    # every report, valid or not, equals the tally's; the digit sums run
    # first exactly where they are cheaper, find the uniform λ, and settle
    # the report when the declared λ does not contradict it
    charged, ran = [], []
    real_charge, real_pairs = designs.charge, designs.pair_lambda

    def spy_charge(required, *args, **kwargs):
        charged.append(required)
        return real_charge(required, *args, **kwargs)

    def spy_pairs(*args):
        ran.append(real_pairs(*args))
        return ran[-1]

    monkeypatch.setattr(designs, "charge", spy_charge)
    monkeypatch.setattr(designs, "pair_lambda", spy_pairs)
    paths = set()
    for name, v, blocks in pair_corpus():
        design = BlockDesign(v, blocks)
        lam = uniform_pair_lambda(v, blocks)
        assert pair_lambda(v, blocks) == lam, name
        digits, tally = digits_first(v, design.b, design.k)
        for declared in (None, lam or None, lam + 1):
            charged.clear(), ran.clear()
            assert verify_design(design, 2, declared) == tallied(
                design, declared), (name, declared)
            settled = digits and lam and declared in (None, lam)
            assert ran == ([lam] if digits else []), (name, declared)
            assert charged == ([tally] if not digits else [digits] if settled
                               else [digits, digits + tally]), (name, declared)
            paths.add((bool(digits), bool(settled), bool(lam)))
    # settled by the digit sums; the digit sums, then the tally, on designs
    # with a contradicting λ and on families without a uniform λ; the tally
    # alone, on both
    assert paths == {(True, True, True), (True, False, True),
                     (True, False, False), (False, False, True),
                     (False, False, False)}, paths


def test_pair_digit_sums_follow_the_cheaper_charge(monkeypatch):
    # k ≥ 4 designs take the digit sums; k = 3 Steiner triple systems and
    # the λ = 2 biplane keep the tally
    chosen = {}
    for name in ("cdf-13-4-1", "cdf-337-7-1", "netto-61", "netto-97",
                 "biplane-cdf-11-5-2", "ag-2-3"):
        payload = catalog.load_payload(name)
        d = develop(payload) if catalog.get(name).kind == "cdf" else payload[0]
        chosen[name] = digits_first(d.v, d.b, d.k)[0] is not None
    assert chosen == {"cdf-13-4-1": True, "cdf-337-7-1": True,
                      "netto-61": False, "netto-97": False,
                      "biplane-cdf-11-5-2": False, "ag-2-3": False}
    # U on 2-(13,4,1): 3·52 + 13 + 4·13 + 6, below T = 2·78 + 13·6; on
    # 2-(97,3,1) U = 3·4656 + 97 + 4·97 + 6 is above T = 2·4656 + 1552·3
    assert digits_first(13, 13, 4) == (227, 234)
    assert pair_charge(97, 1552, 3) == 14459 > 13968 == digits_first(
        97, 1552, 3)[1]
    # t = 3 never asks, though on the complete 3-(8,7,5) U = 214 is below
    # T = 392 and b·C(k,3)/C(v,3) is whole: the digit sums would give λ₂ = 6
    design = complete_design(8, 7)
    assert pair_charge(8, 8, 7) == 214 and pair_lambda(8, design.blocks) == 6
    monkeypatch.setattr(designs, "pair_lambda", None)
    assert verify_design(design, 3, budget=392) == VerificationReport(True, 5, ())


def verify_cli(capsys, path, budget):
    code = main(["verify", str(path), "--kind", "design", "--budget",
                 str(budget), "--out", str(path) + ".r.json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pair_digit_sums_are_charged_before_they_run(capsys, tmp_path,
                                                     monkeypatch):
    # a valid k ≥ 4 design is charged U alone, a k = 3 one the tally T
    # alone; a k ≥ 4 family with a whole λ but uneven pairs is charged
    # U + T before the tally runs
    for name, cost in (("cdf-13-4-1", 227), ("netto-13", 234)):
        path = tmp_path / f"{name}.json"
        design = develop(catalog.load_payload(name))
        path.write_text(json.dumps(design_to_json(design, 2, 1)))
        assert verify_cli(capsys, path, cost)[:2] == (
            0, f"valid: true\ninferred lambda: 1\nreport: {path}.r.json\n")
        code, out, err = verify_cli(capsys, path, cost - 1)
        assert (code, out) == (3, "")
        assert f"needs {cost} elementary steps, budget is {cost - 1}" in err
    orbit = BlockDesign(13, tuple(tuple((x + g) % 13 for x in range(4))
                                  for g in range(13)))
    assert pair_charge(13, 13, 4) + 234 == 461
    tallies = []
    real_tally = designs.tally_report

    def spy_tally(*args):
        tallies.append(args)
        return real_tally(*args)

    monkeypatch.setattr(designs, "tally_report", spy_tally)
    with pytest.raises(BudgetError) as exc:
        verify_design(orbit, 2, budget=460)
    assert exc.value.required == 461 and not tallies
    report = verify_design(orbit, 2, budget=461)
    assert len(tallies) == 1 and report == tallied(orbit, None)
    assert not report.valid and report.inferred_lambda is None


# ------------------------------------------------------------ tally_report

def test_tally_report_partial_coverage_has_no_common_count():
    # (1,) is never tallied, so it counts 0 and no count is common
    report = tally_report({(0,): 1, (2,): 1}, [(0,), (1,), (2,)], 3)
    assert report == VerificationReport(False, None, (((1,), 0),))
    # a uniform tally over every key is its own target
    assert tally_report({"a": 2, "b": 2}, "ab", 2) == VerificationReport(True, 2, ())


def test_tally_report_targets_the_first_key_without_expected():
    counts = {"a": 2, "b": 1, "c": 2, "d": 3}
    assert tally_report(counts, "abcd", 4).failures == (("b", 1), ("d", 3))
    assert tally_report(counts, "bacd", 4).failures == (("a", 2), ("c", 2), ("d", 3))
    # a declared target overrides the common count, which is still reported
    report = tally_report({"a": 2, "b": 2}, "ab", 2, expected=3)
    assert report == VerificationReport(False, 2, (("a", 2), ("b", 2)))


def test_tally_report_caps_failures():
    report = tally_report({x: 1 for x in range(100)}, range(100), 100, expected=2)
    assert not report.valid and report.inferred_lambda == 1
    assert report.failures == tuple((x, 1) for x in range(MAX_FAILURES))


def test_require_raises_the_given_class_with_three_failures():
    report = tally_report({x: 1 for x in range(5)}, range(5), 5, expected=0)
    with pytest.raises(StructuralError) as exc:
        report.require(StructuralError, "five ones")
    assert str(exc.value) == "five ones: ((0, 1), (1, 1), (2, 1))"
    assert tally_report({0: 1}, range(1), 1).require(DomainError, "fine") is None


def test_derived_design_of_complete_is_complete():
    d = complete_design(5, 3)
    derived = derived_design(d, 4)
    # blocks through 4, with 4 removed: all pairs from {0..3}
    assert derived.blocks == tuple(combinations(range(4), 2))
    assert derived.v == 4


def test_derived_design_of_fano_is_a_matching(fano_design):
    derived = derived_design(fano_design, 0)
    assert len(derived.blocks) == 3       # r = 3
    report = verify_design(derived, 1)
    assert report.valid and report.inferred_lambda == 1


def test_complete_design_lambda():
    d = complete_design(7, 3)
    report = verify_design(d, 2)
    assert report.valid
    assert report.inferred_lambda == math.comb(7 - 2, 3 - 2)


# ------------------------------------------------------------------- bounds

def test_massey_schobi_values():
    assert massey_schobi_bound(13, 3, 2) == 26
    assert massey_schobi_bound(7, 3, 2) == 7
    assert massey_schobi_bound(19, 7, 6) == 3876
    assert massey_schobi_bound(5, 5, 3) == 1   # v == k degenerate
    with pytest.raises(DomainError):
        massey_schobi_bound(3, 3, 4)


def test_optimality_classes():
    def cls(lam):
        return optimality_class(DesignParameters(2, 100, 3, lam))

    assert cls(1) == "optimal"
    assert cls(2) == "near_optimal"
    assert cls(10) == "near_optimal"
    assert cls(11) == "other"
    assert cls(432) == "other"


def test_divisibility_check():
    # v | b, the gate for balanced orderings, reads b = lambda_0
    for p, b, rem in [(DesignParameters(2, 13, 3, 1), 26, 0),
                      (DesignParameters(2, 9, 3, 1), 12, 3),
                      (DesignParameters(3, 5, 3, 1), 10, 0)]:
        lam0 = lambda_table(p)[0]
        assert (lam0, lam0 % p.v) == (b, rem)


# ---------------------------------------------------------------- Teirlinck

def test_teirlinck_smallest_cases():
    # t = 2, v = 7778: lambda = 6^5 = 7776, b = 7776*C(7778,2)/3
    p, b = teirlinck_params(2, 7778)
    assert p.lambda_ == math.factorial(3) ** 5
    assert p.k == 3
    assert b == 2592 * math.comb(7778, 2)

    # t = 1, v = 9: lambda = 2^3 = 8, b = 8*C(9,1)/C(2,1) = 36
    p1, b1 = teirlinck_params(1, 9)
    assert p1.lambda_ == 8
    assert b1 == 36


def test_teirlinck_family_at_every_order():
    rng = random.Random(99)
    for t in range(1, 8):
        modulus = math.factorial(t + 1) ** (2 * t + 1)
        j = rng.randint(1, 3)
        v = t + j * modulus
        p, b = teirlinck_params(t, v)
        assert p.lambda_ == modulus and p.k == t + 1
        # independent route: b = lambda*C(v,t)/C(t+1,t), exact division
        num = modulus * math.comb(v, t)
        assert num % (t + 1) == 0
        assert b == num // (t + 1)
        assert all(value.denominator == 1 for value in lambda_table(p))
        # v just off the congruence class must be rejected
        with pytest.raises(DomainError):
            teirlinck_params(t, v + 1)


def test_teirlinck_rejects_bad_congruence():
    with pytest.raises(DomainError) as exc:
        teirlinck_params(2, 10)
    assert "mod" in str(exc.value)


def test_teirlinck_refuses_a_v_too_long_to_print():
    # v is echoed through show_int: past the interpreter's int-to-text
    # digit limit by its number of digits, so it stays a DomainError, and
    # a small v as it is
    with pytest.raises(DomainError) as exc:
        teirlinck_params(2, 10**5000 + 1)
    assert "mod" in str(exc.value) and "an int of 5001 digits" in str(exc.value)
    with pytest.raises(DomainError) as exc:
        teirlinck_params(2, 3)
    assert str(exc.value) == ("v must satisfy v ≡ t (mod 3!^5) with v > t, "
                              "got 3")


# --------------------------------------------------------------------- json

def test_design_json_roundtrip(tmp_path, fano_design):
    path = tmp_path / "fano.json"
    atomic_write_json(design_to_json(fano_design, t=2, lambda_=1), path)
    loaded, t, lam = design_from_json(load_json(path))
    assert loaded == fano_design
    assert (t, lam) == (2, 1)


def test_design_json_rejects_mismatched_k(tmp_path):
    doc = design_to_json(complete_design(5, 3))
    doc["k"] = 4
    path = tmp_path / "bad.json"
    path.write_text(__import__("json").dumps(doc))
    with pytest.raises(StructuralError):
        design_from_json(load_json(path))


def test_design_json_rejects_malformed(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"v": 7, "k": 3, ')
    with pytest.raises(StructuralError):
        design_from_json(load_json(path))


def test_design_from_json_is_inverse():
    d = complete_design(6, 3)
    loaded, t, lam = design_from_json(design_to_json(d))
    assert loaded == d and t is None and lam is None
