"""The one integer check and the one row check (`fileio.check_int`,
`fileio.check_rows`) behind every record and every JSON field."""

import os
import random
from enum import IntEnum
from itertools import combinations

import pytest

from authdesigns import (BlockDesign, BudgetError, DesignParameters,
                         DifferenceFamily, DomainError, EncodingMatrix,
                         PerpendicularArray, StructuralError)
from authdesigns.fileio import (MAX_FAILURES, atomic_write_json, check_rows,
                                int_field, load_json)

# name: (constructor, valid fields, integer fields, row field, error class of
# the integer fields); every row field must fail with StructuralError
RECORDS = {
    "EncodingMatrix": (EncodingMatrix, {"v": 7, "k": 3,
                                        "rows": ((0, 1, 2), (3, 4, 5))},
                       ("v", "k"), "rows", StructuralError),
    "BlockDesign": (BlockDesign, {"v": 7, "blocks": ((0, 1, 2), (3, 4, 5))},
                    ("v",), "blocks", StructuralError),
    "DifferenceFamily": (DifferenceFamily, {"v": 13, "lambda_": 1,
                                            "base_blocks": ((0, 1, 4), (0, 2, 7))},
                         ("v", "lambda_"), "base_blocks", StructuralError),
    "PerpendicularArray": (PerpendicularArray,
                           {"t": 1, "k": 2, "v": 3, "lambda_": 1,
                            "rows": ((0, 1), (1, 2), (2, 0))},
                           ("t", "k", "v", "lambda_"), "rows", StructuralError),
    "DesignParameters": (DesignParameters, {"t": 2, "v": 7, "k": 3, "lambda_": 1},
                         ("t", "v", "k", "lambda_"), None, DomainError),
    "int_field": (lambda **doc: int_field(doc, "v", minimum=1), {"v": 7},
                  ("v",), None, StructuralError),
}

# each rule's first row, of a record's row size; "empty" leaves no rows
ROW_RULES = {
    "empty": None,
    "wrong length": lambda size: tuple(range(size + 1)),
    "out of range": lambda size: tuple(range(size - 1)) + (99,),
    "bool entry": lambda size: (True,) + tuple(range(2, size + 1)),
    "repeated entry": lambda size: (0,) * size,
    "bare number": lambda size: 5,
}


def _cases():
    for name, (make, valid, ints, rows, int_error) in RECORDS.items():
        for field in ints:
            yield pytest.param(make, valid, {field: True}, int_error,
                               id=f"{name}-{field}-True")
        if rows is None:
            continue
        for rule, first_row in ROW_RULES.items():
            if rule == "repeated entry" and make is PerpendicularArray:
                continue        # clause (i) of verify_apa judges that
            value = () if first_row is None else (
                (first_row(len(valid[rows][0])),) + valid[rows][1:])
            yield pytest.param(make, valid, {rows: value}, StructuralError,
                               id=f"{name}-{rule}")


@pytest.mark.parametrize("make, valid, change, error", _cases())
def test_records_reject_malformed_fields(make, valid, change, error):
    make(**valid)
    with pytest.raises(error):
        make(**{**valid, **change})


@pytest.mark.parametrize("name", [name for name, spec in RECORDS.items()
                                  if spec[3] is not None])
def test_records_name_what_is_not_a_sequence(name):
    make, valid, _, field, _ = RECORDS[name]
    first, *rest = valid[field]
    with pytest.raises(StructuralError) as exc:
        make(**{**valid, field: [first, 5, *rest, None]})
    assert exc.value.offenders == [(1, 5), (len(rest) + 2, None)]
    assert "must be a sequence" in str(exc.value)
    with pytest.raises(StructuralError, match="must form a sequence"):
        make(**{**valid, field: 5})


def test_check_rows_returns_tuples_and_caps_offenders():
    assert check_rows([[0, 1], [1, 0]], 2, "row") == ((0, 1), (1, 0))
    with pytest.raises(StructuralError) as exc:
        check_rows([[0, 5]] * (MAX_FAILURES + 10), 2, "row")
    assert len(exc.value.offenders) == MAX_FAILURES
    assert exc.value.offenders[0] == (0, (0, 5))
    # an APA row may repeat a symbol; its verifier reports it
    assert check_rows([[1, 1]], 2, "row", distinct=False) == ((1, 1),)


# ------------------------------------------------------- atomic writes

def test_atomic_write_gives_the_umask_mode_new_or_overwritten(tmp_path):
    path = tmp_path / "doc.json"
    umask = os.umask(0o027)
    try:
        atomic_write_json({"a": 1}, path)
        assert path.stat().st_mode & 0o777 == 0o640
        path.chmod(0o604)
        atomic_write_json({"a": 2}, str(path))
        assert path.stat().st_mode & 0o777 == 0o640
    finally:
        os.umask(umask)
    assert load_json(path) == {"a": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_atomic_write_failures_name_the_path_and_leave_no_temp(tmp_path):
    missing = tmp_path / "missing" / "doc.json"
    with pytest.raises(FileNotFoundError) as exc:
        atomic_write_json({}, missing)
    assert exc.value.filename == str(missing) and ".tmp" not in str(exc.value)
    # the temp file is made, the rename onto a directory fails: it goes
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        atomic_write_json({}, tmp_path / "dir")
    assert str(exc.value).endswith(f"{str(tmp_path / 'dir')!r}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]


def test_atomic_write_keeps_a_temp_file_it_did_not_make(tmp_path, monkeypatch):
    # a temp name already taken is another writer's file: refused, kept
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    path = tmp_path / "doc.json"
    taken = tmp_path / "doc.json.000000000000.tmp"
    taken.write_text("theirs")
    with pytest.raises(FileExistsError) as exc:
        atomic_write_json({}, path)
    assert exc.value.filename == str(path)
    assert taken.read_text() == "theirs" and not path.exists()


# ----------------------------------- the builtin verdict vs the row scan

def scan_rows(rows, v, size=None, distinct=True):
    """The per-row scan, as the oracle of `check_rows`: every offending
    (index, row) pair, uncapped."""
    rows = [tuple(row) for row in rows]
    size = len(rows[0]) if size is None else size
    return [(idx, row) for idx, row in enumerate(rows)
            if len(row) != size
            or not all(type(x) is not bool and isinstance(x, int) and 0 <= x < v
                       for x in row)
            or distinct and len(set(row)) != size]


def first_repeated_set(rows):
    seen = {}
    for idx, row in enumerate(rows):
        if frozenset(row) in seen:
            return [(seen[frozenset(row)], idx, tuple(sorted(row)))]
        seen[frozenset(row)] = idx
    return None


def _mutate(rng, rows, v, kind):
    rows = [list(row) for row in rows]
    filled = [row for row in rows if row]
    if not filled:
        return rows
    row = rng.choice(filled)
    c = rng.randrange(len(row))
    if kind == "bool":
        row[c] = rng.choice((True, False))
    elif kind == "IntEnum":
        row[c] = IntEnum("Message", [(f"m{x}", x) for x in range(v)])(
            rng.randrange(v))
    elif kind == "negative":
        row[c] = -rng.randint(1, 3)
    elif kind == "too large":
        row[c] = v + rng.randrange(3)
    elif kind == "float":
        row[c] = float(row[c])
    elif kind == "wrong length" and rng.random() < 0.5:
        row.append(row[0])
    elif kind == "wrong length":
        row.pop()
    elif kind == "repeated entry" and len(row) > 1:
        row[c] = row[c - 1]
    elif kind == "duplicate row set":
        rows.insert(rng.randrange(len(rows) + 1), rng.sample(row, len(row)))
    return rows


MUTANTS = ("bool", "IntEnum", "negative", "too large", "float", "wrong length",
           "repeated entry", "duplicate row set")


def seeded_mutants(seed, count):
    """(v, k, rows) of random matrices with up to three seeded mutations,
    plus the empty input."""
    rng = random.Random(seed)
    out = [(3, 2, [])]
    for _ in range(count):
        v = rng.randint(1, 9)
        k = rng.randint(1, v)
        pool = list(combinations(range(v), k))
        rows = [rng.sample(row, k)
                for row in rng.sample(pool, rng.randint(1, min(8, len(pool))))]
        for kind in rng.sample(MUTANTS, rng.randint(0, 3)):
            rows = _mutate(rng, rows, v, kind)
        out.append((v, k, rows))
    return out


def _outcome(call):
    try:
        return "ok", call()
    except StructuralError as exc:
        return str(exc), exc.offenders


def test_check_rows_verdicts_match_the_row_scan():
    for v, k, rows in seeded_mutants(53, 600):
        for size, distinct in ((None, True), (k, True), (k, False)):
            entries = "distinct integers" if distinct else "integers"
            if not rows:
                expected = ("need at least one row", [])
            elif bad := scan_rows(rows, v, size, distinct):
                expected = (f"each row must hold {size or len(rows[0])} "
                            f"{entries} in [0, v)", bad[:MAX_FAILURES])
            else:
                expected = ("ok", tuple(map(tuple, rows)))
            got = _outcome(lambda: check_rows(rows, v, "row", size, distinct))
            assert got == expected, (v, k, rows, size, distinct)


def test_encoding_matrix_verdicts_match_the_row_scan():
    kinds = {"ok": 0, "rows": 0, "sets": 0, "IntEnum": 0}
    for v, k, rows in seeded_mutants(59, 600):
        got = _outcome(lambda: EncodingMatrix(v, k, rows))
        if not rows:
            assert got == ("need at least one row", [])
        elif scan_rows(rows, v, k):
            assert got == (f"each row must hold {k} distinct integers in [0, v)",
                           scan_rows(rows, v, k)[:MAX_FAILURES])
            kinds["rows"] += 1
        elif first_repeated_set(rows):
            assert got == ("two rows carry the same message set",
                           first_repeated_set(rows))
            kinds["sets"] += 1
        else:
            assert got[0] == "ok" and got[1].rows == tuple(map(tuple, rows))
            kinds["ok"] += 1
            # an IntEnum message is an int and stays accepted
            kinds["IntEnum"] += any(isinstance(x, IntEnum) for row in rows
                                    for x in row)
    assert min(kinds.values()) >= 20, kinds


# ------------------------------------------------ ints too long to print

BIG = 10**5000      # past the interpreter's int-to-text digit limit


def _big_int_refusals():
    from authdesigns import (SecrecySystem, complete_design,
                             deception_probability, derived_design, develop,
                             develop_matrix, lambda_s, netto_triples,
                             verify_design, voracle_offline_value)
    from authdesigns.budget import charge
    from authdesigns.catalog import load_payload
    from authdesigns.fileio import check_int

    fano = develop(load_payload("fano-cdf"))
    system = SecrecySystem(develop_matrix(load_payload("fano-cdf")))
    params = DesignParameters(2, 7, 3, 1)
    return {
        "charge": (lambda: charge(BIG, 10), BudgetError),
        "check_int": (lambda: check_int("v", -BIG, 1), StructuralError),
        "netto_triples": (lambda: netto_triples(BIG), DomainError),
        "DesignParameters": (lambda: DesignParameters(2, BIG, BIG + 1, 1),
                             DomainError),
        "DesignParameters.b": (lambda: DesignParameters(2, BIG + 1, 3, 1).b,
                               DomainError),
        "lambda_s": (lambda: lambda_s(params, BIG), DomainError),
        "derived_design-x": (lambda: derived_design(fano, BIG), DomainError),
        "derived_design-t": (lambda: derived_design(fano, 0, -BIG), DomainError),
        "verify_design": (lambda: verify_design(fano, BIG), DomainError),
        "complete_design": (lambda: complete_design(3, BIG), DomainError),
        "deception_probability": (lambda: deception_probability(system, BIG),
                                  DomainError),
        "game order": (lambda: voracle_offline_value(system, BIG), DomainError),
        "PerpendicularArray-rows": (
            lambda: PerpendicularArray(t=1, k=2, v=BIG, lambda_=1, rows=((0, 1),)),
            StructuralError),
        "PerpendicularArray-shape": (
            lambda: PerpendicularArray(t=3, k=2, v=BIG, lambda_=1, rows=((0, 1),)),
            StructuralError),
    }


@pytest.mark.parametrize("site", sorted(_big_int_refusals()))
def test_refusals_name_an_int_too_long_to_print(site):
    # the refusal states the int's bit length instead of raising the
    # interpreter's ValueError from inside its own message
    call, error = _big_int_refusals()[site]
    with pytest.raises(error) as exc:
        call()
    assert "bits" in str(exc.value)


def test_show_int_prints_ints_in_decimal():
    from authdesigns.fileio import show_int
    assert show_int(-12) == "-12" and show_int(3.5) == "3.5"
    assert show_int(BIG) == f"an int of {BIG.bit_length()} bits"
