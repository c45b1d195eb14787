"""The one integer check and the one row check (`fileio.check_int`,
`fileio.check_rows`) behind every record, and the one JSON field reader
(`fileio.fields`) that hands each field to the record that checks it."""

import os
import random
import re
import time
import tracemalloc
from enum import IntEnum
from functools import partial
from itertools import combinations

import pytest

from authdesigns import (BlockDesign, BudgetError, DesignParameters,
                         DifferenceFamily, DomainError, EncodingMatrix,
                         PerpendicularArray, StructuralError)
from authdesigns.apa import apa_from_json
from authdesigns.balancing import matrix_from_json
from authdesigns.designs import design_from_json
from authdesigns.difference_families import df_from_json
from authdesigns.fileio import (MAX_FAILURES, atomic_write_json, check_rows,
                                fields, load_json)

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


# ------------------------------------------------------- the JSON readers

def test_fields_checks_only_an_object_and_its_keys():
    doc = {"v": "7", "rows": None}
    assert fields(doc, "rows", "v") == [None, "7"]      # values unchecked
    for not_object in ([], "v", 7, None):
        with pytest.raises(StructuralError, match="^expected a JSON object"):
            fields(not_object, "v")
    for key in ("k", "b"):
        with pytest.raises(StructuralError) as exc:
            fields(doc, "v", key, "rows")
        assert str(exc.value) == f"missing field {key!r}"


# name: (reader, valid document, required keys, integer fields, rows key)
READERS = {
    "matrix": (matrix_from_json,
               {"v": 7, "k": 3, "b": 2, "rows": [[0, 1, 2], [3, 4, 5]]},
               ("v", "k", "b", "rows"), ("v", "k", "b"), "rows"),
    "design": (design_from_json,
               {"v": 7, "k": 3, "t": 1, "lambda": 1,
                "blocks": [[0, 1, 2], [3, 4, 5]]},
               ("v", "k", "blocks"), ("v", "k", "t", "lambda"), "blocks"),
    "cdf": (df_from_json,
            {"v": 13, "lambda": 1, "base_blocks": [[0, 1, 4], [0, 2, 7]]},
            ("v", "lambda", "base_blocks"), ("v", "lambda"), "base_blocks"),
    "apa": (apa_from_json,
            {"t": 1, "k": 2, "v": 3, "lambda": 1,
             "rows": [[0, 1], [1, 2], [2, 0]]},
            ("t", "k", "v", "lambda", "rows"), ("t", "k", "v", "lambda"), "rows"),
}

TEXT_ROWS = "x" * 10**6


def _reader_refusals():
    """(reader, document, refusal pattern): each must raise StructuralError."""
    for name, (read, valid, required, ints, rows) in READERS.items():
        for key in required:
            doc = {k: x for k, x in valid.items() if k != key}
            yield pytest.param(read, doc, f"^missing field {key!r}$",
                               id=f"{name}-missing-{key}")
        for key in ints:
            for value in (True, "7", 7.0):
                # the refusal names the field as the file does
                yield pytest.param(read, {**valid, key: value},
                                   f"^{key} must be an integer, got ",
                                   id=f"{name}-{key}-{value!r}")
            yield pytest.param(read, {**valid, key: 0}, f"^{key} must be >= ",
                               id=f"{name}-{key}-0")
        for label, value in (("text", TEXT_ROWS), ("object", {"0": [0, 1]}),
                             ("number", 5)):
            yield pytest.param(read, {**valid, rows: value},
                               "must form a sequence$", id=f"{name}-{label} rows")
    yield pytest.param(matrix_from_json, {**READERS["matrix"][1], "b": 3},
                       "^declared b=3 but found 2 rows$", id="matrix-declared b")
    yield pytest.param(design_from_json, {**READERS["design"][1], "k": 2},
                       "^declared k=2 but blocks have size 3$",
                       id="design-declared k")


def test_readers_accept_their_valid_documents():
    for read, valid, required, _, _ in READERS.values():
        read(valid)
        read({key: valid[key] for key in required})
    assert design_from_json({**READERS["design"][1], "t": None})[1] is None


@pytest.mark.parametrize("read, doc, refusal", _reader_refusals())
def test_readers_refuse_malformed_fields(read, doc, refusal):
    with pytest.raises(StructuralError, match=refusal):
        read(doc)


def _text_rows_calls():
    for name, (read, valid, _, _, rows) in READERS.items():
        yield pytest.param(partial(read, {**valid, rows: TEXT_ROWS}),
                           id=f"{name} reader")
    for name, (make, valid, _, rows, _) in RECORDS.items():
        if rows is not None:
            yield pytest.param(partial(make, **{**valid, rows: TEXT_ROWS}),
                               id=name)


@pytest.mark.parametrize("call", _text_rows_calls())
def test_text_rows_are_refused_before_any_copy(call):
    # copied, a 10^6-character text would become 10^6 one-character rows:
    # seconds and about 150 MB before the refusal
    start = time.perf_counter()
    with pytest.raises(StructuralError, match="must form a sequence"):
        call()
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        with pytest.raises(StructuralError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.01 and peak < 10**6, (elapsed, peak)


def test_load_json_refuses_a_repeated_object_name(tmp_path):
    # at any depth, naming the first repeated name, bounded; one name in
    # two objects is no repeat
    path = tmp_path / "doc.json"
    long = "n" * 10**5
    for text, name in (('{"v": 3, "rows": [[0]], "v": 4}', "'v'"),
                       ('{"p": {"s": 1, "t": 2, "t": 3, "s": 4}}', "'t'"),
                       (f'{{"{long}": 1, "{long}": 2}}', "'nnnnnnnnnnnn")):
        path.write_text(text)
        with pytest.raises(StructuralError) as exc:
            load_json(path)
        assert str(exc.value).startswith(f"repeated object name {name}")
        assert len(str(exc.value)) < 100
    path.write_text('{"s": 1, "p": {"s": 2}}')
    assert load_json(path) == {"s": 1, "p": {"s": 2}}


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
                             develop_matrix, netto_triples,
                             verify_design, voracle_offline_value)
    from authdesigns.budget import charge
    from authdesigns.catalog import load_payload
    from authdesigns.fileio import check_int

    fano = develop(load_payload("fano-cdf"))
    system = SecrecySystem(develop_matrix(load_payload("fano-cdf")))
    return {
        "charge": (lambda: charge(BIG, 10), BudgetError),
        "check_int": (lambda: check_int("v", -BIG, 1), StructuralError),
        "netto_triples": (lambda: netto_triples(BIG), DomainError),
        "DesignParameters": (lambda: DesignParameters(2, BIG, BIG + 1, 1),
                             DomainError),
        "derived_design-x": (lambda: derived_design(fano, BIG), DomainError),
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
    # the refusal states the int's number of digits instead of raising the
    # interpreter's ValueError from inside its own message
    call, error = _big_int_refusals()[site]
    with pytest.raises(error) as exc:
        call()
    assert re.search(r"an int of \d{4,} digits", str(exc.value)), str(exc.value)


def test_show_int_prints_ints_in_decimal():
    from authdesigns.fileio import show_int
    assert show_int(-12) == "-12" and show_int(3.5) == "3.5"
    # past SHOW_DIGITS digits an int is named by its number of digits,
    # under the interpreter's int-to-text limit and past it
    assert show_int(BIG) == show_int(-BIG) == "an int of 5001 digits"
    assert show_int(BIG - 1) == "an int of 5000 digits"
    assert show_int(10**4000) == "an int of 4001 digits"
    for n in (10**60 - 1, 1 - 10**60):
        assert show_int(n) == repr(n)
    assert show_int(10**60) == "an int of 61 digits"
    assert show_int(2**100_000) == "an int of 30103 digits"


def test_show_int_bounds_every_other_value():
    from authdesigns.fileio import SHOW_LIMIT, show_int
    # what a small refusal echoes reads as repr; ints are never cut
    for value in (True, None, "7", "٣", [0, 1], {"a": [1, 2]}, (0, (1, 2, "a")),
                  [(0, (0, 1, 2, 3, 4, 5, 6))], [(0, ([0], 1, 2))], 10**30):
        assert show_int(value) == repr(value)
    assert show_int("x" * 10**6) == "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"
    assert show_int([(0, tuple(range(10**6)))]) == (
        "[(0, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...))]")
    # an int inside a value is echoed as show_int echoes it alone, so one
    # past the int-to-text limit raises nothing
    assert show_int((0, BIG, 10**60)) == (
        "(0, an int of 5001 digits, an int of 61 digits)")
    nested = [[[["x" * 100] * 100] * 100] * 100]
    assert len(show_int(nested)) == SHOW_LIMIT and show_int(nested).endswith("...")
