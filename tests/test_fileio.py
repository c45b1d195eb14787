"""The one integer check and the one row check (`fileio.check_int`,
`fileio.check_rows`) behind every record and every JSON field."""

import pytest

from authdesigns import (BlockDesign, DesignParameters, DifferenceFamily,
                         DomainError, EncodingMatrix, PerpendicularArray,
                         StructuralError)
from authdesigns.fileio import MAX_FAILURES, check_rows, int_field

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


def test_check_rows_returns_tuples_and_caps_offenders():
    assert check_rows([[0, 1], [1, 0]], 2, "row") == ((0, 1), (1, 0))
    with pytest.raises(StructuralError) as exc:
        check_rows([[0, 5]] * (MAX_FAILURES + 10), 2, "row")
    assert len(exc.value.offenders) == MAX_FAILURES
    assert exc.value.offenders[0] == (0, (0, 5))
    # an APA row may repeat a symbol; its verifier reports it
    assert check_rows([[1, 1]], 2, "row", distinct=False) == ((1, 1),)
