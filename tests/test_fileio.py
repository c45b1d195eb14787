"""The one integer check and the one row check (`fileio.check_int`,
`fileio.check_rows`) behind every record and every JSON field."""

import pytest

from authdesigns import (BlockDesign, BudgetError, DesignParameters,
                         DifferenceFamily, DomainError, EncodingMatrix,
                         PerpendicularArray, StructuralError)
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
