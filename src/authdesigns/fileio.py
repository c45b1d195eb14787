"""Canonical JSON handling shared by the on-disk formats.

All formats serialize through :func:`canonical_dumps` (sorted keys, fixed
separators, no trailing whitespace games) so that the provenance digest of a
document is stable across platforms and cosmetic re-serialization.  Exact
rationals travel as ``{"num": "...", "den": "..."}`` with decimal *strings*
to survive JSON readers that silently truncate big integers.

`fields`, the one JSON field reader, checks only that the fields are there;
the record that holds a field checks its value, through `check_int` and
`check_rows`, the one integer and row checks.  `integer` is the one parser
of integer text, for options and variables, and `show_int` the one renderer
of a value that a refusal echoes.
"""

import json
import math
import os
import reprlib
from collections.abc import Iterable
from itertools import chain

from .errors import StructuralError


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def digest(obj) -> str:
    """Hex SHA-256 of the canonical serialization of ``obj``."""
    import hashlib   # 5 ms to load, which --help, catalog and params skip
    return hashlib.sha256(canonical_dumps(obj).encode("ascii")).hexdigest()


def atomic_write_json(obj, path):
    """Write canonical JSON to ``path`` via a same-directory temp file +
    rename.  The temp file is created exclusively, so the file gets the
    mode of any new file, 0o666 less the umask; a failure names ``path``."""
    tmp, made = f"{path}.{os.urandom(6).hex()}.tmp", False
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            made = True
            fh.write(canonical_dumps(obj))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException as exc:
        if made:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):   # the path asked for, not the temp file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def _object(pairs):
    """A JSON object as a dict; a repeated name is refused, the first named."""
    if len(doc := dict(pairs)) < len(pairs):
        seen = set()
        raise StructuralError("repeated object name " + show_int(next(
            name for name, _ in pairs if name in seen or seen.add(name))))
    return doc


def load_json(path):
    """Parse a JSON document; unreadable or malformed input raises StructuralError."""
    try:
        with open(path, encoding="utf-8") as fh:   # RFC 8259
            return json.load(fh, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: not valid JSON ({exc})") from exc
    # ValueError: undecodable bytes, or an integer past the digit limit
    except (ValueError, IsADirectoryError, RecursionError) as exc:
        raise StructuralError(f"{path}: cannot be read as JSON text ({exc})") from exc


def fraction_to_json(value: "Fraction") -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


# Witness and offender lists are capped; a wrong object can fail almost
# everywhere and nobody reads a million witnesses.
MAX_FAILURES = 32


def require(condition, message, offenders=None):
    """Assert a structural invariant on external input."""
    if not condition:
        raise StructuralError(message, offenders=offenders)


class _Short(reprlib.Repr):
    """reprlib's bounds, with each int inside a value echoed by `show_int`,
    so an int past the int-to-text digit limit names its size instead of
    raising ValueError (reprlib's own `repr_int` raises before 3.14)."""

    def repr_int(self, x, level):
        return show_int(x)


# the Repr bounds an echo's work, SHOW_LIMIT its text (no Repr arguments before 3.12)
_short = _Short()
_short.maxlevel = 4
_short.maxtuple = _short.maxlist = 10
SHOW_LIMIT = 400
SHOW_DIGITS = 60


def show_int(value) -> str:
    """How a refusal echoes `value`: an int of at most SHOW_DIGITS digits by
    `repr`, a longer one by its number of digits; anything else in at most
    SHOW_LIMIT characters."""
    if not isinstance(value, int):
        text = _short.repr(value)
        return text if len(text) <= SHOW_LIMIT else text[:SHOW_LIMIT - 3] + "..."
    n = abs(value)
    if n < 10 ** SHOW_DIGITS:
        return repr(value)
    digits = int(math.log10(n)) + 1   # a float, so within one of the count
    digits += (n >= 10 ** digits) - (n < 10 ** (digits - 1))
    return f"an int of {digits} digits"


def check_int(name, value, minimum=None, error=StructuralError):
    """`value` if it is an int, not a bool, and at least `minimum`; else
    raise `error`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {show_int(value)}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {show_int(value)}")
    return value


def integer(text):
    """`int(text)` for an optional '-' then ASCII digits; anything else, even
    what int() reads (spaces, '+', '_', other scripts' digits), is a ValueError."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def check_rows(rows, v, what, size=None, distinct=True):
    """`rows` as a non-empty tuple of int tuples, each of `size` entries
    (the first row's size when None) in [0, v), pairwise distinct within a
    row unless `distinct` is false; `what` names one row in the messages.
    Anything else, a value or a row that is no sequence included, raises
    StructuralError with the offending (index, row) pairs, at most
    MAX_FAILURES.  A text or a mapping is refused before it is copied."""
    require(isinstance(rows, Iterable) and not isinstance(rows, (str, bytes, dict)),
            f"the {what}s must form a sequence")
    rows = tuple(rows)
    try:
        rows = tuple(map(tuple, rows))
    except TypeError:   # name the rows that are no sequence
        bad = [(idx, row) for idx, row in enumerate(rows) if not isinstance(row, Iterable)]
        require(not bad, f"each {what} must be a sequence", bad[:MAX_FAILURES])
        raise
    require(rows, f"need at least one {what}")
    if size is None:
        size = len(rows[0])
    # builtins decide; the row scan names offenders or passes int subclasses
    flat = chain.from_iterable
    if (set(map(len, rows)) == {size} and set(map(type, flat(rows))) <= {int}
            and min(flat(rows), default=0) >= 0 and max(flat(rows), default=-1) < v
            and (not distinct or set(map(len, map(set, rows))) == {size})):
        return rows
    bad = [(idx, row) for idx, row in enumerate(rows)
           if len(row) != size
           or not all(isinstance(x, int) and not isinstance(x, bool)
                      and 0 <= x < v for x in row)
           or distinct and len(set(row)) != size]
    entries = "distinct integers" if distinct else "integers"
    require(not bad, f"each {what} must hold {show_int(size)} {entries} in [0, v)",
            offenders=bad[:MAX_FAILURES])
    return rows


def fields(doc, *keys):
    """The values of `keys` in the JSON object `doc`, each present; the
    record that receives a value checks it."""
    require(isinstance(doc, dict), f"expected a JSON object, got {type(doc).__name__}")
    for key in keys:
        require(key in doc, f"missing field {key!r}")
    return [doc[key] for key in keys]
