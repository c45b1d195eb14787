"""Canonical JSON handling shared by the on-disk formats.

All formats serialize through :func:`canonical_dumps` (sorted keys, fixed
separators, no trailing whitespace games) so that the provenance digest of a
document is stable across platforms and cosmetic re-serialization.  Exact
rationals travel as ``{"num": "...", "den": "..."}`` with decimal *strings*
to survive JSON readers that silently truncate big integers.
"""

import json
import os
import tempfile

from .errors import StructuralError


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def digest(obj) -> str:
    """Hex SHA-256 of the canonical serialization of ``obj``."""
    import hashlib   # 5 ms to load, which --help, catalog and params skip
    return hashlib.sha256(canonical_dumps(obj).encode("ascii")).hexdigest()


def atomic_write_json(obj, path):
    """Write canonical JSON to ``path`` via a same-directory temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(canonical_dumps(obj))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_json(path):
    """Parse a JSON document; unreadable or malformed input raises StructuralError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: not valid JSON ({exc})") from exc
    except (UnicodeDecodeError, IsADirectoryError, RecursionError) as exc:
        raise StructuralError(f"{path}: cannot be read as JSON text ({exc})") from exc


def fraction_to_json(value: "Fraction") -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def require(condition, message, offenders=None):
    """Assert a structural invariant on external input."""
    if not condition:
        raise StructuralError(message, offenders=offenders)


def int_field(doc, key, minimum=None):
    """Fetch a required integer field from a parsed JSON object."""
    require(isinstance(doc, dict), f"expected a JSON object, got {type(doc).__name__}")
    require(key in doc, f"missing field {key!r}")
    value = doc[key]
    require(isinstance(value, int) and not isinstance(value, bool),
            f"field {key!r} must be an integer, got {value!r}")
    if minimum is not None:
        require(value >= minimum, f"field {key!r} must be >= {minimum}, got {value}")
    return value


def int_rows(doc, key):
    """Fetch a required list-of-lists field (rows, blocks) as a tuple of
    tuples; the constructor that receives it checks the entries."""
    require(isinstance(doc, dict) and isinstance(doc.get(key), list),
            f"missing {key!r} list")
    bad = [(idx, row) for idx, row in enumerate(doc[key]) if not isinstance(row, list)]
    require(not bad, f"every entry of {key!r} must be a list", offenders=bad[:32])
    return tuple(tuple(row) for row in doc[key])
