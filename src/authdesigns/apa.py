"""Authentication perpendicular arrays: verification and the classical
55-row example over 11 symbols.

An APA of index lambda and strength t over v symbols in k columns has
lambda*C(v,t) rows and satisfies three clauses: (i) rows hold k distinct
symbols; (ii) every t symbols land together in every choice of t columns in
exactly lambda rows; (iii) for s < t, among the rows containing s+1 fixed
symbols, any s of them occupy each s-subset of columns equally often.
Clause (iii) is read with "contain" meaning anywhere in the row, which is
what the k=3 example's by-hand count confirms.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from math import comb

from .budget import charge
from .designs import VerificationReport, tally_report
from .errors import ConstructionError, StructuralError
from .fileio import MAX_FAILURES, check_int, check_rows, fields, show_int
from .record import record


@record
class PerpendicularArray:
    """A declared APA_lambda(t, k, v) candidate.

    Construction enforces shape only: lambda*C(v,t) rows, k symbols in
    [0, v) per row.  Row-distinctness belongs to clause (i) of `verify_apa`,
    so mutated arrays stay representable.
    """

    t: int
    k: int
    v: int
    lambda_: int
    rows: tuple

    def __post_init__(self):
        for name in ("t", "k", "v", "lambda_"):   # named as in the file
            check_int(name.rstrip("_"), getattr(self, name), 1)
        if not (self.t <= self.k <= self.v):
            raise StructuralError(f"need t <= k <= v, got t={show_int(self.t)}, "
                                  f"k={show_int(self.k)}, v={show_int(self.v)}")
        rows = check_rows(self.rows, self.v, "row", size=self.k, distinct=False)
        expected_rows = self.lambda_ * comb(self.v, self.t)
        if len(rows) != expected_rows:
            raise StructuralError(
                f"an APA_{show_int(self.lambda_)}({self.t},{self.k},{show_int(self.v)})"
                f" needs {show_int(expected_rows)} rows, got {len(rows)}")
        object.__setattr__(self, "rows", rows)


def verify_apa(array: PerpendicularArray,
               budget: int | None = None) -> VerificationReport:
    """Check clauses (i)-(iii); the report carries the first violation found
    per clause, tagged ('i'|'ii'|'iii', ...details).

    The charge bounds the steps taken: n·k for (i); C(k,t)·n tally steps,
    C(k,t)·C(v,t) count reads and as many scanned for (ii); for (iii), at
    each s < t, n·k + (s+1)·(N·(k+2) + min(N, C(v,s+1))·(2·C(k,s)+1)) with
    N = n·C(k,s+1).  Proof for (iii): a row costs k for its symbol set, of
    at most k symbols, so it yields at most (s+1)·C(k,s+1) keys (subset, x,
    columns), each k column reads, a tally step and a step to collect its
    pair (subset, x).  A pair's subset is held by a row and is one of
    C(v,s+1): at most (s+1)·min(N, C(v,s+1)) pairs, each C(k,s) count
    reads, as many scanned and a step in `min`.
    """
    t, k, v, lam = array.t, array.k, array.v, array.lambda_
    n = len(array.rows)
    cost = comb(k, t) * (n + 2 * comb(v, t)) + n * k
    for s in range(1, t):
        keys = n * comb(k, s + 1)
        cost += n * k + (s + 1) * (keys * (k + 2) + min(keys, comb(v, s + 1))
                                   * (2 * comb(k, s) + 1))
    charge(cost, budget, what=f"APA verification over {n} rows")
    failures = []

    # (i) distinct symbols within each row
    for idx, row in enumerate(array.rows):
        if len(set(row)) != k:
            failures.append((("i", idx, row), len(set(row))))
            break

    # (ii) each t-subset of symbols in each t-subset of columns: lambda rows,
    # one tally over (columns, symbols) keys
    column_sets = tuple(combinations(range(k), t))
    tally = Counter((cols, symbols) for cols in column_sets for row in array.rows
                    if len(symbols := tuple(sorted({row[c] for c in cols}))) == t)
    report = tally_report(tally, product(column_sets, combinations(range(v), t)),
                          len(column_sets) * comb(v, t), lam)
    if not report.valid:
        (cols, symbols), got = report.failures[0]
        failures.append((("ii", cols, symbols), got))

    # (iii) for s < t: rows containing s+1 fixed symbols place any s of them
    # uniformly over the C(k,s) column subsets; one tally per s over
    # (subset, x, the columns holding subset - {x}) keys
    for s in range(1, t):
        tally = Counter((subset, x, tuple(c for c, y in enumerate(row)
                                          if y != x and y in subset))
                        for row in array.rows
                        for subset in combinations(sorted(set(row)), s + 1)
                        for x in subset)
        column_sets = tuple(combinations(range(k), s))
        failing = [(("iii", s) + pair, got) for pair in {key[:2] for key in tally}
                   if len(set(got := tuple(tally[pair + (cols,)]
                                           for cols in column_sets))) != 1]
        if failing:
            failures.append(min(failing))
            break

    return VerificationReport(valid=not failures,
                              inferred_lambda=lam if not failures else None,
                              failures=tuple(failures[:MAX_FAILURES]))


VAN_REES_BASE_ROWS = ((0, 1, 2), (0, 9, 7), (0, 3, 6), (0, 4, 8), (0, 5, 10))


def van_rees_array(budget: int | None = None) -> PerpendicularArray:
    """The classical APA_1(2, 3, 11): five base rows developed additively mod
    11, in (base row, shift) lexicographic order.  Post-verified, charging
    `budget`, before returning."""
    rows = tuple(tuple((x + g) % 11 for x in base)
                 for base in VAN_REES_BASE_ROWS for g in range(11))
    array = PerpendicularArray(t=2, k=3, v=11, lambda_=1, rows=rows)
    verify_apa(array, budget).require(
        ConstructionError, "developed base rows failed APA verification")
    return array


# ---------------------------------------------------------------------------
# file format: {"t": int, "k": int, "v": int, "lambda": int,
#               "rows": [[int,...],...]}

def apa_to_json(array: PerpendicularArray) -> dict:
    return {
        "t": array.t,
        "k": array.k,
        "v": array.v,
        "lambda": array.lambda_,
        "rows": [list(r) for r in array.rows],
    }


def apa_from_json(doc) -> PerpendicularArray:
    return PerpendicularArray(*fields(doc, "t", "k", "v", "lambda", "rows"))
