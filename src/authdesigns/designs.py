"""Block designs: core types, exact parameter arithmetic, verification.

Conventions used throughout the package: points are the integers 0..v-1,
blocks are strictly increasing tuples of points, and block lists are kept in
lexicographic order (canonical form, so golden files diff cleanly).  Every
count is an exact integer or `fractions.Fraction`; no floating point is used
anywhere in verification.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, repeat

from .budget import charge
from .errors import DomainError, StructuralError
from .fileio import MAX_FAILURES, check_int, check_rows, fields, require, show_int
from .record import record


@record
class DesignParameters:
    """Parameter tuple of a t-design with index lambda.

    Construction enforces only the cheap structural conditions
    (1 <= t <= k <= v, lambda >= 1), because callers need to represent and
    report on inadmissible tuples too.  Every derived count is read from
    `lambda_table`: b = lambda_0, r = lambda_1, b_opt = lambda_0/lambda;
    admissibility is a table with no fractional entry.
    """

    t: int
    v: int
    k: int
    lambda_: int

    def __post_init__(self):
        check_int("t", self.t, 1, DomainError)
        check_int("v", self.v, 1, DomainError)
        check_int("k", self.k, 1, DomainError)
        check_int("lambda", self.lambda_, 1, DomainError)
        if not (self.t <= self.k <= self.v):
            raise DomainError(f"need t <= k <= v, got t={show_int(self.t)}, "
                              f"k={show_int(self.k)}, v={show_int(self.v)}")


def lambda_table(params: DesignParameters, budget: int | None = None) -> list:
    """[lambda_0, ..., lambda_t]: lambda_s = lambda·C(v-s,t-s)/C(k-s,t-s),
    the blocks through a fixed s-subset of points, exact and integral iff
    the parameters are admissible at level s; b = lambda_0, r = lambda_1.
    Built down from lambda_t = lambda by lambda_s = lambda_{s+1}·(v-s)/(k-s),
    and charged first, a step per int operation of any size: per s < t, 2
    subtractions, the reduced (v-s)/(k-s) (a gcd, 2 tests, 2 divisions) times
    lambda_{s+1} (2 gcds, 2 tests, ≤ 4 divisions, 2 products): 17·t."""
    charge(17 * params.t, budget, what=f"lambda_s table of a {params.t}-design")
    table = [Fraction(params.lambda_)]
    for s in range(params.t - 1, -1, -1):
        table.append(table[-1] * Fraction(params.v - s, params.k - s))
    return table[::-1]


def massey_schobi_bound(v: int, k: int, t: int) -> Fraction:
    """Information-theoretic lower bound C(v,t)/C(k,t) on the number of keys
    of any system that is (t-1)-fold secure against spoofing: b = lambda_0
    of the `lambda_table` of a t-(v,k,1) design."""
    return lambda_table(DesignParameters(t, v, k, 1))[0]


def optimality_class(params: DesignParameters) -> str:
    """Classify by how far b sits above the key-count bound: b/b_opt = lambda.

    'optimal' (meets the bound, lambda = 1), 'near_optimal' (2..10 times
    the bound), 'other'.  A pure function of lambda.
    """
    if params.lambda_ == 1:
        return "optimal"
    if 2 <= params.lambda_ <= 10:
        return "near_optimal"
    return "other"


def teirlinck_params(t: int, v: int, budget: int | None = None):
    """Parameter set t-(v, t+1, (t+1)!^(2t+1)) of the classical nontrivial
    t-design family that exists whenever v ≡ t (mod (t+1)!^(2t+1)).

    Returns (params, b), b = lambda*C(v,t)/C(k,t) = lambda_0 of the charged
    `lambda_table`, which is the closed form (t+1)!^(2t) * t! * C(v,t).
    """
    check_int("t", t, 1, DomainError)
    check_int("v", v, error=DomainError)
    # an admissible v exceeds the modulus, which is at least 2^(t(2t+1)):
    # a v of at most t(2t+1) bits is refused before the modulus is built
    if v.bit_length() <= t * (2 * t + 1) or (
            (v - t) % (modulus := math.factorial(t + 1) ** (2 * t + 1))):
        raise DomainError(f"v must satisfy v ≡ t (mod {t + 1}!^{2 * t + 1}) "
                          f"with v > t, got {show_int(v)}")
    params = DesignParameters(t=t, v=v, k=t + 1, lambda_=modulus)
    return params, lambda_table(params, budget)[0].numerator


def canonical_blocks(blocks) -> tuple:
    """The canonical form of a block list: each block sorted, then the list."""
    return tuple(sorted(map(tuple, map(sorted, blocks))))


@record
class BlockDesign:
    """A set of equal-size blocks over points 0..v-1, canonically ordered.

    Repeated blocks are not allowed.  Construction canonicalizes
    (`canonical_blocks`) and enforces the structural invariants, except in
    `difference_families.develop`, which proves them and builds with
    `record.unchecked`; whether the result is actually a t-design is a
    separate question answered by `verify_design`.
    """

    v: int
    blocks: tuple

    def __post_init__(self):
        check_int("v", self.v, 1)
        canon = canonical_blocks(check_rows(self.blocks, self.v, "block"))
        dupes = [canon[i] for i in range(1, len(canon)) if canon[i] == canon[i - 1]]
        if dupes:
            raise StructuralError("repeated blocks are not allowed",
                                  offenders=sorted(set(dupes))[:MAX_FAILURES])
        object.__setattr__(self, "blocks", canon)

    @property
    def k(self) -> int:
        return len(self.blocks[0])

    @property
    def b(self) -> int:
        return len(self.blocks)


@record
class VerificationReport:
    """Outcome of a combinatorial verification.

    valid ⇔ failures empty.  inferred_lambda is the common count when one
    exists (even if it contradicts a declared lambda — useful diagnostics),
    otherwise None.  failures holds at most MAX_FAILURES (witness, observed)
    pairs in deterministic order.
    """

    valid: bool
    inferred_lambda: int | None
    failures: tuple

    def to_json(self) -> dict:
        return {"valid": self.valid, "inferred_lambda": self.inferred_lambda,
                "failures": self.failures}

    def require(self, error, what: str):
        """Raise `error`, naming `what` and the first three failures, unless
        the report is valid."""
        if not self.valid:
            raise error(f"{what}: {show_int(self.failures[:3])}")


def tally_report(counts, domain, size: int, expected=None) -> VerificationReport:
    """The one verdict of every counting verifier: valid iff the mapping
    `counts` (read by `len`, `values` and `get`) gives each of the `size`
    keys of `domain`, which holds every tallied key, the count `expected`.

    An untallied key counts 0, so inferred_lambda, the common count, exists
    only when the tally covers all `size` keys.  `expected` defaults to it,
    else to the domain's first count.  A tally not uniform at `expected` is
    scanned, up to MAX_FAILURES (key, count) failures: at most `size` count
    reads and `size` keys scanned."""
    values = set(counts.values()) if len(counts) == size else ()
    common = next(iter(values)) if len(values) == 1 else None
    keys = iter(domain)
    if expected is None:
        # the first key, taken as the target, cannot fail: the scan skips it
        expected = common if common is not None else counts.get(next(keys), 0)
    failures = []
    if common != expected:
        for key in keys:
            got = counts.get(key, 0)
            if got != expected:
                failures.append((key, got))
                if len(failures) >= MAX_FAILURES:
                    break
    return VerificationReport(valid=not failures, inferred_lambda=common,
                              failures=tuple(failures))


def pair_charge(v: int, b: int, k: int) -> int:
    """U, the charge of `pair_lambda` on b rows of k points over v."""
    return 3 * b * k + min(v, b * k) + 4 * v + 6


def pair_lambda(v: int, rows, r: int | None = None) -> int:
    """λ ≥ 1 when every pair of the points 0..v-1 lies in exactly λ of the
    b `rows` of k distinct points, else 0; r, the most rows through one
    point, is counted unless given.

    Gates: r·v = b·k and a whole λ = b·C(k,2)/C(v,2) ≥ 1.  As r is the
    most, the first puts every point in r rows, and then the second gives
    r·(k-1) = λ·(v-1).  With w = λ.bit_length(), row R is e(R) = Σ_{y∈R}
    2^(w·y), from a table of 2^(w·y), and S_x = Σ_{R∋x} e(R) = r·2^(w·x) +
    Σ_{y≠x} c(x,y)·2^(w·y), c(x,y) the rows through x and y.  The pairs
    through x are uniform iff S_x = λ·ONES + (r-λ)·2^(w·x), ONES = Σ_y
    2^(w·y).  If so, the c(x,y) ≥ 0 represent n = λ·(ONES - 2^(w·x)) in
    base B = 2^w, and they sum to r·(k-1) = λ·(v-1), as each row holds k
    distinct points; n's digits, λ < B at each y ≠ x, sum to λ·(v-1) too.
    Coefficients ≥ 0 sum to the digit sum plus B-1 per carry, and carry
    iff one is ≥ B: so none is, and every c(x,y) is the digit λ.  The
    diagonal r may overflow its digit; it cancels as a whole integer.  So
    the width bits(λ) needs the gate r·v = b·k, which fixes the coefficient
    sum; a width above every c(x,y), such as bits(r), would not.  As
    λ·v·(v-1) = b·k·(k-1), the v sums of v·bits(λ) bits stay within a
    factor k of the b·k entries.

    The caller charges U = 3·b·k + min(v, b·k) + 4·v + 6 first, a step per
    entry counted, point compared, table entry and big-int operation: r,
    b·k + min(v, b·k); the table, v; 2·b·k adds; λ·ONES, 6, and the v sums
    compared, 3 each."""
    b, k = len(rows), len(rows[0])
    if r is None:
        r = max(Counter(chain.from_iterable(rows)).values())
    lam, rest = divmod(b * math.comb(k, 2), math.comb(v, 2))
    if r * v != b * k or rest or not lam:
        return 0
    w = lam.bit_length()
    table = [1 << w * y for y in range(v)]
    sums = [0] * v
    for row in rows:
        e = sum(map(table.__getitem__, row))
        for x in row:
            sums[x] += e
    base = lam * (((1 << w * v) - 1) // ((1 << w) - 1))
    return lam if all(s == base + ((r - lam) << w * x)
                      for x, s in enumerate(sums)) else 0


def verify_design(design: BlockDesign, t: int, lambda_: int | None = None,
                  budget: int | None = None) -> VerificationReport:
    """Count, for every t-subset of points, the blocks containing it.

    Valid iff all counts agree, at `lambda_` when declared: `tally_report`
    over the C(v,t) subsets in lexicographic order.

    Charge, one step per tally increment, count read and subset scanned:
    b·C(k,t) increments; the C(v,t) counts read for uniformity, only when
    every t-subset is hit; the scan, at most C(v,t) subsets, so at most T
    = 2·C(v,t) + b·C(k,t) in all.  At t = 2, if b·C(k,2)/C(v,2) is whole
    and U < T, `pair_lambda` runs first at U: its uniform λ, unless
    `lambda_` differs, is the tally's report; else the tally runs at U + T."""
    check_int("t", t, 1, DomainError)
    if t > design.k:
        raise DomainError(f"t={show_int(t)} exceeds block size k={design.k}")
    if lambda_ is not None:
        check_int("lambda", lambda_, 1, DomainError)
    n_subsets = math.comb(design.v, t)
    incidences = design.b * math.comb(design.k, t)
    work = 2 * n_subsets + incidences
    what = f"verifying strength t={t} over C({design.v},{t}) point subsets"
    if t == 2 and not incidences % n_subsets and (
            digits := pair_charge(design.v, design.b, design.k)) < work:
        charge(digits, budget, what=what)
        if (lam := pair_lambda(design.v, design.blocks)) and lambda_ in (None, lam):
            return VerificationReport(True, lam, ())
        work += digits
    charge(work, budget, what=what)

    counts = Counter(chain.from_iterable(
        map(combinations, design.blocks, repeat(t))))
    return tally_report(counts, combinations(range(design.v), t), n_subsets,
                        lambda_)


def derived_design(design: BlockDesign, x: int) -> BlockDesign:
    """Blocks through x with x removed, relabeled onto 0..v-2: for a
    t-(v,k,lambda) design with t >= 2, a (t-1)-(v-1, k-1, lambda) design."""
    check_int("x", x, error=DomainError)
    if not (0 <= x < design.v):
        raise DomainError(
            f"point x={show_int(x)} out of range [0, {show_int(design.v)})")
    if design.k < 2:
        raise DomainError("blocks of size 1 leave nothing after removing x")

    def relabel(y):
        return y - 1 if y > x else y

    blocks = [tuple(relabel(y) for y in B if y != x)
              for B in design.blocks if x in B]
    if not blocks:
        raise DomainError(f"no blocks contain x={show_int(x)}")
    return BlockDesign(v=design.v - 1, blocks=tuple(blocks))


def complete_design(v: int, k: int, budget: int | None = None) -> BlockDesign:
    """All C(v,k) k-subsets of 0..v-1: a k-(v,k,1) design, and a
    t-(v,k,C(v-t,k-t)) design for every t < k.  Test-instance generator."""
    check_int("v", v, 1, DomainError)
    check_int("k", k, 1, DomainError)
    if k > v:
        raise DomainError(f"need k <= v, got k={show_int(k)}, v={show_int(v)}")
    charge(math.comb(v, k), budget, what=f"enumerating C({v},{k}) blocks")
    return BlockDesign(v=v, blocks=tuple(combinations(range(v), k)))


# ---------------------------------------------------------------------------
# file format: {"v": int, "k": int, "t": int|null, "lambda": int|null,
#               "blocks": [[int,...],...]}

def design_to_json(design: BlockDesign, t: int | None = None,
                   lambda_: int | None = None) -> dict:
    return {
        "v": design.v,
        "k": design.k,
        "t": t,
        "lambda": lambda_,
        "blocks": [list(B) for B in design.blocks],
    }


def design_from_json(doc) -> tuple:
    """Parse and structurally validate a design document.

    Returns (design, t, lambda) with t/lambda None when absent or null.
    """
    v, k, blocks = fields(doc, "v", "k", "blocks")
    design = BlockDesign(v, blocks)
    require(design.k == check_int("k", k, 1),
            f"declared k={show_int(k)} but blocks have size {design.k}")
    t, lam = doc.get("t"), doc.get("lambda")
    for name, value in (("t", t), ("lambda", lam)):
        if value is not None:
            check_int(name, value, 1)
    return design, t, lam
