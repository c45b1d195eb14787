"""Cyclic difference families: verification, development into 2-designs, and
the direct encoding-matrix fast path.

A family of k-subsets of Z_v is a difference family of index lambda when the
signed differences x - y (x != y within a base block) cover every nonzero
residue exactly lambda times.  Developing the base blocks through all v
translates yields a 2-(v, k, lambda) design; developing them *coordinatewise*
yields an encoding matrix that is already balanced, because each column of
each orbit runs through a full residue cycle.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, permutations
from math import isqrt

from .budget import charge
from .designs import BlockDesign, canonical_blocks, tally_report
from .errors import ConstructionError, DomainError, StructuralError
from .fileio import MAX_FAILURES, check_int, check_rows, fields, show_int
from .record import record, unchecked


@record
class DifferenceFamily:
    """Base blocks over Z_v with a declared index lambda.

    Coordinate order of base blocks is preserved (not canonicalized): the
    matrix fast path develops rows coordinatewise, so the given order is
    meaningful.  Whether the differences actually cover each residue lambda
    times is `verify_df`'s job.
    """

    v: int
    lambda_: int
    base_blocks: tuple

    def __post_init__(self):
        check_int("v", self.v, 2)
        check_int("lambda", self.lambda_, 1)
        blocks = check_rows(self.base_blocks, self.v, "base block")
        if len(blocks[0]) < 2:
            raise StructuralError("base blocks need at least 2 residues",
                                  offenders=[(0, blocks[0])])
        object.__setattr__(self, "base_blocks", blocks)

    @property
    def k(self) -> int:
        return len(self.base_blocks[0])

    @property
    def l(self) -> int:
        """Number of base blocks."""
        return len(self.base_blocks)


def verify_df(df: DifferenceFamily,
              budget: int | None = None) -> VerificationReport:
    """Tally all n = l*k*(k-1) signed differences; valid iff `tally_report`
    finds every nonzero residue exactly lambda times.  Charge, one step per
    increment, count read and residue scanned: n, then at most min(v-1, n)
    reads, then a scan that passes only residues holding lambda >= 1 of the
    n and stops at MAX_FAILURES failures: min(v-1, n + MAX_FAILURES)."""
    n = df.l * df.k * (df.k - 1)
    charge(n + 2 * min(df.v - 1, n + MAX_FAILURES), budget,
           what=f"difference tally over {df.l} base blocks")
    counts = Counter((x - y) % df.v for block in df.base_blocks
                     for x, y in permutations(block, 2))
    return tally_report(counts, range(1, df.v), df.v - 1, df.lambda_)


def _zero_translates(block, v: int) -> list:
    """The sorted translates B - y over Z_v, y in B in block order: the k
    translates of B that hold 0.  B - y = B - y' iff y - y' stabilizes B,
    and the least of them is the least translate of all v, B's orbit canon."""
    return [tuple(sorted((x - y) % v for x in block)) for y in block]


def _reject_short_orbits(df: DifferenceFamily):
    """A base block whose translate by some g != 0 is itself has an orbit
    shorter than v; development would produce repeated blocks and b < l*v.
    Only g = y - d_0, y in D, can stabilize D, when D - y = D - d_0; the
    first such y names g.  Distinct base blocks sharing one orbit canon
    collapse the development too, and are refused after every short orbit."""
    canons = []
    for block in df.base_blocks:
        shifts = _zero_translates(block, df.v)
        if shifts[0] in shifts[1:]:
            g = (block[shifts.index(shifts[0], 1)] - block[0]) % df.v
            raise DomainError(
                f"base block {show_int(block)} has a short orbit (stabilized "
                f"by g={show_int(g)}); only full-orbit families are supported")
        canons.append(min(shifts))
    seen = {}
    for block, canon in zip(df.base_blocks, canons):
        if canon in seen:
            raise DomainError(f"base blocks {show_int(seen[canon])} and "
                              f"{show_int(block)} lie in the same translation orbit")
        seen[canon] = block


def _translates(df: DifferenceFamily) -> tuple:
    """Rows (d_1+g, ..., d_k+g) mod v, g = 0..v-1, base-block-major."""
    _reject_short_orbits(df)
    return tuple(chain.from_iterable(   # one residue cycle per column
        zip(*(chain(range(d, df.v), range(d)) for d in block))
        for block in df.base_blocks))


def develop(df: DifferenceFamily) -> BlockDesign:
    """All l*v translates D_i + g as a canonical BlockDesign (a 2-(v,k,lambda)
    design whenever verify_df passes), built unchecked: see `develop_matrix`."""
    return unchecked(BlockDesign, df.v, canonical_blocks(_translates(df)))


def develop_matrix(df: DifferenceFamily) -> EncodingMatrix:
    """The fast path: the translates in coordinate order, base-block-major.
    Each column of each orbit is a full residue cycle, so every message
    appears exactly l times per column — already balanced, no coloring
    needed.

    The matrix skips the checks of `EncodingMatrix(v, k, rows)`: the family
    has v >= 2 and base blocks of one size k >= 2 with distinct entries in
    [0, v), and a translate (d + g) mod v keeps all of this.
    `_reject_short_orbits` refuses every short orbit and every two base
    blocks of one orbit, so the l*v rows are pairwise distinct as sets."""
    from .balancing import EncodingMatrix
    return unchecked(EncodingMatrix, df.v, df.k, _translates(df))


# ---------------------------------------------------------------------------
# Netto triple systems: CDF(q, 3, 1) for primes q ≡ 1 (mod 6)

def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..37, deterministic below their
    least common strong pseudoprime 318665857834031151167461 (Jiang and
    Deng, 2014), which is past 2^78.  A larger n is refused with
    DomainError unless one of the bases divides it."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= (limit := 318665857834031151167461):
        raise DomainError(f"is_prime decides only n < {limit}, got {show_int(n)}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def smallest_primitive_root(q: int, budget: int | None = None) -> int:
    """Smallest generator of the multiplicative group mod prime q.  Charge,
    one step per trial division or modular power, L the bit length of q,
    before q-1 is factored: at most sqrt(q) candidate divisors and L-1
    exact divisions factor q-1; the search tries at most q-1 candidates
    against at most L-1 prime factors.  In all isqrt(q) + L + (q-1)·(L-1)."""
    if not is_prime(q):
        raise DomainError(f"{show_int(q)} is not prime")
    L = q.bit_length()
    charge(isqrt(q) + L + (q - 1) * (L - 1), budget,
           what=f"primitive root search mod {show_int(q)}")
    factors = _prime_factors(q - 1)
    for w in range(1, q):   # 1 generates only mod 2, where q-1 has no factor
        if all(pow(w, (q - 1) // p, q) != 1 for p in factors):
            return w
    raise ConstructionError(f"no primitive root found mod {q}")


def netto_triples(q: int, budget: int | None = None) -> DifferenceFamily:
    """CDF(q, 3, 1) for a prime q ≡ 1 (mod 6): with w the smallest primitive
    root and d = (q-1)/6, base blocks {w^i, w^(i+2d), w^(i+4d)} for
    i = 0..d-1, gated through verify_df before returning.  Charge, one step
    per trial division, modular power or squaring, entry checked and
    verify_df step, L the bit length of q: sqrt(q) + L divisions factor q-1;
    the root search re-tests primality (12·L) and tries at most q-1
    candidates against at most L-1 prime factors; the blocks take (q-1)/2
    powers and checks; verify_df charges 3(q-1), as n = 6d.  In all at most
    q·L + 3q + sqrt(q) + 12·L < (q + 13)·(L + 4).  The budget is passed on
    to the root search and to verify_df."""
    if not is_prime(check_int("q", q, error=DomainError)):
        raise DomainError(f"q must be prime, got {show_int(q)}")
    if q % 6 != 1:
        raise DomainError(f"q must satisfy q ≡ 1 (mod 6), got {show_int(q)}")
    charge((q + 13) * (q.bit_length() + 4), budget, what=f"netto_triples({q})")
    w = smallest_primitive_root(q, budget)
    d = (q - 1) // 6
    blocks = tuple(
        (pow(w, i, q), pow(w, i + 2 * d, q), pow(w, i + 4 * d, q))
        for i in range(d))
    family = DifferenceFamily(v=q, lambda_=1, base_blocks=blocks)
    verify_df(family, budget).require(
        ConstructionError, f"netto_triples({q}) failed its own difference tally")
    return family


# ---------------------------------------------------------------------------
# file format: {"v": int, "lambda": int, "base_blocks": [[int,...],...]}

def df_to_json(df: DifferenceFamily) -> dict:
    return {
        "v": df.v,
        "lambda": df.lambda_,
        "base_blocks": [list(B) for B in df.base_blocks],
    }


def df_from_json(doc) -> DifferenceFamily:
    return DifferenceFamily(*fields(doc, "v", "lambda", "base_blocks"))
