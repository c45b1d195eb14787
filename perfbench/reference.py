"""Reference computations the benchmark checks the program against.

Everything here is standard library only and imports nothing from
``authdesigns``: each value is worked out from the definitions (or from a
closed form proved for the instance class), never from the program's own
code or from a stored copy of its output.  The sizes the benchmark feeds
these functions are small; the naive routines are quadratic or worse on
purpose.
"""

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations


def canonical_digest(doc):
    """SHA-256 of the canonical JSON form: sorted keys, no spaces, ASCII."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# structures

def is_difference_family(v, lam, base_blocks):
    """Every nonzero residue of Z_v is a difference x - y inside some base
    block exactly ``lam`` times."""
    counts = [0] * v
    for block in base_blocks:
        for x in block:
            for y in block:
                if x != y:
                    counts[(x - y) % v] += 1
    return all(c == lam for c in counts[1:])


def developed_rows(v, base_blocks):
    """Rows (d_1 + g, ..., d_k + g) mod v, base-block-major, g = 0..v-1."""
    return [tuple((x + g) % v for x in block)
            for block in base_blocks for g in range(v)]


def affine_image(v, base_blocks, unit, shift):
    """Base blocks under x -> unit*x + shift mod v.  A unit multiplier permutes
    the nonzero differences, so the image is a difference family of the same
    index whenever the original is."""
    if math.gcd(unit, v) != 1:
        raise ValueError(f"{unit} is not a unit mod {v}")
    return tuple(tuple((unit * x + shift) % v for x in block)
                 for block in base_blocks)


def is_t_design(v, blocks, t, lam):
    """Every t-subset of the v points lies in exactly ``lam`` blocks."""
    counts = {}
    for block in blocks:
        for sub in combinations(sorted(block), t):
            counts[sub] = counts.get(sub, 0) + 1
    return (len(counts) == math.comb(v, t)
            and all(c == lam for c in counts.values()))


def translation_invariant(v, blocks):
    """True iff x -> x + 1 mod v maps the block set onto itself."""
    block_set = {frozenset(block) for block in blocks}
    return all(frozenset((x + 1) % v for x in block) in block_set
               for block in block_set)


def relabel(blocks, permutation):
    """Blocks with every point x replaced by permutation[x]."""
    return tuple(tuple(permutation[x] for x in block) for block in blocks)


def same_block_set(rows, blocks):
    """The rows, read as sets, are exactly the blocks, each once."""
    row_sets = [frozenset(row) for row in rows]
    return (len(row_sets) == len(blocks)
            and set(row_sets) == {frozenset(block) for block in blocks})


def message_column_counts(v, rows):
    """counts[m][c]: the number of rows holding message m in column c,
    counted one message-column pair at a time."""
    k = len(rows[0])
    counts = [[0] * k for _ in range(v)]
    for row in rows:
        for column, message in enumerate(row):
            counts[message][column] += 1
    return counts


def every_count_is(v, rows, expected):
    return all(c == expected
               for per_message in message_column_counts(v, rows)
               for c in per_message)


def apa_valid(t, k, v, lam, rows):
    """Clauses (i)-(iii) of an authentication perpendicular array, read from
    the definition: (i) each row holds k distinct symbols; (ii) every t
    columns show every t-set of symbols in exactly lam rows; (iii) for
    s < t, among the rows holding s+1 given symbols, any s of them fill each
    s-set of columns equally often."""
    if len(rows) != lam * math.comb(v, t):
        return False
    if any(len(set(row)) != k for row in rows):
        return False
    for columns in combinations(range(k), t):
        seen = {}
        for row in rows:
            key = frozenset(row[c] for c in columns)
            seen[key] = seen.get(key, 0) + 1
        if any(seen.get(frozenset(symbols), 0) != lam
               for symbols in combinations(range(v), t)):
            return False
    for s in range(1, t):
        for symbols in combinations(range(v), s + 1):
            holding = [row for row in rows if set(symbols) <= set(row)]
            for chosen in combinations(symbols, s):
                places = {}
                for row in holding:
                    key = frozenset(c for c in range(k) if row[c] in chosen)
                    places[key] = places.get(key, 0) + 1
                if len({places.get(frozenset(cs), 0)
                        for cs in combinations(range(k), s)}) != 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# attack values

def deception_bound(v, k, i):
    return Fraction(k - i, v - i)


def naive_deception(v, rows, i):
    """Optimal order-i spoofing success by brute force over every (key,
    i-set of source states) pair: the opponent sees the messages O, keeps the
    keys whose rows contain O (each equally likely, since a row fixes the
    states behind O), and plays the fresh message valid under most of them."""
    k = len(rows[0])
    key_sets = [frozenset(row) for row in rows]
    total = Fraction(0)
    for row in rows:
        for states in combinations(range(k), i):
            observed = frozenset(row[s] for s in states)
            consistent = [keys for keys in key_sets if observed <= keys]
            best = max(sum(1 for keys in consistent if m in keys)
                       for m in range(v) if m not in observed)
            total += Fraction(best, len(consistent))
    return total / (len(rows) * math.comb(k, i))


def steiner_deception(v, k, i):
    """Order-i spoofing value of a balanced system whose rows form a
    2-(v,k,1) design: k/v, then (k-1)/(v-1), then 1, since two valid
    messages lie in one block only and so fix the key."""
    if i == 0:
        return Fraction(k, v)
    if i == 1:
        return Fraction(k - 1, v - 1)
    return Fraction(1)


def offline_value(v, k):
    """Offline oracle value of a balanced system: a rejected probe only
    burns probability, so the best play is one spoof on a message valid
    under b*k/v of the b keys."""
    return Fraction(k, v)


def online_bound(v, k, i):
    return 1 - Fraction(math.comb(v - k, i + 1), math.comb(v, i + 1))


def online_cover(v, rows, i):
    """Online oracle value as a coverage: the opponent's i+1 submissions win
    iff one is valid, so the value is the largest share of keys whose rows
    meet some (i+1)-set of messages."""
    best = 0
    for messages in combinations(range(v), i + 1):
        wanted = set(messages)
        best = max(best, sum(1 for row in rows if wanted.intersection(row)))
    return Fraction(best, len(rows))


def steiner_online(v, k, b, i):
    """Online oracle value on a 2-(v,k,1) design for i <= 2 (and i < k):
    i+1 messages of one block cover (i+1)r - i keys by inclusion-exclusion,
    every pair sharing exactly one block, with r = bk/v."""
    if not 0 <= i <= min(2, k - 1):
        raise ValueError(f"closed form holds for 0 <= i <= min(2, k-1), got {i}")
    r = b * k // v
    return Fraction((i + 1) * r - i, b)


def security_order(tight_by_order):
    """Largest t with orders 0..t all tight, -1 when order 0 is not."""
    order = -1
    while tight_by_order.get(order + 1):
        order += 1
    return order
