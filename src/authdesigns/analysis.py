"""Exact security analysis of encoding matrices.

Fixed probabilistic model throughout: the key is one of the b rows,
equiprobable; the source emits an i-subset of the k source states,
equiprobable over subsets, order ignored, no repetition.  Three analyses:

* perfect secrecy — a message's posterior equals its prior iff the message
  occurs with identical frequency in every column;
* classical spoofing — the opponent sees i valid messages and injects a new
  one; the optimal success probability is computed by enumerating observation
  events exactly.  For i < k an observation in a single key is best extended
  by another message of that key, so only the observations two keys share
  need their extensions counted;
* verification-oracle games — the opponent adaptively queries accept/reject
  (offline: all queries first, then one spoof; online: wins on first
  acceptance).  In both games only the all-reject path continues, so each
  value has a closed form: offline, max_m r_m / b at every order, r_m the
  keys holding message m, which is also order 0 of the other two models;
  online, the best coverage of keys by i+1 messages.

Spoofing at every order i ≥ 1, and the online game at order 1 and at
orders below k, first ask `SecrecySystem.pair_lambda` whether every pair
through the anchor (below; every pair when there is none) lies in the same
number λ of keys, as in a 2-design: anchored, one count of the messages of
the keys through 0 (`SecrecySystem.tails`), otherwise one big-integer sum
per message.  When it holds, every message lies in r = b·k/v keys,
order-1 spoofing is λ·v/(b·k), spoofing at i ≥ 2 is 1 when λ = 1, and the
online game is ((i+1)·r - i·λ)/b at order 1, and at orders 2..k-1 when
λ = 1.  Otherwise spoofing runs the shared-observation loop over the
tails, the online game at order 1 tallies from them the keys c(x,y)
holding each pair, and at higher orders it ORs per-message key masks.
Order 0 and the offline game are k/v when anchored, a count of the entries
otherwise.

Cyclic-orbit reduction: when x ↦ x+1 mod v maps every key set onto a key
set (`SecrecySystem.translation_invariant`, true of every development of a
cyclic difference family), spoofing and the online game at order i ≥ 1 run
only through message 0, the anchor.  Counting pairs (O, x ∈ O) twice gives
Σ_O f(O) = (v/i)·Σ_{O∋0} f(O) for any f on i-sets that translation leaves
unchanged, whatever the orbit lengths.  Other systems have no anchor and
run the same loops over all messages.  One bool, `SecrecySystem.developed`
(`EncodingMatrix.in_development_order`, also a proof of secrecy), picks
the route: a developed system is invariant and finds its keys through 0 by
position; any other sorts each key once (`SecrecySystem.sorted_keys`) for
the lookup of the sorted translates and for its tails.  Each stage is
charged before it runs (`_anchor`).

`analyze(system, model, orders)` is the one per-order loop over the three
attack models ("classic", "oracle-offline", "oracle-online"): at each order
it records the value, its floor and whether they are equal, and
`report_to_json` writes that report.

Everything returns `fractions.Fraction`; there is no floating point here.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import sub

from .budget import charge
from .errors import DomainError
from .fileio import check_int, fraction_to_json, show_int
from .record import record


@record
class SecrecySystem:
    """An encoding matrix under the fixed equiprobable model."""

    matrix: EncodingMatrix

    v = property(lambda self: self.matrix.v)
    k = property(lambda self: self.matrix.k)
    b = property(lambda self: self.matrix.b)

    @cached_property
    def developed(self) -> bool:
        """`EncodingMatrix.in_development_order`, asked once per system."""
        return self.matrix.in_development_order()

    @cached_property
    def sorted_keys(self) -> list:
        """Each row as a sorted tuple, in row order: its one sort (module docstring)."""
        return list(map(tuple, map(sorted, self.matrix.rows)))

    @cached_property
    def translation_invariant(self) -> bool:
        """True iff x ↦ x+1 mod v maps every key set onto a key set (and so
        permutes the keys, rows being distinct sets): always when
        `developed`.  Otherwise a key's stabilizer is a subgroup whose
        cosets partition the key, so its orbit has at least v/k keys: b·k <
        v refuses.  First test: the translate T of the first row, as a set,
        must be a row.  Every row holds k distinct messages and |T| = k, so
        T ⊇ row iff T = row: `T.issuperset` scans the unsorted rows up to
        the first match.

        Sorted stage: every key is one sorted tuple (`sorted_keys`),
        stepped entry by entry through the table, column by column.  For a
        sorted key K without v-1 the stepped tuple is sorted(K+1).  If K
        holds v-1, its last entry steps to 0, so the stepped tuple is
        sorted(K+1) with its leading 0 moved to the end: the rotated form
        t[1:] + (0,) of t = sorted(K+1).  So K+1 is a key iff its stepped
        tuple is in the set of the sorted keys and the rotated forms of
        those starting with 0.  For k ≥ 2 a rotated form ends with 0
        after a larger entry and is never sorted, so neither kind stands
        in for the other (for k = 1 the two coincide).  Time and memory
        grow as v + b·k."""
        if self.developed:
            return True
        if self.b * self.k < self.v:
            return False
        first = frozenset((m + 1) % self.v for m in self.matrix.rows[0])
        if not any(map(first.issuperset, self.matrix.rows)):
            return False
        keys, step = self.sorted_keys, [*range(1, self.v), 0].__getitem__
        known = set(keys)
        known.update(t[1:] + (0,) for t in keys if not t[0])
        return all(map(known.__contains__, zip(*map(map, repeat(step), zip(*keys)))))

    @cached_property
    def entry_counts(self) -> Counter:
        """r_m per message m: the keys whose row contains m (a message in no
        key is absent)."""
        return Counter(chain.from_iterable(self.matrix.rows))

    @cached_property
    def replication(self) -> int:
        """max_m r_m, the most keys that hold one message."""
        return max(self.entry_counts.values())

    @cached_property
    def pair_lambda(self) -> int:
        """λ ≥ 1 when every pair through the anchor (module docstring) lies
        in exactly λ keys, else 0.  Read only through `_pair_lambda`,
        which charges it with the translation check.

        Anchored, every pair has a translate {0, y}, and the keys holding
        {0, y} are the tails (`tails`) holding y: their `_tally` of
        1-subsets, uniform over all v-1 messages y ≠ 0, is λ.  Translation
        already puts every message in r = b·k/v keys.

        Unanchored, `designs.pair_lambda` of the rows and the replication."""
        if self.translation_invariant:
            counts = _tally(self.tails, 1)
            lams = set(counts.values())
            if len(counts) != self.v - 1 or len(lams) != 1:
                return 0
            return lams.pop()
        from .designs import pair_lambda
        return pair_lambda(self.v, self.matrix.rows, self.replication)

    @cached_property
    def tails(self) -> list:
        """Anchored (module docstring), the rows holding 0, in row order, each
        sorted with the 0 dropped; otherwise the sorted keys as lists.  When
        `developed`, row s+g of the run from row s holds 0 iff g = -x mod v for
        an x of row s: sorted offsets find those rows.  Else they are the
        `sorted_keys` (anchored, those starting with 0).  Read only after
        `_anchor`; anchored, `_pair_lambda` charges their making."""
        if self.developed:
            rows, v = self.matrix.rows, self.v
            return [sorted(rows[s + g])[1:] for s in range(0, self.b, v)
                    for g in sorted((-x) % v for x in rows[s])]
        if self.translation_invariant:
            return [list(key[1:]) for key in self.sorted_keys if not key[0]]
        return list(map(list, self.sorted_keys))

    @cached_property
    def message_masks(self) -> tuple:
        """Per message m, a b-bit mask of the keys whose row contains m."""
        masks = [0] * self.v
        for e, row in enumerate(self.matrix.rows):
            bit = 1 << e
            for m in row:
                masks[m] |= bit
        return tuple(masks)


def perfect_secrecy_check(matrix: EncodingMatrix):
    """Equiprobable-key secrecy criterion: every message occurs with the same
    frequency in every column.

    Returns (ok, witness); witness is the first (message, (column_a,
    column_b)) whose counts differ, None when ok.  A matrix
    `in_development_order` passes; only a miss builds the k column
    Counters (`EncodingMatrix.column_counts`), compared as dicts, in C,
    and only when they differ does a message-major scan find the witness.
    """
    if matrix.in_development_order():
        return True, None
    counts = matrix.column_counts()
    # dict.__eq__, not Counter's own ==, which loops in Python
    if all(map(dict.__eq__, counts, repeat(counts[0]))):
        return True, None
    for m in range(matrix.v):
        for col in range(1, matrix.k):
            if counts[col][m] != counts[0][m]:
                return False, (m, (0, col))


def deception_bound(v: int, k: int, i: int) -> Fraction:
    """Classical information-theoretic floor (k-i)/(v-i)."""
    return Fraction(k - i, v - i)


def check_order(system: SecrecySystem, model: str, i):
    """Refuse an order `model` is not defined at: spoofing ("classic")
    needs 0 <= i < k, the oracle games 0 <= i <= v-1."""
    if model == "classic":
        what, top, rule = "attack order", system.k - 1, f"0 <= i < k={system.k}"
    else:
        what, top = "oracle game order", system.v - 1
        rule = f"0 <= i <= v-1={top}"
    check_int(what, i, error=DomainError)
    if not 0 <= i <= top:
        raise DomainError(f"{what} must satisfy {rule}, got {show_int(i)}")


def _anchor(system: SecrecySystem, budget: int | None) -> tuple:
    """(anchor, work): anchor is (0,) if the loops at order i ≥ 1 may run
    only through message 0, else (); work is what the translation check is
    charged, each stage before it runs, one step per table or ring entry,
    per message stepped, tested, sliced, zipped, compared or put in a
    set or tuple (sorting included) and per row sliced or key tested,
    stored or looked up.

    E, before `SecrecySystem.developed` is asked: the proof
    (`EncodingMatrix.in_development_order`) builds the 2v-entry ring, and
    per run slices it at the k entries of its first row, zips the slices
    and slices and compares the v rows, 3·b·k + b; the first test sets the
    k stepped messages of the first row and tests at most b keys of k
    messages, 2k + b·(k+1).  E = 2v + 2k + b·(4k+2).

    S, on top whenever the system is not developed, though the b·k < v
    refusal and the first test may leave it unspent: v table entries; the
    sort puts b·k messages in tuples; the set stores b keys, tests b first
    entries and builds and stores at most b rotated forms of k messages,
    b·(k+3); stepping the keys steps b·k messages into b tuples and looks
    each up, b·(k+1).  S = v + b·(3k+4)."""
    b, k, v = system.b, system.k, system.v
    what = f"translation check over {b} keys"
    work = 2 * v + 2 * k + b * (4 * k + 2)
    charge(work, budget, what=what)
    if not system.developed:
        work += v + b * (3 * k + 4)
        charge(work, budget, what=what)
    return (0,) if system.translation_invariant else (), work


def _order_zero(system: SecrecySystem, budget: int | None,
                what: str) -> Fraction:
    """max_m r_m / b, r_m the keys holding message m: order 0 of all three
    models and the offline game at every order.  Charged the translation
    check (`_anchor`) first.  Anchored, translation puts every message in
    r = b·k/v keys and the value is k/v; otherwise, on top, one step per
    message counted and per distinct message compared: b·k + min(v, b·k)."""
    anchor, work = _anchor(system, budget)
    if anchor:
        return Fraction(system.k, system.v)
    bk = system.b * system.k
    charge(work + bk + min(system.v, bk), budget, what=what)
    return Fraction(system.replication, system.b)


def _tally(tails: list, j: int) -> Counter:
    """The Counter of the j-subsets of the tails, one increment each."""
    return Counter(chain.from_iterable(map(combinations, tails, repeat(j))))


def _pair_lambda(system: SecrecySystem, anchor: tuple, work: int,
                 budget: int | None, what: str) -> tuple:
    """(work, λ): `SecrecySystem.pair_lambda`, charged its cost U on top of
    the `work` already charged, before it runs; work is then that sum.
    Unanchored, U is `designs.pair_charge`.  Anchored, one step per
    message sorted, sliced, listed, counted or read and per offset or key
    tested: `SecrecySystem.tails` finds the n = b·k/v keys holding 0 by n
    offsets sorted per run when developed, 2n, sorts them and slices the 0
    off, n·(2k-1), else tests the b sorted keys, slicing and listing the
    n, b + 2n·(k-1); the tally and the set make and read n·(k-1) counts
    each; two length tests and the pop: U = n·(4k-1) + 3 when developed,
    else b + 4n·(k-1) + 3."""
    b, k, v = system.b, system.k, system.v
    if anchor:
        n = b * k // v
        work += (n * (4 * k - 1) if system.developed else b + 4 * n * (k - 1)) + 3
    else:
        from .designs import pair_charge
        work += pair_charge(v, b, k)
    charge(work, budget, what=what)
    return work, system.pair_lambda


def deception_probability(system: SecrecySystem, i: int,
                          budget: int | None = None) -> Fraction:
    """Exact optimal success probability of a spoofing attack of order i.

    The observation event is the message set O = e(S) for key e and state
    i-subset S; each key consistent with O contributes exactly one S, so
    P(O) = cnt_i(O)/(b·C(k,i)) with cnt_i(O) = #{e : O ⊆ M(e)}.  The
    opponent's payoff at O is max over fresh m' of cnt_{i+1}(O∪{m'})/cnt_i(O),
    hence the cnt_i factors cancel:

        P_di = Σ_O best(O) / (b·C(k,i)),  best(O) = max_{m'∉O} cnt_{i+1}(O ∪ {m'}).

    Shared observations: as i < k, an O in exactly one key e is best
    extended by any other message of e, so best(O) = 1 and

        Σ_O best(O) = #{O : cnt_i(O) = 1} + Σ_{O : cnt_i(O) ≥ 2} best(O).

    So only the i-sets are tallied, and the keys of the few shared O are
    gathered in a second pass; best(O) is then the largest multiplicity,
    in those keys, of a message outside O.  At i = 0 the one O is ∅ and
    best(∅) = max_m r_m, from `_order_zero`.

    Anchored (module docstring), best(O+1) = best(O): the same loop runs on
    the tails of the keys through 0 (0 removed, `SecrecySystem.tails`) with
    j = i-1, so it sees exactly the O ∋ 0, and P_di = v·Σ_{O∋0} best(O) /
    (i·b·C(k,i)).

    Every order i ≥ 1 first asks `SecrecySystem.pair_lambda`
    (`_pair_lambda`).  When every pair lies in λ ≥ 1 keys, best({x}) = λ
    for every x and P_d1 = λ·v/(b·k).  When λ = 1 and i ≥ 2, every O in a
    key holds a pair no other key holds, so none is shared, Σ_O best(O) =
    b·C(k,i) and P_di = 1.  Otherwise the loop runs.  Anchored at i = 1,
    j = 0: the one O is {0}, shared when two keys hold 0, and its best is
    the most keys through 0 that hold one other message.

    Charge, one step per key read (sorting included), tally increment,
    distinct observation scanned, membership test, key gathered, message
    counted, message deleted, count compared and value summed.  With a =
    |anchor|, j = i-a and n keys tallied (b, or b·k/v anchored: every
    message lies in equally many keys), the loop meets N = n·C(k-a, j)
    (key, observation) pairs: b reads, N increments and at most N distinct
    observations; if any is shared, at most b tails are read again for N
    membership tests and H ≤ N keys gathered, H = Σ_{shared} cnt.  A shared
    O counts cnt(O)·(k-a) messages, then deletes its j and compares what
    is left, at most cnt(O)·(k-a) together: 2·(k-a)·H in all.  The charge
    is the translation check (`_anchor`), the uniform check U of
    `_pair_lambda`, and, unless that check settles the order, on top
    2·b + N·(2·(k-a) + 4).
    """
    check_order(system, "classic", i)
    b, k, v = system.b, system.k, system.v
    if i == 0:
        return _order_zero(system, budget, f"order-0 spoofing tally over {b} keys")
    anchor, work = _anchor(system, budget)
    a, j = len(anchor), i - len(anchor)
    n = b * k // v if anchor else b
    what = f"order-{i} spoofing tally over {n} keys"
    work, lam = _pair_lambda(system, anchor, work, budget, what)
    if lam and i == 1:
        return Fraction(lam * v, b * k)
    if lam == 1:
        return Fraction(1)
    charge(work + 2 * b + n * math.comb(k - a, j) * (2 * (k - a) + 4),
           budget, what=what)
    counts = _tally(system.tails, j)
    shared = {obs for obs, c in counts.items() if c > 1}
    total = len(counts) - len(shared)
    if shared:
        keys = defaultdict(list)
        for tail in system.tails:
            for obs in filter(shared.__contains__, combinations(tail, j)):
                keys[obs].append(tail)
        for obs, group in keys.items():
            extensions = Counter(chain.from_iterable(group))
            for m in obs:
                del extensions[m]
            total += max(extensions.values())
    return (Fraction(v, i) if anchor else 1) * Fraction(total, b * math.comb(k, i))


# ---------------------------------------------------------------------------
# verification-oracle games

def voracle_offline_value(system: SecrecySystem, i: int,
                          budget: int | None = None) -> Fraction:
    """Exact value of the offline oracle game: up to i adaptive accept/reject
    probes, then a single spoof.

    An accepted probe is already a deception of the online kind and ends
    the experiment, so the opponent wins only if every probe is rejected
    and the final spoof m accepted.  Those keys all hold m, and withholding
    all probes wins on every key that holds m: at every order the value is
    max_m r_m / b, the order-0 value of the other two models (`_order_zero`).
    """
    check_order(system, "oracle-offline", i)
    return _order_zero(system, budget, f"offline oracle game of order {i}")


def voracle_online_value(system: SecrecySystem, i: int,
                         budget: int | None = None) -> Fraction:
    """Exact value of the online oracle game: i+1 submissions, the opponent
    wins on the first acceptance.

    Play goes on only after a rejection, so a strategy is the fixed
    sequence it submits along the all-reject path.  It wins on the keys
    whose row holds one of those messages, and a repeat adds no key:

        value = max over (i+1)-sets S of |⋃_{m∈S} mask_m| / b.

    At i = 0 that is max_m r_m / b (`_order_zero`).  Anchored, S+1 covers
    as many keys as S and every S has a translate through 0, so only the
    S ∋ 0 run.  Below, a = |anchor|.

    At i = 1, and at 2 ≤ i ≤ k-1, `SecrecySystem.pair_lambda` is asked
    first.  When every pair lies in λ ≥ 1 keys, every message lies in r =
    b·k/v; with n_j the keys meeting S in j messages, Σ_j j·n_j = (i+1)·r
    and Σ_j C(j,2)·n_j = C(i+1,2)·λ, so S covers (i+1)·r - Σ_{j≥2}
    (j-1)·n_j keys: 2r - λ at i = 1.  When λ = 1, j-1 = (2/j)·C(j,2) ≥
    (2/(i+1))·C(j,2), so the sum is at least i, equal when S lies in one
    key, as i+1 ≤ k allows.  Both are ((i+1)·r - i·λ)/b.  Otherwise:

    At i = 1 no mask is built: |mask_x ∪ mask_y| = r_x + r_y - c(x,y), c
    the keys holding both, maximized over the T = C(v-a, 2-a) pairs {x, y}
    through the anchor, c(x,y) read from the tally of the (2-a)-subsets of
    `SecrecySystem.tails`, so {0, y} is keyed (y,) and, with no anchor,
    {x, y} is keyed (x, y), x < y.  When every message lies in r keys, as
    every anchored system does, the value is (2r - min c)/b, the min over
    the T pairs of the tally, and 0 when the tally holds fewer than T of
    them (some pair shares no key).  Otherwise every one of the C(v,2)
    pairs is scanned, at C speed.

    At i ≥ 2 each set is its i smallest messages (the prefix) plus a
    larger one; the union of a prefix is formed once and shared by all its
    extensions.  Anchored, only prefixes starting with 0 run: C(v-1, i)
    sets.

    Charge, on top of the translation check (`_anchor`), before each part
    runs.  At i = 1 and at i < k the uniform check U, as `_pair_lambda`
    charges it; at i = 1 when λ = 0, on top, b reads and P = n·C(k-a, 2-a)
    increments for the tally (n = b, or b·k/v anchored) and at most
    min(P, T) counts compared for the min, b + P + min(P, T), or, when r
    varies, v counts read into a list, b + P for the tally and per pair an
    add, a count looked up, a subtraction and a comparison, v + b + P +
    4·C(v,2).  At i ≥ 2 off the closed form, one step per OR or popcount:
    b·k for the masks; i ORs for each of the C(v-1-a, i-a) prefixes with
    an extension (largest message at most v-2); an OR and a popcount for
    each of the C(v-a, i+1-a) sets.  In all b·k + i·C(v-1-a, i-a) +
    2·C(v-a, i+1-a) on top.
    """
    check_order(system, "oracle-online", i)
    if i == 0:
        return _order_zero(system, budget, "online oracle game of order 0")
    b, k, v = system.b, system.k, system.v
    anchor, work = _anchor(system, budget)
    a, what = len(anchor), f"online oracle game of order {i}"
    if i == 1 or i < k:
        work, lam = _pair_lambda(system, anchor, work, budget, what)
        if lam == 1 or lam and i == 1:
            return Fraction((i + 1) * (b * k // v) - i * lam, b)
    if i == 1:
        incidences = (b * k // v if anchor else b) * math.comb(k - a, 2 - a)
        through = math.comb(v - a, 2 - a)
        uniform_r = anchor or system.replication * v == b * k
        charge(work + b + incidences + (min(incidences, through) if uniform_r
                                        else v + 4 * through),
               budget, what=what)
        counts = _tally(system.tails, 2 - a)
        if uniform_r:
            least = min(counts.values()) if len(counts) == through else 0
            return Fraction(2 * (b * k // v) - least, b)
        r = list(map(system.entry_counts.__getitem__, range(v)))
        return Fraction(max(map(sub, map(sum, combinations(r, 2)), map(
            counts.get, combinations(range(v), 2), repeat(0)))), b)
    charge(work + b * k + i * math.comb(v - 1 - a, i - a)
           + 2 * math.comb(v - a, i + 1 - a), budget, what=what)
    masks = system.message_masks
    best = 0
    for rest in combinations(range(a, v - 1), i - a):
        prefix = anchor + rest
        union = 0
        for m in prefix:
            union |= masks[m]
        for mask in masks[prefix[-1] + 1:]:
            covered = (union | mask).bit_count()
            if covered > best:
                best = covered
    return Fraction(best, b)


def offline_bound(v: int, k: int) -> Fraction:
    return Fraction(k, v)


def online_bound(v: int, k: int, i: int) -> Fraction:
    return 1 - Fraction(math.comb(v - k, i + 1), math.comb(v, i + 1))


# ---------------------------------------------------------------------------
# reports

@record
class OrderResult:
    i: int
    value: Fraction
    bound: Fraction
    tight: bool


@record
class AttackReport:
    """Per-order values of one attack model plus the security order: the
    largest t with orders 0..t all present and tight, -1 if none."""

    model: str
    orders: tuple
    security_order: int


def analyze(system: SecrecySystem, model: str, orders,
            budget: int | None = None) -> AttackReport:
    """Value, floor and tightness at each distinct order under `model`:
    "classic" spoofing, or the "oracle-offline" / "oracle-online" game."""
    v, k = system.v, system.k
    if model == "classic":
        value_of, bound_of = deception_probability, lambda i: deception_bound(v, k, i)
    elif model == "oracle-offline":
        value_of, bound_of = voracle_offline_value, lambda i: offline_bound(v, k)
    elif model == "oracle-online":
        value_of, bound_of = voracle_online_value, lambda i: online_bound(v, k, i)
    else:
        raise DomainError(f"unknown attack model {model!r}: expected "
                          "classic, oracle-offline or oracle-online")
    results = []
    for i in sorted(set(orders)):
        value, bound = value_of(system, i, budget), bound_of(i)
        results.append(OrderResult(i, value, bound, value == bound))
    # ascending, so orders 0..t are a prefix: t + 1 is the first n that is not
    order = next((n for n, res in enumerate(results)
                  if res.i != n or not res.tight), len(results)) - 1
    return AttackReport(model, tuple(results), order)


def report_to_json(report: AttackReport, digest: str | None = None) -> dict:
    doc = {"model": report.model, "orders": [
        {"i": res.i, "value": fraction_to_json(res.value),
         "bound": fraction_to_json(res.bound), "tight": res.tight}
        for res in report.orders]}
    if report.model == "classic":
        doc["security_order"] = report.security_order
    if digest is not None:
        doc["input_digest"] = digest
    return doc
