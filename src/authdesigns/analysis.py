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

Cyclic-orbit reduction: a system laid out as the development of a cyclic
difference family (`SecrecySystem.developed`, that is
`EncodingMatrix.in_development_order`, also a proof of secrecy) is mapped
onto itself by x ↦ x+1 mod v, each key onto the next of its run, so
spoofing and the online game at order i ≥ 1 run only through message 0,
the anchor.  Counting pairs (O, x ∈ O) twice gives Σ_O f(O) = (v/i)·Σ_{O∋0}
f(O) for any f on i-sets that translation leaves unchanged.  A developed
system finds its keys through 0 by position.  Every other system, invariant
or not, has no anchor: it sorts each key once for its tails and runs the
same loops over all messages.  Each call charges one setup bound before
`developed` is asked (`_anchor`), which covers every stage before a loop
on both routes, and a loop's own term on top before the loop runs.

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
        """`EncodingMatrix.in_development_order`, asked once per system: the
        one proof of the x ↦ x+1 symmetry that anchors (module docstring)."""
        return self.matrix.in_development_order()

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
        in exactly λ keys, else 0.  Read only after `_anchor`, whose
        setup charge covers it.

        Anchored (`developed`), every pair has a translate {0, y}, and the
        keys holding {0, y} are the tails (`tails`) holding y: their
        `_tally` of 1-subsets, uniform over all v-1 messages y ≠ 0, is λ.
        Translation already puts every message in r = b·k/v keys.

        Otherwise `designs.pair_lambda` of the rows and the replication."""
        if self.developed:
            counts = _tally(self.tails, 1)
            lams = set(counts.values())
            if len(counts) != self.v - 1 or len(lams) != 1:
                return 0
            return lams.pop()
        from .designs import pair_lambda
        return pair_lambda(self.v, self.matrix.rows, self.replication)

    @cached_property
    def tails(self) -> list:
        """Anchored (`developed`, module docstring), the rows holding 0, each
        sorted with the 0 dropped: row s+g of the run from row s holds 0 iff
        g = -x mod v for an x of row s, so sorted offsets find those rows.
        Otherwise every row sorted, in row order, one sort per key.  Read
        only after `_anchor`, whose setup charge covers their making."""
        if self.developed:
            rows, v = self.matrix.rows, self.v
            return [sorted(rows[s + g])[1:] for s in range(0, self.b, v)
                    for g in sorted((-x) % v for x in rows[s])]
        return list(map(sorted, self.matrix.rows))

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
    and only when they differ does a message-major scan find the witness
    among the messages that occur, so v never bounds the work.
    """
    if matrix.in_development_order():
        return True, None
    counts = matrix.column_counts()
    # dict.__eq__, not Counter's own ==, which loops in Python
    if all(map(dict.__eq__, counts, repeat(counts[0]))):
        return True, None
    for m in sorted(set().union(*counts)):
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


def _setup(system: SecrecySystem) -> int:
    """The setup charge 8·v + 24·b·k, a bound on every stage before a loop."""
    return 8 * system.v + 24 * system.b * system.k


def _anchor(system: SecrecySystem, budget: int | None) -> tuple:
    """(0,) if the loops at order i ≥ 1 run only through message 0, that is
    if `SecrecySystem.developed`, else (); charged `_setup` before it is
    asked."""
    charge(_setup(system), budget, what=f"analysis setup over {system.b} keys")
    return (0,) if system.developed else ()


def _order_zero(system: SecrecySystem, budget: int | None) -> Fraction:
    """max_m r_m / b, r_m the keys holding message m: order 0 of all three
    models and the offline game at every order, charged the setup alone
    (`_anchor`).  Anchored, translation puts every message in r = b·k/v
    keys and the value is k/v."""
    if _anchor(system, budget):
        return Fraction(system.k, system.v)
    return Fraction(system.replication, system.b)


def _tally(tails: list, j: int) -> Counter:
    """The Counter of the j-subsets of the tails, one increment each."""
    return Counter(chain.from_iterable(map(combinations, tails, repeat(j))))


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

    Every order i ≥ 1 first asks `SecrecySystem.pair_lambda`.  When every
    pair lies in λ ≥ 1 keys, best({x}) = λ for every x and P_d1 =
    λ·v/(b·k).  When λ = 1 and i ≥ 2, every O in a key holds a pair no
    other key holds, so none is shared, Σ_O best(O) = b·C(k,i) and P_di =
    1.  Otherwise the loop runs.  Anchored at i = 1, j = 0: the one O is
    {0}, shared when two keys hold 0, and its best is the most keys
    through 0 that hold one other message.

    Charge: the setup (`_anchor`), and 2·b + n·C(k-a, j)·(2·(k-a) + 4) on
    top before the loop, a = |anchor|, n = b (b·k/v anchored) keys tallied.
    """
    check_order(system, "classic", i)
    if i == 0:
        return _order_zero(system, budget)
    b, k, v = system.b, system.k, system.v
    anchor = _anchor(system, budget)
    a, j = len(anchor), i - len(anchor)
    n = b * k // v if anchor else b
    lam = system.pair_lambda
    if lam and i == 1:
        return Fraction(lam * v, b * k)
    if lam == 1:
        return Fraction(1)
    charge(_setup(system) + 2 * b + n * math.comb(k - a, j) * (2 * (k - a) + 4),
           budget, what=f"order-{i} spoofing tally over {n} keys")
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
    return _order_zero(system, budget)


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

    Charge: the setup (`_anchor`), and on top before a loop, with P =
    n·C(k-a, 2-a), n = b (b·k/v anchored): at i = 1, b + P + min(P, T)
    when every message lies in r keys, else b + P + v + 4·T; at i ≥ 2,
    b·k + i·C(v-1-a, i-a) + 2·C(v-a, i+1-a).
    """
    check_order(system, "oracle-online", i)
    if i == 0:
        return _order_zero(system, budget)
    b, k, v = system.b, system.k, system.v
    anchor = _anchor(system, budget)
    a, what = len(anchor), f"online oracle game of order {i}"
    if i == 1 or i < k:
        lam = system.pair_lambda
        if lam == 1 or lam and i == 1:
            return Fraction((i + 1) * (b * k // v) - i * lam, b)
    if i == 1:
        incidences = (b * k // v if anchor else b) * math.comb(k - a, 2 - a)
        through = math.comb(v - a, 2 - a)
        uniform_r = anchor or system.replication * v == b * k
        charge(_setup(system) + b + incidences + (min(incidences, through)
               if uniform_r else v + 4 * through), budget, what=what)
        counts = _tally(system.tails, 2 - a)
        if uniform_r:
            least = min(counts.values()) if len(counts) == through else 0
            return Fraction(2 * (b * k // v) - least, b)
        r = list(map(system.entry_counts.__getitem__, range(v)))
        return Fraction(max(map(sub, map(sum, combinations(r, 2)), map(
            counts.get, combinations(range(v), 2), repeat(0)))), b)
    charge(_setup(system) + b * k + i * math.comb(v - 1 - a, i - a)
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
