"""Verification-oracle games, solved exactly in closed form.

Offline: the opponent may probe the verifier up to i times, but an accepted
probe ends the experiment early; only an all-rejected run reaches the final
spoof.  Probing therefore only burns probability, and the value stays at
max_m |keys accepting m| / b no matter how many probes are allowed.

Online: i+1 submissions, first acceptance wins; each rejection eliminates
keys, so the value is the most keys any i+1 messages cover, over b, and
climbs toward 1 as submissions are added.
"""

from fractions import Fraction

from authdesigns import (
    DifferenceFamily,
    EncodingMatrix,
    SecrecySystem,
    analyze,
    develop_matrix,
    offline_bound,
    online_bound,
    voracle_offline_value,
    voracle_online_value,
)


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x)


fano = SecrecySystem(develop_matrix(DifferenceFamily(7, 1, ((1, 2, 4),))))

print("Fano system (v=7, k=3, b=7)")
print(f"  offline floor k/v = {fmt(offline_bound(7, 3))}")
for i in range(4):
    print(f"  offline value, {i} probes allowed: "
          f"{fmt(voracle_offline_value(fano, i))}")
print()
for i in range(5):
    value = voracle_online_value(fano, i)
    bound = online_bound(7, 3, i)
    print(f"  online value, {i + 1} submissions: {fmt(value):>5}   "
          f"floor {fmt(bound):>5}   {'tight' if value == bound else 'loose'}")
print()

# the two tightness notions can disagree: the developed 6-cycle is
# balanced, so offline-tight, but its rows are no 2-design, and the online
# game beats its floor at i = 1
cycle = SecrecySystem(develop_matrix(DifferenceFamily(6, 1, ((0, 1),))))
print("6-cycle rows {g, g+1} mod 6, i = 1:")
for game in ("offline", "online"):
    res = analyze(cycle, f"oracle-{game}", [1]).orders[0]
    print(f"  {game + ':':<8} {fmt(res.value)} vs floor {fmt(res.bound)}"
          f"   {'tight' if res.tight else 'loose'}")
print()

# a corrupted matrix: both notions go loose together
rows = list(fano.matrix.rows)
rows[3] = (rows[3][0], rows[3][1], (rows[3][2] + 1) % 7)
corrupt = SecrecySystem(EncodingMatrix(7, 3, tuple(rows)))
off = voracle_offline_value(corrupt, 1)
on = voracle_online_value(corrupt, 1)
print("after corrupting one cell of the Fano matrix:")
print(f"  offline: {fmt(off)} vs floor {fmt(offline_bound(7, 3))}")
print(f"  online:  {fmt(on)} vs floor {fmt(online_bound(7, 3, 1))}")
