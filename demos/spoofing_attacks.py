"""Exact spoofing probabilities for four systems of increasing character.

For each system the opponent observes i valid messages and injects a fresh
one; P_di is their optimal success probability, floored by (k-i)/(v-i).
A system is t-fold secure when the floor is met for all i <= t.
"""

from fractions import Fraction

from authdesigns import (
    DifferenceFamily,
    SecrecySystem,
    analyze,
    balance,
    complete_design,
    develop_matrix,
)

systems = [
    ("CDF(13,3,1), b=26",
     SecrecySystem(develop_matrix(
         DifferenceFamily(13, 1, ((0, 1, 4), (0, 2, 7)))))),
    ("Fano plane, b=7",
     SecrecySystem(develop_matrix(DifferenceFamily(7, 1, ((1, 2, 4),))))),
    ("complete 3-(5,3,1), b=10",
     SecrecySystem(balance(complete_design(5, 3)))),
    ("biplane CDF(11,5,2), b=11",
     SecrecySystem(develop_matrix(DifferenceFamily(11, 2, ((1, 3, 4, 5, 9),))))),
]


def fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x)


for label, system in systems:
    orders = range(min(3, system.k))
    report = analyze(system, "classic", orders)
    print(label)
    for res in report.orders:
        mark = "tight" if res.tight else "above bound"
        print(f"  P_d{res.i} = {fmt(res.value):>5}   "
              f"floor {fmt(res.bound):>5}   {mark}")
    print(f"  => {report.security_order}-fold secure "
          f"(checked orders {list(orders)})")
    print()
