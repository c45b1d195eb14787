"""Parameter arithmetic at publication scale, in exact integers.

The bundled parameter rows describe t-designs far beyond desk-scale
construction; their key counts, optimality ratios, and divisibility gates
are still one-line exact computations.
"""

import math

from authdesigns import (
    DesignParameters,
    lambda_table,
    massey_schobi_bound,
    optimality_class,
    teirlinck_params,
)
from authdesigns.catalog import entries

rows = [e for e in entries() if e.kind == "params-only"]
print(f"{'name':<20} {'params':>18} {'b':>12} {'b_opt':>11} {'class':>13} v|b")
for entry in rows:
    p = entry.params
    label = f"{p.t}-({p.v},{p.k},{p.lambda_})"
    b = lambda_table(p)[0].numerator
    print(f"{entry.name:<20} {label:>18} {b:>12} {entry.b_opt:>11} "
          f"{optimality_class(p):>13} {'no' if b % p.v else 'yes'}")
print()

print("t-(v, t+1, (t+1)!^(2t+1)) family at the smallest admissible order:")
for t in range(1, 8):
    modulus = math.factorial(t + 1) ** (2 * t + 1)
    params, b = teirlinck_params(t, t + modulus)
    print(f"  t={t}: v={params.v}, lambda={params.lambda_}, "
          f"b has {len(str(b))} digits")
print()

print("an inadmissible tuple and its fractional block counts:")
table = lambda_table(DesignParameters(2, 8, 3, 1))
for s, value in enumerate(table):
    print(f"  lambda_{s} = {value}")
print(f"  admissible: {all(value.denominator == 1 for value in table)}")
print()

q = DesignParameters(6, 19, 7, 4)
b = lambda_table(q)[0].numerator
print(f"6-(19,7,4): b = {b}, key bound = {massey_schobi_bound(19, 7, 6)}, "
      f"ratio = {b // 3876}, class = {optimality_class(q)}")
