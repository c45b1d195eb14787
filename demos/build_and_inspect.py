"""Build the twofold (13,3) system from its difference family and inspect it.

Walks the full pipeline once: verify the family, develop it into a balanced
26x3 encoding matrix, print the matrix, confirm perfect secrecy, and show
how a single flipped cell is caught.
"""

from authdesigns import (
    DifferenceFamily,
    EncodingMatrix,
    develop_matrix,
    format_matrix_table,
    perfect_secrecy_check,
    verify_balanced,
    verify_df,
)

family = DifferenceFamily(v=13, lambda_=1, base_blocks=((0, 1, 4), (0, 2, 7)))

report = verify_df(family)
print(f"difference family over Z_13, base blocks {family.base_blocks}")
print(f"  valid: {report.valid}, inferred lambda: {report.inferred_lambda}")
print()

matrix = develop_matrix(family)
print(f"developed encoding matrix: b={matrix.b} keys, k={matrix.k} source "
      f"states, v={matrix.v} messages")
print(format_matrix_table(matrix))
print()

# every verifier answers with the same VerificationReport fields
balanced = verify_balanced(matrix)
secret, _ = perfect_secrecy_check(matrix)
print(f"every message appears {balanced.inferred_lambda}x in every column: "
      f"valid: {balanced.valid}, failures: {balanced.failures}")
print(f"perfect secrecy under equiprobable keys: {secret}")
print()

# flip one cell and watch both checks fail
rows = list(matrix.rows)
rows[0] = (5,) + rows[0][1:]          # e_1 was (0, 1, 4)
mutated = EncodingMatrix(13, 3, tuple(rows))
ok, witness = perfect_secrecy_check(mutated)
bal = verify_balanced(mutated)
print(f"after changing e_1 to {rows[0]}:")
print(f"  perfect secrecy: {ok}, witness (message, columns): {witness}")
print(f"  balance valid: {bal.valid}, inferred lambda: {bal.inferred_lambda}")
print(f"  first failures ((message, column), count): {bal.failures[:3]}")
