"""Two ways to reach the parameter-negated system: the transposed
inverse of the fundamental matrix, and the alternating sign twist."""
from kzresidue import (
    Partition,
    alternating_twist,
    check_kz,
    dual_matrix,
    fundamental_solution,
)
from kzresidue.cli import factored_text

# --- transposed inverse -------------------------------------------------
fm = fundamental_solution(Partition((2, 1)), 1)
dm = dual_matrix(fm)

print(f"fundamental matrix for {fm.lam} at m={fm.m}; its transposed")
print(f"inverse solves the same system at m={dm.m}.")
print()
print("dual rows (numerator / determinant):")
for i, row in enumerate(dm.entries):
    for j, num in enumerate(row):
        print(f"  [{i}][{j}] = ({factored_text(num)}) / ({factored_text(dm.det)})")
print()

# --- alternating twist --------------------------------------------------
# Multiplying each component by the sign of the permutation sending the
# reference tabloid to its own turns a solution at m into a solution of
# the sign-twisted system at -m.  The twisted system couples components
# through transpositions acting with an extra sign.
for parts in ((3,), (1, 1), (2, 1)):
    lam = Partition(parts)
    source = fundamental_solution(lam, 1)
    for table in source.tables:
        twisted = alternating_twist(table)
        rep = check_kz(twisted)
        status = "pass" if rep.passed else "FAIL"
        print(
            f"shape {lam} cycle {table.cycle}: twisted table at "
            f"m={twisted.m} -> {status}"
        )
