"""Walk through the three-point computation end to end.

Builds the rational interaction form for the hook shape (2,1), shows the
contour schedule, extracts one cycle integral by hand with the iterated
residue operator, and finally assembles the full fundamental matrix.
"""
from kzresidue import (
    Numbering,
    Partition,
    atom_str,
    determinant,
    fundamental_solution,
    interaction_form,
    iterated_residue,
    normalize_factored,
    residue_plan,
    symmetrized_tableau_form,
)
from kzresidue.cli import factored_text

lam = Partition((2, 1))
m = 1

print(f"shape {lam}, parameter m={m}")
print()

# Step 1: the global interaction form, before any tableau is chosen.
form = interaction_form(lam, m)
print("interaction form (z-pair and t-z factors with their exponents):")
print(" ", form)
print()

# Step 2: pick the cycle labeled by the standard numbering [[1,2],[3]]
# and symmetrize its anchor-chain form over the level groups.
t = Numbering(((1, 2), (3,)))
sym = symmetrized_tableau_form(t)
integrand = form * sym
print(f"numbering {t.rows} -> integrand with {len(integrand)} terms")

# Step 3: the residue schedule — innermost level first, each contour
# variable pinned to the z-center of its box.
plan = residue_plan(t)
print("residue schedule (variable, center), innermost first:")
for var, center in plan:
    print(f"  {atom_str(var)} -> {atom_str(center)}")
print()

# Step 4: take the iterated residue of the integrand and normalize it to
# an expanded polynomial.  The integrand pairs the cycle t with the form
# {t}, so this is exactly cycle_integral(1, t, t): the component of cycle t
# at the form {t}, which reappears in the table printed last.
bare = iterated_residue(integrand, plan)
print("iterated residue, the component of cycle {1,2}|{3} at the form {1,2}|{3}:")
print(" ", normalize_factored(bare, 3))
print()

# Step 5: the full fundamental matrix, rows = cycles, columns = the
# coordinates against standard polytabloids.
fm = fundamental_solution(lam, m)
print("fundamental matrix:")
for i, cyc in enumerate(fm.cycles):
    row = [factored_text(fm.matrix.entry(i, j)) for j in range(fm.dimension)]
    print(f"  row {cyc.rows}: [{', '.join(row)}]")
print()
print("determinant:", factored_text(determinant(fm.matrix)))
print()

# The matrix rows read off the standard-polytabloid coordinates; the
# full component table of the first cycle also covers the dependent
# tabloid:
print(f"all components of cycle {fm.tables[0].cycle}:")
for u, poly in sorted(fm.tables[0].components.items(), key=lambda kv: str(kv[0])):
    print(f"  component at {u}: {factored_text(poly)}")
