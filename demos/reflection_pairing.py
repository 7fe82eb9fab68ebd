"""Reflection representation: the residue family, its dual path family,
and the diagonal pairing between them.

Usage: python demos/reflection_pairing.py [n] [m]
"""
import sys

from kzresidue import SparsePolynomial, reflection_dual_solutions, reflection_solutions
from kzresidue.cli import factored_text

n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
m = int(sys.argv[2]) if len(sys.argv) > 2 else 1

psis = reflection_solutions(n, m)
print(f"residue family for n={n}, m={m} (one solution per marked point):")
for a, psi in enumerate(psis, start=1):
    coords = ", ".join(factored_text(p) for p in psi.components)
    print(f"  solution {a}: ({coords})")

total = [SparsePolynomial.zero(n) for _ in range(n)]
for psi in psis:
    total = [acc + p for acc, p in zip(total, psi.components)]
print("family sum:", "zero vector" if all(p.is_zero() for p in total) else total)
print()

phis = reflection_dual_solutions(n, m)
print(f"dual path family (parameter -{m}), numerators over disc^{2*m}:")
for a, phi in enumerate(phis, start=1):
    coords = ", ".join(str(f) for f in phi.components)
    print(f"  solution {a}: ({coords})")
print()

# each pairing is sum_k num_k psi_k over the members' one den = disc^{2m}:
# it is 1/m when m times the numerator sum is that den, 0 when the sum is
print(f"pairing matrix (should be identity / {m}):")
for phi in phis:
    cells = []
    for psi in psis[: n - 1]:
        acc = SparsePolynomial.zero(n)
        for p, q in zip(phi.components, psi.components):
            acc = acc + p * q
        if acc * m == phi.den:
            cells.append(f"1/{m}" if m != 1 else "1")
        elif acc.is_zero():
            cells.append("0")
        else:
            cells.append("UNEXPECTED")
    print("  [" + ", ".join(cells) + "]")
