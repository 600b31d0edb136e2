"""Recovering the finitely atomic measures behind the extremal solutions.

Each extremal is the transfer function of a block string of (L, M), and
its measure is the string's rule: the eigenvalues of the block Jacobi
matrix are the atoms and its first eigenvector blocks the masses.  The
lower extremal on the right half-line ends at a wall (a Gauss rule); the
upper one is free and adds an atom at the base point (a Gauss-Radau rule).
Both reproduce the prescribed moments like a quadrature rule.
"""

import numpy as np

import stieltjesmp as smp

# scalar warm-up: s = (1, 1, 2) splits into half masses at 0 and 2
f2 = smp.sequence([1.0, 1.0, 2.0])
mu_min, mu_max = smp.recover_min(f2), smp.recover_max(f2)
print("scalar fixture (1, 1, 2):")
print("  lower measure: atoms", np.round(mu_min.atoms, 6),
      "masses", [round(m.item().real, 6) for m in mu_min.masses])
print("  upper measure: atoms", np.round(mu_max.atoms, 6),
      "masses", [round(m.item().real, 6) for m in mu_max.masses])
print("  upper moments:", [round(v.item().real, 9)
                           for v in smp.measure_moments(mu_max, 2)])

# matrix case
s = smp.random_stieltjes_pd_sequence(q=2, kappa=4, alpha=1.0, seed=5)
mu_min, mu_max = smp.recover_min(s), smp.recover_max(s)
print(f"\nrandom q=2 fixture at alpha = {s.alpha}:")
for name, mu in (("lower", mu_min), ("upper", mu_max)):
    traces = [round(float(np.trace(m).real), 4) for m in mu.masses]
    print(f"  {name}: atoms {np.round(mu.atoms, 4)} mass traces {traces}")

# the transforms match the extremal evaluators off the half-line
s_min, s_max = smp.extremal(s)
z = -0.7 + 0.4j
print("\ntransform consistency at a test point:")
print("  lower:", np.linalg.norm(smp.stieltjes_transform(mu_min, z) - s_min(z)))
print("  upper:", np.linalg.norm(smp.stieltjes_transform(mu_max, z) - s_max(z)))

# quadrature-like moment closure: all but the last moment exact, the last
# bounded by the data in the Loewner order
moms = smp.measure_moments(mu_min, s.kappa)
errs = [np.linalg.norm(moms[j] - s[j]) for j in range(s.kappa)]
slack = np.linalg.eigvalsh(smp.hermitize(s[s.kappa] - moms[s.kappa]))[0]
print("\nmoment closure (lower measure):")
print("  moment errors:", [f"{e:.1e}" for e in errs])
print(f"  final-moment Loewner slack: {slack:+.3e}")

# two-endpoint solvability bridge
short = smp.sequence([1.0, 0.5])
print("\n[0, 1] solvability for s = (1, 0.5):")
print(smp.hausdorff_solvable(short, 0.0, 1.0))
