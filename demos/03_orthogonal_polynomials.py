"""Monic orthogonal matrix polynomials and their determinant zeros.

The monic left-orthogonal system of a Hankel-PD sequence comes from one
block row of the inverse Hankel matrix and simultaneously from the
three-term recursion; together with the second-kind system and the
shifted system it forms the quadruple behind the resolvent blocks.  All
determinant zeros live on the open support half-line.
"""

import numpy as np

import stieltjesmp as smp

s = smp.random_stieltjes_pd_sequence(q=2, kappa=5, alpha=0.0, seed=3)
quad = smp.stieltjes_quadruple(s)

print("degrees of the four families:")
print("  first kind:      ", [p.degree for p in quad.p])
print("  second kind:     ", [p.degree for p in quad.second])
print("  shifted:         ", [p.degree for p in quad.p_shift])
print("  shifted-attached:", [p.degree for p in quad.phat])

# orthogonality: <P_j, P_k> = sum P_j^[l] s_{l+m} (P_k^[m])^* vanishes
p1, p2 = quad.p[1], quad.p[2]
inner = sum(p1.coeffs[l] @ s[l + m] @ p2.coeffs[m].conj().T
            for l in range(2) for m in range(3))
print("\n<P_1, P_2> =", np.linalg.norm(inner).round(14))

# the first-kind polynomials at the base point
print("P_2(alpha) eigenvalues:", np.linalg.eigvals(quad.p[2](s.alpha)).round(4))

print("\ndeterminant zeros (all real, right of alpha = 0):")
for name, fam in (("P", quad.p), ("P_shift", quad.p_shift), ("Phat", quad.phat)):
    for n, poly in enumerate(fam):
        if poly.degree < 1:
            continue
        zeros = smp.real_zeros(poly)
        print(f"  det {name}_{n}: {np.round(zeros, 5)}")

# scalar sanity: for s = (1, 1, 2) the first polynomial is z - 1
f2 = smp.sequence([1.0, 1.0, 2.0])
mono = smp.monic_orthogonal_system(f2)
print("\nscalar fixture: P_1(3) =", mono[1](3.0).item().real, "(z - 1 at z = 3)")
print("det zeros of P_1:", smp.real_zeros(mono[1]))
