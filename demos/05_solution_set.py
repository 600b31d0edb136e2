"""Sweeping the solution set through the linear-fractional transformation.

Every constant admissible pair (phi, psi) gives a solution transform
S = (U11 phi + U12 psi)(U21 phi + U22 psi)^{-1}; the trivial pairs give
the two extremal solutions, and at a fixed real point left of alpha the
solution values fill the matrix interval between them exactly.
"""

import numpy as np

import stieltjesmp as smp

s = smp.random_stieltjes_pd_sequence(q=2, kappa=4, alpha=0.0, seed=8)
u = smp.resolvent_u(s)
s_min, s_max = smp.extremal(s)

x = -1.0
iv = smp.weyl_interval(s, s.kappa, x)
print("Weyl interval at x = -1:")
print("  lower eigenvalues:", np.linalg.eigvalsh(iv.lower).round(5))
print("  upper eigenvalues:", np.linalg.eigvalsh(iv.upper).round(5))
print("  gap eigenvalues:  ", np.linalg.eigvalsh(iv.gap).round(5))

# every random admissible pair lands inside the interval
rng = np.random.default_rng(1)
print("\nrandom pairs stay ordered between the extremals:")
for k in range(4):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    pair = smp.StieltjesPair(kind=smp.CONSTANT, phi=g @ g.conj().T, psi=np.eye(2))
    val = smp.hermitize(smp.lft_solve(u, pair, complex(x)))
    lo = np.linalg.eigvalsh(val - iv.lower)[0]
    hi = np.linalg.eigvalsh(iv.upper - val)[0]
    print(f"  pair {k}: min-eig(S - S_min) = {lo:+.4f},  min-eig(S_max - S) = {hi:+.4f}")

# conversely every interval point, endpoints and singular K included, is hit
# by the pair U(x)^{-1} [T; I], which the J-symmetry of U gives with no inverse
print()
for k, name in ((0.3 * np.eye(2), "0.3 I"), (np.diag([0.0, 0.7]), "diag(0, 0.7)")):
    t, pair = smp.interval_point(s, s.kappa, x, k)
    val = smp.lft_solve(u, pair, complex(x))
    print(f"interval point at K = {name} reproduced by its pair: "
          f"error {np.linalg.norm(val - t):.2e}")

# the gap inverse is a polynomial sum over the factor chain, with no inverse:
# -w sum D_k(z) M_k D_k(conj z)^* + w^2 sum E_k(z) L_k E_k(conj z)^*
got = smp.difference_inverse(s, s.kappa, complex(x))
want = np.linalg.inv(iv.gap)
print(f"difference inverse against inv(gap): error {np.linalg.norm(got - want):.2e}")

# the Schur-class reparametrization: a unitary F with PSD imaginary part
# enters as the pair sqrt(2) E [F; I], E the schur_rotation of the half-line
for f, ref, name in ((np.eye(2), s_min, "F = +I -> S_min"),
                     (-np.eye(2), s_max, "F = -I -> S_max")):
    pair = smp.StieltjesPair(kind=smp.SCHUR_CONSTANT, f=f)
    got = smp.lft_solve(u, pair, complex(x))
    print(f"{name}: error {np.linalg.norm(got - ref(complex(x))):.2e}")

# mirroring onto the other half-line swaps the extremals
t_seq = smp.reflect(s)
t_min, t_max = smp.extremal(t_seq)
z = 1.3
print("\nreflection duality at z = 1.3:")
print("  |-S_max(-z) - S~_min(z)| =", np.linalg.norm(-s_max(-z) - t_min(z)).round(12))
print("  |-S_min(-z) - S~_max(z)| =", np.linalg.norm(-s_min(-z) - t_max(z)).round(12))
