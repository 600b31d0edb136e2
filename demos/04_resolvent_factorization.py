"""The 2q x 2q resolvent polynomial and its multiplicative structure.

U packs the four polynomial families into one J-inner matrix polynomial:
det U is constant, U^{-1}(z) = Jtilde U^*(conj z) Jtilde, the defect
Jtilde - U^* Jtilde U is PSD on the upper half-plane and vanishes on the
real axis.  U is the product of an alternating chain of constant upper
triangles (the L_n) and linear lower triangles (the (alpha - z) M_n),
expanded once into coefficients.
"""

import numpy as np

import stieltjesmp as smp

s = smp.random_stieltjes_pd_sequence(q=2, kappa=4, alpha=0.5, seed=12)
u = smp.resolvent_u(s)
print(f"U has degree {u.poly.degree}, blocks of size {s.q}")

z = 0.8 + 0.6j
print("det U(z)     =", np.linalg.det(u(z)).round(10))
print("det U(alpha) =", np.linalg.det(u(s.alpha)).round(10))

# J-symmetry replaces numeric inversion
err = np.linalg.norm(np.linalg.inv(u(z)) - u.inverse_at(z))
print(f"J-symmetry inverse error: {err:.2e}")

# J-inner report over a half-plane grid and a real slice
rng = np.random.default_rng(0)
samples = [complex(rng.uniform(-2, 2), rng.uniform(0.1, 2)) for _ in range(8)]
samples += [rng.uniform(-2, 2) for _ in range(4)]
report = smp.j_inner_check(u, samples, s.q)
print(f"defect min eigenvalue (upper half-plane): {report.min_upper_eig:+.2e}")
print(f"defect norm (real axis):                  {report.max_real_defect:.2e}")

# the multiplicative chain
chain = smp.factorize_u(s)
print(f"\nfactor chain of {len(chain.factors)} linear/constant factors:")
for j, w in enumerate(chain.factors):
    kind = "(alpha - z) M-block" if j % 2 == 0 else "constant L-block"
    print(f"  W_{j}: degree {w.degree} {kind}")
err = np.linalg.norm(chain(z) - u(z)) / np.linalg.norm(u(z))
print(f"factor-by-factor value vs expanded product: {err:.2e}")

# leading structure in powers of (z - alpha)
lt = smp.leading_terms(s)
print(f"\nexpansion variable: {lt['variable']}")
for name in "ABCD":
    info = lt[name]
    print(f"  {name}: degree {info['degree']}, "
          f"|leading| = {np.linalg.norm(info['leading']):.4f}")
