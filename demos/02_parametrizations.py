"""Four coordinate systems on a positive definite moment sequence.

Each parametrization is a bijection on its natural domain: the interlaced
Schur complements Q_j, the canonical Hankel pair (C_n, D_n), the Favard
recursion pair (A_n, B_n) and the PD pair (L_n, M_n) that drives the
multiplicative structure of the resolvent.  This script round-trips a
random sequence through all of them and exercises the closed cross-maps.
"""

import numpy as np

import stieltjesmp as smp
from stieltjesmp.moments import hankel, y_stack, z_stack

s = smp.random_stieltjes_pd_sequence(q=2, kappa=5, alpha=-0.5, seed=42)
scale = max(np.linalg.norm(m) for m in s.moments)


def report(name, rebuilt):
    err = max(np.abs(a - b).max() for a, b in zip(s.moments, rebuilt.moments))
    print(f"  {name:28s} relative error {err / scale:.2e}")


print("round-trips through each parametrization:")
p = smp.stieltjes_param(s)
report("Schur complements Q", smp.seq_from_stieltjes_param(p))

ch = smp.canonical_hankel_param(s)
report("canonical Hankel (C, D)", smp.seq_from_canonical(ch, q=s.q, alpha=s.alpha,
                                                         side=s.side))

d = smp.ds_param(s)
report("multiplicative pair (L, M)", smp.seq_from_ds(d))

# the cross-maps are alternating products, no sequence reconstruction.
# (L, M) is defined by increments of Hankel inverses at alpha:
#   M_n = E_n^* H_n^{-1} E_n - E_{n-1}^* H_{n-1}^{-1} E_{n-1},
#   L_n = z_{0,n} Hshift_n^{-1} y_{0,n} - z_{0,n-1} Hshift_{n-1}^{-1} y_{0,n-1}
# with E_n = (I; alpha I; ...; alpha^n I); the library never forms these
# Hankel inverses, so the script inverts the blocks itself


def increments(term, count):
    vals = [term(n) for n in range(count)]
    return vals[:1] + [b - a for a, b in zip(vals, vals[1:])]


def column_e(n):
    return np.kron((s.alpha ** np.arange(n + 1))[:, None], np.eye(s.q))


m_def = increments(lambda n: column_e(n).T @ np.linalg.inv(hankel(s, n)) @ column_e(n),
                   len(d.m))
l_def = increments(lambda n: z_stack(s, 0, n) @ np.linalg.inv(hankel(s.shifted, n))
                   @ y_stack(s, 0, n), len(d.l))
d2 = smp.ds_from_q(p)
err = max(np.abs(np.asarray(a) - np.asarray(b)).max() / (1 + np.linalg.norm(b))
          for a, b in zip(list(d2.l) + list(d2.m), l_def + m_def))
print(f"\nQ -> (L, M) product map vs the Hankel-inverse increments, error {err:.2e}")
p2 = smp.q_from_ds(d)
err = max(np.abs(np.asarray(a) - np.asarray(b)).max() / (1 + np.linalg.norm(b))
          for a, b in zip(p.values, p2.values))
print(f"(L, M) -> Q inverse map,        error {err:.2e}")

# Favard pairs of the sequence and of its shift, from (L, M) through Q
fp, fp_shift = smp.favard_from_ds(d)
direct = smp.favard_pair(s)
err = max(np.abs(np.asarray(a) - np.asarray(b)).max()
          for a, b in zip(fp.b, direct.b))
print(f"Favard pair via (L, M),         error {err:.2e}")
direct_shift = smp.favard_pair(smp.shift_sequence(s))
err = max(np.abs(np.asarray(a) - np.asarray(b)).max()
          for a, b in zip(fp_shift.b, direct_shift.b))
print(f"shifted Favard pair,            error {err:.2e}")

# the (L, M) -> sequence map doubles as a generator: any PD pair gives a
# Stieltjes-PD sequence
rng = np.random.default_rng(7)
hand = smp.DSParam(q=1, alpha=0.0, side="right",
                   l=(np.array([[2.0]]),),
                   m=(np.array([[1.0]]), np.array([[0.5]])))
built = smp.seq_from_ds(hand)
print("\nhand-built (L, M) = (2; 1, 0.5) generates moments:",
      [round(m.item().real, 6) for m in built.moments],
      "->", smp.classify(built).stieltjes)
