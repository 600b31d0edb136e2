"""Finitely atomic matrix measures behind the extremal solutions.

The extremal Stieltjes transforms are rational with poles on the support
half-line; their measures are sums of PSD mass matrices at finitely many
real atoms.  One extremal comes from a Hermitian-definite generalized
eigenproblem of the two Hankel blocks (exact masses), the other from
residue extrapolation at the determinant zeros of the shifted orthogonal
polynomial plus the base point.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Array, DEFAULT_TOL, PD, PSD, _hermitize, _psd_classes, hermitize, is_psd, sqrt_psd,
)
from .moments import LEFT, RIGHT, MomentSequence, half, hankel, matrix_stack, require_stieltjes_pd
from .orthopoly import GENERAL, real_zeros, stieltjes_quadruple
from .solutions import extremal


@dataclass(frozen=True)
class MolecularMeasure:
    """Real atoms with PSD q x q masses, supported on a tagged half-line.  The
    masses are checked once, as one stack, and kept as complex q x q arrays."""

    atoms: tuple
    masses: tuple
    support_side: str
    alpha: float

    def __post_init__(self):
        if len(self.atoms) != len(self.masses):
            raise ValueError("atoms and masses must align")
        if not self.masses:
            return
        stack = matrix_stack(self.masses, np.atleast_2d(self.masses[0]).shape[0], "mass")
        if not set(_psd_classes(stack, DEFAULT_TOL)) <= {PD, PSD}:
            raise ValueError("mass matrices must be PSD")
        object.__setattr__(self, "masses", tuple(stack))
        self._check_atoms()

    @classmethod
    def _checked(cls, atoms, masses: Array, support_side: str, alpha: float):
        """Measure of a complex (K, q, q) stack _merge_atoms has clipped to
        PSD: no second PSD test; finiteness, which the clip does not give,
        and the atoms are still checked."""
        if not np.isfinite(masses).all():
            raise ValueError("matrix has non-finite entries")
        mu = object.__new__(cls)
        mu.__dict__.update(atoms=tuple(atoms), masses=tuple(masses),
                           support_side=support_side, alpha=alpha)
        mu._check_atoms()
        return mu

    def _check_atoms(self):
        x = np.asarray(self.atoms, dtype=float)
        slack = 1e-9 * (1 + abs(self.alpha))
        right = self.support_side == RIGHT
        off = x < self.alpha - slack if right else \
            (self.support_side == LEFT) & (x > self.alpha + slack)
        if off.any():
            x = self.atoms[int(np.argmax(off))]
            raise ValueError(f"atom {x} outside [{self.alpha}, inf)" if right
                             else f"atom {x} outside (-inf, {self.alpha}]")


def stieltjes_transform(mu: MolecularMeasure, z: complex) -> Array:
    """sum_k M_k / (x_k - z); poles exactly at the atoms."""
    dist = np.asarray(mu.atoms, dtype=float) - z
    if np.any(dist == 0):
        raise ValueError(f"z={z} coincides with an atom")
    if not mu.atoms:
        return np.zeros((1, 1), dtype=complex)
    return (np.array(mu.masses) / dist[:, None, None]).sum(axis=0)


def measure_moments(mu: MolecularMeasure, up_to: int) -> list:
    """Power moments sum_k x_k^j M_k for j = 0..up_to, from one power table;
    a moment that overflows float64 raises OverflowError naming its index."""
    if not mu.atoms:
        raise ValueError("empty measure has undefined matrix size")
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.asarray(mu.atoms, dtype=float) ** np.arange(up_to + 1)[:, None]
        moments = (powers[:, :, None, None] * np.array(mu.masses)).sum(axis=1)
    finite = np.isfinite(moments).all(axis=(1, 2))
    if not finite.all():
        raise OverflowError(f"power moment {int(np.argmin(finite))} overflows float64")
    return list(moments)


def _merge_atoms(atoms, masses: Array, alpha: float, drop_tol: float):
    """Merge clustered atoms, drop negligible masses, clip to the half-line.

    `masses` is a (K, q, q) stack.  The clusters are found by one walk over
    the sorted atoms as Python floats; the drop test and the clip act on the
    whole stack.  Returns the atoms as a list and the masses as a stack.
    """
    order = np.argsort(atoms)
    masses = masses[order]
    traces = np.trace(masses, axis1=1, axis2=2).real.tolist()
    merged_a, merged_m = [], []
    merge_dist = 1e-7 * (1 + abs(alpha))
    for x, m, w_new in zip(np.asarray(atoms, dtype=float)[order].tolist(), masses, traces):
        if merged_a and abs(x - merged_a[-1]) < merge_dist:
            w_old = float(np.trace(merged_m[-1]).real)
            if w_old + w_new > 0:
                merged_a[-1] = (w_old * merged_a[-1] + w_new * x) / (w_old + w_new)
            merged_m[-1] = merged_m[-1] + m
        else:
            merged_a.append(x)
            merged_m.append(m)
    merged = np.array(merged_m)
    norms = np.linalg.norm(merged, axis=(1, 2))
    keep = ~(norms < drop_tol * norms.max(initial=1.0))   # scale max(1, largest norm)
    w, v = np.linalg.eigh(_hermitize(merged[keep]))
    clipped = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return np.array(merged_a)[keep].tolist(), clipped


def _pencil_measure(seq: MomentSequence, m: int) -> MolecularMeasure:
    """Eigen-decomposition of the (shifted Hankel, Hankel) pencil.

    Gives the measure of y^* [Hshift - w H]^{-1} y with w = z - alpha
    (right) resp. alpha - z (left); atoms alpha + mu_k resp. alpha - mu_k.
    The blocks at index half(m-1) read only s_0..s_m.
    """
    pack = seq.pack
    n = half(m - 1)
    h = pack.h(n)
    h_sh = pack.h_shift(n)
    y = pack.y(0, n)

    root_inv = np.linalg.inv(sqrt_psd(h))
    pencil = hermitize(root_inv @ h_sh @ root_inv.conj().T)
    mu_vals, vecs = np.linalg.eigh(pencil)
    g = y.conj().T @ root_inv.conj().T @ vecs
    atoms = seq.alpha + mu_vals if seq.side == RIGHT else seq.alpha - mu_vals
    cols = g.T[:, :, None]   # the rank-one masses g_k g_k^*, k = 0..(n+1)q-1
    atoms, masses = _merge_atoms(atoms, cols @ cols.conj().swapaxes(-1, -2), seq.alpha,
                                 drop_tol=1e-12)
    return MolecularMeasure._checked(atoms, masses, seq.side, seq.alpha)


def _residue_measure(seq: MomentSequence, m: int, s_eval) -> MolecularMeasure:
    """Residue extrapolation at the candidate atoms of a rational transform.

    Candidates are the base point plus the real determinant zeros of the
    shifted first-kind polynomial; masses come from a two-point Richardson
    limit of (x - z) S(z) along z = x + i*eps.
    """
    p_shift = stieltjes_quadruple(seq).p_shift[half(m)]
    zeros = real_zeros(p_shift, kind=GENERAL)
    candidates = [seq.alpha] + [float(x) for x in zeros]

    eps1, eps2 = 1e-5, 1e-6
    atoms, masses = [], []
    for x in candidates:
        f1 = (x - (x + 1j * eps1)) * s_eval(x + 1j * eps1)
        f2 = (x - (x + 1j * eps2)) * s_eval(x + 1j * eps2)
        mass = (eps1 * f2 - eps2 * f1) / (eps1 - eps2)
        mass = hermitize(mass)
        if not np.all(np.isfinite(mass)):
            raise ArithmeticError(f"residue extrapolation diverged at atom {x}")
        atoms.append(x)
        masses.append(mass)
    atoms, masses = _merge_atoms(atoms, np.array(masses), seq.alpha, drop_tol=1e-6)
    return MolecularMeasure._checked(atoms, masses, seq.side, seq.alpha)


def _transported_measure(seq: MomentSequence, m: int) -> MolecularMeasure:
    """Measure of the extremal with the 1/(z - alpha) prefactor, exactly.

    The push-forward d(nu) = |x - alpha| d(mu) has the alpha-shifted
    moments, and its transform is the pencil-expressible extremal of the
    shifted sequence.  So: run the pencil there, divide each mass by
    |x_k - alpha|, and park the remaining s_0-mass at the base point.
    """
    q, a = seq.q, seq.alpha
    n = half(m)
    if n == 0:
        return MolecularMeasure(atoms=(a,), masses=(seq[0].copy(),),
                                support_side=seq.side, alpha=a)
    nu = _pencil_measure(seq.shifted, 2 * n - 1)

    atoms = np.array(nu.atoms)
    dist = np.abs(atoms - a)
    if np.any(dist < 1e-10 * (1 + abs(a))):
        raise ArithmeticError("transported pencil atom collapsed onto the base point")
    transported = np.array(nu.masses).reshape(-1, q, q) / dist[:, None, None]
    # cumsum adds in atom order from a zero block; sum() may pair the terms
    total = np.concatenate([np.zeros((1, q, q)), transported]).cumsum(axis=0)[-1]
    remainder = hermitize(seq[0] - total)
    w, v = np.linalg.eigh(remainder)
    remainder = (v * np.clip(w, 0.0, None)) @ v.conj().T
    masses = np.concatenate([transported, remainder[None]])
    atoms, masses = _merge_atoms(np.append(atoms, a), masses, a, drop_tol=1e-12)
    return MolecularMeasure._checked(atoms, masses, seq.side, a)


def _recover(seq: MomentSequence, m: int | None, lower: bool) -> MolecularMeasure:
    """Check the index m, then run the pencil or the transported route.

    The pencil route gives the B D^{-1} extremal: the lower one on the
    right half-line, the upper one on the left.  At m = 0 it is 0 (B_0 = 0),
    the transform of no measure of mass s_0.
    """
    require_stieltjes_pd(seq)
    if m is None:
        m = seq.kappa
    if not 0 <= m <= seq.kappa:
        raise ValueError(f"index m={m} outside 0..kappa={seq.kappa}")
    if lower != (seq.side == RIGHT):
        return _transported_measure(seq, m)
    if m == 0:
        raise ValueError(f"at m=0 the {'lower' if lower else 'upper'} extremal on the "
                         f"{seq.side} half-line is B_0 D_0^-1 = 0, the transform of no "
                         "measure of mass s_0")
    return _pencil_measure(seq, m)


def recover_min(seq: MomentSequence, m: int | None = None) -> MolecularMeasure:
    """Measure of the lower extremal solution, for 0 <= m <= kappa.

    Direct pencil route on the right half-line (m >= 1); on the left the
    lower extremal carries the 1/(z - alpha) prefactor and is recovered
    through the transported pencil of the shifted sequence.
    """
    return _recover(seq, m, lower=True)


def recover_max(seq: MomentSequence, m: int | None = None) -> MolecularMeasure:
    """Measure of the upper extremal solution (mirror of recover_min)."""
    return _recover(seq, m, lower=False)


def recover_residue(seq: MomentSequence, m: int | None = None) -> MolecularMeasure:
    """Residue-extrapolation route to the prefactor extremal's measure.

    Secondary, lower-precision construction kept as an independent check
    of the transported-pencil route (upper extremal on the right half-line,
    lower on the left): candidate atoms are the base point plus the
    determinant zeros of the shifted first-kind polynomial, masses come
    from two-point Richardson limits along z = x + i*eps.
    """
    require_stieltjes_pd(seq)
    if m is None:
        m = seq.kappa
    s_min, s_max = extremal(seq, m)
    s_eval = s_max if seq.side == RIGHT else s_min
    return _residue_measure(seq, m, s_eval)


@dataclass(frozen=True)
class HausdorffReport:
    solvable: bool
    parity: str
    conditions: dict
    one_sided: dict | None

    def __str__(self):
        lines = [f"[alpha, beta] solvability: {'yes' if self.solvable else 'no'} ({self.parity} case)"]
        for name, ok in self.conditions.items():
            lines.append(f"  {name}: {'PSD' if ok else 'not PSD'}")
        if self.one_sided is not None:
            lines.append("  decomposition: right-problem "
                         f"{'solvable' if self.one_sided['right'] else 'unsolvable'}, "
                         f"left-problem {'solvable' if self.one_sided['left'] else 'unsolvable'}")
        return "\n".join(lines)


def hausdorff_solvable(seq: MomentSequence, alpha: float, beta: float) -> HausdorffReport:
    """Solvability of the two-endpoint moment problem on [alpha, beta].

    Odd count 2n+1: solvable iff both shifted Hankel blocks
    -alpha*H_n + K_n and beta*H_n - K_n are PSD; this matches the
    conjunction of the two one-sided problems.  Even count 2n: H_n PSD
    and, for n >= 1, -alpha*beta*H_{n-1} + (alpha+beta)*K_{n-1} - Ktilde_{n-1}
    PSD.
    """
    if not alpha < beta:
        raise ValueError("need alpha < beta")
    kappa = seq.kappa
    if kappa % 2 == 1:
        n = (kappa - 1) // 2
        h, k = hankel(seq, n), hankel(seq, n, 1)
        cond = {"right-shift block": is_psd(-alpha * h + k),
                "left-shift block": is_psd(beta * h - k)}
        h_plain = is_psd(h)
        one_sided = {"right": h_plain and cond["right-shift block"],
                     "left": h_plain and cond["left-shift block"]}
        solvable = cond["right-shift block"] and cond["left-shift block"]
        return HausdorffReport(solvable=solvable, parity="odd",
                               conditions=cond, one_sided=one_sided)

    n = kappa // 2
    cond = {"Hankel block": is_psd(hankel(seq, n))}
    if n >= 1:
        mixed = (-alpha * beta * hankel(seq, n - 1)
                 + (alpha + beta) * hankel(seq, n - 1, 1)
                 - hankel(seq, n - 1, 2))
        cond["two-endpoint block"] = is_psd(mixed)
    return HausdorffReport(solvable=all(cond.values()), parity="even",
                           conditions=cond, one_sided=None)
