"""Finitely atomic matrix measures behind the extremal solutions.

The extremal Stieltjes transforms are rational with poles on the support
half-line; their measures are sums of PSD mass matrices at finitely many
real atoms.  Each extremal is the transfer function of a block string of
(L, M), and its measure is that string's rule: the eigenvalues of the block
Jacobi matrix are the atoms, its first eigenvector blocks give the masses
(Gauss nodes for the wall end, Gauss-Radau for the free end: one node at
alpha with the summed mass of the q rigid motions).  The rule reads (L, M)
only, and its Gram sums are the masses as they are, not rebuilt: a measure
holds a float array of atoms and one read-only (K, q, q) stack of masses.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import Array, DEFAULT_TOL, PD, PSD, _psd_classes, is_psd
from .moments import RIGHT, MomentSequence, freeze, hankel, matrix_stack, side_sign
from .params import _door
from .solutions import _partial_fractions, string_rule


@dataclass(frozen=True, eq=False)
class MolecularMeasure:
    """Real atoms with PSD q x q masses, supported on a tagged half-line.

    atoms is a read-only float (K,) array and masses a read-only complex
    (K, q, q) stack (matrix_stack), (0, 1, 1) with no atom unless given as
    (0, q, q).  Side, shapes, finiteness, the support of the atoms and the
    PSD masses are checked once, here.  Equality is by identity.
    """

    atoms: Array
    masses: Array
    support_side: str
    alpha: float

    def __post_init__(self):
        self._check_fields()
        if not set(_psd_classes(self.masses)) <= {PD, PSD}:
            raise ValueError("mass matrices must be PSD")

    @classmethod
    def _checked(cls, atoms, masses: Array, support_side: str, alpha: float):
        """Measure of a stack of Gram sums g g^*, PSD to rounding: all checks but PSD."""
        mu = object.__new__(cls)
        mu.__dict__.update(atoms=atoms, masses=masses, support_side=support_side, alpha=alpha)
        mu._check_fields()
        return mu

    def _check_fields(self):
        """Every check but the PSD test; sets atoms and masses to their stacks."""
        sign = side_sign(self.support_side)   # an empty measure checks its side too
        x, masses = freeze(np.array(self.atoms, dtype=float)), self.masses
        if x.ndim != 1 or len(x) != len(masses):
            raise ValueError("atoms and masses must align")
        shape = np.shape(masses[0]) if len(masses) else np.shape(masses)[1:]
        self.__dict__.update(atoms=x, masses=matrix_stack(masses, shape[0] if shape else 1, "mass"))
        off = ~np.isfinite(x) | (sign * x < sign * self.alpha - 1e-9 * (1 + abs(self.alpha)))
        if off.any():
            x = x[int(np.argmax(off))]
            raise ValueError(f"atom {x} outside [{self.alpha}, inf)" if sign > 0
                             else f"atom {x} outside (-inf, {self.alpha}]")


def stieltjes_transform(mu: MolecularMeasure, z) -> Array:
    """sum_k M_k / (x_k - z) at a scalar z or a 1-D array, as an extremal is evaluated."""
    q = mu.masses.shape[-1]
    return _partial_fractions(mu.atoms, mu.masses.reshape(-1, q * q), z, q)


def measure_moments(mu: MolecularMeasure, up_to: int) -> Array:
    """Power moments sum_k x_k^j M_k for j = 0..up_to as one (up_to+1, q, q)
    stack, from one power table; a moment that overflows float64 raises
    OverflowError naming its index."""
    with np.errstate(over="ignore", invalid="ignore"):
        powers = mu.atoms ** np.arange(up_to + 1)[:, None]
        moments = (powers[:, :, None, None] * mu.masses).sum(axis=1)
    finite = np.isfinite(moments).all(axis=(1, 2))
    if not finite.all():
        raise OverflowError(f"power moment {int(np.argmin(finite))} overflows float64")
    return moments


def _merge_atoms(atoms, masses: Array, alpha: float):
    """Sort the atoms, merge clustered ones and drop negligible masses.

    `masses` is a (K, q, q) stack, summed and never rebuilt.  A walk over the
    sorted atoms merges those closer than atom_merge (1 + |alpha|); it runs
    only when two neighbours are that close.  Returns two read-only stacks.
    """
    order = np.argsort(atoms)
    x, masses = np.asarray(atoms, dtype=float)[order], masses[order]
    merge_dist = DEFAULT_TOL.atom_merge * (1 + abs(alpha))
    if np.count_nonzero(np.diff(x) < merge_dist):
        traces = np.trace(masses, axis1=1, axis2=2).real.tolist()
        merged_a, merged_m = [], []
        for x_new, m, w_new in zip(x.tolist(), masses, traces):
            if merged_a and abs(x_new - merged_a[-1]) < merge_dist:
                w_old = float(np.trace(merged_m[-1]).real)
                if w_old + w_new > 0:
                    merged_a[-1] = (w_old * merged_a[-1] + w_new * x_new) / (w_old + w_new)
                merged_m[-1] = merged_m[-1] + m
            else:
                merged_a.append(x_new)
                merged_m.append(m)
        x, masses = np.array(merged_a), np.array(merged_m)
    norms = np.linalg.norm(masses, axis=(1, 2))
    keep = ~(norms < DEFAULT_TOL.mass_drop * norms.max(initial=1.0))   # scale max(1, largest norm)
    return freeze(x[keep]), freeze(masses[keep])


def _recover(seq: MomentSequence, m: int | None, lower: bool) -> MolecularMeasure:
    """The door (the gate, then m in 0..kappa), then the merged string rule.

    The wall string gives the B D^{-1} extremal: the lower one on the right
    half-line, the upper one on the left.  At m = 0 the wall extremal is 0
    (B_0 = 0), the transform of no measure of mass s_0, and the free one is
    s_0 at alpha, the one moment the solve path reads past the door.
    """
    ds, m = _door(seq, m)
    wall = lower == (ds.side == RIGHT)
    if m == 0:
        if wall:
            raise ValueError(f"at m=0 the {'lower' if lower else 'upper'} extremal on the "
                             f"{ds.side} half-line is B_0 D_0^-1 = 0, the transform of no "
                             "measure of mass s_0")
        return MolecularMeasure(atoms=(ds.alpha,), masses=seq.moments[:1],
                                support_side=ds.side, alpha=ds.alpha)
    atoms, residues = string_rule(ds, m, wall)
    atoms, masses = _merge_atoms(atoms, residues.reshape(-1, ds.q, ds.q), ds.alpha)
    return MolecularMeasure._checked(atoms, masses, ds.side, ds.alpha)


def recover_min(seq: MomentSequence, m: int | None = None) -> MolecularMeasure:
    """Measure of the lower extremal solution, for 0 <= m <= kappa.

    The rule of the wall string on the right half-line (m >= 1), of the
    free string, with an atom at alpha, on the left.  It reads the rule
    extremal(seq, m) cached on (L, M), so after extremal it costs no
    factorization and no eigendecomposition: a sort and the drop test.
    """
    return _recover(seq, m, lower=True)


def recover_max(seq: MomentSequence, m: int | None = None) -> MolecularMeasure:
    """Measure of the upper extremal solution (mirror of recover_min)."""
    return _recover(seq, m, lower=False)


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
