"""Finitely atomic matrix measures behind the extremal solutions.

The extremal Stieltjes transforms are rational with poles on the support
half-line; their measures are sums of PSD mass matrices at finitely many
real atoms.  Each extremal is the transfer function of a block string of
(L, M), and its measure is that string's rule: the eigenvalues of the block
Jacobi matrix are the atoms, its first eigenvector blocks give the masses
(Gauss nodes for the wall end, Gauss-Radau for the free end: one node at
alpha with the summed mass of the q rigid motions).  The rule reads (L, M)
only, and its Gram sums are the masses as they are, not rebuilt: a measure
holds a float array of atoms and one read-only (K, q, q) stack of masses,
and its transform is the call of a Rule of them, as an extremal's is.
"""

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .linalg import (
    Array, DEFAULT_TOL, PD, PSD, _integer, _psd_classes, _real, freeze, is_psd, matrix_stack,
)
from .moments import RIGHT, MomentSequence, classify, hankel, side_sign
from .params import _door, ds_param, seq_from_ds, seq_from_stieltjes_param, stieltjes_param
from .resolvent import factorize_u, j_inner_check, resolvent_u
from .solutions import Rule, difference_inverse, extremal, string_rule, weyl_interval


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
        alpha = _real(self.alpha, "alpha")
        x, masses = freeze(np.array(self.atoms, dtype=float)), self.masses
        if x.ndim != 1 or len(x) != len(masses):
            raise ValueError("atoms and masses must align")
        shape = np.shape(masses[0]) if len(masses) else np.shape(masses)[1:]
        self.__dict__.update(atoms=x, masses=matrix_stack(masses, shape[0] if shape else 1, "mass"),
                             alpha=alpha)
        slack = DEFAULT_TOL.atom_slack * (1 + abs(alpha))
        off = ~np.isfinite(x) | (sign * x < sign * alpha - slack)
        if off.any():
            x = x[int(np.argmax(off))]
            raise ValueError(f"atom {x} outside [{alpha}, inf)" if sign > 0
                             else f"atom {x} outside (-inf, {alpha}]")

    @cached_property
    def _rule(self) -> Rule:
        """The Rule of the atoms and masses, built at the first stieltjes_transform."""
        q = self.masses.shape[-1]
        return Rule(self.atoms, self.masses.reshape(-1, q * q), 0.0, q)


def stieltjes_transform(mu: MolecularMeasure, z) -> Array:
    """sum_k M_k / (x_k - z) at a scalar z or a 1-D array: the call of mu's
    Rule, an unchecked hot evaluator like an extremal's (see moments._point)."""
    return mu._rule(z)


def measure_moments(mu: MolecularMeasure, up_to: int) -> Array:
    """Power moments sum_k x_k^j M_k for j = 0..up_to as one (up_to+1, q, q)
    stack, from one power table; a moment that overflows float64 raises
    OverflowError naming its index.  up_to is an integer >= 0."""
    if _integer(up_to, "up_to") < 0:
        raise ValueError(f"up_to={up_to} is negative")
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
    rule = string_rule(ds, m, wall)
    atoms, masses = _merge_atoms(rule.atoms, rule.residues.reshape(-1, ds.q, ds.q), ds.alpha)
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
    alpha, beta = _real(alpha, "alpha"), _real(beta, "beta")
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


# verify's points, default_rng(0)'s draws as a table, so that verify imports no numpy.random:
# 20 points z = re + i im as (re, im) pairs, then 10 samples re + i (|im| + 0.1) and 5 real
_POINTS = (
    0.1257302210933933, -0.1321048632913019, 0.6404226504432821, 0.10490011715303971,
    -0.535669373161111, 0.36159505490948474, 1.3040000451301372, 0.9470809631292422,
    -0.7037352358069926, -1.2654214710460525, -0.6232744625373522, 0.0413259793472436,
    -2.3250307746388343, -0.21879166393254573, -1.2459109472530652, -0.7322673547034516,
    -0.5442589828573099, -0.31630015636915454, 0.4116305363741328, 1.0425133694426776,
    -0.12853466294403426, 1.3664634705496859, -0.6651946734866135, 0.3515100700930197,
    0.9034701816518086, 0.09401229776087457, -0.7434992493538084, -0.9217253762584194,
    -0.45772582566733916, 0.2201951234700494, -1.009618183538736, -0.20917557487171307,
    -0.15922500991447772, 0.5408455846858077, 0.2146591225063409, 0.3553727090399214,
    -0.6538286094183394, -0.12961363369276946, 0.7839754700613295, 1.4934311452207607,
)
_SAMPLES = (
    (-1.2590655321041202+1.6139237747390627j), (1.3458754237823045+0.8813114007004275j),
    (0.2644556303293035+0.41392281453642776j), (1.4580206835369587+2.0602583164499646j),
    (1.801634869866125+1.41510376473437j), (0.357380410658956+1.3083186322821716j),
    (-0.004454133120083229+0.7564749350763358j), (-1.2883614637495544+0.4951220601820082j),
    (0.42986369482223+0.7960427239628685j), (-1.184117966757189+0.7617025720390349j),
    -0.43643524714322124, -1.169801907772864, 1.739367877130134,
    -0.4959107284421519, 0.3289696294602021,
)


@dataclass(frozen=True)
class Check:
    """One check of verify; a measured one also holds its worst relative
    error over its points and its DEFAULT_TOL field."""

    passed: bool
    value: float | None = None
    threshold: float | None = None


def _measured(errors, threshold: float) -> Check:
    value = float(np.max(errors))   # NaN stays NaN and fails
    return Check(value <= threshold, value, threshold)


def verify(seq: MomentSequence) -> MappingProxyType:
    """Full invariant sweep over one sequence: a read-only map from the name of each check,
    in the order they run, to its Check.  A sequence that is not Stieltjes-PD gets
    stieltjes_pd alone, kappa = 0 stops after j_inner, and a failed weyl_gap_pd drops
    difference_inverse, which needs the gap.  The points are the fixed table _POINTS."""
    checks = {"stieltjes_pd": Check(classify(seq).stieltjes == PD)}
    if not checks["stieltjes_pd"].passed:
        return MappingProxyType(checks)
    tol = DEFAULT_TOL
    scale = np.linalg.norm(seq.moments, axis=(1, 2)).max()
    for name, back in (("q_roundtrip", seq_from_stieltjes_param(stieltjes_param(seq))),
                       ("ds_roundtrip", seq_from_ds(ds_param(seq)))):
        checks[name] = _measured(np.abs(np.subtract(back.moments, seq.moments)).max() / scale,
                                 tol.roundtrip_tol)

    u, chain = resolvent_u(seq), factorize_u(seq)
    det_ref = np.linalg.det(u(seq.alpha))
    z = np.array(_POINTS).view(complex)   # 20 points; each check holds at every point
    uz = u(z)
    ui = np.linalg.inv(uz)
    checks["det_constant"] = _measured(np.abs(np.linalg.det(uz) - det_ref) / (1 + abs(det_ref)),
                                       tol.det_constant_tol)
    checks["factor_chain"] = _measured(np.linalg.norm(chain(z) - uz, axis=(1, 2))
                                       / np.linalg.norm(uz, axis=(1, 2)), tol.factor_chain_tol)
    checks["j_symmetry"] = _measured(np.linalg.norm(ui - u.inverse_at(z), axis=(1, 2))
                                     / np.linalg.norm(ui, axis=(1, 2)), tol.j_symmetry_tol)

    inner = j_inner_check(u, _SAMPLES, seq.q)   # passed compares strictly
    checks["j_inner"] = Check(inner.passed, max(inner.max_real_defect, -inner.min_upper_eig),
                              tol.j_inner_tol)

    if seq.kappa >= 1:
        try:
            iv = weyl_interval(seq, seq.kappa)
        except ArithmeticError:   # extremal values not definite, or their gap not PD
            iv = None
        checks["weyl_gap_pd"] = Check(iv is not None)
        # the production extremals against one batched division of U(z) by
        # the trivial pairs: (0, I) gives the wall extremal B D^-1 from U's
        # right block column, (I, 0) the free A C^-1 from its left one
        errors = []
        for ext in extremal(seq):
            col = uz[:, :, seq.q:] if ext.bd else uz[:, :, :seq.q]
            want = col[:, :seq.q] @ np.linalg.inv(col[:, seq.q:])
            errors.append(np.linalg.norm(ext(z) - want, axis=(1, 2))
                          / (1 + np.linalg.norm(want, axis=(1, 2))))
        checks["extremal_lft"] = _measured(errors, tol.extremal_lft_tol)
        if iv is not None:
            gap_inv = difference_inverse(seq, seq.kappa, iv.x)
            checks["difference_inverse"] = _measured(
                np.linalg.norm(np.linalg.inv(iv.gap) - gap_inv) / (1 + np.linalg.norm(gap_inv)),
                tol.difference_inverse_tol)
        moms = [measure_moments(mu, seq.kappa) for mu in (recover_min(seq), recover_max(seq))]
        checks["measure_moments"] = _measured(
            [np.linalg.norm(mom[j] - seq[j]) / (1 + np.linalg.norm(seq[j]))
             for mom in moms for j in range(seq.kappa)], tol.measure_moments_tol)
    return MappingProxyType(checks)
