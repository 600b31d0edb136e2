"""Linear-fractional solution map, extremal elements and Weyl intervals.

Feeding a constant parameter pair (phi, psi) through the resolvent blocks,
S = (U11 phi + U12 psi)(U21 phi + U22 psi)^{-1}, yields the Stieltjes
transform of a solution of the truncated moment problem: the transfer
function of the block string of (L, M) whose last mass is tied to the wall
by the pair.  The trivial pairs give the two extremal solutions, the free
end and the wall; at a real point x off the half-line the solution values
fill the matrix interval between them exactly, and each point T of it is
reached by the pair U(x)^{-1} [T; I], read off U by its J-symmetry.  The
two ends are the partial fractions of their strings' rules, cached on
(L, M); any other constant pair is the partial fractions of its own
string's rule, built at its first point on the (L, M) and index that U
views and kept on the pair.  The inverse of the interval's width is a
polynomial sum over the factor chain of (L, M), with no matrix inverted.
Each entry takes the gate, then the index rule (params._door, or a view of
(L, M)), and reads (L, M) alone after it; an entry that evaluates at a
caller's point takes the point and the value rules of moments (_point,
_value) and no check of its own.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    Array, DEFAULT_TOL, NON_HERMITIAN, PD, PSD, _hermitize, _matrix, _psd_classes, _size,
    freeze, is_psd, psd_class, sqrt_psd,
)
from .moments import RIGHT, MomentSequence, _point, _scalar, _value, derived, half, side_sign
from .orthopoly import chain_d_e
from .params import DSParam, _door, _index, ds_param
from .resolvent import ResolventU, resolvent_u, schur_rotation

CONSTANT = "CONSTANT"
SCHUR_CONSTANT = "SCHUR_CONSTANT"
_NEEDS = {CONSTANT: ("phi", "psi"), SCHUR_CONSTANT: ("f",)}   # the fields each kind reads


@dataclass(frozen=True, eq=False)
class StieltjesPair:
    """Constant parameter pair for the linear-fractional transformation.

    CONSTANT pairs (phi, psi) need rank [phi; psi] = q and psi^* phi
    Hermitian with psi^* phi >= 0 on the right half-line (<= 0 on the
    left).  SCHUR_CONSTANT wraps a unitary F with PSD imaginary part; its
    (phi, psi) is set once, here, to sqrt(2) E [F; I] with E the
    schur_rotation of its half-line: (i(I - F), I + F) on the right and
    (-i(I + F), F - I) on the left, so lft_solve of the pair is the Schur
    transformation (S11 F + S12)(S21 F + S22)^{-1} of Sigma = U E.  The side
    is checked on both kinds.  phi, psi (phi's size) and F are held by the
    one matrix rule before any other check; the phi and psi of F are views
    of one frozen column.  Each pair is normalized once, when its first rule
    is built, to x = psi (psi + s phi)^{-1}, s the side_sign: psi + s phi is
    invertible for every valid pair, x is Hermitian with 0 <= x <= I and
    (phi R, psi R) gives the same x; phi = 0 is x = I and psi = 0 is x = 0
    exactly, as pair_min and pair_max are.  string_rule reads x alone, and
    the pair holds its rules, keyed weakly by the (L, M) they were built on,
    so that neither keeps the other alive.  Equality is identity.
    """

    kind: str
    side: str = RIGHT
    phi: Array | None = None
    psi: Array | None = None
    f: Array | None = None

    def __post_init__(self):
        for name in _NEEDS.get(self.kind, ()):
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} pair needs {name}")
        if self.kind == CONSTANT:
            phi = _matrix(self.phi, what="phi")
            psi = _matrix(self.psi, len(phi), "psi")
            if np.linalg.matrix_rank(np.vstack([phi, psi])) < len(phi):
                raise ValueError("pair is rank deficient")
            cls = psd_class(side_sign(self.side) * (psi.conj().T @ phi))
            if cls == NON_HERMITIAN:
                raise ValueError("psi^* phi must be Hermitian")
            if cls not in (PD, PSD):
                raise ValueError("psi^* phi has the wrong sign for this half-line")
        elif self.kind == SCHUR_CONSTANT:
            f = _matrix(self.f, what="f")
            q = f.shape[0]
            if np.linalg.norm(f.conj().T @ f - np.eye(q)) > DEFAULT_TOL.identity_tol * q:
                raise ValueError("Schur parameter must be unitary")
            if not is_psd((f - f.conj().T) / 2j):
                raise ValueError("Schur parameter needs PSD imaginary part")
            g = freeze(np.sqrt(2.0) * schur_rotation(q, self.side) @ np.vstack([f, np.eye(q)]))
            phi, psi = g[:q], g[q:]
            self.__dict__["f"] = f
        else:
            raise ValueError(f"unknown pair kind: {self.kind}")
        self.__dict__.update(phi=phi, psi=psi)

    def values(self):
        """(phi, psi) actually fed into the transformation."""
        return self.phi, self.psi

    @cached_property
    def x(self) -> Array:
        """psi (psi + s phi)^{-1}, taken at the pair's first rule: exactly I
        for phi = 0 and 0 for psi = 0."""
        q = len(self.phi)
        if not self.phi.any():   # the wall and the free end, exactly
            return freeze(np.eye(q, dtype=complex))
        if not self.psi.any():
            return freeze(np.zeros((q, q), dtype=complex))
        sign = side_sign(self.side)
        return freeze(_hermitize(self.psi @ np.linalg.inv(self.psi + sign * self.phi)))

    @cached_property
    def _rules(self) -> weakref.WeakKeyDictionary:
        """{ds: {m: rule}}: string_rule's rule of the pair on each (L, M) and
        index it was built on, the (L, M) held weakly."""
        return weakref.WeakKeyDictionary()


def pair_min(q: int, side: str = RIGHT) -> StieltjesPair:
    """(0, I), the pair of the wall extremal B D^{-1}: the lower one on the
    right half-line, the upper one on the left.  side only validates: the
    pair is (0, I) on both half-lines."""
    _size(q, "phi")   # the size rule and message of the phi it builds
    return StieltjesPair(kind=CONSTANT, side=side, phi=np.zeros((q, q)), psi=np.eye(q))


def pair_max(q: int, side: str = RIGHT) -> StieltjesPair:
    """(I, 0), the pair of the free extremal A C^{-1}: the upper one on the
    right half-line, the lower one on the left.  side only validates."""
    _size(q, "phi")   # the size rule and message of the phi it builds
    return StieltjesPair(kind=CONSTANT, side=side, phi=np.eye(q), psi=np.zeros((q, q)))


def _free_point(side: str, alpha: float) -> float:
    """The default real point, one unit off the half-line: alpha -+ 1."""
    return alpha - side_sign(side)


class SingularDenominator(ValueError):
    """The requested point lies within an atom's reach of the rule summed there."""


def lft_solve(u: ResolventU, pair: StieltjesPair, z: complex) -> Array:
    """Evaluate the linear-fractional transformation at one point off the cut.

    z is a scalar only.  Every pair takes one route: the partial fractions of
    its string_rule on u.ds and u.m, built at the pair's first point there
    and kept on the pair; x = I and x = 0 sum the wall and the free
    extremal, bit for bit theirs.  The denominator U21 phi + U22 psi is
    singular when z lies within an atom's reach, |z - x_k| <
    DEFAULT_TOL.singular_det (1 + rho), rho the rounding scale of the rule
    (max_j |x_j - alpha| but on a flexibility form; see string_rule).  z
    follows the point rule, with u.ds as its cut, and the value the value
    rule.  Precedence: the cut, the size, the pair's half-line, the
    singularity.  The atoms are subtracted from z once, as one complex
    number: that one gap serves the reach test and the sum.  The sum needs
    no exact-atom test of its own: the atoms lie on the cut, up to rounding,
    which the point rule refuses, and the reach is positive wherever the
    rule has an atom, so a z at an atom fails the reach test first.
    """
    ds, q = u.ds, u.ds.q
    _point(z, ds)
    if len(pair.phi) != q:
        raise ValueError(f"pair is {len(pair.phi)} x {len(pair.phi)}, U has {q} x {q} blocks")
    if pair.side != ds.side:
        raise ValueError(f"pair is for the {pair.side} half-line, U for the {ds.side} half-line")
    atoms, residues, reach = string_rule(ds, u.m, pair)
    point = complex(z)
    gap = atoms - point
    # every atom is real: a point that far off the line is past every reach;
    # a z at an atom is within it, so the sum below meets no zero gap
    if abs(point.imag) < reach and np.count_nonzero(np.abs(gap) < reach):
        raise SingularDenominator(f"denominator singular at z={z}")
    return _value(np.dot(np.reciprocal(gap), residues).reshape(q, q), z)


class ExtremalSolution:
    """One extremal solution of the truncated problem up to index m.

    A view of (L, M) at m in 1..kappa (params._index) that holds the rule, m,
    bd and q.  It is the transfer function of the block string of (L, M),
    which ends at a wall for bd=True (the ratio B D^{-1}) and is free, with
    an atom at alpha, for bd=False (A C^{-1}).  A call sums the partial
    fractions of the residue table of string_rule, cached on (L, M).  atoms
    stays the float rule that recover_* reads; the call subtracts z from a
    complex copy made once here, which is faster than numpy's cast of the
    float atoms at every call and gives the same bits, and looks a scalar z
    up in the set of that copy for its exact-atom test.  z is not checked
    against the cut: off the atoms the sum is the Stieltjes transform of the
    extremal's measure, finite on the half-line too.  A call is one of the
    unchecked hot evaluators: it takes neither the point rule nor the value
    rule of moments, and the entries that evaluate it at a caller's point
    (weyl_interval and the CLI's extremal) apply both.
    """

    def __init__(self, ds: DSParam, m: int, bd: bool):
        self.m, self.bd, self.q = _index(ds, m, 1), bd, ds.q
        self.atoms, self.residues, _ = string_rule(ds, self.m, bd)
        self._nodes = freeze(self.atoms.astype(complex))
        self._exact = frozenset(self._nodes.tolist())

    def __call__(self, z) -> Array:
        return _partial_fractions(self._nodes, self._exact, self.residues, z, self.q)


def _partial_fractions(nodes: Array, exact: frozenset, residues: Array, z, q: int) -> Array:
    """sum_k G_k / (x_k - z) over the nodes x_k and a (K, q*q) residue table:
    a q x q value at a scalar z, an (N, q, q) stack at N points (an array or
    a list); z at a node: SingularDenominator.

    A scalar z (moments._scalar) is subtracted as one complex number, with no
    array made of it and no broadcast, and gives the same bits in each of its
    forms; it is at a node when it is in exact, the set of the nodes, since
    x - z is zero exactly when x == z.  An array or a list of points keeps
    the broadcast and counts the zero gaps.  Neither path takes the point or
    the value rule.
    """
    if _scalar(z):
        z = complex(z)
        if z in exact:
            raise SingularDenominator(f"an atom lies in z={z}")
        return np.dot(np.reciprocal(nodes - z), residues).reshape(q, q)
    z = np.asarray(z, dtype=complex)
    gap = nodes - z[..., None]
    if np.count_nonzero(gap) < gap.size:
        raise SingularDenominator(f"an atom lies in z={z}")
    return np.dot(np.reciprocal(gap), residues).reshape(z.shape + (q, q))


@derived
def _string_factors(ds: DSParam) -> Array:
    """inv(chol) of the stack (M_0.., L_0..), which the rules of every end
    read; an L_n or M_n that is not PD has no factor: q_from_ds's ValueError."""
    try:
        chol = np.linalg.cholesky(np.concatenate([ds.m, ds.l]))
    except np.linalg.LinAlgError:
        raise ValueError("all L_n, M_n must be PD") from None
    return np.linalg.inv(chol)


def string_rule(ds: DSParam, m: int, end) -> tuple:
    """Atoms x_k, (K, q*q) residue table G_k and reach of one string of (L, M).

    end is True (the wall), False (the free end) or a StieltjesPair.  Masses
    M_j joined by springs L_j: a free end has half(m)+1 masses and one
    spring fewer, a wall end half(m-1)+1 of each, the last spring tied to
    the wall.  With the block difference Delta, M_j = R_j R_j^* and
    L_j = P_j P_j^* (one stacked Cholesky, shared by every end), T = R^{-1}
    Delta^* diag(L_j^{-1}) Delta R^{-*} = W^* W, W = P^{-1} Delta R^{-*} block
    bidiagonal; an L_j or M_j that is not PD is q_from_ds's ValueError.
    One eigh, T = V diag(lambda) V^*, gives x_k = alpha +- lambda_k and
    G_k = g_k g_k^* with g_k = R_0^{-*} v_k, v_k from the first block row
    of V.  The q rigid motions of a free string (the kernel of W) are one node
    at alpha exactly, with the sum of their residues.  A pair ties the last
    mass of the free string to the wall (_pair_string); x = I and x = 0 are
    the wall and the free end themselves, their rule the very same tuple.
    The reach is DEFAULT_TOL.singular_det (1 + rho), rho = max_j |x_j - alpha|
    = ||T||, the rounding scale of the eigh; on the flexibility form of a
    pair rho is its shift, since only the atoms of near-clamped directions
    lie past it.  The rules of the two ends are cached on ds, so a DSParam
    built from (L, M) directly keeps them too; the rule of any other pair is
    kept on the pair, under ds weakly, and goes when the pair goes.
    """
    if not isinstance(end, StieltjesPair):
        return _end_rule(ds, m, end)
    rules = end._rules.get(ds)
    if rules is None:   # not setdefault: it would make a weakref at every point
        rules = end._rules[ds] = {}
    if m not in rules:
        if not end.x.any():
            rules[m] = _end_rule(ds, m, False)
        elif np.array_equal(end.x, np.eye(ds.q)):
            rules[m] = _end_rule(ds, m, True)
        else:
            rules[m] = freeze(_pair_string(ds, m, end.x))
    return rules[m]


@derived
def _end_rule(ds: DSParam, m: int, wall: bool) -> tuple:
    """The rule of the wall (wall=True) or the free end of string_rule."""
    nm = half(m - 1) + 1 if wall else half(m) + 1
    if not nm:   # the wall of m = 0 holds no mass: B_0 D_0^{-1} = 0
        return np.zeros(0), np.zeros((0, ds.q * ds.q), dtype=complex), 0.0
    w, ri_star = _string_w(ds, nm, nm if wall else nm - 1)
    lam, v = np.linalg.eigh(w.conj().T @ w)
    return _rule(ds, lam, v, ri_star[0], 0 if wall else ds.q)


def _string_w(ds: DSParam, nm: int, nl: int) -> tuple:
    """(W, R^{-*}) of nm masses and nl springs, the last spring tied to the
    wall when nl = nm; block (i, k) of W at i nm + k, so the diagonal is
    every (nm+1)-th block from 0."""
    q, inv = ds.q, _string_factors(ds)
    ri_star, pi = inv[:nm].conj().swapaxes(-1, -2), inv[len(ds.m):len(ds.m) + nl]
    w = np.zeros((nl * nm, q, q), dtype=complex)
    w[::nm + 1] = pi @ ri_star[:nl]
    w[1::nm + 1] = -pi[:nm - 1] @ ri_star[1:]
    return w.reshape(nl, nm, q, q).swapaxes(1, 2).reshape(nl * q, nm * q), ri_star


def _rule(ds: DSParam, lam: Array, v: Array, r0_star: Array, rigid: int,
          shift: float = 0.0) -> tuple:
    """(atoms, residues, reach) from the ascending eigenpairs of T; the rigid
    smallest lambda are one node at alpha exactly, their residues summed."""
    q = ds.q
    g = np.ascontiguousarray((r0_star @ v[:q]).T)   # so the residue table is C-contiguous
    residues = g[:, :, None] * g.conj()[:, None, :]
    if rigid:
        lam[rigid - 1], residues[rigid - 1] = 0.0, residues[:rigid].sum(axis=0)
        lam, residues = lam[rigid - 1:], residues[rigid - 1:]
    rho = shift or max(-lam[0], lam[-1])   # lam ascends: the largest |lambda| is at an end
    reach = DEFAULT_TOL.singular_det * (1.0 + float(rho))
    return ds.alpha + side_sign(ds.side) * lam, residues.reshape(-1, q * q), reach


def _pair_string(ds: DSParam, m: int, x: Array) -> tuple:
    """The rule of a pair x, 0 <= x <= I: the free string of half(m)+1 masses
    whose last mass M_n is tied to the wall by a boundary spring K.

    With x = V diag(t) V^*, odd m puts the pair's flexibility (I - x) x^{-1}
    in series with the last spring L_n, K = x (L_n x + I - x)^{-1} =
    x^{1/2} H^{-1} x^{1/2}, H = x^{1/2} L_n x^{1/2} + I - x, finite for every
    x.  Even m ties M_n by K = x (I - x)^{-1}.  Directions with t <= 1/2 add
    K to T; those with t > 1/2 go in the shifted flexibility form, one eigh of
    (T_soft + sigma I + B C^{-1} B^*)^{-1} by Woodbury, B = R_n^{-1} V_h on the
    last block, C = (I - x) x^{-1} there, sigma = ||T_soft||_inf, and
    lambda = 1/mu - sigma; a clamped direction (t = 1) has no atom.  ker x
    is one node at alpha exactly, as the free end's rigid motions are.
    """
    q, n = ds.q, half(m)
    t, basis = np.linalg.eigh(x)
    t = np.clip(t, 0.0, 1.0)
    w, ri_star = _string_w(ds, n + 1, n)
    stiff, last = w.conj().T @ w, ri_star[n]   # T of the free string, R_n^{-*}
    hard = (t > 0.5) & (m % 2 == 0)   # the directions of the flexibility form
    if m % 2:
        root = basis * np.sqrt(t)
        chol = np.linalg.cholesky(root.conj().T @ ds.l[n] @ root + np.diag(1.0 - t))
        row = np.linalg.solve(chol, root.conj().T) @ last
    else:
        soft = t[~hard]
        row = np.sqrt(soft / (1.0 - soft))[:, None] * basis[:, ~hard].conj().T @ last
    stiff[-q:, -q:] += row.conj().T @ row
    if not hard.any():
        lam, v = np.linalg.eigh(stiff)
        return _rule(ds, lam, v, ri_star[0], np.count_nonzero(t == 0))
    sigma = np.abs(stiff).sum(axis=1).max() or 1.0
    a_inv = np.linalg.inv(stiff + sigma * np.eye(len(stiff)))
    b = last.conj().T @ basis[:, hard]
    y = a_inv[:, -q:] @ b
    c = (1.0 - t[hard]) / t[hard]
    mu, v = np.linalg.eigh(a_inv - y @ np.linalg.solve(np.diag(c) + b.conj().T @ y[-q:],
                                                       y.conj().T))
    drop = max(np.count_nonzero(c == 0), np.count_nonzero(mu <= 0))
    lam = 1.0 / mu[drop:][::-1] - sigma
    return _rule(ds, lam, v[:, drop:][:, ::-1], ri_star[0], np.count_nonzero(t == 0), sigma)


def extremal(seq: MomentSequence, m: int | None = None):
    """(S_min, S_max) evaluators for the solution set up to index m.

    Each evaluator sums the partial fractions of its block string.  On the
    right half-line S_min = B D^{-1} (the wall) and S_max = A C^{-1} (the
    free end, with an atom at alpha); the left half-line swaps the two.
    """
    ds = ds_param(seq)   # the gate; each view then takes the index rule
    bd, ac = ExtremalSolution(ds, m, True), ExtremalSolution(ds, m, False)
    return (bd, ac) if ds.side == RIGHT else (ac, bd)


@dataclass(frozen=True)
class WeylInterval:
    x: float
    lower: Array
    upper: Array

    @property
    def gap(self) -> Array:
        return self.upper - self.lower


def weyl_interval(seq: MomentSequence, m: int | None = None,
                  x: float | None = None) -> WeylInterval:
    """[S_min(x), S_max(x)] at a real point x off the half-line.

    x defaults to the free point alpha - side_sign(side), one unit off the
    half-line: alpha - 1 on the right, alpha + 1 on the left.  x follows
    the point rule, and the two extremal values the value rule.  A complex x
    with zero imaginary part is its real part, and a non-real x a ValueError:
    finiteness, then realness, then the cut.
    """
    ds, m = _door(seq, m, 1)
    sign = side_sign(ds.side)
    if x is None:
        x = _free_point(ds.side, ds.alpha)
    elif _point(x).imag:
        raise ValueError(f"point {x} is not real")
    else:
        x = float(_point(x.real, ds))
    s_min, s_max = extremal(seq, m)
    lo, hi = _hermitize(_value(np.array([s_min(x), s_max(x)]), x))
    # values are PD left of alpha on the right half-line, negative definite
    # right of alpha on the left one
    classes = _psd_classes(np.array([sign * lo, sign * hi, hi - lo]))
    if classes[0] != PD or classes[1] != PD:
        raise ArithmeticError("extremal values are not definite; inconsistent inputs")
    if classes[2] != PD:
        raise ArithmeticError("Weyl interval degenerate; inconsistent inputs")
    return WeylInterval(x=x, lower=lo, upper=hi)


def interval_point(seq: MomentSequence, m: int | None, x: float | None, k: Array):
    """Value T = S_max(x) - sqrt(gap) K sqrt(gap) plus a pair realizing it.

    For every K in [0, I] the pair is [phi; psi] = U(x)^{-1} [T; I], so that
    U(x) [phi; psi] = [T; I] and lft_solve gives T back at x.  On the real
    line the J-symmetry of U gives U(x)^{-1} = Jtilde U(x)^* Jtilde, so no
    matrix is inverted and no K is a special case: K = 0 and K = I give
    pairs equivalent to the extremal ones.  x defaults to weyl_interval's
    free point, where the pair is then built; weyl_interval checks x before K.
    """
    ds, m = _door(seq, m, 1)
    q, iv = ds.q, weyl_interval(seq, m, x)
    k = _matrix(k, q, "K")
    if not set(_psd_classes(np.array([k, np.eye(q) - k]))) <= {PD, PSD}:
        raise ValueError("K must satisfy 0 <= K <= I")
    root = sqrt_psd(iv.gap)
    t = _hermitize(iv.upper - root @ k @ root)
    g = resolvent_u(seq, m).inverse_at(iv.x) @ np.vstack([t, np.eye(q)])
    return t, StieltjesPair(kind=CONSTANT, side=ds.side, phi=g[:q], psi=g[q:])


def difference_inverse(seq: MomentSequence, m: int | None = None,
                       z: complex | None = None) -> Array:
    """[S_max(z) - S_min(z)]^{-1} as a sum over the factor chain of (L, M).

    z defaults to weyl_interval's free point, else need only be finite (the
    point rule); the value follows the value rule.  With w = z - alpha (right)
    resp. alpha - z (left), n = half(m), j = half(m - 1), D_k the lower block
    of the chain column [B_k; D_k] and E_k = sum_{i<=k} D_i M_i (chain_d_e):

        -w sum_{k<=n} D_k(z) M_k D_k(conj z)^* + w^2 sum_{k<=j} E_k(z) L_k E_k(conj z)^*

    It is the closed formula -w V_n^T H_n^{-1} V_n + w^2 V_j^T Hshift_j^{-1} V_j,
    V_k(z) = (I; zI; ...; z^k I), through the matrix Christoffel-Darboux
    identity H_n^{-1} = R^* diag(Hhat_k^{-1}) R, block row k of R the monic
    P_k = lead(cs D_k)^{-1} cs(D_k): the weight lead^{-*} Hhat_k^{-1} lead^{-1}
    is M_k, and on the shifted side L_k.  Nothing is inverted.
    """
    ds, m = _door(seq, m)
    z = _free_point(ds.side, ds.alpha) if z is None else _point(z)
    w = side_sign(ds.side) * np.subtract(z, ds.alpha)   # a numpy scalar: w ** 2 overflows to inf
    d, e = chain_d_e(ds)
    out = -w * _weighted_sum(d, ds.m, half(m), z)
    if m >= 1:
        out = out + w ** 2 * _weighted_sum(e, ds.l, half(m - 1), z)
    return _value(out, z)


def _weighted_sum(stack: Array, weights: Array, n: int, z: complex) -> Array:
    """sum_{k<=n} F_k(z) W_k F_k(conj z)^* over a coefficient stack, F_k of degree k."""
    fam = stack[:n + 1, :n + 1]
    powers = np.asarray(z, dtype=complex) ** np.arange(n + 1)
    f_z = np.tensordot(powers, fam, axes=(0, 1))
    f_conj_star = np.tensordot(powers, fam.conj().swapaxes(-1, -2), axes=(0, 1))
    return (f_z @ weights[:n + 1] @ f_conj_star).sum(axis=0)
