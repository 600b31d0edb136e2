"""Linear-fractional solution map, extremal elements and Weyl intervals.

Feeding a constant parameter pair (phi, psi) through the resolvent blocks,
S = (U11 phi + U12 psi)(U21 phi + U22 psi)^{-1}, yields the Stieltjes
transform of a solution of the truncated moment problem.  The trivial
pairs give the two extremal solutions; at a real point x off the half-line
the solution values fill the matrix interval between them exactly, and
each point T of it is reached by the pair U(x)^{-1} [T; I], read off U by
its J-symmetry.  The extremals are the partial fractions of the two block
strings of (L, M), and the inverse of the interval's width is a polynomial
sum over the factor chain of (L, M), with no matrix inverted.  Each entry
opens with params._door (the gate, then m) and reads (L, M) alone after it.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Array, DEFAULT_TOL, NON_HERMITIAN, PD, PSD, _hermitize, _psd_classes, as_matrix, is_psd,
    psd_class, sqrt_psd,
)
from .moments import RIGHT, MomentSequence, derived, freeze, half, matrix_stack, side_sign
from .orthopoly import chain_d_e
from .params import DSParam, _door
from .resolvent import ResolventU, resolvent_u, schur_rotation

CONSTANT = "CONSTANT"
SCHUR_CONSTANT = "SCHUR_CONSTANT"


@dataclass(frozen=True, eq=False)
class StieltjesPair:
    """Constant parameter pair for the linear-fractional transformation.

    CONSTANT pairs (phi, psi) need rank [phi; psi] = q and psi^* phi
    Hermitian with psi^* phi >= 0 on the right half-line (<= 0 on the
    left).  SCHUR_CONSTANT wraps a unitary F with PSD imaginary part; its
    (phi, psi) is set once, here, to sqrt(2) E [F; I] with E the
    schur_rotation of its half-line: (i(I - F), I + F) on the right and
    (-i(I + F), F - I) on the left, so lft_solve of the pair is
    lft_solve_schur(sigma, F).  The side is checked on both kinds.  phi, psi,
    F and stacked, the block column [phi; psi] that lft_solve reads, are held
    read-only by matrix_stack's rule before any check.  Equality is identity.
    """

    kind: str
    side: str = RIGHT
    phi: Array | None = None
    psi: Array | None = None
    f: Array | None = None

    def __post_init__(self):
        if self.kind == CONSTANT:
            phi, psi = _held(self.phi, "phi"), _held(self.psi, "psi")
            g, q = freeze(np.vstack([phi, psi])), len(phi)
            if np.linalg.matrix_rank(g) < q:
                raise ValueError("pair is rank deficient")
            cls = psd_class(side_sign(self.side) * (psi.conj().T @ phi))
            if cls == NON_HERMITIAN:
                raise ValueError("psi^* phi must be Hermitian")
            if cls not in (PD, PSD):
                raise ValueError("psi^* phi has the wrong sign for this half-line")
        elif self.kind == SCHUR_CONSTANT:
            f = _held(self.f, "f")
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
        self.__dict__.update(phi=phi, psi=psi, stacked=g)

    def values(self):
        """(phi, psi) actually fed into the transformation."""
        return self.phi, self.psi


def _held(a, what: str) -> Array:
    """One square matrix or a scalar as a read-only complex matrix (matrix_stack)."""
    a = np.atleast_2d(a)   # no copy of an array
    return matrix_stack(a[None], len(a), what)[0]


def pair_min(q: int, side: str = RIGHT) -> StieltjesPair:
    """(0, I), the pair of the wall extremal B D^{-1}: the lower one on the
    right half-line, the upper one on the left.  side only validates: the
    pair is (0, I) on both half-lines."""
    return StieltjesPair(kind=CONSTANT, side=side, phi=np.zeros((q, q)), psi=np.eye(q))


def pair_max(q: int, side: str = RIGHT) -> StieltjesPair:
    """(I, 0), the pair of the free extremal A C^{-1}: the upper one on the
    right half-line, the lower one on the left.  side only validates."""
    return StieltjesPair(kind=CONSTANT, side=side, phi=np.eye(q), psi=np.zeros((q, q)))


def _free_point(side: str, alpha: float) -> float:
    """The default real point, one unit off the half-line: alpha -+ 1."""
    return alpha - side_sign(side)


def _off_cut(side: str, alpha: float, z: complex) -> bool:
    if z.imag != 0:
        return True
    sign = side_sign(side)
    return sign * z.real < sign * alpha


class SingularDenominator(ValueError):
    """U21 phi + U22 psi singular at the requested point."""


def lft_solve(u: ResolventU, pair: StieltjesPair, z: complex) -> Array:
    """Evaluate the linear-fractional transformation at one point off the cut.

    z is a scalar only.  U(z) [phi; psi] is one product whose two row
    blocks are the numerator U11 phi + U12 psi and the denominator
    D = U21 phi + U22 psi.  D is singular when |det D| < 1e-13
    max(1, ||D||_F^q).  inv(D) is taken first: since |det D| >=
    sigma_min(D)^q >= ||D^{-1}||_F^{-q}, a bound at least 100 times the
    threshold certifies D with no determinant.  Below that, det(D) decides;
    a D that inv cannot factor at all is singular.
    """
    if not _off_cut(u.side, u.alpha, z):
        raise ValueError(f"point {z} lies on the cut of this half-line")
    if len(pair.stacked) != 2 * u.q:
        raise ValueError(f"pair is {len(pair.phi)} x {len(pair.phi)}, U has {u.q} x {u.q} blocks")
    g = u.poly(z) @ pair.stacked
    return _divide(g[:u.q], g[u.q:], "denominator", z)


def lft_solve_schur(sig_poly, f: Array, z: complex, q: int) -> Array:
    """Schur-route transformation S = (S11 F + S12)(S21 F + S22)^{-1},
    with lft_solve's rule for a singular denominator; F must be q x q and
    sigma 2q x 2q."""
    s, f = sig_poly(z), as_matrix(f)
    if f.shape != (q, q) or s.shape != (2 * q, 2 * q):
        raise ValueError(f"Schur parameter {f.shape} and sigma {s.shape} do not fit q={q}")
    num = s[:q, :q] @ f + s[:q, q:]
    den = s[q:, :q] @ f + s[q:, q:]
    return _divide(num, den, "Schur denominator", z)


def _divide(num: Array, den: Array, name: str, z: complex) -> Array:
    """num den^{-1}, or SingularDenominator by the rule of lft_solve."""
    q = den.shape[0]
    threshold = 1e-13 * max(1.0, _frobenius(den) ** q)
    try:
        inv = np.linalg.inv(den)
    except np.linalg.LinAlgError:
        inv = None
    # a NaN bound certifies nothing and falls through to the determinant
    if inv is None or not _frobenius(inv) ** -q >= 100 * threshold:
        if inv is None or abs(np.linalg.det(den)) < threshold:
            raise SingularDenominator(f"{name} singular at z={z}")
    return num @ inv


def _frobenius(a: Array) -> float:
    return np.sqrt(np.vdot(a, a).real)   # np.linalg.norm's wrapper costs more than this


class ExtremalSolution:
    """One extremal solution of the truncated problem up to index m.

    Built from (L, M), it holds the rule, m, bd and q and no sequence.  It
    is the transfer function of the block string of (L, M), which ends
    at a wall for bd=True (the ratio B D^{-1}) and is free, with an atom at
    alpha, for bd=False (A C^{-1}).  A call sums the partial fractions of
    the residue table of string_rule, cached on (L, M).  z is not checked
    against the cut: off the atoms the sum is the Stieltjes transform of
    the extremal's measure, finite on the half-line too, and the callers
    that need a point off it (weyl_interval, the CLI) check it.
    """

    def __init__(self, ds: DSParam, m: int, bd: bool):
        self.m, self.bd, self.q = m, bd, ds.q
        self.atoms, self.residues = string_rule(ds, m, bd)

    def __call__(self, z) -> Array:
        return _partial_fractions(self.atoms, self.residues, z, self.q)


def _partial_fractions(atoms: Array, residues: Array, z, q: int) -> Array:
    """sum_k G_k / (x_k - z) over a (K, q*q) residue table: a q x q value at a
    scalar z, an (N, q, q) stack at N points; z at an atom: SingularDenominator."""
    z = np.asarray(z, dtype=complex)
    gap = atoms - z[..., None]
    if np.count_nonzero(gap) < gap.size:
        raise SingularDenominator(f"an atom lies in z={z}")
    return np.dot(np.reciprocal(gap), residues).reshape(z.shape + (q, q))


@derived
def _string_factors(ds: DSParam) -> Array:
    """inv(chol) of the stack (M_0.., L_0..), which the rules of both ends read."""
    return np.linalg.inv(np.linalg.cholesky(np.concatenate([ds.m, ds.l])))


@derived
def string_rule(ds: DSParam, m: int, wall: bool) -> tuple:
    """Atoms x_k and (K, q*q) residue table G_k of one extremal from (L, M).

    Masses M_j joined by springs L_j: a free end has half(m)+1 masses and
    one spring fewer, a wall end half(m-1)+1 of each, the last spring tied
    to the wall.  With the block difference Delta, M_j = R_j R_j^* and
    L_j = P_j P_j^* (one stacked Cholesky, shared by both ends), T = R^{-1}
    Delta^* diag(L_j^{-1}) Delta R^{-*} = W^* W, W = P^{-1} Delta R^{-*} block
    bidiagonal.  One eigh, T = V diag(lambda) V^*, gives x_k = alpha +- lambda_k
    and G_k = g_k g_k^* with g_k = R_0^{-*} v_k, v_k from the first block row
    of V.  The q rigid motions of a free string (the kernel of W) are one node
    at alpha exactly, with the sum of their residues.  The rule is cached on
    ds, so a DSParam built from (L, M) directly keeps it too.
    """
    q = ds.q
    nm = half(m - 1) + 1 if wall else half(m) + 1
    nl = nm if wall else nm - 1
    inv = _string_factors(ds)
    ri_star, pi = inv[:nm].conj().swapaxes(-1, -2), inv[len(ds.m):len(ds.m) + nl]
    # block (i, k) of W at i nm + k: the diagonal is every (nm+1)-th block from 0
    w = np.zeros((nl * nm, q, q), dtype=complex)
    w[::nm + 1] = pi @ ri_star[:nl]
    w[1::nm + 1] = -pi[:nm - 1] @ ri_star[1:]
    w = w.reshape(nl, nm, q, q).swapaxes(1, 2).reshape(nl * q, nm * q)
    lam, v = np.linalg.eigh(w.conj().T @ w)
    g = np.ascontiguousarray((ri_star[0] @ v[:q]).T)   # so the residue table is C-contiguous
    residues = g[:, :, None] * g.conj()[:, None, :]
    if not wall:   # the q rigid motions: one node at alpha exactly, their residues summed
        lam[q - 1], residues[q - 1] = 0.0, residues[:q].sum(axis=0)
        lam, residues = lam[q - 1:], residues[q - 1:]
    return ds.alpha + side_sign(ds.side) * lam, residues.reshape(-1, q * q)


def extremal(seq: MomentSequence, m: int | None = None):
    """(S_min, S_max) evaluators for the solution set up to index m.

    Each evaluator sums the partial fractions of its block string.  On the
    right half-line S_min = B D^{-1} (the wall) and S_max = A C^{-1} (the
    free end, with an atom at alpha); the left half-line swaps the two.
    """
    ds, m = _door(seq, m, 1)
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
    half-line: alpha - 1 on the right, alpha + 1 on the left.
    """
    ds, m = _door(seq, m, 1)
    sign = side_sign(ds.side)
    x = _free_point(ds.side, ds.alpha) if x is None else float(x)
    if not _off_cut(ds.side, ds.alpha, x):
        raise ValueError(f"x={x} lies on the cut of the {ds.side} half-line")
    s_min, s_max = extremal(seq, m)
    # checked finite and square once, then made Hermitian together
    lo, hi = _hermitize(matrix_stack([s_min(x), s_max(x)], ds.q, "extremal value"))
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
    k = matrix_stack([k], q, "K")[0]
    if not set(_psd_classes(np.array([k, np.eye(q) - k]))) <= {PD, PSD}:
        raise ValueError("K must satisfy 0 <= K <= I")
    root = sqrt_psd(iv.gap)
    t = _hermitize(iv.upper - root @ k @ root)
    g = resolvent_u(seq, m).inverse_at(iv.x) @ np.vstack([t, np.eye(q)])
    return t, StieltjesPair(kind=CONSTANT, side=ds.side, phi=g[:q], psi=g[q:])


def difference_inverse(seq: MomentSequence, m: int | None = None,
                       z: complex | None = None) -> Array:
    """[S_max(z) - S_min(z)]^{-1} as a sum over the factor chain of (L, M).

    z defaults to weyl_interval's free point.  With w = z - alpha (right)
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
    z = _free_point(ds.side, ds.alpha) if z is None else z
    w = side_sign(ds.side) * (z - ds.alpha)
    d, e = chain_d_e(ds)
    out = -w * _weighted_sum(d, ds.m, half(m), z)
    if m >= 1:
        out = out + w ** 2 * _weighted_sum(e, ds.l, half(m - 1), z)
    return out


def _weighted_sum(stack: Array, weights: Array, n: int, z: complex) -> Array:
    """sum_{k<=n} F_k(z) W_k F_k(conj z)^* over a coefficient stack, F_k of degree k."""
    fam = stack[:n + 1, :n + 1]
    powers = np.asarray(z, dtype=complex) ** np.arange(n + 1)
    f_z = np.tensordot(powers, fam, axes=(0, 1))
    f_conj_star = np.tensordot(powers, fam.conj().swapaxes(-1, -2), axes=(0, 1))
    return (f_z @ weights[:n + 1] @ f_conj_star).sum(axis=0)
