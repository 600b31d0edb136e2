"""Linear-fractional solution map, extremal elements and Weyl intervals.

Feeding a constant parameter pair (phi, psi) through the resolvent blocks,
S = (U11 phi + U12 psi)(U21 phi + U22 psi)^{-1}, yields the Stieltjes
transform of a solution of the truncated moment problem.  The trivial
pairs give the two extremal solutions; at a real point off the half-line
the solution values fill the matrix interval between them exactly.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    Array, DEFAULT_TOL, PD, _psd_classes, as_matrix, hermitize, is_pd, is_psd, sqrt_psd,
)
from .moments import (
    LEFT, RIGHT, MomentSequence, block_shift, column_E, first_block_column, freeze,
    half, matrix_stack, require_stieltjes_pd,
)
from .orthopoly import MatrixPolynomial, stieltjes_quadruple
from .resolvent import ResolventU, dyukarev_quadruple

CONSTANT = "CONSTANT"
SCHUR_CONSTANT = "SCHUR_CONSTANT"


@dataclass(frozen=True)
class StieltjesPair:
    """Constant parameter pair for the linear-fractional transformation.

    CONSTANT pairs (phi, psi) need rank [phi; psi] = q and psi^* phi
    Hermitian with psi^* phi >= 0 on the right half-line (<= 0 on the
    left).  SCHUR_CONSTANT wraps a unitary F with PSD imaginary part and
    is mapped to (i(I - F), I + F) before use.
    """

    kind: str
    side: str = RIGHT
    phi: Array | None = None
    psi: Array | None = None
    f: Array | None = None

    def __post_init__(self):
        if self.kind == CONSTANT:
            phi, psi = as_matrix(self.phi), as_matrix(self.psi)
            q = phi.shape[0]
            if np.linalg.matrix_rank(np.vstack([phi, psi])) < q:
                raise ValueError("pair is rank deficient")
            cross = psi.conj().T @ phi
            if np.linalg.norm(cross - cross.conj().T) \
                    > DEFAULT_TOL.herm_tol * (1 + np.linalg.norm(cross)):
                raise ValueError("psi^* phi must be Hermitian")
            semidef = cross if self.side == RIGHT else -cross
            if not is_psd(semidef):
                raise ValueError("psi^* phi has the wrong sign for this half-line")
            object.__setattr__(self, "phi", phi)
            object.__setattr__(self, "psi", psi)
        elif self.kind == SCHUR_CONSTANT:
            f = as_matrix(self.f)
            q = f.shape[0]
            if np.linalg.norm(f.conj().T @ f - np.eye(q)) > DEFAULT_TOL.identity_tol * q:
                raise ValueError("Schur parameter must be unitary")
            if not is_psd((f - f.conj().T) / 2j):
                raise ValueError("Schur parameter needs PSD imaginary part")
            object.__setattr__(self, "f", f)
        else:
            raise ValueError(f"unknown pair kind: {self.kind}")

    def values(self):
        """(phi, psi) actually fed into the transformation."""
        if self.kind == CONSTANT:
            return self.phi, self.psi
        q = self.f.shape[0]
        return 1j * (np.eye(q) - self.f), np.eye(q) + self.f

    @cached_property
    def stacked(self) -> Array:
        """[phi; psi] as one 2q x q block column, read-only."""
        return freeze(np.vstack(self.values()).astype(complex))


def pair_min(q: int, side: str = RIGHT) -> StieltjesPair:
    """(0, I): the pair generating the lower extremal on the right half-line."""
    return StieltjesPair(kind=CONSTANT, side=side, phi=np.zeros((q, q)), psi=np.eye(q))


def pair_max(q: int, side: str = RIGHT) -> StieltjesPair:
    """(I, 0): the pair generating the upper extremal on the right half-line."""
    return StieltjesPair(kind=CONSTANT, side=side, phi=np.eye(q), psi=np.zeros((q, q)))


def _off_cut(side: str, alpha: float, z: complex) -> bool:
    if z.imag != 0:
        return True
    return z.real < alpha if side == RIGHT else z.real > alpha


class SingularDenominator(ValueError):
    """U21 phi + U22 psi singular at the requested point."""


def lft_solve(u: ResolventU, pair: StieltjesPair, z: complex) -> Array:
    """Evaluate the linear-fractional transformation at one point off the cut.

    z is a scalar only.  U(z) [phi; psi] is one product whose two row
    blocks are the numerator U11 phi + U12 psi and the denominator
    U21 phi + U22 psi.
    """
    if not _off_cut(u.side, u.alpha, z):
        raise ValueError(f"point {z} lies on the cut of this half-line")
    g = u.poly(z) @ pair.stacked
    num, den = g[:u.q], g[u.q:]
    dets = np.linalg.det(den)
    if abs(dets) < 1e-13 * max(1.0, np.linalg.norm(den) ** den.shape[0]):
        raise SingularDenominator(f"denominator singular at z={z}")
    return num @ np.linalg.inv(den)


def lft_solve_schur(sig_poly, f: Array, z: complex, q: int) -> Array:
    """Schur-route transformation S = (S11 F + S12)(S21 F + S22)^{-1}."""
    s = sig_poly(z)
    f = as_matrix(f)
    num = s[:q, :q] @ f + s[:q, q:]
    den = s[q:, :q] @ f + s[q:, q:]
    if abs(np.linalg.det(den)) < 1e-13:
        raise SingularDenominator(f"Schur denominator singular at z={z}")
    return num @ np.linalg.inv(den)


class ExtremalSolution:
    """One extremal solution of the truncated problem up to index m.

    Calling it evaluates the quadruple ratio B D^{-1} (bd=True) resp.
    A C^{-1} of the cached Dyukarev quadruple; that is the one production
    route.  Numerator and denominator are one 2q x q polynomial [B; D]
    resp. [A; C], so a call is one polynomial evaluation and one inverse.
    z may be a scalar (a q x q value) or a 1-D array of N points (an
    (N, q, q) stack).  The resolvent-pencil closed form and the
    orthogonal-polynomial quotient are oracles only: `routes` builds them
    the first time it is read, and `route_spread` reports how far they are
    from the quadruple ratio.
    """

    def __init__(self, seq: MomentSequence, m: int, bd: bool):
        self.seq, self.m, self.bd = seq, m, bd
        self.side, self.alpha = seq.side, seq.alpha
        dq = dyukarev_quadruple(seq)
        n = half(m + 1) if bd else half(m)
        num, den = (dq.b[n], dq.d[n]) if bd else (dq.a[n], dq.c[n])
        self._ratio = MatrixPolynomial(
            [np.vstack([num.coeff(j), den.coeff(j)])
             for j in range(max(len(num.coeffs), len(den.coeffs)))])

    def __call__(self, z) -> Array:
        g, q = self._ratio(z), self.seq.q
        return g[..., :q, :] @ np.linalg.inv(g[..., q:, :])

    @cached_property
    def routes(self) -> dict:
        """The quadruple ratio and the two oracle routes, by name."""
        pencil = _pencil_y(self.seq, self.m) if self.bd else _pencil_v(self.seq, self.m)
        return {"quadruple": self, "pencil": pencil,
                "polynomial": _quotient(self.seq, self.m, self.bd)}

    def route_spread(self, z: complex) -> float:
        vals = [r(z) for r in self.routes.values()]
        return max(float(np.linalg.norm(v - vals[0])) for v in vals[1:])


def _pencil_y(seq: MomentSequence, m: int):
    """Closed form y^* [Hshift - (z-a) H]^{-1} y of the B D^{-1} extremal
    (left half-line: y^* [(a-z) H - Hshift]^{-1} y), at index half(m-1)."""
    pack, a = seq.pack, seq.alpha
    n = half(m - 1)
    h, h_sh, y = pack.h(n), pack.h_shift(n), pack.y(0, n)

    def pencil(z):
        if seq.side == RIGHT:
            return y.conj().T @ np.linalg.inv(h_sh - (z - a) * h) @ y
        return y.conj().T @ np.linalg.inv((a - z) * h - h_sh) @ y
    return pencil


def _pencil_v(seq: MomentSequence, m: int):
    """Closed form of the A C^{-1} extremal through the corner-padded
    shifted Hankel block at index half(m)."""
    pack, q, a = seq.pack, seq.q, seq.alpha
    n = half(m)
    t = block_shift(q, n)
    v = first_block_column(q, n)
    r_alpha_inv = np.eye((n + 1) * q) - a * t
    if 2 * n == m:
        sh = seq.shifted
        pad = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
        if n >= 1:
            pad[:n * q, :n * q] = pack.h_shift(n - 1)
            pad[:n * q, n * q:] = np.vstack([sh[j] for j in range(n, 2 * n)])
            pad[n * q:, :n * q] = np.hstack([sh[j] for j in range(n, 2 * n)])
        h_sh = pad
    else:
        h_sh = pack.h_shift(n)
    core = t @ h_sh @ t.conj().T
    hh = r_alpha_inv @ pack.h(n) @ r_alpha_inv.conj().T
    right = seq.side == RIGHT

    def pencil(z):
        w = (z - a) if right else (a - z)
        mat = core - hh / w
        return (1.0 if right else -1.0) * np.linalg.inv(v.conj().T @ np.linalg.inv(mat) @ v)
    return pencil


def _quotient(seq: MomentSequence, m: int, bd: bool):
    """Orthogonal-polynomial quotient of the conjugated families."""
    quad, a = stieltjes_quadruple(seq), seq.alpha
    if bd:
        p_cs = quad.p[half(m + 1)].conj_star()
        p2_cs = quad.second[half(m + 1)].conj_star()
        return lambda z: -p2_cs(z) @ np.linalg.inv(p_cs(z))
    psh_cs = quad.p_shift[half(m)].conj_star()
    phat_cs = quad.phat[half(m)].conj_star()
    sign = -1.0 if seq.side == RIGHT else 1.0
    return lambda z: (sign / (z - a)) * phat_cs(z) @ np.linalg.inv(psh_cs(z))


def extremal(seq: MomentSequence, m: int | None = None):
    """(S_min, S_max) evaluators for the solution set up to index m.

    Each evaluator computes the quadruple ratio; its `routes` and
    `route_spread` give the resolvent-pencil and orthogonal-polynomial
    routes as cross-checks.  On the right half-line S_min = B D^{-1} and
    S_max = A C^{-1}; the left half-line swaps the two.
    """
    require_stieltjes_pd(seq)
    if m is None:
        m = seq.kappa
    if not 1 <= m <= seq.kappa:
        raise ValueError(f"index m={m} outside 1..kappa={seq.kappa}")
    bd, ac = ExtremalSolution(seq, m, True), ExtremalSolution(seq, m, False)
    return (bd, ac) if seq.side == RIGHT else (ac, bd)


@dataclass(frozen=True)
class WeylInterval:
    x: float
    lower: Array
    upper: Array

    @property
    def gap(self) -> Array:
        return self.upper - self.lower


def weyl_interval(seq: MomentSequence, m: int | None = None, x: float = -1.0) -> WeylInterval:
    """[S_min(x), S_max(x)] at a real point on the free side of the line."""
    if m is None:
        m = seq.kappa
    if seq.side == RIGHT and not x < seq.alpha:
        raise ValueError("x must lie strictly left of alpha on the right half-line")
    if seq.side == LEFT and not x > seq.alpha:
        raise ValueError("x must lie strictly right of alpha on the left half-line")
    s_min, s_max = extremal(seq, m)
    lo, hi = hermitize(s_min(x)), hermitize(s_max(x))
    # values are PD left of alpha on the right half-line, negative definite
    # right of alpha on the left one
    sign = 1.0 if seq.side == RIGHT else -1.0
    values = matrix_stack([sign * lo, sign * hi, hi - lo], seq.q, "extremal value")
    classes = _psd_classes(values, DEFAULT_TOL)
    if classes[0] != PD or classes[1] != PD:
        raise AssertionError("extremal values are not definite; inconsistent inputs")
    if classes[2] != PD:
        raise AssertionError("Weyl interval degenerate; inconsistent inputs")
    return WeylInterval(x=float(x), lower=lo, upper=hi)


def interval_point(seq: MomentSequence, m: int | None, x: float, k: Array):
    """Value T = S_max(x) - sqrt(gap) K sqrt(gap) plus a pair realizing it.

    For PD K the returned constant pair reproduces T through lft_solve at
    x; for boundary K the matching extremal pair is returned instead.
    """
    k = as_matrix(k)
    q = seq.q
    if not (is_psd(k) and is_psd(np.eye(q) - k)):
        raise ValueError("K must satisfy 0 <= K <= I")
    if m is None:
        m = seq.kappa
    iv = weyl_interval(seq, m, x)
    root = sqrt_psd(iv.gap)
    t = hermitize(iv.upper - root @ k @ root)

    pair = None
    if np.allclose(k, 0.0, atol=DEFAULT_TOL.identity_tol):
        t = iv.upper
        pair = pair_max(q, seq.side) if seq.side == RIGHT else pair_min(q, seq.side)
    elif np.allclose(k, np.eye(q), atol=DEFAULT_TOL.identity_tol):
        t = iv.lower
        pair = pair_min(q, seq.side) if seq.side == RIGHT else pair_max(q, seq.side)
    elif is_pd(k):
        dq = dyukarev_quadruple(seq)
        gap_inv_root = np.linalg.inv(root)
        c_x = dq.c[half(m)](x)
        c_inv = np.linalg.inv(c_x)
        if seq.side == RIGHT:
            mid = gap_inv_root @ (np.linalg.inv(k) - np.eye(q)) @ gap_inv_root
            w = c_inv @ mid @ c_inv.conj().T
            pair = StieltjesPair(kind=CONSTANT, side=seq.side,
                                 phi=hermitize(w), psi=np.eye(q))
        elif is_pd(np.eye(q) - k):
            mid = gap_inv_root @ (np.linalg.inv(np.eye(q) - k) @ k) @ gap_inv_root
            w = c_inv @ hermitize(mid) @ c_inv.conj().T
            pair = StieltjesPair(kind=CONSTANT, side=seq.side,
                                 phi=-hermitize(w), psi=np.eye(q))
    return t, pair


def difference_inverse(seq: MomentSequence, m: int | None = None,
                       z: complex = -1.0) -> Array:
    """Closed polynomial formula for [S_max(z) - S_min(z)]^{-1}.

    With w = z - alpha (right) resp. alpha - z (left) and n = half(m):

        -w v_n^* R_n^*(conj z) H_n^{-1} R_n(z) v_n
        + w^2 v_j^* R_j^*(conj z) Hshift_j^{-1} R_j(z) v_j

    where j = n for odd m and j = n - 1 for even m, matching the two
    cases in the underlying proof.
    """
    if m is None:
        m = seq.kappa
    require_stieltjes_pd(seq)
    pack = seq.pack
    q, a = seq.q, seq.alpha
    w = (z - a) if seq.side == RIGHT else (a - z)
    n = half(m)
    j = n if m % 2 == 1 else n - 1

    # R_k(z) v_k = E_k(z), and v_k^* R_k^*(conj z) = E_k(conj z)^* = E_k(z)^T
    e_n = column_E(q, n, z)
    term1 = -w * (e_n.T @ pack.h_inv(n) @ e_n)
    if j < 0:
        return term1
    e_j = column_E(q, j, z)
    term2 = (w ** 2) * (e_j.T @ pack.shift.h_inv(j) @ e_j)
    return term1 + term2


def reflect_solution(s_eval):
    """Map a solution evaluator to the mirrored half-line: S~(z) = -S(-z)."""
    def mirrored(z: complex) -> Array:
        return -s_eval(-z)
    return mirrored
