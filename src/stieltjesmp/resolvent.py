"""The 2q x 2q resolvent polynomial, its factorization and the Schur rescale.

The four q x q polynomial families (A, B, C, D) are extracted with exact
coefficients by expanding R_n^*(conj z) = sum_k z^k (T_n^k)^*; no sampling
enters the construction of U itself.  The multiplicative chain of constant
upper factors (L blocks) and linear lower factors ((z - alpha) M blocks)
reproduces U, and U * E turns the Stieltjes-pair transformation into a
Schur-class one.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    Array, JTILDE, hermitize, j_defect, min_eig_hermitian_part, ordered_product,
    signature_matrix,
)
from .moments import (
    RIGHT, MomentSequence, block_shift, first_block_column, half,
    require_stieltjes_pd, resolvent_R, u_shift_vector, u_vector,
)
from .orthopoly import MatrixPolynomial, stieltjes_quadruple
from .params import ds_param


@dataclass(frozen=True)
class DyukarevQuadruple:
    """Polynomial families A_0.., B_0.., C_0.., D_0.. with the side tag.

    A_n(alpha) = I, D_n(alpha) = I, B_0 = 0, D_0 = I by construction.
    """

    side: str
    alpha: float
    a: tuple
    b: tuple
    c: tuple
    d: tuple


def _shifted_linear_combo(base: MatrixPolynomial, w_poly: MatrixPolynomial,
                          alpha: float, sign: float) -> MatrixPolynomial:
    """base + sign*(z - alpha)*w_poly as exact coefficients."""
    return base + (w_poly.shift_z() + w_poly.scale(-alpha)).scale(sign)


def _moment_poly(left: Array, mid: Array, right: Array, t: Array,
                 degree: int) -> MatrixPolynomial:
    """Polynomial with coefficients left^* (T^k)^* mid right, k = 0..degree."""
    coeffs = []
    cur = left.copy()
    for _ in range(degree + 1):
        coeffs.append(cur.conj().T @ mid @ right)
        cur = t @ cur
    return MatrixPolynomial(coeffs)


def dyukarev_quadruple(seq: MomentSequence) -> DyukarevQuadruple:
    """The four resolvent block families of a Stieltjes-PD sequence."""
    return seq.dyukarev


def _dyukarev_quadruple(seq: MomentSequence) -> DyukarevQuadruple:
    require_stieltjes_pd(seq)
    pack = seq.pack
    q, alpha = seq.q, seq.alpha
    kappa = seq.kappa
    eye_poly = MatrixPolynomial.constant(np.eye(q))
    d_sign = 1.0 if seq.side == RIGHT else -1.0

    a_list, c_list = [], []
    for n in range(half(kappa) + 1):
        t = block_shift(q, n)
        v = first_block_column(q, n)
        u = u_vector(seq, n)
        mid = pack.h_inv(n) @ resolvent_R(q, n, alpha)
        w_a = _moment_poly(u, mid, v, t, n)
        w_c = _moment_poly(v, mid, v, t, n)
        a_list.append(_shifted_linear_combo(eye_poly, w_a, alpha, 1.0))
        c_list.append(_shifted_linear_combo(eye_poly.scale(0.0), w_c, alpha, -1.0))

    b_list = [MatrixPolynomial.constant(np.zeros((q, q)))]
    d_list = [eye_poly]
    for n in range(1, half(kappa + 1) + 1):
        t = block_shift(q, n - 1)
        v = first_block_column(q, n - 1)
        u_sh = u_shift_vector(seq, n - 1)
        mid = pack.shift.h_inv(n - 1)
        y = pack.y(0, n - 1)
        b_list.append(_moment_poly(u_sh, mid, y, t, n - 1))
        w_d = _moment_poly(v, mid, y, t, n - 1)
        d_list.append(_shifted_linear_combo(eye_poly, w_d, alpha, -d_sign))
    return DyukarevQuadruple(side=seq.side, alpha=alpha, a=tuple(a_list),
                             b=tuple(b_list), c=tuple(c_list), d=tuple(d_list))


@dataclass(frozen=True)
class ResolventU:
    """Block assembly [[A_{half(m)}, B_{half(m+1)}], [C, D]] for index m."""

    m: int
    side: str
    alpha: float
    q: int
    poly: MatrixPolynomial

    def __call__(self, z: complex) -> Array:
        return self.poly(z)

    @cached_property
    def _conj_star(self) -> MatrixPolynomial:
        return self.poly.conj_star()

    def inverse_at(self, z: complex) -> Array:
        """J-symmetry inverse: U^{-1}(z) = Jtilde U^*(conj z) Jtilde."""
        jt = signature_matrix(JTILDE, self.q)
        return jt @ self._conj_star(z) @ jt

    def scaled_evaluator(self):
        """The diagonal rescaling of U, defined off the base point only."""
        a, q, side = self.alpha, self.q, self.side

        def call(z: complex) -> Array:
            w = (z - a) if side == RIGHT else (a - z)
            if w == 0:
                raise ValueError("scaled resolvent undefined at the base point")
            left = np.block([[w * np.eye(q), np.zeros((q, q))],
                             [np.zeros((q, q)), np.eye(q)]])
            right = np.block([[np.eye(q) / w, np.zeros((q, q))],
                              [np.zeros((q, q)), np.eye(q)]])
            return left @ self.poly(z) @ right

        return call


def resolvent_u(seq: MomentSequence, m: int | None = None,
                check: bool = False) -> ResolventU:
    """Block assembly of the resolvent member for index m.

    With check=True the determinant constancy and the J-symmetry of the
    inverse are asserted at 20 random points before returning.
    """
    if m is None:
        m = seq.kappa
    if not 0 <= m <= seq.kappa:
        raise ValueError(f"index m={m} outside 0..kappa={seq.kappa}")
    quad = dyukarev_quadruple(seq)
    poly = MatrixPolynomial.block2x2(quad.a[half(m)], quad.b[half(m + 1)],
                                     quad.c[half(m)], quad.d[half(m + 1)])
    u = ResolventU(m=m, side=seq.side, alpha=seq.alpha, q=seq.q, poly=poly)
    if check:
        rng = np.random.default_rng(0)
        det_ref = np.linalg.det(u(seq.alpha))
        for _ in range(20):
            z = complex(rng.standard_normal(), rng.standard_normal())
            uz = u(z)
            if abs(np.linalg.det(uz) - det_ref) > 1e-8 * (1 + abs(det_ref)):
                raise AssertionError("determinant of the resolvent is not constant")
            ui = np.linalg.inv(uz)
            if np.linalg.norm(ui - u.inverse_at(z)) > 1e-7 * np.linalg.norm(ui):
                raise AssertionError("J-symmetry of the resolvent inverse violated")
    return u


def u_from_quadruple_polynomials(seq: MomentSequence, m: int) -> ResolventU:
    """Alternative route to U through the orthogonal-system quadruple.

    Right half-line:
        A = cs(Phat_n) Phat_n(a)^{-*}      B = -cs(P2_{k}) P_{k}(a)^{-*}
        C = -(z-a) cs(Psh_n) Phat_n(a)^{-*}  D = cs(P_{k}) P_{k}(a)^{-*}
    with n = half(m), k = half(m+1) and cs(P)(z) = [P(conj z)]^*.  On the
    left half-line C carries -(a-z) instead.
    """
    if not 0 <= m <= seq.kappa:
        raise ValueError(f"index m={m} outside 0..kappa={seq.kappa}")
    quad = stieltjes_quadruple(seq)
    a = seq.alpha
    q = seq.q
    n, k = half(m), half(m + 1)

    phat_inv_star = np.linalg.inv(quad.phat[n](a)).conj().T
    p_inv_star = np.linalg.inv(quad.p[k](a)).conj().T

    a_poly = quad.phat[n].conj_star().rmul(phat_inv_star)
    b_poly = quad.second[k].conj_star().rmul(p_inv_star).scale(-1.0)
    d_poly = quad.p[k].conj_star().rmul(p_inv_star)
    base = quad.p_shift[n].conj_star().rmul(phat_inv_star)
    sign = -1.0 if seq.side == RIGHT else 1.0
    c_poly = (base.shift_z() + base.scale(-a)).scale(sign)
    poly = MatrixPolynomial.block2x2(a_poly, b_poly, c_poly, d_poly)
    return ResolventU(m=m, side=seq.side, alpha=a, q=q, poly=poly)


@dataclass(frozen=True)
class FactorChain:
    """Linear factors W_0..W_m whose ordered product is U_m."""

    side: str
    alpha: float
    q: int
    factors: tuple

    def product(self) -> MatrixPolynomial:
        out = self.factors[0]
        for w in self.factors[1:]:
            out = out.matmul(w)
        return out

    def __call__(self, z: complex) -> Array:
        out = self.factors[0](z)
        for w in self.factors[1:]:
            out = out @ w(z)
        return out


def factorize_u(seq: MomentSequence, m: int | None = None) -> FactorChain:
    """Multiplicative chain: even factors carry (alpha-z)M, odd carry L.

    W_{2n}(z) = [[I, 0], [(alpha-z) M_n, I]] on both half-lines;
    W_{2n+1} = [[I, L_n], [0, I]] on the right, with -L_n on the left.
    """
    if m is None:
        m = seq.kappa
    if not 0 <= m <= seq.kappa:
        raise ValueError(f"index m={m} outside 0..kappa={seq.kappa}")
    ds = ds_param(seq)
    q, alpha = seq.q, seq.alpha
    eye = np.eye(q)
    zero = np.zeros((q, q))
    sgn = 1.0 if seq.side == RIGHT else -1.0

    factors = []
    for j in range(m + 1):
        n = j // 2
        if j % 2 == 0:
            c0 = np.block([[eye, zero], [alpha * np.asarray(ds.m[n]), eye]])
            c1 = np.block([[zero, zero], [-np.asarray(ds.m[n]), zero]])
            factors.append(MatrixPolynomial([c0, c1]))
        else:
            factors.append(MatrixPolynomial.constant(
                np.block([[eye, sgn * np.asarray(ds.l[n])], [zero, eye]])))
    return FactorChain(side=seq.side, alpha=alpha, q=q, factors=tuple(factors))


def leading_terms(seq: MomentSequence, m: int | None = None) -> dict:
    """Top and bottom coefficients of A, B, C, D in powers of w.

    w = z - alpha on the right half-line, w = alpha - z on the left.  For
    A, B, D "low" is the constant term; C has no constant term, so its
    "low" is the coefficient of w.  Closed products in (L, M) throughout.
    """
    if m is None:
        m = seq.kappa
    ds = ds_param(seq)
    q = seq.q
    eye = np.eye(q, dtype=complex)
    ls, ms = ds.l, ds.m
    right = seq.side == RIGHT
    n_ac, n_bd = half(m), half(m + 1)

    n = n_ac
    lm = ordered_product((ls[j] @ ms[j + 1] for j in range(n)), q)
    a_lead = ((-1.0) ** n) * lm
    c_lead = ((-1.0) ** (n + 1)) * ms[0] @ lm
    c_low = -sum(ms[j] for j in range(n + 1))
    if not right:
        c_lead, c_low = -c_lead, -c_low

    k = n_bd
    if k == 0:
        b_lead = b_low = np.zeros((q, q), dtype=complex)
        d_lead, d_low = eye.copy(), eye.copy()
        b_deg, d_deg = -1, 0
    else:
        ml = ordered_product((ms[j] @ ls[j] for j in range(1, k)), q)
        b_lead = ((-1.0) ** (k - 1)) * ls[0] @ ml
        b_low = sum(ls[j] for j in range(k))
        d_lead = ((-1.0) ** k) * ordered_product((ms[j] @ ls[j] for j in range(k)), q)
        d_low = eye.copy()
        if not right:
            b_lead, b_low = -b_lead, -b_low
        b_deg, d_deg = k - 1, k
    return {
        "variable": "z-alpha" if right else "alpha-z",
        "A": {"degree": n_ac, "leading": a_lead, "low": eye.copy()},
        "B": {"degree": b_deg, "leading": b_lead, "low": b_low},
        "C": {"degree": n_ac + 1, "leading": c_lead, "low": c_low},
        "D": {"degree": d_deg, "leading": d_lead, "low": d_low},
    }


def coupling_builders(seq: MomentSequence, n: int) -> dict:
    """Diagnostic access to the internal coupling machinery (right side).

    Returns evaluators for the two 2q x 2q fundamental-matrix functions
    ("v_even" at Hankel index n, "v_odd" at shifted index n) and the two
    constant coupling triangles ("m_const", "m_tilde").  Their products
    reproduce the resolvent members: v_even(z) @ m_const(n) is the
    odd-index resolvent, v_even(z) @ m_const(n-1) the even-index one.
    Not part of the solver API; exposed for structural testing only.
    """
    if seq.side != RIGHT:
        raise ValueError("coupling diagnostics are implemented for the right side")
    pack = seq.pack
    q, alpha = seq.q, seq.alpha
    eye2 = np.eye(2 * q)

    def v_even(z: complex) -> Array:
        v = first_block_column(q, n)
        u = u_vector(seq, n)
        r_star = resolvent_R(q, n, np.conj(z)).conj().T
        mid = pack.h_inv(n) @ resolvent_R(q, n, alpha)
        left = np.hstack([u, -v]).conj().T
        right = np.hstack([v, u])
        return eye2 + (z - alpha) * left @ r_star @ mid @ right

    def v_odd(z: complex) -> Array:
        v = first_block_column(q, n)
        u_sh = u_shift_vector(seq, n)
        r_star = resolvent_R(q, n, np.conj(z)).conj().T
        mid = pack.shift.h_inv(n) @ resolvent_R(q, n, alpha)
        left = np.hstack([u_sh, -v]).conj().T
        right = np.hstack([v, u_sh])
        return eye2 + (z - alpha) * left @ r_star @ mid @ right

    def m_const(k: int) -> Array:
        y = pack.y(0, k)
        corner = y.conj().T @ pack.shift.h_inv(k) @ y
        return np.block([[np.eye(q), corner],
                         [np.zeros((q, q)), np.eye(q)]])

    def m_tilde(k: int) -> Array:
        r_alpha = resolvent_R(q, k, alpha)
        v = first_block_column(q, k)
        corner = -v.conj().T @ r_alpha.conj().T @ pack.h_inv(k) @ r_alpha @ v
        return np.block([[np.eye(q), np.zeros((q, q))],
                         [corner, np.eye(q)]])

    return {"v_even": v_even, "v_odd": v_odd, "m_const": m_const, "m_tilde": m_tilde}


def schur_rotation(q: int, side: str = RIGHT) -> Array:
    """Constant unitary E with j_qq = E^* Jtilde E; right and left variants.

    The left variant differs from the right one only by the sign pattern
    of the lower row; both are fixed so the j_qq identity actually holds
    (a harmless column sign normalizes the usual left-side convention).
    """
    eye = np.eye(q)
    if side == RIGHT:
        return np.block([[-1j * eye, 1j * eye], [eye, eye]]) / np.sqrt(2.0)
    return np.block([[-1j * eye, -1j * eye], [eye, -eye]]) / np.sqrt(2.0)


def sigma(seq: MomentSequence, m: int | None = None) -> MatrixPolynomial:
    """Sigma = U * E: the generator of the Schur-class parametrization."""
    return resolvent_u(seq, m).poly.rmul(schur_rotation(seq.q, seq.side))


@dataclass(frozen=True)
class JInnerReport:
    max_real_defect: float
    min_upper_eig: float
    samples: tuple

    @property
    def passed(self) -> bool:
        return self.max_real_defect < 1e-8 and self.min_upper_eig > -1e-8


def j_inner_check(u, z_samples, q: int) -> JInnerReport:
    """Defect Jtilde - U(z)^* Jtilde U(z) over the samples.

    Upper half-plane samples must give a PSD defect, real samples a
    vanishing one.  `u` is anything callable at a complex point.
    """
    jt = signature_matrix(JTILDE, q)
    rows = []
    max_real = 0.0
    min_eig = np.inf
    for z in z_samples:
        defect = j_defect(jt, u(z))
        if abs(z.imag) < 1e-14:
            max_real = max(max_real, float(np.linalg.norm(defect)))
            rows.append((z, "real", float(np.linalg.norm(defect))))
        elif z.imag > 0:
            lam = min_eig_hermitian_part(hermitize(defect))
            min_eig = min(min_eig, lam)
            rows.append((z, "upper", lam))
        else:
            rows.append((z, "lower", float("nan")))
    if min_eig is np.inf:
        min_eig = 0.0
    return JInnerReport(max_real_defect=max_real, min_upper_eig=float(min_eig),
                        samples=tuple(rows))
