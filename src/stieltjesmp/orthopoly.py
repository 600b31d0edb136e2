"""Matrix polynomials and the orthogonal systems attached to a sequence.

Polynomials carry their coefficients as a degree-indexed list of matrices
(coeffs[j] multiplies z^j).  The monic left-orthogonal system, the second
kind system, the shifted system and the associated polynomials of the
shifted system form the quadruple that rebuilds the resolvent blocks.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import Array, DEFAULT_TOL, _all_pd, is_pd, ordered_product
from .moments import (
    RIGHT, HankelPack, MomentSequence, freeze, half, lower_triangular_S,
    require_stieltjes_pd,
)

MONIC = "MONIC"
GENERAL = "GENERAL"


class MatrixPolynomial:
    """P(z) = sum_j z^j coeffs[j] with q_rows x q_cols matrix coefficients.

    Coefficients are taken as given (numpy matrices, not validated); trailing
    coefficients that are exactly zero are trimmed.
    """

    def __init__(self, coeffs, trim: bool = True):
        mats = list(coeffs)
        if not mats:
            raise ValueError("need at least one coefficient")
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise ValueError("coefficient shapes differ")
        if trim:
            while len(mats) > 1 and not mats[-1].any():
                mats.pop()
        self.coeffs = tuple(mats)
        self.q_rows, self.q_cols = shape

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and not self.coeffs[0].any():
            return -1
        return len(self.coeffs) - 1

    @cached_property
    def _stacked(self) -> tuple:
        """Exponents 0..degree (complex, so no cast per call) and the
        coefficients as one (degree+1, rows*cols) complex array."""
        flat = np.array(self.coeffs, dtype=complex).reshape(len(self.coeffs), -1)
        return freeze((np.arange(len(flat), dtype=complex), flat))

    def __call__(self, z) -> Array:
        """P(z) as one product of the powers of z with the stacked coefficients.

        A scalar z gives a complex (rows, cols) matrix; a 1-D array of N
        points gives the (N, rows, cols) stack of values.
        """
        z = np.asarray(z, dtype=complex)
        exponents, flat = self._stacked
        return ((z[..., None] ** exponents) @ flat).reshape(z.shape + (self.q_rows, self.q_cols))

    def __add__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = np.zeros((self.q_rows, self.q_cols), dtype=complex)
        cs = [(self.coeffs[j] if j < len(self.coeffs) else zero)
              + (other.coeffs[j] if j < len(other.coeffs) else zero) for j in range(n)]
        return MatrixPolynomial(cs)

    def __sub__(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "MatrixPolynomial":
        return MatrixPolynomial([c * m for m in self.coeffs])

    def lmul(self, mat: Array) -> "MatrixPolynomial":
        return MatrixPolynomial([mat @ c for c in self.coeffs])

    def rmul(self, mat: Array) -> "MatrixPolynomial":
        return MatrixPolynomial([c @ mat for c in self.coeffs])

    def matmul(self, other: "MatrixPolynomial") -> "MatrixPolynomial":
        """Polynomial product (self * other), coefficients convolved."""
        zero = np.zeros((self.q_rows, other.q_cols), dtype=complex)
        out = [zero.copy() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for j, cj in enumerate(self.coeffs):
            for k, ck in enumerate(other.coeffs):
                out[j + k] = out[j + k] + cj @ ck
        return MatrixPolynomial(out)

    def shift_z(self) -> "MatrixPolynomial":
        """Multiply by z."""
        zero = np.zeros((self.q_rows, self.q_cols), dtype=complex)
        return MatrixPolynomial([zero] + [c.copy() for c in self.coeffs], trim=False)

    def conj_star(self) -> "MatrixPolynomial":
        """Polynomial z -> [P(conj(z))]^*: conjugate-transpose coefficients."""
        return MatrixPolynomial([c.conj().T for c in self.coeffs])

    def compose_affine(self, a: complex, b: complex) -> "MatrixPolynomial":
        """Coefficients of w -> P(a + b w); used to expand around alpha."""
        zero = np.zeros((self.q_rows, self.q_cols), dtype=complex)
        out = MatrixPolynomial([zero])
        for c in reversed(self.coeffs):
            # out <- out*(a + b w) + c, Horner in the new variable
            shifted = out.scale(b).shift_z() + out.scale(a)
            out = shifted + MatrixPolynomial([c])
        return out

    def coeff(self, j: int) -> Array:
        if j < len(self.coeffs):
            return self.coeffs[j].copy()
        return np.zeros((self.q_rows, self.q_cols), dtype=complex)

    @staticmethod
    def constant(mat: Array) -> "MatrixPolynomial":
        return MatrixPolynomial([mat])

    @staticmethod
    def from_coeff_row(row: Array, q_rows: int, q_cols: int) -> "MatrixPolynomial":
        """Split a block row (C_0 C_1 ... C_k) into a polynomial."""
        k = row.shape[1] // q_cols
        return MatrixPolynomial([row[:, j * q_cols:(j + 1) * q_cols] for j in range(k)])

    @staticmethod
    def block2x2(p11, p12, p21, p22) -> "MatrixPolynomial":
        """Assemble four q x q polynomials into one 2q x 2q polynomial."""
        rows, cols = p11.q_rows, p11.q_cols
        out = np.zeros((max(len(p.coeffs) for p in (p11, p12, p21, p22)),
                        rows + p21.q_rows, cols + p12.q_cols), dtype=complex)
        for p, r, c in ((p11, 0, 0), (p12, 0, cols), (p21, rows, 0), (p22, rows, cols)):
            out[:len(p.coeffs), r:r + p.q_rows, c:c + p.q_cols] = p.coeffs
        return MatrixPolynomial(out)


def _require_hankel_pd_prefix(pack: HankelPack, up_to: int):
    # all Schur complements PD is equivalent to the Hankel block being PD
    # and is far better scaled numerically
    if not _all_pd(np.array(pack.hhats[:up_to + 1]), DEFAULT_TOL):
        raise ValueError("Hankel-PD prefix required")


def monic_orthogonal_system(seq: MomentSequence) -> list:
    """Monic left-orthogonal polynomials P_0..P_{half(kappa+1)}.

    Coefficient rows are (-z_{n,2n-1} H_{n-1}^{-1}  I); the same system
    also satisfies the three-term Favard recursion, which the tests
    cross-check.
    """
    pack = seq.pack
    kappa = seq.kappa
    top = half(kappa + 1)
    if kappa >= 1:
        _require_hankel_pd_prefix(pack, half(kappa - 1))
    q = seq.q
    out = [MatrixPolynomial.constant(np.eye(q))]
    for n in range(1, top + 1):
        row = np.hstack([-pack.z(n, 2 * n - 1) @ pack.h_inv(n - 1), np.eye(q)])
        out.append(MatrixPolynomial.from_coeff_row(row, q, q))
    return out


def second_kind_system(seq: MomentSequence) -> list:
    """Second kind system: P_0 = 0, deg P_n = n-1 afterwards."""
    return [associated_polynomial(seq, p) for p in monic_orthogonal_system(seq)]


def associated_polynomial(seq: MomentSequence, p: MatrixPolynomial) -> MatrixPolynomial:
    """Polynomial attached to P through the lower Toeplitz matrix of the moments.

    For deg P = k >= 1 the coefficient row is
    (P^[0] ... P^[k]) (0_{q x kq}; S_{k-1}); for k <= 0 the zero polynomial.
    """
    q = seq.q
    k = p.degree
    if k <= 0:
        return MatrixPolynomial.constant(np.zeros((q, q)))
    if k - 1 > seq.kappa:
        raise ValueError("sequence too short for the associated polynomial")
    row = np.hstack([p.coeff(j) for j in range(k + 1)])
    toeplitz = np.vstack([np.zeros((q, k * q)), lower_triangular_S(seq, k - 1)])
    return MatrixPolynomial.from_coeff_row(row @ toeplitz, q, q)


@dataclass(frozen=True)
class StieltjesQuadruple:
    """First kind / second kind / shifted / associated-shifted systems."""

    side: str
    alpha: float
    p: tuple
    second: tuple
    p_shift: tuple
    phat: tuple


def stieltjes_quadruple(seq: MomentSequence) -> StieltjesQuadruple:
    """All four polynomial families of a Stieltjes-PD sequence.

    phat[n] is the polynomial attached (w.r.t. the base sequence) to
    (z - alpha) P_shift_n(z) on the right half-line and to
    (alpha - z) P_shift_n(z) on the left one.  The shift identity

        (z - alpha) P_shift_n(z) = P_{n+1}(z) + Hhat_shift_n Hhat_n^{-1} P_n(z)

    (sign-mirrored on the left) is verified at random points when the
    quadruple is first built; the result is cached on the sequence.
    """
    return seq.quadruple


def _stieltjes_quadruple(seq: MomentSequence) -> StieltjesQuadruple:
    require_stieltjes_pd(seq)
    q, a = seq.q, seq.alpha
    p = monic_orthogonal_system(seq)
    second = [associated_polynomial(seq, pn) for pn in p]
    p_shift = monic_orthogonal_system(seq.shifted)

    eye = np.eye(q)
    factor = MatrixPolynomial([-a * eye, eye]) if seq.side == RIGHT \
        else MatrixPolynomial([a * eye, -eye])
    phat = tuple(associated_polynomial(seq, factor.matmul(pn)) for pn in p_shift)

    pack = seq.pack
    rng = np.random.default_rng(7)
    sgn = 1.0 if seq.side == RIGHT else -1.0
    for n in range(min(half(seq.kappa - 1) + 1, len(p) - 1)):
        coupling = pack.shift.hhat(n) @ np.linalg.inv(pack.hhat(n))
        z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        lhs = (z - a)[:, None, None] * p_shift[n](z)
        term = sgn * coupling @ p[n](z)
        rhs = p[n + 1](z) + term
        defect, lhs_n, term_n, rhs_n = (np.linalg.norm(x, axis=(1, 2))
                                        for x in (lhs - rhs, lhs, term, rhs))
        # guards against construction bugs; conditioning-induced noise
        # on extreme fixtures must not trip it
        if np.any(defect > 1e-6 * (1 + lhs_n + term_n + rhs_n)):
            raise AssertionError("shift identity violated; inconsistent build")
    return StieltjesQuadruple(side=seq.side, alpha=a, p=tuple(p), second=tuple(second),
                              p_shift=tuple(p_shift), phat=phat)


def quadruple_values_at_alpha(quad: StieltjesQuadruple) -> dict:
    """Direct evaluations of all four families at the base point."""
    a = quad.alpha
    return {
        "p": [pn(a) for pn in quad.p],
        "second": [pn(a) for pn in quad.second],
        "p_shift": [pn(a) for pn in quad.p_shift],
        "phat": [pn(a) for pn in quad.phat],
    }


def quadruple_values_closed_form(ds) -> dict:
    """Alternating (L, M)-products for the values at alpha.

    Right half-line:
        P_n(a)       = (-1)^n  prod_{j<n} M_j^{-1} L_j^{-1}
        P^<s>_n(a)   = (-1)^{n+1} prod_{j<n} (M_j^{-1} L_j^{-1}) sum_{j<n} L_j
        P_shift_n(a) = (-1)^n prod_{j<n} (M_j^{-1} L_j^{-1}) M_n^{-1} sum_{j<=n} M_j
        Phat_n(a)    = (-1)^n prod_{j<n} (M_j^{-1} L_j^{-1}) M_n^{-1}
    Left half-line: the same products without the alternating signs, except
    Phat picks up a single global minus.
    """
    ls = [np.asarray(v, dtype=complex) for v in ds.l]
    ms = [np.asarray(v, dtype=complex) for v in ds.m]
    if not all(is_pd(v) for v in ls + ms):
        raise ValueError("(L, M) must be PD")
    q = ds.q
    li = [np.linalg.inv(v) for v in ls]
    mi = [np.linalg.inv(v) for v in ms]
    right = ds.side == RIGHT

    def sgn(n):
        return (-1.0) ** n if right else 1.0

    n_p = len(ls) + 1          # P_0..P_{half(kappa+1)}
    n_shift = len(ms)          # shifted families 0..half(kappa)
    # prods[n] = prod_{j<n} M_j^{-1} L_j^{-1}
    prods = [ordered_product((x for j in range(n) for x in (mi[j], li[j])), q)
             for n in range(n_p)]
    p_vals = [sgn(n) * prods[n] for n in range(n_p)]
    second_vals = [np.zeros((q, q), dtype=complex)]
    for n in range(1, n_p):
        second_vals.append(sgn(n + 1) * prods[n] @ sum(ls[:n]))
    shift_vals = [sgn(n) * prods[n] @ mi[n] @ sum(ms[:n + 1]) for n in range(n_shift)]
    phat_sign = 1.0 if right else -1.0
    phat_vals = [phat_sign * sgn(n) * prods[n] @ mi[n] for n in range(n_shift)]
    return {"p": p_vals, "second": second_vals, "p_shift": shift_vals, "phat": phat_vals}


def eval_quadruple_at_alpha(quad: StieltjesQuadruple, ds) -> dict:
    """Values at alpha, checked against the closed (L, M)-products."""
    direct = quadruple_values_at_alpha(quad)
    closed = quadruple_values_closed_form(ds)
    for key in direct:
        for got, want in zip(direct[key], closed[key]):
            if np.linalg.norm(got - want) > DEFAULT_TOL.identity_tol * (1 + np.linalg.norm(want)):
                raise AssertionError(f"family '{key}' disagrees with closed form at alpha")
        if any(abs(np.linalg.det(v)) == 0 for v in direct[key][1:]):
            raise AssertionError(f"family '{key}' has a singular value at alpha")
    return direct


def q_values_from_quadruple(quad: StieltjesQuadruple) -> list:
    """Interlaced Schur complements recovered from the quadruple at alpha.

    Right: Q_{2n} = P_n(a) Phat_n(a)^*, Q_{2n+1} = -Phat_n(a) P_{n+1}(a)^*.
    Left:  Q_{2n} = -P_n(a) Phat_n(a)^*, Q_{2n+1} = -Phat_n(a) P_{n+1}(a)^*.
    """
    a = quad.alpha
    sgn_even = 1.0 if quad.side == RIGHT else -1.0
    out = []
    for n in range(len(quad.phat)):
        out.append(sgn_even * quad.p[n](a) @ quad.phat[n](a).conj().T)
        if n + 1 < len(quad.p):
            out.append(-quad.phat[n](a) @ quad.p[n + 1](a).conj().T)
    return out


def det_zeros(p: MatrixPolynomial, kind: str = GENERAL) -> np.ndarray:
    """Zeros of det P(z), with multiplicity.

    MONIC uses the block companion linearization (leading coefficient must
    be the identity); GENERAL interpolates det P on scaled roots of unity
    and root-finds the scalar polynomial.
    """
    if p.q_rows != p.q_cols:
        raise ValueError("determinant needs a square polynomial")
    q = p.q_rows
    deg = p.degree
    if deg < 0:
        raise ValueError("identically zero polynomial")
    if deg == 0:
        if abs(np.linalg.det(p.coeffs[0])) == 0:
            raise ValueError("identically singular polynomial")
        return np.array([], dtype=complex)

    if kind == MONIC:
        lead = p.coeffs[-1]
        if not np.allclose(lead, np.eye(q), atol=DEFAULT_TOL.identity_tol):
            raise ValueError("MONIC requires identity leading coefficient")
        n = deg
        comp = np.zeros((n * q, n * q), dtype=complex)
        for j in range(n - 1):
            comp[j * q:(j + 1) * q, (j + 1) * q:(j + 2) * q] = np.eye(q)
        for j in range(n):
            comp[(n - 1) * q:, j * q:(j + 1) * q] = -p.coeffs[j]
        return np.linalg.eigvals(comp)

    if kind != GENERAL:
        raise ValueError(f"unknown kind: {kind}")

    # determinant degree is at most deg*q; sample on a circle and invert by FFT
    n_nodes = deg * q + 1
    radius = 1.0
    nodes = radius * np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
    vals = np.array([np.linalg.det(p(z)) for z in nodes])
    coeffs = (np.fft.fft(vals) / n_nodes) / radius ** np.arange(n_nodes)
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        raise ValueError("identically singular polynomial")
    keep = n_nodes
    while keep > 1 and abs(coeffs[keep - 1]) < 1e-10 * scale:
        keep -= 1
    if keep == 1:
        return np.array([], dtype=complex)
    return np.roots(coeffs[:keep][::-1])


def real_zeros(p: MatrixPolynomial, kind: str = GENERAL) -> np.ndarray:
    """det-zeros projected to the real axis; raises if any is genuinely complex."""
    zs = det_zeros(p, kind)
    if zs.size == 0:
        return np.array([], dtype=float)
    bad = np.abs(zs.imag) > 1e-7 * (1.0 + np.abs(zs.real))
    if np.any(bad):
        raise ValueError(f"non-real determinant zeros: {zs[bad]}")
    return np.sort(zs.real)
