"""Matrix polynomials and the orthogonal systems attached to a sequence.

Polynomials carry their coefficients as a degree-indexed stack of matrices
(coeffs[j] multiplies z^j).  The monic left-orthogonal system, the second
kind system, the shifted system and the associated polynomials of the
shifted system form the quadruple that rebuilds the resolvent blocks.
The quadruple is a view of (L, M), as U is: stieltjes_quadruple takes the
gate and wraps the pair, and each family is normalised from the cached
factor chain (params.chain_stacks) at its first read, with no Hankel
inverse, so a caller that reads P alone builds P alone.  That is the only
construction of the quadruple, and after ds_param it reads no moment.  The
shift identity that couples P and P_shift is checked by the tests, against
the coupling of (L, M), not at run time.  The public systems, which take
Hankel-PD-prefix sequences that need not be Stieltjes-PD, read the monic
rows that moments.monic_rows caches on the sequence.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import Array, DEFAULT_TOL, freeze
from .moments import (
    MomentSequence, _scalar, derived, half, lower_triangular_S, monic_rows,
    require_hankel_pd_prefix, side_sign,
)
from .params import DSParam, _lm, chain_stacks, ds_param

MONIC = "MONIC"
GENERAL = "GENERAL"


class MatrixPolynomial:
    """P(z) = sum_j z^j coeffs[j] with q_rows x q_cols matrix coefficients.

    Coefficients are taken as given (not validated) as one read-only
    (degree+1, q_rows, q_cols) stack: a frozen stack is shared, anything else
    copied once and the copy frozen.  Exactly zero trailing ones are trimmed.
    """

    def __init__(self, coeffs):
        stack = coeffs
        if not isinstance(coeffs, np.ndarray) or coeffs.flags.writeable:
            # one copy; a stack is taken whole, and coefficients of unequal shapes raise here
            stack = freeze(np.array(coeffs if isinstance(coeffs, np.ndarray) else list(coeffs)))
        n = len(stack)
        if not n:
            raise ValueError("need at least one coefficient")
        while n > 1 and not np.count_nonzero(stack[n - 1]):   # cheaper than .any() here
            n -= 1
        self.coeffs = stack[:n]
        self.q_rows, self.q_cols = self.coeffs.shape[1:]

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and not np.count_nonzero(self.coeffs[0]):
            return -1
        return len(self.coeffs) - 1

    @cached_property
    def _stacked(self) -> tuple:
        """Exponents 0..degree (complex, so no cast per call) and the
        coefficients as one (degree+1, rows*cols) complex view of the stack."""
        flat = np.asarray(self.coeffs, dtype=complex).reshape(len(self.coeffs), -1)
        return freeze((np.arange(len(flat), dtype=complex), flat))

    def __call__(self, z) -> Array:
        """P(z) as one product of the powers of z with the stacked coefficients.

        A scalar z (moments._scalar) gives a complex (rows, cols) matrix, its
        powers taken of one complex number with no array made of z; a 1-D
        array (or a list) of N points gives the (N, rows, cols) stack of values.
        """
        exponents, flat = self._stacked
        if _scalar(z):
            return ((complex(z) ** exponents) @ flat).reshape(self.q_rows, self.q_cols)
        z = np.asarray(z, dtype=complex)
        return ((z[..., None] ** exponents) @ flat).reshape(z.shape + (self.q_rows, self.q_cols))

    def conj_star(self) -> "MatrixPolynomial":
        """Polynomial z -> [P(conj(z))]^*: conjugate-transpose coefficients."""
        return MatrixPolynomial([c.conj().T for c in self.coeffs])


# The families are built as zero-padded coefficient stacks: entry [n, j] of a
# (K, D, q, q) stack is the coefficient of z^j in the n-th polynomial.

def _associated(seq: MomentSequence, rows: Array) -> Array:
    """Polynomials attached to a (K, D, r, q) coefficient stack, as a
    (K, max(D-1, 1), r, q) stack.

    Coefficient l of the polynomial attached to P is sum_{j>l} P^[j] s_{j-l-1}:
    the block row (P^[0] ... P^[D-1]) times the block Toeplitz matrix
    (0_{q x (D-1)q}; S_{D-2}), one product for the whole stack.  A constant
    P gets the zero polynomial.
    """
    k, d, r, q = rows.shape
    if d == 1:
        return np.zeros((k, 1, r, q), dtype=complex)
    toeplitz = np.vstack([np.zeros((q, (d - 1) * q)), lower_triangular_S(seq, d - 2)])
    flat = rows.transpose(0, 2, 1, 3).reshape(k, r, d * q) @ toeplitz
    return flat.reshape(k, r, d - 1, q).transpose(0, 2, 1, 3)


def _polynomials(stack: Array, lag: int = 0) -> tuple:
    """The polynomials of a coefficient stack whose n-th polynomial has degree
    n - lag, a nonzero leading coefficient and zeros after it; the zero
    polynomial where n - lag < 0."""
    return tuple(MatrixPolynomial(c[:max(n + 1 - lag, 1)]) for n, c in enumerate(stack))


def _checked_monic_rows(seq: MomentSequence) -> Array:
    """monic_rows behind the Hankel-PD prefix check of the public systems."""
    require_hankel_pd_prefix(seq, half(seq.kappa - 1))
    return monic_rows(seq)


def monic_orthogonal_system(seq: MomentSequence) -> list:
    """Monic left-orthogonal polynomials P_0..P_{half(kappa+1)}.

    Coefficient rows are (-z_{n,2n-1} H_{n-1}^{-1}  I), read off the
    cached monic_rows; the Hankel prefix must be PD.  The same system also
    satisfies the three-term Favard recursion, which the tests cross-check.
    """
    return list(_polynomials(_checked_monic_rows(seq)))


def second_kind_system(seq: MomentSequence) -> list:
    """Second kind system: P_0 = 0, deg P_n = n-1 afterwards."""
    return list(_polynomials(_associated(seq, _checked_monic_rows(seq)), lag=1))


def _cs(stack: Array) -> Array:
    """Coefficients of cs(P)(z) = P(conj z)^*: each one conjugate-transposed."""
    return stack.conj().swapaxes(-1, -2)


def chain_d_e(ds: DSParam) -> tuple:
    """The lower blocks D_k of the right chain columns [B_k; D_k], k =
    0..half(kappa+1), and E_n = sum_{j<=n} D_j M_j, n = 0..half(kappa), as
    two zero-padded coefficient stacks; E_n has degree n."""
    x, y = chain_stacks(ds)
    d = y[:, :, ds.q:]
    return d, np.cumsum(d[:len(x), :len(x)] @ ds.m[:, None], axis=0)


def _lead_inv(leads: Array) -> Array:
    """lead(cs F_n)^{-1} of a (K, q, q) stack of leading coefficients, one
    per row of a (K, D, q, q) family stack, frozen."""
    return freeze(np.linalg.inv(_cs(leads))[:, None])


def _monic(stack: Array) -> Array:
    """The family stack with its monic leads, entries [n, n], set to I exactly."""
    n = np.arange(len(stack))
    stack[n, n] = np.eye(stack.shape[-1])
    return stack


@dataclass(frozen=True, eq=False)
class StieltjesQuadruple:
    """First kind / second kind / shifted / associated-shifted systems of
    (L, M): a view of ds, as ResolventU is, whose side and alpha are those
    of ds.  Each family is normalised from the cached chain_stacks at its
    first read and frozen.  With [A_n; C_n] and [B_n; D_n] the block
    columns of chain_stacks, lead(.) the top coefficient and E_n =
    sum_{j<=n} D_j M_j, the factor that C_n = (alpha - z) E_n carries:

        P_k = lead(cs D_k)^{-1} cs(D_k)     second_k = -lead(cs D_k)^{-1} cs(B_k)
        P_shift_n = lead(cs E_n)^{-1} cs(E_n) = -lead(cs C_n)^{-1} cs(E_n)
        phat_n = -+lead(cs C_n)^{-1} cs(A_n)   (- right, + left)

    Each lead is inverted once, by the first family that needs it, and the
    monic leads are set to I exactly.  P and P_shift are the monic
    orthogonal polynomials of the sequence and of its shift; second and
    phat are the polynomials attached (w.r.t. the base sequence) to P_n and
    to (z - alpha) P_shift_n on the right half-line, resp. (alpha - z)
    P_shift_n on the left one.  Equality is identity.
    """

    ds: DSParam

    def __post_init__(self):
        _lm(self.ds)

    @cached_property
    def _d_inv(self) -> Array:
        """lead(cs D_k)^{-1}, the normaliser of p and second."""
        y = chain_stacks(self.ds)[1]
        k = np.arange(len(y))
        return _lead_inv(y[k, k, self.ds.q:])

    @cached_property
    def _c_inv(self) -> Array:
        """lead(cs C_n)^{-1}, the normaliser of p_shift and phat."""
        x = chain_stacks(self.ds)[0]
        n = np.arange(len(x))
        return _lead_inv(x[n, n + 1, self.ds.q:])

    @cached_property
    def p(self) -> tuple:
        y = chain_stacks(self.ds)[1]
        return _polynomials(freeze(_monic(self._d_inv @ _cs(y[:, :, self.ds.q:]))))

    @cached_property
    def second(self) -> tuple:
        y = chain_stacks(self.ds)[1]
        return _polynomials(freeze(-(self._d_inv @ _cs(y[:, :, :self.ds.q]))), lag=1)

    @cached_property
    def p_shift(self) -> tuple:
        return _polynomials(freeze(_monic(-(self._c_inv @ _cs(chain_d_e(self.ds)[1])))))

    @cached_property
    def phat(self) -> tuple:
        x = chain_stacks(self.ds)[0]
        sign = -side_sign(self.ds.side)
        return _polynomials(freeze((self._c_inv @ _cs(x[:, :len(x), :self.ds.q])) * sign))


@derived
def stieltjes_quadruple(seq: MomentSequence) -> StieltjesQuadruple:
    """All four polynomial families of a Stieltjes-PD sequence: the gate
    (ds_param), then the view of its (L, M), cached on the sequence.  Each
    family is read off the cached factor chain at its first read (see
    StieltjesQuadruple); no Hankel block is inverted, and after ds_param no
    moment is read.
    """
    return StieltjesQuadruple(ds_param(seq))


def det_zeros(p: MatrixPolynomial, kind: str = GENERAL) -> np.ndarray:
    """Zeros of det P(z), with multiplicity.

    MONIC uses the block companion linearization (leading coefficient must
    be the identity); GENERAL interpolates det P on roots of unity scaled to
    the zeros' geometric-mean modulus and root-finds the scalar polynomial.
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
        # np.allclose(lead, I, atol=identity_tol) written out: its default
        # rtol scales |I|, and a NaN or an infinity fails the test
        eye, tol = np.eye(q), DEFAULT_TOL
        if not (np.abs(p.coeffs[-1] - eye) <= tol.identity_tol + tol.monic_rtol * eye).all():
            raise ValueError("MONIC requires identity leading coefficient")
        # block companion: I on the block superdiagonal, -P^[0] ... -P^[deg-1] below
        comp = np.zeros((deg * q, deg * q), dtype=complex)
        comp[:-q, q:] = np.eye((deg - 1) * q)
        comp[-q:] = -p.coeffs[:deg].swapaxes(0, 1).reshape(q, deg * q)
        return np.linalg.eigvals(comp)

    if kind != GENERAL:
        raise ValueError(f"unknown kind: {kind}")

    # determinant degree is at most deg*q; sample on the circle of the zeros'
    # geometric-mean modulus |det P^[0] / det P^[deg]|^(1/(deg q)), or on the
    # unit circle where that is 0 or not finite, and invert by FFT
    n_nodes = deg * q + 1
    ends = np.linalg.det(p.coeffs[[0, -1]])
    with np.errstate(all="ignore"):
        radius = abs(ends[0] / ends[1]) ** (1.0 / (deg * q))
    if not 0 < radius < np.inf:
        radius = 1.0
    nodes = radius * np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)
    vals = np.linalg.det(p(nodes))
    coeffs = (np.fft.fft(vals) / n_nodes) / radius ** np.arange(n_nodes)
    scale = np.max(np.abs(coeffs))
    if scale == 0:
        raise ValueError("identically singular polynomial")
    keep = n_nodes
    while keep > 1 and abs(coeffs[keep - 1]) < DEFAULT_TOL.det_drop * scale:
        keep -= 1
    if keep == 1:
        return np.array([], dtype=complex)
    return np.roots(coeffs[:keep][::-1])


def real_zeros(p: MatrixPolynomial, kind: str = GENERAL) -> np.ndarray:
    """det-zeros projected to the real axis; raises if any is genuinely complex."""
    zs = det_zeros(p, kind)
    if zs.size == 0:
        return np.array([], dtype=float)
    bad = np.abs(zs.imag) > DEFAULT_TOL.real_zero * (1.0 + np.abs(zs.real))
    if np.any(bad):
        raise ValueError(f"non-real determinant zeros: {zs[bad]}")
    return np.sort(zs.real)
