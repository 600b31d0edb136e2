"""Matrix polynomials and the orthogonal systems attached to a sequence.

Polynomials carry their coefficients as a degree-indexed stack of matrices
(coeffs[j] multiplies z^j).  The monic left-orthogonal system, the second
kind system, the shifted system and the associated polynomials of the
shifted system form the quadruple that rebuilds the resolvent blocks.
stieltjes_quadruple normalises the cached factor chain of (L, M)
(params.chain_stacks) into it, with no Hankel inverse; it is the only
construction of the quadruple, and after ds_param it reads no moment.  The
shift identity that couples P and P_shift is checked by the tests, against
the coupling of (L, M), not at run time.  The public systems, which take
Hankel-PD-prefix sequences that need not be Stieltjes-PD, read the monic
rows that moments.monic_rows caches on the sequence.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import Array, DEFAULT_TOL
from .moments import (
    MomentSequence, derived, freeze, half, lower_triangular_S, monic_rows,
    require_hankel_pd_prefix, side_sign,
)
from .params import DSParam, chain_stacks, ds_param

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

        A scalar z gives a complex (rows, cols) matrix; a 1-D array of N
        points gives the (N, rows, cols) stack of values.
        """
        z = np.asarray(z, dtype=complex)
        exponents, flat = self._stacked
        return ((z[..., None] ** exponents) @ flat).reshape(z.shape + (self.q_rows, self.q_cols))

    def rmul(self, mat: Array) -> "MatrixPolynomial":
        return MatrixPolynomial([c @ mat for c in self.coeffs])

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


@dataclass(frozen=True)
class StieltjesQuadruple:
    """First kind / second kind / shifted / associated-shifted systems."""

    side: str
    alpha: float
    p: tuple
    second: tuple
    p_shift: tuple
    phat: tuple


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


def _chain_families(ds: DSParam) -> tuple:
    """The (p, second, p_shift, phat) coefficient stacks of the quadruple,
    normalised from the chain stacks of (L, M).

    With [A_n; C_n] and [B_n; D_n] the block columns of chain_stacks,
    lead(.) the top coefficient and E_n = sum_{j<=n} D_j M_j, the factor
    that C_n = (alpha - z) E_n carries:

        P_k = lead(cs D_k)^{-1} cs(D_k)     second_k = -lead(cs D_k)^{-1} cs(B_k)
        P_shift_n = lead(cs E_n)^{-1} cs(E_n) = -lead(cs C_n)^{-1} cs(E_n)
        phat_n = -+lead(cs C_n)^{-1} cs(A_n)   (- right, + left)

    The leading coefficients of both families are inverted in one stacked
    inv, and the monic leads are set to I exactly.
    """
    q = ds.q
    x, y = chain_stacks(ds)
    d, e = chain_d_e(ds)
    nx = len(x)
    n, k = np.arange(nx), np.arange(len(y))
    norm = np.linalg.inv(_cs(np.concatenate([d[k, k], x[n, n + 1, q:]])))[:, None]
    d_norm, c_norm = norm[:len(y)], norm[len(y):]
    p = d_norm @ _cs(d)
    second = -(d_norm @ _cs(y[:, :, :q]))
    p_shift = -(c_norm @ _cs(e))
    phat = (c_norm @ _cs(x[:, :nx, :q])) * -side_sign(ds.side)
    p[k, k] = p_shift[n, n] = np.eye(q)
    return p, second, p_shift, phat


@derived
def stieltjes_quadruple(seq: MomentSequence) -> StieltjesQuadruple:
    """All four polynomial families of a Stieltjes-PD sequence, read off
    the cached factor chain of (L, M) (see _chain_families).

    P and P_shift are the monic orthogonal polynomials of the sequence and
    of its shift; second and phat are the polynomials attached (w.r.t. the
    base sequence) to P_n and to (z - alpha) P_shift_n on the right
    half-line, resp. (alpha - z) P_shift_n on the left one.  No Hankel
    block is inverted, and after ds_param no moment is read; the result is
    cached on the sequence.
    """
    ds = ds_param(seq)
    p, second, p_shift, phat = freeze(_chain_families(ds))
    return StieltjesQuadruple(side=ds.side, alpha=ds.alpha, p=_polynomials(p),
                              second=_polynomials(second, lag=1),
                              p_shift=_polynomials(p_shift), phat=_polynomials(phat))


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
        # np.allclose(lead, I, atol=identity_tol) written out: its default
        # rtol 1e-5 scales |I|, and a NaN or an infinity fails the test
        eye = np.eye(q)
        if not (np.abs(p.coeffs[-1] - eye) <= DEFAULT_TOL.identity_tol + 1e-5 * eye).all():
            raise ValueError("MONIC requires identity leading coefficient")
        # block companion: I on the block superdiagonal, -P^[0] ... -P^[deg-1] below
        comp = np.zeros((deg * q, deg * q), dtype=complex)
        comp[:-q, q:] = np.eye((deg - 1) * q)
        comp[-q:] = -p.coeffs[:deg].swapaxes(0, 1).reshape(q, deg * q)
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
