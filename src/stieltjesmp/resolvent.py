"""The 2q x 2q resolvent polynomial, its factorization and the Schur rescale.

U is the ordered product of the chain of constant upper factors (L blocks)
and linear lower factors ((alpha - z) M blocks) read off (L, M).  The prefix
products are expanded once per (L, M) pair into the cached chain stacks of
params.chain_stacks; U_m, a view of (L, M) at m, is a slice of them, the
four q x q families (A, B, C, D) are their block columns, and nothing else
builds U: the Hankel routes to U live on as test oracles only.  U * E, E the
schur_rotation, turns the Stieltjes-pair transformation into a Schur-class
one; a Schur parameter enters through the pair E [F; I] of lft_solve.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    Array, DEFAULT_TOL, JTILDE, _size, freeze, j_defect, min_eig_hermitian_part,
    signature_matrix,
)
from .moments import RIGHT, MomentSequence, derived, half, side_sign
from .orthopoly import MatrixPolynomial
from .params import DSParam, _door, _index, chain_stacks, ds_param


@dataclass(frozen=True)
class DyukarevQuadruple:
    """Polynomial families A_0.., B_0.., C_0.., D_0.. with the side tag.

    [A_n; C_n] is the left block column of W_0 ... W_{2n} and [B_n; D_n] the
    right one of W_0 ... W_{2n-1}, the factors of factorize_u, so
    A_n(alpha) = I, D_n(alpha) = I, B_0 = 0, D_0 = I by construction.
    """

    side: str
    alpha: float
    a: tuple
    b: tuple
    c: tuple
    d: tuple


@derived
def dyukarev_quadruple(seq: MomentSequence) -> DyukarevQuadruple:
    """The four resolvent block families of a Stieltjes-PD sequence: the
    block columns of the prefix products of the factor chain of (L, M),
    wrapped from the cached chain_stacks."""
    ds = ds_param(seq)
    q, (x, y) = ds.q, chain_stacks(ds)
    return DyukarevQuadruple(side=ds.side, alpha=ds.alpha,
                             a=tuple(MatrixPolynomial(c[:n + 1, :q]) for n, c in enumerate(x)),
                             b=tuple(MatrixPolynomial(c[:max(n, 1), :q]) for n, c in enumerate(y)),
                             c=tuple(MatrixPolynomial(c[:n + 2, q:]) for n, c in enumerate(x)),
                             d=tuple(MatrixPolynomial(c[:n + 1, q:]) for n, c in enumerate(y)))


@dataclass(frozen=True, eq=False)
class ResolventU:
    """U_m = W_0 ... W_m of the factors of factorize_u: a view of (L, M) at
    index m, which follows params._index (None is kappa).  Its side, alpha
    and q are those of ds.  poly, the block assembly [[A_{half(m)},
    B_{half(m+1)}], [C, D]], is sliced out of the cached chain_stacks at
    first use; lft_solve reads ds and m alone.  Equality is identity."""

    ds: DSParam
    m: int | None

    def __post_init__(self):
        object.__setattr__(self, "m", _index(self.ds, self.m))

    def __call__(self, z: complex) -> Array:
        return self.poly(z)

    @cached_property
    def poly(self) -> MatrixPolynomial:
        """[x[half(m)] | y[half(m+1)]] of chain_stacks, as one polynomial."""
        (x, y), q = chain_stacks(self.ds), self.ds.q
        n, k = half(self.m), half(self.m + 1)   # y[k] has k+1 <= n+2 coefficients
        u = np.zeros((n + 2, 2 * q, 2 * q), dtype=complex)
        u[:, :, :q] = x[n, :n + 2]
        u[:k + 1, :, q:] = y[k, :k + 1]
        return MatrixPolynomial(freeze(u))

    @cached_property
    def _conj_star(self) -> MatrixPolynomial:
        return self.poly.conj_star()

    def inverse_at(self, z: complex) -> Array:
        """J-symmetry inverse: U^{-1}(z) = Jtilde U^*(conj z) Jtilde."""
        jt = signature_matrix(JTILDE, self.ds.q)
        return jt @ self._conj_star(z) @ jt


def resolvent_u(seq: MomentSequence, m: int | None = None) -> ResolventU:
    """The resolvent member for index m: the gate, then the view of its (L, M)."""
    return ResolventU(ds_param(seq), m)


@dataclass(frozen=True)
class FactorChain:
    """Linear factors W_0..W_m whose ordered product is U_m; calling the
    chain multiplies the factor values (resolvent_u expands the product)."""

    factors: tuple

    def __call__(self, z: complex) -> Array:
        out = self.factors[0](z)
        for w in self.factors[1:]:
            out = out @ w(z)
        return out


def factorize_u(seq: MomentSequence, m: int | None = None) -> FactorChain:
    """The factors of U_m, read off (L, M): even ones carry (alpha-z)M, odd L.

    W_{2n}(z) = [[I, 0], [(alpha-z) M_n, I]] on both half-lines;
    W_{2n+1} = [[I, L_n], [0, I]] on the right, with -L_n on the left.
    U_m = W_0 W_1 ... W_m is this product, as resolvent_u builds it.
    """
    ds, m = _door(seq, m)
    q, alpha = ds.q, ds.alpha
    ms, ls = ds.m[:m // 2 + 1], ds.l[:(m + 1) // 2]
    # the coefficients of all m+1 factors as one frozen stack: the odd ones are
    # constant, so each polynomial trims to its own view of it
    w = np.zeros((m + 1, 2, 2 * q, 2 * q), dtype=complex)
    w[:, 0] = np.eye(2 * q)
    w[0::2, 0, q:, :q] = alpha * ms
    w[0::2, 1, q:, :q] = -ms
    w[1::2, 0, :q, q:] = side_sign(ds.side) * ls
    return FactorChain(tuple(map(MatrixPolynomial, freeze(w))))


def leading_terms(seq: MomentSequence, m: int | None = None) -> dict:
    """Top and bottom coefficients of A, B, C, D in powers of w.

    w = z - alpha on the right half-line, w = alpha - z on the left.  For
    A, B, D "low" is the constant term; C has no constant term, so its
    "low" is the coefficient of w.  A leading coefficient of degree d is
    sign^d times the top z^d coefficient of the cached chain stacks, sign
    the sign of w in z; the low terms are closed sums in (L, M).
    """
    ds, m = _door(seq, m)
    q, (x, y) = ds.q, chain_stacks(ds)
    eye = np.eye(q, dtype=complex)
    sign = side_sign(ds.side)
    n, k = half(m), half(m + 1)

    # cumsum adds in index order, where a sum over a q = 1 stack may pair terms
    c_low = -sign * np.cumsum(ds.m[:n + 1], axis=0)[-1]
    if k == 0:
        b_lead = b_low = np.zeros((q, q), dtype=complex)
    else:
        b_lead = sign ** (k - 1) * y[k, k - 1, :q]
        b_low = sign * np.cumsum(ds.l[:k], axis=0)[-1]
    return {
        "variable": "z-alpha" if sign > 0 else "alpha-z",
        "A": {"degree": n, "leading": sign ** n * x[n, n, :q], "low": eye.copy()},
        "B": {"degree": k - 1, "leading": b_lead, "low": b_low},
        "C": {"degree": n + 1, "leading": sign ** (n + 1) * x[n, n + 1, q:], "low": c_low},
        "D": {"degree": k, "leading": sign ** k * y[k, k, q:], "low": eye.copy()},
    }


def schur_rotation(q: int, side: str = RIGHT) -> Array:
    """Constant unitary E with j_qq = E^* Jtilde E; right and left variants.

    The left variant differs from the right one only by the sign of its
    second block column, side_sign(side); both are fixed so the j_qq
    identity actually holds (a harmless column sign normalizes the usual
    left-side convention).
    """
    eye, sign = np.eye(_size(q, "Schur rotation")), side_sign(side)
    return np.block([[-1j * eye, sign * 1j * eye], [eye, sign * eye]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class JInnerReport:
    max_real_defect: float
    min_upper_eig: float

    @property
    def passed(self) -> bool:
        tol = DEFAULT_TOL.j_inner_tol
        return self.max_real_defect < tol and self.min_upper_eig > -tol


def j_inner_check(u, z_samples, q: int) -> JInnerReport:
    """Defect Jtilde - U(z)^* Jtilde U(z) over the samples.

    Upper half-plane samples must give a PSD defect, real samples a
    vanishing one.  `u` is anything callable at a complex point.
    """
    jt = signature_matrix(JTILDE, q)
    max_real, min_eig = 0.0, np.inf
    for z in z_samples:
        defect = j_defect(jt, u(z))
        if abs(z.imag) < DEFAULT_TOL.real_sample:
            max_real = max(max_real, float(np.linalg.norm(defect)))
        elif z.imag > 0:
            min_eig = min(min_eig, min_eig_hermitian_part(defect))
    return JInnerReport(max_real_defect=max_real,
                        min_upper_eig=0.0 if min_eig is np.inf else float(min_eig))
