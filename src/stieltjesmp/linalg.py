"""Complex-matrix primitives shared by the whole package.

Everything operates on plain numpy arrays with complex128 entries; all
functions are pure.  Positivity is decided by Hermitian eigenvalues, not
Cholesky, so the same machinery serves matrices near the PSD boundary and
matrix pencils.
"""

import functools
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

PD = "PD"
PSD = "PSD"
INDEFINITE = "INDEFINITE"
NON_HERMITIAN = "NON_HERMITIAN"


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative/absolute thresholds for the numeric predicates."""

    herm_tol: float = 1e-10
    psd_tol: float = 1e-10
    pinv_cutoff: float = 1e-12
    identity_tol: float = 1e-9

    def __post_init__(self):
        eps = np.finfo(float).eps
        if min(self.herm_tol, self.psd_tol, self.pinv_cutoff, self.identity_tol) <= 0:
            raise ValueError("all tolerances must be strictly positive")
        if self.psd_tol < eps:
            raise ValueError("psd_tol below machine epsilon")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(a) -> Array:
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def _require_square(a) -> Array:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


# The underscored helpers take a square complex array that a public function
# has already checked; each public function checks each argument once.

def _hermitize(a: Array) -> Array:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


# The Hermitian test and the PD floor act on one matrix or on a (K, q, q)
# stack alike; _psd_classes is the one definition of the classes, and
# psd_class and the stacked _all_pd are uses of it.

def _hermitian_mask(a: Array, tol: ToleranceConfig):
    """||a - a^*||_F <= herm_tol (1 + ||a||_F), per matrix of a stack."""
    defect = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    return defect <= tol.herm_tol * (1.0 + np.linalg.norm(a, axis=(-2, -1)))


def _psd_floor(w: Array, tol: ToleranceConfig):
    """psd_tol * max(1, |lambda_min|, |lambda_max|) from ascending eigenvalues w."""
    return tol.psd_tol * np.maximum(1.0, np.maximum(np.abs(w[..., -1]), np.abs(w[..., 0])))


_CLASS_NAMES = np.array([NON_HERMITIAN, INDEFINITE, PSD, PD])


def _psd_classes(stack: Array, tol: ToleranceConfig) -> Array:
    """psd_class of each matrix of a (K, q, q) stack, with one batched eigvalsh."""
    herm = _hermitian_mask(stack, tol)
    # the mask alone classes a non-Hermitian matrix; it is zeroed before
    # eigvalsh so that no non-finite entry reaches LAPACK
    w = np.linalg.eigvalsh(_hermitize(np.where(herm[:, None, None], stack, 0)))
    floor = _psd_floor(w, tol)
    return _CLASS_NAMES[herm * (1 + (w[:, 0] >= -floor) + (w[:, 0] > floor))]


def _psd_class(a: Array, tol: ToleranceConfig) -> str:
    return str(_psd_classes(a[None], tol)[0])


def _all_pd(stack: Array, tol: ToleranceConfig) -> bool:
    """psd_class(a) == PD for every a of a (K, q, q) stack."""
    return bool((_psd_classes(stack, tol) == PD).all())


def hermitize(a: Array) -> Array:
    return _hermitize(_require_square(a))


def is_hermitian(a: Array, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return bool(_hermitian_mask(_require_square(a), tol))


def psd_class(a: Array, tol: ToleranceConfig = DEFAULT_TOL) -> str:
    """Classify a square matrix as PD / PSD / INDEFINITE / NON_HERMITIAN."""
    return _psd_class(_require_square(a), tol)


def is_psd(a: Array, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return psd_class(a, tol) in (PD, PSD)


def is_pd(a: Array, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return psd_class(a, tol) == PD


def min_eig_hermitian_part(a: Array) -> float:
    """Smallest eigenvalue of the Hermitian part; handy for Loewner checks."""
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def loewner_leq(a: Array, b: Array, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """A <= B in the Loewner order, within psd_tol."""
    return _psd_class(_require_square(b) - _require_square(a), tol) in (PD, PSD)


def pinv(a: Array, tol: ToleranceConfig = DEFAULT_TOL) -> Array:
    """Moore-Penrose inverse with a relative singular-value cutoff."""
    a = as_matrix(a)
    return np.linalg.pinv(a, rcond=tol.pinv_cutoff)


def inv_pd(a: Array, tol: ToleranceConfig = DEFAULT_TOL) -> Array:
    """True inverse, guarded by a PD assertion (the formulas all require PD)."""
    a = _require_square(a)
    if _psd_class(a, tol) != PD:
        raise ValueError("matrix is not positive definite")
    return np.linalg.inv(a)


def sqrt_psd(a: Array, tol: ToleranceConfig = DEFAULT_TOL) -> Array:
    """PSD square root via the Hermitian eigendecomposition."""
    a = _require_square(a)
    if _psd_class(a, tol) not in (PD, PSD):
        raise ValueError("matrix is not positive semidefinite")
    w, v = np.linalg.eigh(_hermitize(a))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def block_psd(a: Array, b: Array, c: Array, d: Array,
              tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """PSD test for [[A,B],[C,D]] via the Schur-complement criterion.

    True iff A is PSD, A A^+ B = B, C = B^* and D - C A^+ B is PSD, which is
    equivalent to the assembled block matrix being PSD.
    """
    a = _require_square(a)
    b, c, d = map(as_matrix, (b, c, d))
    if a.shape[0] != b.shape[0] or c.shape[0] != d.shape[0] \
            or a.shape[1] != c.shape[1] or b.shape[1] != d.shape[1]:
        raise ValueError("blocks are not conformal")
    if _psd_class(a, tol) not in (PD, PSD):
        return False
    ap = np.linalg.pinv(a, rcond=tol.pinv_cutoff)
    # all comparisons scale with the assembled matrix: the Schur corner can
    # be orders of magnitude below A without being spurious
    scale = 1.0 + np.linalg.norm(a) + np.linalg.norm(b) + np.linalg.norm(d)
    if np.linalg.norm(a @ ap @ b - b) > tol.identity_tol * scale:
        return False
    if np.linalg.norm(c - b.conj().T) > tol.herm_tol * scale:
        return False
    schur = d - c @ ap @ b
    if np.linalg.norm(schur - schur.conj().T) > tol.herm_tol * scale:
        return False
    return bool(np.linalg.eigvalsh(_hermitize(schur))[0] >= -tol.psd_tol * scale)


def interval_sample(lower: Array, upper: Array, k: Array,
                    tol: ToleranceConfig = DEFAULT_TOL) -> Array:
    """Point A + sqrt(B-A) K sqrt(B-A) of the matrix interval [A, B].

    K must lie in [0, I]; K = 0 and K = I hit the endpoints exactly.
    """
    lower, upper = map(as_matrix, (lower, upper))
    k = _require_square(k)
    q = k.shape[0]
    if _psd_class(k, tol) not in (PD, PSD) or _psd_class(np.eye(q) - k, tol) not in (PD, PSD):
        raise ValueError("K must satisfy 0 <= K <= I")
    if np.allclose(k, 0.0, atol=tol.identity_tol):
        return lower.copy()
    if np.allclose(k, np.eye(q), atol=tol.identity_tol):
        return upper.copy()
    root = sqrt_psd(upper - lower, tol)
    return lower + root @ k @ root


def ordered_product(mats, q: int) -> Array:
    """M_0 M_1 ... M_k multiplied left to right; the q x q identity if empty."""
    return functools.reduce(np.matmul, mats, np.eye(q, dtype=complex))


JTILDE = "JTILDE"
JQ = "JQ"
JQQ = "JQQ"


def signature_matrix(kind: str, q: int) -> Array:
    """One of the three 2q x 2q signature matrices used downstream.

    JTILDE = [[0, -iI], [iI, 0]], JQ = [[0, -I], [-I, 0]], JQQ = diag(I, -I).
    """
    z = np.zeros((q, q), dtype=complex)
    eye = np.eye(q, dtype=complex)
    if kind == JTILDE:
        return np.block([[z, -1j * eye], [1j * eye, z]])
    if kind == JQ:
        return np.block([[z, -eye], [-eye, z]])
    if kind == JQQ:
        return np.block([[eye, z], [z, -eye]])
    raise ValueError(f"unknown signature matrix kind: {kind}")


def j_defect(j: Array, a: Array) -> Array:
    """Defect J - A^* J A; PSD means J-contractive, ~0 means J-unitary."""
    j = _require_square(j)
    a = _require_square(a)
    if j.shape != a.shape:
        raise ValueError("signature matrix and argument sizes differ")
    return j - a.conj().T @ j @ a
