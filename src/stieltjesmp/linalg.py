"""Complex-matrix primitives shared by the whole package.

Everything operates on plain numpy arrays with complex128 entries; all
functions are pure.  One rule holds every matrix from outside, of the
expected size, finite, complex and read-only: matrix_stack for a sequence
of them, _matrix for one.  Positivity is decided by Hermitian eigenvalues, not
Cholesky, so the same machinery serves matrices near the PSD boundary and
matrix pencils.  Every threshold of the library lives in DEFAULT_TOL and no
function takes one, so a matrix has one class wherever the package asks for
it.
"""

import sys
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
    atom_merge: float = 1e-7     # atoms closer than this times (1 + |alpha|) are one
    mass_drop: float = 1e-12     # a mass below this times max(1, largest mass) is dropped
    j_inner_tol: float = 1e-8
    real_sample: float = 1e-14   # a J-inner sample with |Im z| below this is real
    # a point this times (1 + ||T||) from a string rule's atom is singular in
    # lft_solve; no division of U(z) reads it
    singular_det: float = 1e-13
    real_zero: float = 1e-7      # a det zero with |Im| above this times (1 + |Re|) is non-real
    det_drop: float = 1e-10      # det coefficients below this times the largest are dropped
    monic_rtol: float = 1e-5     # np.allclose's rtol on MONIC's leading coefficient against I
    atom_slack: float = 1e-9     # an atom may lie this times (1 + |alpha|) past alpha
    # the measured checks of measures.verify, each on its worst relative error
    roundtrip_tol: float = 1e-9            # q_roundtrip and ds_roundtrip
    det_constant_tol: float = 1e-10
    factor_chain_tol: float = 1e-9
    j_symmetry_tol: float = 1e-8
    extremal_lft_tol: float = 1e-8
    difference_inverse_tol: float = 1e-7
    measure_moments_tol: float = 1e-7


DEFAULT_TOL = ToleranceConfig()


def freeze(obj):
    """Make one array, or each array of a tuple, read-only; obj comes back."""
    for a in obj if isinstance(obj, tuple) else (obj,):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)   # half the cost of assigning a.flags.writeable
    return obj


def _integer(n, what: str):
    """n back if it is an int or a numpy integer, and no bool; else a
    ValueError that names it: the rule of every size and index."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{what}={n!r} is not an integer")
    return n


def _size(q, what: str):
    """q back if it is an integer (_integer) of at least 1; else a ValueError
    that names it as the size of what: the rule of every block size q."""
    if _integer(q, f"{what} size q") < 1:
        raise ValueError(f"{what} size q={q} is not at least 1")
    return q


def _real(x, what: str) -> float:
    """x as a float if it is a finite real number, an int or a float (numpy's
    too, but no bool); else a ValueError that names it: the rule of alpha."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)) \
            or not abs(x) <= sys.float_info.max:   # NaN compares false; a huge int is past it
        raise ValueError(f"{what}={x!r} is not a finite real number")
    return float(x)


def matrix_stack(mats, q: int, what: str) -> Array:
    """mats, a (K, q, q) array or a sequence of q x q matrices or scalars, as
    one read-only finite complex (K, q, q) stack: the format of every matrix
    sequence the package holds.  A read-only complex stack is shared, and
    anything else copied once; q an integer >= 1, shape and finiteness are
    checked every time.
    """
    _size(q, what)
    if isinstance(mats, np.ndarray) and mats.ndim == 3:
        shapes = [mats.shape[1:]]
    else:
        mats = [np.atleast_2d(m) for m in mats]
        shapes = [m.shape for m in mats]
    bad = [shape for shape in shapes if shape != (q, q)]
    if bad:
        raise ValueError(f"{what} has shape {bad[0]}, expected ({q},{q})")
    if not isinstance(mats, np.ndarray) or mats.dtype != complex or mats.flags.writeable:
        mats = freeze(np.array(mats, dtype=complex).reshape(-1, q, q))   # (0, q, q) if empty
    if not np.isfinite(mats).all():
        raise ValueError("matrix has non-finite entries")
    return mats


def _matrix(a, q: int | None = None, what: str = "matrix") -> Array:
    """One matrix or a scalar by matrix_stack's rule: q x q (square of any
    size when q is None), finite, complex and read-only."""
    a = np.atleast_2d(a)   # no copy of an array
    return matrix_stack(a[None], len(a) if q is None else q, what)[0]


# The underscored helpers take a square complex array that a public function
# has already checked (_matrix); each public function checks each argument once.

def _hermitize(a: Array) -> Array:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


# The Hermitian test and the PD floor act on one matrix or on a (K, q, q)
# stack alike; _psd_classes is the one definition of the classes, and
# psd_class and the stacked _all_pd are uses of it.

def _hermitian_mask(a: Array):
    """||a - a^*||_F <= herm_tol (1 + ||a||_F), per matrix of a stack."""
    defect = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    return defect <= DEFAULT_TOL.herm_tol * (1.0 + np.linalg.norm(a, axis=(-2, -1)))


def _psd_floor(w: Array):
    """psd_tol * max(1, |lambda_min|, |lambda_max|) from ascending eigenvalues w."""
    top = np.maximum(np.abs(w[..., -1]), np.abs(w[..., 0]))
    return DEFAULT_TOL.psd_tol * np.maximum(1.0, top)


_CLASS_NAMES = np.array([NON_HERMITIAN, INDEFINITE, PSD, PD])


def _psd_classes(stack: Array) -> Array:
    """psd_class of each matrix of a (K, q, q) stack, with one batched eigvalsh."""
    herm = _hermitian_mask(stack)
    # the mask alone classes a non-Hermitian matrix; it is zeroed before
    # eigvalsh so that no non-finite entry reaches LAPACK
    if not herm.all():
        stack = np.where(herm[:, None, None], stack, 0)
    w = np.linalg.eigvalsh(_hermitize(stack))
    floor = _psd_floor(w)
    return _CLASS_NAMES[herm * (1 + (w[:, 0] >= -floor) + (w[:, 0] > floor))]


def _psd_class(a: Array) -> str:
    return str(_psd_classes(a[None])[0])


def _all_pd(stack: Array) -> bool:
    """psd_class(a) == PD for every a of a (K, q, q) stack."""
    return bool((_psd_classes(stack) == PD).all())


def hermitize(a: Array) -> Array:
    return _hermitize(_matrix(a))


def psd_class(a: Array) -> str:
    """Classify a square matrix as PD / PSD / INDEFINITE / NON_HERMITIAN."""
    return _psd_class(_matrix(a))


def is_psd(a: Array) -> bool:
    return psd_class(a) in (PD, PSD)


def min_eig_hermitian_part(a: Array) -> float:
    """Smallest eigenvalue of the Hermitian part; handy for Loewner checks."""
    return float(np.linalg.eigvalsh(hermitize(a))[0])


def _pinv(a: Array) -> Array:
    """Moore-Penrose inverse with the relative singular-value cutoff pinv_cutoff."""
    return np.linalg.pinv(a, rcond=DEFAULT_TOL.pinv_cutoff)


def sqrt_psd(a: Array) -> Array:
    """PSD square root via the Hermitian eigendecomposition."""
    a = _matrix(a)
    if _psd_class(a) not in (PD, PSD):
        raise ValueError("matrix is not positive semidefinite")
    w, v = np.linalg.eigh(_hermitize(a))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def block_psd(a: Array, b: Array, c: Array, d: Array) -> bool:
    """PSD test for [[A,B],[C,D]] via the Schur-complement criterion.

    True iff A is PSD, A A^+ B = B, C = B^* and D - C A^+ B is PSD, which is
    equivalent to the assembled block matrix being PSD.
    """
    blocks = [np.atleast_2d(x) for x in (a, b, c, d)]
    n, k = len(blocks[0]), len(blocks[3])
    if [x.shape for x in blocks] != [(n, n), (n, k), (k, n), (k, k)]:
        raise ValueError("blocks are not conformal")
    full = _matrix(np.block([blocks[:2], blocks[2:]]))
    a, b, c, d = full[:n, :n], full[:n, n:], full[n:, :n], full[n:, n:]
    if _psd_class(a) not in (PD, PSD):
        return False
    tol = DEFAULT_TOL
    ap = _pinv(a)
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


JTILDE = "JTILDE"
JQ = "JQ"
JQQ = "JQQ"


def signature_matrix(kind: str, q: int) -> Array:
    """One of the three 2q x 2q signature matrices used downstream.

    JTILDE = [[0, -iI], [iI, 0]], JQ = [[0, -I], [-I, 0]], JQQ = diag(I, -I).
    """
    _size(q, "signature matrix")
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
    j = _matrix(j)
    a = _matrix(a, len(j), "argument")
    return j - a.conj().T @ j @ a
