"""Moment sequences, block Hankel structures and positivity classification.

A sequence s_0..s_kappa of complex q x q matrices together with a base
point alpha and a half-line tag ("right" for [alpha, inf), "left" for
(-inf, alpha]) is the basic object everything else consumes.  The block
Hankel matrices H_n = (s_{j+k}), their left Schur complements and the
alpha-shifted sequence -alpha*s_j + s_{j+1} (right) resp.
alpha*s_j - s_{j+1} (left) drive both the classification and all
parametrizations downstream.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    Array, DEFAULT_TOL, _all_pd, _hermitian_mask, _psd_classes, as_matrix, block_psd, psd_class,
    PD, PSD,
)

RIGHT = "right"
LEFT = "left"


def freeze(obj):
    """Make every array reachable from a derived value object read-only."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            freeze(x)
    elif hasattr(obj, "__dict__"):
        for x in vars(obj).values():
            freeze(x)
    return obj


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Finite sequence of q x q moments with base point and side tag.

    The sequence keeps its own read-only copy of the moments, checked once
    here for shape and finiteness.  Everything derived from it (the shifted
    sequence, the Hankel data, the classification, Q, (L, M) and the two
    polynomial quadruples) is computed on first use and cached on the
    sequence, so the module-level functions that return them derive each
    one once per sequence.  Equality and hashing are by identity: a
    sequence carries its own cache, and two sequences built from equal
    moments are two problem objects.
    """

    q: int
    alpha: float
    side: str
    moments: tuple

    def __post_init__(self):
        if self.side not in (RIGHT, LEFT):
            raise ValueError(f"side must be '{RIGHT}' or '{LEFT}'")
        if len(self.moments) == 0:
            raise ValueError("at least one moment required")
        stack = matrix_stack(self.moments, self.q, "moment")
        object.__setattr__(self, "moments", tuple(freeze(stack)))

    @property
    def kappa(self) -> int:
        return len(self.moments) - 1

    def __getitem__(self, j: int) -> Array:
        return self.moments[j]

    @cached_property
    def shifted(self) -> "MomentSequence":
        return shift_sequence(self)

    @cached_property
    def pack(self) -> "HankelPack":
        return HankelPack(self)

    @cached_property
    def classification(self) -> "SequenceClass":
        return _classify(self)

    @cached_property
    def qparam(self):
        from .params import StieltjesParam
        qs = tuple((self.pack if j % 2 == 0 else self.pack.shift).hhat(j // 2)
                   for j in range(self.kappa + 1))
        return StieltjesParam(q=self.q, alpha=self.alpha, side=self.side, values=qs)

    @cached_property
    def ds(self):
        from .params import _ds_param
        return freeze(_ds_param(self))

    @cached_property
    def dyukarev(self):
        from .resolvent import _dyukarev_quadruple
        return freeze(_dyukarev_quadruple(self))

    @cached_property
    def quadruple(self):
        from .orthopoly import _stieltjes_quadruple
        return freeze(_stieltjes_quadruple(self))


def matrix_stack(mats, q: int, what: str) -> Array:
    """The q x q matrices of mats as one finite complex (K, q, q) copy."""
    mats = [np.atleast_2d(np.asarray(m, dtype=complex)) for m in mats]
    for m in mats:
        if m.ndim != 2:
            raise ValueError(f"expected a matrix, got ndim={m.ndim}")
        if m.shape != (q, q):
            raise ValueError(f"{what} has shape {m.shape}, expected ({q},{q})")
    stack = np.array(mats)
    if not np.isfinite(stack).all():
        raise ValueError("matrix has non-finite entries")
    return stack


def sequence(moments, alpha: float = 0.0, side: str = RIGHT) -> MomentSequence:
    """Build a MomentSequence from scalars / arrays, inferring q."""
    moments = tuple(moments)
    q = np.atleast_2d(moments[0]).shape[0] if moments else 0
    return MomentSequence(q=q, alpha=float(alpha), side=side, moments=moments)


def half(k: int) -> int:
    """floor(k/2); the index bound used throughout the Hankel machinery."""
    return k // 2


# The stack, Hankel and Schur helpers read moments by index or slice only, so
# they take a MomentSequence or a plain list of moment matrices alike.

def y_stack(seq, j: int, k: int) -> Array:
    """Column stack (s_j; ...; s_k)."""
    return np.vstack([seq[i] for i in range(j, k + 1)])


def z_stack(seq, j: int, k: int) -> Array:
    """Row stack (s_j ... s_k)."""
    return np.hstack([seq[i] for i in range(j, k + 1)])


def hankel(seq, n: int, offset: int = 0) -> Array:
    """Block Hankel matrix (s_{j+k+offset})_{j,k=0..n}.

    offset 0 gives H_n, offset 1 gives K_n and offset 2 gives K~_n.
    """
    stack = np.asarray(seq[offset:offset + 2 * n + 1], dtype=complex)
    q = stack.shape[-1]
    idx = np.arange(n + 1)
    blocks = stack[idx[:, None] + idx[None, :]]
    return blocks.transpose(0, 2, 1, 3).reshape((n + 1) * q, (n + 1) * q)


def schur_correction(seq, n: int) -> Array:
    """z_{n,2n-1} H_{n-1}^+ y_{n,2n-1}, the part of s_{2n} outside H^_n (n >= 1)."""
    hp = np.linalg.pinv(hankel(seq, n - 1), rcond=DEFAULT_TOL.pinv_cutoff)
    return z_stack(seq, n, 2 * n - 1) @ hp @ y_stack(seq, n, 2 * n - 1)


def schur_complement(seq, n: int) -> Array:
    """Left Schur complement H^_n = s_{2n} - z_{n,2n-1} H_{n-1}^+ y_{n,2n-1}."""
    if n == 0:
        return seq[0].copy()
    return seq[2 * n] - schur_correction(seq, n)


def shifted_moments(mats, alpha: float, side: str) -> list:
    """right: r_j = -alpha*s_j + s_{j+1};  left: r_j = alpha*s_j - s_{j+1}."""
    if side == RIGHT:
        return [-alpha * mats[j] + mats[j + 1] for j in range(len(mats) - 1)]
    return [alpha * mats[j] - mats[j + 1] for j in range(len(mats) - 1)]


def shift_sequence(seq: MomentSequence) -> MomentSequence:
    """Alpha-shifted sequence; one moment shorter, same side and alpha."""
    if seq.kappa < 1:
        raise ValueError("shift needs at least two moments")
    return MomentSequence(q=seq.q, alpha=seq.alpha, side=seq.side,
                          moments=tuple(shifted_moments(seq.moments, seq.alpha, seq.side)))


def reflect(seq: MomentSequence) -> MomentSequence:
    """t_j = (-1)^j s_j with alpha -> -alpha and the side flipped."""
    mats = tuple(((-1) ** j) * seq[j] for j in range(seq.kappa + 1))
    side = LEFT if seq.side == RIGHT else RIGHT
    return MomentSequence(q=seq.q, alpha=-seq.alpha, side=side, moments=mats)


class HankelPack:
    """Hankel data of a sequence; the shifted sequence's data sits in `shift`.

    The top block H_{half(kappa)} is built once and every lower H_n is its
    leading block.  The Schur complements are built together on first use:
    Hhat_n = C_nn C_nn^* from the diagonal blocks of one Cholesky factor
    H_{half(kappa)} = C C^* when every moment is Hermitian at its own scale,
    the factorization succeeds and every Hhat_n so obtained is PD; otherwise,
    and so for every NND or indefinite sequence, by the pinv formula of
    schur_complement.  The rule reads this sequence only: the pack of the
    shifted sequence makes the same choice for the odd Q_j on its own.
    """

    def __init__(self, seq: MomentSequence):
        self.seq = seq
        self._h_invs = {}

    @cached_property
    def top(self) -> Array:
        return freeze(hankel(self.seq, half(self.seq.kappa)))

    @cached_property
    def hhats(self) -> tuple:
        hhats = self._cholesky_hhats()
        if hhats is None:
            hhats = tuple(schur_complement(self.seq, n) for n in range(half(self.seq.kappa) + 1))
        return freeze(hhats)

    def _cholesky_hhats(self):
        """The Hhat_n from one Cholesky factor of the top block, or None where
        that route does not apply."""
        # np.linalg.cholesky reads only the lower triangle, so the Hermitian
        # test comes first, per moment: one large moment must not hide the
        # asymmetry of a small one
        if not _hermitian_mask(np.array(self.seq.moments), DEFAULT_TOL).all():
            return None
        try:
            c = np.linalg.cholesky(self.top)
        except np.linalg.LinAlgError:
            return None
        n, q = half(self.seq.kappa) + 1, self.seq.q
        idx = np.arange(n)
        diag = c.reshape(n, q, n, q)[idx, :, idx, :]
        hhats = diag @ diag.conj().swapaxes(-1, -2)
        return tuple(hhats) if _all_pd(hhats, DEFAULT_TOL) else None

    @property
    def shift(self) -> "HankelPack":
        """The HankelPack of the alpha-shifted sequence."""
        return self.seq.shifted.pack

    def h(self, n: int) -> Array:
        if not 0 <= n <= half(self.seq.kappa):
            raise IndexError(f"H_{n} not available for kappa={self.seq.kappa}")
        return self.top[:(n + 1) * self.seq.q, :(n + 1) * self.seq.q]

    def hhat(self, n: int) -> Array:
        if not 0 <= n <= half(self.seq.kappa):
            raise IndexError(f"Hhat_{n} not available for kappa={self.seq.kappa}")
        return self.hhats[n]

    def h_shift(self, n: int) -> Array:
        return self.shift.h(n)

    def h_inv(self, n: int) -> Array:
        """H_n^{-1}, inverted on first use and cached read-only per n."""
        inv = self._h_invs.get(n)
        if inv is None:
            inv = self._h_invs[n] = freeze(np.linalg.inv(self.h(n)))
        return inv

    def y(self, j: int, k: int) -> Array:
        return y_stack(self.seq, j, k)

    def z(self, j: int, k: int) -> Array:
        return z_stack(self.seq, j, k)


# --- structural kit ---------------------------------------------------------

def block_shift(q: int, n: int) -> Array:
    """T_n: (n+1)q block down-shift, nilpotent, det(I - z T_n) = 1."""
    t = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j in range(n):
        t[(j + 1) * q:(j + 2) * q, j * q:(j + 1) * q] = np.eye(q)
    return t


def first_block_column(q: int, n: int) -> Array:
    """v_n = (I_q; 0; ...; 0), shape (n+1)q x q."""
    v = np.zeros(((n + 1) * q, q), dtype=complex)
    v[:q, :] = np.eye(q)
    return v


def lower_embedding(q: int, n: int) -> Array:
    """L_n = (0_{q x nq}; I_{nq}), shape (n+1)q x nq."""
    m = np.zeros(((n + 1) * q, n * q), dtype=complex)
    m[q:, :] = np.eye(n * q)
    return m


def upper_embedding(q: int, n: int) -> Array:
    """Lhat_n = (I_{nq}; 0_{q x nq}), shape (n+1)q x nq."""
    m = np.zeros(((n + 1) * q, n * q), dtype=complex)
    m[:n * q, :] = np.eye(n * q)
    return m


def alternating_signs(q: int, n: int) -> Array:
    """V_n = diag((-1)^j I_q), the reflection conjugator."""
    blocks = [((-1) ** j) * np.eye(q) for j in range(n + 1)]
    v = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j, b in enumerate(blocks):
        v[j * q:(j + 1) * q, j * q:(j + 1) * q] = b
    return v


def resolvent_R(q: int, n: int, z: complex) -> Array:
    """R_n(z) = (I - z T_n)^{-1}; block lower triangular with powers of z."""
    r = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    eye = np.eye(q)
    for j in range(n + 1):
        for k in range(j + 1):
            r[j * q:(j + 1) * q, k * q:(k + 1) * q] = (z ** (j - k)) * eye
    return r


def column_E(q: int, n: int, z: complex) -> Array:
    """E_n(z) = (I; zI; ...; z^n I) = R_n(z) v_n."""
    e = np.empty(((n + 1) * q, q), dtype=complex)
    for j in range(n + 1):
        e[j * q:(j + 1) * q, :] = (z ** j) * np.eye(q)
    return e


def u_vector(seq: MomentSequence, n: int) -> Array:
    """u_n = (0; y_{0,n-1}); u_0 = 0."""
    q = seq.q
    u = np.zeros(((n + 1) * q, q), dtype=complex)
    if n >= 1:
        u[q:, :] = y_stack(seq, 0, n - 1)
    return u


def u_shift_vector(seq: MomentSequence, n: int) -> Array:
    """Shifted companion of u_n for the sequence's own side.

    right: u_{a>n} = y_{0,n} - alpha u_n;  left: u_{a<n} = -y_{0,n} + alpha u_n.
    """
    y = y_stack(seq, 0, n)
    u = u_vector(seq, n)
    if seq.side == RIGHT:
        return y - seq.alpha * u
    return -y + seq.alpha * u


def lower_triangular_S(seq: MomentSequence, n: int) -> Array:
    """Block Toeplitz S_n with s_0 on the diagonal and s_j below."""
    q = seq.q
    # block (j, k) is s_{j-k} for j >= k: index j-k+1 into the moments behind
    # one zero block, clipped to that zero block above the diagonal
    stack = np.concatenate([np.zeros((1, q, q), dtype=complex), seq[:n + 1]])
    idx = np.arange(n + 1)
    blocks = stack[np.maximum(idx[:, None] - idx[None, :] + 1, 0)]
    return blocks.transpose(0, 2, 1, 3).reshape((n + 1) * q, (n + 1) * q)


def shat_matrix(seq: MomentSequence, n: int) -> Array:
    """Toeplitz companion of u_{a>n}/u_{a<n}: R_n(z) u = Shat E_n(z).

    right: Shat = S_n - alpha * down(S_{n-1});  left: the negative of that.
    """
    q = seq.q
    s = lower_triangular_S(seq, n)
    down = np.zeros_like(s)
    if n >= 1:
        down[q:, :n * q] = lower_triangular_S(seq, n - 1)
    shat = s - seq.alpha * down
    return shat if seq.side == RIGHT else -shat


# --- classification ---------------------------------------------------------

HANKEL_NO = "NO"
STIELTJES_NO = "NO"
NND = "NND"
NND_EXTENDABLE = "NND_EXTENDABLE"


@dataclass(frozen=True)
class SequenceClass:
    hankel: str
    stieltjes: str
    side: str


def _kernel_included(q_a: Array, q_b: Array) -> bool:
    """N(Q_a) subset of N(Q_b), tested through the pinv projector of Q_a."""
    proj = np.eye(q_a.shape[0]) - q_a @ np.linalg.pinv(q_a, rcond=DEFAULT_TOL.pinv_cutoff)
    return np.linalg.norm(q_b @ proj) <= DEFAULT_TOL.identity_tol * (1.0 + np.linalg.norm(q_b))


def _classify(seq: MomentSequence) -> SequenceClass:
    qs = seq.qparam.values
    classes = _psd_classes(matrix_stack(qs, seq.q, "Q_j"), DEFAULT_TOL)
    # PD is decided through the Schur complements Q_{2n} = Hhat_n (numerically
    # robust and equivalent); NND falls back to the spectrum of the full block
    if np.all(classes[0::2] == PD):
        hankel_cls = PD
    else:
        hankel_cls = NND if psd_class(seq.pack.top) in (PD, PSD) else HANKEL_NO

    if np.all(classes == PD):
        return SequenceClass(hankel=hankel_cls, stieltjes=PD, side=seq.side)
    if set(classes) <= {PD, PSD}:
        chain = [_kernel_included(qs[j], qs[j + 1]) for j in range(seq.kappa)]
        if all(chain):
            return SequenceClass(hankel=hankel_cls, stieltjes=NND_EXTENDABLE, side=seq.side)
        if all(chain[:-1]):
            return SequenceClass(hankel=hankel_cls, stieltjes=NND, side=seq.side)
    return SequenceClass(hankel=hankel_cls, stieltjes=STIELTJES_NO, side=seq.side)


def classify(seq: MomentSequence) -> SequenceClass:
    """Hankel and alpha-Stieltjes definiteness classes of a sequence.

    The Hankel class comes from the spectrum of the largest H_n.  The
    Stieltjes class is decided through the interlaced Schur complements:
    all PD means PD; all PSD plus the kernel-inclusion chain up to j-1
    means the solvability class (NND) resp. the extendability class.
    """
    return seq.classification


def is_stieltjes_pd(seq: MomentSequence) -> bool:
    return seq.classification.stieltjes == PD


def require_stieltjes_pd(seq: MomentSequence):
    if seq.classification.stieltjes != PD:
        raise ValueError("sequence is not alpha-Stieltjes positive definite")


# --- Potapov fundamental matrices -------------------------------------------

def potapov_defect(seq: MomentSequence, s_value: Array, z: complex):
    """The two fundamental block matrices tested against a candidate S(z).

    Returns (F_base, F_shift) for the point z (Im z != 0).  A function S
    solves the moment problem iff both are PSD throughout the upper
    half-plane for a right sequence, resp. the lower half-plane for a
    left one; the caller runs psd_class / block_psd on the results.
    """
    if z.imag == 0:
        raise ValueError("defect matrices are only defined off the real axis")
    f = as_matrix(s_value)
    m = seq.kappa
    q = seq.q
    pack = seq.pack

    def assemble(h_block, target, n):
        r = resolvent_R(q, n, z)
        v = first_block_column(q, n)
        col = r @ (v @ target["f"] + target["u"])
        corner = (target["f"] - target["f"].conj().T) / (z - np.conj(z))
        return np.block([[h_block, col], [col.conj().T, corner]])

    n0 = half(m)
    base = assemble(pack.h(n0), {"f": f, "u": u_vector(seq, n0)}, n0)

    n1 = half(m - 1)
    if seq.side == RIGHT:
        f_sh = (z - seq.alpha) * f
    else:
        f_sh = (seq.alpha - z) * f
    shift = assemble(pack.h_shift(n1),
                     {"f": f_sh, "u": u_shift_vector(seq, n1)}, n1)
    return base, shift


def potapov_defect_psd(seq: MomentSequence, s_value: Array, z: complex) -> bool:
    """True iff both fundamental matrices at z are PSD (block criterion)."""
    base, shift = potapov_defect(seq, s_value, z)

    def split_psd(mat, nq):
        return block_psd(mat[:nq, :nq], mat[:nq, nq:], mat[nq:, :nq], mat[nq:, nq:])

    q = seq.q
    return split_psd(base, base.shape[0] - q) and split_psd(shift, shift.shape[0] - q)
