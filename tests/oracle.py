"""High-precision reference for the (L, M) -> Q -> moments maps, the
resolvent U, the top monic orthogonal polynomial, the extremals of the
(L, M) block string and the linear-fractional map of a constant pair.

The same alternating products and the same Schur-complement recursion as
q_from_ds and seq_from_stieltjes_param, U as the product of the factor
values W_0(z) ... W_m(z), the string's resolvent (K - wD)^{-1} by its
definition and U(z) [phi; psi] divided, evaluated in mpmath with exact
inverses at DPS decimal digits, then rounded to complex128.  A test that
compares the library against these values measures its error, not its
agreement with itself.
"""

import mpmath as mp
import numpy as np

DPS = 60


def _to_mp(a) -> mp.matrix:
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in np.atleast_2d(a)])


def _to_np(a: mp.matrix) -> np.ndarray:
    return np.array(a.tolist(), dtype=complex)


def _hankel(mats, n: int, q: int) -> mp.matrix:
    h = mp.matrix((n + 1) * q, (n + 1) * q)
    for j in range(n + 1):
        for k in range(n + 1):
            for a in range(q):
                for b in range(q):
                    h[j * q + a, k * q + b] = mats[j + k][a, b]
    return h


def _stack(mats, q: int) -> mp.matrix:
    """Column stack of the q x q matrices in mats."""
    y = mp.matrix(len(mats) * q, q)
    for i, m in enumerate(mats):
        for a in range(q):
            for b in range(q):
                y[i * q + a, b] = m[a, b]
    return y


def _correction(mats, n: int, q: int) -> mp.matrix:
    """z_{n,2n-1} H_{n-1}^{-1} y_{n,2n-1}, with z = y^* for Hermitian moments."""
    y = _stack(mats[n:2 * n], q)
    return y.H * mp.inverse(_hankel(mats, n - 1, q)) * y


def q_from_lm(l, m, q: int) -> list:
    """Q_0..Q_kappa from L_0.., M_0.. by the alternating products."""
    kappa = 2 * (len(m) - 1) if len(m) > len(l) else 2 * len(l) - 1
    ls, ms = [_to_mp(v) for v in l], [_to_mp(v) for v in m]
    g = [mp.eye(q)]
    for mk, lk in zip(ms, ls):
        g.append(g[-1] * mk * lk)
    gi = [mp.inverse(v) for v in g]
    return [gi[j // 2].H * mp.inverse(ms[j // 2]) * gi[j // 2] if j % 2 == 0
            else gi[j // 2 + 1].H * ls[j // 2] * gi[j // 2 + 1]
            for j in range(kappa + 1)]


def moments_from_q(qs, alpha: float, side: str, q: int) -> list:
    """s_0..s_kappa from Q_0..Q_kappa by the Schur-complement recursion."""
    sgn = 1 if side == "right" else -1
    a = mp.mpf(alpha)
    mats = [qs[0]]
    shifted = []
    for j in range(1, len(qs)):
        n = j // 2
        if j % 2 == 0:
            mats.append(qs[j] + _correction(mats, n, q))
        else:
            r = qs[j] + _correction(shifted, n, q) if n else qs[j]
            mats.append(a * mats[-1] + sgn * r)
        shifted.append(sgn * (mats[-1] - a * mats[-2]))
    return mats


def oracle(l, m, alpha: float, side: str, q: int):
    """(Q_0..Q_kappa, s_0..s_kappa) of the pair (L, M), rounded to complex128."""
    with mp.workdps(DPS):
        qs = q_from_lm(l, m, q)
        mats = moments_from_q(qs, alpha, side, q)
        return [_to_np(v) for v in qs], [_to_np(v) for v in mats]


def monic_top(l, m, alpha: float, side: str, q: int) -> np.ndarray:
    """Coefficients of the monic orthogonal P_top, top = half(kappa + 1), of
    the moments of (L, M), as a (top+1, q, q) stack rounded to complex128.

    P_top has the block row (-z_{top,2top-1} H_{top-1}^{-1}  I), with the
    moments and the exact inverse at DPS digits.
    """
    with mp.workdps(DPS):
        mats = moments_from_q(q_from_lm(l, m, q), alpha, side, q)
        top = len(mats) // 2
        z = mp.matrix(q, top * q)
        for j, s in enumerate(mats[top:2 * top]):
            for a in range(q):
                for b in range(q):
                    z[a, j * q + b] = s[a, b]
        row = _to_np(-z * mp.inverse(_hankel(mats, top - 1, q)))
    return np.concatenate([row.reshape(q, top, q).swapaxes(0, 1), np.eye(q)[None]])


def chain_product(l, m, alpha: float, side: str, q: int, z: complex):
    """U(z) = W_0(z) W_1(z) ... W_kappa(z), kappa = len(m) + len(l) - 1.

    W_{2n}(z) = [[I, 0], [(alpha - z) M_n, I]] on both half-lines and
    W_{2n+1} = [[I, +-L_n], [0, I]], + on the right half-line, - on the left.
    """
    sgn = 1 if side == "right" else -1
    with mp.workdps(DPS):
        w = mp.mpf(alpha) - mp.mpc(complex(z))
        out = mp.eye(2 * q)
        for j in range(len(m) + len(l)):
            f = mp.eye(2 * q)
            block, r0, c0, scale = (m[j // 2], q, 0, w) if j % 2 == 0 else (l[j // 2], 0, q, sgn)
            b = _to_mp(block)
            for a in range(q):
                for c in range(q):
                    f[r0 + a, c0 + c] = scale * b[a, c]
            out = out * f
        return _to_np(out)


def string_value(l, m, alpha: float, side: str, q: int, z: complex):
    """The extremal of the block string with masses m and springs l at z.

    Spring j joins mass j to mass j+1, or to the wall when there is no mass
    j+1, so len(l) == len(m) is the wall end and len(l) == len(m) - 1 the
    free end.  The value is the first q x q block of (K - wD)^{-1}, K the
    stiffness and D = diag(M_j), with w = z - alpha on the right half-line,
    and minus that block with w = alpha - z on the left.  K - wD is block
    tridiagonal, so block Gaussian elimination from its last block leaves
    the first block's Schur complement, whose inverse is that block.
    """
    with mp.workdps(DPS):
        z = mp.mpc(complex(z))
        w = z - alpha if side == "right" else alpha - z
        springs = [mp.inverse(_to_mp(v)) for v in l]
        zero = mp.zeros(q, q)
        # diagonal blocks of K - wD: the springs on both sides of mass j
        diag = [(springs[j] if j < len(l) else zero) + (springs[j - 1] if j else zero)
                - w * _to_mp(mj) for j, mj in enumerate(m)]
        schur = diag[-1]
        for j in range(len(m) - 2, -1, -1):   # off-diagonal blocks are -springs[j]
            schur = diag[j] - springs[j] * mp.inverse(schur) * springs[j]
        block = mp.inverse(schur)
        return _to_np(block if side == "right" else -block)


def pair_lft(l, m, alpha: float, side: str, q: int, points, phi, psi) -> np.ndarray:
    """(U11 phi + U12 psi)(U21 phi + U22 psi)^{-1} at each of the points, at
    DPS digits, as an (N, q, q) stack rounded to complex128: U(z) = W_0(z) ...
    W_kappa(z) of chain_product times the column [phi; psi], the factors
    applied from the last, then the division.  Plain lists of mpc and fdot,
    a few times faster than mp.matrix at these sizes."""
    sgn = 1 if side == "right" else -1
    out = []
    with mp.workdps(DPS):
        ls, ms = [_rows(sgn * np.asarray(v)) for v in l], [_rows(v) for v in m]
        column = _rows(phi), _rows(psi)
        for z in points:
            w = mp.mpf(alpha) - mp.mpc(complex(z))
            top, bottom = column
            for j in reversed(range(len(ms) + len(ls))):
                if j % 2 == 0:   # W_{2n}: [[I, 0], [(alpha - z) M_n, I]]
                    bottom = [[b + w * p for b, p in zip(rb, rp)]
                              for rb, rp in zip(bottom, _mul(ms[j // 2], top))]
                else:            # W_{2n+1}: [[I, +-L_n], [0, I]]
                    top = [[t + p for t, p in zip(rt, rp)]
                           for rt, rp in zip(top, _mul(ls[j // 2], bottom))]
            out.append([[complex(v) for v in row] for row in _right_divide(top, bottom)])
    return np.array(out, dtype=complex).reshape(-1, q, q)


def _rows(a) -> list:
    return [[mp.mpc(complex(x)) for x in row] for row in np.atleast_2d(a)]


def _mul(x: list, y: list) -> list:
    cols = list(zip(*y))
    return [[mp.fdot(row, col) for col in cols] for row in x]


def _right_divide(top: list, bottom: list) -> list:
    """top bottom^{-1}: Gauss-Jordan elimination with partial pivoting on
    bottom^T S^T = top^T."""
    n = len(bottom)
    a = [[bottom[j][i] for j in range(n)] + [top[k][i] for k in range(n)] for i in range(n)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(a[r][c]))
        a[c], a[p] = a[p], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [v - f * u for v, u in zip(a[r], a[c])]
    return [[a[j][n + k] for j in range(n)] for k in range(n)]
