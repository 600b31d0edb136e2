import numpy as np
import pytest

from stieltjesmp import DSParam, random_stieltjes_pd_sequence, reflect, sequence
from stieltjesmp.moments import (
    block_shift, column_E, first_block_column, half, hankel, lower_triangular_S,
    require_stieltjes_pd, resolvent_R, u_shift_vector, u_vector, y_stack, z_stack,
)
from stieltjesmp.orthopoly import MatrixPolynomial

# scalar hand-evaluated fixtures used throughout
#   F1: q=1, alpha=0, s=(1,1)       F2: s=(1,1,2)       F3 = reflect(F1)


@pytest.fixture
def f1():
    return sequence([1.0, 1.0])


@pytest.fixture
def f2():
    return sequence([1.0, 1.0, 2.0])


@pytest.fixture
def f3(f1):
    return reflect(f1)


# (q, kappa, max_cond) ladder for the random desk-scale fixtures; the
# conditioning bound keeps the 1e-9/1e-10 identity checks meaningful
LADDER = [
    (1, 4, 1e7), (1, 5, 1e7), (1, 6, 1e8),
    (2, 3, 1e7), (2, 4, 1e7), (2, 5, 1e7),
    (3, 2, 1e7), (3, 3, 1e7),
    (4, 2, 1e7), (4, 3, 1e6),
]

ALPHAS = [-0.5, 0.0, 0.5, 1.0]

_cache = {}


def ladder_fixture(i: int):
    """Deterministic random Stieltjes-PD sequence number i of the ladder."""
    if i not in _cache:
        q, kappa, max_cond = LADDER[i % len(LADDER)]
        alpha = ALPHAS[i % len(ALPHAS)]
        side = "right" if i % 2 == 0 else "left"
        _cache[i] = random_stieltjes_pd_sequence(
            q=q, kappa=kappa, alpha=alpha, side=side, seed=i, max_cond=max_cond)
    return _cache[i]


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return float(np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want)))


def seq_rel_err(s1, s2) -> float:
    scale = max(np.linalg.norm(m) for m in s1.moments)
    return max(float(np.abs(a - b).max()) for a, b in zip(s1.moments, s2.moments)) / scale


def hankel_inverse(seq, n):
    """H_n^{-1} of the oracles' own, inverted afresh on every call: no oracle
    shares a cached array with the library code it checks."""
    return np.linalg.inv(hankel(seq, n))


def dyukarev_loop(seq):
    """The quadruple from the moment polynomials: MatrixPolynomial arithmetic
    with Hankel inverses and T^k products with the block-shift matrix, one
    coefficient at a time.  The library builds the quadruple from the factor
    chain of (L, M); this is the independent construction it is checked against."""
    q, alpha = seq.q, seq.alpha

    def moment_poly(left, mid, right, n):
        t, cur, coeffs = block_shift(q, n), left.copy(), []
        for _ in range(n + 1):
            coeffs.append(cur.conj().T @ mid @ right)
            cur = t @ cur
        return MatrixPolynomial(coeffs)

    def combo(base, w, sign):
        return base + (w.shift_z() + w.scale(-alpha)).scale(sign)

    eye = MatrixPolynomial.constant(np.eye(q))
    a, c = [], []
    for n in range(half(seq.kappa) + 1):
        v = first_block_column(q, n)
        mid = hankel_inverse(seq, n) @ resolvent_R(q, n, alpha)
        a.append(combo(eye, moment_poly(u_vector(seq, n), mid, v, n), 1.0))
        c.append(combo(eye.scale(0.0), moment_poly(v, mid, v, n), -1.0))
    b, d = [MatrixPolynomial.constant(np.zeros((q, q)))], [eye]
    for n in range(half(seq.kappa + 1)):
        v, mid, y = first_block_column(q, n), hankel_inverse(seq.shifted, n), y_stack(seq, 0, n)
        b.append(moment_poly(u_shift_vector(seq, n), mid, y, n))
        d.append(combo(eye, moment_poly(v, mid, y, n), -1.0 if seq.side == "right" else 1.0))
    return {"a": a, "b": b, "c": c, "d": d}


def quadruple_loop(seq):
    """The Stieltjes quadruple one polynomial at a time: each P_n split out of
    its block row (-z_{n,2n-1} H_{n-1}^{-1}  I), each attached polynomial from
    its own Toeplitz product, (z - alpha) P_shift_n by MatrixPolynomial.matmul,
    and the shift-identity points drawn index by index.  The library builds
    each family as one coefficient stack; this is the construction it is
    checked against."""
    q, alpha = seq.q, seq.alpha
    eye = np.eye(q)

    def split(row, k):
        return MatrixPolynomial([row[:, j * q:(j + 1) * q] for j in range(k)])

    def monic(s):
        out = [MatrixPolynomial.constant(eye)]
        for n in range(1, half(s.kappa + 1) + 1):
            row = -z_stack(s, n, 2 * n - 1) @ hankel_inverse(s, n - 1)
            out.append(split(np.hstack([row, eye]), n + 1))
        return out

    def attached(p):
        k = p.degree
        if k <= 0:
            return MatrixPolynomial.constant(np.zeros((q, q)))
        row = np.hstack([p.coeff(j) for j in range(k + 1)])
        return split(row @ np.vstack([np.zeros((q, k * q)), lower_triangular_S(seq, k - 1)]), k)

    p = monic(seq)
    p_shift = monic(seq.shifted) if seq.kappa else [MatrixPolynomial.constant(eye)]
    factor = MatrixPolynomial([-alpha * eye, eye]) if seq.side == "right" \
        else MatrixPolynomial([alpha * eye, -eye])
    rng = np.random.default_rng(7)
    points = [rng.standard_normal(10) + 1j * rng.standard_normal(10)
              for _ in range(half(seq.kappa + 1))]
    return {"p": p, "second": [attached(pn) for pn in p], "p_shift": p_shift,
            "phat": [attached(factor.matmul(pn)) for pn in p_shift], "points": points}


def hankel_u(seq) -> MatrixPolynomial:
    """U_kappa assembled from the moment-polynomial families of dyukarev_loop."""
    f, m = dyukarev_loop(seq), seq.kappa
    return MatrixPolynomial.block2x2(f["a"][half(m)], f["b"][half(m + 1)],
                                     f["c"][half(m)], f["d"][half(m + 1)])


def ds_increments(seq) -> DSParam:
    """(L, M) by the literal inverse-increment definition, with LU inverses
    of the Hankel blocks.  The library reads (L, M) off the Q_j; this is the
    Hankel construction it is checked against."""
    require_stieltjes_pd(seq)
    sh = seq.shifted
    q, a = seq.q, seq.alpha
    kappa = seq.kappa

    m = [np.linalg.inv(seq[0])]
    for n in range(1, half(kappa) + 1):
        e_n = column_E(q, n, a)
        e_p = column_E(q, n - 1, a)
        m.append(e_n.conj().T @ hankel_inverse(seq, n) @ e_n
                 - e_p.conj().T @ hankel_inverse(seq, n - 1) @ e_p)

    l = [seq[0] @ np.linalg.inv(seq.shifted[0]) @ seq[0]]
    for n in range(1, half(kappa - 1) + 1):
        l.append(z_stack(seq, 0, n) @ hankel_inverse(sh, n) @ y_stack(seq, 0, n)
                 - z_stack(seq, 0, n - 1) @ hankel_inverse(sh, n - 1) @ y_stack(seq, 0, n - 1))
    return DSParam(q=q, alpha=a, side=seq.side, l=tuple(l), m=tuple(m))
