"""Command-line front end: JSON in, JSON out.

Verbs: classify, params, generate, resolvent, solve, extremal, recover,
hausdorff, verify.  Sequences travel as {"q", "alpha", "side", "moments"}
documents with complex entries encoded as [re, im]; matrices are row-major
nested lists.  Exit codes: 0 ok, 2 negative classification, 3 precondition
violation, 4 internal inconsistency, 64 usage/parse error.
"""

import argparse
import json
import math
import sys

import numpy as np

from .moments import LEFT, RIGHT, MomentSequence, classify
from .params import (
    canonical_hankel_param, ds_param, favard_pair, random_stieltjes_pd_sequence,
    seq_from_ds, seq_from_stieltjes_param, stieltjes_param,
)
from .resolvent import factorize_u, j_inner_check, resolvent_u
from .solutions import (
    CONSTANT, SCHUR_CONSTANT, StieltjesPair, difference_inverse, _free_point, _off_cut, extremal,
    lft_solve, pair_max, pair_min, weyl_interval,
)
from .measures import hausdorff_solvable, measure_moments, recover_max, recover_min

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_PRECONDITION = 3
EXIT_INCONSISTENT = 4
EXIT_USAGE = 64


class UsageError(Exception):
    pass


def _encode_complex(c) -> list:
    return [float(np.real(c)), float(np.imag(c))]


def encode_matrix(mat) -> list:
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return [[_encode_complex(v) for v in row] for row in mat]


def _finite(v):
    """A JSON number that is neither a boolean nor NaN/Infinity (both of
    which json.load accepts)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise UsageError(f"expected a finite number, got {v!r}")
    return v


def _decode_entry(v) -> complex:
    if isinstance(v, list) and len(v) == 2:
        return complex(_finite(v[0]), _finite(v[1]))
    return complex(_finite(v))


def decode_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows) \
            or len({len(r) for r in rows}) != 1:
        raise UsageError("matrix must be a nested list of equal-length rows")
    return np.array([[_decode_entry(v) for v in row] for row in rows], dtype=complex)


def decode_sequence(doc: dict) -> MomentSequence:
    """The document as a MomentSequence, which checks side and shapes."""
    try:
        q = _finite(doc["q"])
        if q != int(q):   # 2.0 is 2, and 1.9 is no q
            raise ValueError(f"q must be an integer, got {q!r}")
        return MomentSequence(q=int(q), alpha=float(_finite(doc["alpha"])),
                              side=str(doc["side"]),
                              moments=tuple(decode_matrix(m) for m in doc["moments"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed sequence document: {exc}")


def encode_sequence(seq: MomentSequence) -> dict:
    return {"q": seq.q, "alpha": seq.alpha, "side": seq.side,
            "moments": [encode_matrix(m) for m in seq.moments]}


def _load_doc(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _parse_complex(text: str) -> complex:
    try:
        z = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise UsageError(f"cannot parse complex number {text!r}")
    if not math.isfinite(z.real) or not math.isfinite(z.imag):
        raise UsageError(f"point {text!r} is not finite")
    return z


def _finite_float(text: str) -> float:
    """argparse type for real options: a finite number."""
    v = float(text)   # argparse reports a ValueError as a usage error
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _int_at_least(low: int):
    """argparse type for integer options with a lower bound."""
    def integer(text: str) -> int:   # the name argparse prints for a non-integer
        v = int(text)   # argparse reports a ValueError as a usage error
        if v < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return v
    return integer


def _emit(payload: dict):
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_classify(args) -> int:
    seq = decode_sequence(_load_doc(args.file))
    cls = classify(seq)
    _emit({"hankel": cls.hankel, "stieltjes": cls.stieltjes, "side": cls.side})
    print(f"hankel: {cls.hankel}", file=sys.stderr)
    print(f"stieltjes: {cls.stieltjes}", file=sys.stderr)
    return EXIT_OK if cls.stieltjes in ("PD", "NND", "NND_EXTENDABLE") else EXIT_NEGATIVE


# the builder of each parametrization and its matrix sequences, in output order
PARAMS = {"q": (stieltjes_param, ("values",)), "hankel": (canonical_hankel_param, ("c", "d")),
          "favard": (favard_pair, ("a", "b")), "ds": (ds_param, ("l", "m"))}


def cmd_params(args) -> int:
    build, fields = PARAMS[args.kind]
    p = build(decode_sequence(_load_doc(args.file)))
    _emit({"kind": args.kind, **{f: [encode_matrix(v) for v in getattr(p, f)] for f in fields}})
    return EXIT_OK


def cmd_generate(args) -> int:
    seq = random_stieltjes_pd_sequence(q=args.q, kappa=args.m, alpha=args.alpha,
                                       side=args.side, seed=args.seed)
    _emit(encode_sequence(seq))
    return EXIT_OK


def cmd_resolvent(args) -> int:
    seq = decode_sequence(_load_doc(args.file))
    u = resolvent_u(seq, args.m)
    out = {"m": u.m, "coefficients": [encode_matrix(c) for c in u.poly.coeffs]}
    if args.factor:
        chain = factorize_u(seq, u.m)
        out["factors"] = [[encode_matrix(c) for c in w.coeffs] for w in chain.factors]
    _emit(out)
    return EXIT_OK


def _pair_from_doc(doc: dict, side: str) -> StieltjesPair:
    kind = doc.get("kind", CONSTANT)
    try:
        if kind == SCHUR_CONSTANT:
            return StieltjesPair(kind=SCHUR_CONSTANT, side=side, f=decode_matrix(doc["f"]))
        return StieltjesPair(kind=CONSTANT, side=side,
                             phi=decode_matrix(doc["phi"]), psi=decode_matrix(doc["psi"]))
    except KeyError as exc:
        raise UsageError(f"pair document missing {exc}")


def cmd_solve(args) -> int:
    seq = decode_sequence(_load_doc(args.file))
    pair = _pair_from_doc(_load_doc(args.pair), seq.side)
    u = resolvent_u(seq)
    points = [_parse_complex(t) for t in args.at.split(",")]
    values = []
    for z in points:
        values.append({"z": _encode_complex(z), "s": encode_matrix(lft_solve(u, pair, z))})
    _emit({"values": values})
    return EXIT_OK


def cmd_extremal(args) -> int:
    seq = decode_sequence(_load_doc(args.file))
    s_min, s_max = extremal(seq)   # the Stieltjes-PD gate first, as in solve
    x = _free_point(seq.side, seq.alpha) if args.at is None else args.at
    if not _off_cut(seq.side, seq.alpha, x):
        raise ValueError(f"point {complex(x)} lies on the cut of this half-line")
    _emit({"x": x, "s_min": encode_matrix(s_min(x)), "s_max": encode_matrix(s_max(x))})
    return EXIT_OK


def cmd_recover(args) -> int:
    seq = decode_sequence(_load_doc(args.file))
    mu = recover_min(seq) if args.which == "min" else recover_max(seq)
    _emit({"atoms": mu.atoms.tolist(), "masses": [encode_matrix(m) for m in mu.masses],
           "side": mu.support_side})
    return EXIT_OK


def cmd_hausdorff(args) -> int:
    seq = decode_sequence(_load_doc(args.file))
    report = hausdorff_solvable(seq, seq.alpha, args.beta)
    _emit({"solvable": report.solvable, "parity": report.parity,
           "conditions": report.conditions, "one_sided": report.one_sided})
    print(str(report), file=sys.stderr)
    return EXIT_OK if report.solvable else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    """Full invariant sweep over one sequence; exit 0 iff everything holds."""
    seq = decode_sequence(_load_doc(args.file))
    cls = classify(seq)
    checks = {}
    rng = np.random.default_rng(0)

    checks["stieltjes_pd"] = cls.stieltjes == "PD"
    if not checks["stieltjes_pd"]:
        _emit({"checks": checks, "passed": False})
        return EXIT_NEGATIVE

    scale = np.linalg.norm(seq.moments, axis=(1, 2)).max()
    for name, back in (("q_roundtrip", seq_from_stieltjes_param(stieltjes_param(seq))),
                       ("ds_roundtrip", seq_from_ds(ds_param(seq)))):
        checks[name] = np.abs(np.subtract(back.moments, seq.moments)).max() <= 1e-9 * scale

    u = resolvent_u(seq)
    chain = factorize_u(seq)
    det_ref = np.linalg.det(u(seq.alpha))
    # 20 points z = re + i im, drawn as (re, im) pairs; each check holds at every point
    z = rng.standard_normal(40).view(complex)
    uz = u(z)
    ui = np.linalg.inv(uz)
    n = np.linalg.norm(uz, axis=(1, 2))
    det_gap = np.abs(np.linalg.det(uz) - det_ref)
    checks["det_constant"] = np.all(det_gap <= 1e-10 * (1 + abs(det_ref)))
    checks["factor_chain"] = np.all(np.linalg.norm(chain(z) - uz, axis=(1, 2)) <= 1e-9 * n)
    checks["j_symmetry"] = np.all(np.linalg.norm(ui - u.inverse_at(z), axis=(1, 2))
                                  <= 1e-8 * np.linalg.norm(ui, axis=(1, 2)))

    samples = [complex(rng.standard_normal(), abs(rng.standard_normal()) + 0.1)
               for _ in range(10)] + [rng.standard_normal() for _ in range(5)]
    checks["j_inner"] = j_inner_check(u, samples, seq.q).passed

    if seq.kappa >= 1:
        try:
            iv = weyl_interval(seq, seq.kappa)
        except ArithmeticError:   # extremal values not definite, or their gap not PD
            iv = None
        checks["weyl_gap_pd"] = iv is not None
        # the production extremals against the LFT of U with the trivial
        # pairs: (0, I) gives the wall extremal B D^-1, (I, 0) the free A C^-1
        checks["extremal_lft"] = True
        for ext in extremal(seq):
            pair = (pair_min if ext.bd else pair_max)(seq.q, seq.side)
            want = np.array([lft_solve(u, pair, zk) for zk in z])
            checks["extremal_lft"] &= np.all(np.linalg.norm(ext(z) - want, axis=(1, 2))
                                             <= 1e-8 * (1 + np.linalg.norm(want, axis=(1, 2))))
        if iv is not None:
            gap_inv = difference_inverse(seq, seq.kappa, iv.x)
            checks["difference_inverse"] = np.linalg.norm(
                np.linalg.inv(iv.gap) - gap_inv) <= 1e-7 * (1 + np.linalg.norm(gap_inv))
        moms = [measure_moments(mu, seq.kappa) for mu in (recover_min(seq), recover_max(seq))]
        checks["measure_moments"] = all(
            np.linalg.norm(mom[j] - seq[j]) <= 1e-7 * (1 + np.linalg.norm(seq[j]))
            for mom in moms for j in range(seq.kappa))

    checks = {k: bool(v) for k, v in checks.items()}
    passed = all(checks.values())
    _emit({"checks": checks, "passed": passed})
    return EXIT_OK if passed else EXIT_INCONSISTENT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stieltjesmp",
                                     description="matricial alpha-Stieltjes moment problems")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="definiteness classes of a sequence")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("params", help="one of the four parametrizations")
    p.add_argument("file")
    p.add_argument("--kind", choices=list(PARAMS), default="q")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("generate", help="seeded random Stieltjes-PD sequence")
    p.add_argument("--q", type=_int_at_least(1), default=2)
    p.add_argument("--m", type=_int_at_least(0), default=4)
    p.add_argument("--alpha", type=_finite_float, default=0.0)
    p.add_argument("--side", choices=[RIGHT, LEFT], default=RIGHT)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("resolvent", help="2q x 2q resolvent polynomial coefficients")
    p.add_argument("file")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--factor", action="store_true")
    p.set_defaults(func=cmd_resolvent)

    p = sub.add_parser("solve", help="linear-fractional transform of a pair")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--at", required=True, help="comma-separated points a+bi")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("extremal", help="extremal solution values at a point")
    p.add_argument("file")
    p.add_argument("--at", type=_finite_float, default=None)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("recover", help="molecular measure of an extremal solution")
    p.add_argument("file")
    p.add_argument("--which", choices=["min", "max"], default="min")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("hausdorff", help="two-endpoint solvability check")
    p.add_argument("file")
    p.add_argument("--beta", type=_finite_float, required=True)
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("verify", help="full invariant suite on one sequence")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, IndexError) as exc:   # a SingularDenominator is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (AssertionError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
