"""Command-line front end: JSON in, JSON out.

Verbs: classify, params, generate, resolvent, solve, extremal, recover,
hausdorff, verify.  Sequences travel as {"q", "alpha", "side", "moments"}
documents with complex entries encoded as [re, im]; matrices are row-major
nested lists.  Exit codes: 0 ok, 2 negative classification, 3 precondition
violation, 4 internal inconsistency, 64 usage/parse error.  No verb prints
NaN or Infinity: a verb prints its whole result or nothing.

A CLI process, `python -m stieltjesmp.cli` or the stieltjesmp console
script, runs BLAS on one thread unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS is set (stieltjesmp._launch); it sets that before numpy
loads, which the lazy package __init__ allows.  Importing this module
writes nothing in os.environ.
"""

if __name__ == "__main__":   # before any import that loads numpy
    from ._launch import single_blas_thread
    single_blas_thread()

import argparse
import json
import math
import re
import sys

import numpy as np

from .moments import LEFT, RIGHT, MomentSequence, _point, _value, classify
from .params import (
    canonical_hankel_param, ds_param, favard_pair, random_stieltjes_pd_sequence, stieltjes_param,
)
from .resolvent import factorize_u, resolvent_u
from .solutions import CONSTANT, SCHUR_CONSTANT, StieltjesPair, _free_point, extremal, lft_solve
from .measures import hausdorff_solvable, recover_max, recover_min, verify

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
    """A point of --at: Python's complex syntax, spaces dropped, with i for j
    where it is the imaginary unit, an i no letter follows ("2i", "1-i", not
    the i of "inf"), so that inf, -inf and infj are read and refused as not
    finite."""
    try:
        z = complex(re.sub(r"i(?![A-Za-z])", "j", text.replace(" ", "")))
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
    """payload as JSON on stdout, serialized whole before anything is written:
    NaN or Infinity in it is a ValueError (exit 3) with stdout left empty."""
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


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


def _pair_from_doc(doc, side: str) -> StieltjesPair:
    if not isinstance(doc, dict):
        raise UsageError(f"pair document must be an object, got {type(doc).__name__}")
    kind = doc.get("kind", CONSTANT)
    if kind not in (CONSTANT, SCHUR_CONSTANT):
        raise UsageError(f"pair kind must be {CONSTANT} or {SCHUR_CONSTANT}, got {kind!r}")
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
    x = _free_point(seq.side, seq.alpha) if args.at is None else _point(args.at, seq)
    _emit({"x": x, "s_min": encode_matrix(_value(s_min(x), x)),
           "s_max": encode_matrix(_value(s_max(x), x))})
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
    """The invariant sweep of measures.verify; exit 0 iff every check holds."""
    checks = {name: c.passed for name, c in verify(decode_sequence(_load_doc(args.file))).items()}
    passed = all(checks.values())
    _emit({"checks": checks, "passed": passed})
    if not checks["stieltjes_pd"]:
        return EXIT_NEGATIVE
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
        with np.errstate(all="ignore"):   # the value rule and _emit guard every output
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
