import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stieltjesmp.cli import (
    EXIT_INCONSISTENT, EXIT_NEGATIVE, EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE,
    decode_matrix, decode_sequence, encode_matrix, encode_sequence, main,
)
from stieltjesmp import (
    difference_inverse, interval_point, lft_solve, pair_min, random_stieltjes_pd_sequence,
    reflect, resolvent_u, sequence, verify, weyl_interval,
)
from stieltjesmp.linalg import min_eig_hermitian_part

from conftest import LADDER, ladder_fixture, lm_draw, random_fixture


@pytest.fixture
def f1_file(tmp_path):
    doc = {"q": 1, "alpha": 0.0, "side": "right",
           "moments": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}
    path = tmp_path / "f1.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def f2_file(tmp_path):
    doc = {"q": 1, "alpha": 0.0, "side": "right",
           "moments": [[[[1.0, 0.0]]], [[[1.0, 0.0]]], [[[2.0, 0.0]]]]}
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_matrix_roundtrip_bit_for_bit():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    again = decode_matrix(json.loads(json.dumps(encode_matrix(m))))
    assert np.array_equal(m, again)


def test_sequence_roundtrip_bit_for_bit():
    s = random_stieltjes_pd_sequence(q=2, kappa=3, alpha=0.5, seed=3)
    doc = json.loads(json.dumps(encode_sequence(s)))
    again = decode_sequence(doc)
    assert again.alpha == s.alpha and again.side == s.side
    for a, b in zip(s.moments, again.moments):
        assert np.array_equal(a, b)


def test_classify_exit_codes(capsys, f1_file, tmp_path):
    code, payload = run(capsys, "classify", f1_file)
    assert code == EXIT_OK
    assert payload["stieltjes"] == "PD"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"q": 1, "alpha": 0.0, "side": "right",
                               "moments": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]}))
    code, payload = run(capsys, "classify", str(bad))
    assert code == EXIT_NEGATIVE

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    code, _ = run(capsys, "classify", str(malformed))
    assert code == EXIT_USAGE


def test_params_verbs(capsys, f2_file):
    for kind, key in (("q", "values"), ("hankel", "d"), ("favard", "b"), ("ds", "m")):
        code, payload = run(capsys, "params", f2_file, "--kind", kind)
        assert code == EXIT_OK
        assert key in payload


def test_generate_deterministic(capsys):
    code, first = run(capsys, "generate", "--q", "2", "--m", "3", "--alpha", "0.5",
                      "--side", "left", "--seed", "7")
    assert code == EXIT_OK
    code, second = run(capsys, "generate", "--q", "2", "--m", "3", "--alpha", "0.5",
                       "--side", "left", "--seed", "7")
    assert first == second
    assert len(first["moments"]) == 4


def test_generate_past_the_fixture_bound_is_a_precondition_error(capsys):
    # no q = 2, kappa = 6 draw meets the default max_cond = 1e7: the sizes
    # ask for what the generator cannot give, not an internal failure
    with pytest.raises(ValueError, match=r"cond <= 1e\+07 .*\(q=2, kappa=6\)"):
        random_stieltjes_pd_sequence(q=2, kappa=6, seed=0)
    assert main(["generate", "--q", "2", "--m", "6", "--seed", "0"]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and "cond <= 1e+07" in err and "(q=2, kappa=6)" in err


@pytest.mark.parametrize("flag, value", [("--q", "0"), ("--q", "-1"), ("--m", "-1"),
                                         ("--seed", "-1")])
def test_generate_rejects_out_of_range_sizes(capsys, flag, value):
    # q >= 1, m >= 0 and seed >= 0 are checked by the parser: a usage error,
    # not a numpy one
    assert main(["generate", flag, value]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "expected an integer" in err


@pytest.mark.parametrize("side", ["right", "left"])
def test_verify_passes_on_one_moment(capsys, tmp_path, side):
    # kappa = 0 has no shifted sequence; every check that applies holds
    code, doc = run(capsys, "generate", "--q", "2", "--m", "0", "--side", side)
    path = tmp_path / "m0.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "verify", str(path))
    assert code == EXIT_OK
    assert payload["passed"] and all(payload["checks"].values())


def test_resolvent_coefficients(capsys, f1_file):
    code, payload = run(capsys, "resolvent", f1_file)
    assert code == EXIT_OK
    c0 = decode_matrix(payload["coefficients"][0])
    c1 = decode_matrix(payload["coefficients"][1])
    np.testing.assert_allclose(c0, [[1, 1], [0, 1]], atol=1e-12)
    np.testing.assert_allclose(c1, [[0, 0], [-1, -1]], atol=1e-12)

    code, payload = run(capsys, "resolvent", f1_file, "--factor")
    assert code == EXIT_OK
    assert len(payload["factors"]) == 2


def test_solve_verb(capsys, f1_file, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"kind": "CONSTANT", "phi": [[[0.0, 0.0]]],
                                "psi": [[[1.0, 0.0]]]}))
    code, payload = run(capsys, "solve", f1_file, "--pair", str(pair), "--at=-1,2i")
    assert code == EXIT_OK
    vals = payload["values"]
    np.testing.assert_allclose(decode_matrix(vals[0]["s"]), [[0.5]], atol=1e-12)
    np.testing.assert_allclose(decode_matrix(vals[1]["s"]),
                               [[1 / (1 - 2j)]], atol=1e-12)


def test_solve_with_schur_pair(capsys, f1_file, tmp_path):
    pair = tmp_path / "schur.json"
    pair.write_text(json.dumps({"kind": "SCHUR_CONSTANT", "f": [[[1.0, 0.0]]]}))
    code, payload = run(capsys, "solve", f1_file, "--pair", str(pair), "--at=-1")
    assert code == EXIT_OK
    np.testing.assert_allclose(decode_matrix(payload["values"][0]["s"]), [[0.5]],
                               atol=1e-12)


def test_schur_solve_on_the_left_lies_in_the_weyl_interval(capsys, tmp_path):
    # the CI files: a left sequence with alpha = 1 and F = diag(i, 1).  With
    # the right rotation on the left pair, S(2) lay 0.31 above S_max(2)
    assert main(["generate", "--q", "2", "--m", "5", "--side", "left", "--alpha", "1",
                 "--seed", "3"]) == EXIT_OK
    seq = tmp_path / "left.json"
    seq.write_text(capsys.readouterr().out)
    pair = tmp_path / "schur.json"
    pair.write_text(json.dumps({"kind": "SCHUR_CONSTANT",
                                "f": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]}))
    code, solved = run(capsys, "solve", str(seq), "--pair", str(pair), "--at=2")
    assert code == EXIT_OK
    code, ext = run(capsys, "extremal", str(seq), "--at=2")
    assert code == EXIT_OK
    t = decode_matrix(solved["values"][0]["s"])
    lo, hi = decode_matrix(ext["s_min"]), decode_matrix(ext["s_max"])
    tol = 1e-8 * (1 + np.linalg.norm(hi))
    assert min_eig_hermitian_part(t - lo) >= -tol
    assert min_eig_hermitian_part(hi - t) >= -tol


def test_extremal_prints_the_free_point_of_weyl_interval(capsys, tmp_path):
    path = tmp_path / "seq.json"
    for i in range(4):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            path.write_text(json.dumps(encode_sequence(s)))
            code, payload = run(capsys, "extremal", str(path))
            assert code == EXIT_OK and payload["x"] == weyl_interval(s).x


def test_solve_on_cut_is_precondition_error(capsys, f1_file, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"kind": "CONSTANT", "phi": [[[0.0, 0.0]]],
                                "psi": [[[1.0, 0.0]]]}))
    code, _ = run(capsys, "solve", f1_file, "--pair", str(pair), "--at", "3")
    assert code == EXIT_PRECONDITION


@pytest.mark.parametrize("side", ["right", "left"])
def test_extremal_on_cut_is_precondition_error(capsys, tmp_path, side):
    # like solve, extremal --at refuses a point of the half-line, alpha
    # included; the default point, one unit off it, still prints
    s = ladder_fixture(0) if side == "right" else reflect(ladder_fixture(0))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(encode_sequence(s)))
    sign = 1.0 if side == "right" else -1.0
    for x in (s.alpha, s.alpha + 0.5 * sign):
        assert main(["extremal", str(path), f"--at={x}"]) == EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == "" and f"point {x} lies on the cut, the {side} half-line" in err
    code, payload = run(capsys, "extremal", str(path))
    assert code == EXIT_OK and payload["x"] == s.alpha - sign


@pytest.mark.parametrize("side", ["right", "left"])
def test_one_cut_message_across_the_point_entries(capsys, tmp_path, side):
    # lft_solve, weyl_interval, interval_point and the solve and extremal
    # verbs refuse a point of the half-line with one message that names the
    # point and the half-line
    s = ladder_fixture(0) if side == "right" else reflect(ladder_fixture(0))
    x = s.alpha + (0.5 if side == "right" else -0.5)
    span = f"[{s.alpha}, inf)" if side == "right" else f"(-inf, {s.alpha}]"
    seq, pair = tmp_path / "seq.json", tmp_path / "pair.json"
    seq.write_text(json.dumps(encode_sequence(s)))
    pair.write_text(json.dumps({"kind": "CONSTANT", "phi": encode_matrix(np.zeros((s.q, s.q))),
                                "psi": encode_matrix(np.eye(s.q))}))
    for call in (lambda: lft_solve(resolvent_u(s), pair_min(s.q, side), x),
                 lambda: weyl_interval(s, None, x),
                 lambda: interval_point(s, None, x, 0.5 * np.eye(s.q))):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"point {x} lies on the cut, the {side} half-line {span}"
    for z, argv in ((complex(x), ["solve", str(seq), "--pair", str(pair), f"--at={x}"]),
                    (x, ["extremal", str(seq), f"--at={x}"])):
        assert main(argv) == EXIT_PRECONDITION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: point {z} lies on the cut, the {side} half-line {span}\n"


def test_solve_at_an_overflowing_point_exits_3(capsys, tmp_path):
    # CI's sequence scaled to a largest entry of 1e307, and the pair x = I,
    # whose rule is the free extremal with its atom at alpha = 0: at -1e-10,
    # past the atom's reach, s_0 / 1e-10 overflows; no numpy warning leaves main
    assert main(["generate", "--q", "2", "--m", "4", "--seed", "7"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    top = max(abs(x) for s in doc["moments"] for row in s for entry in row for x in entry)
    doc["moments"] = [[[[x * (1e307 / top) for x in entry] for entry in row] for row in s]
                      for s in doc["moments"]]
    seq, pair = tmp_path / "seq.json", tmp_path / "pair-free.json"
    seq.write_text(json.dumps(doc))
    pair.write_text('{"kind": "CONSTANT", "phi": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], '
                    '"psi": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}')
    assert main(["solve", str(seq), "--pair", str(pair), "--at=-1e-10"]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and err == "error: value at point (-1e-10+0j) overflows float64\n"


def test_solve_sums_the_pair_rule_after_its_first_point(capsys, tmp_path):
    # CI's sequence and pair-right.json: at -1e200 solve printed eight NaN
    # entries and exited 0.  Every point sums the pair's rule, whose partial
    # fractions stay finite there: -s_0 / z to rounding, first point or later
    assert main(["generate", "--q", "2", "--m", "4", "--seed", "7"]) == EXIT_OK
    seq, pair = tmp_path / "seq.json", tmp_path / "pair-right.json"
    seq.write_text(capsys.readouterr().out)
    pair.write_text('{"kind": "CONSTANT", "phi": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], '
                    '"psi": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}')
    s0 = decode_sequence(json.loads(seq.read_text()))[0]
    for at, k in (("--at=-1,-1e200", 1), ("--at=-1e200", 0)):
        code, payload = run(capsys, "solve", str(seq), "--pair", str(pair), at)
        far = decode_matrix(payload["values"][k]["s"])
        assert code == EXIT_OK and np.linalg.norm(far * 1e200 - s0) <= 1e-12 * np.linalg.norm(s0)


def test_extremal_at_an_overflowing_point_exits_3(capsys, tmp_path):
    # CI's sequence: -1e-320 passes the point rule, but the free end's atom at
    # alpha = 0 overflows its value; extremal printed eight NaN entries and
    # exited 0, and numpy's warnings came before the error line
    assert main(["generate", "--q", "2", "--m", "4", "--seed", "7"]) == EXIT_OK
    seq = tmp_path / "seq.json"
    seq.write_text(capsys.readouterr().out)
    assert main(["extremal", str(seq), "--at=-1e-320"]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and err == "error: value at point -1e-320 overflows float64\n"


def test_output_holding_nan_exits_3_and_prints_nothing(capsys, monkeypatch):
    # _emit serializes before it writes and refuses NaN and Infinity, which
    # json.dump wrote as bare NaN and Infinity tokens
    import stieltjesmp.cli as cli
    monkeypatch.setattr(cli, "cmd_generate",
                        lambda args: cli._emit({"ok": 1.0, "x": float("nan")}) or EXIT_OK)
    assert main(["generate"]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_extremal_verb(capsys, f1_file):
    code, payload = run(capsys, "extremal", f1_file, "--at=-1")
    assert code == EXIT_OK
    np.testing.assert_allclose(decode_matrix(payload["s_min"]), [[0.5]], atol=1e-12)
    np.testing.assert_allclose(decode_matrix(payload["s_max"]), [[1.0]], atol=1e-12)


def test_recover_verb(capsys, f2_file):
    code, payload = run(capsys, "recover", f2_file, "--which", "max")
    assert code == EXIT_OK
    np.testing.assert_allclose(payload["atoms"], [0.0, 2.0], atol=1e-9)


@pytest.mark.parametrize("side", ["right", "left"])
def test_recover_on_one_moment(capsys, tmp_path, side):
    # m = 0: the free extremal is s_0 at alpha; the wall extremal is 0 and
    # has no measure, which is a precondition error naming that cause
    code, doc = run(capsys, "generate", "--q", "1", "--m", "0", "--side", side)
    path = tmp_path / "m0.json"
    path.write_text(json.dumps(doc))
    free, wall = ("max", "min") if side == "right" else ("min", "max")
    code, payload = run(capsys, "recover", str(path), "--which", free)
    assert code == EXIT_OK
    assert payload["atoms"] == [doc["alpha"]] and payload["masses"] == doc["moments"]
    assert main(["recover", str(path), "--which", wall]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: at m=0 the {'lower' if wall == 'min' else 'upper'}"
                                   f" extremal on the {side} half-line")


def test_hausdorff_verb(capsys, tmp_path):
    doc = {"q": 1, "alpha": 0.0, "side": "right",
           "moments": [[[[1.0, 0.0]]], [[[0.5, 0.0]]]]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "hausdorff", str(path), "--beta", "1.0")
    assert code == EXIT_OK and payload["solvable"]
    doc["moments"][1] = [[[2.0, 0.0]]]
    path.write_text(json.dumps(doc))
    code, payload = run(capsys, "hausdorff", str(path), "--beta", "1.0")
    assert code == EXIT_NEGATIVE and not payload["solvable"]


def test_verify_verb(capsys, f2_file, tmp_path):
    code, payload = run(capsys, "verify", f2_file)
    assert code == EXIT_OK
    assert payload["passed"]
    assert all(payload["checks"].values())

    gen = random_stieltjes_pd_sequence(q=2, kappa=4, alpha=-0.5, side="left", seed=11)
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(encode_sequence(gen)))
    code, payload = run(capsys, "verify", str(path))
    assert code == EXIT_OK and payload["passed"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"q": 1, "alpha": 0.0, "side": "right",
                               "moments": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]}))
    code, payload = run(capsys, "verify", str(bad))
    assert code == EXIT_NEGATIVE


@pytest.mark.parametrize("value", [1.0, -1.0])
def test_verify_reports_a_degenerate_weyl_interval(capsys, f1_file, monkeypatch, value):
    # both extremals stubbed to one value: weyl_interval raises its
    # ArithmeticError, and verify records weyl_gap_pd false, skips the
    # gap-dependent difference_inverse check and still emits its document
    import stieltjesmp.solutions as solutions
    monkeypatch.setattr(solutions.ExtremalSolution, "__call__",
                        lambda self, z: np.full(np.shape(z) + (1, 1), value, dtype=complex))
    code, payload = run(capsys, "verify", f1_file)
    assert code == EXIT_INCONSISTENT and payload is not None and not payload["passed"]
    assert payload["checks"]["weyl_gap_pd"] is False
    assert "difference_inverse" not in payload["checks"]
    assert payload["checks"]["measure_moments"] and payload["checks"]["j_inner"]


def test_verify_judges_the_extremals_on_the_ladder(capsys, tmp_path):
    # the verb prints the library's report, check by check
    path = tmp_path / "seq.json"
    for i in range(len(LADDER)):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            path.write_text(json.dumps(encode_sequence(s)))
            code, payload = run(capsys, "verify", str(path))
            assert code == EXIT_OK and payload["checks"]["extremal_lft"]
            checks = {name: check.passed for name, check in verify(s).items()}
            assert payload == {"checks": checks, "passed": True}


def _assert_verify_passes_with_an_accurate_difference_inverse(capsys, tmp_path, s):
    # difference_inverse within 1e-10 of inv(gap) at x = alpha - 1, and every
    # check of verify holds; the Hankel quadruple route is no check of verify
    x = s.alpha - 1.0
    got = difference_inverse(s, s.kappa, x)
    want = np.linalg.inv(weyl_interval(s, s.kappa, x).gap)
    assert np.linalg.norm(want - got) <= 1e-10 * (1 + np.linalg.norm(got))
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(encode_sequence(s)))
    code, payload = run(capsys, "verify", str(path))
    assert code == EXIT_OK and payload["passed"] and all(payload["checks"].values())
    assert payload["checks"]["difference_inverse"] and "quadruple_route" not in payload["checks"]


def test_difference_inverse_keeps_its_digits_past_the_hankel_formula(capsys, tmp_path):
    # here the closed Hankel formula is 4.0e-6 off inv(gap) at x = alpha - 1,
    # past verify's 1e-7, and the sum of the Hankel monic rows 1.1e-8; the sum
    # over the chain of (L, M) is 2.8e-12 off
    s = random_fixture(q=4, kappa=5, seed=8, max_cond=None)
    _assert_verify_passes_with_an_accurate_difference_inverse(capsys, tmp_path, s)


@pytest.mark.parametrize("kappa", [9, 10])
def test_verify_passes_on_ill_conditioned_lm_draws(capsys, tmp_path, kappa):
    # q = 2 draws of (L, M), then their moments: the Hankel quadruple raised a
    # bare AssertionError from its shift-identity check at kappa = 9 (cond(H_4)
    # about 1e17), and at kappa = 10 it and the Hankel-row difference inverse
    # missed verify's bounds; the chain routes pass both
    s = lm_draw(1, 2, kappa, 2)
    _assert_verify_passes_with_an_accurate_difference_inverse(capsys, tmp_path, s)


def test_verify_draws_its_points_in_re_im_pairs():
    # verify evaluates its 20 sample points as one array; the array must hold
    # the points a loop of complex(re, im) draws made, in the same order.  It
    # reads them, and then its 15 j_inner samples, from a fixed table, which
    # must be default_rng(0)'s draws bit for bit, Python complex and float
    from stieltjesmp.measures import _POINTS, _SAMPLES
    rng = np.random.default_rng(0)
    loop = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(20)]
    samples = [complex(rng.standard_normal(), abs(rng.standard_normal()) + 0.1)
               for _ in range(10)] + [rng.standard_normal() for _ in range(5)]
    np.testing.assert_array_equal(np.random.default_rng(0).standard_normal(40).view(complex), loop)
    assert np.array(_POINTS).view(complex).tolist() == loop
    assert _SAMPLES == tuple(samples) and list(map(type, _SAMPLES)) == list(map(type, samples))


def test_the_class_is_named_before_the_index(capsys, tmp_path):
    path = tmp_path / "nnd.json"
    path.write_text(json.dumps({"q": 1, "alpha": 0, "side": "right",
                                "moments": [[[1]], [[0]], [[1]]]}))
    assert main(["resolvent", "--m", "9", str(path)]) == EXIT_PRECONDITION
    assert "not alpha-Stieltjes positive definite" in capsys.readouterr().err


def test_solve_names_both_sizes_of_a_pair_that_does_not_fit(capsys, tmp_path):
    seq, pair = tmp_path / "seq.json", tmp_path / "pair.json"
    seq.write_text(json.dumps(encode_sequence(random_stieltjes_pd_sequence(q=2, kappa=4,
                                                                           seed=7))))
    pair.write_text(json.dumps({"kind": "CONSTANT", "phi": [[1]], "psi": [[1]]}))
    assert main(["solve", str(seq), "--pair", str(pair), "--at=-1"]) == EXIT_PRECONDITION
    assert "pair is 1 x 1, U has 2 x 2 blocks" in capsys.readouterr().err


def test_a_pair_document_is_decoded_as_strictly_as_a_sequence(capsys, f1_file, tmp_path):
    # a pair file holding a list or a string crashed solve with an
    # AttributeError, and an unknown or non-string kind was solved as CONSTANT
    pair = tmp_path / "pair.json"
    good = {"phi": [[1.0]], "psi": [[1.0]]}
    for doc, msg in (([1], "pair document must be an object, got list"),
                     ("text", "pair document must be an object, got str"),
                     (dict(good, kind="BOGUS"), "got 'BOGUS'"),
                     (dict(good, kind=["x"]), "got ['x']")):
        pair.write_text(json.dumps(doc))
        assert main(["solve", f1_file, "--pair", str(pair), "--at=-1"]) == EXIT_USAGE
        assert msg in capsys.readouterr().err
    for kind in ({}, {"kind": "CONSTANT"}):
        pair.write_text(json.dumps(dict(good, **kind)))
        assert main(["solve", f1_file, "--pair", str(pair), "--at=-1"]) == EXIT_OK
        capsys.readouterr()


def test_a_q_that_is_not_an_integer_is_a_usage_error(capsys, tmp_path):
    # q = 1.9 used to be truncated to 1 and classified; an integral float
    # such as 2.0 is still the integer it names
    path = tmp_path / "seq.json"
    scalar = {"alpha": 0.0, "side": "right", "moments": [[[1.0]], [[1.0]], [[2.0]]]}
    matrix = encode_sequence(ladder_fixture(3))   # q = 2
    for doc, q, want in ((scalar, 1.9, EXIT_USAGE), (scalar, 1.0, EXIT_OK),
                         (matrix, 2.5, EXIT_USAGE), (matrix, 2.0, EXIT_OK), (matrix, 2, EXIT_OK)):
        path.write_text(json.dumps(dict(doc, q=q)))
        assert main(["classify", str(path)]) == want
        assert ("q must be an integer" in capsys.readouterr().err) == (want == EXIT_USAGE)


def test_decoders_reject_non_finite_and_booleans(capsys, tmp_path):
    # json.dumps writes NaN / Infinity literals, and json.load accepts them
    nan, inf = float("nan"), float("inf")
    good = {"q": 1, "alpha": 0.0, "side": "right",
            "moments": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}
    docs = [dict(good, moments=[good["moments"][0], bad])
            for bad in ([[[nan, 0.0]]], [[[1.0, inf]]], [[True]], [[[1.0, False]]])]
    docs += [dict(good, alpha=nan), dict(good, alpha=True), dict(good, q=inf)]
    path = tmp_path / "seq.json"
    for doc in docs:
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, "classify", str(path))
        assert code == EXIT_USAGE
    path.write_text(json.dumps(good))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"kind": "CONSTANT", "phi": [[nan]], "psi": [[1.0]]}))
    code, _ = run(capsys, "solve", str(path), "--pair", str(pair), "--at=-1")
    assert code == EXIT_USAGE
    # a valid pair, so that solve reaches its points; the i of inf is no imaginary unit
    pair.write_text(json.dumps({"kind": "CONSTANT", "phi": [[1.0]], "psi": [[1.0]]}))
    for at in ("nan", "inf", "-inf", "infj"):
        assert main(["solve", str(path), "--pair", str(pair), f"--at={at}"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: point {at!r} is not finite\n"
    for argv in (("extremal", str(path), "--at=nan"), ("extremal", str(path), "--at=x"),
                 ("hausdorff", str(path), "--beta=inf"), ("generate", "--alpha=nan")):
        code, _ = run(capsys, *argv)
        assert code == EXIT_USAGE
    code, payload = run(capsys, "solve", str(path), "--pair", str(pair), "--at=-1+2i,-i")
    assert code == EXIT_OK and [v["z"] for v in payload["values"]] == [[-1.0, 2.0], [0.0, -1.0]]


# --- the CLI process: one BLAS thread, set before numpy loads ----------------

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def child(*argv, **env):
    """A Python child on src/ with neither thread variable set but those in
    env: its stdout, once it exits 0."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    res = subprocess.run([sys.executable, *argv], env={**base, "PYTHONPATH": SRC, **env},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_import_stieltjesmp_loads_no_numpy_until_a_name_is_read():
    # the package is a table until its first read; that read binds every
    # export, so vars() is complete and the next read is a plain lookup
    child("-c", """
import sys
import stieltjesmp as smp
assert "numpy" not in sys.modules and "stieltjesmp.linalg" not in sys.modules
assert "lft_solve" not in vars(smp) and set(smp.__all__) <= set(dir(smp))
smp.lft_solve
assert "numpy" in sys.modules and set(smp.__all__) <= set(vars(smp))
assert smp.linalg is sys.modules["stieltjesmp.linalg"]
""")


def test_an_import_of_the_cli_module_writes_no_environment():
    # the tests, the demos and the bench import the CLI in process: a child
    # they start must inherit the environment they were given
    out = child("-c", """
import os
before = dict(os.environ)
import stieltjesmp.cli
assert dict(os.environ) == before
print(os.environ.get("OPENBLAS_NUM_THREADS"))
""")
    assert out.split() == ["None"]


# the two CLI entries, each started the way its process starts, with no verb:
# a usage error (exit 64) after the pin, then the two variables as it left them
ENTRIES = {
    "-m stieltjesmp.cli": 'import runpy; runpy.run_module("stieltjesmp.cli", run_name="__main__")',
    "console script": "from stieltjesmp._launch import main; sys.exit(main())",
}


@pytest.mark.parametrize("given, want", [
    ({}, ["1", "None"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "None"]),
    ({"OMP_NUM_THREADS": "2"}, ["None", "2"]),
], ids=["unset", "openblas-2", "omp-2"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_cli_process_runs_blas_on_one_thread_unless_the_user_chose(entry, given, want):
    out = child("-c", f"""
import os, sys
sys.argv = ["stieltjesmp"]
try:
    {ENTRIES[entry]}
except SystemExit as exc:
    assert exc.code == 64, exc.code
print(*(os.environ.get(k) for k in {THREAD_VARS!r}))
""", **given)
    assert out.split() == want


@pytest.mark.parametrize("i", [0, 3])
def test_verify_prints_the_same_bytes_with_and_without_the_pin(tmp_path, i):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(encode_sequence(ladder_fixture(i))))
    pinned = child("-m", "stieltjesmp.cli", "verify", str(path))
    pool = child("-m", "stieltjesmp.cli", "verify", str(path),
                 OPENBLAS_NUM_THREADS=str(max(2, os.cpu_count() or 2)))
    assert json.loads(pinned)["passed"] and pinned == pool
