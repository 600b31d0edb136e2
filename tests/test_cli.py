import json

import numpy as np
import pytest

from stieltjesmp.cli import (
    EXIT_NEGATIVE, EXIT_OK, EXIT_PRECONDITION, EXIT_USAGE,
    decode_matrix, decode_sequence, encode_matrix, encode_sequence, main,
)
from stieltjesmp import random_stieltjes_pd_sequence


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


def test_solve_on_cut_is_precondition_error(capsys, f1_file, tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"kind": "CONSTANT", "phi": [[[0.0, 0.0]]],
                                "psi": [[[1.0, 0.0]]]}))
    code, _ = run(capsys, "solve", f1_file, "--pair", str(pair), "--at", "3")
    assert code == EXIT_PRECONDITION


def test_extremal_verb(capsys, f1_file):
    code, payload = run(capsys, "extremal", f1_file, "--at=-1")
    assert code == EXIT_OK
    np.testing.assert_allclose(decode_matrix(payload["s_min"]), [[0.5]], atol=1e-12)
    np.testing.assert_allclose(decode_matrix(payload["s_max"]), [[1.0]], atol=1e-12)


def test_recover_verb(capsys, f2_file):
    code, payload = run(capsys, "recover", f2_file, "--which", "max")
    assert code == EXIT_OK
    np.testing.assert_allclose(payload["atoms"], [0.0, 2.0], atol=1e-9)


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


def test_verify_draws_its_points_in_re_im_pairs():
    # verify evaluates its 20 sample points as one array; the array must hold
    # the points a loop of complex(re, im) draws made, in the same order
    rng = np.random.default_rng(0)
    loop = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(20)]
    np.testing.assert_array_equal(np.random.default_rng(0).standard_normal(40).view(complex), loop)


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
    for argv in (("solve", str(path), "--pair", str(pair), "--at=nan"),
                 ("extremal", str(path), "--at=nan"), ("extremal", str(path), "--at=x"),
                 ("hausdorff", str(path), "--beta=inf"), ("generate", "--alpha=nan")):
        code, _ = run(capsys, *argv)
        assert code == EXIT_USAGE
