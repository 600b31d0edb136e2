import ast
import functools
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import stieltjesmp
from stieltjesmp import (
    CONSTANT, DEFAULT_TOL, INDEFINITE, JQ, JQQ, JTILDE, NON_HERMITIAN, PD, PSD, StieltjesPair,
    block_psd, j_defect, potapov_defect, psd_class, random_stieltjes_pd_sequence,
    signature_matrix, sqrt_psd,
)
from stieltjesmp.linalg import _pinv, _psd_class, _psd_classes

ROOT = Path(__file__).resolve().parent.parent


def test_is_hermitian_cases():
    # the Hermitian rule is the one psd_class applies before any eigenvalue
    assert psd_class(np.array([[0, -1j], [1j, 0]])) != NON_HERMITIAN
    assert psd_class(np.eye(3)) != NON_HERMITIAN
    assert psd_class(np.array([[0, 1], [0, 0]])) == NON_HERMITIAN


def test_is_hermitian_rejects_non_square():
    with pytest.raises(ValueError):
        psd_class(np.ones((2, 3)))


def test_psd_class_cases():
    assert psd_class(np.eye(2)) == PD
    assert psd_class(np.array([[1, 1], [1, 1]])) == PSD
    assert psd_class(np.diag([1.0, -1.0])) == INDEFINITE
    assert psd_class(np.array([[0, 1], [0, 0]])) == NON_HERMITIAN


def test_psd_class_is_the_stacked_classifier_on_one_matrix():
    cases = [np.eye(2), np.array([[1, 1], [1, 1]]), np.diag([1.0, -1.0]),
             np.array([[0, 1], [0, 0]]), 1e-10 * np.eye(2), np.diag([1e-10, 1.0]),
             np.diag([2e-10, 1.0]), -1e-10 * np.eye(2)]
    stack = np.array(cases, dtype=complex)
    classes = _psd_classes(stack)
    for a, cls in zip(stack, classes):
        assert _psd_class(a) == cls == _psd_classes(a[None])[0]
    assert list(classes) == [PD, PSD, INDEFINITE, NON_HERMITIAN, PSD, PSD, PD, PSD]


def test_pinv_diagonal_and_rank_one():
    np.testing.assert_allclose(_pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)
    np.testing.assert_allclose(_pinv(np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(_pinv(np.ones((2, 2))), 0.25 * np.ones((2, 2)), atol=1e-14)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        ap = _pinv(a)
        tol = DEFAULT_TOL.identity_tol
        assert np.linalg.norm(a @ ap @ a - a) < tol * (1 + np.linalg.norm(a))
        assert np.linalg.norm(ap @ a @ ap - ap) < tol * (1 + np.linalg.norm(ap))
        assert np.linalg.norm((a @ ap).conj().T - a @ ap) < tol
        assert np.linalg.norm((ap @ a).conj().T - ap @ a) < tol


def test_sqrt_psd():
    np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(sqrt_psd(np.zeros((3, 3))), np.zeros((3, 3)), atol=1e-14)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    r = sqrt_psd(a)
    np.testing.assert_allclose(r @ r, a, atol=1e-12)
    assert psd_class(r) == PD
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(r)), [1.0, np.sqrt(3)], atol=1e-12)


def test_sqrt_psd_property():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = g @ g.conj().T
        r = sqrt_psd(a)
        assert np.linalg.norm(r @ r - a) < DEFAULT_TOL.identity_tol * (1 + np.linalg.norm(a))
        assert psd_class(r) in (PD, PSD)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValueError):
        sqrt_psd(np.diag([1.0, -1.0]))


def test_block_psd_cases():
    one = np.eye(1)
    zero = np.zeros((1, 1))
    assert block_psd(one, one, one, one)
    assert not block_psd(one, one, one, zero)      # Schur complement -1
    assert not block_psd(zero, one, one, one)      # range condition fails


def test_block_psd_matches_assembled_spectrum():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(200):
        e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        e = e @ e.conj().T if rng.uniform() < 0.5 else (e + e.conj().T)
        a, b, c, d = e[:2, :2], e[:2, 2:], e[2:, :2], e[2:, 2:]
        want = psd_class(e) in (PD, PSD)
        assert block_psd(a, b, c, d) == want
        hits += want
    assert 0 < hits < 200


def test_a_matrix_of_the_wrong_size_names_both_sizes():
    # the one matrix rule checks each matrix against the size it must have:
    # potapov_defect's S value against q (numpy's concatenate message leaked),
    # psi against phi (numpy's vstack message) and j_defect's argument
    # against J
    s = random_stieltjes_pd_sequence(1, 4, seed=1)
    for call, message in (
            (lambda: potapov_defect(s, np.eye(2), 1j), "S value has shape (2, 2), expected (1,1)"),
            (lambda: StieltjesPair(kind=CONSTANT, phi=np.eye(2), psi=np.eye(1)),
             "psi has shape (1, 1), expected (2,2)"),
            (lambda: j_defect(signature_matrix(JTILDE, 1), np.eye(3)),
             "argument has shape (3, 3), expected (2,2)")):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("kind", [JTILDE, JQ, JQQ])
def test_signature_matrices(kind):
    for q in (1, 2, 3):
        j = signature_matrix(kind, q)
        np.testing.assert_allclose(j, j.conj().T, atol=1e-14)
        np.testing.assert_allclose(j @ j, np.eye(2 * q), atol=1e-14)


def test_j_defect_cases():
    jt = signature_matrix(JTILDE, 1)
    np.testing.assert_allclose(j_defect(jt, np.eye(2)), np.zeros((2, 2)), atol=1e-14)
    # real lower unit-triangular blocks are J-unitary
    for z in (-2.0, 0.3, 5.0):
        w = np.array([[1, 0], [-z, 1]], dtype=complex)
        np.testing.assert_allclose(j_defect(jt, w), np.zeros((2, 2)), atol=1e-14)
    # an imaginary corner gives a PSD defect diag(2, 0)
    w = np.array([[1, 0], [-1j, 1]], dtype=complex)
    np.testing.assert_allclose(j_defect(jt, w), np.diag([2.0, 0.0]), atol=1e-14)


def _public_surface():
    """The names stieltjesmp exports, and the constructor and the public
    methods and properties of each class it exports, by qualified name."""
    for name, obj in vars(stieltjesmp).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        yield name, obj
        if inspect.isclass(obj) and obj.__module__.startswith("stieltjesmp"):
            for attr, raw in vars(obj).items():
                member = getattr(obj, attr)
                if (attr == "__init__" or not attr.startswith("_")) \
                        and (inspect.isfunction(member) or inspect.ismethod(member)
                             or isinstance(raw, (property, functools.cached_property))):
                    yield f"{name}.{attr}", member


def _public_callables():
    """The functions of the public surface: exported functions, methods and
    constructors."""
    for name, obj in _public_surface():
        if inspect.isfunction(obj) or inspect.ismethod(obj):
            yield name, obj


def test_no_public_callable_takes_a_tolerance():
    # thresholds live in DEFAULT_TOL only: no per-call override anywhere
    names = dict(_public_callables())
    assert {"psd_class", "random_pd", "MatrixPolynomial.conj_star"} <= set(names)
    knobs = [f"{name}({p})" for name, fn in names.items()
             for p in inspect.signature(fn).parameters if p in ("tol", "spread")]
    assert knobs == []


# Exported with no reader outside the tests: objects the paper defines,
# which the tests check against the production route.
PAPER_OBJECTS = {
    "dyukarev_quadruple", "DyukarevQuadruple",   # the resolvent blocks A, B, C, D
    "second_kind_system",    # the second kind polynomials of a Hankel-PD prefix
    "potapov_defect_psd",    # the Potapov criterion a solution value satisfies
}


class _Reader(ast.NodeVisitor):
    """The names a module loads and the attributes it reads, each outside a
    def of the same name.  An attribute of `smp`, the name under which the
    demos and the bench hold the package, reads an exported name."""

    def __init__(self):
        self.names, self.attrs, self._defs = set(), set(), []

    def _scope(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    visit_FunctionDef = visit_ClassDef = _scope

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self._defs:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._defs:
            self.attrs.add(node.attr)
            base = node.value
            if getattr(base, "id", getattr(base, "attr", None)) == "smp":
                self.names.add(node.attr)
        self.generic_visit(node)


def test_public_surface_has_a_reader():
    # every exported name, and every public method or property of an exported
    # class, is read by the package (its re-exports in __init__ aside), the
    # CLI, a demo or the bench, or is on PAPER_OBJECTS; what only the tests
    # read belongs in tests/conftest.py
    reader = _Reader()
    paths = [p for p in (ROOT / "src" / "stieltjesmp").glob("*.py") if p.name != "__init__.py"]
    for path in paths + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        reader.visit(ast.parse(path.read_text(), str(path)))
    surface = [name for name, _ in _public_surface() if not name.endswith(".__init__")]
    assert PAPER_OBJECTS <= set(surface)
    unread = [name for name in surface if name not in PAPER_OBJECTS
              and (name.split(".")[1] not in reader.attrs if "." in name
                   else name not in reader.names)]
    assert unread == []
