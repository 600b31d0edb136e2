"""Computational toolkit for truncated matricial alpha-Stieltjes moment problems.

`import stieltjesmp` imports no submodule and so no numpy: the package is
one table of its exported names, by the submodule that defines each.  The
first read of any exported name (or of a submodule's name) imports every
submodule and binds every export into the package at once (PEP 562
__getattr__); from then on the package is what an eager one is, vars()
complete and each name a plain module lookup.  The CLI relies on this: it
sets the BLAS thread count before numpy loads (see stieltjesmp.cli).
"""

import importlib

__version__ = "0.1.0"

# each submodule's exports, in the order the submodules are imported
_TABLE = {
    "linalg": (
        "DEFAULT_TOL", "INDEFINITE", "JQ", "JQQ", "JTILDE", "NON_HERMITIAN", "PD", "PSD",
        "block_psd", "hermitize", "is_psd", "j_defect", "psd_class", "signature_matrix",
        "sqrt_psd",
    ),
    "moments": (
        "LEFT", "NND", "NND_EXTENDABLE", "RIGHT", "MomentSequence",
        "SequenceClass", "classify", "half", "potapov_defect",
        "potapov_defect_psd", "reflect", "sequence", "shift_sequence", "side_sign",
    ),
    "params": (
        "CanonicalHankelParam", "DSParam", "FavardPair", "StieltjesParam",
        "canonical_hankel_param", "ds_from_q", "ds_param", "favard_from_ds",
        "favard_from_q", "favard_pair", "q_from_ds", "random_pd",
        "random_stieltjes_pd_sequence", "seq_from_canonical", "seq_from_ds",
        "seq_from_stieltjes_param", "stieltjes_param",
    ),
    "orthopoly": (
        "GENERAL", "MONIC", "MatrixPolynomial", "StieltjesQuadruple", "det_zeros",
        "monic_orthogonal_system", "real_zeros", "second_kind_system",
        "stieltjes_quadruple",
    ),
    "resolvent": (
        "DyukarevQuadruple", "FactorChain", "JInnerReport", "ResolventU",
        "dyukarev_quadruple", "factorize_u", "j_inner_check", "leading_terms",
        "resolvent_u", "schur_rotation",
    ),
    "solutions": (
        "CONSTANT", "SCHUR_CONSTANT", "ExtremalSolution", "SingularDenominator",
        "StieltjesPair", "WeylInterval", "difference_inverse", "extremal",
        "interval_point", "lft_solve", "pair_max", "pair_min",
        "weyl_interval",
    ),
    "measures": (
        "HausdorffReport", "MolecularMeasure", "hausdorff_solvable", "measure_moments",
        "recover_max", "recover_min", "stieltjes_transform", "verify",
    ),
}

__all__ = [name for names in _TABLE.values() for name in names]


def __getattr__(name):
    """Import every submodule and bind every export, at the first read of
    an exported name or a submodule; any other name is missing."""
    if name not in _TABLE and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module_name, names in _TABLE.items():
        module = importlib.import_module(f".{module_name}", __name__)
        namespace.update((n, getattr(module, n)) for n in names)
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
