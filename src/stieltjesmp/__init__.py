"""Computational toolkit for truncated matricial alpha-Stieltjes moment problems."""

from .linalg import (
    DEFAULT_TOL, INDEFINITE, JQ, JQQ, JTILDE, NON_HERMITIAN, PD, PSD,
    block_psd, hermitize, is_psd, j_defect, psd_class, signature_matrix,
    sqrt_psd,
)
from .moments import (
    LEFT, NND, NND_EXTENDABLE, RIGHT, MomentSequence,
    SequenceClass, classify, half, potapov_defect,
    potapov_defect_psd, reflect, sequence, shift_sequence, side_sign,
)
from .params import (
    CanonicalHankelParam, DSParam, FavardPair, StieltjesParam,
    canonical_hankel_param, ds_from_q, ds_param, favard_from_ds,
    favard_from_q, favard_pair, q_from_ds, random_pd,
    random_stieltjes_pd_sequence, seq_from_canonical, seq_from_ds,
    seq_from_stieltjes_param, stieltjes_param,
)
from .orthopoly import (
    GENERAL, MONIC, MatrixPolynomial, StieltjesQuadruple, det_zeros,
    monic_orthogonal_system, real_zeros, second_kind_system,
    stieltjes_quadruple,
)
from .resolvent import (
    DyukarevQuadruple, FactorChain, JInnerReport, ResolventU,
    dyukarev_quadruple, factorize_u, j_inner_check, leading_terms,
    resolvent_u, schur_rotation,
)
from .solutions import (
    CONSTANT, SCHUR_CONSTANT, ExtremalSolution, SingularDenominator,
    StieltjesPair, WeylInterval, difference_inverse, extremal,
    interval_point, lft_solve, pair_max, pair_min,
    weyl_interval,
)
from .measures import (
    HausdorffReport, MolecularMeasure, hausdorff_solvable, measure_moments,
    recover_max, recover_min, stieltjes_transform, verify,
)

__version__ = "0.1.0"
