"""Exact arithmetic for split hyperelliptic curves: double covers and their
Prym models, point counts over finite fields, discriminant certificates for
binary forms, and recovery of integral points from candidate cover data.

Everything in this package computes exactly (arbitrary-precision rationals
and explicit multi-quadratic field elements); floating point never appears
in results.
"""

from .binforms import (
    BinaryForm,
    FormCertificate,
    GL2Matrix,
    PrimeEntry,
    ReductionReport,
    ResidueCurve,
    bf_disc,
    bf_transform,
    certify_form,
    disc_is_s_unit,
    integral_point_to_form,
    reduction_classify,
)
from .covers import (
    BetaTuple,
    CoverCertificate,
    TowerEquations,
    all_plus_beta_tuple,
    beta_tuples,
    cross_ratio,
    curve_through_betas,
    prym_curve_equation,
    reconstruct_h_f,
    tower_equations,
)
from .curves import (
    CurvePoint,
    HyperCurve,
    bad_primes,
    compute_t,
    hyperelliptic_involution,
    is_on_curve,
    make_curve,
)
from .errors import InternalCheckError
from .finitefield import FiniteField, get_field, least_nonresidue
from .points import (
    CandidateSet,
    IntegralitySpec,
    brute_force_points,
    cr_elimination_poly,
    exceptional_points,
    rational_roots,
    recover_points,
    recover_points_detailed,
)
from .polys import PoleError, Poly, RatFunc, clear_denominators, poly_disc, resultant
from .scalars import (
    MQElem,
    ORD_INFINITY,
    FactorizationError,
    Rat,
    Scalar,
    as_rational,
    factorize,
    is_prime,
    rat_ord_p,
    rational_prime_support,
    sqrt_adjoin,
)
from .zeta import (
    FFCurve,
    LPoly,
    PrymCheckReport,
    ReducedCover,
    count_double_cover,
    count_points,
    jacobian_order,
    l_polynomial,
    prym_check_obstruction,
    prym_product_check,
    reduce_cover,
    reduce_curve,
    split_l_polynomial,
)

__version__ = "0.1.0"
