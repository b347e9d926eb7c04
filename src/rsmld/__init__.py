"""Minimal list decoding of Reed-Solomon codes.

Given a received word r, find the exact minimum Hamming distance from r
to the code and *all* codewords at that distance.  Decoding runs over a
minimal Gröbner basis of the interpolation module in F[x]^2; a rational
curve-fitting fast path handles the higher search levels.
"""

from .bivar import (BivariatePolynomial, ProjectivePoint, hasse_constraints,
                    hasse_derivative_value, koetter_interpolate)
from .code import (DecodeOutcome, OracleBudgetExceeded, RSCode, Word,
                   corrupt, hamming_distance, random_word)
from .division import (RadiusCapExceeded, Reencoding, decode_minimal,
                       decode_minimal_reencoded, extract_message, reencode,
                       search_radius_cap)
from .fields import Field, FieldMismatch, parse_field
from .groebner import (GroebnerPair, ModuleVector, WeightedOrder,
                       decoder_order, mgb_euclid, mgb_euclid_reencoded,
                       mgb_iterative, mgb_iterative_reencoded)
from .polys import Polynomial, lagrange_interpolate, vanishing_poly
from .rational import anchor_points, decode_rational, rational_factorize
from .ratparams import (InfeasibleParams, InterpParams, MultiplicityScan,
                        OptimizeResult, QuadraticRoot, multiplicity_scan,
                        optimize_params, single_multiplicity_params,
                        wu_params)

__version__ = "0.1.0"

__all__ = [
    "BivariatePolynomial", "ProjectivePoint", "hasse_constraints",
    "hasse_derivative_value", "koetter_interpolate",
    "DecodeOutcome", "OracleBudgetExceeded", "RSCode", "Word",
    "corrupt", "hamming_distance", "random_word",
    "RadiusCapExceeded", "Reencoding", "decode_minimal",
    "decode_minimal_reencoded", "extract_message", "reencode",
    "search_radius_cap",
    "Field", "FieldMismatch", "parse_field",
    "GroebnerPair", "ModuleVector", "WeightedOrder", "decoder_order",
    "mgb_euclid", "mgb_euclid_reencoded", "mgb_iterative",
    "mgb_iterative_reencoded",
    "Polynomial", "lagrange_interpolate", "vanishing_poly",
    "anchor_points", "decode_rational", "rational_factorize",
    "InfeasibleParams", "InterpParams", "MultiplicityScan",
    "OptimizeResult", "QuadraticRoot", "multiplicity_scan",
    "optimize_params", "single_multiplicity_params", "wu_params",
    "__version__",
]
