"""Exact prolongations and jet spaces over fields with commuting Hasse derivations."""

from .fields import FieldDescriptor, Scalar, binom, comp_coeff, multinomial
from .multiindex import (
    enumerate_multiindices,
    graded_lex_key,
    index_add,
    index_leq,
    index_size,
    indices_below,
    splittings,
    unit_index,
    zero_index,
)
from .basefield import BaseElem, ParamPoly, hasse_derive, poly_divexact, poly_gcd
from .series import (
    TruncatedElement,
    trunc_inverse,
    twist_expand,
    twist_inverse,
    twist_psi,
)
from .diffpoly import (
    DerivationMode,
    DiffPoly,
    DiffSymbol,
    apply_d,
    symbol_derive,
    taylor_oracle,
)
from .presentations import (
    PointNotOnVariety,
    ProlongationPresentation,
    VarietyPresentation,
    apply_lift,
    base_change,
    base_change_elem,
    base_change_poly,
    ideal_membership_witness,
    lift_morphism,
    nabla,
    point_projection,
    point_to_base,
    presentation_to_json,
    projection_restrict,
    prolong_presentation,
    render_presentation,
)
from .layered import (
    LayeredPoly,
    LayeredSymbol,
    TruncationOverflow,
    check_phi_psi_inverse,
    check_theta_relations,
    layered_expand,
    multinomial_identity_check,
    ordered_partitions,
    outer_derive,
    phi,
    psi,
    report_passed,
    tensor_left_action,
    tensor_right_action,
    theta,
    twisted_tensor_check,
)
from .docparse import (
    InputDocument,
    ParseError,
    parse_assignments,
    parse_document,
    render_document,
)
from .checks import CHECK_NAMES, run_checks

__version__ = "0.1.0"

__all__ = [
    "FieldDescriptor", "Scalar", "binom", "comp_coeff", "multinomial",
    "enumerate_multiindices", "graded_lex_key", "index_add", "index_leq",
    "index_size", "indices_below", "splittings", "unit_index", "zero_index",
    "BaseElem", "ParamPoly", "hasse_derive", "poly_divexact", "poly_gcd",
    "TruncatedElement", "trunc_inverse", "twist_expand", "twist_inverse",
    "twist_psi",
    "DerivationMode", "DiffPoly", "DiffSymbol", "apply_d",
    "symbol_derive", "taylor_oracle",
    "PointNotOnVariety", "ProlongationPresentation", "VarietyPresentation",
    "apply_lift", "base_change", "base_change_elem", "base_change_poly",
    "ideal_membership_witness", "lift_morphism", "nabla", "point_projection",
    "point_to_base", "presentation_to_json", "projection_restrict",
    "prolong_presentation", "render_presentation",
    "LayeredPoly", "LayeredSymbol", "TruncationOverflow",
    "check_phi_psi_inverse", "check_theta_relations", "layered_expand",
    "multinomial_identity_check", "ordered_partitions", "outer_derive",
    "phi", "psi", "report_passed", "tensor_left_action", "tensor_right_action",
    "theta", "twisted_tensor_check",
    "InputDocument", "ParseError", "parse_assignments", "parse_document",
    "render_document",
    "CHECK_NAMES", "run_checks",
]
