"""Exact prolongations and jet spaces over fields with commuting Hasse derivations."""

from .fields import FieldDescriptor, binom, comp_coeff, multinomial
from .multiindex import (
    enumerate_multiindices,
    graded_lex_key,
    index_add,
    index_leq,
    index_size,
    indices_below,
    splittings,
)
from .basefield import BaseElem, ParamPoly, hasse_derive, poly_divexact, poly_gcd
from .series import TruncatedElement, twist_expand, twist_inverse, twist_psi
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
    projection_restrict,
    prolong_presentation,
    render_presentation,
)
from .layered import (
    LayeredPoly,
    TruncationOverflow,
    layered_expand,
    outer_derive,
    phi,
    psi,
    tensor_left_action,
    tensor_right_action,
    theta,
)
from .checks import (
    check_phi_psi_inverse,
    check_theta_relations,
    multinomial_identity_check,
    ordered_partitions,
    report_passed,
    twisted_tensor_check,
)
from .docparse import (
    InputDocument,
    ParseError,
    parse_assignments,
    parse_document,
    render_document,
)

__version__ = "0.1.0"

__all__ = [
    "FieldDescriptor", "binom", "comp_coeff", "multinomial",
    "enumerate_multiindices", "graded_lex_key", "index_add", "index_leq",
    "index_size", "indices_below", "splittings",
    "BaseElem", "ParamPoly", "hasse_derive", "poly_divexact", "poly_gcd",
    "TruncatedElement", "twist_expand", "twist_inverse", "twist_psi",
    "DerivationMode", "DiffPoly", "DiffSymbol", "apply_d",
    "symbol_derive", "taylor_oracle",
    "PointNotOnVariety", "VarietyPresentation",
    "apply_lift", "base_change", "base_change_elem", "base_change_poly",
    "ideal_membership_witness", "lift_morphism", "nabla", "point_projection",
    "point_to_base", "projection_restrict",
    "prolong_presentation", "render_presentation",
    "LayeredPoly", "TruncationOverflow", "layered_expand", "outer_derive",
    "phi", "psi", "tensor_left_action", "tensor_right_action", "theta",
    "check_phi_psi_inverse", "check_theta_relations", "multinomial_identity_check",
    "ordered_partitions", "report_passed", "twisted_tensor_check",
    "InputDocument", "ParseError", "parse_assignments", "parse_document",
    "render_document",
]
