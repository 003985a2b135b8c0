"""Exact arithmetic for Bianchi groups, their maximal discrete extension via
Atkin-Lehner involutions, and the spin homomorphism into SO(1,3)."""

from .field import (
    FieldParams,
    IdealHNF,
    KElement,
    field_params,
    ideal_from_generators,
    prime_factors,
    squarefree_divisors,
    squarefree_part,
    units_of,
)
from .involutions import (
    atkin_lehner,
    bezout_pair,
    classify_coset,
    coset_law,
    extension_index,
    factor_group_table,
    in_maximal_extension,
)
from .matrices import ExtendedMatrix, is_algebraic_integer
from .orthogonal import (
    LiftError,
    OrthoMap,
    dual_basis,
    dual_lattice_index,
    gram_matrix,
    in_discriminant_kernel,
    in_dual_lattice,
    k_square_root,
    preserves_lattice,
    sign_normalize,
    spin_lift,
    spin_map,
)
from .serialize import (
    kelement_from_json,
    kelement_to_json,
    matrix_from_json,
    matrix_to_json,
    orthomap_from_json,
    orthomap_to_json,
)

__all__ = [
    "ExtendedMatrix",
    "FieldParams",
    "IdealHNF",
    "KElement",
    "LiftError",
    "OrthoMap",
    "atkin_lehner",
    "bezout_pair",
    "classify_coset",
    "coset_law",
    "dual_basis",
    "dual_lattice_index",
    "extension_index",
    "factor_group_table",
    "field_params",
    "gram_matrix",
    "ideal_from_generators",
    "in_discriminant_kernel",
    "in_dual_lattice",
    "in_maximal_extension",
    "is_algebraic_integer",
    "k_square_root",
    "kelement_from_json",
    "kelement_to_json",
    "matrix_from_json",
    "matrix_to_json",
    "orthomap_from_json",
    "orthomap_to_json",
    "preserves_lattice",
    "prime_factors",
    "sign_normalize",
    "spin_lift",
    "spin_map",
    "squarefree_divisors",
    "squarefree_part",
    "units_of",
]

__version__ = "0.1.0"
