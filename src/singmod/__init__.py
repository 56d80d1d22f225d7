"""Exact singular moduli: quadratic forms, Pell units, Weber invariants g_n.

The package reproduces the classical chain that evaluates the modulus k_n with
K(k')/K(k) = sqrt(n) as an explicit product of quadratic units: reduced forms
and class numbers, Dirichlet L-values, Epstein zeta constants, the product
formula for g_{2n}, and the algebraic descent from g_n to k_n.
"""

from .arith import (
    divisors,
    fundamental_discriminants_dividing,
    is_fundamental_discriminant,
    jacobi,
    kronecker,
)
from .highprec import class_polynomial, ell_K, gn_numeric, j_invariant
from .modulus import SingularModulus, singular_modulus
from .pell import PellSolution, solve_even_pell, unit_value
from .qforms import (
    GLMatrix,
    QuadForm,
    apply,
    chi,
    class_number,
    homologue_pairs,
    reduce_form,
    reduced_forms,
    representation_count,
    total_representations,
    weighted_class_number,
)
from .surd import (
    NotASquareError,
    SurdElement,
    UnitProduct,
    exact_sqrt,
    field_norm,
    parse_surd,
)
from .weber import g2n

__all__ = [
    "GLMatrix",
    "NotASquareError",
    "PellSolution",
    "QuadForm",
    "SingularModulus",
    "SurdElement",
    "UnitProduct",
    "apply",
    "chi",
    "class_number",
    "class_polynomial",
    "divisors",
    "ell_K",
    "exact_sqrt",
    "field_norm",
    "fundamental_discriminants_dividing",
    "g2n",
    "gn_numeric",
    "homologue_pairs",
    "is_fundamental_discriminant",
    "j_invariant",
    "jacobi",
    "kronecker",
    "parse_surd",
    "reduce_form",
    "reduced_forms",
    "representation_count",
    "singular_modulus",
    "solve_even_pell",
    "total_representations",
    "unit_value",
    "weighted_class_number",
]
