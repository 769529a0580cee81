"""Slow-space effective Liouvillians for Markovian open systems.

The package splits a generator into L0 + epsilon*V, decouples the zero
modes of L0 from everything fast by a non-unitary similarity transform
computed order by order, and exposes the resulting effective generators,
an independent correlation-function route for the second order, and exact
propagation for validating both.
"""

from . import dynamics, expr, models, qrt, spectral, superop, sw
from .exceptions import LswError
from .operators import spin_operators, tensor
from .superop import (
    LindbladSpec,
    devectorize,
    hat_apply,
    lindblad_superop,
    sandwich_superop,
    vectorize,
)
from .spectral import check_perturbative_limit, decompose, fast_inverse, projectors, resolvent_apply
from .sw import (
    correction_terms,
    decoupling_residual,
    effective_liouvillian,
    generator_terms,
    reduced_effective,
)
from .qrt import (
    AncillaModel,
    close_operator_set,
    coefficient_matrix,
    coefficient_matrix_resolvent_oracle,
    effective_master_equation_2,
    lindblad_decomposition,
    steady_state,
)
from .dynamics import Trajectory, emission_intensity, evolve
from .expr import parse_operator_expr

__all__ = [
    "AncillaModel",
    "LindbladSpec",
    "LswError",
    "Trajectory",
    "check_perturbative_limit",
    "close_operator_set",
    "coefficient_matrix",
    "coefficient_matrix_resolvent_oracle",
    "correction_terms",
    "decompose",
    "decoupling_residual",
    "devectorize",
    "dynamics",
    "effective_liouvillian",
    "effective_master_equation_2",
    "emission_intensity",
    "evolve",
    "expr",
    "fast_inverse",
    "generator_terms",
    "hat_apply",
    "lindblad_decomposition",
    "lindblad_superop",
    "models",
    "parse_operator_expr",
    "projectors",
    "qrt",
    "reduced_effective",
    "resolvent_apply",
    "sandwich_superop",
    "spectral",
    "spin_operators",
    "steady_state",
    "superop",
    "sw",
    "tensor",
    "vectorize",
]
