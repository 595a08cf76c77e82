"""Quantum arithmetic circuits with verification and resource estimation.

Construct adders, multipliers, dividers and modular-exponentiation circuits
over a small unitary gate alphabet; verify them against classical arithmetic
oracles by simulation; lower them to Clifford+T counts; and estimate
physical cost under a simplified surface-code model with T-factory Pareto
exploration.
"""

from .adders import (
    CONST_ADDERS,
    IN_PLACE_ADDERS,
    OUT_OF_PLACE_ADDERS,
    build_const_adder,
    build_inplace_adder,
    build_outofplace_adder,
    build_subtractor,
)
from .analysis import (
    SweepSeries,
    WindowSample,
    find_tipping_point,
    fit_power_law,
    fit_window_model,
    log_grid,
)
from .circuit import (
    Builder,
    Circuit,
    CircuitError,
    Gate,
    Register,
    adjoint,
    circuit_to_text,
)
from .claims import ClaimCheck, run_claims
from .modexp import (
    build_modexp,
    build_modmul_const,
    build_table_lookup,
    optimal_window,
)
from .muldiv import build_divider, build_multiplier
from .physical import (
    FactorySpec,
    PhysicalEstimate,
    PhysicalParams,
    estimate,
    pareto_frontier,
    required_code_distance,
)
from .resources import LogicalCounts, lower_to_clifford_t
from .sim import simulate_permutation_batch, simulate_product, simulate_statevector

__version__ = "0.1.0"

__all__ = [
    "Builder", "Circuit", "CircuitError", "Gate", "Register",
    "adjoint", "circuit_to_text",
    "simulate_permutation_batch", "simulate_product", "simulate_statevector",
    "IN_PLACE_ADDERS", "OUT_OF_PLACE_ADDERS", "CONST_ADDERS",
    "build_inplace_adder", "build_outofplace_adder", "build_const_adder",
    "build_subtractor",
    "build_multiplier", "build_divider",
    "build_modexp", "build_modmul_const", "build_table_lookup",
    "optimal_window",
    "LogicalCounts", "lower_to_clifford_t",
    "PhysicalParams", "PhysicalEstimate", "FactorySpec",
    "required_code_distance", "estimate", "pareto_frontier",
    "SweepSeries", "WindowSample", "log_grid", "fit_power_law",
    "find_tipping_point", "fit_window_model",
    "ClaimCheck", "run_claims",
]
