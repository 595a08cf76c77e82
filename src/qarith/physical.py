"""Simplified surface-code physical resource estimation.

An independent reimplementation of the public lattice-surgery estimation
methodology: logical qubits are packed PSSPC-style (2Q + ceil(sqrt(8Q)) + 1
tiles), the code distance is the smallest odd d whose logical error over
the whole spacetime volume fits a third of the error budget, and T states
come from 15-to-1 distillation factories whose count trades qubits against
runtime.  Absolute agreement with any external estimator's figures is a
non-goal; orderings and trade-off shapes are what this model is for.
"""
from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields

from .resources import LogicalCounts


class EstimationError(ValueError):
    pass


@dataclass(frozen=True)
class PhysicalParams:
    p_phys: float = 1e-3
    p_threshold: float = 1e-2
    prefactor_a: float = 0.03
    t_cycle_factor: float = 6e-7  # seconds per (d * unit step): 6 steps x 100 ns
    error_budget: float = 1e-3    # split equally: logical, T states, synthesis
    max_code_distance: int = 51
    layout: str = "psspc"

    def __post_init__(self):
        if not 0 < self.p_phys < self.p_threshold:
            raise EstimationError("need 0 < p_phys < p_threshold")
        if not 0 < self.error_budget < 1:
            raise EstimationError("error budget must lie in (0, 1)")
        for name in ("t_cycle_factor", "prefactor_a"):
            if not 0 < getattr(self, name) < math.inf:
                raise EstimationError(f"{name} must be finite and > 0")
        if self.max_code_distance < 3:
            raise EstimationError("max_code_distance must be >= 3")
        if self.layout != "psspc":
            raise EstimationError(f"unknown layout rule {self.layout!r}")

    @classmethod
    def from_file(cls, path) -> "PhysicalParams":
        """Flat `key = value` configuration, keys matching the field names."""
        hints = typing.get_type_hints(cls)
        types = {f.name: hints[f.name] for f in fields(cls)}  # float, int, str
        values: dict = {}
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if not sep or not val:
                    raise EstimationError(f"{path}:{line_no}: expected key = value")
                if key not in types:
                    raise EstimationError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = types[key](val)
        return cls(**values)


@dataclass(frozen=True)
class FactorySpec:
    """15-to-1 magic-state distillation unit (one or two cascaded levels)."""

    levels: int
    distance: int
    qubits: int
    duration_seconds: float
    output_error: float


@dataclass
class PhysicalEstimate:
    code_distance: int
    physical_qubits: int
    runtime_seconds: float
    num_factories: int
    limiting_factor: str  # "depth-limited" | "t-limited"


def packed_logical_qubits(q: int) -> int:
    """PSSPC packing: 2Q algorithm tiles plus a routing strip."""
    q = max(q, 1)
    return 2 * q + math.ceil(math.sqrt(8 * q)) + 1


def _logical_error_rate(p: PhysicalParams, d: int) -> float:
    return p.prefactor_a * (p.p_phys / p.p_threshold) ** ((d + 1) / 2)


def required_code_distance(
    p: PhysicalParams, logical_qubits: int, logical_depth: int
) -> int:
    """Smallest odd d whose total logical error fits the logical budget share."""
    if logical_qubits < 1 or logical_depth < 1:
        raise EstimationError("logical qubits and depth must be positive")
    budget = p.error_budget / 3.0
    volume = logical_qubits * logical_depth
    for d in range(3, p.max_code_distance + 1, 2):
        if _logical_error_rate(p, d) * volume <= budget:
            return d
    raise EstimationError(
        f"no code distance <= {p.max_code_distance} reaches the error budget "
        f"(volume {volume:g}); workload is unrealistic for this model"
    )


def design_factory(p: PhysicalParams, t_count: int) -> FactorySpec:
    """Pick distillation levels and factory distance for the T-state budget.

    The raw distance is what an unprotected 15-patch, 11-timestep unit would
    need to keep its topological error under the per-T budget; the unit then
    runs at roughly half that distance because the distillation checks
    herald most internal faults (factories in the lattice-surgery literature
    run well below the computation's distance for exactly this reason).
    """
    per_t_budget = (p.error_budget / 3.0) / max(t_count, 1)
    out1 = 35.0 * p.p_phys ** 3
    if out1 <= per_t_budget:
        levels, out = 1, out1
    else:
        levels, out = 2, 35.0 * out1 ** 3
        if out > per_t_budget:
            raise EstimationError(
                "two distillation levels cannot reach the per-T budget"
            )
    d_raw = None
    for d in range(3, p.max_code_distance + 1, 2):
        # 15 logical patches running for 11 logical timesteps per batch
        if _logical_error_rate(p, d) * 15 * 11 <= per_t_budget:
            d_raw = d
            break
    if d_raw is None:
        raise EstimationError("factory distance exceeds the supported range")
    distance = (d_raw + 1) // 2
    if distance % 2 == 0:
        distance += 1
    distance = max(distance, 3)
    return FactorySpec(
        levels=levels,
        distance=distance,
        qubits=levels * 15 * 2 * distance * distance,
        duration_seconds=11 * distance * p.t_cycle_factor,
        output_error=out,
    )


def _layout(counts: LogicalCounts, p: PhysicalParams):
    """(packed tiles, code distance, depth time, T factory) of a count set:
    what every factory count shares.  The factory is None when t_count is 0."""
    packed = packed_logical_qubits(counts.qubits)
    depth = max(counts.depth, 1)
    d = required_code_distance(p, packed, depth)
    factory = design_factory(p, counts.t_count) if counts.t_count else None
    return packed, d, depth * d * p.t_cycle_factor, factory


def estimate(
    counts: LogicalCounts, p: PhysicalParams | None = None, num_factories: int = 1
) -> PhysicalEstimate:
    """Physical qubits and runtime for one T-factory configuration."""
    p = p or PhysicalParams()
    if num_factories < 0:
        raise EstimationError("num_factories must be >= 0")
    if counts.t_count > 0 and num_factories == 0:
        raise EstimationError("t_count > 0 needs at least one T factory")
    packed, d, depth_time, factory = _layout(counts, p)
    physical = packed * 2 * d * d
    if factory is None:
        if num_factories:
            physical += num_factories * design_factory(p, 1).qubits
        return PhysicalEstimate(d, physical, depth_time, num_factories, "depth-limited")
    t_time = (counts.t_count / num_factories) * factory.duration_seconds
    runtime = max(depth_time, t_time)
    limiting = "depth-limited" if depth_time >= t_time else "t-limited"
    physical += num_factories * factory.qubits
    return PhysicalEstimate(d, physical, runtime, num_factories, limiting)


_FRONTIER_CAP = 1 << 20


def pareto_frontier(
    counts: LogicalCounts, p: PhysicalParams | None = None
) -> list[PhysicalEstimate]:
    """Non-dominated (runtime, qubits) configurations over the factory count.

    Factory counts run from the depth-saturation point down to 1; the result
    is sorted by runtime ascending, so physical qubits strictly decrease.
    Each factory fewer costs fewer qubits, and below saturation the T arm,
    t_count / num_factories factory runs, sets a longer runtime, so every
    count is on the frontier.  Only rounding can tie the largest counts on
    runtime, and then the smaller count dominates.
    """
    p = p or PhysicalParams()
    if counts.t_count == 0:
        return [estimate(counts, p, 0)]
    _, _, depth_time, factory = _layout(counts, p)
    saturation = math.ceil(
        counts.t_count * factory.duration_seconds / depth_time
    )
    if saturation > _FRONTIER_CAP:
        raise EstimationError(
            f"frontier needs {saturation} factory counts, more than the cap of "
            f"{_FRONTIER_CAP}"
        )
    frontier = [estimate(counts, p, nf) for nf in range(saturation, 0, -1)]
    while (len(frontier) > 1
           and frontier[1].runtime_seconds <= frontier[0].runtime_seconds):
        del frontier[0]
    return frontier
