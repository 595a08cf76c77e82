import math
import random

import pytest

from qarith.physical import (
    EstimationError,
    PhysicalParams,
    design_factory,
    estimate,
    packed_logical_qubits,
    pareto_frontier,
    required_code_distance,
)
from qarith.resources import LogicalCounts


def test_required_distance_hand_example():
    # Defaults: 0.03 * 0.1^((d+1)/2) * 1 * 1 <= 1e-3/3.
    # d=3 gives 0.03 * 0.01 = 3e-4 <= 3.333e-4, so d = 3.
    p = PhysicalParams()
    assert required_code_distance(p, 1, 1) == 3


def test_required_distance_monotone_in_depth():
    p = PhysicalParams()
    prev = 0
    for depth in (1, 10, 100, 10**4, 10**8):
        d = required_code_distance(p, 50, depth)
        assert d >= prev
        prev = d


def test_required_distance_bounded_or_error():
    p = PhysicalParams(p_phys=1e-4)
    d = required_code_distance(p, 10**9, 10**12)
    assert d <= 51
    with pytest.raises(EstimationError):
        required_code_distance(PhysicalParams(p_phys=9.9e-3), 10**12, 10**15)


def test_estimate_zero_t_circuit():
    counts = LogicalCounts(qubits=4, depth=10)
    p = PhysicalParams()
    est = estimate(counts, p, num_factories=0)
    d = est.code_distance
    assert est.limiting_factor == "depth-limited"
    assert est.runtime_seconds == 10 * d * p.t_cycle_factor
    assert est.physical_qubits == packed_logical_qubits(4) * 2 * d * d


def test_estimate_hand_computed_single_ccx():
    # One lowered CCX: 7 T, depth 11, 3 qubits.
    counts = LogicalCounts(qubits=3, t_count=7, toffoli_count=1, depth=11)
    p = PhysicalParams()
    packed = 2 * 3 + math.ceil(math.sqrt(24)) + 1  # = 12
    assert packed_logical_qubits(3) == packed
    d = required_code_distance(p, packed, 11)
    factory = design_factory(p, 7)
    est = estimate(counts, p, num_factories=1)
    assert est.code_distance == d
    depth_arm = 11 * d * p.t_cycle_factor
    t_arm = 7 * factory.duration_seconds
    assert est.runtime_seconds == pytest.approx(max(depth_arm, t_arm))
    assert est.physical_qubits == packed * 2 * d * d + factory.qubits
    assert est.limiting_factor == (
        "depth-limited" if depth_arm >= t_arm else "t-limited"
    )


def test_estimate_zero_factories_with_t_rejected():
    counts = LogicalCounts(qubits=2, t_count=5, depth=3)
    with pytest.raises(EstimationError):
        estimate(counts, PhysicalParams(), num_factories=0)


def test_doubling_factories_halves_t_arm():
    counts = LogicalCounts(qubits=8, t_count=10**6, depth=100)
    p = PhysicalParams()
    e1 = estimate(counts, p, 1)
    e2 = estimate(counts, p, 2)
    assert e1.limiting_factor == "t-limited"
    assert e2.runtime_seconds == pytest.approx(e1.runtime_seconds / 2)


def test_factory_levels():
    p = PhysicalParams()
    small = design_factory(p, 10)       # loose budget: single level
    big = design_factory(p, 10**7)      # tight budget: cascaded
    assert small.levels == 1
    assert big.levels == 2
    assert big.qubits == 2 * 15 * 2 * big.distance**2
    assert big.duration_seconds == 11 * big.distance * p.t_cycle_factor


def test_pareto_frontier_properties():
    counts = LogicalCounts(qubits=16, t_count=200000, depth=5000)
    front = pareto_frontier(counts, PhysicalParams())
    assert len(front) >= 2
    for prev, nxt in zip(front, front[1:]):
        assert nxt.runtime_seconds > prev.runtime_seconds
        assert nxt.physical_qubits < prev.physical_qubits
    assert front[0].limiting_factor == "depth-limited"
    assert front[0].num_factories >= front[-1].num_factories


def test_pareto_zero_t_single_point():
    counts = LogicalCounts(qubits=4, depth=7)
    front = pareto_frontier(counts, PhysicalParams())
    assert len(front) == 1
    assert front[0].num_factories == 0


def _saturation(counts, p):
    """The factory count from which the depth, not T states, sets the runtime."""
    packed = packed_logical_qubits(counts.qubits)
    depth = max(counts.depth, 1)
    depth_time = depth * required_code_distance(p, packed, depth) * p.t_cycle_factor
    factory = design_factory(p, counts.t_count)
    return math.ceil(counts.t_count * factory.duration_seconds / depth_time)


def _sort_and_filter_frontier(counts, p):
    """The frontier by its definition: every factory count up to saturation,
    sorted by (runtime, qubits), keeping each point that strictly improves
    on the last kept one in qubits at a strictly longer runtime."""
    points = sorted(
        (estimate(counts, p, nf) for nf in range(1, _saturation(counts, p) + 1)),
        key=lambda e: (e.runtime_seconds, e.physical_qubits),
    )
    frontier = points[:1]
    for pt in points[1:]:
        if (pt.runtime_seconds > frontier[-1].runtime_seconds
                and pt.physical_qubits < frontier[-1].physical_qubits):
            frontier.append(pt)
    return frontier


def test_pareto_frontier_equals_sort_and_filter():
    rng = random.Random(2024)

    def log_uniform(lo, hi):
        return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    checked = 0
    while checked < 200:
        counts = LogicalCounts(qubits=log_uniform(1, 10**5),
                               t_count=log_uniform(1, 10**8),
                               depth=log_uniform(1, 10**8))
        p = PhysicalParams(p_phys=10 ** rng.uniform(-5, -2.2),
                           t_cycle_factor=10 ** rng.uniform(-8, -5))
        try:
            if _saturation(counts, p) > 500:
                continue
        except EstimationError:
            continue
        assert pareto_frontier(counts, p) == _sort_and_filter_frontier(counts, p)
        checked += 1


def test_pareto_frontier_runtime_tie_at_saturation():
    # t_count * factory time / depth time rounds to just above 7, so the
    # saturation point is 8 factories, yet 7 already reach the depth time:
    # both run equally long and the 8-factory point is dominated.
    counts = LogicalCounts(qubits=100, t_count=214795, depth=195415)
    p = PhysicalParams()
    at7, at8 = estimate(counts, p, 7), estimate(counts, p, 8)
    assert at7.runtime_seconds == at8.runtime_seconds
    front = pareto_frontier(counts, p)
    assert front == _sort_and_filter_frontier(counts, p)
    assert [e.num_factories for e in front] == list(range(7, 0, -1))


def test_estimate_monotone_in_t():
    p = PhysicalParams()
    base = LogicalCounts(qubits=8, t_count=10**4, depth=100)
    more = LogicalCounts(qubits=8, t_count=10**6, depth=100)
    assert (
        estimate(more, p, 4).runtime_seconds
        >= estimate(base, p, 4).runtime_seconds
    )


def test_params_from_file(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(
        "p_phys = 2e-3\n"
        "# comment line\n"
        "error_budget = 0.01\n"
        "max_code_distance = 41\n"
        "layout = psspc\n"
    )
    p = PhysicalParams.from_file(cfg)
    assert p.p_phys == 2e-3
    assert p.error_budget == 0.01
    assert p.max_code_distance == 41 and isinstance(p.max_code_distance, int)
    assert p.layout == "psspc"
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    with pytest.raises(EstimationError):
        PhysicalParams.from_file(bad)
    bad.write_text("max_code_distance = 4.5\n")  # a malformed number
    with pytest.raises(ValueError) as err:
        PhysicalParams.from_file(bad)
    assert not isinstance(err.value, EstimationError)


def test_params_validation():
    with pytest.raises(EstimationError):
        PhysicalParams(p_phys=0.02)  # above threshold
    with pytest.raises(EstimationError):
        PhysicalParams(error_budget=0.0)


@pytest.mark.parametrize("field, value", [
    ("t_cycle_factor", 0.0),
    ("t_cycle_factor", -6e-7),
    ("t_cycle_factor", math.inf),
    ("t_cycle_factor", math.nan),
    ("prefactor_a", 0.0),
    ("prefactor_a", -1.0),
    ("prefactor_a", math.inf),
    ("prefactor_a", math.nan),
    ("max_code_distance", 2),
    ("max_code_distance", -1),
])
def test_params_reject_degenerate_surface_code_values(field, value):
    with pytest.raises(EstimationError, match=field):
        PhysicalParams(**{field: value})


def test_pareto_refuses_frontier_past_the_cap():
    counts = LogicalCounts(qubits=4, t_count=10**9, depth=1)
    with pytest.raises(EstimationError, match="factory counts"):
        pareto_frontier(counts, PhysicalParams())
