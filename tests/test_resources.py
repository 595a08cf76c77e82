import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import catalog, cli
from qarith.adders import build_inplace_adder
from qarith.circuit import (
    ALL_KINDS,
    ANGLE_KINDS,
    CCX,
    CNOT,
    CPHASE,
    H,
    RZ,
    SWAP,
    T,
    TDG,
    Builder,
    Circuit,
    CountSummary,
    _ARITY,
    clear_block_cache,
)
from qarith.resources import (
    CCX_TEMPLATE,
    T_PER_ROTATION,
    LogicalCounts,
    lower_summary,
    lower_to_clifford_t,
)
from qarith.sim import simulate_statevector


def _circ(n, emits):
    bld = Builder()
    bld.alloc_register(n)
    emits(bld)
    return bld.finalize()


def test_lower_empty():
    c = _circ(1, lambda b: None)
    counts = lower_to_clifford_t(c)
    assert counts.t_count == counts.toffoli_count == counts.depth == 0


def test_lower_disjoint_same_layer():
    c = _circ(4, lambda b: (b.cnot(0, 1), b.cnot(2, 3)))
    assert lower_to_clifford_t(c).depth == 1


def test_lower_sequential_layers():
    c = _circ(3, lambda b: (b.cnot(0, 1), b.cnot(1, 2), b.x(0)))
    assert lower_to_clifford_t(c).depth == 2


def test_ccx_decomposition_is_exact():
    # One-time semantic self-test of the 7-T template on all 8 basis states.
    dec = Circuit(num_qubits=3, gates=tuple((kind, qs, None) for kind, qs in CCX_TEMPLATE))
    ref = _circ(3, lambda b: b.ccx(0, 1, 2))
    v1 = simulate_statevector(dec, range(8))
    v2 = simulate_statevector(ref, range(8))
    for basis in range(8):
        k = int(np.argmax(np.abs(v2[:, basis])))
        phase = v1[k, basis] / v2[k, basis]
        assert np.allclose(v1[:, basis], phase * v2[:, basis], atol=1e-9), basis


def test_lower_single_ccx():
    c = _circ(3, lambda b: b.ccx(0, 1, 2))
    low = lower_to_clifford_t(c)
    assert low.t_count == 7
    assert low.toffoli_count == 1
    assert low.cnot_count == 6
    assert low.single_qubit_clifford == 2
    assert low.rotation_count == 0


def test_lower_rotation_formula():
    assert T_PER_ROTATION == math.ceil(0.53 * math.log2(1e10) + 5.3) == 23
    c = _circ(2, lambda b: [b.rz(0, 0.1) for _ in range(10)])
    low = lower_to_clifford_t(c)
    assert low.t_count == 230
    assert low.rotation_count == 10


def test_permutation_only_t_is_7x_toffoli():
    c = build_inplace_adder("TTK", 6)
    low = lower_to_clifford_t(c)
    assert low.rotation_count == 0
    assert low.t_count == 7 * low.toffoli_count


def test_monotonicity_appending_gates():
    bld = Builder()
    bld.alloc_register(3)
    bld.ccx(0, 1, 2)
    c1 = bld.finalize()
    low1 = lower_to_clifford_t(c1)
    bld2 = Builder()
    bld2.alloc_register(3)
    bld2.ccx(0, 1, 2)
    bld2.rz(0, 0.3)
    bld2.cnot(1, 2)
    low2 = lower_to_clifford_t(bld2.finalize())
    for f in ("t_count", "toffoli_count", "cnot_count", "depth", "t_depth"):
        assert getattr(low2, f) >= getattr(low1, f)


def test_lower_summary_tallies_match_exact():
    clear_block_cache()
    for algo in ("TTK", "Gidney", "DKRS", "QFT"):
        rec = lower_to_clifford_t(build_inplace_adder(algo, 6))
        cnt = lower_summary(build_inplace_adder(algo, 6, counting=True))
        for f in ("qubits", "t_count", "toffoli_count", "cnot_count",
                  "single_qubit_clifford", "rotation_count"):
            assert getattr(rec, f) == getattr(cnt, f), (algo, f)
        # serial depth is an upper bound on greedy depth
        assert cnt.depth >= rec.depth
        assert cnt.t_depth >= rec.t_depth


def test_t_depth_counts_t_layers():
    c = Circuit(num_qubits=2, gates=(
        (T, (0,), None), (T, (1,), None), (H, (0,), None), (T, (0,), None)))
    counts = lower_to_clifford_t(c)
    # layer 1 holds both leading Ts, layer 3 the trailing one
    assert counts.t_depth == 2
    assert counts.depth == 3


# -- per-event reference for the per-gate layering ---------------------------

def _greedy_layers(stream) -> tuple[int, int]:
    """Greedy ASAP layering of (kind, qubits) events, one event at a time."""
    frontier: dict[int, int] = {}
    t_layers: set[int] = set()
    depth = 0
    for kind, qubits in stream:
        layer = 1 + max((frontier.get(q, 0) for q in qubits), default=0)
        for q in qubits:
            frontier[q] = layer
        if layer > depth:
            depth = layer
        if kind in (T, TDG):
            t_layers.add(layer)
    return depth, len(t_layers)


def _expanded_stream(c: Circuit):
    """The Clifford+T events `lower_to_clifford_t` lays out, in order."""
    for k, gq, _ in c.gates:
        if k == CCX:
            for kind, qs in CCX_TEMPLATE:
                yield (kind, tuple(gq[i] for i in qs))
        elif k == SWAP:
            a, b = gq
            yield (CNOT, (a, b))
            yield (CNOT, (b, a))
            yield (CNOT, (a, b))
        elif k in ANGLE_KINDS:
            for _ in range(T_PER_ROTATION):
                yield (T, gq)
        else:
            yield (k, gq)


@st.composite
def _random_circuits(draw):
    n = draw(st.integers(6, 8))
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(sorted(ALL_KINDS)))
        arity = _ARITY[kind]
        qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity,
                                     max_size=arity, unique=True)))
        angle = draw(st.floats(-3, 3)) if kind in ANGLE_KINDS else None
        gates.append((kind, qubits, angle))
    return Circuit(num_qubits=n, gates=tuple(gates))


def _assert_layering_matches_reference(c: Circuit) -> None:
    low = lower_to_clifford_t(c)
    assert (low.depth, low.t_depth) == _greedy_layers(_expanded_stream(c))


@given(c=_random_circuits())
@settings(max_examples=200, deadline=None)
def test_per_gate_layering_matches_per_event_reference(c):
    _assert_layering_matches_reference(c)


def test_mixed_gates_layering_matches_reference():
    _assert_layering_matches_reference(Circuit(num_qubits=7, gates=(
        (T, (0,), None),
        (TDG, (5,), None),
        (CCX, (0, 1, 2), None),
        (CCX, (4, 5, 6), None),
        (H, (3,), None),
        (SWAP, (2, 6), None),
        (T, (6,), None),
        (CPHASE, (2, 3), 0.3),
        (RZ, (0,), -0.7),
        (TDG, (3,), None),
    )))


def test_serial_weights_of_every_kind_come_from_its_expansion():
    # A one-gate counting summary lowers to the tallies of the one-gate
    # recorded circuit, and its serial (depth, t_depth) is that circuit's
    # greedy layering of the expanded events.
    for kind, arity in _ARITY.items():
        gate = (kind, tuple(range(arity)), 0.3 if kind in ANGLE_KINDS else None)
        rec = Circuit(num_qubits=arity, gates=(gate,))
        low = lower_summary(CountSummary(arity, {kind: 1}))
        assert low == lower_to_clifford_t(rec), kind
        assert (low.depth, low.t_depth) == _greedy_layers(_expanded_stream(rec)), kind
    # Serial depths add up over the gates of a summary.
    ccx = _greedy_layers(CCX_TEMPLATE)
    swap = _greedy_layers(_expanded_stream(_circ(2, lambda b: b.swap(0, 1))))
    s = Builder(counting=True)
    s.alloc_register(3)
    s.ccx(0, 1, 2)
    s.swap(0, 1)
    low = lower_summary(s.finalize())
    assert (low.depth, low.t_depth) == (ccx[0] + swap[0], ccx[1] + swap[1])


@pytest.mark.parametrize("op, algo", [(op, algo) for op, algo, _ in catalog.catalog()])
def test_catalog_layering_matches_reference(op, algo):
    _assert_layering_matches_reference(catalog.build(op, algo, 3))


# Greedy (depth, t_depth) of the Pareto instances at their recorded limits,
# the largest sizes `pareto` lowers from a recorded circuit.
# `golden_circuits.json` pins depths at n <= 5 only.
RECORDED_LIMIT_DEPTHS = {
    ("multiplier", "Schoolbook"): (103929, 57959),
    ("multiplier", "Karatsuba-8"): (216562, 108847),
    ("divider", "NonRestoring+TTK"): (94572, 42772),
    ("modexp", "LYYWindowedOpt"): (252830, 114260),
    ("modmul_const", "LYY"): (106646, 52327),
    ("const_adder", "QFT"): (5777, 5774),
}


@pytest.mark.parametrize("op, algo", sorted(RECORDED_LIMIT_DEPTHS))
def test_depths_at_the_recorded_limits(op, algo):
    n = cli.RECORDED_LIMITS.get(op, cli.DEFAULT_RECORDED_LIMIT)
    low = lower_to_clifford_t(catalog.build(op, algo, n))
    assert (low.depth, low.t_depth) == RECORDED_LIMIT_DEPTHS[op, algo]
