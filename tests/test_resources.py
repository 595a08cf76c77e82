import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith.adders import build_inplace_adder
from qarith.circuit import (
    ALL_KINDS,
    ANGLE_KINDS,
    CCX,
    CNOT,
    MCX,
    SWAP,
    T,
    TDG,
    Circuit,
    Gate,
    _ARITY,
    clear_block_cache,
    new_builder,
)
from qarith.resources import (
    CCX_TEMPLATE,
    LogicalCounts,
    SynthesisParams,
    _mcx_ladder,
    ccx_decomposition,
    count_raw,
    lower_summary,
    lower_to_clifford_t,
)
from qarith.sim import simulate_statevector


def _circ(n, emits):
    bld = new_builder()
    bld.alloc_register(n)
    emits(bld)
    return bld.finalize()


def test_count_raw_empty():
    c = _circ(1, lambda b: None)
    counts = count_raw(c)
    assert counts.t_count == counts.toffoli_count == counts.depth == 0


def test_count_raw_ccx():
    c = _circ(3, lambda b: b.ccx(0, 1, 2))
    counts = count_raw(c)
    assert counts.toffoli_count == 1
    assert counts.depth == 1


def test_count_raw_disjoint_same_layer():
    c = _circ(4, lambda b: (b.cnot(0, 1), b.cnot(2, 3)))
    assert count_raw(c).depth == 1


def test_count_raw_sequential_layers():
    c = _circ(3, lambda b: (b.cnot(0, 1), b.cnot(1, 2), b.x(0)))
    assert count_raw(c).depth == 2


def test_ccx_decomposition_is_exact():
    # One-time semantic self-test of the 7-T template on all 8 basis states.
    bld = new_builder()
    bld.alloc_register(3)
    for g in ccx_decomposition(0, 1, 2):
        bld.append(g)
    dec = bld.finalize()
    ref = _circ(3, lambda b: b.ccx(0, 1, 2))
    for basis in range(8):
        v1 = simulate_statevector(dec, basis)
        v2 = simulate_statevector(ref, basis)
        k = int(np.argmax(np.abs(v2)))
        phase = v1[k] / v2[k]
        assert np.allclose(v1, phase * v2, atol=1e-9), basis


def test_lower_single_ccx():
    c = _circ(3, lambda b: b.ccx(0, 1, 2))
    low = lower_to_clifford_t(c)
    assert low.t_count == 7
    assert low.toffoli_count == 1
    assert low.cnot_count == 6
    assert low.single_qubit_clifford == 2
    assert low.rotation_count == 0


def test_lower_rotation_formula():
    p = SynthesisParams(epsilon_syn=1e-10, t_per_rotation_slope=0.53,
                        t_per_rotation_offset=5.3)
    c = _circ(2, lambda b: [b.rz(0, 0.1) for _ in range(10)])
    low = lower_to_clifford_t(c, p)
    per = math.ceil(0.53 * math.log2(1e10) + 5.3)
    assert low.t_count == 10 * per
    assert low.rotation_count == 10


def test_permutation_only_t_is_7x_toffoli():
    c = build_inplace_adder("TTK", 6)
    low = lower_to_clifford_t(c)
    assert low.rotation_count == 0
    assert low.t_count == 7 * low.toffoli_count


def test_mcx_ladder_costs():
    c = _circ(5, lambda b: b.mcx((0, 1, 2, 3), 4))
    low = lower_to_clifford_t(c)
    # k=4 controls: 2(k-1) = 6 Toffolis plus one CNOT; 3 ladder ancillas.
    assert low.toffoli_count == 6
    assert low.t_count == 42
    assert low.qubits == 5 + 3


def test_monotonicity_appending_gates():
    bld = new_builder()
    bld.alloc_register(3)
    bld.ccx(0, 1, 2)
    c1 = bld.finalize()
    low1 = lower_to_clifford_t(c1)
    bld2 = new_builder()
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
    c = _circ(2, lambda b: (b.t(0), b.t(1), b.h(0), b.t(0)))
    counts = count_raw(c)
    # layer 1 holds both leading Ts, layer 3 the trailing one
    assert counts.t_depth == 2
    assert counts.depth == 3


def test_synthesis_params_validation():
    with pytest.raises(ValueError):
        SynthesisParams(epsilon_syn=0.0)
    assert SynthesisParams().t_per_rotation() == math.ceil(0.53 * math.log2(1e10) + 5.3)


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


def _expanded_stream(c: Circuit, t_per_rotation: int):
    """The Clifford+T events `lower_to_clifford_t` lays out, in order."""
    anc_base = c.num_qubits
    for g in c.gates:
        k = g.kind
        if k == CCX:
            for kind, qs in CCX_TEMPLATE:
                yield (kind, tuple(g.qubits[i] for i in qs))
        elif k == MCX:
            for sub in _mcx_ladder(g.qubits[:-1], g.qubits[-1], anc_base):
                if sub[0] == CCX:
                    for kind, qs in CCX_TEMPLATE:
                        yield (kind, tuple(sub[1][i] for i in qs))
                else:
                    yield sub
        elif k == SWAP:
            a, b = g.qubits
            yield (CNOT, (a, b))
            yield (CNOT, (b, a))
            yield (CNOT, (a, b))
        elif k in ANGLE_KINDS:
            for _ in range(t_per_rotation):
                yield (T, g.qubits)
        else:
            yield (k, g.qubits)


# Default synthesis (23 T per rotation) and a one-T rotation, whose ladder
# shares layers with the T gates around it.
_PARAMS = (
    SynthesisParams(),
    SynthesisParams(epsilon_syn=0.5, t_per_rotation_slope=0.0,
                    t_per_rotation_offset=1.0),
)


@st.composite
def _random_circuits(draw):
    n = draw(st.integers(6, 8))
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(sorted(ALL_KINDS)))
        arity = draw(st.integers(4, 6)) if kind == MCX else _ARITY[kind]
        qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=arity,
                                     max_size=arity, unique=True)))
        angle = draw(st.floats(-3, 3)) if kind in ANGLE_KINDS else None
        gates.append(Gate(kind, qubits, angle))
    return Circuit(num_qubits=n, gates=tuple(gates))


def _assert_layering_matches_reference(c: Circuit) -> None:
    raw = count_raw(c)
    assert (raw.depth, raw.t_depth) == _greedy_layers(
        (g.kind, g.qubits) for g in c.gates
    )
    for params in _PARAMS:
        low = lower_to_clifford_t(c, params)
        assert (low.depth, low.t_depth) == _greedy_layers(
            _expanded_stream(c, params.t_per_rotation())
        ), params


@given(c=_random_circuits())
@settings(max_examples=200, deadline=None)
def test_per_gate_layering_matches_per_event_reference(c):
    _assert_layering_matches_reference(c)


def test_mcx_gates_serialise_on_shared_ladder_ancillas():
    def emit(b):
        b.t(0)
        b.tdg(5)
        b.mcx((0, 1, 2), 3)
        b.mcx((1, 2, 3, 4, 5), 0)
        b.ccx(4, 5, 6)
        b.mcx((4, 5, 6, 0), 1)
        b.swap(2, 6)
        b.t(6)
        b.cphase(2, 3, 0.3)
        b.tdg(3)

    c = _circ(7, emit)
    _assert_layering_matches_reference(c)
    # Ladders on disjoint operands still queue on their two shared ancillas.
    c = _circ(8, lambda b: (b.mcx((0, 1, 2), 3), b.mcx((4, 5, 6), 7)))
    one = lower_to_clifford_t(_circ(4, lambda b: b.mcx((0, 1, 2), 3)))
    assert lower_to_clifford_t(c).depth > one.depth
    _assert_layering_matches_reference(c)


def test_ccx_and_swap_serial_weights_come_from_their_expansions():
    ccx = _greedy_layers(CCX_TEMPLATE)
    swap = _greedy_layers(_expanded_stream(_circ(2, lambda b: b.swap(0, 1)), 0))
    s = new_builder(counting=True)
    s.alloc_register(3)
    s.ccx(0, 1, 2)
    s.swap(0, 1)
    low = lower_summary(s.finalize())
    assert (low.depth, low.t_depth) == (ccx[0] + swap[0], ccx[1] + swap[1])
