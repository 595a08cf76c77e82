import dataclasses
import itertools
import math

import numpy as np
import pytest

from qarith import circuit as cir
from qarith.circuit import (
    Builder,
    CircuitError,
    Gate,
    adjoint,
    circuit_to_text,
    controlled,
    encode_register,
    new_builder,
    register_value,
)
from qarith.sim import (
    permutation_table,
    simulate_permutation,
    simulate_statevector,
)


def test_new_builder_empty():
    bld = new_builder()
    c = bld.finalize()
    assert c.num_qubits == 0
    assert c.gates == ()


def test_alloc_identity_circuit():
    bld = new_builder()
    bld.alloc_register(3)
    c = bld.finalize()
    assert c.num_qubits == 3
    assert len(c.gates) == 0


def test_alloc_disjoint_registers():
    bld = new_builder()
    r1 = bld.alloc_register(4)
    r2 = bld.alloc_register(4)
    assert r1.qubits == (0, 1, 2, 3)
    assert r2.qubits == (4, 5, 6, 7)
    assert bld.num_qubits == 8
    assert not set(r1.qubits) & set(r2.qubits)


def test_alloc_zero_rejected():
    bld = new_builder()
    with pytest.raises(CircuitError):
        bld.alloc_register(0)
    with pytest.raises(CircuitError):
        bld.alloc_ancilla(0)


def test_alloc_ancilla_ledger():
    bld = new_builder()
    bld.alloc_register(6)
    anc = bld.alloc_ancilla(3)
    assert anc.qubits == (6, 7, 8)
    c = bld.finalize()
    assert c.ancilla_registers[0].qubits == (6, 7, 8)
    assert c.ancilla_qubits == (6, 7, 8)


def test_append_and_errors():
    bld = new_builder()
    bld.alloc_register(1)
    bld.x(0)
    assert bld.gates == [Gate("X", (0,))]
    with pytest.raises(CircuitError):
        bld.cnot(0, 0)
    bld2 = new_builder()
    bld2.alloc_register(3)
    with pytest.raises(CircuitError):
        bld2.ccx(0, 1, 5)


def _reference_validate(g, num_qubits):
    """Gate validation one check at a time, in the order it reports faults."""
    if g.kind not in cir.ALL_KINDS:
        raise CircuitError(f"unknown gate kind {g.kind!r}")
    if len(set(g.qubits)) != len(g.qubits):
        raise CircuitError(f"duplicate operand in {g.kind}{g.qubits}")
    for q in g.qubits:
        if not 0 <= q < num_qubits:
            raise CircuitError(f"operand {q} out of range for {num_qubits} qubits")
    if g.kind in cir.ANGLE_KINDS and (g.angle is None or not math.isfinite(g.angle)):
        raise CircuitError(f"{g.kind} needs a finite angle")
    if g.kind == "MCX":
        if len(g.qubits) < 4:
            raise CircuitError("MCX needs >= 3 controls")
    elif len(g.qubits) != cir._ARITY[g.kind]:
        raise CircuitError(f"{g.kind} takes {cir._ARITY[g.kind]} operands")


def _error(check, *args):
    try:
        check(*args)
    except CircuitError as e:
        return str(e)
    return None


def test_gate_validation_reports_the_reference_fault():
    # Every kind and operand tuple of up to four qubit ids in -1..3 on a
    # three-qubit circuit.
    for kind in sorted(cir.ALL_KINDS) + ["BOGUS"]:
        for n in range(5):
            for qubits in itertools.product(range(-1, 4), repeat=n):
                for angle in (None, 0.5, math.nan, math.inf):
                    g = Gate(kind, qubits, angle)
                    assert (_error(cir._validate_gate, g, 3)
                            == _error(_reference_validate, g, 3)), g


def test_adjoint_reverses_and_flips():
    bld = new_builder()
    bld.alloc_register(2)
    bld.x(0)
    bld.cnot(0, 1)
    c = bld.finalize()
    adj = adjoint(c)
    assert [g.kind for g in adj.gates] == ["CNOT", "X"]
    assert adjoint(adj).gates == c.gates


def test_adjoint_angle_and_dagger_gates():
    bld = new_builder()
    bld.alloc_register(2)
    bld.s(0)
    bld.t(1)
    bld.rz(0, 0.5)
    bld.cphase(0, 1, 0.25)
    c = bld.finalize()
    kinds = [g.kind for g in adjoint(c).gates]
    assert kinds == ["CPHASE", "RZ", "TDG", "SDG"]
    assert adjoint(c).gates[0].angle == -0.25
    assert adjoint(c).gates[1].angle == -0.5


@pytest.mark.parametrize("n", [2, 3, 5])
def test_adjoint_composition_identity(n, rng=np.random.default_rng(7)):
    bld = new_builder()
    bld.alloc_register(n)
    for _ in range(30):
        kind = rng.choice(["X", "CNOT", "CCX", "SWAP"])
        qs = rng.choice(n, size=min(n, {"X": 1, "CNOT": 2, "CCX": 3, "SWAP": 2}[kind]), replace=False)
        if len(qs) < {"X": 1, "CNOT": 2, "CCX": 3, "SWAP": 2}[kind]:
            continue
        bld.append(Gate(kind, tuple(int(q) for q in qs)))
    c = bld.finalize()
    combined = cir.Circuit(
        num_qubits=n, gates=c.gates + adjoint(c).gates
    )
    table = permutation_table(combined)
    assert np.array_equal(table, np.arange(1 << n))


def test_controlled_x_is_cnot():
    bld = new_builder()
    bld.alloc_register(1)
    bld.x(0)
    c = bld.finalize()
    cc = controlled(c, 1)
    assert cc.gates == (Gate("CNOT", (1, 0)),)


def test_controlled_collision_rejected():
    bld = new_builder()
    bld.alloc_register(2)
    bld.cnot(0, 1)
    c = bld.finalize()
    with pytest.raises(CircuitError):
        controlled(c, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controlled_permutation_semantics(n):
    rng = np.random.default_rng(3)
    bld = new_builder()
    bld.alloc_register(n)
    for _ in range(20):
        a, b = rng.choice(n, size=2, replace=False)
        bld.cnot(int(a), int(b))
        bld.x(int(a))
    c = bld.finalize()
    ctrl = n
    cc = controlled(c, ctrl)
    for basis in range(1 << n):
        # control = 0: identity
        assert simulate_permutation(cc, basis) == basis
        # control = 1: acts as c
        inp = basis | (1 << ctrl)
        want = simulate_permutation(c, basis) | (1 << ctrl)
        assert simulate_permutation(cc, inp) == want


def _unitary(circ):
    dim = 1 << circ.num_qubits
    cols = [simulate_statevector(circ, b) for b in range(dim)]
    return np.column_stack(cols)


@pytest.mark.parametrize(
    "emit",
    [
        lambda b: b.h(0),
        lambda b: b.s(0),
        lambda b: b.t(0),
        lambda b: b.rz(0, 0.7),
        lambda b: b.swap(0, 1),
        lambda b: b.cphase(0, 1, 1.1),
        lambda b: b.ccx(0, 1, 2),
    ],
)
def test_controlled_matches_dense_control(emit):
    bld = new_builder()
    bld.alloc_register(3)
    emit(bld)
    c = bld.finalize()
    cc = controlled(c, 3)
    u = _unitary(c)
    dim = u.shape[0]
    want = np.eye(2 * dim, dtype=complex)
    want[dim:, dim:] = u  # control is the top wire (qubit 3)
    got = _unitary(cc)
    # compare up to global phase
    k = np.argmax(np.abs(want))
    phase = got.flat[k] / want.flat[k]
    assert np.allclose(got, phase * want, atol=1e-9)


def test_circuit_dump_format():
    bld = new_builder()
    bld.alloc_register(3)
    bld.x(0)
    bld.cnot(0, 1)
    bld.ccx(0, 1, 2)
    bld.rz(2, 0.5)
    c = bld.finalize()
    text = circuit_to_text(c)
    assert text.splitlines()[0] == "qubits=3"
    assert text.splitlines()[1] == "X 0"
    assert text.splitlines()[2] == "CNOT 0,1"
    assert text.splitlines()[3] == "CCX 0,1,2"
    assert text.splitlines()[4] == "RZ 2;angle=0.5"


def test_register_encode_decode_roundtrip():
    bld = new_builder()
    r1 = bld.alloc_register(3)
    r2 = bld.alloc_register(4)
    state = encode_register(5, r1) | encode_register(11, r2)
    assert register_value(state, r1) == 5
    assert register_value(state, r2) == 11


def test_circuit_rejects_overlapping_registers():
    with pytest.raises(CircuitError):
        cir.Circuit(
            num_qubits=3,
            gates=(),
            data_registers=(cir.Register((0, 1)), cir.Register((1, 2))),
        )
    with pytest.raises(CircuitError):
        cir.Circuit(num_qubits=2, gates=(Gate("CNOT", (0, 5)),))


def test_recorded_gates_are_validated_once(monkeypatch):
    calls = []
    validate = cir._validate_gate
    monkeypatch.setattr(
        cir, "_validate_gate", lambda *args: calls.append(args) or validate(*args)
    )
    bld = new_builder()
    bld.alloc_register(3)
    bld.adjoint(lambda: (bld.t(0), bld.ccx(0, 1, 2)))
    bld.within(lambda: bld.cnot(0, 1), lambda _: bld.h(2))
    c = bld.finalize()
    assert len(calls) == 4 and len(c.gates) == 5
    # Circuits built any other way still validate every gate.
    assert dataclasses.replace(c, name="copy").gates == c.gates
    assert len(calls) == 4 + 5
    with pytest.raises(CircuitError):
        dataclasses.replace(c, gates=c.gates + (Gate("CNOT", (1, 1)),))


def test_controlled_mcx_gains_a_control():
    bld = new_builder()
    bld.alloc_register(4)
    bld.mcx((0, 1, 2), 3)
    c = bld.finalize()
    cc = controlled(c, 4)
    assert cc.gates == (Gate("MCX", (4, 0, 1, 2, 3)),)
    for basis in range(16):
        assert simulate_permutation(cc, basis) == basis  # control off
        inp = basis | 16
        want = simulate_permutation(c, basis) | 16
        assert simulate_permutation(cc, inp) == want


def test_counting_builder_matches_recording():
    def emit(bld):
        a = bld.alloc_register(3)
        b = bld.alloc_ancilla(2)
        bld.ccx(a[0], a[1], b[0])
        bld.cnot(a[0], b[1])
        bld.mcx((a[0], a[1], a[2], b[0]), b[1])
        bld.rz(a[0], 0.3)

    rec = new_builder()
    emit(rec)
    c = rec.finalize()
    cnt = new_builder(counting=True)
    emit(cnt)
    s = cnt.finalize()
    assert s.num_qubits == c.num_qubits == 5
    assert s.kinds == {"CCX": 1, "CNOT": 1, "MCX": 1, "RZ": 1}
    assert s.mcx_controls == {4: 1}


def test_cached_blocks_replay_allocations():
    cir.clear_block_cache()

    def block(bld):
        anc = bld.alloc_ancilla(2)
        bld.ccx(anc[0], anc[1], reg[0])

    bld = new_builder(counting=True)
    reg = bld.alloc_register(1)
    bld.cached(("blk", 1), lambda: block(bld))
    bld.cached(("blk", 1), lambda: block(bld))
    s = bld.finalize()
    assert s.kinds["CCX"] == 2
    assert s.num_qubits == 1 + 2 + 2


def test_builder_adjoint_daggers_in_reverse_order():
    bld = new_builder()
    bld.alloc_register(2)
    bld.x(1)
    result = bld.adjoint(lambda: (bld.t(0), bld.s(1), bld.rz(0, 0.5), "r")[-1])
    assert result == "r"
    c = bld.finalize()
    assert c.gates == (
        Gate("X", (1,)), Gate("RZ", (0,), -0.5), Gate("SDG", (1,)),
        Gate("TDG", (0,)),
    )


def test_builder_adjoint_counts_forward():
    bld = new_builder(counting=True)
    bld.alloc_register(1)
    bld.adjoint(lambda: (bld.t(0), bld.s(0)))
    assert bld.finalize().kinds == {"T": 1, "S": 1}


def _within_blocks(bld, calls):
    reg = bld.alloc_register(2)

    def compute():
        calls.append("compute")
        anc = bld.alloc_ancilla(2)
        bld.ccx(reg[0], reg[1], anc[0])
        bld.t(anc[0])
        bld.mcx((reg[0], reg[1], anc[0]), anc[1])
        return anc[1]

    def apply(flag):
        calls.append("apply")
        bld.cnot(flag, reg[1])

    bld.within(compute, apply)


def test_within_recording_appends_reversed_dagger_of_compute():
    calls: list = []
    bld = new_builder()
    _within_blocks(bld, calls)
    c = bld.finalize()
    compute = (Gate("CCX", (0, 1, 2)), Gate("T", (2,)), Gate("MCX", (0, 1, 2, 3)))
    apply = (Gate("CNOT", (3, 1)),)
    assert c.gates == compute + apply + tuple(g.adjoint() for g in reversed(compute))
    assert calls == ["compute", "apply"]
    assert c.num_qubits == 4  # nothing allocated a second time


def test_within_counting_tallies_compute_twice_without_rerunning_it():
    calls: list = []
    bld = new_builder(counting=True)
    _within_blocks(bld, calls)
    s = bld.finalize()
    assert calls == ["compute", "apply"]
    assert s.kinds == {"CCX": 2, "T": 2, "MCX": 2, "CNOT": 1}
    assert s.mcx_controls == {3: 2}
    assert s.num_qubits == 4
