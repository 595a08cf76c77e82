import cmath
import math

import numpy as np
import pytest

from qarith import catalog, sim
from qarith.adders import emit_qft
from qarith.circuit import (
    CCX,
    CNOT,
    CPHASE,
    RZ,
    SWAP,
    TDG,
    Builder,
    Circuit,
    H,
    T,
    X,
)
from qarith.sim import (
    SimulationError,
    simulate_permutation_batch,
    simulate_product,
    simulate_statevector,
)


def _circ(n, gates):
    return Circuit(num_qubits=n, gates=tuple(gates))


def test_x_flips_bit():
    c = _circ(3, [("X", (0,), None)])
    assert list(simulate_permutation_batch(c, [0b000])) == [0b001]


def test_toffoli_truth_table():
    c = _circ(3, [("CCX", (0, 1, 2), None)])
    assert list(simulate_permutation_batch(c, [0b011, 0b001, 0b111])) == [
        0b111, 0b001, 0b011]


def test_swap_table():
    c = _circ(2, [("SWAP", (0, 1), None)])
    assert list(simulate_permutation_batch(c, range(4))) == [0, 2, 1, 3]


def test_identity_table():
    c = _circ(3, [])
    assert np.array_equal(simulate_permutation_batch(c, range(8)), np.arange(8))


def test_non_permutation_gate_names_index():
    c = _circ(1, [("X", (0,), None), ("H", (0,), None)])
    with pytest.raises(SimulationError, match="gate 1"):
        simulate_permutation_batch(c, [0])


@pytest.mark.parametrize("bad", [-1, 8, 1 << 70])
def test_out_of_range_states_rejected(bad):
    c = _circ(3, [("X", (0,), None)])
    for states in ([bad], [0, bad]):
        with pytest.raises(SimulationError, match="out of range"):
            simulate_permutation_batch(c, states)
        with pytest.raises(SimulationError, match="out of range"):
            simulate_statevector(c, states)
        with pytest.raises(SimulationError, match="out of range"):
            simulate_product(c, states)


@pytest.mark.parametrize("width", [63, 64])  # int64 and object batches
def test_wide_batch_matches_single(width):
    top = width - 1
    c = _circ(width, [("X", (top,), None), ("CCX", (top, 3, top - 3), None),
                      ("SWAP", (top - 3, 1), None), ("CCX", (0, top, 5), None)])
    states = [0, 1 << 3, (1 << width) - 1, 0b1011]
    batch = simulate_permutation_batch(c, states)
    assert [int(o) for o in batch] == [_reference_permutation(c.gates, s)
                                       for s in states]


def test_batch_matches_single():
    rng = np.random.default_rng(11)
    bld = Builder()
    bld.alloc_register(6)
    for _ in range(80):
        a, b, c3 = (int(x) for x in rng.choice(6, size=3, replace=False))
        bld.ccx(a, b, c3)
        bld.cnot(b, a)
    c = bld.finalize()
    states = rng.integers(0, 64, size=50)
    batch = simulate_permutation_batch(c, states)
    for s, o in zip(states, batch):
        assert _reference_permutation(c.gates, int(s)) == int(o)


def test_hadamard_amplitudes():
    c = _circ(1, [("H", (0,), None)])
    v = simulate_statevector(c, [0])
    assert np.allclose(v, [[1 / math.sqrt(2)], [1 / math.sqrt(2)]])


def test_qft_inverse_qft_roundtrip():
    bld = Builder()
    r = bld.alloc_register(4)
    emit_qft(bld, r.qubits)
    bld.adjoint(lambda: emit_qft(bld, r.qubits))
    c = bld.finalize()
    block = simulate_statevector(c, range(16))
    assert np.all(np.abs(np.diag(block)) ** 2 >= 1 - 1e-9)


def test_statevector_limit():
    bld = Builder()
    bld.alloc_register(23)
    with pytest.raises(SimulationError):
        simulate_statevector(bld.finalize(), [0])


def test_statevector_agrees_with_permutation_sim():
    rng = np.random.default_rng(5)
    bld = Builder()
    bld.alloc_register(5)
    for _ in range(40):
        a, b, c3 = (int(x) for x in rng.choice(5, size=3, replace=False))
        bld.ccx(a, b, c3)
        bld.x(a)
        bld.swap(b, c3)
    c = bld.finalize()
    states = [0, 7, 19, 31]
    outs, is_basis, _ = _dense_basis(c, states)
    assert is_basis.all()
    assert list(outs) == list(simulate_permutation_batch(c, states))


def test_norm_preserved_long_sequence():
    rng = np.random.default_rng(13)
    bld = Builder()
    bld.alloc_register(4)
    for _ in range(3000):
        q = int(rng.integers(4))
        bld.h(q)
        bld.rz(q, float(rng.uniform(-3, 3)))
        bld.cphase(q, (q + 1) % 4, float(rng.uniform(-3, 3)))
    v = simulate_statevector(bld.finalize(), [3])
    assert abs(np.linalg.norm(v) - 1) < 1e-9


# -- batched simulation against plain per-state references -----------------------

def _reference_permutation(gates, s: int) -> int:
    """One basis state through permutation gates, one bit operation at a time."""
    for kind, q, _ in gates:
        if kind == SWAP:
            a, b = q
            if (s >> a) & 1 != (s >> b) & 1:
                s ^= (1 << a) | (1 << b)
        elif all((s >> c) & 1 for c in q[:-1]):  # X has no controls
            s ^= 1 << q[-1]
    return s


def _reference_statevector(c, basis: int) -> np.ndarray:
    """One basis state through the full alphabet, one gate at a time."""
    n = c.num_qubits
    idx = np.arange(1 << n)
    state = np.zeros(1 << n, dtype=complex)
    state[basis] = 1.0
    phase = {T: math.pi / 4, TDG: -math.pi / 4}
    for g in c.gates:
        kind, q, angle = g
        on = (idx >> q[0]) & 1 == 1
        if kind == H:
            view = state.reshape(-1, 2, 1 << q[0])
            lo, hi = view[:, 0, :].copy(), view[:, 1, :].copy()
            view[:, 0, :] = (lo + hi) / math.sqrt(2)
            view[:, 1, :] = (lo - hi) / math.sqrt(2)
        elif kind in phase:
            state[on] *= cmath.exp(1j * phase[kind])
        elif kind == RZ:
            state[~on] *= cmath.exp(-0.5j * angle)
            state[on] *= cmath.exp(0.5j * angle)
        elif kind == CPHASE:
            state[on & ((idx >> q[1]) & 1 == 1)] *= cmath.exp(1j * angle)
        else:
            state = state[[_reference_permutation([g], int(i)) for i in idx]]
    return state


def _random_gate(rng, kind, n):
    picks = [int(q) for q in rng.choice(n, size=min(n, 5), replace=False)]
    operands = {X: 1, H: 1, T: 1, TDG: 1, RZ: 1,
                CNOT: 2, SWAP: 2, CPHASE: 2, CCX: 3}[kind]
    angle = float(rng.uniform(-3, 3)) if kind in (RZ, CPHASE) else None
    return (kind, tuple(picks[:operands]), angle)


PERM = (X, CNOT, CCX, SWAP)
DIAG = (T, TDG, RZ, CPHASE)


def _random_full_circuit(rng, n, reverse):
    # Permutation and diagonal runs at both ends, runs split by single H
    # gates and by each other, and runs of H.
    layout = [PERM, DIAG, (H,), PERM, (H,), DIAG, (H,), (H,), DIAG, PERM,
              (H,), PERM + DIAG + (H,), DIAG, PERM, DIAG]
    gates = []
    for kinds in layout[::-1] if reverse else layout:
        for _ in range(int(rng.integers(1, 6))):
            gates.append(_random_gate(rng, kinds[int(rng.integers(len(kinds)))], n))
    return _circ(n, gates)


@pytest.mark.parametrize("seed", range(6))
def test_batched_statevector_matches_single_columns(seed):
    rng = np.random.default_rng(seed)
    n = 4 + seed % 3
    c = _random_full_circuit(rng, n, reverse=seed % 2)
    want = np.column_stack([_reference_statevector(c, s) for s in range(1 << n)])
    assert np.allclose(simulate_statevector(c, range(1 << n)), want, rtol=0, atol=1e-12)
    for count in (1, 3, 100):
        states = [int(s) for s in rng.integers(0, 1 << n, size=count)]
        batch = simulate_statevector(c, states)
        assert batch.shape == (1 << n, count)
        assert np.allclose(batch, want[:, states], rtol=0, atol=1e-12)


def _random_permutation_circuit(rng, width, length=40):
    kinds = PERM if width >= 3 else (X, CNOT, SWAP)[:width]
    return _circ(width, [_random_gate(rng, kinds[int(rng.integers(len(kinds)))], width)
                         for _ in range(length)])


@pytest.mark.parametrize("width", [1, 8, 63, 64, 130])
def test_bitsliced_batch_matches_single_states(width):
    rng = np.random.default_rng(width)
    c = _random_permutation_circuit(rng, width)
    for count in (0, 1, 7, 8, 9, 4097):
        states = [int.from_bytes(rng.bytes(17), "little") % (1 << width)
                  for _ in range(count)]
        batch = simulate_permutation_batch(c, states)
        assert batch.dtype == (np.int64 if width <= 63 else object)
        assert [int(o) for o in batch] == [_reference_permutation(c.gates, s)
                                           for s in states]


# -- product states against the dense reference ----------------------------------

def _dense_basis(c, states):
    """simulate_product's (outputs, basis flags, phases) read off the dense
    statevector: each column's largest amplitude."""
    v = simulate_statevector(c, states)
    out = np.argmax(np.abs(v), axis=0)
    amp = v[out, np.arange(v.shape[1])]
    return out, np.abs(amp) ** 2 >= 1 - 1e-9, amp / np.abs(amp)


def _product_columns(c, states):
    """The per-qubit amplitudes of simulate_product's gate rule, multiplied
    out into dense columns, and its entangled flags."""
    n, count = c.num_qubits, len(states)
    bits = (np.asarray(states)[None, :] >> np.arange(n)[:, None]) & 1
    amp = np.zeros((n, 2, count), dtype=complex)
    for q in range(n):
        amp[q, bits[q], np.arange(count)] = 1.0
    val = bits.astype(np.int8)
    entangled = np.zeros(count, dtype=bool)
    for g in c.gates:
        sim._apply_product(g, amp, val, entangled)
    cols = np.ones((1, count), dtype=complex)
    for q in range(n):  # qubit q is bit q of the dense index
        cols = (amp[q][:, None, :] * cols[None, :, :]).reshape(-1, count)
    return cols, entangled


def _random_product_circuit(rng, n, length=80):
    """Random gates over the whole alphabet that keep every basis input a
    product state.  The low half of the qubits never meets an H, so it may
    control anything; the high half takes H, T, TDG and RZ, and is flipped
    and phased under those controls.  Operand order is random."""
    low, high = list(range(n // 2)), list(range(n // 2, n))

    def pick(pool, k):
        return [int(q) for q in rng.choice(pool, size=k, replace=False)]

    gates = []
    for _ in range(length):
        kind = (X, CNOT, CCX, SWAP, H, T, TDG, RZ, CPHASE)[int(rng.integers(9))]
        angle = float(rng.uniform(-3, 3)) if kind in (RZ, CPHASE) else None
        if kind in (H, T, TDG, RZ):
            q = pick(high, 1)
        elif kind == SWAP:
            q = pick(low if rng.integers(2) else high, 2)
        elif kind == CPHASE:
            q = pick(low, 1) + pick(high, 1)
            q = q[::-1] if rng.integers(2) else q
        else:
            ctrls = pick(low, {X: 0, CNOT: 1, CCX: 2}[kind])
            q = ctrls + pick([p for p in range(n) if p not in ctrls], 1)
        gates.append((kind, tuple(q), angle))
    return _circ(n, gates)


@pytest.mark.parametrize("seed", range(6))
def test_product_rule_matches_statevector_gate_by_gate(seed):
    rng = np.random.default_rng(seed)
    n = 4 + seed % 3
    c = _random_product_circuit(rng, n)
    states = range(1 << n)
    cols, entangled = _product_columns(c, states)
    assert not entangled.any()
    assert np.allclose(cols, simulate_statevector(c, states), rtol=0, atol=1e-12)
    outs, basis, phases = simulate_product(c, states)
    want_outs, want_basis, want_phases = _dense_basis(c, states)
    assert np.array_equal(basis, want_basis)
    assert np.array_equal(outs[basis], want_outs[basis])
    assert np.allclose(phases[basis], want_phases[basis], rtol=0, atol=1e-12)


@pytest.mark.parametrize("op", ["inplace_adder", "subtractor", "const_adder"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_matches_statevector_on_the_qft_adders(op, n):
    # Every basis state of the circuit, ancillas included; global phase too.
    c = catalog.build(op, "QFT", n)
    states = range(1 << c.num_qubits)
    outs, basis, phases = simulate_product(c, states)
    want_outs, want_basis, want_phases = _dense_basis(c, states)
    assert basis.all() and want_basis.all()
    assert np.array_equal(outs, want_outs)
    assert np.allclose(phases, want_phases, rtol=0, atol=1e-12)


@pytest.mark.parametrize("gates, entangled", [
    # Both CPHASE operands superposed.
    ([(H, (0,), None), (H, (1,), None), (CPHASE, (0, 1), 0.5)], [1, 1, 1, 1]),
    # A superposed control; another control at 0 makes CCX the identity.
    ([(H, (0,), None), (CNOT, (0, 1), None)], [1, 1, 1, 1]),
    ([(H, (0,), None), (CCX, (0, 1, 2), None)], [0, 0, 1, 1, 0, 0, 1, 1]),
    # H H returns a qubit to a basis state, which may then control.
    ([(H, (0,), None), (H, (0,), None), (H, (1,), None), (CPHASE, (0, 1), 0.5)],
     [0, 0, 0, 0]),
], ids=["cphase", "cnot", "ccx", "hh"])
def test_product_flags_exactly_the_entangled_cases(gates, entangled):
    c = _circ(len(entangled).bit_length() - 1, gates)
    _, basis, phases = simulate_product(c, range(len(entangled)))
    assert np.isnan(phases).tolist() == [bool(e) for e in entangled]
    assert not basis[np.isnan(phases)].any()
