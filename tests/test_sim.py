import math

import numpy as np
import pytest

from qarith.adders import emit_qft
from qarith.circuit import Gate, new_builder
from qarith.sim import (
    SimulationError,
    extract_basis,
    is_bijection,
    permutation_table,
    simulate_permutation,
    simulate_permutation_batch,
    simulate_statevector,
)


def _circ(n, gates):
    bld = new_builder()
    bld.alloc_register(n)
    for g in gates:
        bld.append(g)
    return bld.finalize()


def test_x_flips_bit():
    c = _circ(3, [Gate("X", (0,))])
    assert simulate_permutation(c, 0b000) == 0b001


def test_toffoli_truth_table():
    c = _circ(3, [Gate("CCX", (0, 1, 2))])
    assert simulate_permutation(c, 0b011) == 0b111
    assert simulate_permutation(c, 0b001) == 0b001
    assert simulate_permutation(c, 0b111) == 0b011


def test_swap_table():
    c = _circ(2, [Gate("SWAP", (0, 1))])
    assert list(permutation_table(c)) == [0, 2, 1, 3]


def test_identity_table():
    c = _circ(3, [])
    assert np.array_equal(permutation_table(c), np.arange(8))


def test_non_permutation_gate_names_index():
    c = _circ(1, [Gate("X", (0,)), Gate("H", (0,))])
    with pytest.raises(SimulationError, match="gate 1"):
        simulate_permutation(c, 0)


def test_permutation_table_limit():
    bld = new_builder()
    bld.alloc_register(17)
    c = bld.finalize()
    with pytest.raises(SimulationError):
        permutation_table(c)


@pytest.mark.parametrize("bad", [-1, 8, 1 << 70])
def test_out_of_range_states_rejected(bad):
    c = _circ(3, [Gate("X", (0,))])
    with pytest.raises(SimulationError, match="out of range"):
        simulate_permutation(c, bad)
    with pytest.raises(SimulationError, match="out of range"):
        simulate_permutation_batch(c, [0, bad])
    with pytest.raises(SimulationError, match="out of range"):
        simulate_statevector(c, bad)


@pytest.mark.parametrize("width", [63, 64])  # int64 and object batches
def test_wide_batch_matches_single(width):
    top = width - 1
    c = _circ(width, [Gate("X", (top,)), Gate("CCX", (top, 3, top - 3)),
                      Gate("SWAP", (top - 3, 1)), Gate("MCX", (0, 1, top, 5))])
    states = [0, 1 << 3, (1 << width) - 1, 0b1011]
    batch = simulate_permutation_batch(c, states)
    assert [int(o) for o in batch] == [simulate_permutation(c, s) for s in states]


def test_batch_matches_single():
    rng = np.random.default_rng(11)
    bld = new_builder()
    bld.alloc_register(6)
    for _ in range(80):
        a, b, c3 = (int(x) for x in rng.choice(6, size=3, replace=False))
        bld.ccx(a, b, c3)
        bld.cnot(b, a)
    c = bld.finalize()
    states = rng.integers(0, 64, size=50)
    batch = simulate_permutation_batch(c, states)
    for s, o in zip(states, batch):
        assert simulate_permutation(c, int(s)) == int(o)


def test_hadamard_amplitudes():
    c = _circ(1, [Gate("H", (0,))])
    v = simulate_statevector(c, 0)
    assert np.allclose(v, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_qft_inverse_qft_roundtrip():
    bld = new_builder()
    r = bld.alloc_register(4)
    emit_qft(bld, r.qubits)
    bld.adjoint(lambda: emit_qft(bld, r.qubits))
    c = bld.finalize()
    for basis in range(16):
        v = simulate_statevector(c, basis)
        assert abs(v[basis]) ** 2 >= 1 - 1e-9


def test_extract_basis():
    assert extract_basis(np.array([1.0, 0, 0, 0], dtype=complex)) == 0
    with pytest.raises(SimulationError):
        extract_basis(np.array([1, 1, 0, 0], dtype=complex) / math.sqrt(2))


def test_statevector_limit():
    bld = new_builder()
    bld.alloc_register(23)
    with pytest.raises(SimulationError):
        simulate_statevector(bld.finalize(), 0)


def test_statevector_agrees_with_permutation_sim():
    rng = np.random.default_rng(5)
    bld = new_builder()
    bld.alloc_register(5)
    for _ in range(40):
        a, b, c3 = (int(x) for x in rng.choice(5, size=3, replace=False))
        bld.ccx(a, b, c3)
        bld.x(a)
        bld.swap(b, c3)
    c = bld.finalize()
    for basis in [0, 7, 19, 31]:
        v = simulate_statevector(c, basis)
        assert extract_basis(v) == simulate_permutation(c, basis)


def test_norm_preserved_long_sequence():
    rng = np.random.default_rng(13)
    bld = new_builder()
    bld.alloc_register(4)
    for _ in range(3000):
        q = int(rng.integers(4))
        bld.h(q)
        bld.rz(q, float(rng.uniform(-3, 3)))
        bld.cphase(q, (q + 1) % 4, float(rng.uniform(-3, 3)))
    v = simulate_statevector(bld.finalize(), 3)
    assert abs(np.linalg.norm(v) - 1) < 1e-9


def test_bijection_checker():
    c = _circ(3, [Gate("CCX", (0, 1, 2)), Gate("CNOT", (2, 0))])
    assert is_bijection(permutation_table(c))
