import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith.circuit import CircuitError, clear_block_cache, new_builder
from qarith.modexp import (
    LookupTable,
    build_modexp,
    build_modmul_const,
    build_table_lookup,
    emit_lookup,
    optimal_window,
    parse_modexp,
)
from qarith.resources import count_raw
from qarith.sim import simulate_permutation


def test_lookup_table_validation():
    with pytest.raises(CircuitError):
        LookupTable(2, (1, 2, 3))
    with pytest.raises(CircuitError):
        build_table_lookup(LookupTable(1, (1, 4)), 2)


def test_lookup_spec_example(oracle_runner):
    c = build_table_lookup(LookupTable(2, (0, 1, 2, 3)), 2)
    oracle_runner(c, {"addr": [2], "y": [0]}, lambda addr, y: {"y": 2})


def test_lookup_all_zero_is_identity():
    c = build_table_lookup(LookupTable(2, (0, 0, 0, 0)), 3)
    for s in range(1 << c.num_qubits):
        assert simulate_permutation(c, s) == s


def test_lookup_random_exhaustive(oracle_runner):
    rng = np.random.default_rng(23)
    entries = tuple(int(v) for v in rng.integers(0, 16, size=8))
    c = build_table_lookup(LookupTable(3, entries), 4)
    oracle_runner(
        c,
        {"addr": range(8), "y": range(16)},
        lambda addr, y: {"addr": addr, "y": y ^ entries[addr]},
    )


def test_lookup_involution(oracle_runner):
    rng = np.random.default_rng(5)
    entries = tuple(int(v) for v in rng.integers(0, 8, size=4))
    c = build_table_lookup(LookupTable(2, entries), 3)
    from qarith.circuit import Circuit

    doubled = Circuit(
        num_qubits=c.num_qubits,
        gates=c.gates + c.gates,
        data_registers=c.data_registers,
        ancilla_registers=c.ancilla_registers,
    )
    for s in range(1 << 5):
        assert simulate_permutation(doubled, s) == s


def test_modmul_const_spec_examples(oracle_runner):
    c = build_modmul_const(2, 15, 4)
    oracle_runner(c, {"x": [7]}, lambda x: {"x": 14})
    c2 = build_modmul_const(7, 15, 4)
    oracle_runner(c2, {"x": range(15)}, lambda x: {"x": 7 * x % 15})
    c3 = build_modmul_const(1, 13, 4)
    oracle_runner(c3, {"x": range(13)}, lambda x: {"x": x})


def test_modmul_const_rejects_noninvertible():
    with pytest.raises(CircuitError):
        build_modmul_const(3, 15, 4)
    with pytest.raises(CircuitError):
        build_modmul_const(15, 15, 4)


@pytest.mark.parametrize("algo", ["LYY", "LYYWindowed(1)", "LYYWindowed(2)"])
@pytest.mark.parametrize("n", [2, 3])
def test_modexp_exhaustive_small(algo, n, oracle_runner):
    N = (1 << n) - 1
    for a in range(2, N):
        if math.gcd(a, N) == 1:
            oracle_runner(
                build_modexp(algo, a, N, n),
                {"x": range(1 << n), "out": [0]},
                lambda x, out: {"out": pow(a, x, N)},
            )


def test_modexp_spec_example(oracle_runner):
    c = build_modexp("LYY", 7, 15, 4)
    oracle_runner(c, {"x": [3], "out": [0]}, lambda x, out: {"out": 13})  # 343 mod 15


def test_modexp_x_zero_gives_one(oracle_runner):
    c = build_modexp("LYYWindowed(2)", 7, 15, 4)
    oracle_runner(c, {"x": [0], "out": [0]}, lambda x, out: {"out": 1})


def test_windowed_and_plain_agree(oracle_runner):
    for a in (2, 7, 11):
        for algo in ("LYY", "LYYWindowed(3)"):
            oracle_runner(
                build_modexp(algo, a, 15, 4),
                {"x": range(16), "out": [0]},
                lambda x, out: {"out": pow(a, x, 15)},
            )


def test_modexp_even_modulus_plain_ok(oracle_runner):
    oracle_runner(
        build_modexp("LYY", 3, 8, 4),
        {"x": range(16), "out": [0]},
        lambda x, out: {"out": pow(3, x, 8)},
    )
    with pytest.raises(CircuitError):
        build_modexp("LYYWindowed(2)", 3, 8, 4)


def test_modexp_validation():
    with pytest.raises(CircuitError):
        build_modexp("LYY", 3, 15, 3)  # N too large for n
    with pytest.raises(CircuitError):
        build_modexp("LYY", 5, 15, 4)  # gcd != 1
    with pytest.raises(CircuitError):
        parse_modexp("Montgomery")


def test_optimal_window_examples():
    assert optimal_window(32) == 10
    assert optimal_window(4) == 4
    assert optimal_window(256) == 16
    assert optimal_window(2) == 2  # clamped to n
    assert optimal_window(1) == 1


def test_windowed_opt_uses_formula():
    clear_block_cache()
    c = build_modexp("LYYWindowedOpt", 2, 31, 5, counting=True)
    # window 4 -> two windows of 4 and one of 1: lookup ancillas = w-1 = 3
    assert c.name.startswith("modexp[LYYWindowedOpt")


def test_modexp_full_space_bijection():
    # Inputs with the output register non-zero are outside the contract but
    # must still map under a deterministic permutation (unitarity).
    from qarith.sim import is_bijection, permutation_table

    c = build_modexp("LYY", 2, 3, 2)
    assert c.num_qubits <= 16
    assert is_bijection(permutation_table(c))


def test_counting_matches_recording_modexp():
    clear_block_cache()
    cases = [
        ("LYY", 5, 7, 3),
        ("LYYWindowed(2)", 5, 7, 3),
        ("LYYWindowed(3)", 7, 31, 5),  # two full windows, one ragged
        ("LYYWindowedOpt", 11, 31, 5),
    ] + [(f"LYYWindowed({w})", 5, 63, 6) for w in range(1, 7)]  # ragged, w = n
    for algo, a, N, n in cases:
        rec = build_modexp(algo, a, N, n)
        cnt = build_modexp(algo, a, N, n, counting=True)
        raw = count_raw(rec)
        assert cnt.kinds.get("CCX", 0) == raw.toffoli_count, algo
        assert (
            cnt.kinds.get("CNOT", 0) + cnt.kinds.get("SWAP", 0) == raw.cnot_count
        ), algo
        assert cnt.kinds.get("X", 0) == raw.single_qubit_clifford, algo
        assert cnt.num_qubits == rec.num_qubits, algo


def test_counting_matches_recording_modmul():
    clear_block_cache()
    rec = build_modmul_const(7, 15, 4)
    cnt = build_modmul_const(7, 15, 4, counting=True)
    raw = count_raw(rec)
    assert cnt.kinds.get("CCX", 0) == raw.toffoli_count
    assert cnt.kinds.get("CNOT", 0) + cnt.kinds.get("SWAP", 0) == raw.cnot_count
    assert cnt.num_qubits == rec.num_qubits


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lookup_tally_matches_recording(data):
    """The counting lookup's closed form equals the recorded walk's tallies,
    including entries wider than the target (only the low bits load)."""
    a = data.draw(st.integers(1, 8), label="address bits")
    m = data.draw(st.integers(1, 8), label="target bits")
    entries = data.draw(
        st.lists(st.integers(0, (1 << (m + 3)) - 1),
                 min_size=1 << a, max_size=1 << a),
        label="entries",
    )
    kinds = []
    for counting in (True, False):
        bld = new_builder(counting)
        addr = bld.alloc_register(a, "addr").qubits
        target = bld.alloc_register(m, "y").qubits
        ancs = bld.alloc_ancilla(a - 1, "lk").qubits if a > 1 else ()
        emit_lookup(bld, addr, target, entries, ancs)
        if counting:
            kinds.append(bld.finalize().kinds)
        else:
            kinds.append(Counter(g.kind for g in bld.finalize().gates))
    cnt, rec = kinds
    for kind in ("X", "CCX", "CNOT"):
        assert cnt.get(kind, 0) == rec[kind], kind
