import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qarith import circuit, modexp
from qarith.catalog import modexp_constants, modexp_space
from qarith.circuit import Builder, CircuitError, clear_block_cache
from qarith.modexp import (
    build_modexp,
    build_modmul_const,
    build_table_lookup,
    emit_lookup,
    optimal_window,
    parse_modexp,
)
from qarith.sim import pack_bits, simulate_permutation_batch, unpack_bits

from conftest import assert_tallies_equal


def test_lookup_table_validation():
    # The address width is log2 of the table length, and at least 1.
    for entries in ((1, 2, 3), (1,), ()):
        with pytest.raises(CircuitError, match=f"a >= 1, not {len(entries)}$"):
            build_table_lookup(entries, 2)
    with pytest.raises(CircuitError, match="table entry 4 does not fit 2 bits"):
        build_table_lookup((1, 4), 2)
    assert build_table_lookup((1, 2, 3, 0), 2).data_registers[0].qubits == (0, 1)


def test_lookup_spec_example(oracle_runner):
    c = build_table_lookup((0, 1, 2, 3), 2)
    oracle_runner(c, {"addr": [2], "y": [0]}, lambda addr, y: {"y": 2})


def test_lookup_all_zero_is_identity():
    c = build_table_lookup((0, 0, 0, 0), 3)
    every = unpack_bits(range(1 << c.num_qubits), c.num_qubits)
    assert np.array_equal(simulate_permutation_batch(c, every), every)


def test_lookup_random_exhaustive(oracle_runner):
    rng = np.random.default_rng(23)
    entries = tuple(int(v) for v in rng.integers(0, 16, size=8))
    c = build_table_lookup(entries, 4)
    column = np.array(entries, dtype=object)  # indexed by the addr column
    oracle_runner(
        c,
        {"addr": range(8), "y": range(16)},
        lambda addr, y: {"addr": addr, "y": y ^ column[addr.astype(int)]},
    )


def test_lookup_involution(oracle_runner):
    rng = np.random.default_rng(5)
    entries = tuple(int(v) for v in rng.integers(0, 8, size=4))
    c = build_table_lookup(entries, 3)
    from qarith.circuit import Circuit

    doubled = Circuit(
        num_qubits=c.num_qubits,
        gates=c.gates + c.gates,
        data_registers=c.data_registers,
        ancilla_registers=c.ancilla_registers,
    )
    every = unpack_bits(range(1 << 5), c.num_qubits)
    assert np.array_equal(simulate_permutation_batch(doubled, every), every)


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
            oracle_runner(build_modexp(algo, a, N, n), *modexp_space(a, N, n))


def test_modexp_spec_example(oracle_runner):
    c = build_modexp("LYY", 7, 15, 4)
    oracle_runner(c, {"x": [3], "out": [0]}, lambda x, out: {"out": 13})  # 343 mod 15


def test_modexp_x_zero_gives_one(oracle_runner):
    c = build_modexp("LYYWindowed(2)", 7, 15, 4)
    oracle_runner(c, {"x": [0], "out": [0]}, lambda x, out: {"out": 1})


def test_windowed_and_plain_agree(oracle_runner):
    for a in (2, 7, 11):
        for algo in ("LYY", "LYYWindowed(3)"):
            oracle_runner(build_modexp(algo, a, 15, 4), *modexp_space(a, 15, 4))


def test_modexp_even_modulus_plain_ok(oracle_runner):
    oracle_runner(build_modexp("LYY", 3, 8, 4), *modexp_space(3, 8, 4))
    with pytest.raises(CircuitError):
        build_modexp("LYYWindowed(2)", 3, 8, 4)


def test_modexp_validation():
    with pytest.raises(CircuitError):
        build_modexp("LYY", 3, 15, 3)  # N too large for n
    with pytest.raises(CircuitError):
        build_modexp("LYY", 5, 15, 4)  # gcd != 1
    with pytest.raises(CircuitError):
        parse_modexp("Montgomery")
    for algo in ("LYYWindowed(1x)", "LYYWindowed()", "LYYWindowed(²)",
                 "LYYWindowed(007)", "LYYWindowed(٣)", "LYYWindowedOpt(3)"):
        with pytest.raises(CircuitError,
                           match=re.escape(f"unknown modexp algorithm {algo!r}")):
            parse_modexp(algo)
    with pytest.raises(CircuitError, match=re.escape(
            "modexp algorithm 'LYYWindowed(0)': LYYWindowed(k) needs k >= 1")):
        parse_modexp("LYYWindowed(0)")
    assert parse_modexp("LYYWindowed(11)") == ("LYYWindowed", 11)
    assert parse_modexp("LYYWindowedOpt") == ("LYYWindowedOpt", None)


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
    c = build_modexp("LYY", 2, 3, 2)
    assert c.num_qubits <= 16
    every = unpack_bits(range(1 << c.num_qubits), c.num_qubits)
    table = pack_bits(simulate_permutation_batch(c, every))
    assert len(np.unique(table)) == len(table)


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
        assert_tallies_equal(cnt, rec)


def test_counting_windowed_modexp_walks_each_table_once(monkeypatch):
    # Exact work, not seconds: a cold counting build walks each window's two
    # tables once (the uncompute lookup is a block-cache hit), and the
    # multiply-accumulate between the lookups is one cached block.
    class HitCounting(dict):
        hits = 0

        def get(self, key, default=None):
            value = super().get(key, default)
            self.hits += value is not None
            return value

    walks = 0
    lookup = modexp.emit_lookup

    def counted(*args):
        nonlocal walks
        walks += 1
        lookup(*args)

    cache = HitCounting()
    monkeypatch.setattr(circuit, "_BLOCK_CACHE", cache)
    monkeypatch.setattr(modexp, "emit_lookup", counted)
    a, N = modexp_constants(64)
    build_modexp("LYYWindowedOpt", a, N, 64, counting=True)
    # 6 windows (w = 12, the last of 4 bits).  Hits: 12 uncompute lookups,
    # 11 repeats of the multiply-accumulate, and 12 ripple adders inside its
    # one emission.  There `repeat` runs two of the n add-and-double
    # iterations and two of the n adjoint doublings; an add makes 3 ripple
    # calls and a doubling 2, so 2 x (3 + 2) + 2 x 2 = 14 calls on two widths
    # (n + 1 and n) miss twice and hit 12 times.
    assert (walks, cache.hits) == (12, 12 + 11 + 12)


def test_counting_matches_recording_modmul():
    clear_block_cache()
    rec = build_modmul_const(7, 15, 4)
    cnt = build_modmul_const(7, 15, 4, counting=True)
    assert_tallies_equal(cnt, rec)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lookup_tally_matches_recording(data):
    """The counting lookup's closed form equals the recorded walk's tallies."""
    a = data.draw(st.integers(1, 8), label="address bits")
    m = data.draw(st.integers(1, 8), label="target bits")
    entries = data.draw(
        st.lists(st.integers(0, (1 << m) - 1),
                 min_size=1 << a, max_size=1 << a),
        label="entries",
    )
    kinds = []
    for counting in (True, False):
        bld = Builder(counting)
        addr = bld.alloc_register(a, "addr").qubits
        target = bld.alloc_register(m, "y").qubits
        ancs = bld.alloc_ancilla(a - 1, "lk").qubits if a > 1 else ()
        emit_lookup(bld, addr, target, entries, ancs)
        if counting:
            kinds.append(bld.finalize().kinds)
        else:
            kinds.append(Counter(kind for kind, _, _ in bld.finalize().gates))
    cnt, rec = kinds
    for kind in ("X", "CCX", "CNOT"):
        assert cnt.get(kind, 0) == rec[kind], kind


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, (1 << 69) - 1).map(lambda h: 2 * h + 1),
       c=st.integers(1, (1 << 70) - 1), k=st.integers(0, 12))
@example(N=15, c=1, k=12)
@example(N=(1 << 70) - 1, c=1, k=0)
def test_powers_by_doubling_equal_repeated_multiplication(N, c, k):
    c %= N
    while math.gcd(c, N) != 1:  # c = 0 goes to 1
        c += 1
    want = [1]
    for _ in range((1 << k) - 1):
        want.append(want[-1] * c % N)
    assert modexp._powers(c, N, 1 << k) == tuple(want)
