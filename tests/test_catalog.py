import cmath
import dataclasses
import gc
import itertools
import math
import random
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import adders, catalog, modexp, sim
from qarith import circuit as cir
from qarith.circuit import (
    CNOT,
    CPHASE,
    PERMUTATION_KINDS,
    H,
    X,
    Circuit,
    CircuitError,
)
from qarith.sim import (
    pack_bits,
    simulate_permutation_batch,
    simulate_statevector,
    unpack_bits,
)
from qarith.resources import LogicalCounts, lower, lower_to_clifford_t

from conftest import assert_tallies_equal


def test_every_listed_algorithm_builds_and_verifies():
    for op, algo, _ in catalog.catalog():
        n = 3 if op not in ("modexp", "modmul_const") else 2
        circuit = catalog.build(op, algo, n)
        assert isinstance(circuit, Circuit)
        report = catalog.verify(op, algo, n)
        assert report.ok, f"{op}/{algo}: {report.failure}"


def test_measure_returns_lowered_counts():
    counts = catalog.measure("inplace_adder", "TTK", 8)
    assert isinstance(counts, LogicalCounts)
    assert counts.t_count == 7 * counts.toffoli_count
    assert counts.qubits == 16


def test_unknown_op_class_rejected():
    with pytest.raises(CircuitError, match="unknown op class 'square_root'"):
        catalog.build("square_root", "Newton", 4)
    with pytest.raises(CircuitError, match="unknown lookup algorithm 'Linear'"):
        catalog.build("table_lookup", "Linear", 3)
    with pytest.raises(CircuitError, match="unknown modmul algorithm 'Montgomery'"):
        catalog.build("modmul_const", "Montgomery", 3)


def test_table_lookup_refuses_sizes_past_the_cap():
    # Refused before the 2^n-entry table is drawn: at n = 33 the draw would
    # take 32 GiB of random bytes.
    with pytest.raises(CircuitError, match=r"n must be <= 20"):
        catalog.build("table_lookup", "UnaryIteration", 21, counting=True)


def _lookup_table(n, seed):
    _, (table, _), _, _ = catalog._instance("table_lookup", "UnaryIteration", n, seed)
    return table


def test_table_lookup_draw_is_seeded_and_fits_n_bits():
    assert _lookup_table(8, 12345) == _lookup_table(8, 12345)
    assert _lookup_table(8, 12345) != _lookup_table(8, 7)
    for n in (1, 8, 20):
        entries = _lookup_table(n, catalog.DEFAULT_SEED)
        assert len(entries) == 1 << n
        assert all(type(v) is int and 0 <= v < 1 << n for v in entries)
    # The table has a stream of its own: it is not what check_oracle's
    # random.Random(seed) case sampler would draw.
    rng = random.Random(catalog.DEFAULT_SEED)
    assert _lookup_table(8, catalog.DEFAULT_SEED) != tuple(
        rng.randrange(256) for _ in range(256))


NUMPY_RANDOM_PROBE = """
import sys
from qarith import catalog, claims
catalog.verify_range("table_lookup", "UnaryIteration", 8)
catalog.build("table_lookup", "UnaryIteration", 12, counting=True)
assert claims._check_structure(catalog.DEFAULT_SEED).status == "pass"
catalog.verify_range("modexp", "LYY", 3)
print("numpy.random" in sys.modules)
"""


def test_verification_never_imports_numpy_random():
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, check=True)
    if bare.stdout.strip() == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    probe = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE],
                           capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "False"


@given(entry=st.sampled_from([row[:2] for row in catalog.catalog()]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_counting_build_matches_recorded_build(entry, data):
    op, algo = entry
    n_min = 2 if op in ("modexp", "modmul_const") else 1
    n = data.draw(st.integers(n_min, 6 if op in ("modexp", "table_lookup") else 8),
                  label="n")
    fields = ("qubits", "t_count", "toffoli_count", "cnot_count", "rotation_count")
    counted = lower(catalog.build(op, algo, n, counting=True))
    recorded = lower_to_clifford_t(catalog.build(op, algo, n))
    assert ({f: getattr(counted, f) for f in fields}
            == {f: getattr(recorded, f) for f in fields})


WIDE_OPS = ("inplace_adder", "outofplace_adder", "const_adder", "subtractor",
            "multiplier", "divider")


@pytest.mark.parametrize("n", [17, 32])
def test_counting_build_matches_recorded_build_wide(n):
    # Wide enough for multi-level DKRS trees and recursing Karatsuba.
    fields = ("qubits", "t_count", "toffoli_count", "cnot_count", "rotation_count")
    for op, algo, _ in catalog.catalog():
        if op not in WIDE_OPS:
            continue
        counted = lower(catalog.build(op, algo, n, counting=True))
        recorded = lower_to_clifford_t(catalog.build(op, algo, n))
        assert ({f: getattr(counted, f) for f in fields}
                == {f: getattr(recorded, f) for f in fields}), (op, algo, n)
    # Entries wider than the address: the counting lookup's closed-form load
    # count against the recorded walk.  The catalog's tables are n by n.
    rng = np.random.default_rng(n)
    table = tuple(int(v) for v in rng.integers(0, 1 << n, 32))
    assert_tallies_equal(modexp.build_table_lookup(table, n, counting=True),
                         modexp.build_table_lookup(table, n))


@pytest.mark.parametrize("op", ["modexp", "modmul_const"])
def test_counting_build_matches_recorded_build_modexp_n12(op):
    # n = 12 ends on partial windows (LYYWindowedOpt: w = 7, so 7 + 5;
    # LYYWindowed(11): 11 + 1), which the n <= 6 property test never builds.
    fields = ("qubits", "t_count", "toffoli_count", "cnot_count", "rotation_count")
    for entry_op, algo, _ in catalog.catalog():
        if entry_op != op:
            continue
        counted = lower(catalog.build(op, algo, 12, counting=True))
        recorded = lower_to_clifford_t(catalog.build(op, algo, 12))
        assert ({f: getattr(counted, f) for f in fields}
                == {f: getattr(recorded, f) for f in fields}), (op, algo)


def _pass_new_builders_to(keep, monkeypatch) -> None:
    """Hand every Builder made from now on to `keep`."""
    init = cir.Builder.__init__

    def init_and_keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        keep(self)

    monkeypatch.setattr(cir.Builder, "__init__", init_and_keep)


def test_counting_builds_construct_no_gate(monkeypatch):
    builders = []
    _pass_new_builders_to(builders.append, monkeypatch)
    cir.clear_block_cache()  # every cached block is emitted, not replayed
    for op, algo, _ in catalog.catalog():
        builders.clear()
        assert catalog.build(op, algo, 13, counting=True).kinds, (op, algo)
        assert builders and all(b.gates == [] for b in builders), (op, algo)


def test_a_recorded_build_frees_its_builder_without_the_cycle_collector(monkeypatch):
    # Reference counting alone frees every builder once build returns, so
    # no gate list waits for a collection.
    builders = []
    _pass_new_builders_to(lambda b: builders.append(weakref.ref(b)), monkeypatch)
    gc.disable()
    try:
        for op, algo, _ in catalog.catalog():
            builders.clear()
            assert catalog.build(op, algo, 4).gates, (op, algo)
            assert builders and all(b() is None for b in builders), (op, algo)
    finally:
        gc.enable()


@pytest.mark.parametrize("op, algo, n", [
    ("multiplier", "Karatsuba-8", 16), ("modexp", "LYYWindowedOpt", 8)])
def test_recorded_gates_leave_the_cycle_collector(op, algo, n):
    # A gate is a plain tuple of untracked values, so collections stop
    # tracking it and later ones do not rescan the gate list.  A collection
    # untracks a tuple only if its items are already untracked, and may
    # examine a young gate before its young operand tuple, so it takes two.
    c = catalog.build(op, algo, n)
    gc.collect()
    gc.collect()
    tracked = [g for g in c.gates if gc.is_tracked(g)]
    assert not tracked, tracked[:3]


@pytest.mark.parametrize("n", [8, 13])
def test_recorded_builds_keep_one_tuple_per_distinct_gate(n):
    # A recording builder appends the tuple it already keeps for an equal
    # permutation or H gate; RZ and CPHASE gates are kept as made.
    for op, algo, _ in catalog.catalog():
        gates = [g for g in catalog.build(op, algo, n).gates
                 if g[0] not in cir.ANGLE_KINDS]
        assert len({id(g) for g in gates}) == len(set(gates)), (op, algo)


@pytest.mark.parametrize("op, algo, n, gates, tuples", [
    ("modexp", "LYYWindowedOpt", 16, 94_961, 871),
    ("divider", "NonRestoring+TTK", 64, 63_026, 12_928)])
def test_recorded_gate_sharing_counts(op, algo, n, gates, tuples):
    c = catalog.build(op, algo, n)
    assert (len(c.gates), len({id(g) for g in c.gates})) == (gates, tuples)


class _MissingBlockCache(dict):
    """A block cache that misses every lookup and keeps, per key, each
    (kinds, allocation) that a miss stored under it."""

    def get(self, key, default=None):
        return None

    def __setitem__(self, key, value):
        delta, alloc = value
        self.setdefault(key, []).append((delta.kinds, alloc))


def test_equal_block_cache_keys_tally_equally(monkeypatch):
    # Every cached block is emitted, so every key is checked against each
    # emission it stands for: a key missing a field that changes the block's
    # tallies or allocation shows as two different stored deltas.
    audit = _MissingBlockCache()
    monkeypatch.setattr(cir, "_BLOCK_CACHE", audit)
    for n in (5, 8, 13):
        for op, algo, _ in catalog.catalog():
            catalog.build(op, algo, n, counting=True)
    # Two bases from one N and one from another, full and ragged windows:
    # the lookup keys differ by base, N and window width, the multiply-
    # accumulate key by N alone.
    (a, N), b = catalog.modexp_constants(8), 7
    for w in (1, 3, 5, 8):
        for base, mod in ((a, N), (b, N), (b, 251)):
            modexp.build_modexp(f"LYYWindowed({w})", base, mod, 8, counting=True)
    clashes = [key for key, deltas in audit.items()
               if any(d != deltas[0] for d in deltas)]
    assert clashes == []
    # Uniform loops go through Builder.repeat, so a key is kept only for a
    # block that recurs at separate call sites; a new key is a new claim
    # that this test must be edited to name.
    assert {key[0] for key in audit} == {"accadd", "ktree", "modadd", "mulacc", "lookup"}
    assert len(audit[("mulacc", 8, N)]) > 2 * len(audit[("lookup", b, N, 3, 8)])
    assert ("lookup", pow(b, 1 << 6, N), N, 2, 8) in audit  # w = 3, last window


def test_modexp_constants_coprime():
    for n in range(2, 12):
        a, N = catalog.modexp_constants(n)
        assert N == (1 << n) - 1
        assert 2 <= a < N
        import math

        assert math.gcd(a, N) == 1


def test_verify_random_sampling_for_large_spaces():
    report = catalog.verify("multiplier", "Karatsuba-8", 8)
    assert report.ok
    assert not report.exhaustive
    assert report.cases == catalog.RANDOM_SAMPLES


# One entry per family at a size `sweep` prices, far past the exhaustive
# limit: sampling draws from the range bounds, so no input space is made.
SWEEP_SCALE = [
    ("inplace_adder", "Gidney", 256), ("inplace_adder", "DKRS", 256),
    ("const_adder", "ViaInPlace(CDKM)", 256), ("subtractor", "TTK", 256),
    ("outofplace_adder", "Gidney", 256), ("outofplace_adder", "DKRS", 129),
    ("multiplier", "Schoolbook", 64),
    ("multiplier", "Karatsuba-8", 64), ("multiplier", "Karatsuba-8", 76),
    ("divider", "NonRestoring+Gidney", 64),
    ("modexp", "LYYWindowedOpt", 24), ("table_lookup", "UnaryIteration", 12),
    ("inplace_adder", "QFT", 64), ("subtractor", "QFT", 64),
    ("const_adder", "QFT", 64),
]


@pytest.mark.parametrize("op, algo, n", SWEEP_SCALE)
def test_sweep_scale_entries_verify_and_tally_as_recorded(op, algo, n):
    report = catalog.verify(op, algo, n)
    assert report.ok, report.failure
    assert (report.cases, report.exhaustive) == (catalog.RANDOM_SAMPLES, False)
    assert_tallies_equal(catalog.build(op, algo, n, counting=True),
                         catalog.build(op, algo, n))


def _mutant(op, algo, n, gates_for):
    """catalog.build(op, algo, n) with gates appended; gates_for maps the
    register dict {name: Register} to the tuple of gates."""
    c = catalog.build(op, algo, n)
    regs = {r.name: r for r in c.data_registers + c.ancilla_registers}
    return dataclasses.replace(c, gates=c.gates + gates_for(regs))


@pytest.mark.parametrize("op,algo,n,gates_for,failure", [
    # A relative phase leaves every basis label right.
    ("inplace_adder", "QFT", 3,
     lambda r: ((CPHASE, (r["a"][0], r["a"][1]), math.pi / 2),),
     "relative phase"),
    ("inplace_adder", "Gidney", 3,
     lambda r: ((X, (r["cg_carry"][0],), None),), "dirty ancillas"),
    ("inplace_adder", "Gidney", 3,
     lambda r: ((X, (r["b"][0],), None),), "register b"),
    ("inplace_adder", "QFT", 2,
     lambda r: ((H, (r["b"][0],), None),), "not a basis state"),
    # Two Fourier-basis qubits under one CPHASE: no product state follows.
    ("inplace_adder", "QFT", 3,
     lambda r: ((H, (r["b"][0],), None), (H, (r["b"][1],), None),
                (CPHASE, (r["b"][0], r["b"][1]), math.pi / 2)),
     "entangled: a gate met superposed operands"),
], ids=["phase", "dirty-ancilla", "wrong-output", "superposition", "entangled"])
def test_verify_rejects_mutants(monkeypatch, op, algo, n, gates_for, failure):
    mutant = _mutant(op, algo, n, gates_for)
    assert catalog.verify(op, algo, n).ok
    monkeypatch.setattr(adders, "build_inplace_adder", lambda *args: mutant)
    report = catalog.verify(op, algo, n)
    assert not report.ok
    assert report.failure.startswith(failure), report.failure


@pytest.mark.parametrize("op", ["inplace_adder", "subtractor"])
@pytest.mark.parametrize("mutate", [
    lambda g: (g[0], g[1], g[2] * 1.001),  # one angle off by 0.1%
    lambda g: None,                         # one rotation dropped
], ids=["scaled", "dropped"])
def test_sweep_scale_qft_mutants_fail(op, mutate):
    # The phase layer's first CPHASE, a[0] on b[0] at angle pi, mutated at a
    # size only the product-state simulator reaches.  Where a[0] = 1, a qubit
    # of b leaves its inverse-QFT H off a basis state and then controls a
    # CPHASE on a superposed one.
    builder, args, inputs, oracle = catalog._instance(op, "QFT", 64,
                                                      catalog.DEFAULT_SEED)
    c = builder(*args)
    i = next(i for i, (kind, _, angle) in enumerate(c.gates)
             if kind == CPHASE and angle == math.pi)
    gates = c.gates[:i] + tuple(filter(None, [mutate(c.gates[i])])) + c.gates[i + 1:]
    check = catalog.check_oracle(dataclasses.replace(c, gates=gates), inputs, oracle)
    assert (check.cases, check.exhaustive) == (catalog.RANDOM_SAMPLES, False)
    assert check.failure.startswith("entangled: a gate met superposed operands")


def _encode(value, reg):
    """Basis-state bits of `value` on register `reg`, bit by bit: the
    reference's own codec, independent of check_oracle's bit matrices."""
    return sum(((value >> j) & 1) << q for j, q in enumerate(reg))


def _decode(state, reg):
    """Little-endian value of register `reg` in basis state `state`."""
    return sum(((state >> q) & 1) << j for j, q in enumerate(reg))


def _reference_failure(circuit, inputs, oracle):
    """First failure of a plain per-case loop over the exhaustive cases, in
    check_oracle's order: basis, ancillas, registers, phase."""
    names = list(inputs)
    regs = {r.name: r for r in circuit.data_registers}
    anc_mask = sum(1 << q for q in circuit.ancilla_qubits)
    n = circuit.num_qubits
    unitary = any(kind not in PERMUTATION_KINDS for kind, _, _ in circuit.gates)
    first_phase = None
    for combo in itertools.product(*(inputs[name] for name in names)):
        vals = dict(zip(names, combo))
        state = sum(_encode(v, regs[name]) for name, v in vals.items())
        if unitary:
            v = simulate_statevector(circuit, unpack_bits([state], n))[:, 0]
            out = int(np.argmax(np.abs(v)))
            if abs(v[out]) ** 2 < 1 - 1e-9:
                return f"not a basis state for input {vals}"
            phase = v[out] / abs(v[out])
            first_phase = phase if first_phase is None else first_phase
        else:
            out = int(pack_bits(simulate_permutation_batch(
                circuit, unpack_bits([state], n)))[0])
        if out & anc_mask:
            return f"dirty ancillas for input {vals}"
        expected = oracle(**vals)
        for rname, reg in regs.items():
            want = expected.get(rname, vals.get(rname, 0))
            got = _decode(out, reg)
            if got != want:
                return f"register {rname} = {got}, want {want} for input {vals}"
        if unitary and abs(phase - first_phase) > catalog.PHASE_TOL:
            rad = cmath.phase(phase / first_phase)
            return f"relative phase {rad:.6g} rad for input {vals}"
    return None


@pytest.mark.parametrize("op,algo,n,gates_for,failure", [
    ("inplace_adder", "Gidney", 3,
     lambda r: ((CNOT, (r["a"][1], r["cg_carry"][0]), None),), "dirty ancillas"),
    ("inplace_adder", "Gidney", 3,
     lambda r: ((CNOT, (r["a"][2], r["b"][0]), None),), "register b"),
    ("inplace_adder", "QFT", 3,
     lambda r: ((CPHASE, (r["a"][0], r["a"][1]), math.pi / 2),),
     "relative phase"),
    # H Z^(a0/2) H: the identity when a0 = 0, a superposition when a0 = 1.
    ("inplace_adder", "QFT", 2,
     lambda r: ((H, (r["b"][0],), None),
                (CPHASE, (r["a"][0], r["b"][0]), math.pi / 2),
                (H, (r["b"][0],), None)), "not a basis state"),
], ids=["dirty-ancilla", "wrong-output", "phase", "superposition"])
def test_first_failure_matches_per_case_reference(op, algo, n, gates_for, failure):
    mutant = _mutant(op, algo, n, gates_for)
    _, _, inputs, oracle = catalog._instance(op, algo, n, catalog.DEFAULT_SEED)
    check = catalog.check_oracle(mutant, inputs, oracle)
    assert check.failure == _reference_failure(mutant, inputs, oracle)
    assert check.failure.startswith(failure), check.failure
    assert not check.failure.endswith("{'a': 0, 'b': 0}")  # not the first case


def test_check_oracle_refuses_values_that_do_not_fit():
    c = catalog.build("inplace_adder", "TTK", 4)
    with pytest.raises(CircuitError, match="value 16 does not fit register of 4"):
        catalog.check_oracle(c, {"a": range(17), "b": range(16)},
                             lambda a, b: {"b": (a + b) % 16})


def _identity_on(name, size):
    bld = cir.Builder()
    bld.alloc_register(size, name)
    return bld.finalize()


def test_check_oracle_refuses_an_input_that_is_not_a_register():
    with pytest.raises(CircuitError, match=r"^unknown register 'zz'$"):
        catalog.check_oracle(_identity_on("a", 3), {"a": range(8), "zz": [0]},
                             lambda a, zz: {})


def test_check_oracle_refuses_an_oracle_result_for_a_missing_register():
    # Read as unchecked, {"zz": a} would let the identity pass any claim.
    with pytest.raises(CircuitError, match=r"^unknown register 'zz'$"):
        catalog.check_oracle(_identity_on("a", 3), {"a": range(8)},
                             lambda a: {"zz": a})


@pytest.mark.parametrize("empty", [range(0), range(8, 0), range(0, 8, -1), []])
def test_check_oracle_refuses_an_empty_value_space(empty):
    # Zero cases would pass any oracle, this wrong one included.
    c = catalog.build("inplace_adder", "TTK", 3)
    with pytest.raises(CircuitError, match="register a has no values to try"):
        catalog.check_oracle(c, {"a": empty, "b": range(8)}, lambda a, b: {"b": 0})


def test_sampled_cases_come_from_the_given_spaces():
    # 1,366 stepped values times 3 is past the exhaustive limit.
    c = catalog.build("inplace_adder", "TTK", 12)
    spaces = {"a": range(4095, -1, -3), "b": [3, 1000, 4095]}
    seen = {}

    def oracle(a, b):
        seen.update(a=a.tolist(), b=b.tolist())
        return {"b": (a + b) % 4096}

    check = catalog.check_oracle(c, spaces, oracle, seed=5)
    assert (check.failure, check.cases, check.exhaustive) == (None, 1000, False)
    assert all(a in spaces["a"] for a in seen["a"])
    assert all(b in spaces["b"] for b in seen["b"])
    assert len(set(seen["b"])) == 3 and len(set(seen["a"])) > 500
    # Sizes come from the bounds, also where len() would overflow.
    for r in (spaces["a"], range(1, 10, 4), range(8, 0), range(0, 8, -1)):
        assert catalog._space_size(r) == len(r), r
    assert catalog._space_size(range(3, 1 << 100, 7)) == ((1 << 100) - 3 + 6) // 7


@pytest.mark.parametrize("op, algo, n, exhaustive", [
    ("multiplier", "Schoolbook", 3, True),  # 64 cases; prod is a one-value space
    ("inplace_adder", "TTK", 12, False),
])
def test_check_oracle_calls_its_oracle_once_on_columns(op, algo, n, exhaustive):
    builder, args, inputs, oracle = catalog._instance(op, algo, n, catalog.DEFAULT_SEED)
    calls = []

    def recorded(**columns):
        calls.append(columns)
        return oracle(**columns)

    check = catalog.check_oracle(builder(*args), inputs, recorded)
    assert (check.failure, check.exhaustive) == (None, exhaustive)
    assert len(calls) == 1 and list(calls[0]) == list(inputs)
    for column in calls[0].values():
        assert column.dtype == object and column.shape == (check.cases,)
        assert all(type(v) is int for v in column)


def test_sampled_failure_past_63_qubits_names_plain_ints():
    # At 80 qubits the states are Python ints in object arrays; the input a
    # failure names must print as plain ints and reproduce on its own.
    n = 40
    mutant = _mutant("inplace_adder", "TTK", n,
                     lambda r: ((CNOT, (r["a"][n - 1], r["b"][0]), None),))
    assert mutant.num_qubits > 63
    _, _, inputs, oracle = catalog._instance("inplace_adder", "TTK", n,
                                             catalog.DEFAULT_SEED)
    check = catalog.check_oracle(mutant, inputs, oracle)
    assert (check.cases, check.exhaustive) == (catalog.RANDOM_SAMPLES, False)
    m = re.fullmatch(r"register b = (\d+), want (\d+) for input "
                     r"\{'a': (\d+), 'b': (\d+)\}", check.failure)
    assert m, check.failure
    got, want, a, b = map(int, m.groups())
    regs = {r.name: r for r in mutant.data_registers}
    state = _encode(a, regs["a"]) | _encode(b, regs["b"])
    out = pack_bits(simulate_permutation_batch(
        mutant, unpack_bits([state], mutant.num_qubits)))[0]
    assert want == (a + b) % (1 << n) != got == _decode(out, regs["b"])


def test_failure_on_a_64_qubit_register_names_values_past_2_63():
    # A register exactly 64 qubits wide is read as one unsigned 64-bit word:
    # its values past 2^63 must print exactly, with no sign and no rounding.
    n = 64
    mutant = _mutant("inplace_adder", "TTK", n, lambda r: ((X, (r["b"][n - 1],), None),))
    _, _, inputs, oracle = catalog._instance("inplace_adder", "TTK", n,
                                             catalog.DEFAULT_SEED)
    check = catalog.check_oracle(mutant, inputs, oracle)
    assert check.failure == (
        "register b = 1620059966316167881, want 10843432003170943689 for input "
        "{'a': 13515657874892102023, 'b': 15774518201988393282}")


def test_verification_takes_one_step_per_gate_per_batch(monkeypatch):
    calls = {"perm": [], "product": 0}
    apply_perm = sim._apply_perm

    def kernel(gates, planes, ones):
        calls["perm"].append(gates)
        return apply_perm(gates, planes, ones)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sim, "_apply_perm", kernel)
    monkeypatch.setattr(sim, "_apply_product", counted("product", sim._apply_product))
    report = catalog.verify("multiplier", "Karatsuba-8", 6)
    assert report.ok and report.cases == 4096
    # One kernel call for the whole batch, over the circuit's whole gate list.
    assert calls["perm"] == [catalog.build("multiplier", "Karatsuba-8", 6).gates]

    report = catalog.verify("inplace_adder", "QFT", 5)
    assert report.ok and report.cases == 1024
    assert calls["product"] == len(catalog.build("inplace_adder", "QFT", 5).gates)
