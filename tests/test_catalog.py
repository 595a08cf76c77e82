import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith import catalog
from qarith import circuit as cir
from qarith.circuit import CPHASE, H, X, Circuit, CircuitError, Gate
from qarith.resources import LogicalCounts, lower, lower_to_clifford_t


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
    with pytest.raises(CircuitError):
        catalog.build("square_root", "Newton", 4)
    with pytest.raises(CircuitError):
        catalog.build("table_lookup", "Linear", 3)


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


def test_counting_builds_construct_no_gate(monkeypatch):
    def no_gate(*args, **kwargs):
        raise AssertionError(f"counting build constructed Gate{args}")

    cir.clear_block_cache()  # every cached block is emitted, not replayed
    monkeypatch.setattr(cir, "Gate", no_gate)
    for op, algo, _ in catalog.catalog():
        assert catalog.build(op, algo, 13, counting=True).kinds, (op, algo)


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


def _mutant(op, algo, n, gate_for):
    """catalog.build(op, algo, n) with one gate appended; gate_for maps the
    register dict {name: Register} to that gate."""
    c = catalog.build(op, algo, n)
    regs = {r.name: r for r in c.data_registers + c.ancilla_registers}
    return dataclasses.replace(c, gates=c.gates + (gate_for(regs),))


@pytest.mark.parametrize("op,algo,n,gate_for,failure", [
    # A relative phase leaves every basis label right.
    ("inplace_adder", "QFT", 3,
     lambda r: Gate(CPHASE, (r["a"][0], r["a"][1]), math.pi / 2),
     "relative phase"),
    ("inplace_adder", "Gidney", 3,
     lambda r: Gate(X, (r["cg_carry"][0],)), "dirty ancillas"),
    ("inplace_adder", "Gidney", 3,
     lambda r: Gate(X, (r["b"][0],)), "register b"),
    ("inplace_adder", "QFT", 2,
     lambda r: Gate(H, (r["b"][0],)), "not a basis state"),
], ids=["phase", "dirty-ancilla", "wrong-output", "superposition"])
def test_verify_rejects_mutants(monkeypatch, op, algo, n, gate_for, failure):
    mutant = _mutant(op, algo, n, gate_for)
    assert catalog.verify(op, algo, n).ok
    monkeypatch.setattr(catalog, "build", lambda *args, **kwargs: mutant)
    report = catalog.verify(op, algo, n)
    assert not report.ok
    assert report.failure.startswith(failure), report.failure
