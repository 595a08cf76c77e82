import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

from qarith import circuit as cir
from qarith.circuit import Builder, CircuitError, adjoint, circuit_to_text
from qarith.sim import simulate_permutation_batch, unpack_bits


def test_new_builder_empty():
    bld = Builder()
    c = bld.finalize()
    assert c.num_qubits == 0
    assert c.gates == ()


def test_alloc_identity_circuit():
    bld = Builder()
    bld.alloc_register(3)
    c = bld.finalize()
    assert c.num_qubits == 3
    assert len(c.gates) == 0


def test_alloc_disjoint_registers():
    bld = Builder()
    r1 = bld.alloc_register(4)
    r2 = bld.alloc_register(4)
    assert r1.qubits == (0, 1, 2, 3)
    assert r2.qubits == (4, 5, 6, 7)
    assert bld.num_qubits == 8
    assert not set(r1.qubits) & set(r2.qubits)


def test_alloc_zero_rejected():
    bld = Builder()
    with pytest.raises(CircuitError):
        bld.alloc_register(0)
    with pytest.raises(CircuitError):
        bld.alloc_ancilla(0)


def test_alloc_ancilla_ledger():
    bld = Builder()
    bld.alloc_register(6)
    anc = bld.alloc_ancilla(3)
    assert anc.qubits == (6, 7, 8)
    c = bld.finalize()
    assert c.ancilla_registers[0].qubits == (6, 7, 8)
    assert c.ancilla_qubits == (6, 7, 8)


def test_append_and_errors():
    bld = Builder()
    bld.alloc_register(1)
    bld.x(0)
    assert bld.gates == [("X", (0,), None)]
    with pytest.raises(CircuitError):
        bld.cnot(0, 0)
    bld2 = Builder()
    bld2.alloc_register(3)
    with pytest.raises(CircuitError):
        bld2.ccx(0, 1, 5)


def _reference_validate(g, num_qubits):
    """Gate validation one check at a time, in the order it reports faults."""
    kind, qubits, angle = g
    if kind not in cir.ALL_KINDS:
        raise CircuitError(f"unknown gate kind {kind!r}")
    if len(set(qubits)) != len(qubits):
        raise CircuitError(f"duplicate operand in {kind}{qubits}")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise CircuitError(f"operand {q} out of range for {num_qubits} qubits")
    if kind in cir.ANGLE_KINDS and (angle is None or not math.isfinite(angle)):
        raise CircuitError(f"{kind} needs a finite angle")
    if kind not in cir.ANGLE_KINDS and angle is not None:
        raise CircuitError(f"{kind} takes no angle")
    if len(qubits) != cir._ARITY[kind]:
        raise CircuitError(f"{kind} takes {cir._ARITY[kind]} operands")


def _error(check, *args):
    try:
        check(*args)
    except CircuitError as e:
        return str(e)
    return None


def test_gate_validation_reports_the_reference_fault():
    # Every kind and operand tuple of up to four qubit ids in -1..3 on a
    # three-qubit circuit, checked directly and as the gate of a Circuit.
    for kind in sorted(cir.ALL_KINDS) + ["BOGUS"]:
        for n in range(5):
            for qubits in itertools.product(range(-1, 4), repeat=n):
                for angle in (None, 0.5, math.nan, math.inf):
                    g = (kind, qubits, angle)
                    want = _error(_reference_validate, g, 3)
                    assert _error(cir._validate_gate, g, 3) == want, g
                    assert _error(cir.Circuit, 3, (g,)) == (
                        want and want + " at gate 0"), g


@pytest.mark.parametrize("gate, counting", [
    pytest.param(g, counting, id=g[0] + ("-counting" if counting else ""))
    for counting in (False, True)
    for g in (("MCX", (0, 1, 2, 3), None), ("S", (0,), None), ("SDG", (0,), None))])
def test_kinds_outside_the_alphabet_are_unknown(gate, counting):
    # No construction emits a multi-controlled X, S or S-dagger; a counting
    # builder's bulk tally refuses them as a Circuit does.
    bld = Builder(counting)
    bld.alloc_register(4)
    if counting:
        kind, _, _ = gate
        with pytest.raises(CircuitError, match=f"unknown gate kind '{kind}'"):
            bld.bulk(kind, 3)
        assert bld.finalize().kinds == {}
    with pytest.raises(CircuitError, match="unknown gate kind .* at gate 0"):
        cir.Circuit(num_qubits=4, gates=(gate,))


@pytest.mark.parametrize("counting", [False, True])
def test_mcx_refuses_three_or_more_controls(counting):
    bld = Builder(counting)
    bld.alloc_register(5)
    bld.mcx((), 0)
    bld.mcx((0,), 1)
    bld.mcx((0, 1), 2)
    for controls in ((0, 1, 2), (0, 1, 2, 3)):
        with pytest.raises(CircuitError, match="at most 2 controls"):
            bld.mcx(controls, 4)
    out = bld.finalize()
    kinds = out.kinds if counting else collections.Counter(kind for kind, _, _ in out.gates)
    assert kinds == {"X": 1, "CNOT": 1, "CCX": 1}


def test_stray_angle_is_refused():
    # circuit_to_text prints no angle for an X, so an X with one would print
    # like a plain X and still compare unequal to it.
    with pytest.raises(CircuitError, match="X takes no angle at gate 0"):
        cir.Circuit(num_qubits=2, gates=(("X", (0,), 0.5),))
    with pytest.raises(CircuitError, match="CNOT takes no angle at gate 1"):
        cir.Circuit(num_qubits=2, gates=(("X", (0,), None), ("CNOT", (0, 1), 0.0)))


def test_a_gate_that_is_not_a_triple_is_refused():
    refusal = r"at gate 1 is not a \(kind, qubits, angle\) triple"
    for bad in (("X", (0,)), ("X", (0,), None, None), ["X", (0,), None], "X"):
        with pytest.raises(CircuitError, match=refusal):
            cir.Circuit(num_qubits=2, gates=(("X", (1,), None), bad))


@pytest.mark.parametrize("qubits", [
    [0], 0, (0.5,), (True,), (np.int64(0),), (0, 1.0), "01", None,
], ids=repr)
def test_operands_must_be_a_tuple_of_ints(qubits):
    # A list would make the Circuit unhashable, and a float or a bool would
    # pass the range check; both are refused before any other check.
    kind = "CNOT" if qubits in ((0, 1.0), "01") else "X"
    with pytest.raises(CircuitError, match="at gate 1 needs a tuple of int qubits"):
        cir.Circuit(num_qubits=2, gates=(("X", (1,), None), (kind, qubits, None)))


def test_gate_is_a_plain_triple():
    bld = Builder()
    bld.alloc_register(3)
    bld.x(0)
    bld.cnot(0, 1)
    bld.ccx(0, 1, 2)
    bld.swap(0, 2)
    bld.h(1)
    bld.rz(2, 0.5)
    bld.cphase(0, 1, 0.25)
    c = bld.finalize()
    assert all(type(g) is tuple and type(g[1]) is tuple for g in c.gates)
    assert c.gates[:3] == (
        ("X", (0,), None), ("CNOT", (0, 1), None), ("CCX", (0, 1, 2), None))
    # Daggering negates an angle, swaps T and T-dagger and keeps every other
    # gate as it is.
    adj = adjoint(c).gates
    assert adj[:2] == (("CPHASE", (0, 1), -0.25), ("RZ", (2,), -0.5))
    assert all(a is g for a, g in zip(adj[2:], reversed(c.gates[:5])))
    t = cir.Circuit(num_qubits=1, gates=(("T", (0,), None), ("TDG", (0,), None)))
    assert adjoint(t).gates == t.gates


def test_adjoint_reverses_and_flips():
    bld = Builder()
    bld.alloc_register(2)
    bld.x(0)
    bld.cnot(0, 1)
    c = bld.finalize()
    adj = adjoint(c)
    assert [kind for kind, _, _ in adj.gates] == ["CNOT", "X"]
    assert adjoint(adj).gates == c.gates


def test_adjoint_angle_and_dagger_gates():
    c = cir.Circuit(num_qubits=2, gates=(
        ("TDG", (0,), None), ("T", (1,), None), ("RZ", (0,), 0.5),
        ("CPHASE", (0, 1), 0.25)))
    kinds = [kind for kind, _, _ in adjoint(c).gates]
    assert kinds == ["CPHASE", "RZ", "TDG", "T"]
    assert adjoint(c).gates[0] == ("CPHASE", (0, 1), -0.25)
    assert adjoint(c).gates[1] == ("RZ", (0,), -0.5)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_adjoint_composition_identity(n, rng=np.random.default_rng(7)):
    bld = Builder()
    bld.alloc_register(n)
    emit = {"X": bld.x, "CNOT": bld.cnot, "CCX": bld.ccx, "SWAP": bld.swap}
    for _ in range(30):
        kind = rng.choice(["X", "CNOT", "CCX", "SWAP"])
        qs = rng.choice(n, size=min(n, {"X": 1, "CNOT": 2, "CCX": 3, "SWAP": 2}[kind]), replace=False)
        if len(qs) < {"X": 1, "CNOT": 2, "CCX": 3, "SWAP": 2}[kind]:
            continue
        emit[kind](*(int(q) for q in qs))
    c = bld.finalize()
    combined = cir.Circuit(
        num_qubits=n, gates=c.gates + adjoint(c).gates
    )
    every = unpack_bits(range(1 << n), n)
    assert np.array_equal(simulate_permutation_batch(combined, every), every)


def test_circuit_dump_format():
    bld = Builder()
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


def test_circuit_rejects_overlapping_registers():
    with pytest.raises(CircuitError):
        cir.Circuit(
            num_qubits=3,
            gates=(),
            data_registers=(cir.Register((0, 1)), cir.Register((1, 2))),
        )
    with pytest.raises(CircuitError):
        cir.Circuit(num_qubits=2, gates=(("CNOT", (0, 5), None),))


def test_recorded_gates_are_validated_once(monkeypatch):
    # A recording builder checks each gate as it keeps it, so finalize
    # validates no gate again; a Circuit built any other way validates
    # every gate.
    calls = []
    validate = cir._validate_gate
    monkeypatch.setattr(
        cir, "_validate_gate", lambda *args: calls.append(args) or validate(*args)
    )
    bld = Builder()
    bld.alloc_register(3)
    bld.adjoint(lambda: (bld.rz(0, 0.5), bld.ccx(0, 1, 2)))
    bld.within(lambda: bld.cnot(0, 1), lambda _: bld.h(2))
    built = len(calls)
    c = bld.finalize()
    assert len(calls) == built and len(c.gates) == 5
    assert dataclasses.replace(c, name="copy").gates == c.gates
    assert len(calls) == built + 5
    with pytest.raises(CircuitError):
        dataclasses.replace(c, gates=c.gates + (("CNOT", (1, 1), None),))


# (method, kind, operand count) of every gate method; mcx once per kind.
_GATE_METHODS = (
    ("x", "X", 1), ("cnot", "CNOT", 2), ("ccx", "CCX", 3),
    ("mcx", "X", 1), ("mcx", "CNOT", 2), ("mcx", "CCX", 3),
    ("swap", "SWAP", 2), ("h", "H", 1), ("rz", "RZ", 1), ("cphase", "CPHASE", 2),
)


def _call_gate(bld, method, qubits, angle):
    if method == "mcx":
        return bld.mcx(qubits[:-1], qubits[-1])
    return getattr(bld, method)(*qubits, *(() if angle is None else (angle,)))


def test_gate_methods_refuse_exactly_as_validate_gate():
    # x, cnot and ccx check their operands inline: every call on a
    # three-qubit recording builder, with each operand over -1..3 or a
    # non-int that passes the range check (a float, a bool, a numpy int),
    # either keeps exactly its gate or raises exactly _validate_gate's
    # message for it.  It does so on an empty builder and on one that
    # already keeps the all-int gate equal to it: True == 1, 1.0 == 1 and
    # np.int64(1) == 1 hash alike, so a shared gate looked up before the
    # checks would be kept in place of the refusal.
    operands = (*range(-1, 4), 1.0, 1.5, True, np.int64(1))
    for method, kind, arity in _GATE_METHODS:
        angles = (0.5, math.nan, math.inf) if kind in cir.ANGLE_KINDS else (None,)
        for qubits in itertools.product(operands, repeat=arity):
            ints = tuple(map(int, qubits))
            for angle in angles:
                g = (kind, qubits, angle)
                held = (kind, ints, angle)
                want = _error(cir._validate_gate, g, 3)
                priors = [[]]
                if ints == qubits and _error(cir._validate_gate, held, 3) is None:
                    priors.append([held])
                for prior in priors:
                    bld = Builder()
                    bld.alloc_register(3)
                    if prior:
                        _call_gate(bld, method, ints, angle)
                    assert _error(_call_gate, bld, method, qubits, angle) == want, (
                        method, g, prior)
                    assert bld.gates == prior + ([] if want else [g]), (method, g, prior)
    # A finalized builder refuses every gate, every bulk tally and every
    # cached block, a cache hit included, so finalizing again changes nothing.
    cir.clear_block_cache()
    for counting in (False, True):
        bld = Builder(counting)
        bld.alloc_register(3)

        def block():
            bld.ccx(0, 1, 2)

        bld.cached(("after finalize",), block)
        first = bld.finalize()
        for method, kind, arity in _GATE_METHODS:
            angle = 0.5 if kind in cir.ANGLE_KINDS else None
            assert _error(_call_gate, bld, method, tuple(range(arity)), angle) == (
                "builder already finalized"), (method, counting)
        assert _error(bld.bulk, "CNOT", 1) == "builder already finalized", counting
        assert _error(bld.cached, ("after finalize",), block) == (
            "builder already finalized"), counting
        assert bld.finalize() == first, counting


def test_recorded_angles_keep_their_sign():
    # 0.0 == -0.0 and both hash alike, so a shared RZ or CPHASE would print
    # a negated zero angle (a deep QFT rotation's adjoint) as angle=0.0.
    bld = Builder()
    bld.alloc_register(2)
    bld.rz(0, 0.0)
    bld.rz(0, -0.0)
    bld.cphase(0, 1, 0.0)
    bld.cphase(0, 1, -0.0)
    c = bld.finalize()
    assert len(c.gates) == 4
    assert circuit_to_text(c) == (
        "qubits=2\nRZ 0;angle=0.0\nRZ 0;angle=-0.0\n"
        "CPHASE 0,1;angle=0.0\nCPHASE 0,1;angle=-0.0\n")


def test_counting_builder_matches_recording():
    def emit(bld):
        a = bld.alloc_register(3)
        b = bld.alloc_ancilla(2)
        bld.ccx(a[0], a[1], b[0])
        bld.cnot(a[0], b[1])
        bld.mcx((a[2], b[0]), b[1])
        bld.swap(a[1], a[2])
        bld.h(b[0])
        bld.cphase(a[2], b[1], -0.2)
        bld.rz(a[0], 0.3)

    rec = Builder()
    emit(rec)
    c = rec.finalize()
    cnt = Builder(counting=True)
    emit(cnt)
    s = cnt.finalize()
    assert s.num_qubits == c.num_qubits == 5
    assert s.kinds == {"CCX": 2, "CNOT": 1, "SWAP": 1, "H": 1, "CPHASE": 1, "RZ": 1}
    assert s.kinds == collections.Counter(kind for kind, _, _ in c.gates)


def test_cached_blocks_replay_allocations():
    cir.clear_block_cache()

    def block(bld):
        anc = bld.alloc_ancilla(2)
        bld.ccx(anc[0], anc[1], reg[0])

    bld = Builder(counting=True)
    reg = bld.alloc_register(1)
    bld.cached(("blk", 1), lambda: block(bld))
    bld.cached(("blk", 1), lambda: block(bld))
    s = bld.finalize()
    assert s.kinds["CCX"] == 2
    assert s.num_qubits == 1 + 2 + 2


def test_builder_adjoint_daggers_in_reverse_order():
    bld = Builder()
    bld.alloc_register(2)
    bld.x(1)
    result = bld.adjoint(
        lambda: (bld.rz(1, 0.25), bld.cphase(0, 1, -0.75), bld.rz(0, 0.5), "r")[-1])
    assert result == "r"
    c = bld.finalize()
    assert c.gates == (
        ("X", (1,), None), ("RZ", (0,), -0.5), ("CPHASE", (0, 1), 0.75),
        ("RZ", (1,), -0.25),
    )


def test_builder_adjoint_counts_forward():
    bld = Builder(counting=True)
    bld.alloc_register(1)
    bld.adjoint(lambda: (bld.rz(0, 0.5), bld.h(0)))
    assert bld.finalize().kinds == {"RZ": 1, "H": 1}


def _within_blocks(bld, calls):
    reg = bld.alloc_register(2)

    def compute():
        calls.append("compute")
        anc = bld.alloc_ancilla(2)
        bld.ccx(reg[0], reg[1], anc[0])
        bld.rz(anc[0], 0.5)
        bld.swap(anc[0], anc[1])
        return anc[1]

    def apply(flag):
        calls.append("apply")
        bld.cnot(flag, reg[1])

    bld.within(compute, apply)


def test_within_recording_appends_reversed_dagger_of_compute():
    calls: list = []
    bld = Builder()
    _within_blocks(bld, calls)
    c = bld.finalize()
    compute = (("CCX", (0, 1, 2), None), ("RZ", (2,), 0.5), ("SWAP", (2, 3), None))
    apply = (("CNOT", (3, 1), None),)
    assert c.gates == compute + apply + (("SWAP", (2, 3), None), ("RZ", (2,), -0.5),
                                         ("CCX", (0, 1, 2), None))
    assert calls == ["compute", "apply"]
    assert c.num_qubits == 4  # nothing allocated a second time


def test_within_counting_tallies_compute_twice_without_rerunning_it():
    calls: list = []
    bld = Builder(counting=True)
    _within_blocks(bld, calls)
    s = bld.finalize()
    assert calls == ["compute", "apply"]
    assert s.kinds == {"CCX": 2, "RZ": 2, "SWAP": 2, "CNOT": 1}
    assert s.num_qubits == 4


@pytest.mark.parametrize("counting", [False, True])
def test_a_raising_block_keeps_the_tallies_emitted_before_it(counting):
    cir.clear_block_cache()

    def boom(bld):
        bld.ccx(0, 1, 2)
        raise RuntimeError("refused")

    for block in (lambda b: b.cached(("raising",), lambda: boom(b)),
                  lambda b: b.within(lambda: boom(b), lambda _: None)):
        bld = Builder(counting=counting)
        bld.alloc_register(3)
        bld.cnot(0, 1)
        with pytest.raises(RuntimeError, match="refused"):
            block(bld)
        bld.x(2)
        out = bld.finalize()
        kinds = out.kinds if counting else collections.Counter(k for k, _, _ in out.gates)
        assert kinds == {"CNOT": 1, "CCX": 1, "X": 1}


@pytest.mark.parametrize("indices", [range(5), range(4, -1, -1), range(1, 6, 2), (3, 0, 2)],
                         ids=repr)
def test_repeat_records_every_iteration_in_index_order(indices):
    bld = Builder()
    bld.alloc_register(7)
    bld.repeat(indices, lambda i: bld.cnot(i, i + 1))
    assert bld.finalize().gates == tuple(("CNOT", (i, i + 1), None) for i in indices)


@pytest.mark.parametrize("length", [0, 1, 2, 5])
def test_repeat_counts_what_it_records(length):
    # The body mixes kinds and reads its index, as the adders' loops do.
    def emit(bld):
        bld.alloc_register(7)
        bld.x(6)

        def body(i):
            bld.ccx(i, i + 1, 6)
            bld.swap(i, i + 1)
            bld.rz(i, 0.5 * i)

        bld.repeat(range(length - 1, -1, -1), body)
        bld.h(0)
        return bld.finalize()

    rec, cnt = emit(Builder()), emit(Builder(counting=True))
    assert cnt.kinds == collections.Counter(kind for kind, _, _ in rec.gates)
    assert cnt.num_qubits == rec.num_qubits == 7
    assert len(rec.gates) == 2 + 3 * length


def test_counting_repeat_refuses_a_nonuniform_or_allocating_body():
    def boundary(i):  # an iteration split out of the loop belongs outside it
        bld.cnot(i, i + 1)
        if i > 0:
            bld.x(i)

    def allocates(i):
        bld.ccx(i, i + 1, bld.alloc_ancilla(1)[0])

    for body, refusal in ((boundary, "first and last iterations differ"),
                          (allocates, "must not allocate")):
        for length in (1, 2, 4) if body is allocates else (2, 4):
            bld = Builder(counting=True)
            bld.alloc_register(5)
            with pytest.raises(CircuitError, match=refusal):
                bld.repeat(range(length), body)


@pytest.mark.parametrize("counting", [False, True])
def test_repeat_after_finalize_is_refused(counting):
    calls = []
    bld = Builder(counting)
    bld.alloc_register(2)
    bld.repeat(range(2), calls.append)
    first = bld.finalize()
    for indices in (range(2), range(0)):
        with pytest.raises(CircuitError, match="builder already finalized"):
            bld.repeat(indices, calls.append)
    assert calls == [0, 1]
    assert bld.finalize() == first
