import json
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qarith.adders import (
    CONST_ADDERS,
    IN_PLACE_ADDERS,
    OUT_OF_PLACE_ADDERS,
    RIPPLE_CARRY_ADDERS,
    build_const_adder,
    build_inplace_adder,
    build_outofplace_adder,
    build_subtractor,
    cla_bp_count,
    emit_accumulate_add,
    inplace_adder,
    spec_constant,
)
from qarith.catalog import check_oracle
from qarith.circuit import Builder, CircuitError, clear_block_cache
from qarith.muldiv import build_divider, build_multiplier
from qarith.resources import lower_to_clifford_t

from conftest import assert_tallies_equal

GOLDEN = pathlib.Path(__file__).parent / "golden_widths.json"

NON_QFT_INPLACE = tuple(a for a in IN_PLACE_ADDERS if a != "QFT")


@pytest.mark.parametrize("algo", NON_QFT_INPLACE)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inplace_adder_exhaustive(algo, n, oracle_runner):
    c = build_inplace_adder(algo, n)
    oracle_runner(
        c,
        {"a": range(1 << n), "b": range(1 << n)},
        lambda a, b: {"b": (a + b) % (1 << n)},
    )


def test_ttk_spec_example(oracle_runner):
    c = build_inplace_adder("TTK", 3)
    oracle_runner(c, {"a": [5], "b": [6]}, lambda a, b: {"b": 3})


def test_inplace_rejects_zero():
    for algo in IN_PLACE_ADDERS:
        with pytest.raises(CircuitError):
            build_inplace_adder(algo, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qft_inplace_adder_exhaustive(n, oracle_runner):
    c = build_inplace_adder("QFT", n)
    oracle_runner(
        c,
        {"a": range(1 << n), "b": range(1 << n)},
        lambda a, b: {"b": (a + b) % (1 << n)},
    )


def test_qft_adder_spec_example(oracle_runner):
    c = build_inplace_adder("QFT", 3)
    oracle_runner(c, {"a": [2], "b": [7]}, lambda a, b: {"b": 1})


@pytest.mark.parametrize("algo", OUT_OF_PLACE_ADDERS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_outofplace_adder_exhaustive(algo, n, oracle_runner):
    c = build_outofplace_adder(algo, n)
    oracle_runner(
        c,
        {"a": range(1 << n), "b": range(1 << n), "sum": [0]},
        lambda a, b, sum: {"a": a, "b": b, "sum": (a + b) % (1 << n)},
    )


def test_gidney_outofplace_spec_example(oracle_runner):
    c = build_outofplace_adder("Gidney", 4)
    oracle_runner(
        c, {"a": [9], "b": [9], "sum": [0]}, lambda a, b, sum: {"sum": 2}
    )


@pytest.mark.parametrize("algo", [a for a in CONST_ADDERS if a != "QFT"])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_const_adder_exhaustive(algo, n, oracle_runner):
    k = spec_constant(n)
    c = build_const_adder(algo, n, k)
    oracle_runner(c, {"b": range(1 << n)}, lambda b: {"b": (b + k) % (1 << n)})


def test_const_adder_gidney_spec_example(oracle_runner):
    c = build_const_adder("ViaInPlace(Gidney)", 4, 15)
    oracle_runner(c, {"b": [1]}, lambda b: {"b": 0})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qft_const_adder_exhaustive(n, oracle_runner):
    for k in range(1 << n):
        c = build_const_adder("QFT", n, k)
        oracle_runner(c, {"b": range(1 << n)}, lambda b: {"b": (b + k) % (1 << n)})


def test_qft_const_adder_zero_is_identity(oracle_runner):
    c = build_const_adder("QFT", 3, 0)
    oracle_runner(c, {"b": range(8)}, lambda b: {})


def test_qft_adders_build_past_1024_bits():
    # pi/2^k with k >= 1024 cannot go through float(1 << k); the angles are
    # scaled instead, and every rotation is still counted.
    n = 1025
    add = build_inplace_adder("QFT", n, counting=True)
    assert add.kinds == {"H": 2 * n, "CPHASE": n * (n - 1) + n * (n + 1) // 2}
    const = build_const_adder("QFT", n, spec_constant(n), counting=True)
    assert const.kinds["CPHASE"] == n * (n - 1)


def test_const_adder_range_check():
    with pytest.raises(CircuitError):
        build_const_adder("ViaInPlace(TTK)", 3, 8)


@pytest.mark.parametrize("algo", ["ViaInPlace(QFT)", "ViaInPlace(Nope)", "Nope"])
def test_const_adder_refuses_unlisted_names(algo):
    # Only the CONST_ADDERS names build: verify caps statevector sizes by
    # name, so an unlisted QFT-backed name would escape that cap.
    with pytest.raises(CircuitError, match="unknown constant adder"):
        build_const_adder(algo, 3, 1)


@pytest.mark.parametrize("algo", NON_QFT_INPLACE)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subtractor_exhaustive(algo, n, oracle_runner):
    c = build_subtractor(algo, n)
    oracle_runner(
        c,
        {"a": range(1 << n), "b": range(1 << n)},
        lambda a, b: {"b": (b - a) % (1 << n)},
    )


def test_subtractor_spec_example(oracle_runner):
    c = build_subtractor("TTK", 3)
    oracle_runner(c, {"a": [2], "b": [5]}, lambda a, b: {"b": 3})


@pytest.mark.parametrize("n", [2, 3])
def test_qft_subtractor(n, oracle_runner):
    c = build_subtractor("QFT", n)
    oracle_runner(
        c,
        {"a": range(1 << n), "b": range(1 << n)},
        lambda a, b: {"b": (b - a) % (1 << n)},
    )


@given(a=st.integers(0, 255), b=st.integers(0, 255))
@settings(max_examples=60, deadline=None)
def test_inplace_adders_random_n8(a, b):
    for algo in NON_QFT_INPLACE:
        check = check_oracle(
            build_inplace_adder(algo, 8), {"a": [a], "b": [b]},
            lambda a, b: {"b": (a + b) % 256},
        )
        assert check.failure is None, (algo, check.failure)


def test_widths_match_golden():
    widths = {}
    for algo in IN_PLACE_ADDERS:
        for n in (4, 8):
            widths[f"inplace/{algo}/{n}"] = build_inplace_adder(algo, n).num_qubits
    for algo in OUT_OF_PLACE_ADDERS:
        for n in (4, 8):
            widths[f"outofplace/{algo}/{n}"] = build_outofplace_adder(algo, n).num_qubits
    for algo in CONST_ADDERS:
        for n in (4, 8):
            widths[f"const/{algo}/{n}"] = build_const_adder(
                algo, n, spec_constant(n)
            ).num_qubits
    if not GOLDEN.exists():
        GOLDEN.write_text(json.dumps(widths, indent=1, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert widths == golden


def test_dkrs_builds_touch_every_block_propagate_ancilla():
    # cla_bp_count sizes the tree's pool in closed form: a pool too short
    # would make the tree index past it, and one too long would leave a
    # qubit the tree never touches.
    for n in range(1, 131):
        for build in (build_inplace_adder, build_outofplace_adder):
            c = build("DKRS", n)
            bp = [q for r in c.ancilla_registers if r.name == "cla_bp" for q in r]
            assert len(bp) == cla_bp_count(n), (build.__name__, n)
            touched = {q for _, qubits, _ in c.gates for q in qubits}
            assert set(bp) <= touched, (build.__name__, n)


def test_inplace_width_accounting():
    # TTK is ancilla-free; CDKM uses exactly one ancilla.
    assert build_inplace_adder("TTK", 8).num_qubits == 16
    assert build_inplace_adder("CDKM", 8).num_qubits == 17


def test_ripple_t_count_linearity():
    for algo in RIPPLE_CARRY_ADDERS:
        for n in (64, 128, 256):
            t1 = lower_to_clifford_t(build_inplace_adder(algo, n)).t_count
            t2 = lower_to_clifford_t(build_inplace_adder(algo, 2 * n)).t_count
            assert 1.9 <= t2 / t1 <= 2.1, (algo, n, t2 / t1)


def _handle_accumulate(k, m, counting):
    bld = Builder(counting)
    x = bld.alloc_register(k, "x").qubits
    y = bld.alloc_register(m, "y").qubits
    inplace_adder(bld, "Gidney", m)(x, y)
    return bld.finalize()


def test_counting_mode_tallies_match_recorded():
    # A counting build runs each uniform loop from its first and last
    # iterations; the loops of length 0 and 1 at the smallest widths are
    # where an iteration split out of a loop would miscount.  Every build
    # starts cold, so no cached block stands in for a shape's own loops.
    for n in range(1, 10):
        for algo in IN_PLACE_ADDERS:
            for build in (build_inplace_adder, build_subtractor):
                clear_block_cache()
                assert_tallies_equal(build(algo, n, counting=True), build(algo, n))
        for algo in OUT_OF_PLACE_ADDERS:
            clear_block_cache()
            assert_tallies_equal(build_outofplace_adder(algo, n, counting=True),
                                 build_outofplace_adder(algo, n))
        for k in range(1, n + 1):
            clear_block_cache()
            assert_tallies_equal(_handle_accumulate(k, n, True),
                                 _handle_accumulate(k, n, False), ("Gidney", k, n))


def test_inplace_adder_handle_rejects_unknown_name_and_other_widths():
    bld = Builder(False, "handle")
    with pytest.raises(CircuitError, match="unknown in-place adder"):
        inplace_adder(bld, "Nope", 4)
    a = bld.alloc_register(4, "a").qubits
    b = bld.alloc_register(4, "b").qubits
    add = inplace_adder(bld, "CDKM", 4)
    with pytest.raises(CircuitError):
        add(a[:3], b[:3])
    with pytest.raises(CircuitError):
        add(a, b[:3])
    add(a, b)
    assert bld.finalize().gates


def test_gidney_handle_accumulates_narrower_operands():
    # The Gidney handle also takes the ripple's accumulate form: an addend
    # no wider than its target, zero-extended, into a target no wider than
    # the handle.  A refused call emits nothing.
    bld = Builder(False, "accumulate")
    x = bld.alloc_register(2, "x").qubits
    y = bld.alloc_register(4, "y").qubits
    wide = bld.alloc_register(6, "wide").qubits
    add = inplace_adder(bld, "Gidney", 5)
    add(x, y)
    with pytest.raises(CircuitError, match="do not fit the 5-bit Gidney adder"):
        add(x, wide)
    with pytest.raises(CircuitError, match="1 <= len"):
        add(y, x)
    check = check_oracle(bld.finalize(), {"x": range(4), "y": range(16)},
                         lambda x, y: {"y": (x + y) % 16})
    assert (check.cases, check.failure) == (64, None)


def _accumulate_sub(bld, x, y, carries):
    bld.adjoint(lambda: emit_accumulate_add(bld, x, y, carries))


def _accumulate_build(emit, k, m, offset, counting):
    bld = Builder(counting)
    if offset:
        bld.alloc_register(offset, "pad")
    x = bld.alloc_register(k, "x").qubits
    y = bld.alloc_register(m, "y").qubits
    carries = bld.alloc_ancilla(m - 1, "c").qubits if m > 1 else ()
    emit(bld, x, y, carries)
    return bld.finalize()


def test_cached_adder_blocks_tally_as_recorded():
    # The ripple accumulator is cached by (len(x), len(y)); a key that left
    # out a width would let one shape's tallies stand in for another's,
    # first on the cold pass and again warm.  The DKRS tree tallies each of
    # its levels from that level's first and last nodes.
    clear_block_cache()
    for warm in (False, True):
        for m in range(1, 13):
            for k in range(1, m + 1):
                for emit in (emit_accumulate_add, _accumulate_sub):
                    for offset in (0, 3):
                        what = (emit.__name__, k, m, offset, warm)
                        assert_tallies_equal(
                            _accumulate_build(emit, k, m, offset, True),
                            _accumulate_build(emit, k, m, offset, False), what)
        # n = 1..40 covers every tree size M = n - 1 = 0..39.
        for n in range(1, 41):
            assert_tallies_equal(build_inplace_adder("DKRS", n, counting=True),
                                 build_inplace_adder("DKRS", n), ("in", n, warm))
            assert_tallies_equal(build_outofplace_adder("DKRS", n, counting=True),
                                 build_outofplace_adder("DKRS", n), ("out", n, warm))


def test_accumulate_refuses_bad_widths_before_the_block_cache():
    # A refused call emits nothing and leaves the builder as it was, in
    # both modes: the width check runs before the cached block starts.
    for counting in (False, True):
        built = []
        for refuse in (False, True):
            bld = Builder(counting)
            x = bld.alloc_register(3, "x").qubits
            y = bld.alloc_register(3, "y").qubits
            carries = bld.alloc_ancilla(2, "c").qubits
            emit_accumulate_add(bld, x, y, carries)
            if refuse:
                with pytest.raises(CircuitError, match="1 <= len"):
                    emit_accumulate_add(bld, x, y[:2], carries)
                with pytest.raises(CircuitError, match="1 <= len"):
                    _accumulate_sub(bld, (), y, carries)
            _accumulate_sub(bld, x, y, carries)
            built.append(bld.finalize())
        assert built[0] == built[1], counting


def test_counting_builds_emit_each_cached_block_once(monkeypatch):
    # Exact work, not seconds: the gates a cold counting build emits one by
    # one and the cached blocks it asks for, against the gates it tallies.
    # The ripple accumulator is emitted once per distinct shape, and each
    # uniform loop runs only its first and last iterations.
    # Every gate is one call of a typed gate method; mcx calls x, cnot or
    # ccx, so it is not counted again.
    emitted = cached = 0

    def counted(method):
        def call(self, *operands):
            nonlocal emitted
            emitted += 1
            method(self, *operands)
        return call

    def counted_cached(self, key, emit):
        nonlocal cached
        cached += 1
        block(self, key, emit)

    for name in ("x", "cnot", "ccx", "swap", "h", "rz", "cphase"):
        monkeypatch.setattr(Builder, name, counted(getattr(Builder, name)))
    block = Builder.cached
    monkeypatch.setattr(Builder, "cached", counted_cached)
    work = {}
    for what, build in (
        ("Karatsuba-8", lambda: build_multiplier("Karatsuba-8", 1024, counting=True)),
        ("DKRS", lambda: build_inplace_adder("DKRS", 4096, counting=True)),
        ("DKRS n=2^20", lambda: build_inplace_adder("DKRS", 1 << 20, counting=True)),
        ("Gidney out-of-place n=2^20",
         lambda: build_outofplace_adder("Gidney", 1 << 20, counting=True)),
        ("Schoolbook", lambda: build_multiplier("Schoolbook", 8192, counting=True)),
        ("NonRestoring+Gidney",
         lambda: build_divider("NonRestoring+Gidney", 1024, counting=True)),
    ):
        clear_block_cache()
        emitted = cached = 0
        summary = build()
        work[what] = (emitted, cached, sum(summary.kinds.values()))
    # A ripple miss of k = len(x) into m = len(y) >= 3 bits makes 20 calls
    # when k = m - 1 and 21 when k = m: one CCX, two runs of two 4-gate
    # iterations, a CNOT into y's top (plus one from x's top when k = m) and
    # the closing CCX and CNOT.  A controlled copy is a run of two CCXs.
    # - Schoolbook, n = 8,192: every slice is n + 1 bits wide, so the n
    #   iterations are one run of two.  Each makes two copies (2 x 2
    #   calls), and the first adds through the accumulator's one miss
    #   (k = n, m = n + 1): 8 + 20 = 28 calls, 2 cached calls.
    # - NonRestoring+Gidney, n = 1,024: the first step (complement 2,
    #   ripple miss at m = n + 2, k = m: 21, complement 2, X 1) makes 26;
    #   the other n - 1 steps are one run of two 13-call steps (flip 4,
    #   complement 2, ripple hit, complement 2, flip 4, X 1); the final
    #   fix-up adds b back (copies 2 x 2, ripple miss at k = m = n: 21) and
    #   makes 4 more (CNOT, X and a run of two SWAPs): 26 + 26 + 25 + 4 =
    #   81 calls, and 1 + 2 + 1 = 4 cached calls.
    # - DKRS, M = n - 1 carries, L = floor(log2 M): eight runs of two
    #   outside the trees (two generate runs, three XOR runs, the carry
    #   CNOTs, two complements) make 16 calls.  Each of the two trees is
    #   4L - 2 runs (L - 1 propagate levels, L generate and L carry rounds,
    #   the L - 1 levels again), all of two except the top generate and
    #   carry rounds, one node each at M = 2^k - 1: 2(4L - 2) - 2 calls.
    #   n = 4,096 (L = 11) makes 16 + 2 x 82 = 180 calls and n = 2^20
    #   (L = 19) 16 + 2 x 146 = 308: O(log n), and no cached block.
    # - Gidney out-of-place: position 0 (a CCX and two sum CNOTs), one run
    #   of two 8-gate positions and the top sum bit's two CNOTs make
    #   3 + 16 + 2 = 21 calls at any n >= 4, for 8n - 11 gates.
    # - Karatsuba-8: each leaf runs its full-slice iterations as one run of
    #   two and its slices capped at the top of its register one by one.
    assert work == {"Karatsuba-8": (3_052, 927, 6_583_323), "DKRS": (180, 0, 65_379),
                    "DKRS n=2^20": (308, 0, 16_776_963),
                    "Gidney out-of-place n=2^20": (21, 0, 8 * (1 << 20) - 11),
                    "Schoolbook": (28, 2, 671_055_872),
                    "NonRestoring+Gidney": (81, 4, 16_802_799)}


@pytest.mark.parametrize("build, algo, n", [
    *[(build_inplace_adder, algo, 1 << 20) for algo in NON_QFT_INPLACE],
    *[(build_outofplace_adder, algo, 1 << 20) for algo in OUT_OF_PLACE_ADDERS],
    (build_multiplier, "Karatsuba-8", 8192),
], ids=lambda v: getattr(v, "__name__", v))
def test_counting_build_memory_does_not_grow_with_width(build, algo, n):
    # A counting build's registers are ranges, nothing copies them into
    # lists, and its O(n) loops run through repeat, so it keeps no qubit
    # id: tuples of the adders' ids at n = 2^20 would take 84-218 MB, and
    # the Karatsuba-8 tree's lists at n = 8,192 about 10 MB.
    clear_block_cache()
    tracemalloc.start()
    try:
        build(algo, n, counting=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
