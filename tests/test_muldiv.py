import re
from collections import Counter

import numpy as np
import pytest

from qarith import catalog
from qarith.circuit import CircuitError, clear_block_cache, parse_name
from qarith.muldiv import (
    DIVIDER_ADDERS,
    DIVIDER_KINDS,
    DIVIDERS,
    MULTIPLIERS,
    build_divider,
    build_multiplier,
)
from qarith.sim import pack_bits, simulate_permutation_batch, unpack_bits

from conftest import assert_tallies_equal


def test_parse_multiplier():
    def parse(algo):
        return parse_name(algo, "multiplier", MULTIPLIERS, "Karatsuba", 2)

    assert parse("Schoolbook") is None
    assert parse("Karatsuba") == 32
    assert parse("Karatsuba-8") == 8
    assert parse("Karatsuba(5)") == 5
    assert parse("Karatsuba(10)") == 10
    # build_multiplier reads the same grammar, so it refuses the same names.
    for refuse in (parse, lambda algo: build_multiplier(algo, 1)):
        with pytest.raises(CircuitError, match=re.escape(
                "multiplier 'Karatsuba(1)': Karatsuba(k) needs k >= 2")):
            refuse("Karatsuba(1)")
        # A size that is not a plain decimal is an unknown name, not an
        # int() error or a quiet alias of its canonical spelling.
        for algo in ("Wallace", "Karatsuba(x)", "Karatsuba(-2)", "Karatsuba(²)",
                     "Karatsuba(٣)", "Karatsuba(08)", "Karatsuba()", "Karatsuba(3"):
            with pytest.raises(CircuitError,
                               match=re.escape(f"unknown multiplier {algo!r}")):
                refuse(algo)


@pytest.mark.parametrize("algo", ["Schoolbook", "Karatsuba(2)", "Karatsuba(3)"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiplier_exhaustive(algo, n, oracle_runner):
    c = build_multiplier(algo, n)
    cases = oracle_runner(
        c,
        {"a": range(1 << n), "b": range(1 << n), "prod": [0]},
        lambda a, b, prod: {"a": a, "b": b, "prod": a * b},
    )
    assert cases == 1 << (2 * n)


def test_multiplier_spec_example(oracle_runner):
    c = build_multiplier("Schoolbook", 4)
    oracle_runner(c, {"a": [3], "b": [5], "prod": [0]}, lambda a, b, prod: {"prod": 15})


def test_karatsuba_padding_path(oracle_runner):
    # n=5 is not a power of two: the tree splits it 3 + 2, unpadded.
    c = build_multiplier("Karatsuba(2)", 5)
    rng = np.random.default_rng(17)
    pairs = {(int(a), int(b)) for a, b in rng.integers(0, 32, size=(60, 2))}
    oracle_runner(
        c,
        {"a": sorted({p[0] for p in pairs}), "b": sorted({p[1] for p in pairs}), "prod": [0]},
        lambda a, b, prod: {"prod": a * b},
    )


def test_karatsuba8_randomized_n8(oracle_runner):
    # 2^16 input pairs exceed the exhaustive limit: a seeded 1000-case sample.
    c = build_multiplier("Karatsuba-8", 8)
    cases = oracle_runner(
        c,
        {"a": range(256), "b": range(256), "prod": [0]},
        lambda a, b, prod: {"prod": a * b},
    )
    assert cases == 1000


@pytest.mark.parametrize("n", [2, 3])
def test_karatsuba_schoolbook_same_permutation(n, oracle_runner):
    for algo in ("Schoolbook", "Karatsuba(2)"):
        oracle_runner(
            build_multiplier(algo, n),
            {"a": range(1 << n), "b": range(1 << n), "prod": [0]},
            lambda a, b, prod: {"prod": a * b},
        )


def test_multiplier_rejects_zero():
    with pytest.raises(CircuitError):
        build_multiplier("Schoolbook", 0)


@pytest.mark.parametrize("kind", DIVIDER_KINDS)
@pytest.mark.parametrize("adder", DIVIDER_ADDERS + ("DKRS",))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_divider_exhaustive(kind, adder, n, oracle_runner):
    c = build_divider(f"{kind}+{adder}", n)
    oracle_runner(
        c,
        {"a": range(1 << n), "b": range(1, 1 << n), "q": [0]},
        lambda a, b, q: {"a": a % b, "b": b, "q": a // b},
    )


def test_divider_spec_example(oracle_runner):
    c = build_divider("NonRestoring+TTK", 4)
    oracle_runner(c, {"a": [13], "b": [3], "q": [0]}, lambda a, b, q: {"a": 1, "q": 4})
    c2 = build_divider("Restoring+Gidney", 4)
    oracle_runner(
        c2,
        {"a": range(16), "b": range(1, 16), "q": [0]},
        lambda a, b, q: {"a": a % b, "q": a // b},
    )


def test_divider_quotient_remainder_identity(oracle_runner):
    # a = q*b + r with 0 <= r < b fixes (q, r), so the oracle is the identity.
    c = build_divider("NonRestoring+CDKM", 4)
    oracle_runner(
        c,
        {"a": range(16), "b": range(1, 16), "q": [0]},
        lambda a, b, q: {"a": a % b, "q": a // b},
    )


def test_divider_b_zero_is_deterministic_permutation():
    c = build_divider("Restoring+TTK", 3)
    every = unpack_bits(range(1 << c.num_qubits), c.num_qubits)
    table = pack_bits(simulate_permutation_batch(c, every))
    assert len(np.unique(table)) == len(table)


def test_divider_rejects_bad_spec():
    assert DIVIDERS["NonRestoring+CDKM"] == ("NonRestoring", "CDKM")
    for algo in ("Restoring+QFT", "Floored+TTK", "Restoring", "Restoring+TTK+"):
        with pytest.raises(CircuitError, match=re.escape(f"unknown divider {algo!r}")):
            build_divider(algo, 3)
    with pytest.raises(CircuitError):
        build_divider("Restoring+TTK", 0)


def test_design_space_shape_and_ordering():
    clear_block_cache()
    # The catalog's divider rows, ordered as AC9 orders them.
    rows = sorted(((algo, catalog.measure("divider", algo, 8))
                   for op, algo, _ in catalog.catalog() if op == "divider"),
                  key=lambda r: (r[1].qubits, r[1].t_count))
    assert len(rows) == 6
    names = {algo for algo, _ in rows}
    assert names == {
        f"{k}+{a}" for k in DIVIDER_KINDS for a in DIVIDER_ADDERS
    }
    for _, counts in rows:
        assert counts.qubits > 0 and counts.t_count > 0
    qubits = [c.qubits for _, c in rows]
    assert qubits == sorted(qubits)
    # minimum-qubit configuration uses the TTK adder for both kinds
    by_kind = {}
    for algo, counts in rows:
        kind, adder = DIVIDERS[algo]
        by_kind.setdefault(kind, []).append((counts.qubits, adder))
    for kind, entries in by_kind.items():
        assert min(entries)[1] == "TTK", entries
    # non-restoring beats restoring on T-count at equal adder
    tmap = {DIVIDERS[algo]: c.t_count for algo, c in rows}
    for adder in DIVIDER_ADDERS:
        assert tmap[("NonRestoring", adder)] < tmap[("Restoring", adder)]


def test_counting_matches_recording_multiplier():
    clear_block_cache()
    for algo in ("Schoolbook", "Karatsuba(2)"):
        rec = build_multiplier(algo, 4)
        cnt = build_multiplier(algo, 4, counting=True)
        assert_tallies_equal(cnt, rec)


def test_counting_matches_recording_karatsuba_deep():
    # n=8 with piece 3 exercises a two-level recursion tree, block-cache
    # hits and the counted uncompute of Builder.within; n=5 splits unevenly.
    for algo, n in (("Karatsuba(3)", 8), ("Karatsuba(2)", 5)):
        clear_block_cache()
        rec = build_multiplier(algo, n)
        cnt = build_multiplier(algo, n, counting=True)
        assert_tallies_equal(cnt, rec)
        # warm-cache rebuild must give identical tallies
        cnt2 = build_multiplier(algo, n, counting=True)
        assert cnt2.kinds == cnt.kinds and cnt2.num_qubits == cnt.num_qubits


def test_karatsuba_middle_product_wider_than_its_slot():
    # At n=17 some middle product's register is wider than its slot
    # wq[h:]; only its low len(wq) - h qubits can be nonzero.
    assert catalog.verify("multiplier", "Karatsuba(2)", 17).ok
    build_multiplier("Karatsuba(3)", 17)
    build_multiplier("Karatsuba(3)", 17, counting=True)


@pytest.mark.parametrize("k", [4, 5])
def test_karatsuba_cost_has_no_power_of_two_staircase(k):
    # The tree splits at ceil(s/2) and sizes each node from its operands'
    # bounds, so one bit past a power of two adds a little, not a level.
    at = catalog.measure("multiplier", "Karatsuba-8", 1 << k)
    past = catalog.measure("multiplier", "Karatsuba-8", (1 << k) + 1)
    assert past.t_count <= 1.5 * at.t_count
    assert past.qubits <= 1.5 * at.qubits


@pytest.mark.xfail(strict=True, reason="counting emit_copy tallies len(src) "
                   "CNOTs where the Karatsuba w_hi copy's dst is shorter")
def test_counting_matches_recording_karatsuba_short_copy():
    clear_block_cache()
    cnt = build_multiplier("Karatsuba(4)", 33, counting=True)
    rec = build_multiplier("Karatsuba(4)", 33)
    assert cnt.kinds == Counter(kind for kind, _, _ in rec.gates)


def test_counting_matches_recording_divider():
    clear_block_cache()
    for kind in DIVIDER_KINDS:
        rec = build_divider(f"{kind}+Gidney", 3)
        cnt = build_divider(f"{kind}+Gidney", 3, counting=True)
        assert_tallies_equal(cnt, rec)
