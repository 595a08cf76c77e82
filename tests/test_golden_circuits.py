"""Golden outputs of every catalog entry: recorded gate lists, their greedy
Clifford+T depths, and counting tallies.

Greedy depth depends on the recorded gate order, so a refactor of how
circuits are emitted must leave every recorded gate list byte-identical and
every counting summary equal; a change to the layering itself must leave the
lowered depth and T-depth of every recorded build equal.  The pinned values
live in
``golden_circuits.json``; regenerate them (only on purpose) with

    PYTHONPATH=src python3 tests/test_golden_circuits.py
"""
from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from qarith import catalog
from qarith.circuit import circuit_to_text, clear_block_cache
from qarith.resources import lower_to_clifford_t

GOLDEN = pathlib.Path(__file__).parent / "golden_circuits.json"
RECORDED_NS = (2, 3, 5)
COUNTING_NS = (8, 13, 32)
# A table_lookup instance stores 2^n classical entries, so n = 32 is left out.
TABLE_LOOKUP_N_MAX = 16


def recorded_digests(op: str, algo: str) -> dict[str, str]:
    return {
        str(n): hashlib.sha256(
            circuit_to_text(catalog.build(op, algo, n)).encode()
        ).hexdigest()
        for n in RECORDED_NS
    }


def recorded_depths(op: str, algo: str) -> dict[str, list[int]]:
    out = {}
    for n in RECORDED_NS:
        low = lower_to_clifford_t(catalog.build(op, algo, n))
        out[str(n)] = [low.depth, low.t_depth]
    return out


def counting_summaries(op: str, algo: str) -> dict[str, dict]:
    out = {}
    for n in COUNTING_NS:
        if op == "table_lookup" and n > TABLE_LOOKUP_N_MAX:
            continue
        clear_block_cache()
        s = catalog.build(op, algo, n, counting=True)
        out[str(n)] = {
            "num_qubits": s.num_qubits,
            "kinds": dict(s.kinds),
        }
    return out


def _key(op: str, algo: str) -> str:
    return f"{op}/{algo}"


ENTRIES = [(op, algo) for op, algo, _ in catalog.catalog()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_catalog(golden):
    assert sorted(golden["recorded"]) == sorted(_key(*e) for e in ENTRIES)
    assert sorted(golden["counting"]) == sorted(_key(*e) for e in ENTRIES)
    assert sorted(golden["depths"]) == sorted(_key(*e) for e in ENTRIES)


@pytest.mark.parametrize("op,algo", ENTRIES, ids=[_key(*e) for e in ENTRIES])
def test_recorded_gate_lists_unchanged(golden, op, algo):
    assert recorded_digests(op, algo) == golden["recorded"][_key(op, algo)]


@pytest.mark.parametrize("op,algo", ENTRIES, ids=[_key(*e) for e in ENTRIES])
def test_recorded_depths_unchanged(golden, op, algo):
    assert recorded_depths(op, algo) == golden["depths"][_key(op, algo)]


@pytest.mark.parametrize("op,algo", ENTRIES, ids=[_key(*e) for e in ENTRIES])
def test_counting_summaries_unchanged(golden, op, algo):
    assert counting_summaries(op, algo) == golden["counting"][_key(op, algo)]


if __name__ == "__main__":
    data = {
        "recorded": {_key(*e): recorded_digests(*e) for e in ENTRIES},
        "counting": {_key(*e): counting_summaries(*e) for e in ENTRIES},
        "depths": {_key(*e): recorded_depths(*e) for e in ENTRIES},
    }
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
