from collections import Counter

import pytest

from qarith.catalog import check_oracle


def run_cases(circuit, inputs: dict, expected) -> int:
    """Assert that circuit passes catalog.check_oracle against expected;
    returns the number of cases checked."""
    check = check_oracle(circuit, inputs, expected)
    assert check.failure is None, f"{circuit.name}: {check.failure}"
    return check.cases


def assert_tallies_equal(cnt, rec, what=None) -> None:
    """Assert that a counting build's tallies and width equal those of the
    recorded build of the same construction, kind by kind; `what` (default:
    the circuit's name) labels a failure."""
    what = what or rec.name
    assert cnt.kinds == Counter(kind for kind, _, _ in rec.gates), what
    assert cnt.num_qubits == rec.num_qubits, what


@pytest.fixture
def oracle_runner():
    return run_cases
