import pytest

from qarith.catalog import check_oracle


def run_cases(circuit, inputs: dict, expected) -> int:
    """Assert that circuit passes catalog.check_oracle against expected;
    returns the number of cases checked."""
    check = check_oracle(circuit, inputs, expected)
    assert check.failure is None, f"{circuit.name}: {check.failure}"
    return check.cases


@pytest.fixture
def oracle_runner():
    return run_cases
