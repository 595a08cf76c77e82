import dataclasses
import json

import pytest

from qarith import catalog, claims
from qarith.circuit import CCX, X
from qarith.claims import (
    EXPECTED_CLAIM_IDS,
    _check_adders,
    _check_design_space,
    _check_dividers,
    _check_modexp,
    _check_multipliers,
    _check_non_reproduction,
    _check_pareto,
    _check_structure,
    claims_json,
    claims_markdown,
    write_reports,
)
from qarith.physical import PhysicalParams


def test_expected_claim_ids_closed():
    assert EXPECTED_CLAIM_IDS == tuple(f"AC{i}" for i in range(1, 12))
    assert len(set(EXPECTED_CLAIM_IDS)) == 11


def test_structure_claim_passes():
    assert _check_structure(12345).status == "pass"


def test_structure_claim_simulates_through_the_catalog(monkeypatch):
    # AC5 picks its simulator through catalog.simulate_basis, the dispatch
    # every oracle check uses; its QFT sample runs on the statevector.
    calls = []
    simulate = catalog.simulate_statevector

    def counted(*args):
        calls.append(args)
        return simulate(*args)

    monkeypatch.setattr(catalog, "simulate_statevector", counted)
    assert _check_structure(12345).status == "pass"
    assert calls


def test_structure_claim_samples_wide_circuits(monkeypatch):
    # Flip q0 only when q1 = 0 and q2 = 1: the 0, 1 and all-ones corners
    # never reach it, a seeded sample does.
    adjoint = claims.adjoint
    hidden = ((X, (1,), None), (CCX, (1, 2, 0), None), (X, (1,), None))

    def broken_when_wide(c):
        adj = adjoint(c)
        if c.num_qubits <= 16:
            return adj
        return dataclasses.replace(adj, gates=adj.gates + hidden)

    monkeypatch.setattr(claims, "adjoint", broken_when_wide)
    check = _check_structure(12345)
    assert check.status == "fail"
    assert "adjoint composition is not identity" in check.observed, check.observed


@pytest.mark.parametrize("check, cases", [
    (_check_adders, 57884),
    (_check_multipliers, 2008),
    (_check_dividers, 1848),
    (_check_modexp, 624),
], ids=["AC1", "AC2", "AC3", "AC4"])
def test_oracle_claims_check_pinned_case_totals(check, cases):
    # A spec list that drops a size or an algorithm changes the total.
    result = check(12345)
    assert result.status == "pass", result.observed
    assert result.observed.startswith(f"{cases} cases"), result.observed


def test_design_space_claim_passes():
    check = _check_design_space(12345)
    assert check.status == "pass"
    assert check.observed == (
        "n=8: min qubits 33 (Restoring+TTK); n=16: min qubits 65 (Restoring+TTK); "
        "n=32: min qubits 129 (Restoring+TTK)")


def test_pareto_claim_with_modified_params():
    # Distance claims re-derive under a noisier device; the property checks
    # themselves keep holding (the distance cap must grow to compensate).
    params = PhysicalParams(p_phys=5e-3, max_code_distance=199)
    check = _check_pareto(12345, params)
    assert check.status == "pass", check.observed


def test_seed_change_leaves_oracle_claims_unaffected():
    assert _check_multipliers(999).status == "pass"


def test_modexp_claim_checks_the_x_register(monkeypatch):
    build = claims.build_modexp

    def stray_x(algo, a, N, n):
        c = build(algo, a, N, n)
        x0 = next(r for r in c.data_registers if r.name == "x")[0]
        return dataclasses.replace(c, gates=c.gates + ((X, (x0,), None),))

    monkeypatch.setattr(claims, "build_modexp", stray_x)
    check = _check_modexp(12345)
    assert check.status == "fail"
    assert "register x" in check.observed, check.observed


def test_non_reproduction_documented():
    check = _check_non_reproduction(12345)
    assert check.status == "pass"
    assert "not reproduced" in check.description or "non-reproduction" in check.description


def test_report_emission(tmp_path):
    checks = [_check_non_reproduction(12345), _check_design_space(12345)]
    md = tmp_path / "claims.md"
    js = tmp_path / "claims.json"
    write_reports(checks, md, js)
    text = md.read_text()
    assert "| AC11 | pass |" in text
    data = json.loads(js.read_text())
    assert {row["claim_id"] for row in data} == {"AC11", "AC9"}
    assert claims_markdown(checks).startswith("# Acceptance claim report")
    assert json.loads(claims_json(checks))[0]["status"] == "pass"
