"""Regenerate expected.json, the stored outputs every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/make_expected.py

Run it from the repository root, and only on a commit whose outputs are
trusted.  It stores the count columns of every sweep row (modexp rows once
per base in each n's pool) and of every Pareto frontier, and the number of
cases of every verified (op, algo, n).  Takes about a minute.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from qarith import catalog, circuit

import workloads


def _collect() -> dict:
    rows: dict[str, list[int]] = {}
    for k in range(workloads.MODEXP_BASE_POOL):
        circuit.clear_block_cache()
        bases = {n: workloads.base_pool(n)[k] for n in workloads.modexp_sizes()}
        for r in workloads.run("modexp-sweep", {"bases": bases})["rows"]:
            key = workloads.row_key(r.op_class, r.algorithm, r.n, bases[r.n])
            rows[key] = workloads.count_columns(r)
    circuit.clear_block_cache()
    for r in workloads.run("arith-sweep", {})["rows"]:
        rows[workloads.row_key(r.op_class, r.algorithm, r.n)] = workloads.count_columns(r)
    frontiers = workloads.run("pareto-recorded", {})["frontiers"]
    for spec, records in zip(workloads.PARETO_SPECS, frontiers):
        rows[workloads.row_key(*spec)] = workloads.count_columns(records[0])
    reports = workloads.run("verify", {"seed": catalog.DEFAULT_SEED})["reports"]
    cases = {workloads.row_key(r.op_class, r.algorithm, r.n): r.cases for r in reports}
    return {"rows": rows, "verify_cases": cases}


def _dump(expected: dict) -> str:
    """JSON with one stored value per line, so diffs show what changed."""
    sections = []
    for name, table in expected.items():
        body = ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())
        )
        sections.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> None:
    scratch = Path(".perfbench")
    scratch.mkdir(exist_ok=True)
    home = Path.cwd()
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        os.chdir(tmp)  # the sweeps write their CSV files here
        try:
            expected = _collect()
        finally:
            os.chdir(home)
    workloads.EXPECTED_PATH.write_text(_dump(expected))
    print(f"wrote {len(expected['rows'])} rows and "
          f"{len(expected['verify_cases'])} verify cases to {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
