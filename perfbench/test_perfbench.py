"""Self-tests of the benchmark.  They take a few minutes:

    PYTHONPATH=src python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from qarith import catalog, cli  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

# Work counters that must repeat exactly for the same seed.
EXACT_COUNTERS = (
    "circuit.gates_tallied",
    "circuit.cache.hits",
    "circuit.cache.misses",
    "modexp.lookup.entries",
    "resources.lower_greedy.events",
    "sim.perm.gate_states",
    "sim.sv.amp_gates",
)


def _traced_pass(workload: str, seed: int, cwd: Path) -> dict:
    # The hash seed is left random, so the two passes also differ in set and
    # dict iteration order.
    cwd.mkdir()
    out = cwd / "result.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONHASHSEED", None)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--out", str(out)],
        cwd=cwd, env=env, check=True, timeout=170,
    )
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counters_repeat_and_split_as_designed(workload, tmp_path):
    first = _traced_pass(workload, 7, tmp_path / "first")
    second = _traced_pass(workload, 7, tmp_path / "second")
    assert first["failed"] == 0 and second["failed"] == 0, first["failures"]
    for name in EXACT_COUNTERS:
        assert first["layers"][name] == second["layers"][name], name

    layers, wall = first["layers"], first["wall_work_s"]
    lookup = layers["modexp.lookup_s"]
    greedy = layers["resources.lower_greedy_s"]
    sim = layers["sim.perm_s"] + layers["sim.sv_s"]
    if workload == "modexp-sweep":
        assert lookup > wall / 2
    else:
        assert lookup == 0
    if workload == "pareto-recorded":
        assert greedy > wall / 2
    elif workload != "verify":
        assert greedy == 0
    assert (sim > 0) == (workload == "verify")


def test_corrupted_expected_value_fails_one_operation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inputs = workloads.make_inputs("pareto-recorded", 1)
    outputs = workloads.run("pareto-recorded", inputs)
    expected = workloads.load_expected()
    attempted, failures = workloads.check("pareto-recorded", inputs, outputs, expected)
    assert attempted == len(workloads.PARETO_SPECS) and failures == []

    key = workloads.row_key(*workloads.PARETO_SPECS[0])
    expected["rows"][key][workloads.COUNT_COLUMNS.index("t_count")] += 1
    attempted, failures = workloads.check("pareto-recorded", inputs, outputs, expected)
    assert len(failures) == 1 and key in failures[0]
    assert len(failures) / attempted > 0


def test_default_seed_rows_equal_qarith_sweep(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inputs = workloads.make_inputs("modexp-sweep", catalog.DEFAULT_SEED)
    rows = workloads.run("modexp-sweep", inputs)["rows"]
    want = cli.sweep_records("modexp", ["LYYWindowedOpt"], 8, 64)
    for n, ws in workloads.MODEXP_WINDOW_SCANS:
        want += cli.sweep_records("modexp", [f"LYYWindowed({w})" for w in ws], n, n)
    assert [r.as_dict() for r in rows] == [r.as_dict() for r in want]


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_excludes_probes_and_rescales_by_local_speed():
    probe = speed.SpeedProbe()
    nominal = speed.NOMINAL_PROBE_S
    # Probes at 0, 1, 2 and 3 s; the machine runs at half speed after 1.5 s.
    durations = [nominal, nominal, 2 * nominal, 2 * nominal, 2 * nominal]
    probe.probes = [(float(t), t + d) for t, d in enumerate(durations)]
    raw, scaled = probe.measure(0.0, 1.0)
    assert raw == pytest.approx(1.0 - nominal)
    assert scaled == pytest.approx(raw)
    raw, scaled = probe.measure(3.0, 4.0)
    assert raw == pytest.approx(1.0 - 2 * nominal)
    assert scaled == pytest.approx(raw / 2)
