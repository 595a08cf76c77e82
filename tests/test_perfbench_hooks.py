"""Smoke test of the benchmark's tracing hooks.

`perfbench/spans.py` traces a pass by patching qarith's module globals
(`modexp.emit_lookup`, `Builder.cached`, the `build_*` functions, lowering,
the simulators and the estimators).  A refactor that binds one of those
names at import, or calls around it, leaves its counter at zero and the
benchmark's per-layer numbers silently empty.  This runs one small pass per
layer under the tracer and checks that every hooked layer counted work.
"""
import importlib
from pathlib import Path

from qarith import catalog, cli, modexp
from qarith.circuit import clear_block_cache

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_layer_counts_work(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("spans").Tracer("hooks")
    clear_block_cache()  # so this pass misses the block cache
    tracer.install()
    try:
        with tracer.item("modexp", "LYYWindowedOpt", 8):
            modexp.build_modexp("LYYWindowedOpt", 7, 255, 8, counting=True)
        cli.sweep_records("divider", ["NonRestoring+Gidney"], 8, 8)
        cli.pareto_records("inplace_adder", "DKRS", 8)
        catalog.verify_range("inplace_adder", "QFT", 3)
        catalog.verify_range("modexp", "LYY", 3)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    hooked = ("build.count.calls", "build.record.calls", "circuit.cache.misses",
              "modexp.lookup.calls", "sim.perm.gate_states",
              "resources.lower_greedy.events", "physical.pareto.points")
    assert {name: layers[name] > 0 for name in hooked} == dict.fromkeys(hooked, True)
    # The QFT adder runs on product states, which the tracer does not hook:
    # catalog keeps the dense simulator's name bound only for the tracer.
    assert layers["sim.sv.calls"] == 0


def test_permutation_counter_is_gates_times_cases(monkeypatch):
    # Gidney n = 1..3 checks 4, 16 and 64 exhaustive cases on permutation
    # circuits: the counter must read the batch's case count, not its width.
    want = sum(len(catalog.build("inplace_adder", "Gidney", n).gates) << 2 * n
               for n in (1, 2, 3))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("spans").Tracer("hooks")
    tracer.install()
    try:
        catalog.verify_range("inplace_adder", "Gidney", 3)
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["sim.perm.gate_states"] == want
