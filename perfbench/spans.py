"""Span tracing for traced benchmark passes, from outside the program.

`Tracer.install` wraps the public entry points of each qarith layer that a
workload reaches; every wrapped call records one span: name, start, end,
parent span, the item (workload, op, algo, n) it belongs to, and exact work
counts taken from its arguments or result.  Spans stay in memory until the
pass ends.  `layer_metrics` derives the per-layer numbers from them: a
layer's self time is its spans' duration minus the time covered by their
child spans.

Per-gate work inside `Builder.append` is not wrapped: 10M+ wrapped calls
would distort every self time.  Gate counts come from the builders' results.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

from qarith import adders, catalog, circuit, cli, modexp, muldiv, physical, resources

# Builder entry points reached from catalog.build and the modexp sweep.
_BUILDERS = (
    (adders, "build_inplace_adder"),
    (adders, "build_outofplace_adder"),
    (adders, "build_const_adder"),
    (adders, "build_subtractor"),
    (muldiv, "build_multiplier"),
    (muldiv, "build_divider"),
    (modexp, "build_modexp"),
    (modexp, "build_modmul_const"),
    (modexp, "build_table_lookup"),
)

# Span name, index of each field: [name, start, end, parent, item, counts].
_NAME, _START, _END, _PARENT, _ITEM, _COUNTS = range(6)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.cache_hits = 0
        self._stack: list[int] = []
        self._item = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def item(self, op_class: str, algorithm: str, n: int):
        """Tie every span opened inside to one (workload, op, algo, n)."""
        outer = self._item
        self._item = (self.workload, op_class, algorithm, n)
        try:
            yield
        finally:
            self._item = outer

    def _call(self, name: str, fn, args, kwargs, counts: dict):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self._item, counts]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[_END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, count=None):
        """Span every call of fn; count(args, result) adds exact work counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts: dict = {}
            result = self._call(name, fn, args, kwargs, counts)
            if count is not None:
                counts.update(count(args, result))
            return result
        return wrapper

    def _wrap_builder(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counting = sig.bind(*args, **kwargs).arguments.get("counting", False)
            counts: dict = {}
            name = "build.count" if counting else "build.record"
            result = self._call(name, fn, args, kwargs, counts)
            if isinstance(result, circuit.Circuit):
                counts["gates_recorded"] = len(result.gates)
            else:
                counts["gates_tallied"] = sum(result.kinds.values())
            return result
        return wrapper

    def _wrap_cached(self, fn):
        # Only counting builders consult the block cache; a miss is a call
        # whose emit callback runs, and its emission is the miss span.
        @functools.wraps(fn)
        def wrapper(bld, key, emit):
            if not bld.counting:
                return fn(bld, key, emit)
            missed = False

            def emit_on_miss():
                nonlocal missed
                missed = True
                self._call("circuit.cache.miss", emit, (), {}, {})

            fn(bld, key, emit_on_miss)
            if not missed:
                self.cache_hits += 1
        return wrapper

    def _wrap_lookup(self, fn):
        # The counting-mode walk is the lookup layer; in a recording build the
        # lookup's gates are part of the build.
        @functools.wraps(fn)
        def wrapper(bld, addr, target, entries, ancs):
            if not bld.counting:
                return fn(bld, addr, target, entries, ancs)
            counts = {"entries": len(entries)}
            return self._call("modexp.lookup", fn,
                              (bld, addr, target, entries, ancs), {}, counts)
        return wrapper

    def _wrap_verify(self, fn):
        @functools.wraps(fn)
        def wrapper(op_class, algorithm, n, *rest, **kwargs):
            with self.item(op_class, algorithm, n):
                counts: dict = {}
                report = self._call("catalog.verify", fn,
                                    (op_class, algorithm, n) + rest, kwargs, counts)
            counts["cases"] = report.cases
            return report
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the entry points; the same original is wrapped once per module
        that holds a reference to it."""
        for module, attr in _BUILDERS:
            self._patch(module, attr, self._wrap_builder(getattr(module, attr)))
        self._patch(circuit.Builder, "cached",
                    self._wrap_cached(circuit.Builder.cached))
        self._patch(modexp, "emit_lookup", self._wrap_lookup(modexp.emit_lookup))
        self._patch(resources, "lower_to_clifford_t", self._wrap(
            "resources.lower_greedy", resources.lower_to_clifford_t,
            lambda _, r: {"events": r.t_count + r.cnot_count + r.single_qubit_clifford}))
        self._patch(resources, "lower_summary", self._wrap(
            "resources.lower_summary", resources.lower_summary))
        self._patch(catalog, "simulate_permutation_batch", self._wrap(
            "sim.perm", catalog.simulate_permutation_batch,
            lambda args, _: {"gate_states": len(args[0].gates) * len(args[1])}))
        self._patch(catalog, "simulate_statevector", self._wrap(
            "sim.sv", catalog.simulate_statevector,
            lambda args, _: {"amp_gates": len(args[0].gates) << args[0].num_qubits}))
        self._patch(catalog, "verify", self._wrap_verify(catalog.verify))
        estimate = self._wrap("physical.estimate", physical.estimate)
        pareto = self._wrap("physical.pareto", physical.pareto_frontier,
                            lambda _, r: {"points": len(r)})
        for module in (physical, cli):
            self._patch(module, "estimate", estimate)
            self._patch(module, "pareto_frontier", pareto)
        self._patch(cli, "render", self._wrap("cli.render", cli.render))
        self._patch(cli, "fit_report", self._wrap("analysis.fit", cli.fit_report))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived metrics -------------------------------------------------------

    def dump(self) -> list[dict]:
        """The spans as JSON-ready dicts; `parent` indexes this list."""
        return [
            {"name": s[_NAME], "start": s[_START], "end": s[_END],
             "parent": s[_PARENT], "item": s[_ITEM], "counts": s[_COUNTS]}
            for s in self.spans
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times (s), exact work counts and rates of this pass."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] is not None:
                covered[s[_PARENT]] += s[_END] - s[_START]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        candidates = 0
        for i, s in enumerate(self.spans):
            name = s[_NAME]
            self_s[name] += s[_END] - s[_START] - covered[i]
            calls[name] += 1
            for key, value in s[_COUNTS].items():
                counts[f"{name}.{key}"] += value
            if (name == "physical.estimate" and s[_PARENT] is not None
                    and self.spans[s[_PARENT]][_NAME] == "physical.pareto"):
                candidates += 1
        hits, misses = self.cache_hits, calls["circuit.cache.miss"]
        greedy_s = self_s["resources.lower_greedy"]
        perm_s = self_s["sim.perm"]
        events = counts["resources.lower_greedy.events"]
        gate_states = counts["sim.perm.gate_states"]
        return {
            "modexp.lookup_s": self_s["modexp.lookup"],
            "modexp.lookup.calls": calls["modexp.lookup"],
            "modexp.lookup.entries": counts["modexp.lookup.entries"],
            "circuit.cache.hits": hits,
            "circuit.cache.misses": misses,
            "circuit.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "circuit.cache.miss_s": self_s["circuit.cache.miss"],
            "circuit.gates_tallied": counts["build.count.gates_tallied"],
            "circuit.gates_recorded": counts["build.record.gates_recorded"],
            "build.count_s": self_s["build.count"],
            "build.count.calls": calls["build.count"],
            "build.record_s": self_s["build.record"],
            "build.record.calls": calls["build.record"],
            "resources.lower_greedy_s": greedy_s,
            "resources.lower_greedy.events": events,
            "resources.lower_greedy.events_per_s": events / greedy_s if greedy_s else 0.0,
            "resources.lower_summary_s": self_s["resources.lower_summary"],
            "sim.perm_s": perm_s,
            "sim.perm.gate_states": gate_states,
            "sim.perm.gate_states_per_s": gate_states / perm_s if perm_s else 0.0,
            "sim.sv_s": self_s["sim.sv"],
            "sim.sv.calls": calls["sim.sv"],
            "sim.sv.amp_gates": counts["sim.sv.amp_gates"],
            "catalog.verify_self_s": self_s["catalog.verify"],
            "catalog.verify.cases": counts["catalog.verify.cases"],
            "physical.estimate_s": self_s["physical.estimate"],
            "physical.estimate.calls": calls["physical.estimate"],
            "physical.pareto_s": self_s["physical.pareto"],
            "physical.pareto.candidates": candidates,
            "physical.pareto.points": counts["physical.pareto.points"],
            "cli.render_s": self_s["cli.render"],
            "analysis.fit_s": self_s["analysis.fit"],
        }
