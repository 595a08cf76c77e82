"""The four benchmark workloads and the checks on their outputs.

Each workload is one cold pass of batch work that makes the library calls
behind the README CLI commands (`cli.sweep_records`, `cli.pareto_records`,
`catalog.verify_range`, then `cli.render` and `cli.fit_report`).  `run` is
the timed part; `check` runs afterwards, untimed, and turns every mismatch
into a failed operation instead of an exception.  An operation is one sweep
row, one verified (op, algo, n), one Pareto frontier, one fit or one
cross-check.

Why each workload exists, and which layers it stresses, is in README.md.
"""
from __future__ import annotations

import contextlib
import json
import math
import random
import re
from pathlib import Path

from qarith import catalog, cli, modexp, physical, resources
from qarith.adders import (
    CONST_ADDERS,
    IN_PLACE_ADDERS,
    OUT_OF_PLACE_ADDERS,
    RIPPLE_CARRY_ADDERS,
)
from qarith.analysis import log_grid
from qarith.claims import SLOPE_RANGES
from qarith.muldiv import DIVIDER_ADDERS, DIVIDER_KINDS

WORKLOADS = ("modexp-sweep", "arith-sweep", "verify", "pareto-recorded")

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Count columns are gated against stored values; depth, t_depth and the
# physical columns are not, because the depth model is planned to change.
COUNT_COLUMNS = (
    "logical_qubits", "t_count", "toffoli_count", "cnot_count", "rotation_count",
)

# -- workload definitions ------------------------------------------------------

MODEXP_OPT_GRID = log_grid(8, 64)
MODEXP_WINDOW_SCANS = ((16, range(1, 15)), (32, range(1, 13)))
MODEXP_CROSSCHECK_N = 8
# Each n draws its base from a fixed pool of residues coprime to 2^n - 1;
# pool member 0 is the catalog base, so the default seed reproduces
# `qarith sweep` rows.  The pool keeps every row checkable against stored
# values while still changing the constants a base-dependent cache key or
# lookup memo would have to get right.
MODEXP_BASE_POOL = 8

MULT_ALGOS = ("Schoolbook", "Karatsuba-8")
MULT_GRID = [1 << k for k in range(3, 14)]
ADDER_ALGOS = ("Gidney", "TTK", "CDKM", "DKRS")
ADDER_GRID = log_grid(16, 4096)
DIVIDER_ALGOS = ("Restoring+TTK", "NonRestoring+Gidney")
DIVIDER_GRID = log_grid(8, 1024)
TIPPING_LIMIT = 1 << 13
WINDOW_TOLERANCE = 3

# QFT variants are simulated on the statevector, so they stop at n=5.
VERIFY_SPECS = (
    [(op, a, 5 if a == "QFT" else 6)
     for op in ("inplace_adder", "subtractor") for a in IN_PLACE_ADDERS]
    + [("outofplace_adder", a, 6) for a in OUT_OF_PLACE_ADDERS]
    + [("const_adder", a, 5 if a == "QFT" else 6) for a in CONST_ADDERS]
    + [("multiplier", "Schoolbook", 4), ("multiplier", "Karatsuba", 4),
       ("multiplier", "Karatsuba-8", 8)]
    + [("divider", f"{k}+{a}", 4) for k in DIVIDER_KINDS for a in DIVIDER_ADDERS]
    + [("modexp", a, 5)
       for a in ("LYY", "LYYWindowed(1)", "LYYWindowed(11)", "LYYWindowedOpt")]
    + [("modmul_const", "LYY", 6), ("table_lookup", "UnaryIteration", 8)]
)

# Every instance sits at its recorded limit, the largest n `pareto` lowers
# from a recorded circuit with greedy depth.
PARETO_SPECS = (
    ("multiplier", "Schoolbook", cli.DEFAULT_RECORDED_LIMIT),
    ("multiplier", "Karatsuba-8", cli.DEFAULT_RECORDED_LIMIT),
    ("divider", "NonRestoring+TTK", cli.DEFAULT_RECORDED_LIMIT),
    ("modexp", "LYYWindowedOpt", cli.RECORDED_LIMITS["modexp"]),
    ("modmul_const", "LYY", cli.RECORDED_LIMITS["modmul_const"]),
    ("const_adder", "QFT", cli.DEFAULT_RECORDED_LIMIT),
)


def base_pool(n: int) -> list[int]:
    """Deterministic pool of modexp bases for N = 2^n - 1, catalog base first."""
    a0, N = catalog.modexp_constants(n)
    pool = [a0]
    rng = random.Random(n)
    while len(pool) < MODEXP_BASE_POOL:
        a = rng.randrange(2, N)
        if math.gcd(a, N) == 1 and a not in pool:
            pool.append(a)
    return pool


def modexp_sizes() -> list[int]:
    return sorted(set(MODEXP_OPT_GRID) | {n for n, _ in MODEXP_WINDOW_SCANS})


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a pass needs that depends on the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "modexp-sweep":
        rng = random.Random(seed)
        default = seed == catalog.DEFAULT_SEED
        return {"bases": {
            n: base_pool(n)[0 if default else rng.randrange(MODEXP_BASE_POOL)]
            for n in modexp_sizes()
        }}
    if workload == "verify":
        return {"seed": seed}
    # The sweep and Pareto instances are fixed catalog entries with no random
    # inputs, so the seed changes nothing in them.
    return {}


# -- timed passes ----------------------------------------------------------------

def _no_item(*_):
    return contextlib.nullcontext()


def _sweep(op_class, algorithms, grid, item) -> list[cli.SweepRecord]:
    # One sweep_records call per point gives the tracer an item boundary; the
    # rows equal those of a single call over the same grid.
    records = []
    for algo in algorithms:
        for n in grid:
            with item(op_class, algo, n):
                records.extend(cli.sweep_records(op_class, [algo], n, n))
    return records


def _modexp_point(algo: str, n: int, a: int, item) -> cli.SweepRecord:
    """One `qarith sweep` row for modexp with an explicit base a."""
    N = (1 << n) - 1
    with item("modexp", algo, n):
        counts = resources.lower(modexp.build_modexp(algo, a, N, n, counting=True))
        est = physical.estimate(counts, physical.PhysicalParams(), num_factories=1)
    return cli.SweepRecord(
        "modexp", algo, n, counts.qubits, counts.t_count, counts.toffoli_count,
        counts.cnot_count, counts.rotation_count, counts.depth, counts.t_depth,
        est.code_distance, est.physical_qubits, est.runtime_seconds,
        est.num_factories,
    )


def _write_csv(records, name: str) -> str:
    Path(name).write_text(cli.render(records, "csv"))
    return name


def run(workload: str, inputs: dict, tracer=None) -> dict:
    """One pass of `workload`; writes its CSV files into the current directory."""
    item = tracer.item if tracer is not None else _no_item
    if workload == "modexp-sweep":
        bases = inputs["bases"]
        opt = [_modexp_point("LYYWindowedOpt", n, bases[n], item)
               for n in MODEXP_OPT_GRID]
        window = [_modexp_point(f"LYYWindowed({w})", n, bases[n], item)
                  for n, ws in MODEXP_WINDOW_SCANS for w in ws]
        opt_csv = _write_csv(opt, "modexp_opt.csv")
        window_csv = _write_csv(window, "modexp_window.csv")
        return {
            "rows": opt + window,
            "fits": {"slope": cli.fit_report(opt_csv, "slope"),
                     "window": cli.fit_report(window_csv, "window")},
        }
    if workload == "arith-sweep":
        mult = _sweep("multiplier", MULT_ALGOS, MULT_GRID, item)
        add = _sweep("inplace_adder", ADDER_ALGOS, ADDER_GRID, item)
        div = _sweep("divider", DIVIDER_ALGOS, DIVIDER_GRID, item)
        mult_csv = _write_csv(mult, "mult.csv")
        add_csv = _write_csv(add, "adders.csv")
        _write_csv(div, "dividers.csv")
        return {
            "rows": mult + add + div,
            "fits": {"tipping": cli.fit_report(mult_csv, "tipping"),
                     "mult_slope": cli.fit_report(mult_csv, "slope"),
                     "adder_slope": cli.fit_report(add_csv, "slope")},
        }
    if workload == "verify":
        reports = []
        for op_class, algo, n_max in VERIFY_SPECS:
            reports.extend(catalog.verify_range(op_class, algo, n_max, inputs["seed"]))
        return {"reports": reports}
    frontiers = []
    for op_class, algo, n in PARETO_SPECS:
        with item(op_class, algo, n):
            records = cli.pareto_records(op_class, algo, n)
            cli.render(records, "csv")
        frontiers.append(records)
    return {"frontiers": frontiers}


# -- untimed checks --------------------------------------------------------------

def row_key(op_class: str, algo: str, n: int, a: int | None = None) -> str:
    key = f"{op_class}/{algo}/n={n}"
    return key if a is None else f"{key}/a={a}"


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def count_columns(record) -> list[int]:
    return [getattr(record, c) for c in COUNT_COLUMNS]


def _parse_fit(text: str) -> dict[str, float]:
    """`algo: slope=... intercept=...` lines -> {algo: slope}."""
    out = {}
    for line in text.splitlines():
        algo, _, rest = line.partition(": slope=")
        if rest:
            out[algo] = float(rest.split()[0])
    return out


class _Checker:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def rows(self, records, expected_rows, base_of=None) -> None:
        for r in records:
            a = base_of(r.n) if base_of else None
            key = row_key(r.op_class, r.algorithm, r.n, a)
            want = expected_rows.get(key)
            got = count_columns(r)
            self.op(got == want, f"{key}: counts {got}, want {want}")

    def slopes(self, text: str, ranges: dict[str, tuple[float, float]]) -> None:
        slopes = _parse_fit(text)
        bad = [
            f"{algo} slope {slopes.get(algo)} outside [{lo}, {hi}]"
            for algo, (lo, hi) in ranges.items()
            if not (algo in slopes and lo <= slopes[algo] <= hi)
        ]
        self.op(not bad, "; ".join(bad))


def _window_argmins(rows) -> dict[int, int]:
    best: dict[int, tuple[int, int]] = {}
    for r in rows:
        _, w = modexp.parse_modexp(r.algorithm)
        if r.n not in best or (r.t_count, w) < best[r.n]:
            best[r.n] = (r.t_count, w)
    return {n: w for n, (_, w) in best.items()}


def _check_window(c: _Checker, rows, fit_text: str) -> None:
    predicted = {
        int(n): int(w)
        for n, w in re.findall(r"^n=(\d+): predicted optimal w=(\d+)$", fit_text, re.M)
    }
    bad = []
    for n, _ in MODEXP_WINDOW_SCANS:
        formula = modexp.optimal_window(n)
        for label, w in (("argmin", _window_argmins(rows).get(n)),
                         ("fit", predicted.get(n))):
            if w is None or abs(w - formula) > WINDOW_TOLERANCE:
                bad.append(f"n={n}: {label} w={w}, formula w={formula}")
    c.op(not bad, "window optimum: " + "; ".join(bad))


def _check_crosscheck(c: _Checker, rows, bases) -> None:
    """Counting tallies of the swept row equal the lowered recorded build."""
    n = MODEXP_CROSSCHECK_N
    row = next(r for r in rows if r.algorithm == "LYYWindowedOpt" and r.n == n)
    recorded = resources.lower_to_clifford_t(
        modexp.build_modexp("LYYWindowedOpt", bases[n], (1 << n) - 1, n)
    )
    want = [recorded.qubits, recorded.t_count, recorded.toffoli_count,
            recorded.cnot_count, recorded.rotation_count]
    c.op(count_columns(row) == want,
         f"modexp n={n} a={bases[n]}: counting {count_columns(row)} "
         f"!= recorded {want}")


def _frontier_ordered(records) -> bool:
    return bool(records) and all(
        nxt.runtime_seconds > prev.runtime_seconds
        and nxt.physical_qubits < prev.physical_qubits
        for prev, nxt in zip(records, records[1:])
    )


def check(workload: str, inputs: dict, outputs: dict, expected: dict) -> tuple[int, list[str]]:
    """(operations attempted, failure messages) for one pass's outputs."""
    c = _Checker()
    rows = expected["rows"]
    if workload == "modexp-sweep":
        bases = inputs["bases"]
        c.rows(outputs["rows"], rows, base_of=bases.__getitem__)
        lo, hi = SLOPE_RANGES["modexp_opt"]
        c.slopes(outputs["fits"]["slope"], {"LYYWindowedOpt": (lo, hi)})
        window = [r for r in outputs["rows"] if r.algorithm != "LYYWindowedOpt"]
        _check_window(c, window, outputs["fits"]["window"])
        _check_crosscheck(c, outputs["rows"], bases)
    elif workload == "arith-sweep":
        c.rows(outputs["rows"], rows)
        fits = outputs["fits"]
        tip = re.search(r": n=(\d+)$", fits["tipping"].strip())
        c.op(tip is not None and int(tip[1]) <= TIPPING_LIMIT,
             f"tipping point: {fits['tipping'].strip()}")
        c.slopes(fits["mult_slope"], {"Schoolbook": SLOPE_RANGES["schoolbook"],
                                      "Karatsuba-8": SLOPE_RANGES["karatsuba8"]})
        c.slopes(fits["adder_slope"], {a: SLOPE_RANGES["ripple_adder"]
                                       for a in RIPPLE_CARRY_ADDERS})
    elif workload == "verify":
        cases = expected["verify_cases"]
        seen = {row_key(r.op_class, r.algorithm, r.n) for r in outputs["reports"]}
        c.op(seen == set(cases), f"verified instances: missing "
             f"{sorted(set(cases) - seen)}, unexpected {sorted(seen - set(cases))}")
        for r in outputs["reports"]:
            key = row_key(r.op_class, r.algorithm, r.n)
            c.op(r.ok and r.cases == cases.get(key),
                 f"{key}: ok={r.ok} cases={r.cases} (want {cases.get(key)}) "
                 f"{r.failure or ''}")
    else:
        for (op_class, algo, n), records in zip(PARETO_SPECS, outputs["frontiers"]):
            key = row_key(op_class, algo, n)
            bad = [count_columns(r) for r in records
                   if count_columns(r) != rows.get(key)]
            c.op(_frontier_ordered(records) and not bad,
                 f"{key}: frontier of {len(records)} points, "
                 f"counts {bad[:1]} want {rows.get(key)}")
    return c.attempted, c.failures
