"""Batch driver: catalog listing, oracle verification, sweeps, Pareto
frontiers and curve fits over the emitted CSV/JSON reports.

Exit codes: 0 all requested checks passed, 1 a verification failed,
2 usage error (unknown algorithm, malformed input, bad flags).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields

from . import catalog
from .analysis import (
    AnalysisError,
    SweepSeries,
    WindowSample,
    find_tipping_point,
    fit_power_law,
    fit_window_model,
    log_grid,
    window_model_argmin,
)
from .circuit import CircuitError
from .modexp import parse_modexp
from .physical import EstimationError, PhysicalParams, estimate, pareto_frontier

# Recorded circuits give exact greedy depth; above these sizes the streaming
# counting path (serial depth composition) takes over to bound memory.
RECORDED_LIMITS = {"modexp": 16, "modmul_const": 24}
DEFAULT_RECORDED_LIMIT = 64


def _use_recorded(op_class: str, n: int) -> bool:
    return n <= RECORDED_LIMITS.get(op_class, DEFAULT_RECORDED_LIMIT)


@dataclass
class SweepRecord:
    op_class: str
    algorithm: str
    n: int
    logical_qubits: int
    t_count: int
    toffoli_count: int
    cnot_count: int
    rotation_count: int
    depth: int
    t_depth: int
    code_distance: int
    physical_qubits: int
    runtime_seconds: float
    num_factories: int

    def csv_row(self) -> str:
        # str(float) == repr(float), so floats print round-trip exact.
        return ",".join(str(getattr(self, f.name)) for f in fields(self))

    def as_dict(self) -> dict:
        return asdict(self)


CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))


def _record(op_class, algorithm, n, counts, est) -> SweepRecord:
    return SweepRecord(
        op_class, algorithm, n, counts.qubits, counts.t_count,
        counts.toffoli_count, counts.cnot_count, counts.rotation_count,
        counts.depth, counts.t_depth, est.code_distance,
        est.physical_qubits, est.runtime_seconds, est.num_factories,
    )


def sweep_records(op_class, algorithms, n_min, n_max,
                  params: PhysicalParams | None = None) -> list[SweepRecord]:
    """One single-factory record per (algorithm, grid point)."""
    params = params or PhysicalParams()
    grid = log_grid(n_min, n_max)
    records = []
    for algo in algorithms:
        for n in grid:
            counts = catalog.measure(op_class, algo, n)
            est = estimate(counts, params, num_factories=1)
            records.append(_record(op_class, algo, n, counts, est))
    return records


def pareto_records(op_class, algorithm, n,
                   params: PhysicalParams | None = None) -> list[SweepRecord]:
    """Frontier rows sorted by runtime ascending."""
    params = params or PhysicalParams()
    counts = catalog.measure(
        op_class, algorithm, n, recorded=_use_recorded(op_class, n)
    )
    return [
        _record(op_class, algorithm, n, counts, est)
        for est in pareto_frontier(counts, params)
    ]


def render(records: list[SweepRecord], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"
    if fmt == "json":
        return json.dumps([r.as_dict() for r in records], indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- fit modes --------------------------------------------------------------------

def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise AnalysisError(f"{path}: no data rows")
    needed = {"algorithm", "n", "t_count"}
    if not needed <= set(rows[0]):
        raise AnalysisError(f"{path}: missing columns {needed - set(rows[0])}")
    return rows


def _series_by_algorithm(rows) -> list[tuple[str, SweepSeries]]:
    order: list[str] = []
    points: dict[str, list] = {}
    for row in rows:
        algo = row["algorithm"]
        if algo not in points:
            order.append(algo)
            points[algo] = []
        points[algo].append((int(row["n"]), float(row["t_count"])))
    return [
        (algo, SweepSeries(algo, tuple(sorted(points[algo])))) for algo in order
    ]


def fit_report(path: str, mode: str) -> str:
    rows = _read_rows(path)
    lines = []
    if mode == "slope":
        for algo, series in _series_by_algorithm(rows):
            slope, intercept = fit_power_law(series)
            lines.append(f"{algo}: slope={slope:.6f} intercept={intercept:.6f}")
    elif mode == "tipping":
        series = _series_by_algorithm(rows)
        if len(series) != 2:
            raise AnalysisError("tipping mode needs exactly 2 algorithms in the CSV")
        (name_a, a), (name_b, b) = series
        n_star = find_tipping_point(a, b)
        if n_star is None:
            lines.append(f"tipping point ({name_b} below {name_a}): none")
        else:
            lines.append(f"tipping point ({name_b} below {name_a}): n={n_star}")
    elif mode == "window":
        samples = []
        for row in rows:
            variant, w = parse_modexp(row["algorithm"])
            if variant != "LYYWindowed":
                continue
            samples.append(WindowSample(int(row["n"]), w, float(row["t_count"])))
        c1, c2 = fit_window_model(samples)
        lines.append(f"window model: c1={c1:.6g} c2={c2:.6g}")
        for n in sorted({s.n for s in samples}):
            w_opt = window_model_argmin(c1, c2, n, w_max=min(n, 16))
            lines.append(f"n={n}: predicted optimal w={w_opt}")
    else:
        raise AnalysisError(f"unknown fit mode {mode!r}")
    return "\n".join(lines) + "\n"


# -- argument parsing ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qarith",
        description="Quantum arithmetic circuits: verify, sweep, estimate.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the (op_class, algorithm) catalog")

    p = sub.add_parser("verify", help="check circuits against classical oracles")
    p.add_argument("--op-class", required=True)
    p.add_argument("--algo", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)

    p = sub.add_parser("sweep", help="resource counts over the 2^(1/4) grid")
    p.add_argument("--op-class", required=True)
    p.add_argument("--algo", required=True, action="append")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.add_argument("--params", help="PhysicalParams file (key = value)")

    p = sub.add_parser("pareto", help="T-factory Pareto frontier at fixed n")
    p.add_argument("--op-class", required=True)
    p.add_argument("--algo", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.add_argument("--params")

    p = sub.add_parser("fit", help="slope / tipping / window fits on sweep CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("slope", "tipping", "window"), required=True)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for op, algo, slots in catalog.catalog():
                print(f"{op}/{algo}  [params: {slots}]")
            return 0
        if args.command == "verify":
            failures = 0
            for report in catalog.verify_range(
                args.op_class, args.algo, args.n_max, args.seed
            ):
                mode = ("exhaustive cases" if report.exhaustive
                        else f"random cases, seed {args.seed}")
                if report.ok:
                    print(
                        f"PASS {report.op_class}/{report.algorithm} n={report.n} "
                        f"({report.cases} {mode})"
                    )
                else:
                    failures += 1
                    print(
                        f"FAIL {report.op_class}/{report.algorithm} n={report.n}: "
                        f"{report.failure}"
                    )
            return 1 if failures else 0
        if args.command == "sweep":
            params = PhysicalParams.from_file(args.params) if args.params else None
            records = sweep_records(
                args.op_class, args.algo, args.n_min, args.n_max, params
            )
            _write(render(records, args.format), args.out)
            return 0
        if args.command == "pareto":
            params = PhysicalParams.from_file(args.params) if args.params else None
            records = pareto_records(args.op_class, args.algo, args.n, params)
            _write(render(records, args.format), args.out)
            return 0
        if args.command == "fit":
            sys.stdout.write(fit_report(args.input, args.mode))
            return 0
    except (CircuitError, EstimationError, AnalysisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
