"""Regression harness binding the comparative claims to executable checks.

Each acceptance criterion is one ClaimCheck.  Comparative claims stated on
physical qubits/runtime are checked on logical proxies (qubit count,
T count); where that substitution happens the claim description says so.
The claim list is closed: `run_claims` fails its self-audit if the checks
drift out of sync with EXPECTED_CLAIM_IDS.
"""
from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import catalog
from .adders import RIPPLE_CARRY_ADDERS
from .analysis import SweepSeries, find_tipping_point, fit_power_law, log_grid
from .circuit import ALL_KINDS, Circuit, adjoint
from .modexp import build_modexp, optimal_window
from .muldiv import DIVIDER_ADDERS, DIVIDERS
from .physical import PhysicalParams, pareto_frontier
from .resources import lower
from .sim import basis_dtype

EXPECTED_CLAIM_IDS = tuple(f"AC{i}" for i in range(1, 12))
ADJOINT_SAMPLES = 4096  # seeded states per wide circuit in the adjoint check


@dataclass
class ClaimCheck:
    claim_id: str
    description: str
    status: str  # "pass" | "fail" | "skipped"
    observed: str

    def as_dict(self) -> dict:
        return asdict(self)


def _claim(claim_id, description, ok, observed) -> ClaimCheck:
    return ClaimCheck(claim_id, description, "pass" if ok else "fail", observed)


def _verify_all(specs, seed) -> tuple[int, list[str]]:
    """(total cases, failure lines) of catalog.verify over (op, algo, sizes)
    specs."""
    reports = [catalog.verify(op, algo, n, seed)
               for op, algo, sizes in specs for n in sizes]
    failures = [f"{r.op_class}/{r.algorithm} n={r.n}: {r.failure}"
                for r in reports if not r.ok]
    return sum(r.cases for r in reports), failures


def _check_adders(seed) -> ClaimCheck:
    adder_classes = ("inplace_adder", "outofplace_adder", "const_adder", "subtractor")
    specs = [(op, algo, range(1, 7))
             for op, algo, _ in catalog.catalog() if op in adder_classes]
    start = time.monotonic()
    cases, failures = _verify_all(specs, seed)
    dt = time.monotonic() - start
    return _claim(
        "AC1",
        "Adder oracle equivalence: exhaustive basis-state checks for every "
        "in-place, out-of-place, constant adder and subtractor (n 1..6; QFT "
        "variants on product states), within the 10-minute budget",
        not failures and dt < 600.0,
        failures[0] if failures else f"{cases} cases, all match, {dt:.1f}s",
    )


def _check_multipliers(seed) -> ClaimCheck:
    specs = [
        ("multiplier", "Schoolbook", range(2, 5)),
        ("multiplier", "Karatsuba", range(2, 5)),
        ("multiplier", "Karatsuba(2)", range(2, 5)),  # forces real recursion
        ("multiplier", "Karatsuba-8", [8]),           # randomized 1000 cases
    ]
    cases, failures = _verify_all(specs, seed)
    return _claim(
        "AC2",
        "Multiplier equivalence: Schoolbook and Karatsuba exhaustive for "
        "n 2..4 (plus piece-size-2 recursion), Karatsuba-8 with 1000 seeded "
        "random cases at n=8",
        not failures,
        failures[0] if failures else f"{cases} cases, all products equal a*b",
    )


def _check_dividers(seed) -> ClaimCheck:
    specs = [(op, algo, range(2, 5))
             for op, algo, _ in catalog.catalog() if op == "divider"]
    cases, failures = _verify_all(specs, seed)
    return _claim(
        "AC3",
        "Divider equivalence: both kinds x {Gidney, TTK, CDKM}, exhaustive "
        "over all a and b > 0 for n 2..4, outputs (a mod b, floor(a/b))",
        not failures,
        failures[0] if failures else f"{cases} cases (b > 0), all match",
    )


def _check_modexp(seed) -> ClaimCheck:
    description = (
        "ModExp equivalence: LYY and LYYWindowed(w), w in {1,2,3}, n 2..4, "
        "N = 2^n - 1, every coprime a, all x match a^x mod N"
    )
    cases = 0
    for n in (2, 3, 4):
        N = (1 << n) - 1
        coprime = [a for a in range(2, N) if math.gcd(a, N) == 1]
        for algo in ("LYY", "LYYWindowed(1)", "LYYWindowed(2)", "LYYWindowed(3)"):
            for a in coprime:
                check = catalog.check_oracle(
                    build_modexp(algo, a, N, n), *catalog.modexp_space(a, N, n), seed)
                if check.failure:
                    return _claim("AC4", description, False,
                                  f"{algo} a={a} N={N}: {check.failure}")
                cases += check.cases
    return _claim("AC4", description, True, f"{cases} cases, all match")


def _check_structure(seed) -> ClaimCheck:
    sample = [catalog.build(*spec) for spec in (
        ("inplace_adder", "TTK", 5),
        ("inplace_adder", "Gidney", 3),
        ("inplace_adder", "CDKM", 4),
        ("outofplace_adder", "DKRS", 3),
        ("multiplier", "Karatsuba(2)", 2),
        ("divider", "NonRestoring+TTK", 2),
        ("modexp", "LYYWindowed(2)", 3),
        ("table_lookup", "UnaryIteration", 3),
        ("inplace_adder", "QFT", 3),
    )]
    rng = random.Random(seed)
    problems = []
    for c in sample:
        # The alphabet is measurement- and reset-free by construction; the
        # scan guards against alphabet drift.
        bad = [kind for kind, _, _ in c.gates if kind not in ALL_KINDS]
        if bad:
            problems.append(f"{c.name}: non-unitary kinds {bad}")
        # Every basis state up to 16 qubits; past that the 0, 1 and all-ones
        # corners plus a seeded sample.
        n = c.num_qubits
        states = np.arange(1 << n) if n <= 16 else np.array(
            [0, 1, (1 << n) - 1,
             *(rng.getrandbits(n) for _ in range(ADJOINT_SAMPLES))],
            dtype=basis_dtype(n))
        combined = Circuit(num_qubits=n, gates=c.gates + adjoint(c).gates)
        outs, is_basis, _ = catalog.simulate_basis(combined, states)
        if not np.all(is_basis) or not np.array_equal(outs, states):
            problems.append(f"{c.name}: adjoint composition is not identity")
    return _claim(
        "AC5",
        "Structural invariants: unitary gate alphabet (no measurement or "
        "reset), adjoint composition is the identity permutation, ancillas "
        "end clean on every tested input (enforced by every oracle check)",
        not problems,
        problems[0] if problems else "alphabet scan + adjoint identity hold",
    )


SLOPE_RANGES = {
    "ripple_adder": (0.9, 1.15),
    "schoolbook": (1.85, 2.3),
    "karatsuba8": (1.4, 1.95),
    "modexp_opt": (2.6, 3.3),
}


def _series(op_class, algo, grid, column) -> SweepSeries:
    """One counting-build column of catalog.measure over a size grid."""
    return SweepSeries(f"{op_class}/{algo}", tuple(
        (n, float(getattr(catalog.measure(op_class, algo, n), column)))
        for n in grid))


def slope_of(op_class, algo, grid) -> float:
    slope, _ = fit_power_law(_series(op_class, algo, grid, "t_count"))
    return slope


_SLOPES = (  # (label, op_class, algorithm, grid, accepted slope range)
    *((f"adder[{algo}]", "inplace_adder", algo, log_grid(16, 4096),
       SLOPE_RANGES["ripple_adder"]) for algo in RIPPLE_CARRY_ADDERS),
    ("schoolbook", "multiplier", "Schoolbook", log_grid(16, 1024),
     SLOPE_RANGES["schoolbook"]),
    ("karatsuba8", "multiplier", "Karatsuba-8", [1 << k for k in range(5, 13)],
     SLOPE_RANGES["karatsuba8"]),
    ("modexp_opt", "modexp", "LYYWindowedOpt", log_grid(8, 128),
     SLOPE_RANGES["modexp_opt"]),
)


def _check_slopes(seed) -> ClaimCheck:
    start = time.monotonic()
    observed = []
    ok = True
    for label, op_class, algo, grid, (lo, hi) in _SLOPES:
        slope = slope_of(op_class, algo, grid)
        inside = lo <= slope <= hi
        ok = ok and inside
        observed.append(f"{label}={slope:.3f}{'' if inside else f' OUTSIDE [{lo},{hi}]'}")
    dt = time.monotonic() - start
    return _claim(
        "AC6",
        "Asymptotic T-count slopes over the 2^(1/4) grid: ripple adders in "
        "[0.9, 1.15], Schoolbook in [1.85, 2.3], Karatsuba-8 (power-of-2 "
        "2^5..2^12) in [1.4, 1.95], windowed-opt ModExp (2^3..2^7) in "
        "[2.6, 3.3]; T-count is the logical proxy for the runtime slopes; "
        "sweep must finish inside an hour",
        ok and dt < 3600.0,
        "; ".join(observed) + f" ({dt:.1f}s)",
    )


def _check_tipping(seed) -> ClaimCheck:
    grid = [1 << k for k in range(3, 14)]
    n_star = find_tipping_point(*(
        _series("multiplier", algo, grid, "toffoli_count")
        for algo in ("Schoolbook", "Karatsuba-8")))
    ok = n_star is not None and n_star <= (1 << 13)
    return _claim(
        "AC7",
        "Tipping point: Karatsuba-8 Toffoli count drops below Schoolbook at "
        "some power-of-2 n* <= 2^13 and stays below through the grid",
        ok,
        f"n* = {n_star}" if n_star else "no sustained crossover up to 2^13",
    )


def _check_window_optimum(seed) -> ClaimCheck:
    observed = []
    ok = True
    for n in (16, 32):
        costs = {
            w: catalog.measure("modexp", f"LYYWindowed({w})", n).t_count
            for w in range(1, min(n, 16) + 1)
        }
        best = min(costs, key=lambda w: (costs[w], w))
        predicted = optimal_window(n)
        ok = ok and abs(best - predicted) <= 3
        observed.append(f"n={n}: argmin w={best}, formula w={predicted}")
    return _claim(
        "AC8",
        "Window optimum: brute-force argmin of LYYWindowed(w) T-count over "
        "w in 1..min(n,16) at n in {16, 32} lies within 3 of "
        "floor(2 log2 n + 0.5)",
        ok,
        "; ".join(observed),
    )


def _check_design_space(seed) -> ClaimCheck:
    observed = []
    ok = True
    algos = [algo for op, algo, _ in catalog.catalog() if op == "divider"]
    for n in (8, 16, 32):
        rows = sorted(((algo, catalog.measure("divider", algo, n)) for algo in algos),
                      key=lambda r: (r[1].qubits, r[1].t_count))
        best_algo, best_counts = rows[0]
        _, best_adder = DIVIDERS[best_algo]
        if best_adder != "TTK":
            ok = False
            observed.append(f"n={n}: min-qubit adder {best_adder}")
        else:
            observed.append(f"n={n}: min qubits {best_counts.qubits} ({best_algo})")
        tmap = {DIVIDERS[algo]: c.t_count for algo, c in rows}
        for adder in DIVIDER_ADDERS:
            if not tmap[("NonRestoring", adder)] < tmap[("Restoring", adder)]:
                ok = False
                observed.append(f"n={n}: NR not below R for {adder}")
    return _claim(
        "AC9",
        "Design-space ordering among the 6 divider configurations at n in "
        "{8, 16, 32}: a TTK-based divider minimises logical qubit count and "
        "non-restoring beats restoring on T-count at equal adder (logical "
        "proxies for the physical-qubit/runtime claims)",
        ok,
        "; ".join(observed),
    )


def _check_pareto(seed, params) -> ClaimCheck:
    problems = []
    fronts = {key: pareto_frontier(lower(catalog.build(*key)), params) for key in (
        ("multiplier", "Schoolbook", 32),
        ("const_adder", "QFT", 32),
        ("const_adder", "ViaInPlace(Gidney)", 32),
        ("divider", "NonRestoring+TTK", 16),
    )}
    for key, front in fronts.items():
        for prev, nxt in zip(front, front[1:]):
            if not (
                nxt.runtime_seconds > prev.runtime_seconds
                and nxt.physical_qubits < prev.physical_qubits
            ):
                problems.append(f"{key}: dominated or unordered point")
                break
    ratio = {key[1]: front[-1].runtime_seconds / front[0].runtime_seconds
             for key, front in fronts.items() if key[0] == "const_adder"}
    if not ratio["QFT"] > ratio["ViaInPlace(Gidney)"]:
        problems.append(
            f"QFT ratio {ratio['QFT']:.1f} not above Gidney "
            f"{ratio['ViaInPlace(Gidney)']:.1f}"
        )
    school_points = len(fronts[("multiplier", "Schoolbook", 32)])
    if school_points > 8:
        problems.append(f"Schoolbook n=32 frontier has {school_points} points")
    return _claim(
        "AC10",
        "Pareto properties: every frontier is non-dominated and ordered; the "
        "QFT constant adder frontier at n=32 spans a strictly larger max/min "
        "runtime ratio than the Gidney-based constant adder frontier",
        not problems,
        problems[0] if problems else (
            f"ratios: QFT {ratio['QFT']:.1f} vs Gidney "
            f"{ratio['ViaInPlace(Gidney)']:.1f}; Schoolbook frontier "
            f"{school_points} points"
        ),
    )


def _check_non_reproduction(seed) -> ClaimCheck:
    return _claim(
        "AC11",
        "Explicit non-reproduction: absolute physical qubit counts and "
        "runtimes of the reference figures are not reproduced bit-exact; the "
        "independent cost model plus the property suite above substitutes "
        "for figure matching",
        True,
        "documented model boundary; no figure-matching assertions exist",
    )


def run_claims(params: PhysicalParams | None = None,
               seed: int = catalog.DEFAULT_SEED) -> list[ClaimCheck]:
    """Execute every acceptance criterion at desk scale."""
    params = params or PhysicalParams()
    checks = [
        _check_adders(seed),
        _check_multipliers(seed),
        _check_dividers(seed),
        _check_modexp(seed),
        _check_structure(seed),
        _check_slopes(seed),
        _check_tipping(seed),
        _check_window_optimum(seed),
        _check_design_space(seed),
        _check_pareto(seed, params),
        _check_non_reproduction(seed),
    ]
    ids = [c.claim_id for c in checks]
    if tuple(ids) != EXPECTED_CLAIM_IDS or len(set(ids)) != len(ids):
        raise RuntimeError(
            f"claim self-audit failed: got {ids}, expected {EXPECTED_CLAIM_IDS}"
        )
    return checks


def claims_markdown(checks: list[ClaimCheck]) -> str:
    lines = ["# Acceptance claim report", ""]
    lines.append("| claim | status | observed |")
    lines.append("|-------|--------|----------|")
    for c in checks:
        lines.append(f"| {c.claim_id} | {c.status} | {c.observed} |")
    lines.append("")
    for c in checks:
        lines.append(f"## {c.claim_id}")
        lines.append(c.description)
        lines.append("")
    return "\n".join(lines)


def claims_json(checks: list[ClaimCheck]) -> str:
    return json.dumps([c.as_dict() for c in checks], indent=2) + "\n"


def write_reports(checks, md_path, json_path) -> None:
    with open(md_path, "w") as fh:
        fh.write(claims_markdown(checks))
    with open(json_path, "w") as fh:
        fh.write(claims_json(checks))
