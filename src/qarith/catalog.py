"""Registry of constructible operations: builders, oracles, verification.

Everything the CLI and the claims harness touch goes through this module so
that op-class and algorithm names stay consistent (and `list` output stays
stable across runs).
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from . import adders, modexp, muldiv, sim
from .circuit import (
    PERMUTATION_KINDS,
    Circuit,
    CircuitError,
    encode_register,
    parse_name,
    register_value,
)
from .resources import LogicalCounts, lower
from .sim import basis_dtype, simulate_permutation_batch, simulate_product

DEFAULT_SEED = 12345
RANDOM_CASE_LIMIT = 4096  # above this many exhaustive cases, sample 1000
RANDOM_SAMPLES = 1000
PHASE_TOL = 1e-9  # non-permutation outputs must share one phase to this tolerance
TABLE_LOOKUP_N_MAX = 20  # the seeded table has 2^n entries; memory doubles per bit

# op class -> (listed algorithms, parameter slots, smallest verified size)
_LISTED: dict[str, tuple[tuple[str, ...], str, int]] = {
    "inplace_adder": (adders.IN_PLACE_ADDERS, "n", 1),
    "outofplace_adder": (adders.OUT_OF_PLACE_ADDERS, "n", 1),
    "const_adder": (tuple(adders.CONST_ADDERS),
                    "n (constant: sum of 4^i, i <= ceil(n/2))", 1),
    "subtractor": (adders.IN_PLACE_ADDERS, "n", 1),
    "multiplier": (tuple(muldiv.MULTIPLIERS), "n (also Karatsuba(piece_size))", 1),
    "divider": (tuple(name for name, (_, adder) in muldiv.DIVIDERS.items()
                      if adder in muldiv.DIVIDER_ADDERS), "n", 1),
    "modexp": (("LYY", "LYYWindowed(1)", "LYYWindowed(11)", "LYYWindowedOpt"),
               "n (N = 2^n - 1; also LYYWindowed(w))", 2),
    "modmul_const": (("LYY",), "n (N = 2^n - 1)", 2),
    "table_lookup": (("UnaryIteration",),
                     "n (n address bits, n data bits, seeded random table)", 1),
}
OP_CLASSES = tuple(_LISTED)

# Not called here: perfbench/spans.py patches this name when a traced run
# starts, so it stays bound until the tracer reads in-library counters.
simulate_statevector = sim.simulate_statevector


def catalog() -> list[tuple[str, str, str]]:
    """(op_class, algorithm, parameter slots) rows in stable order."""
    return [(op, algo, slots)
            for op, (algos, slots, _) in _LISTED.items() for algo in algos]


def modexp_constants(n: int) -> tuple[int, int]:
    """Benchmark (a, N): N = 2^n - 1 and a from 5^24 + 24^5, made coprime."""
    N = (1 << n) - 1
    a = (5**24 + 24**5) % N
    while a < 2 or math.gcd(a, N) != 1:
        a += 1
    return a, N


def modexp_space(a: int, N: int, n: int):
    """(register value ranges, oracle) of |x>|0> -> |x>|a^x mod N> on n-bit
    registers."""
    return {"x": range(1 << n), "out": [0]}, (
        lambda x, out: {"out": np.frompyfunc(pow, 3, 1)(a, x, N)})


def _instance(op_class: str, algorithm: str, n: int, seed: int):
    """(builder, its arguments before `counting`, register value ranges,
    oracle) for one op instance."""
    if op_class not in _LISTED:
        raise CircuitError(f"unknown op class {op_class!r}")
    if n < _LISTED[op_class][2]:
        raise CircuitError(f"register size n must be >= {_LISTED[op_class][2]}")
    size = 1 << n
    pair = {"a": range(size), "b": range(size)}
    if op_class == "inplace_adder":
        return (adders.build_inplace_adder, (algorithm, n), pair,
                lambda a, b: {"b": (a + b) % size})
    if op_class == "outofplace_adder":
        return (adders.build_outofplace_adder, (algorithm, n), {**pair, "sum": [0]},
                lambda a, b, sum: {"sum": (a + b) % size})
    if op_class == "const_adder":
        k = adders.spec_constant(n)
        return (adders.build_const_adder, (algorithm, n, k), {"b": range(size)},
                lambda b: {"b": (b + k) % size})
    if op_class == "subtractor":
        return (adders.build_subtractor, (algorithm, n), pair,
                lambda a, b: {"b": (b - a) % size})
    if op_class == "multiplier":
        return (muldiv.build_multiplier, (algorithm, n), {**pair, "prod": [0]},
                lambda a, b, prod: {"prod": a * b})
    if op_class == "divider":
        return (muldiv.build_divider, (algorithm, n),
                {"a": range(size), "b": range(1, size), "q": [0]},
                lambda a, b, q: {"a": a % b, "q": a // b})
    if op_class == "modexp":
        a, N = modexp_constants(n)
        return (modexp.build_modexp, (algorithm, a, N, n), *modexp_space(a, N, n))
    if op_class == "modmul_const":
        parse_name(algorithm, "modmul algorithm", dict.fromkeys(_LISTED[op_class][0]))
        a, N = modexp_constants(n)
        return (modexp.build_modmul_const, (a, N, n), {"x": range(N)},
                lambda x: {"x": a * x % N})
    # table_lookup
    parse_name(algorithm, "lookup algorithm", dict.fromkeys(_LISTED[op_class][0]))
    if n > TABLE_LOOKUP_N_MAX:
        raise CircuitError(f"table_lookup draws a 2^n-entry table; "
                           f"n must be <= {TABLE_LOOKUP_N_MAX}")
    rng = np.random.default_rng(seed)
    table = modexp.LookupTable(
        n, tuple(int(v) for v in rng.integers(0, size, size=size)))
    return (modexp.build_table_lookup, (table, n),
            {"addr": range(size), "y": range(size)},
            lambda addr, y: {
                "y": y ^ np.array(table.entries, dtype=object)[addr.astype(int)]})


def build(op_class: str, algorithm: str, n: int, counting: bool = False,
          seed: int = DEFAULT_SEED):
    """Construct the named operation at size n (Circuit or CountSummary)."""
    builder, args, _, _ = _instance(op_class, algorithm, n, seed)
    return builder(*args, counting)


def measure(op_class: str, algorithm: str, n: int,
            recorded: bool = False) -> LogicalCounts:
    """Lowered Clifford+T counts for one operation instance."""
    return lower(build(op_class, algorithm, n, counting=not recorded))


# -- verification ------------------------------------------------------------------

@dataclass
class VerifyReport:
    op_class: str
    algorithm: str
    n: int
    cases: int
    ok: bool
    failure: str | None = None
    exhaustive: bool = True


def _space_size(space) -> int:
    """Number of values in a range or sequence; a range's len() overflows
    past 2^63, so its size is taken from its bounds."""
    if isinstance(space, range):
        return max(0, -((space.start - space.stop) // space.step))
    return len(space)


def simulate_basis(circuit: Circuit, states):
    """(outputs, which are basis states, their phases or None) of `circuit` on
    the basis inputs `states`: bit-sliced for a permutation circuit, else on
    product states (sim.simulate_product), where a NaN phase marks a case
    that a gate entangled."""
    if all(kind in PERMUTATION_KINDS for kind, _, _ in circuit.gates):
        return (simulate_permutation_batch(circuit, states),
                np.ones(len(states), dtype=bool), None)
    return simulate_product(circuit, states)


@dataclass(frozen=True)
class OracleCheck:
    cases: int
    exhaustive: bool
    failure: str | None = None  # the first counterexample


def check_oracle(circuit: Circuit, inputs: dict, oracle,
                 seed: int = DEFAULT_SEED) -> OracleCheck:
    """Check a circuit against a classical oracle on basis inputs.

    inputs maps register names to the values to try (a range or a sequence,
    never empty); the cases are their cartesian product, exhaustive up to
    RANDOM_CASE_LIMIT and above it RANDOM_SAMPLES cases drawn by index from
    each space's bounds with `random.Random(seed)`, so only sampled values
    are made.  Every value must fit its register.
    The cases are checked as columns.  oracle(**columns) is called once, each
    column a 1-D object array of Python ints (exact at any width), one entry
    per case; it returns {register: column, or an int for every case} for
    the registers it sets.  Every other data register must come out as it
    went in (0 if not named in inputs) and every ancilla clean.  Circuits
    with non-permutation gates are run on product states (simulate_basis):
    a case that a gate entangles fails, so does a non-basis output, and
    every case's output amplitude must carry the first case's phase (a
    global phase is ignored, a relative one is a failure).
    numpy finds the first failing case, and only that case is explained.
    """
    names = list(inputs)
    sizes = [_space_size(inputs[name]) for name in names]
    for name, size in zip(names, sizes):
        if size < 1:
            raise CircuitError(f"register {name} has no values to try")
    exhaustive = math.prod(sizes) <= RANDOM_CASE_LIMIT
    if exhaustive:  # itertools.product order
        spaces = [inputs[name] for name in names]
        picks = np.indices(sizes).reshape(len(sizes), math.prod(sizes))
    else:  # each space shrinks to its sampled column; no other value is made
        rng = random.Random(seed)
        draws = zip(*([rng.randrange(k) for k in sizes] for _ in range(RANDOM_SAMPLES)))
        spaces = [[inputs[name][i] for i in col] for name, col in zip(names, draws)]
        picks = np.tile(np.arange(RANDOM_SAMPLES), (len(names), 1))
    spaces = [np.array([int(v) for v in space], dtype=object) for space in spaces]
    count = picks.shape[1]
    regs = {r.name: r for r in circuit.data_registers}
    anc_mask = sum(1 << q for q in circuit.ancilla_qubits)
    dtype = basis_dtype(circuit.num_qubits)
    columns = {name: space[pick] for name, space, pick in zip(names, spaces, picks)}
    states = np.zeros(count, dtype=dtype)
    for name, space, pick in zip(names, spaces, picks):
        states |= np.array(encode_register(space, regs[name]), dtype=dtype)[pick]

    outs, basis, phases = simulate_basis(circuit, states)
    expected = oracle(**columns)

    def register_rule(rname, reg):
        got = register_value(outs, reg)
        want = np.empty(count, dtype=object)  # an unnamed register held 0
        want[:] = expected.get(rname, columns.get(rname, 0))
        return got != want, lambda i: f"register {rname} = {got[i]}, want {want[i]}"

    # Failure rules in the order a case is explained: the first rule whose
    # mask holds at the first flagged case names it.
    rules = [(~basis, lambda i: "not a basis state"),
             ((outs & anc_mask) != 0, lambda i: "dirty ancillas"),
             *(register_rule(rname, reg) for rname, reg in regs.items())]
    if phases is not None:  # an entangled case has a NaN phase and no basis output
        rules.insert(0, (np.isnan(phases),
                         lambda i: "entangled: a gate met superposed operands"))
        rules.append((abs(phases - phases[:1]) > PHASE_TOL, lambda i:
                      f"relative phase {cmath.phase(phases[i] / phases[0]):.6g} rad"))
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in rules]))
    if not len(bad):
        return OracleCheck(count, exhaustive)
    i = bad[0]
    reason = next(say(i) for mask, say in rules if mask[i])
    return OracleCheck(count, exhaustive,
                       f"{reason} for input { {n: c[i] for n, c in columns.items()} }")


def verify(op_class: str, algorithm: str, n: int,
           seed: int = DEFAULT_SEED) -> VerifyReport:
    """Check one operation instance against its classical oracle
    (check_oracle), exhaustively when the case count permits."""
    builder, args, inputs, oracle = _instance(op_class, algorithm, n, seed)
    check = check_oracle(builder(*args, False), inputs, oracle, seed)
    return VerifyReport(op_class, algorithm, n, check.cases,
                        check.failure is None, check.failure, check.exhaustive)


def verify_range(op_class: str, algorithm: str, n_max: int,
                 seed: int = DEFAULT_SEED) -> list[VerifyReport]:
    """Verify every size from the class minimum up to n_max; an n_max below
    the class minimum, which would check nothing, is refused."""
    if op_class not in OP_CLASSES:
        raise CircuitError(f"unknown op class {op_class!r}")
    n_min = _LISTED[op_class][2]
    if n_max < n_min:
        raise CircuitError(
            f"n_max {n_max} is below the smallest verified {op_class} size {n_min}"
        )
    return [
        verify(op_class, algorithm, n, seed) for n in range(n_min, n_max + 1)
    ]
