"""Modular exponentiation circuits (plain and windowed) with table lookup.

The in-place modular multiply follows the compute/swap/uncompute pattern:
an out-of-place multiply-accumulate into a zero register, a register swap,
then the adjoint accumulate with the inverse constant to clear the scratch.
Modular reduction is compare-and-conditionally-subtract; the comparison
ancilla is cleared by an inverse comparison against the added constant, so
no measurement is needed anywhere.  Windowed variants process the exponent
in w-bit blocks through a unary-iteration table lookup of precomputed
powers and modular doublings of the looked-up multiplicand.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .adders import emit_complement, emit_const_load, emit_copy, inplace_adder
from .circuit import CCX, CNOT, X, Builder, CircuitError, parse_name

# listed names without a window; also `LYYWindowed(w)`, w >= 1
MODEXP_ALGOS = {"LYY": None, "LYYWindowedOpt": None}


@dataclass(frozen=True)
class LookupTable:
    address_bits: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.address_bits < 1:
            raise CircuitError("address_bits must be >= 1")
        if len(self.entries) != (1 << self.address_bits):
            raise CircuitError(
                f"table needs exactly {1 << self.address_bits} entries"
            )


def optimal_window(n: int) -> int:
    """Near-optimal ModExp window size floor(2*log2(n) + 0.5), clamped to [1, n]."""
    if n < 1:
        raise CircuitError("n must be >= 1")
    w = math.floor(2.0 * math.log2(n) + 0.5)
    return max(1, min(w, n))


def parse_modexp(algo: str) -> tuple[str, int | None]:
    """(variant, window) of a modexp name; the window of LYYWindowed(w) is w."""
    w = parse_name(algo, "modexp algorithm", MODEXP_ALGOS, "LYYWindowed")
    return (algo if w is None else "LYYWindowed", w)


# -- table lookup (unary iteration) --------------------------------------------

def emit_lookup(bld: Builder, addr, target, entries, ancs) -> None:
    """target ^= entries[addr] for a little-endian address register.

    Unary iteration over the address MSB-first; needs len(addr)-1 clean
    ancillas.  XOR semantics make the same emission its own inverse.

    Counting builders tally the tree in closed form (Babbush et al. 2018):
    an a-bit address has 2^a - 2 controlled internal nodes of 2 X, 2 CCX and
    1 CNOT each, the uncontrolled top level adds 2 X, and every leaf is a
    CNOT load of its entry's bits, summed in one popcount pass over the
    table.  Entries must be non-negative and fit the target:
    `build_table_lookup` checks a caller's table, and `_ModN.mul_table`
    looks up residues mod N.
    """
    if bld.counting and addr:
        nodes = (1 << len(addr)) - 2
        loads = sum(map(int.bit_count, entries))
        bld.bulk(X, 2 * nodes + 2)
        bld.bulk(CCX, 2 * nodes)
        bld.bulk(CNOT, nodes + loads)
        return

    _unary_iterate(bld, target, ancs, (), list(addr), list(entries), 0)


def _unary_iterate(bld: Builder, target, ancs, ctrls, bits, tab, depth) -> None:
    """The recording walk of `emit_lookup` over address `bits` (MSB last)
    and table slice `tab`, under `ctrls`.  Not a closure over itself: that
    cycle would keep the builder and its gates alive until a collection."""
    if not bits:
        emit_const_load(bld, target, tab[0], *ctrls)
        return
    a, rest = bits[-1], bits[:-1]
    half = len(tab) // 2
    lo, hi = tab[:half], tab[half:]
    if not ctrls:
        bld.x(a)
        _unary_iterate(bld, target, ancs, (a,), rest, lo, depth)
        bld.x(a)
        _unary_iterate(bld, target, ancs, (a,), rest, hi, depth)
    else:
        u = ancs[depth]
        bld.x(a)
        bld.ccx(*ctrls, a, u)
        bld.x(a)
        _unary_iterate(bld, target, ancs, (u,), rest, lo, depth + 1)
        bld.cnot(*ctrls, u)
        _unary_iterate(bld, target, ancs, (u,), rest, hi, depth + 1)
        bld.ccx(*ctrls, a, u)


def build_table_lookup(table: LookupTable, m: int, counting: bool = False):
    """|addr>|y> -> |addr>|y XOR table[addr]> with m-bit data qubits."""
    if m < 1:
        raise CircuitError("data width m must be >= 1")
    for e in table.entries:
        if not 0 <= e < (1 << m):
            raise CircuitError(f"table entry {e} does not fit {m} bits")
    bld = Builder(counting, f"table_lookup[{table.address_bits},{m}]")
    addr = bld.alloc_register(table.address_bits, "addr")
    y = bld.alloc_register(m, "y")
    ancs = (
        bld.alloc_ancilla(table.address_bits - 1, "lk").qubits
        if table.address_bits > 1
        else ()
    )
    emit_lookup(bld, addr.qubits, y.qubits, table.entries, ancs)
    return bld.finalize()


# -- modular arithmetic building blocks ------------------------------------------

class _ModN:
    """Arithmetic mod N on n-qubit registers holding values < N.

    Allocates the scratch every step shares, in this order: the accumulator
    `acc` (n), the overflow/compare flag `hi` (1), the comparator chain `cmp`
    (n), the constant/copy staging register `kload` (n + 1) and, last, the
    (n + 1)-bit Gidney adder handle `_accumulate` (n carries), which adds a
    staged operand into acc or (acc, hi).  The add, double and multiply
    methods emit into `bld` and return all scratch but `acc` clean.
    """

    def __init__(self, bld: Builder, n: int, N: int):
        self.bld, self.N = bld, N
        self.acc = bld.alloc_ancilla(n, "acc").qubits
        self.hi = bld.alloc_ancilla(1, "hi")[0]
        self.cmp = bld.alloc_ancilla(n, "cmp").qubits
        self.kload = bld.alloc_ancilla(n + 1, "kload").qubits
        self._accumulate = inplace_adder(bld, "Gidney", n + 1)

    def _reduce(self, t, ctrls) -> None:
        """(t, hi) -= N under `ctrls`, then t += N back where that borrowed into hi."""
        n, kq, N = len(t), self.kload, self.N
        m_n = (1 << (n + 1)) - N
        emit_const_load(self.bld, kq[:n + 1], m_n, *ctrls)
        self._accumulate(kq[:n + 1], list(t) + [self.hi])
        emit_const_load(self.bld, kq[:n + 1], m_n, *ctrls)
        emit_const_load(self.bld, kq[:n], N, *ctrls, self.hi)
        self._accumulate(kq[:n], t)
        emit_const_load(self.bld, kq[:n], N, *ctrls, self.hi)

    def _ge(self, chain, ctrls) -> None:
        """hi ^= (acc >= operand) [AND ctrls], computed as NOT carry(~acc +
        operand): `chain` ripples that carry into cmp on the complemented acc,
        and the reverse chain uncomputes it."""
        bld, t, carry = self.bld, self.acc, self.cmp[-1]

        def not_into(_):
            bld.mcx(ctrls + (carry,), self.hi)
            bld.mcx(ctrls, self.hi)

        emit_complement(bld, t)
        bld.within(chain, not_into)
        emit_complement(bld, t)

    def _add(self, load, chain, ctrls) -> None:
        """acc += the operand `load` stages in kload, mod N, under `ctrls`;
        `chain` computes the carry of ~acc + operand for `_ge`."""
        load()
        self._accumulate(self.kload, list(self.acc) + [self.hi])
        load()
        self._reduce(self.acc, ctrls)
        self._ge(chain, ctrls)

    def add_const(self, k: int, ctrls=()) -> None:
        """acc += k mod N under `ctrls`."""
        bld, t, chain = self.bld, self.acc, self.cmp
        k %= self.N
        if k == 0:
            return

        def ge_k():  # the carry of ~acc + k, for 1 <= k < 2^n
            if k & 1:
                bld.cnot(t[0], chain[0])
            for j in range(1, len(t)):
                if (k >> j) & 1:
                    bld.x(t[j])
                    bld.x(chain[j - 1])
                    bld.ccx(t[j], chain[j - 1], chain[j])
                    bld.x(chain[j])
                    bld.x(chain[j - 1])
                    bld.x(t[j])
                else:
                    bld.ccx(t[j], chain[j - 1], chain[j])

        bld.cached(("modadd", len(t), self.N, k & 1, k.bit_count(), len(ctrls)),
                   lambda: self._add(lambda: emit_const_load(bld, self.kload, k, *ctrls),
                                     ge_k, ctrls))

    def add(self, u, ctrls=()) -> None:
        """acc += u mod N for a quantum u < N under `ctrls`."""
        bld, t, chain = self.bld, self.acc, self.cmp

        def carry(j):
            bld.ccx(t[j], u[j], chain[j])
            bld.cnot(u[j], t[j])
            bld.ccx(t[j], chain[j - 1], chain[j])
            bld.cnot(u[j], t[j])

        def ge_u():  # the carry of ~acc + u
            bld.ccx(t[0], u[0], chain[0])
            bld.repeat(range(1, len(t)), carry)

        self._add(lambda: emit_copy(bld, u, self.kload[:len(t)], *ctrls), ge_u, ctrls)

    def double(self, reg) -> None:
        """reg -> 2 reg mod N in place (N odd; the parity of the result clears hi)."""
        bld, y = self.bld, list(reg) + [self.hi]
        bld.repeat(range(len(reg) - 1, -1, -1), lambda j: bld.swap(y[j + 1], y[j]))
        self._reduce(reg, ())
        bld.cnot(reg[0], self.hi)
        bld.x(self.hi)

    def mul_const(self, x, c: int, ctrl=None, qa=None) -> None:
        """x -> c*x mod N in place for x < N (deterministic permutation above
        N); a controlled multiply needs the clean ancilla `qa`."""
        bld, t, N = self.bld, self.acc, self.N

        def acc(const):
            for i in range(len(x)):
                k = const * (1 << i) % N
                if ctrl is None:
                    self.add_const(k, (x[i],))
                else:
                    bld.ccx(ctrl, x[i], qa)
                    self.add_const(k, (qa,))
                    bld.ccx(ctrl, x[i], qa)

        def swap(i):
            if ctrl is None:
                bld.swap(x[i], t[i])
            else:
                bld.cnot(t[i], x[i])
                bld.ccx(ctrl, x[i], t[i])
                bld.cnot(t[i], x[i])

        acc(c)
        bld.repeat(range(len(x)), swap)
        bld.adjoint(lambda: acc(pow(c, -1, N)))

    def mul_table(self, out, addr, c: int, a_reg, lk) -> None:
        """out -> c^v*out mod N where v is the value of the addr register.

        The looked-up multiplicand c^v goes to the clean n-qubit `a_reg`, and
        `lk` holds the lookup's len(addr) - 1 ancillas.  In counting mode each
        lookup is a cached block keyed by the base, N and the two widths that
        define its table, which is built only on a miss; the multiply-
        accumulate between a lookup and its uncompute is one block keyed by
        (n, N) alone, since it does not depend on the table.
        """
        bld, n, N = self.bld, len(out), self.N

        def add_double(i):
            self.add(a_reg, (out[i],))
            self.double(a_reg)

        def mulacc():
            bld.repeat(range(n), add_double)
            bld.adjoint(lambda: bld.repeat(range(n), lambda _: self.double(a_reg)))

        def acc(base):
            key = ("lookup", base, N, len(addr), len(a_reg))

            def lookup():
                emit_lookup(bld, addr, a_reg, _powers(base, N, 1 << len(addr)), lk)

            bld.cached(key, lookup)
            bld.cached(("mulacc", n, N), mulacc)
            bld.cached(key, lookup)

        acc(c)
        bld.repeat(range(n), lambda i: bld.swap(out[i], self.acc[i]))
        bld.adjoint(lambda: acc(pow(c, -1, N)))


# -- public builders -----------------------------------------------------------------

def build_modmul_const(c: int, N: int, n: int, counting: bool = False):
    """|x> -> |c*x mod N> for x < N (in-place; build-time gcd check)."""
    if n < 1:
        raise CircuitError("register size n must be >= 1")
    if not 0 < N < (1 << n):
        raise CircuitError("need 0 < N < 2^n")
    if not 0 < c < N:
        raise CircuitError("need 0 < c < N")
    if math.gcd(c, N) != 1:
        raise CircuitError(f"gcd({c}, {N}) != 1; not invertible")
    bld = Builder(counting, f"modmul_const[{c},{N},{n}]")
    x = bld.alloc_register(n, "x")
    _ModN(bld, n, N).mul_const(x.qubits, c)
    return bld.finalize()


def _powers(c: int, N: int, count: int) -> tuple[int, ...]:
    """(c^0, c^1, ..., c^(count-1)) mod N for a power-of-two count (callers
    pass 2^len(addr)), by doubling: each round appends the powers so far
    times step = c^len(out), then squares the step.  A round reads its
    inputs through an islice of the list it extends, so it makes no second
    list, which cost a modexp sweep 0.1 MB of peak memory."""
    out, step = [1], c
    while len(out) < count:
        out.extend(x * step % N for x in itertools.islice(out, len(out)))
        step = step * step % N
    return tuple(out)


def build_modexp(algo: str, a: int, N: int, n: int, counting: bool = False):
    """|x>|0> -> |x>|a^x mod N> on two n-qubit registers."""
    if n < 1:
        raise CircuitError("register size n must be >= 1")
    if not 1 < N < (1 << n):
        raise CircuitError("need 1 < N < 2^n")
    a %= N
    if math.gcd(a, N) != 1:
        raise CircuitError(f"gcd({a}, {N}) != 1")
    variant, w = parse_modexp(algo)
    if variant == "LYYWindowedOpt":
        w = optimal_window(n)
    bld = Builder(counting, f"modexp[{algo},a={a},N={N},{n}]")
    x = bld.alloc_register(n, "x")
    out = bld.alloc_register(n, "out")

    if variant == "LYY":
        mod = _ModN(bld, n, N)
        qa = bld.alloc_ancilla(1, "qa")[0]
        bld.x(out[0])
        for j in range(n):
            c = pow(a, 1 << j, N)
            if c != 1:
                mod.mul_const(out.qubits, c, ctrl=x[j], qa=qa)
    else:
        # A window wider than the exponent is the exponent: the listed
        # LYYWindowed(11) is verified and golden-pinned from n = 2.
        w = min(w, n)
        if N % 2 == 0:
            raise CircuitError("windowed modexp requires odd N")
        mod = _ModN(bld, n, N)
        a_reg = bld.alloc_ancilla(n, "mult").qubits
        lk = bld.alloc_ancilla(w - 1, "lk").qubits if w > 1 else ()
        bld.x(out[0])
        for off in range(0, n, w):
            wj = min(w, n - off)
            mod.mul_table(out.qubits, x.qubits[off:off + wj], pow(a, 1 << off, N),
                          a_reg, lk)
    return bld.finalize()
