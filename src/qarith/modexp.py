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

import math
from dataclasses import dataclass

from .adders import emit_accumulate_add, emit_complement, emit_const_load, emit_copy
from .circuit import CCX, CNOT, X, Builder, CircuitError, new_builder

MODEXP_ALGOS = ("LYY", "LYYWindowed", "LYYWindowedOpt")


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
    if algo in ("LYY", "LYYWindowedOpt"):
        return (algo, None)
    if algo.startswith("LYYWindowed(") and algo.endswith(")"):
        w = int(algo[len("LYYWindowed("):-1])
        if w < 1:
            raise CircuitError("window size must be >= 1")
        return ("LYYWindowed", w)
    raise CircuitError(f"unknown modexp algorithm {algo!r}")


# -- table lookup (unary iteration) --------------------------------------------

def emit_lookup(bld: Builder, addr, target, entries, ancs) -> None:
    """target ^= entries[addr] for a little-endian address register.

    Unary iteration over the address MSB-first; needs len(addr)-1 clean
    ancillas.  XOR semantics make the same emission its own inverse.

    Counting builders tally the tree in closed form (Babbush et al. 2018):
    an a-bit address has 2^a - 2 controlled internal nodes of 2 X, 2 CCX and
    1 CNOT each, the uncontrolled top level adds 2 X, and every leaf is a
    CNOT load of its entry.
    """
    if bld.counting and addr:
        nodes = (1 << len(addr)) - 2
        mask = (1 << len(target)) - 1
        bld.bulk(X, 2 * nodes + 2)
        bld.bulk(CCX, 2 * nodes)
        bld.bulk(CNOT, nodes + sum((e & mask).bit_count() for e in entries))
        return

    def rec(ctrls, bits, tab, depth):
        if not bits:
            emit_const_load(bld, target, tab[0], *ctrls)
            return
        a = bits[-1]
        half = len(tab) // 2
        lo, hi = tab[:half], tab[half:]
        if not ctrls:
            bld.x(a)
            rec((a,), bits[:-1], lo, depth)
            bld.x(a)
            rec((a,), bits[:-1], hi, depth)
        else:
            u = ancs[depth]
            bld.x(a)
            bld.ccx(*ctrls, a, u)
            bld.x(a)
            rec((u,), bits[:-1], lo, depth + 1)
            bld.cnot(*ctrls, u)
            rec((u,), bits[:-1], hi, depth + 1)
            bld.ccx(*ctrls, a, u)

    rec((), list(addr), list(entries), 0)


def build_table_lookup(table: LookupTable, m: int, counting: bool = False):
    """|addr>|y> -> |addr>|y XOR table[addr]> with m-bit data qubits."""
    if m < 1:
        raise CircuitError("data width m must be >= 1")
    for e in table.entries:
        if not 0 <= e < (1 << m):
            raise CircuitError(f"table entry {e} does not fit {m} bits")
    bld = new_builder(counting, f"table_lookup[{table.address_bits},{m}]")
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

@dataclass
class _Scratch:
    t: tuple[int, ...]
    hi: int
    chain: tuple[int, ...]
    kload: tuple[int, ...]
    carries: tuple[int, ...]
    qa: int | None = None
    a_reg: tuple[int, ...] = ()
    lk: tuple[int, ...] = ()


def _alloc_scratch(bld: Builder, n: int, qa: bool, windowed_w: int = 0) -> _Scratch:
    t = bld.alloc_ancilla(n, "acc").qubits
    hi = bld.alloc_ancilla(1, "hi")[0]
    chain = bld.alloc_ancilla(n, "cmp").qubits
    kload = bld.alloc_ancilla(n + 1, "kload").qubits
    carries = bld.alloc_ancilla(n, "carry").qubits
    sc = _Scratch(t, hi, chain, kload, carries)
    if qa:
        sc.qa = bld.alloc_ancilla(1, "qa")[0]
    if windowed_w:
        sc.a_reg = bld.alloc_ancilla(n, "mult").qubits
        if windowed_w > 1:
            sc.lk = bld.alloc_ancilla(windowed_w - 1, "lk").qubits
    return sc


def _cached_acc(bld: Builder, x, y, carries) -> None:
    bld.cached(
        ("cgacc", len(x), len(y)),
        lambda: emit_accumulate_add(bld, x, y, carries),
    )


def _emit_not_into(bld: Builder, carry: int, out: int, ctrls) -> None:
    """out ^= NOT carry [AND ctrls]."""
    bld.mcx(ctrls + (carry,), out)
    bld.mcx(ctrls, out)


def _emit_ge_const(bld: Builder, t, k, out: int, chain, ctrls=()) -> None:
    """out ^= (t >= k) [AND ctrls], for a classical constant 1 <= k < 2^n.

    Computed as NOT carry(~t + k) with a borrowed Toffoli chain that is
    uncomputed by the reverse chain.
    """
    n = len(t)
    emit_complement(bld, t)

    def fwd():
        if k & 1:
            bld.cnot(t[0], chain[0])
        for j in range(1, n):
            if (k >> j) & 1:
                bld.x(t[j])
                bld.x(chain[j - 1])
                bld.ccx(t[j], chain[j - 1], chain[j])
                bld.x(chain[j])
                bld.x(chain[j - 1])
                bld.x(t[j])
            else:
                bld.ccx(t[j], chain[j - 1], chain[j])
        return chain[n - 1]

    bld.within(fwd, lambda carry: _emit_not_into(bld, carry, out, ctrls))
    emit_complement(bld, t)


def _emit_ge_quantum(bld: Builder, t, u, out: int, chain, ctrls=()) -> None:
    """out ^= (t >= u) [AND ctrls] for two quantum registers of equal width."""
    n = len(t)
    emit_complement(bld, t)

    def fwd():
        bld.ccx(t[0], u[0], chain[0])
        for j in range(1, n):
            bld.ccx(t[j], u[j], chain[j])
            bld.cnot(u[j], t[j])
            bld.ccx(t[j], chain[j - 1], chain[j])
            bld.cnot(u[j], t[j])
        return chain[n - 1]

    bld.within(fwd, lambda carry: _emit_not_into(bld, carry, out, ctrls))
    emit_complement(bld, t)


def _emit_reduce(bld: Builder, t, hi: int, N: int, sc: _Scratch, ctrls) -> None:
    """(t, hi) -= N under `ctrls`, then t += N back where that borrowed into hi."""
    n = len(t)
    kq = sc.kload
    m_n = (1 << (n + 1)) - N
    emit_const_load(bld, kq[:n + 1], m_n, *ctrls)
    _cached_acc(bld, kq[:n + 1], list(t) + [hi], sc.carries)
    emit_const_load(bld, kq[:n + 1], m_n, *ctrls)
    emit_const_load(bld, kq[:n], N, *ctrls, hi)
    _cached_acc(bld, kq[:n], t, sc.carries)
    emit_const_load(bld, kq[:n], N, *ctrls, hi)


def _emit_modadd_const(bld: Builder, t, hi: int, k: int, N: int, sc: _Scratch,
                       ctrls=()) -> None:
    """t += k mod N on an n-qubit register holding t < N (hi: clean ancilla)."""
    k %= N
    if k == 0:
        return
    kq = sc.kload[:len(t) + 1]
    emit_const_load(bld, kq, k, *ctrls)
    _cached_acc(bld, kq, list(t) + [hi], sc.carries)
    emit_const_load(bld, kq, k, *ctrls)
    _emit_reduce(bld, t, hi, N, sc, ctrls)
    _emit_ge_const(bld, t, k, hi, sc.chain, ctrls)


def _modadd_cached(bld: Builder, t, hi: int, k: int, N: int, sc: _Scratch,
                   ctrls=()) -> None:
    k %= N
    if k == 0:
        return
    key = ("modadd", len(t), N, k & 1, k.bit_count(), len(ctrls))
    bld.cached(key, lambda: _emit_modadd_const(bld, t, hi, k, N, sc, ctrls))


def _emit_qq_modadd(bld: Builder, t, hi: int, u, N: int, sc: _Scratch,
                    ctrls=()) -> None:
    """t += u mod N for quantum t, u < N (optionally controlled)."""

    def emit():
        kq = sc.kload
        emit_copy(bld, u, kq[:len(t)], *ctrls)
        _cached_acc(bld, kq[:len(t) + 1], list(t) + [hi], sc.carries)
        emit_copy(bld, u, kq[:len(t)], *ctrls)
        _emit_reduce(bld, t, hi, N, sc, ctrls)
        _emit_ge_quantum(bld, t, u, hi, sc.chain, ctrls)

    bld.cached(("qqmodadd", len(t), N, len(ctrls)), emit)


def _emit_mod_double(bld: Builder, a_reg, hi: int, N: int, sc: _Scratch) -> None:
    """a -> 2a mod N in place (N odd; the parity of the result clears hi)."""

    def emit():
        y = list(a_reg) + [hi]
        for j in reversed(range(len(a_reg))):
            bld.swap(y[j + 1], y[j])
        _emit_reduce(bld, a_reg, hi, N, sc, ())
        bld.cnot(a_reg[0], hi)
        bld.x(hi)

    bld.cached(("moddouble", len(a_reg), N), emit)


def _emit_modmul_const(bld: Builder, x, c: int, N: int, sc: _Scratch,
                       ctrl=None) -> None:
    """x -> c*x mod N in place for x < N (deterministic permutation above N)."""
    n = len(x)
    cinv = pow(c, -1, N)

    def acc(const):
        for i in range(n):
            k = const * (1 << i) % N
            if ctrl is None:
                _modadd_cached(bld, sc.t, sc.hi, k, N, sc, (x[i],))
            else:
                bld.ccx(ctrl, x[i], sc.qa)
                _modadd_cached(bld, sc.t, sc.hi, k, N, sc, (sc.qa,))
                bld.ccx(ctrl, x[i], sc.qa)

    acc(c)
    if ctrl is None:
        for i in range(n):
            bld.swap(x[i], sc.t[i])
    else:
        for i in range(n):
            bld.cnot(sc.t[i], x[i])
            bld.ccx(ctrl, x[i], sc.t[i])
            bld.cnot(sc.t[i], x[i])
    bld.adjoint(lambda: acc(cinv))


def _emit_modmul_table(bld: Builder, out, addr, entries, entries_inv, N: int,
                       sc: _Scratch) -> None:
    """out -> entries[v]*out mod N where v is the value of the addr register."""
    n = len(out)

    def acc(tab):
        emit_lookup(bld, addr, sc.a_reg, tab, sc.lk)
        for i in range(n):
            _emit_qq_modadd(bld, sc.t, sc.hi, sc.a_reg, N, sc, (out[i],))
            _emit_mod_double(bld, sc.a_reg, sc.hi, N, sc)

        def doublings():
            for _ in range(n):
                _emit_mod_double(bld, sc.a_reg, sc.hi, N, sc)

        bld.adjoint(doublings)
        emit_lookup(bld, addr, sc.a_reg, tab, sc.lk)

    acc(entries)
    for i in range(n):
        bld.swap(out[i], sc.t[i])
    bld.adjoint(lambda: acc(entries_inv))


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
    bld = new_builder(counting, f"modmul_const[{c},{N},{n}]")
    x = bld.alloc_register(n, "x")
    sc = _alloc_scratch(bld, n, qa=False)
    _emit_modmul_const(bld, x.qubits, c, N, sc)
    return bld.finalize()


def _powers(c: int, N: int, count: int) -> tuple[int, ...]:
    """(c^0, c^1, ..., c^(count-1)) mod N by repeated multiplication."""
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * c % N)
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
    bld = new_builder(counting, f"modexp[{algo},a={a},N={N},{n}]")
    x = bld.alloc_register(n, "x")
    out = bld.alloc_register(n, "out")

    if variant == "LYY":
        sc = _alloc_scratch(bld, n, qa=True)
        bld.x(out[0])
        for j in range(n):
            c = pow(a, 1 << j, N)
            if c != 1:
                _emit_modmul_const(bld, out.qubits, c, N, sc, ctrl=x[j])
    else:
        w = max(1, min(w, n))
        if N % 2 == 0:
            raise CircuitError("windowed modexp requires odd N")
        sc = _alloc_scratch(bld, n, qa=False, windowed_w=w)
        bld.x(out[0])
        off = 0
        while off < n:
            wj = min(w, n - off)
            c = pow(a, 1 << off, N)
            cinv = pow(c, -1, N)
            entries = _powers(c, N, 1 << wj)
            entries_inv = _powers(cinv, N, 1 << wj)
            _emit_modmul_table(
                bld, out.qubits, x.qubits[off:off + wj], entries, entries_inv, N, sc
            )
            off += wj
    return bld.finalize()
