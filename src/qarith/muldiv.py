"""Multipliers (schoolbook shift-and-add, Karatsuba), which add through the
Gidney in-place adder handle, and dividers (restoring, non-restoring)
parameterised by the in-place adder.

The Karatsuba recursion keeps every intermediate product in clean ancillas
and uncomputes the whole tree Bennett-style after accumulating the result,
so the circuit stays unitary with clean ancillas at the cost of extra
workspace.  Dividers slide an (n+1)/(n+2)-bit window over the combined
dividend/quotient register; the window's redundant sign bit turns into the
quotient bit in place, so |a>|b>|0> ends as |a mod b>|b>|a div b> with no
output reshuffling (the non-restoring form needs one extra qubit and a
final rotate).
"""
from __future__ import annotations

from .adders import emit_complement, emit_copy, inplace_adder
from .circuit import Builder, CircuitError, parse_name

# name -> Karatsuba piece size (None: schoolbook); also `Karatsuba(k)`, k >= 2
MULTIPLIERS = {"Schoolbook": None, "Karatsuba": 32, "Karatsuba-8": 8}
DIVIDER_KINDS = ("Restoring", "NonRestoring")
DIVIDER_ADDERS = ("Gidney", "TTK", "CDKM")  # listed; DKRS builds but is unlisted
# name `{kind}+{adder}` -> (kind, adder)
DIVIDERS = {f"{k}+{a}": (k, a)
            for k in DIVIDER_KINDS for a in DIVIDER_ADDERS + ("DKRS",)}


# -- schoolbook shift-and-add ---------------------------------------------------

def emit_schoolbook_acc(bld: Builder, a, b, acc, temp, add) -> None:
    """acc += a*b via per-bit partial products.

    For each bit a_i the partial product a_i AND b is Toffoli-computed into
    `temp`, added into acc[i : i+len(b)+1] by the Gidney handle `add` (the
    running prefix sum keeps the carry inside that slice), and uncomputed.
    Slices are capped at the top of acc, which is exact whenever the true
    product fits in acc.  The iterations with a full slice are uniform, so
    they run through `repeat`; the capped ones that follow run one by one.
    """
    nb = len(b)

    def iteration(i):
        width = min(nb + 1, len(acc) - i)
        emit_copy(bld, b, temp, a[i])
        add(temp[:min(nb, width)], acc[i:i + width])
        emit_copy(bld, b, temp, a[i])

    full = min(len(a), max(0, len(acc) - nb))
    bld.repeat(range(full), iteration)
    for i in range(full, min(len(a), len(acc))):
        iteration(i)


# -- Karatsuba -------------------------------------------------------------------

def _trunc(qubits, maxv: int):
    return qubits[: max(1, maxv.bit_length())]


def _tree_product(bld: Builder, a, amax, b, bmax, piece, temp, add):
    """Compute a*b into a fresh clean register and return its qubits.

    Inputs are restored; every temporary stays allocated (and dirty) until
    the caller uncomputes this emission as the compute block of
    ``Builder.within``.
    """
    a = _trunc(a, amax)
    b = _trunc(b, bmax)
    s = max(len(a), len(b))
    leaf = s <= max(piece, 3)
    h = (s + 1) // 2
    alo_max = min(amax, (1 << h) - 1)
    blo_max = min(bmax, (1 << h) - 1)
    ahi_max = amax >> h
    bhi_max = bmax >> h
    sa_max = alo_max + ahi_max
    sb_max = blo_max + bhi_max
    # The node's register holds lo + (mid << h) + (hi << 2h) at its largest.
    peak = amax * bmax if leaf else (alo_max * blo_max + (sa_max * sb_max << h)
                                     + (ahi_max * bhi_max << (2 * h)))
    width = max(1, peak.bit_length())
    out: list = []

    def emit():
        if leaf:
            w = bld.alloc_ancilla(width, "kw")
            emit_schoolbook_acc(bld, a, b, w.qubits, temp, add)
            out.append(w.qubits)
            return
        a_lo, a_hi = a[:h], a[h:]
        b_lo, b_hi = b[:h], b[h:]
        w_lo = _tree_product(bld, a_lo, alo_max, b_lo, blo_max, piece, temp, add)
        w_hi = _tree_product(bld, a_hi, ahi_max, b_hi, bhi_max, piece, temp, add)
        sa = bld.alloc_ancilla(max(1, sa_max.bit_length()), "ksa")
        sb = bld.alloc_ancilla(max(1, sb_max.bit_length()), "ksb")
        ta = _trunc(a_lo, alo_max)
        emit_copy(bld, ta, sa.qubits[: len(ta)])
        if a_hi and ahi_max:
            add(_trunc(a_hi, ahi_max), sa.qubits)
        tb = _trunc(b_lo, blo_max)
        emit_copy(bld, tb, sb.qubits[: len(tb)])
        if b_hi and bhi_max:
            add(_trunc(b_hi, bhi_max), sb.qubits)
        w_mid = _tree_product(bld, sa.qubits, sa_max, sb.qubits, sb_max, piece, temp, add)
        w = bld.alloc_ancilla(width, "kw")
        wq = w.qubits
        emit_copy(bld, w_lo, wq[: len(w_lo)])
        emit_copy(bld, w_hi, wq[2 * h: 2 * h + len(w_hi)])
        # w_mid can be wider than wq[h:]; its top qubits stay |0> because
        # the middle product is at most sa_max * sb_max and peak >= that << h.
        add(w_mid[: len(wq) - h], wq[h:])
        bld.adjoint(lambda: add(w_lo, wq[h:]))
        bld.adjoint(lambda: add(w_hi, wq[h:]))
        out.append(wq)

    bld.cached(("ktree", len(a), len(b), amax, bmax, piece), emit)
    # A counting-mode cache hit emits nothing: qubit identities are
    # irrelevant there, only the register width matters to the caller.
    return out[0] if out else range(width)


def emit_karatsuba_multiply(bld: Builder, a, b, prod, piece, temp, add) -> None:
    """prod += a*b with the recursion tree computed, used and uncomputed."""
    amax = (1 << len(a)) - 1
    # Bennett: compute the product tree, add it into prod, uncompute the tree.
    bld.within(
        lambda: _tree_product(bld, a, amax, b, amax, piece, temp, add),
        lambda w: add(w[: len(prod)], prod),
    )


def build_multiplier(algo: str, n: int, counting: bool = False):
    """|a>|b>|0> -> |a>|b>|a*b> on registers of n, n and 2n qubits."""
    piece = parse_name(algo, "multiplier", MULTIPLIERS, "Karatsuba", 2)
    if n < 1:
        raise CircuitError("register size n must be >= 1")
    bld = Builder(counting, f"multiplier[{algo},{n}]")
    a = bld.alloc_register(n, "a")
    b = bld.alloc_register(n, "b")
    prod = bld.alloc_register(2 * n, "prod")
    if piece is None or n <= piece:
        temp = bld.alloc_ancilla(n, "pp")
        add = inplace_adder(bld, "Gidney", n + 1)
        emit_schoolbook_acc(bld, a.qubits, b.qubits, prod.qubits, temp.qubits, add)
    else:
        temp = bld.alloc_ancilla(max(piece, 3), "pp")
        add = inplace_adder(bld, "Gidney", 2 * n + 3)
        emit_karatsuba_multiply(bld, a.qubits, b.qubits, prod.qubits, piece,
                                temp.qubits, add)
    return bld.finalize()


# -- division ---------------------------------------------------------------------

def _emit_window_sub(bld, window, kload, adders, src_bits):
    """window -= src via the complement trick around the window-width adder;
    src is zero-extended through kload staging."""
    emit_complement(bld, window)
    emit_copy(bld, src_bits, kload[:len(src_bits)])
    adders[len(window)](kload[:len(window)], window)
    emit_copy(bld, src_bits, kload[:len(src_bits)])
    emit_complement(bld, window)


def build_divider(algo: str, n: int, counting: bool = False):
    """|a>|b>|0> -> |a mod b>|b>|a div b> for b > 0 (b = 0: fixed permutation).

    The dividend/quotient pair is treated as one 2n-bit array; each step
    subtracts (or, non-restoring, adds) the divisor on a sliding window and
    converts the window's redundant sign bit into the quotient bit in place.
    """
    kind, adder = parse_name(algo, "divider", DIVIDERS)
    if n < 1:
        raise CircuitError("register size n must be >= 1")
    bld = Builder(counting, f"divider[{algo},{n}]")
    a = bld.alloc_register(n, "a")
    b = bld.alloc_register(n, "b")
    q = bld.alloc_register(n, "q")
    restoring = kind == "Restoring"
    wmax = n + 1 if restoring else n + 2
    seq = list(a.qubits) + list(q.qubits)
    if not restoring:
        ext = bld.alloc_ancilla(1, "ext")
        seq.append(ext[0])
    kload = bld.alloc_ancilla(wmax, "kload")
    adders = {w: inplace_adder(bld, adder, w) for w in sorted({n, wmax})}

    def add_b_if(sign, target):  # target += b when sign is set
        emit_copy(bld, b.qubits, kload.qubits[:n], sign)
        adders[n](kload.qubits[:n], target)
        emit_copy(bld, b.qubits, kload.qubits[:n], sign)

    if restoring:
        def step(i):
            window = seq[i:i + n + 1]
            sign = seq[i + n]
            _emit_window_sub(bld, window, kload.qubits, adders, b.qubits)
            add_b_if(sign, window[:n])
            bld.x(sign)

        bld.repeat(range(n - 1, -1, -1), step)
    else:
        def step(i):
            window = seq[i:i + n + 2]
            u = seq[i + n + 2]

            def flip(w):  # complement w when u = 0
                bld.x(w)
                bld.cnot(u, w)

            bld.repeat(window, flip)
            _emit_window_sub(bld, window, kload.qubits, adders, b.qubits)
            bld.repeat(window, flip)
            bld.x(seq[i + n + 1])

        # The first step has no previous quotient bit to steer it: subtract.
        _emit_window_sub(bld, seq[n - 1:2 * n + 1], kload.qubits, adders, b.qubits)
        bld.x(seq[2 * n])
        bld.repeat(range(n - 2, -1, -1), step)
        # Final fix: add b back to a negative remainder, then rotate the
        # quotient bits into place.
        add_b_if(seq[n], seq[:n])
        bld.cnot(seq[n + 1], seq[n])
        bld.x(seq[n])
        bld.repeat(range(n, 2 * n), lambda j: bld.swap(seq[j], seq[j + 1]))
    return bld.finalize()

