"""Multipliers (schoolbook shift-and-add, Karatsuba) and dividers
(restoring, non-restoring) parameterised by the in-place adder.

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

from dataclasses import dataclass

from .adders import (
    IN_PLACE_ADDERS,
    alloc_inplace_scratch,
    emit_accumulate_add,
    emit_accumulate_sub,
    emit_complement,
    emit_copy,
    emit_inplace_adder,
)
from .circuit import Builder, CircuitError, new_builder

DEFAULT_PIECE_SIZE = 32
KARATSUBA8_PIECE_SIZE = 8
DIVIDER_KINDS = ("Restoring", "NonRestoring")
DIVIDER_ADDERS = ("Gidney", "TTK", "CDKM")


def parse_multiplier(algo: str) -> int | None:
    """Returns the Karatsuba piece size, or None for Schoolbook."""
    if algo == "Schoolbook":
        return None
    if algo == "Karatsuba":
        return DEFAULT_PIECE_SIZE
    if algo == "Karatsuba-8":
        return KARATSUBA8_PIECE_SIZE
    if algo.startswith("Karatsuba(") and algo.endswith(")"):
        piece = int(algo[len("Karatsuba("):-1])
        if piece < 2:
            raise CircuitError("Karatsuba piece size must be >= 2")
        return piece
    raise CircuitError(f"unknown multiplier {algo!r}")


# -- schoolbook shift-and-add ---------------------------------------------------

def emit_schoolbook_acc(bld: Builder, a, b, acc, temp, carries) -> None:
    """acc += a*b via per-bit partial products.

    For each bit a_i the partial product a_i AND b is Toffoli-computed into
    `temp`, rippled into acc[i : i+len(b)+1] (the running prefix sum keeps
    the carry inside that slice), and uncomputed.  Slices are capped at the
    top of acc, which is exact whenever the true product fits in acc.
    """
    nb = len(b)
    for i in range(len(a)):
        tgt = acc[i:i + nb + 1]
        if not tgt:
            break
        k = min(nb, len(tgt))
        emit_copy(bld, b, temp, a[i])
        emit_accumulate_add(bld, temp[:k], tgt, carries)
        emit_copy(bld, b, temp, a[i])


# -- Karatsuba -------------------------------------------------------------------

def _trunc(qubits, maxv: int):
    return list(qubits[: max(1, maxv.bit_length())])


# Register width of each product-tree node, keyed like the block cache, so
# counting-mode cache hits can hand back a correctly sized placeholder.
_WIDTH_MEMO: dict[tuple, int] = {}


def _tree_product(bld: Builder, a, amax, b, bmax, piece, temp, carries):
    """Compute a*b into a fresh clean register; returns (qubits, max value).

    Inputs are restored; every temporary stays allocated (and dirty) until
    the caller uncomputes this emission as the compute block of
    ``Builder.within``.
    """
    a = _trunc(a, amax)
    b = _trunc(b, bmax)
    wmax = amax * bmax
    key = ("ktree", len(a), len(b), amax, bmax, piece)
    out: list = []

    def emit():
        s = max(len(a), len(b))
        if s <= max(piece, 3):
            w = bld.alloc_ancilla(max(1, wmax.bit_length()), "kw")
            emit_schoolbook_acc(bld, a, b, w.qubits, temp, carries)
            out.append(list(w.qubits))
            _WIDTH_MEMO[key] = len(w.qubits)
            return
        h = (s + 1) // 2
        a_lo, a_hi = a[:h], a[h:]
        b_lo, b_hi = b[:h], b[h:]
        alo_max = min(amax, (1 << h) - 1)
        blo_max = min(bmax, (1 << h) - 1)
        ahi_max = amax >> h
        bhi_max = bmax >> h
        w_lo, lo_max = _tree_product(bld, a_lo, alo_max, b_lo, blo_max, piece, temp, carries)
        w_hi, hi_max = _tree_product(bld, a_hi, ahi_max, b_hi, bhi_max, piece, temp, carries)
        sa_max = alo_max + ahi_max
        sb_max = blo_max + bhi_max
        sa = bld.alloc_ancilla(max(1, sa_max.bit_length()), "ksa")
        sb = bld.alloc_ancilla(max(1, sb_max.bit_length()), "ksb")
        ta = _trunc(a_lo, alo_max)
        emit_copy(bld, ta, sa.qubits[: len(ta)])
        if a_hi and ahi_max:
            emit_accumulate_add(bld, _trunc(a_hi, ahi_max), sa.qubits, carries)
        tb = _trunc(b_lo, blo_max)
        emit_copy(bld, tb, sb.qubits[: len(tb)])
        if b_hi and bhi_max:
            emit_accumulate_add(bld, _trunc(b_hi, bhi_max), sb.qubits, carries)
        w_mid, mid_max = _tree_product(bld, sa.qubits, sa_max, sb.qubits, sb_max, piece, temp, carries)
        peak = lo_max + (mid_max << h) + (hi_max << (2 * h))
        w = bld.alloc_ancilla(max(1, peak.bit_length()), "kw")
        wq = list(w.qubits)
        emit_copy(bld, w_lo, wq[: len(w_lo)])
        emit_copy(bld, w_hi, wq[2 * h: 2 * h + len(w_hi)])
        # w_mid can be wider than wq[h:]; its top qubits stay |0> because
        # the middle product is at most mid_max and peak >= mid_max << h.
        emit_accumulate_add(bld, w_mid[: len(wq) - h], wq[h:], carries)
        emit_accumulate_sub(bld, w_lo, wq[h:], carries)
        emit_accumulate_sub(bld, w_hi, wq[h:], carries)
        out.append(wq)
        _WIDTH_MEMO[key] = len(wq)

    bld.cached(key, emit)
    if not out:
        # Counting-mode cache hit: qubit identities are irrelevant, only the
        # memoised register width matters to the caller.
        out.append([0] * _WIDTH_MEMO[key])
    return out[-1], wmax


def emit_karatsuba_multiply(bld: Builder, a, b, prod, piece, temp, carries) -> None:
    """prod += a*b with the recursion tree computed, used and uncomputed."""
    amax = (1 << len(a)) - 1
    # Bennett: compute the product tree, add it into prod, uncompute the tree.
    bld.within(
        lambda: _tree_product(bld, a, amax, b, amax, piece, temp, carries)[0],
        lambda w: emit_accumulate_add(bld, w[: len(prod)], prod, carries),
    )


def build_multiplier(algo: str, n: int, counting: bool = False):
    """|a>|b>|0> -> |a>|b>|a*b> on registers of n, n and 2n qubits."""
    piece = parse_multiplier(algo)
    if n < 1:
        raise CircuitError("register size n must be >= 1")
    bld = new_builder(counting, f"multiplier[{algo},{n}]")
    a = bld.alloc_register(n, "a")
    b = bld.alloc_register(n, "b")
    prod = bld.alloc_register(2 * n, "prod")
    if piece is None or n <= piece:
        temp = bld.alloc_ancilla(n, "pp")
        carries = bld.alloc_ancilla(n, "carry")

        def iteration(i):
            emit_copy(bld, b.qubits, temp.qubits, a[i])
            emit_accumulate_add(
                bld, temp.qubits, prod.qubits[i:i + n + 1], carries.qubits
            )
            emit_copy(bld, b.qubits, temp.qubits, a[i])

        for i in range(n):
            bld.cached(("school_iter", n), lambda i=i: iteration(i))
    else:
        npad = 1 << (n - 1).bit_length()
        aq, bq = list(a.qubits), list(b.qubits)
        if npad > n:
            aq += list(bld.alloc_ancilla(npad - n, "pad_a").qubits)
            bq += list(bld.alloc_ancilla(npad - n, "pad_b").qubits)
        leaf = max(piece, 3)
        temp = bld.alloc_ancilla(leaf, "pp")
        carries = bld.alloc_ancilla(2 * npad + 2, "carry")
        emit_karatsuba_multiply(
            bld, aq, bq, list(prod.qubits), piece, temp.qubits, carries.qubits
        )
    return bld.finalize()


# -- division ---------------------------------------------------------------------

@dataclass(frozen=True)
class DividerSpec:
    kind: str
    adder: str

    def __post_init__(self):
        if self.kind not in DIVIDER_KINDS:
            raise CircuitError(f"unknown divider kind {self.kind!r}")
        if self.adder not in IN_PLACE_ADDERS or self.adder == "QFT":
            raise CircuitError(f"unsupported divider adder {self.adder!r}")

    @property
    def name(self) -> str:
        return f"{self.kind}+{self.adder}"


def parse_divider(algo: str) -> DividerSpec:
    kind, _, adder = algo.partition("+")
    return DividerSpec(kind, adder)


def _emit_window_add(bld, spec, window, kload, scratches, src_bits):
    """window += src (quantum register), zero-extended through kload staging."""
    width = len(window)
    scratch = scratches[width]
    emit_copy(bld, src_bits, kload[:len(src_bits)])
    emit_inplace_adder(bld, spec.adder, kload[:width], window, scratch)
    emit_copy(bld, src_bits, kload[:len(src_bits)])


def _emit_window_sub(bld, spec, window, kload, scratches, src_bits):
    """window -= src via the complement trick around the chosen adder."""
    emit_complement(bld, window)
    _emit_window_add(bld, spec, window, kload, scratches, src_bits)
    emit_complement(bld, window)


def build_divider(spec: DividerSpec | str, n: int, counting: bool = False):
    """|a>|b>|0> -> |a mod b>|b>|a div b| for b > 0 (b = 0: fixed permutation).

    The dividend/quotient pair is treated as one 2n-bit array; each step
    subtracts (or, non-restoring, adds) the divisor on a sliding window and
    converts the window's redundant sign bit into the quotient bit in place.
    """
    if isinstance(spec, str):
        spec = parse_divider(spec)
    if n < 1:
        raise CircuitError("register size n must be >= 1")
    bld = new_builder(counting, f"divider[{spec.name},{n}]")
    a = bld.alloc_register(n, "a")
    b = bld.alloc_register(n, "b")
    q = bld.alloc_register(n, "q")
    restoring = spec.kind == "Restoring"
    wmax = n + 1 if restoring else n + 2
    seq = list(a.qubits) + list(q.qubits)
    if not restoring:
        ext = bld.alloc_ancilla(1, "ext")
        seq.append(ext[0])
    kload = bld.alloc_ancilla(wmax, "kload")
    scratches = {
        w: alloc_inplace_scratch(bld, spec.adder, w)
        for w in sorted({n, wmax})
    }

    if restoring:
        def step(i):
            window = seq[i:i + n + 1]
            sign = seq[i + n]
            _emit_window_sub(bld, spec, window, kload.qubits, scratches, b.qubits)
            emit_copy(bld, b.qubits, kload.qubits[:n], sign)
            emit_inplace_adder(
                bld, spec.adder, kload.qubits[:n], window[:n], scratches[n]
            )
            emit_copy(bld, b.qubits, kload.qubits[:n], sign)
            bld.x(sign)

        for i in reversed(range(n)):
            bld.cached(("div_step_r", spec.adder, n), lambda i=i: step(i))
    else:
        def first_step():
            window = seq[n - 1:2 * n + 1]
            _emit_window_sub(bld, spec, window, kload.qubits, scratches, b.qubits)
            bld.x(seq[2 * n])

        def step(i):
            window = seq[i:i + n + 2]
            u = seq[i + n + 2]

            def flip():  # complement the window when u = 0
                for w in window:
                    bld.x(w)
                    bld.cnot(u, w)

            flip()
            _emit_window_sub(bld, spec, window, kload.qubits, scratches, b.qubits)
            flip()
            bld.x(seq[i + n + 1])

        bld.cached(("div_step_nr0", spec.adder, n), first_step)
        for i in reversed(range(n - 1)):
            bld.cached(("div_step_nr", spec.adder, n), lambda i=i: step(i))

        def final_fix():
            sign = seq[n]
            emit_copy(bld, b.qubits, kload.qubits[:n], sign)
            emit_inplace_adder(
                bld, spec.adder, kload.qubits[:n], seq[:n], scratches[n]
            )
            emit_copy(bld, b.qubits, kload.qubits[:n], sign)
            bld.cnot(seq[n + 1], seq[n])
            bld.x(seq[n])
            for j in range(n, 2 * n):
                bld.swap(seq[j], seq[j + 1])

        bld.cached(("div_fix_nr", spec.adder, n), final_fix)
    return bld.finalize()


def divider_design_space(n: int, synthesis=None):
    """Counts for all divider kind x adder combinations at size n.

    Returns [(DividerSpec, LogicalCounts)] sorted by qubit count then
    T-count.
    """
    from .resources import lower_summary

    if n < 1:
        raise CircuitError("register size n must be >= 1")
    rows = []
    for kind in DIVIDER_KINDS:
        for adder in DIVIDER_ADDERS:
            spec = DividerSpec(kind, adder)
            counts = lower_summary(build_divider(spec, n, counting=True), synthesis)
            rows.append((spec, counts))
    rows.sort(key=lambda r: (r[1].qubits, r[1].t_count))
    return rows
