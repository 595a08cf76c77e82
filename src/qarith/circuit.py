"""Gate alphabet, registers, and the circuit builder.

All registers are little-endian: the least significant bit of an encoded
integer lives in the first qubit of the register (`catalog.check_oracle`
writes and reads register values through `sim`'s bit matrices).  Circuits
are purely unitary -- there is no measurement and no reset in the gate
alphabet, and ancilla registers allocated through the builder are expected
to return to |0> on every basis input (checked by `catalog.check_oracle`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import itemgetter

# Gate kinds.  Permutation gates first, then Clifford/T single-qubit gates,
# then parameterised phase gates.  The constructions emit every kind but T
# and TDG, which the Clifford+T lowering of a CCX uses.
X = "X"
CNOT = "CNOT"
CCX = "CCX"
SWAP = "SWAP"
H = "H"
T = "T"
TDG = "TDG"
RZ = "RZ"
CPHASE = "CPHASE"

PERMUTATION_KINDS = frozenset({X, CNOT, CCX, SWAP})
ANGLE_KINDS = frozenset({RZ, CPHASE})
# Operand count of every kind.
_ARITY = {X: 1, CNOT: 2, CCX: 3, SWAP: 2, H: 1, T: 1, TDG: 1, RZ: 1, CPHASE: 2}
ALL_KINDS = frozenset(_ARITY)

_ADJOINT_KIND = {T: TDG, TDG: T}
# Kinds that are their own adjoint; an adjoint block keeps these gates as is.
_SELF_ADJOINT = PERMUTATION_KINDS | {H}


class CircuitError(ValueError):
    """Raised for malformed gates, registers or builder misuse."""


def parse_name(algo: str, what: str, names: dict, family: str = "", minimum: int = 1):
    """Resolve an algorithm name, the one grammar every builder reads: a
    listed name gives names[algo], and `{family}(k)` gives k, written in
    plain decimal (ASCII digits, no leading zero, at most the 4,300 that
    int() reads) and at least `minimum`.  Any other name is an unknown `what`."""
    if algo in names:
        return names[algo]
    k = algo[len(family) + 1:-1]
    if not (family and algo == f"{family}({k})" and k.isascii() and k.isdecimal()
            and len(k) <= 4300 and str(int(k)) == k):
        raise CircuitError(f"unknown {what} {algo!r}")
    if int(k) < minimum:
        raise CircuitError(f"{what} {algo!r}: {family}(k) needs k >= {minimum}")
    return int(k)


# One gate: (kind, operand qubits, angle), the angle None except for RZ and
# CPHASE.  A plain tuple of strings, ints and floats, so the cyclic GC stops
# tracking it and its operand tuple soon after they are made, and a long gate
# list costs later collections nothing.  A recording Builder keeps one tuple
# per distinct X, CNOT, CCX, SWAP or H gate and appends it again each time
# the gate recurs (LYYWindowedOpt at n=16: 871 tuples for 94,961 gates),
# which cuts the peak memory of a large recorded build by a quarter to a
# half.  RZ and CPHASE gates are kept as made: 0.0 == -0.0 with equal
# hashes, so sharing would print an angle=-0.0 as angle=0.0.
Gate = tuple[str, tuple[int, ...], float | None]


def _reversed_adjoint(gates) -> list[Gate] | tuple[Gate, ...]:
    """The adjoint of a gate list or tuple: reversed, each gate daggered."""
    if _SELF_ADJOINT.issuperset(map(itemgetter(0), gates)):
        return gates[::-1]  # no gate changes: reversed at C speed
    out = []
    for g in reversed(gates):
        kind, qubits, angle = g
        if kind in ANGLE_KINDS:
            g = (kind, qubits, -angle)
        elif kind not in _SELF_ADJOINT:
            g = (_ADJOINT_KIND[kind], qubits, None)
        out.append(g)
    return out


@dataclass(frozen=True)
class Register:
    """Ordered, little-endian run of qubit ids: a tuple in a recording
    build, a range in a counting build, which keeps no qubit id."""

    qubits: tuple[int, ...] | range
    name: str = "r"

    def __len__(self) -> int:
        return len(self.qubits)

    def __getitem__(self, i):
        return self.qubits[i]

    def __iter__(self):
        return iter(self.qubits)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]
    data_registers: tuple[Register, ...] = ()
    ancilla_registers: tuple[Register, ...] = ()
    name: str = "circuit"

    def __post_init__(self):
        self._check_registers()
        for i, g in enumerate(self.gates):
            _validate_gate(g, self.num_qubits, i)

    def _check_registers(self) -> None:
        seen: set[int] = set()
        for reg in self.data_registers + self.ancilla_registers:
            for q in reg:
                if q in seen:
                    raise CircuitError(f"registers overlap at qubit {q}")
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(f"register qubit {q} out of range")
                seen.add(q)

    @classmethod
    def _of_checked_gates(cls, **values) -> "Circuit":
        """A Circuit whose gates were each validated when they were appended
        to a Builder; only the registers are checked again."""
        c = object.__new__(cls)
        for f in fields(cls):
            object.__setattr__(c, f.name, values[f.name])
        c._check_registers()
        return c

    @property
    def ancilla_qubits(self) -> tuple[int, ...]:
        return tuple(q for reg in self.ancilla_registers for q in reg)


def _validate_gate(g: Gate, num_qubits: int, index: int | None = None) -> None:
    where = "" if index is None else f" at gate {index}"
    if not (isinstance(g, tuple) and len(g) == 3):
        raise CircuitError(f"gate {g!r}{where} is not a (kind, qubits, angle) triple")
    kind, qs, angle = g
    # A bool or a float would pass the range check, and a list would make the
    # Circuit unhashable.
    if type(qs) is not tuple or any(type(q) is not int for q in qs):
        raise CircuitError(f"gate {g!r}{where} needs a tuple of int qubits")
    if kind not in ALL_KINDS:
        raise CircuitError(f"unknown gate kind {kind!r}{where}")
    if len(set(qs)) != len(qs):
        raise CircuitError(f"duplicate operand in {kind}{qs}{where}")
    for q in qs:
        if not 0 <= q < num_qubits:
            raise CircuitError(
                f"operand {q} out of range for {num_qubits} qubits{where}"
            )
    if kind in ANGLE_KINDS:
        if angle is None or not math.isfinite(angle):
            raise CircuitError(f"{kind} needs a finite angle{where}")
    elif angle is not None:
        # circuit_to_text prints no angle for these kinds, so two circuits
        # that print alike would compare unequal.
        raise CircuitError(f"{kind} takes no angle{where}")
    if len(qs) != _ARITY[kind]:
        raise CircuitError(f"{kind} takes {_ARITY[kind]} operands{where}")


@dataclass
class CountSummary:
    """Raw gate tallies from a counting-mode build (no gate list kept).

    ``kinds`` maps gate kind to count.  ``num_qubits`` is the peak width
    including every allocated ancilla.
    """

    num_qubits: int = 0
    kinds: dict[str, int] = field(default_factory=dict)
    name: str = "circuit"


# A counting builder tallies each kind in its own slot of a list, in this
# order; x, cnot and ccx name their slots 0, 1 and 2 directly.
_KINDS = tuple(_ARITY)
_SLOT = {kind: i for i, kind in enumerate(_KINDS)}

# Cache of CountSummary deltas for cached() blocks, shared across builders.
# Keys are fully self-describing tuples, so identical keys always describe
# identical gate sequences up to qubit relabeling.
_BLOCK_CACHE: dict[tuple, tuple[CountSummary, int]] = {}


def clear_block_cache() -> None:
    _BLOCK_CACHE.clear()


class Builder:
    """Single-owner circuit builder with append-only qubit allocation.

    The gate methods are the calls the constructions make, and each gate is
    one call that keeps the gate itself.  A recording builder (the default)
    appends each gate as a plain ``(kind, qubits, angle)`` tuple and
    ``finalize`` returns a Circuit: ``x``, ``cnot`` and ``ccx``, nearly every
    gate of a build, check their operands inline and hand only a malformed
    gate to ``_validate_gate``; the other kinds share ``_emit``, which
    validates every gate.  Once a gate has passed its checks, a recording
    builder appends the tuple it already keeps for an equal X, CNOT, CCX,
    SWAP or H gate (``_interned``, freed with the builder), so a gate list
    holds one tuple per distinct gate: ``NonRestoring+TTK`` at n=64 keeps
    12,928 tuples for 63,026 gates, and the peak memory of a
    ``NonRestoring+Gidney`` build at n=256 falls from 170 to 88 MB.  RZ and
    CPHASE gates are not shared, so an angle of -0.0 keeps its sign.  A
    counting builder keeps no gate: a gate adds 1 to its kind's slot in
    ``_counts``, ``bulk`` adds a count for a kind in the alphabet, and
    ``finalize`` returns a CountSummary of the nonzero slots.  Nor does it
    keep qubit ids: its registers hold ranges where a recording builder's
    hold tuples, so its memory does not grow with register width.  A
    finalized builder refuses every gate and every ``cached`` block.  A
    counting builder memoises its ``cached`` blocks by key, so a block that
    recurs at separate call sites costs O(1) after its first emission.  Five blocks are cached: the Gidney ripple accumulator
    (``adders.emit_accumulate_add``, keyed by its two widths), a Karatsuba
    tree node, a modular constant add, and a windowed modexp's
    multiply-accumulate (by n and N) and table lookups (by the base, N and
    the two widths that define the table, so a hit builds no table).
    ``repeat(indices, body)`` is the second counting memo: a loop whose
    body emits the same kinds on every iteration and allocates nothing is
    tallied from its first and last iterations and scaled by its length,
    and a first or last iteration that differs, or a body that allocates,
    is refused; a recording builder runs every iteration.  The DKRS
    carry-lookahead tree is one such loop per tree level.  Together they
    keep sweep-scale builds (n ~ 2^13) tractable.  Two helpers tally in
    closed form through ``bulk`` instead of emitting gate by gate: the
    unary-iteration lookup (``modexp.emit_lookup``) and the uncontrolled
    CNOT fan of ``adders.emit_copy``.

    Uncomputation has two primitives, named after Q#'s ``Adjoint`` and
    ``within ... apply``: ``adjoint(emit)`` emits the adjoint of a block, and
    ``within(compute, apply)`` emits compute, apply and compute's adjoint on
    the qubits compute allocated.  Constructions call them where they undo
    a block (a subtraction is an adjoint addition, the QFT adders apply
    their phases within the QFT).  Each has one path for both modes: a
    counting builder keeps no gates, so it tallies the block forward.
    """

    def __init__(self, counting: bool = False, name: str = "circuit"):
        self.counting = counting
        self.name = name
        self.num_qubits = 0
        self.gates: list[Gate] = []
        self._interned: dict[Gate, Gate] = {}  # stays empty when counting
        self._data_regs: list[Register] = []
        self._anc_regs: list[Register] = []
        self._counts = [0] * len(_KINDS)  # stays zero when recording
        self._finalized = False

    # -- allocation --------------------------------------------------------

    def _alloc(self, size: int, name: str) -> Register:
        if self._finalized:
            raise CircuitError("builder already finalized")
        if size < 1:
            raise CircuitError("register size must be >= 1")
        # A recording build indexes its registers once per gate, and indexing
        # a range makes a fresh int for each id above 256, so it keeps tuples.
        qubits = range(self.num_qubits, self.num_qubits + size)
        reg = Register(qubits if self.counting else tuple(qubits), name)
        self.num_qubits += size
        return reg

    def alloc_register(self, size: int, name: str = "r") -> Register:
        reg = self._alloc(size, name)
        self._data_regs.append(reg)
        return reg

    def alloc_ancilla(self, size: int, name: str = "anc") -> Register:
        reg = self._alloc(size, name)
        self._anc_regs.append(reg)
        return reg

    # -- gate emission -----------------------------------------------------

    def _emit(self, kind: str, qubits: tuple[int, ...],
              angle: float | None = None) -> None:
        """Tally, or validate and keep, one gate: the path of the kinds
        other than X, CNOT and CCX, and of every refused gate."""
        if self._finalized:
            raise CircuitError("builder already finalized")
        if self.counting:
            self._counts[_SLOT[kind]] += 1
            return
        gate = (kind, qubits, angle)
        _validate_gate(gate, self.num_qubits)
        if angle is None:
            gate = self._interned.setdefault(gate, gate)
        self.gates.append(gate)

    def x(self, t: int) -> None:
        if not self._finalized:
            if self.counting:
                self._counts[0] += 1
                return
            if type(t) is int and 0 <= t < self.num_qubits:
                g = (X, (t,), None)
                self.gates.append(self._interned.setdefault(g, g))
                return
        self._emit(X, (t,))  # refuses it

    def cnot(self, c: int, t: int) -> None:
        if not self._finalized:
            if self.counting:
                self._counts[1] += 1
                return
            n = self.num_qubits
            if (type(c) is int and type(t) is int
                    and c != t and 0 <= c < n and 0 <= t < n):
                g = (CNOT, (c, t), None)
                self.gates.append(self._interned.setdefault(g, g))
                return
        self._emit(CNOT, (c, t))  # refuses it

    def ccx(self, c1: int, c2: int, t: int) -> None:
        if not self._finalized:
            if self.counting:
                self._counts[2] += 1
                return
            n = self.num_qubits
            if (type(c1) is int and type(c2) is int and type(t) is int
                    and c1 != c2 and c1 != t and c2 != t
                    and 0 <= c1 < n and 0 <= c2 < n and 0 <= t < n):
                g = (CCX, (c1, c2, t), None)
                self.gates.append(self._interned.setdefault(g, g))
                return
        self._emit(CCX, (c1, c2, t))  # refuses it

    def mcx(self, controls, t: int) -> None:
        """X on `t` under a sequence of up to two controls: X, CNOT or CCX."""
        k = len(controls)
        if k == 2:
            self.ccx(controls[0], controls[1], t)
        elif k == 1:
            self.cnot(controls[0], t)
        elif k == 0:
            self.x(t)
        else:
            raise CircuitError(f"X takes at most 2 controls, got {k}")

    def swap(self, a: int, b: int) -> None:
        self._emit(SWAP, (a, b))

    def h(self, t: int) -> None:
        self._emit(H, (t,))

    def rz(self, t: int, angle: float) -> None:
        self._emit(RZ, (t,), angle)

    def cphase(self, c: int, t: int, angle: float) -> None:
        self._emit(CPHASE, (c, t), angle)

    def bulk(self, kind: str, count: int) -> None:
        """Tally `count` gates of `kind` without emitting them.

        Only legal in counting mode, for a kind in ALL_KINDS; recording
        builders must emit real gates.
        """
        if self._finalized:
            raise CircuitError("builder already finalized")
        if not self.counting:
            raise CircuitError("bulk tallies are only valid in counting mode")
        if kind not in ALL_KINDS:
            raise CircuitError(f"unknown gate kind {kind!r}")
        self._counts[_SLOT[kind]] += count

    # -- structure helpers ---------------------------------------------------

    def adjoint(self, emit):
        """Emit the adjoint of whatever `emit` produces; returns its result.

        The slice `emit` just appended is reversed and daggered.  A counting
        builder keeps no gates, so its slice is empty and the block is tallied
        forward: the constructions emit no T or T-dagger, so the adjoint has
        the same kinds, only negated angles.
        """
        start = len(self.gates)
        result = emit()
        self.gates[start:] = _reversed_adjoint(self.gates[start:])
        return result

    def within(self, compute, apply) -> None:
        """Emit `compute`, then `apply(compute's result)`, then compute's adjoint.

        The adjoint reuses the qubits `compute` allocated and does not re-run
        it: the reversed, daggered slice compute recorded is appended and its
        tally delta is added again.  A recording build tallies nothing and a
        counting build records nothing, so each mode fills its own half.
        """
        start = len(self.gates)
        delta, _, result = self._tally(compute)
        computed = self.gates[start:]
        apply(result)
        self.gates.extend(_reversed_adjoint(computed))
        self._add(delta)

    def _tally(self, emit):
        """Run `emit`; return (tally delta, qubits allocated, emit's result).
        The delta is empty on a recording builder.  A raising block keeps
        what it emitted, as a recording build does."""
        counts, qubits = self._counts[:], self.num_qubits
        result = emit()
        kinds = {kind: now - was for kind, now, was
                 in zip(_KINDS, self._counts, counts) if now != was}
        return CountSummary(kinds=kinds), self.num_qubits - qubits, result

    def _add(self, delta: CountSummary, times: int = 1) -> None:
        counts = self._counts
        for kind, count in delta.kinds.items():
            counts[_SLOT[kind]] += count * times

    def repeat(self, indices, body) -> None:
        """Emit body(i) for each i of the sequence `indices`, in order.

        `body` must emit the same gate kinds on every iteration and allocate
        nothing.  A recording builder runs every iteration.  A counting
        builder runs only the first and the last, refuses the loop if their
        tallies differ or if the body allocates, and adds the first's tally
        once for each iteration it skips, so a uniform loop costs O(1).
        """
        if self._finalized:
            raise CircuitError("builder already finalized")
        if not self.counting:
            for i in indices:
                body(i)
            return
        if not indices:
            return
        once = self._tally(lambda: body(indices[0]))[:2]
        if once[1]:
            raise CircuitError("a repeat body must not allocate qubits")
        if len(indices) > 1:
            if self._tally(lambda: body(indices[-1]))[:2] != once:
                raise CircuitError("a repeat body's first and last iterations differ")
            self._add(once[0], len(indices) - 2)

    def cached(self, key: tuple, emit) -> None:
        """Emit a block, memoising its tallies by `key` in counting mode.

        `emit` must be deterministic given `key`: same key, same gate counts
        and same number of ancilla allocations.  Recording builders always
        call `emit` so simulations see real gates.
        """
        if self._finalized:
            raise CircuitError("builder already finalized")
        if not self.counting:
            emit()
            return
        hit = _BLOCK_CACHE.get(key)
        if hit is not None:
            delta, alloc = hit
            self._add(delta)
            self.num_qubits += alloc
            return
        _BLOCK_CACHE[key] = self._tally(emit)[:2]

    # -- finalization --------------------------------------------------------

    def finalize(self) -> Circuit | CountSummary:
        """End the build: the recorded Circuit, or a counting build's tallies."""
        self._finalized = True
        if self.counting:
            kinds = {kind: n for kind, n in zip(_KINDS, self._counts) if n}
            return CountSummary(self.num_qubits, kinds, self.name)
        # Each gate was validated when it was kept, against a width that only
        # grows, and `adjoint`/`within` only add daggers of kept gates.
        return Circuit._of_checked_gates(
            num_qubits=self.num_qubits,
            gates=tuple(self.gates),
            data_registers=tuple(self._data_regs),
            ancilla_registers=tuple(self._anc_regs),
            name=self.name,
        )


def adjoint(c: Circuit) -> Circuit:
    """Reverse the gate list, adjointing each gate."""
    return Circuit(
        num_qubits=c.num_qubits,
        gates=tuple(_reversed_adjoint(c.gates)),
        data_registers=c.data_registers,
        ancilla_registers=c.ancilla_registers,
        name=c.name + "_adj",
    )


def circuit_to_text(c: Circuit) -> str:
    """Plain-text dump, one gate per line; used by golden tests."""
    lines = [f"qubits={c.num_qubits}"]
    for kind, qubits, angle in c.gates:
        body = f"{kind} " + ",".join(str(q) for q in qubits)
        if kind in ANGLE_KINDS:
            body += f";angle={angle!r}"
        lines.append(body)
    return "\n".join(lines) + "\n"
