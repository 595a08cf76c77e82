"""Gate alphabet, registers, and the circuit builder.

All registers are little-endian: the least significant bit of an encoded
integer lives in the first qubit of the register.  Circuits are purely
unitary -- there is no measurement and no reset in the gate alphabet, and
ancilla registers allocated through the builder are expected to return to
|0> on every basis input (checked by the simulators).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

# Gate kinds.  Permutation gates first, then Clifford/T single-qubit gates,
# then parameterised phase gates.
X = "X"
CNOT = "CNOT"
CCX = "CCX"
MCX = "MCX"
SWAP = "SWAP"
H = "H"
S = "S"
SDG = "SDG"
T = "T"
TDG = "TDG"
RZ = "RZ"
CPHASE = "CPHASE"

PERMUTATION_KINDS = frozenset({X, CNOT, CCX, MCX, SWAP})
ANGLE_KINDS = frozenset({RZ, CPHASE})
ALL_KINDS = frozenset(
    {X, CNOT, CCX, MCX, SWAP, H, S, SDG, T, TDG, RZ, CPHASE}
)

_ADJOINT_KIND = {S: SDG, SDG: S, T: TDG, TDG: T}
# Operand count of every kind but MCX, which takes three or more controls.
_ARITY = {X: 1, CNOT: 2, CCX: 3, SWAP: 2, H: 1, S: 1, SDG: 1,
          T: 1, TDG: 1, RZ: 1, CPHASE: 2}
# Kind of an X gate by its number of controls; three or more make an MCX.
_CONTROLLED_X = {0: X, 1: CNOT, 2: CCX}


class CircuitError(ValueError):
    """Raised for malformed gates, registers or builder misuse."""


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def adjoint(self) -> "Gate":
        if self.kind in ANGLE_KINDS:
            return Gate(self.kind, self.qubits, -self.angle)
        return Gate(_ADJOINT_KIND.get(self.kind, self.kind), self.qubits)


@dataclass(frozen=True)
class Register:
    """Ordered, little-endian run of qubit ids."""

    qubits: tuple[int, ...]
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
    kind, qs = g.kind, g.qubits
    n = len(qs)
    # A well-formed gate passes this one test, which builds no set for one-
    # and two-qubit gates (min() and max() cost more than the loop on three
    # operands or fewer); a malformed one falls through to the checks that
    # name its first fault.
    if ((n == _ARITY.get(kind) or kind == MCX and n >= 4)
            and (n == 1 or (qs[0] != qs[1] if n == 2 else len(set(qs)) == n))
            and (kind not in ANGLE_KINDS
                 or g.angle is not None and math.isfinite(g.angle))):
        for q in qs:
            if not 0 <= q < num_qubits:
                break
        else:
            return
    where = "" if index is None else f" at gate {index}"
    if g.kind not in ALL_KINDS:
        raise CircuitError(f"unknown gate kind {g.kind!r}{where}")
    if len(set(g.qubits)) != len(g.qubits):
        raise CircuitError(f"duplicate operand in {g.kind}{g.qubits}{where}")
    for q in g.qubits:
        if not 0 <= q < num_qubits:
            raise CircuitError(
                f"operand {q} out of range for {num_qubits} qubits{where}"
            )
    if g.kind in ANGLE_KINDS:
        if g.angle is None or not math.isfinite(g.angle):
            raise CircuitError(f"{g.kind} needs a finite angle{where}")
    if g.kind == MCX:
        if len(g.qubits) < 4:
            raise CircuitError(f"MCX needs >= 3 controls{where}")
    elif len(g.qubits) != _ARITY[g.kind]:
        raise CircuitError(f"{g.kind} takes {_ARITY[g.kind]} operands{where}")


@dataclass
class CountSummary:
    """Raw gate tallies from a counting-mode build (no gate list kept).

    ``kinds`` maps gate kind to count; MCX gates are additionally broken out
    by control count in ``mcx_controls``.  ``num_qubits`` is the peak width
    including every allocated ancilla.
    """

    num_qubits: int = 0
    kinds: dict[str, int] = field(default_factory=dict)
    mcx_controls: dict[int, int] = field(default_factory=dict)
    name: str = "circuit"

    def add_kind(self, kind: str, count: int = 1) -> None:
        self.kinds[kind] = self.kinds.get(kind, 0) + count

    def merge(self, other: "CountSummary", times: int = 1) -> None:
        for k, v in other.kinds.items():
            self.kinds[k] = self.kinds.get(k, 0) + v * times
        for k, v in other.mcx_controls.items():
            self.mcx_controls[k] = self.mcx_controls.get(k, 0) + v * times


# Cache of CountSummary deltas for cached() blocks, shared across builders.
# Keys are fully self-describing tuples, so identical keys always describe
# identical gate sequences up to qubit relabeling.
_BLOCK_CACHE: dict[tuple, tuple[CountSummary, int]] = {}


def clear_block_cache() -> None:
    _BLOCK_CACHE.clear()


class Builder:
    """Single-owner circuit builder with append-only qubit allocation.

    Every gate method goes through one emission path, ``_emit``.  A recording
    builder (the default) builds, validates and keeps each gate, and
    ``finalize`` returns a Circuit.  A counting builder only tallies kinds
    and MCX control counts, never builds a Gate, and ``finalize`` returns a
    CountSummary; its ``cached`` blocks are memoised by key, so repeated
    structures cost O(1) after the first emission, which keeps sweep-scale
    builds (n ~ 2^13) tractable.  Two helpers tally in closed form through
    ``bulk`` instead of emitting gate by gate: the unary-iteration lookup
    (``modexp.emit_lookup``) and the uncontrolled CNOT fan of
    ``adders.emit_copy``.

    Uncomputation has two primitives, named after Q#'s ``Adjoint`` and
    ``within ... apply``: ``adjoint(emit)`` emits the adjoint of a block, and
    ``within(compute, apply)`` emits compute, apply and compute's adjoint on
    the qubits compute allocated.  Counting builders emit neither adjoint:
    they tally the block forward, or add its tallies a second time.
    """

    def __init__(self, counting: bool = False, name: str = "circuit"):
        self.counting = counting
        self.name = name
        self.num_qubits = 0
        self.gates: list[Gate] = []
        self._data_regs: list[Register] = []
        self._anc_regs: list[Register] = []
        self._summary = CountSummary(name=name) if counting else None
        self._finalized = False

    # -- allocation --------------------------------------------------------

    def _alloc(self, size: int, name: str) -> Register:
        if self._finalized:
            raise CircuitError("builder already finalized")
        if size < 1:
            raise CircuitError("register size must be >= 1")
        reg = Register(tuple(range(self.num_qubits, self.num_qubits + size)), name)
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
        if self._finalized:
            raise CircuitError("builder already finalized")
        if self.counting:
            kinds = self._summary.kinds
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == MCX:
                k = len(qubits) - 1
                mcx = self._summary.mcx_controls
                mcx[k] = mcx.get(k, 0) + 1
            return
        gate = Gate(kind, qubits, angle)
        _validate_gate(gate, self.num_qubits)
        self.gates.append(gate)

    def append(self, gate: Gate) -> None:
        self._emit(gate.kind, gate.qubits, gate.angle)

    def x(self, t: int) -> None:
        self._emit(X, (t,))

    def cnot(self, c: int, t: int) -> None:
        self._emit(CNOT, (c, t))

    def ccx(self, c1: int, c2: int, t: int) -> None:
        self._emit(CCX, (c1, c2, t))

    def mcx(self, controls, t: int) -> None:
        """X on `t` under any number of controls: X, CNOT, CCX or MCX."""
        controls = tuple(controls)
        self._emit(_CONTROLLED_X.get(len(controls), MCX), controls + (t,))

    def swap(self, a: int, b: int) -> None:
        self._emit(SWAP, (a, b))

    def h(self, t: int) -> None:
        self._emit(H, (t,))

    def s(self, t: int) -> None:
        self._emit(S, (t,))

    def sdg(self, t: int) -> None:
        self._emit(SDG, (t,))

    def t(self, q: int) -> None:
        self._emit(T, (q,))

    def tdg(self, q: int) -> None:
        self._emit(TDG, (q,))

    def rz(self, t: int, angle: float) -> None:
        self._emit(RZ, (t,), angle)

    def cphase(self, c: int, t: int, angle: float) -> None:
        self._emit(CPHASE, (c, t), angle)

    def bulk(self, kind: str, count: int) -> None:
        """Tally `count` gates of `kind` (not MCX) without emitting them.

        Only legal in counting mode; recording builders must emit real gates.
        """
        if not self.counting:
            raise CircuitError("bulk tallies are only valid in counting mode")
        if count:
            self._summary.add_kind(kind, count)

    # -- structure helpers ---------------------------------------------------

    def adjoint(self, emit):
        """Emit the adjoint of whatever `emit` produces; returns its result.

        Recording builders reverse and dagger the slice `emit` just appended.
        Counting builders emit forward: the adjoint has the same tallies
        (T and T-dagger are pooled in the T tally).
        """
        if self.counting:
            return emit()
        start = len(self.gates)
        result = emit()
        self.gates[start:] = [g.adjoint() for g in reversed(self.gates[start:])]
        return result

    def within(self, compute, apply) -> None:
        """Emit `compute`, then `apply(compute's result)`, then compute's adjoint.

        The adjoint reuses the qubits `compute` allocated.  Recording builders
        append the reversed, daggered slice `compute` recorded; counting
        builders add compute's tally delta a second time without re-running it.
        """
        if self.counting:
            delta, _, result = self._tally(compute)
            apply(result)
            self._summary.merge(delta)
            return
        start = len(self.gates)
        result = compute()
        end = len(self.gates)
        apply(result)
        self.gates.extend(g.adjoint() for g in reversed(self.gates[start:end]))

    def _tally(self, emit):
        """Run `emit` on a counting builder; return (tally delta, qubits
        allocated, emit's result)."""
        outer, self._summary = self._summary, CountSummary()
        qubits = self.num_qubits
        result = emit()
        delta, self._summary = self._summary, outer
        outer.merge(delta)
        return delta, self.num_qubits - qubits, result

    def cached(self, key: tuple, emit) -> None:
        """Emit a block, memoising its tallies by `key` in counting mode.

        `emit` must be deterministic given `key`: same key, same gate counts
        and same number of ancilla allocations.  Recording builders always
        call `emit` so simulations see real gates.
        """
        if not self.counting:
            emit()
            return
        hit = _BLOCK_CACHE.get(key)
        if hit is not None:
            delta, alloc = hit
            self._summary.merge(delta)
            self.num_qubits += alloc
            return
        _BLOCK_CACHE[key] = self._tally(emit)[:2]

    # -- finalization --------------------------------------------------------

    def finalize(self, name: str | None = None) -> Circuit | CountSummary:
        """End the build: the recorded Circuit, or a counting build's tallies."""
        self._finalized = True
        if self.counting:
            self._summary.num_qubits = self.num_qubits
            return self._summary
        # `_emit` validated each gate against a width that only grows, and
        # `adjoint`/`within` only add daggers of emitted gates.
        return Circuit._of_checked_gates(
            num_qubits=self.num_qubits,
            gates=tuple(self.gates),
            data_registers=tuple(self._data_regs),
            ancilla_registers=tuple(self._anc_regs),
            name=name or self.name,
        )


def new_builder(counting: bool = False, name: str = "circuit") -> Builder:
    return Builder(counting=counting, name=name)


def adjoint(c: Circuit) -> Circuit:
    """Reverse the gate list, adjointing each gate."""
    return Circuit(
        num_qubits=c.num_qubits,
        gates=tuple(g.adjoint() for g in reversed(c.gates)),
        data_registers=c.data_registers,
        ancilla_registers=c.ancilla_registers,
        name=c.name + "_adj",
    )


def _controlled_gate(g: Gate, ctrl: int) -> list[Gate]:
    """Lift one gate to its controlled version over the fixed alphabet."""
    k, q = g.kind, g.qubits
    if k == X:
        return [Gate(CNOT, (ctrl, q[0]))]
    if k == CNOT:
        return [Gate(CCX, (ctrl, q[0], q[1]))]
    if k in (CCX, MCX):
        return [Gate(MCX, (ctrl,) + q)]
    if k == SWAP:
        a, b = q
        return [Gate(CNOT, (b, a)), Gate(CCX, (ctrl, a, b)), Gate(CNOT, (b, a))]
    if k == S:
        return [Gate(CPHASE, (ctrl, q[0]), math.pi / 2)]
    if k == SDG:
        return [Gate(CPHASE, (ctrl, q[0]), -math.pi / 2)]
    if k == T:
        return [Gate(CPHASE, (ctrl, q[0]), math.pi / 4)]
    if k == TDG:
        return [Gate(CPHASE, (ctrl, q[0]), -math.pi / 4)]
    if k == RZ:
        # controlled-Rz(theta) = Rz(ctrl, -theta/2) . CPhase(ctrl, t, theta)
        # up to global phase.
        return [Gate(RZ, (ctrl,), -g.angle / 2), Gate(CPHASE, (ctrl, q[0]), g.angle)]
    if k == CPHASE:
        c, t = q
        half = g.angle / 2
        return [
            Gate(CPHASE, (c, t), half),
            Gate(CNOT, (ctrl, c)),
            Gate(CPHASE, (c, t), -half),
            Gate(CNOT, (ctrl, c)),
            Gate(CPHASE, (ctrl, t), half),
        ]
    if k == H:
        # Basis change Ry(pi/4) mapping Z to (X+Z)/sqrt(2) around CPhase(pi):
        # CH = A . CZ . A^dagger with A = Ry(pi/4) = S H T H S^dagger.
        t = q[0]
        a_dag = [Gate(SDG, (t,)), Gate(H, (t,)), Gate(TDG, (t,)),
                 Gate(H, (t,)), Gate(S, (t,))]
        a_fwd = [Gate(SDG, (t,)), Gate(H, (t,)), Gate(T, (t,)),
                 Gate(H, (t,)), Gate(S, (t,))]
        return a_dag + [Gate(CPHASE, (ctrl, t), math.pi)] + a_fwd
    raise CircuitError(f"cannot control gate kind {k!r}")


def controlled(c: Circuit, control: int) -> Circuit:
    """Circuit acting as identity when `control`=0 and as `c` when it is 1."""
    if control < 0:
        raise CircuitError("control qubit id must be non-negative")
    used = {q for g in c.gates for q in g.qubits}
    for reg in c.data_registers + c.ancilla_registers:
        used.update(reg)
    if control in used:
        raise CircuitError(f"control qubit {control} collides with the circuit")
    gates: list[Gate] = []
    for g in c.gates:
        gates.extend(_controlled_gate(g, control))
    return Circuit(
        num_qubits=max(c.num_qubits, control + 1),
        gates=tuple(gates),
        data_registers=c.data_registers,
        ancilla_registers=c.ancilla_registers,
        name=c.name + "_ctrl",
    )


def circuit_to_text(c: Circuit) -> str:
    """Plain-text dump, one gate per line; used by golden tests."""
    lines = [f"qubits={c.num_qubits}"]
    for g in c.gates:
        body = f"{g.kind} " + ",".join(str(q) for q in g.qubits)
        if g.kind in ANGLE_KINDS:
            body += f";angle={g.angle!r}"
        lines.append(body)
    return "\n".join(lines) + "\n"


def register_value(state: int, reg: Register) -> int:
    """Little-endian read of a register's bits out of a basis-state index."""
    v = 0
    for j, q in enumerate(reg):
        v |= ((state >> q) & 1) << j
    return v


def encode_register(value: int, reg: Register) -> int:
    """Basis-state bits for `value` placed on `reg` (other bits zero)."""
    if not 0 <= value < (1 << len(reg)):
        raise CircuitError(f"value {value} does not fit register of {len(reg)}")
    s = 0
    for j, q in enumerate(reg):
        if (value >> j) & 1:
            s |= 1 << q
    return s
