"""Verification simulators.

Each simulator runs a whole batch of basis states per pass, with one Python
step per gate rather than one per gate and state.

Permutation gates (X, CNOT, CCX, SWAP) run bit-sliced.  The batch is
transposed into one bit plane per qubit: a Python int whose bit b is that
qubit's value in state b.  X is then ``p[q] ^= ones``, CNOT/CCX are
``p[t] ^= p[c1] & ...`` and SWAP swaps two planes, each one big-int operation
for the whole batch at any width.  `_apply_perm` states these rules on bit
planes; `simulate_permutation_batch` and the statevector's permutation
steps both go through it.

`simulate_product` runs the full alphabet (the QFT adders emit H, CPHASE and
RZ, and the QFT subtractor X as well) with two amplitudes per qubit per
case.  On a basis input the QFT adders pass only through product states,
because each CPHASE has an operand in a basis state; a case that a gate
would entangle is reported, not followed.  `simulate_statevector`, dense
and one step per gate, is the reference the tests hold it to.

Arithmetic semantics live in the computational basis: checks compare output
phases across cases and ignore the global one.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .circuit import (
    CPHASE,
    H,
    PERMUTATION_KINDS,
    RZ,
    SWAP,
    T,
    TDG,
    X,
    Circuit,
    Gate,
)

STATEVECTOR_LIMIT = 22
_SUPERPOSED = 2  # simulate_product's value of a qubit in no basis state
_FLIP = np.array([1, 0, _SUPERPOSED], dtype=np.int8)  # X on a qubit's value
_BASIS_TOL = 1e-9
# Superposed, so controlling no gate, once a qubit's smaller probability
# passes this; float error in the QFT adders stays under 2e-30 at n = 1,024.
_SUPERPOSED_TOL = 1e-20
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_PHASES = {T: math.pi / 4, TDG: -math.pi / 4}


class SimulationError(ValueError):
    pass


def basis_dtype(num_qubits: int):
    """Array dtype that holds basis states of num_qubits qubits exactly:
    int64 up to 63 qubits, Python ints (object) past that."""
    return np.int64 if num_qubits <= 63 else object


def _apply_perm(g: Gate, planes: list[int], ones: int) -> None:
    """Permutation gate g applied in place to the bit planes of a batch;
    ones has a bit set for every state in the batch."""
    kind, q, _ = g
    if kind == X:
        planes[q[0]] ^= ones
    elif kind == SWAP:
        a, b = q
        planes[a], planes[b] = planes[b], planes[a]
    else:  # CNOT, CCX: flip the last qubit where all the others are set
        hit = planes[q[0]]
        for c in q[1:-1]:
            hit &= planes[c]
        planes[q[-1]] ^= hit


def _unpack(rows, width: int) -> np.ndarray:
    """len(rows) ints of `width` bits as a len(rows) x width uint8 bit
    matrix, bit q of rows[b] at [b, q].  Ints of up to 64 bits travel as
    uint64 words, longer ones as Python ints."""
    count, nbytes = len(rows), (width + 7) // 8
    if width <= 64:
        raw = np.array(rows, dtype="<u8").view(np.uint8).reshape(count, 8)
    else:
        raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows),
                            dtype=np.uint8).reshape(count, nbytes)
    bits = np.unpackbits(raw[:, :nbytes], bitorder="little").reshape(count, 8 * nbytes)
    return bits[:, :width]


def _pack(bits: np.ndarray) -> np.ndarray:
    """The inverse of _unpack: one int per row of a bit matrix, as uint64
    words up to 64 columns and Python ints past that."""
    count, width = bits.shape
    # Whole-buffer packing: numpy's per-row loops are slow on short rows.
    padded = np.zeros((count, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = bits
    rows = np.packbits(padded, bitorder="little").reshape(count, padded.shape[1] // 8)
    if width <= 64:
        words = np.zeros((count, 8), dtype=np.uint8)
        words[:, :rows.shape[1]] = rows
        return words.view("<u8")[:, 0]
    return np.array([int.from_bytes(row.tobytes(), "little") for row in rows],
                    dtype=object)


def _transpose(rows, width: int) -> np.ndarray:
    """Bit-matrix transpose: len(rows) ints of `width` bits become `width`
    ints of len(rows) bits, bit b of result q being bit q of rows[b]."""
    return _pack(_unpack(rows, width).T)


def _basis_states(states, n: int) -> list[int]:
    ints = [int(s) for s in states]
    if ints and (min(ints) < 0 or max(ints) >> n):
        raise SimulationError("input state out of range")
    return ints


def _run_perm(gates, planes: list[int], count: int) -> np.ndarray:
    """Run permutation gates over the bit planes of `count` basis states and
    return the states."""
    ones = (1 << count) - 1
    for i, g in enumerate(gates):
        if g[0] not in PERMUTATION_KINDS:
            raise SimulationError(f"non-permutation gate {g[0]} at gate {i}")
        _apply_perm(g, planes, ones)
    return _transpose(planes, count)


def simulate_permutation_batch(c: Circuit, states) -> np.ndarray:
    """Apply a permutation-only circuit to many basis states at once.

    The result holds int64 up to 63 qubits and Python ints in an object
    array past that.
    """
    n = c.num_qubits
    states = _basis_states(states, n)
    out = _run_perm(c.gates, _transpose(states, n).tolist(), len(states))
    return out.astype(basis_dtype(n))


def _diagonal(kind: str, angle) -> tuple[complex, complex]:
    """(factor on |0>, factor on |1>) of a diagonal gate; CPHASE's pair acts
    on either operand where the other is |1>."""
    if kind == RZ:
        return cmath.exp(-0.5j * angle), cmath.exp(0.5j * angle)
    return 1.0, cmath.exp(1j * _PHASES.get(kind, angle))


def simulate_statevector(c: Circuit, states) -> np.ndarray:
    """Dense evolution of B basis states through the full alphabet, one gate
    at a time: a 2^n x B array with one column per input.  The reference the
    tests hold simulate_product to."""
    n = c.num_qubits
    if n > STATEVECTOR_LIMIT:
        raise SimulationError(
            f"{n} qubits exceeds statevector limit {STATEVECTOR_LIMIT}"
        )
    states = _basis_states(states, n)
    block = np.zeros((1 << n, len(states)), dtype=np.complex128)
    block[states, np.arange(len(states))] = 1.0
    idx = np.arange(1 << n)
    idx_planes = _transpose(idx, n).tolist()
    for g in c.gates:
        kind, q, angle = g
        if kind in PERMUTATION_KINDS:
            # new[i] = old[g(i)]: every permutation gate is an involution.
            block = block[_run_perm([g], idx_planes.copy(), len(idx))]
        elif kind == H:
            view = block.reshape(-1, 2, block.shape[1] << q[0])
            lo, hi = view[:, 0, :] * _INV_SQRT2, view[:, 1, :] * _INV_SQRT2
            view[:, 0, :], view[:, 1, :] = lo + hi, lo - hi
        else:
            on = (idx >> q[0]) & (idx >> q[-1]) & 1
            block *= np.where(on, *_diagonal(kind, angle)[::-1])[:, None]
    norms = np.linalg.norm(block, axis=0)
    drift = np.abs(norms - 1.0) > 1e-9
    if drift.any():
        raise SimulationError(f"norm drifted to {norms[drift][0]}")
    return block


def _apply_product(g: Gate, amp: np.ndarray, val: np.ndarray,
                   entangled: np.ndarray) -> None:
    """Gate g applied in place to the product states of a batch.  amp[q]
    holds qubit q's two amplitudes per case and val[q] its basis value, or
    _SUPERPOSED; entangled marks the cases that a gate took out of the
    product states, where amp no longer follows them."""
    kind, q, angle = g
    if kind == H:
        lo, hi = amp[q[0]] * _INV_SQRT2
        amp[q[0]] = lo + hi, lo - hi
        probs = np.abs(amp[q[0]]) ** 2
        val[q[0]] = np.where(probs.min(axis=0) > _SUPERPOSED_TOL, _SUPERPOSED,
                             probs[1] > probs[0])
    elif kind == SWAP:
        a, b = q
        amp[[a, b]], val[[a, b]] = amp[[b, a]], val[[b, a]]
    elif kind in PERMUTATION_KINDS:  # X, CNOT, CCX: flip where controls are 1
        *ctrls, t = q
        ctrl = val[ctrls]  # a control at 0 leaves the gate the identity
        entangled |= (ctrl == _SUPERPOSED).any(axis=0) & (ctrl != 0).all(axis=0)
        on = (ctrl == 1).all(axis=0)
        amp[t] = np.where(on, amp[t, ::-1], amp[t])
        val[t] = np.where(on, _FLIP[val[t]], val[t])
    elif kind == CPHASE:  # a phase on whichever operand the other controls
        a, b = val[q[0]], val[q[1]]
        phase = _diagonal(kind, angle)[1]
        amp[q[1], 1] *= np.where(a == 1, phase, 1.0)
        a_superposed = a == _SUPERPOSED
        if a_superposed.any():  # never in the QFT adders, whose first operand is basis
            entangled |= a_superposed & (b == _SUPERPOSED)
            amp[q[0], 1] *= np.where(a_superposed & (b == 1), phase, 1.0)
    else:  # T, TDG, RZ
        zero, one = _diagonal(kind, angle)
        amp[q[0], 0] *= zero
        amp[q[0], 1] *= one


def simulate_product(c: Circuit, states):
    """(outputs, which are basis states, their phases) of circuit c on the
    basis inputs `states`, with two amplitudes per qubit per case.

    Exact while every gate keeps the state a product of one-qubit states:
    H, X, T, TDG and RZ always do, CPHASE when either operand is a basis
    state, and X, CNOT and CCX when every control is.  A case where a gate
    meets superposed operands it would entangle is marked by a NaN phase
    and is not a basis state; it never raises.  A phase is the output
    amplitude divided by its modulus, global phase included.
    """
    n = c.num_qubits
    states = _basis_states(states, n)
    val = _unpack(states, n).T.astype(np.int8, order="C")  # a row per qubit
    amp = np.stack([1 - val, val], axis=1).astype(np.complex128)
    entangled = np.zeros(len(states), dtype=bool)
    for g in c.gates:
        _apply_product(g, amp, val, entangled)
    out = np.abs(amp[:, 1]) > np.abs(amp[:, 0])
    picked = np.where(out, amp[:, 1], amp[:, 0])
    size = np.abs(picked)  # each at least 1/sqrt(2)
    basis = ~entangled & (np.prod(size, axis=0) ** 2 >= 1.0 - _BASIS_TOL)
    phases = np.prod(picked / size, axis=0)
    phases[entangled] = np.nan
    return _pack(out.T).astype(basis_dtype(n)), basis, phases
