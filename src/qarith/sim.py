"""Verification simulators.

Both simulators run a whole batch of basis states per pass, with one Python
step per gate rather than one per gate and state.

Permutation gates (X, CNOT, CCX, SWAP) run bit-sliced.  The batch is
transposed into one bit plane per qubit: a Python int whose bit b is that
qubit's value in state b.  X is then ``p[q] ^= ones``, CNOT/CCX are
``p[t] ^= p[c1] & ...`` and SWAP swaps two planes, each one big-int operation
for the whole batch at any width.  `_apply_perm` is the only statement of
these rules; `simulate_permutation_batch` and the statevector's permutation
steps both go through it.

`simulate_statevector` evolves a 2^n x B block of basis columns through the
full alphabet (the QFT adders emit H, CPHASE and RZ, and the QFT subtractor
X as well).  The gate list is first fused into steps: a run of consecutive
permutation gates becomes one row-index array (the kernel applied to every
basis index), a run of consecutive diagonal gates one phase vector, and each
H a step of its own.
Callers that check many cases pass about BLOCK_AMPLITUDES amplitudes' worth
of columns per call, which bounds the memory a check needs.

Global phase is ignored everywhere; arithmetic semantics live in the
computational basis.
"""
from __future__ import annotations

import functools
import itertools
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
BLOCK_AMPLITUDES = 1 << 12  # statevector block size a batched check aims for
_BASIS_TOL = 1e-9
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_PHASES = {T: math.pi / 4, TDG: -math.pi / 4}
_DIAGONAL_KINDS = frozenset(_PHASES) | {RZ, CPHASE}


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


def _transpose(rows, width: int) -> np.ndarray:
    """Bit-matrix transpose: len(rows) ints of `width` bits become `width`
    ints of len(rows) bits, bit b of result q being bit q of rows[b].  Ints
    of up to 64 bits travel as uint64 words, longer ones as Python ints."""
    count, nbytes = len(rows), (width + 7) // 8
    if width <= 64:
        raw = np.array(rows, dtype="<u8").view(np.uint8).reshape(count, 8)
    else:
        raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows),
                            dtype=np.uint8).reshape(count, nbytes)
    bits = np.unpackbits(raw[:, :nbytes], bitorder="little").reshape(count, 8 * nbytes)
    # Whole-buffer unpacking and packing: numpy's per-row loops are slow on
    # short rows.
    padded = np.zeros((width, -(-count // 8) * 8), dtype=np.uint8)
    padded[:, :count] = bits[:, :width].T
    cols = np.packbits(padded, bitorder="little").reshape(width, padded.shape[1] // 8)
    if count <= 64:
        words = np.zeros((width, 8), dtype=np.uint8)
        words[:, :cols.shape[1]] = cols
        return words.view("<u8")[:, 0]
    return np.array([int.from_bytes(col.tobytes(), "little") for col in cols],
                    dtype=object)


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


def _step_kind(g: Gate) -> str:
    kind = g[0]
    if kind in PERMUTATION_KINDS:
        return "perm"
    if kind in _DIAGONAL_KINDS:
        return "phase"
    if kind == H:
        return H
    raise SimulationError(f"unsupported gate kind {kind}")  # pragma: no cover


@functools.lru_cache(maxsize=1)
def _statevector_steps(c: Circuit) -> tuple[tuple[str, object], ...]:
    """The circuit as fused statevector steps (kind, operand).  Cached, so a
    check that evolves its cases block by block fuses the gates once."""
    n = c.num_qubits
    idx = np.arange(1 << n)
    idx_planes = _transpose(idx, n).tolist()
    steps = []
    for kind, run in itertools.groupby(c.gates, _step_kind):
        run = list(run)
        if kind == H:
            steps += [(H, qs[0]) for _, qs, _ in run]
        elif kind == "perm":
            # new[i] = old[P^-1(i)]; every permutation gate is an involution,
            # so P^-1 is the run applied in reverse.
            steps.append((kind, _run_perm(run[::-1], idx_planes.copy(), len(idx))))
        else:
            theta = np.zeros(1 << n)
            for g_kind, qs, angle in run:
                bit = (idx >> qs[0]) & (idx >> qs[-1]) & 1
                if g_kind == RZ:
                    theta += angle * (bit - 0.5)
                else:
                    theta += _PHASES.get(g_kind, angle) * bit
            steps.append((kind, np.exp(1j * theta)[:, None]))
    return tuple(steps)


def _apply_step(block: np.ndarray, step) -> np.ndarray:
    """One fused step on a 2^n x B block of statevector columns."""
    kind, operand = step
    if kind == "perm":
        return block[operand]
    if kind == "phase":
        block *= operand
        return block
    view = block.reshape(block.shape[0] >> (operand + 1), 2,
                         block.shape[1] << operand)
    lo = view[:, 0, :] * _INV_SQRT2
    hi = view[:, 1, :] * _INV_SQRT2
    view[:, 0, :] = lo + hi
    view[:, 1, :] = lo - hi
    return block


def simulate_statevector(c: Circuit, states) -> np.ndarray:
    """Exact dense evolution of B basis states through the full alphabet:
    a 2^n x B array with one column per input."""
    n = c.num_qubits
    if n > STATEVECTOR_LIMIT:
        raise SimulationError(
            f"{n} qubits exceeds statevector limit {STATEVECTOR_LIMIT}"
        )
    states = _basis_states(states, n)
    block = np.zeros((1 << n, len(states)), dtype=np.complex128)
    block[states, np.arange(len(states))] = 1.0
    for step in _statevector_steps(c):
        block = _apply_step(block, step)
    norms = np.linalg.norm(block, axis=0)
    drift = np.abs(norms - 1.0) > 1e-9
    if drift.any():
        raise SimulationError(f"norm drifted to {norms[drift][0]}")
    return block


def basis_columns(states: np.ndarray):
    """(index, is_basis) of each column's largest amplitude: is_basis holds
    where that amplitude carries probability >= 1 - _BASIS_TOL."""
    probs = np.abs(states) ** 2
    idx = np.argmax(probs, axis=0)
    best = np.take_along_axis(probs, np.expand_dims(idx, 0), axis=0)[0]
    return idx, best >= 1.0 - _BASIS_TOL
