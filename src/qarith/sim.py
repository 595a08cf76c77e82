"""Verification simulators.

One kernel, `_apply_perm`, holds the rules of the permutation gates (X, CNOT,
CCX, MCX, SWAP).  It uses only shifts, ands and xors, so one body acts on a
Python int (one basis state of any width), on an int64 or object array (a
batch of basis states; object past 63 qubits) and on the int64 index array
that permutes a dense statevector.  `simulate_permutation`,
`simulate_permutation_batch` and `simulate_statevector` all call it; the
statevector simulator adds the rotation-bearing gates (H, S, T, RZ, CPHASE)
for the QFT adders.  Global phase is ignored everywhere; arithmetic semantics
live in the computational basis.
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
    S,
    SDG,
    SWAP,
    T,
    TDG,
    X,
    Circuit,
    Gate,
)

PERMUTATION_TABLE_LIMIT = 16
STATEVECTOR_LIMIT = 22
_BASIS_TOL = 1e-9


class SimulationError(ValueError):
    pass


def _apply_perm(g: Gate, s):
    """Permutation gate g applied to basis state(s) s (an int or int array).

    Every permutation gate is an involution, so on the statevector's index
    array the result also reads new[i] = old[P(i)].
    """
    q = g.qubits
    if g.kind == X:
        return s ^ (1 << q[0])
    if g.kind == SWAP:
        a, b = q
        d = ((s >> a) ^ (s >> b)) & 1
        return s ^ ((d << a) | (d << b))
    # CNOT, CCX, MCX: flip the last qubit when all the others are set.
    bit = s >> q[0]
    for c in q[1:-1]:
        bit = bit & (s >> c)
    return s ^ ((bit & 1) << q[-1])


def _permute(c: Circuit, s):
    for i, g in enumerate(c.gates):
        if g.kind not in PERMUTATION_KINDS:
            raise SimulationError(f"non-permutation gate {g.kind} at gate {i}")
        s = _apply_perm(g, s)
    return s


def simulate_permutation(c: Circuit, basis_in: int) -> int:
    """Apply a permutation-only circuit to one basis state (any width)."""
    if not 0 <= basis_in < (1 << c.num_qubits):
        raise SimulationError("input state out of range")
    return _permute(c, basis_in)


def simulate_permutation_batch(c: Circuit, states) -> np.ndarray:
    """Apply a permutation-only circuit to many basis states at once.

    The states are held as int64 up to 63 qubits and as Python ints in an
    object array past that.
    """
    exact = np.array(states, dtype=object)
    if exact.size and (exact.min() < 0 or exact.max() >> c.num_qubits):
        raise SimulationError("input state out of range")
    return _permute(c, exact.astype(np.int64 if c.num_qubits <= 63 else object))


def permutation_table(c: Circuit, limit: int = PERMUTATION_TABLE_LIMIT) -> np.ndarray:
    """Full truth table of a permutation circuit as an int array."""
    if c.num_qubits > limit:
        raise SimulationError(
            f"{c.num_qubits} qubits exceeds table limit {limit}"
        )
    table = simulate_permutation_batch(c, np.arange(1 << c.num_qubits))
    return np.asarray(table, dtype=np.int64)


def is_bijection(table: np.ndarray) -> bool:
    return len(np.unique(table)) == len(table)


def _apply_single_qubit(state: np.ndarray, q: int, u00, u01, u10, u11) -> np.ndarray:
    view = state.reshape(-1, 2, 1 << q)
    lo = view[:, 0, :].copy()
    hi = view[:, 1, :]
    view[:, 0, :] = u00 * lo + u01 * hi
    view[:, 1, :] = u10 * lo + u11 * hi
    return state


def simulate_statevector(
    c: Circuit, basis_in: int, limit: int = STATEVECTOR_LIMIT
) -> np.ndarray:
    """Exact dense evolution of one basis input through the full alphabet."""
    n = c.num_qubits
    if n > limit:
        raise SimulationError(f"{n} qubits exceeds statevector limit {limit}")
    if not 0 <= basis_in < (1 << n):
        raise SimulationError("input state out of range")
    dim = 1 << n
    state = np.zeros(dim, dtype=np.complex128)
    state[basis_in] = 1.0
    idx = np.arange(dim)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for g in c.gates:
        k = g.kind
        if k in PERMUTATION_KINDS:
            state = state[_apply_perm(g, idx)]
        elif k == H:
            state = _apply_single_qubit(
                state, g.qubits[0], inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2
            )
        elif k in (S, SDG, T, TDG):
            angle = {S: math.pi / 2, SDG: -math.pi / 2,
                     T: math.pi / 4, TDG: -math.pi / 4}[k]
            mask = (idx >> g.qubits[0]) & 1 == 1
            state[mask] *= cmath.exp(1j * angle)
        elif k == RZ:
            mask = (idx >> g.qubits[0]) & 1 == 1
            state[~mask] *= cmath.exp(-0.5j * g.angle)
            state[mask] *= cmath.exp(0.5j * g.angle)
        elif k == CPHASE:
            cq, t = g.qubits
            mask = (((idx >> cq) & (idx >> t)) & 1) == 1
            state[mask] *= cmath.exp(1j * g.angle)
        else:  # pragma: no cover - alphabet is closed
            raise SimulationError(f"unsupported gate kind {k}")
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise SimulationError(f"norm drifted to {norm}")
    return state


def extract_basis(state: np.ndarray, tol: float = _BASIS_TOL) -> int:
    """Index of the basis state the vector has collapsed to.

    Raises if no basis amplitude carries probability >= 1 - tol, which
    signals a broken circuit rather than a tolerance issue.
    """
    probs = np.abs(state) ** 2
    idx = int(np.argmax(probs))
    if probs[idx] < 1.0 - tol:
        raise SimulationError(
            f"state is not within {tol} of a basis state "
            f"(best |amp|^2 = {probs[idx]:.6f} at {idx})"
        )
    return idx
