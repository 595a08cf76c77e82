"""Clifford+T accounting.

One table, `_expansion`, states what each gate kind lowers to: the CCX and
SWAP templates, a rotation's T ladder, or the gate itself.  The T, CNOT and
Clifford tallies and both depths derive from it.  `lower_to_clifford_t` lays
a recorded circuit out with greedy as-soon-as-possible layering through one
`LayeringProfile` per kind, compiled on first use into one loop over the
whole gate list with each kind's straight-line code inline, so
`_greedy_depth` makes no Python call per gate.  For counting-mode builds
(no gate list) `lower_summary` composes the profiles' depths serially,
mirroring the conservative scheduling stance of the estimation methodology
this model follows.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .circuit import (
    ANGLE_KINDS,
    CCX,
    CNOT,
    CPHASE,
    H,
    RZ,
    SWAP,
    T,
    TDG,
    X,
    _ARITY,
    Circuit,
    CountSummary,
)

_T_KINDS = frozenset({T, TDG})


# T per rotation: ceil(0.53 * log2(1/eps) + 5.3) at synthesis error eps = 1e-10.
T_PER_ROTATION = math.ceil(0.53 * math.log2(1e10) + 5.3)


@dataclass
class LogicalCounts:
    qubits: int = 0
    t_count: int = 0
    toffoli_count: int = 0
    cnot_count: int = 0
    single_qubit_clifford: int = 0
    rotation_count: int = 0
    depth: int = 0
    t_depth: int = 0


# Standard 7-T decomposition of CCX over roles (c1, c2, t); verified by a
# statevector self-test in the test suite.
CCX_TEMPLATE: tuple[tuple[str, tuple[int, ...]], ...] = (
    (H, (2,)),
    (CNOT, (1, 2)),
    (TDG, (2,)),
    (CNOT, (0, 2)),
    (T, (2,)),
    (CNOT, (1, 2)),
    (TDG, (2,)),
    (CNOT, (0, 2)),
    (T, (1,)),
    (T, (2,)),
    (H, (2,)),
    (CNOT, (0, 1)),
    (T, (0,)),
    (TDG, (1,)),
    (CNOT, (0, 1)),
)


# SWAP over roles (a, b) as three alternating CNOTs.
SWAP_TEMPLATE: tuple[tuple[str, tuple[int, ...]], ...] = (
    (CNOT, (0, 1)),
    (CNOT, (1, 0)),
    (CNOT, (0, 1)),
)


# An offset for a role whose entry frontier cannot reach an expression.
# Frontiers never exceed the number of events laid out, so it never wins a max.
_UNREACHED = -(1 << 62)


@dataclass(frozen=True)
class LayeringProfile:
    """Greedy ASAP layering of one gate's events (its Clifford+T expansion)
    as a function of the frontiers of its roles on entry.

    Every frontier the events produce is a max-plus expression
    ``max over roles r of (f[r] + offset[r])`` of the entry frontiers ``f``.
    Expressions equal up to a constant share one ``shape`` (the offsets per
    role); ``outs`` gives each role's exit frontier and ``t_layers`` each
    distinct layer holding a T or T-dagger as (shape index, shift).
    `_straight_line` compiles a profile into code; `_row` reads its
    ``depth`` and ``t_depth``.
    """

    shapes: tuple[tuple[int, ...], ...]
    outs: tuple[tuple[int, int], ...]
    t_layers: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, events, roles: int) -> "LayeringProfile":
        """Lay out (kind, role indices) events symbolically, once."""
        front = [{r: 0} for r in range(roles)]
        t_exprs: list[dict[int, int]] = []
        for kind, qs in events:
            layer: dict[int, int] = {}
            for q in qs:
                for r, o in front[q].items():
                    layer[r] = max(layer.get(r, 0), o + 1)
            for q in qs:
                front[q] = layer
            if kind in _T_KINDS and layer not in t_exprs:
                t_exprs.append(layer)
        shapes: list[tuple[int, ...]] = []

        def ref(expr: dict[int, int]) -> tuple[int, int]:
            shift = min(expr.values())
            shape = tuple(expr[r] - shift if r in expr else _UNREACHED
                          for r in range(roles))
            if shape not in shapes:
                shapes.append(shape)
            return shapes.index(shape), shift

        outs = tuple(ref(e) for e in front)
        t_layers = tuple(ref(e) for e in t_exprs)
        return cls(tuple(shapes), outs, t_layers)

    @property
    def depth(self) -> int:
        """Depth of the expansion laid out alone."""
        return max(max(self.shapes[i]) + d for i, d in self.outs)

    @property
    def t_depth(self) -> int:
        """T-depth of the expansion laid out alone."""
        return len({max(self.shapes[i]) + d for i, d in self.t_layers})


@functools.cache
def _expansion(kind: str) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The Clifford+T events (kind, role indices) one gate of `kind` lowers to.

    CCX and SWAP expand by their templates, a rotation as a serial ladder of
    `T_PER_ROTATION` T gates on its operands (the Clifford interleaving of the
    synthesis is not scheduled), and every other kind is one event.
    """
    roles = tuple(range(_ARITY[kind]))
    if kind in ANGLE_KINDS:
        return ((T, roles),) * T_PER_ROTATION
    return {CCX: CCX_TEMPLATE, SWAP: SWAP_TEMPLATE}.get(kind, ((kind, roles),))


@functools.cache
def _profile(kind: str) -> LayeringProfile:
    """Layering profile of one gate of `kind`: its `_expansion` laid out."""
    return LayeringProfile.of(_expansion(kind), _ARITY[kind])


@functools.cache
def _row(kind: str) -> tuple[int, int, int, int, int]:
    """(T, CNOT, single-qubit Clifford, depth, T-depth) of one gate of `kind`:
    its `_expansion`'s events by kind, and its profile laid out alone."""
    events = Counter(k for k, _ in _expansion(kind))
    prof = _profile(kind)
    return (events[T] + events[TDG], events[CNOT], events[X] + events[H],
            prof.depth, prof.t_depth)


def _straight_line(prof: LayeringProfile) -> list[str]:
    """One gate laid out on the frontiers `front` of its qubits `qs`, its T
    layers set to 1 in `t_marks`: a profile as straight-line code."""
    roles = range(len(prof.outs))
    lines = ["".join(f"q{r}, " for r in roles) + "= qs",
             *(f"f{r} = front[q{r}]" for r in roles)]
    for i, shape in enumerate(prof.shapes):
        # v_i = max over reachable roles r of f_r + shape[r], without a call.
        terms = [f"f{r} + {o}" if o else f"f{r}"
                 for r, o in enumerate(shape) if o != _UNREACHED]
        lines += [f"v{i} = {terms[0]}",
                  *(f"if (m := {t}) > v{i}: v{i} = m" for t in terms[1:])]
    targets: dict[tuple[int, int], str] = {}
    for r, out in zip(roles, prof.outs):
        targets[out] = targets.get(out, "") + f"front[q{r}] = "
    lines += [f"{lhs}v{i} + {d}" for (i, d), lhs in targets.items()]
    return lines + [f"t_marks[v{i} + {d}] = 1" for i, d in prof.t_layers]


# Every kind, the most frequent in the library's circuits first.
_BY_FREQUENCY = (CNOT, CCX, X, CPHASE, SWAP, H, RZ, T, TDG)


@functools.cache
def _layering_kernel():
    """`run(gates, front, t_marks)`: lay out a whole gate list, compiled from
    every kind's `_profile` as one loop with each kind's straight-line code
    inline, the most frequent kinds tested first."""
    lines = ["def run(gates, front, t_marks):", "    for kind, qs, _ in gates:"]
    for i, kind in enumerate(_BY_FREQUENCY):
        lines.append(f"        {'elif' if i else 'if'} kind == {kind!r}:")
        lines += [f"            {line}" for line in _straight_line(_profile(kind))]
    lines += ["        else:", "            raise KeyError(kind)"]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["run"]


def _greedy_depth(c: Circuit, max_depth: int) -> tuple[int, int]:
    """Greedy ASAP layering of `c`'s Clifford+T expansion, one call of the
    compiled `_layering_kernel` for the whole gate list.

    Returns (depth, t_depth) where t_depth counts layers containing at least
    one T or T-dagger.  Each gate is laid out through its kind's `_profile`,
    with the same depths as layering the expanded stream event by event.
    `max_depth` bounds every layer index; the serial depth is one.
    """
    # The T layers are marks in a bytearray, which the cyclic GC does not
    # track; a set of them would be rescanned by each collection in the loop.
    front = [0] * c.num_qubits
    t_marks = bytearray(max_depth + 1)
    _layering_kernel()(c.gates, front, t_marks)
    return max(front, default=0), t_marks.count(1)


def _lowered_tallies(kinds: dict[str, int], num_qubits: int) -> LogicalCounts:
    """Clifford+T tallies of raw gate tallies, each kind's `_row` times its
    count; depths composed serially."""
    rows = [[v * count for v in _row(kind)] for kind, count in kinds.items()]
    # The zero row keeps an empty tally at zero.
    t, cnot, clifford, depth, t_depth = map(sum, zip((0,) * 5, *rows))
    return LogicalCounts(
        qubits=num_qubits, t_count=t, toffoli_count=kinds.get(CCX, 0),
        cnot_count=cnot, single_qubit_clifford=clifford,
        rotation_count=sum(kinds.get(k, 0) for k in ANGLE_KINDS),
        depth=depth, t_depth=t_depth,
    )


def lower_to_clifford_t(c: Circuit) -> LogicalCounts:
    """Lower a recorded circuit; depth recomputed on the expanded sequence."""
    out = _lowered_tallies(Counter(map(itemgetter(0), c.gates)), c.num_qubits)
    # Greedy layering never lays a gate out later than serial composition does.
    out.depth, out.t_depth = _greedy_depth(c, out.depth)
    return out


def lower_summary(s: CountSummary) -> LogicalCounts:
    """Lower counting-mode tallies; depth is composed serially.

    Gate tallies agree exactly with `lower_to_clifford_t` on the same
    construction; only depth/t_depth differ (serial upper bound instead of
    greedy layering, since no gate list exists).
    """
    return _lowered_tallies(s.kinds, s.num_qubits)


def lower(obj) -> LogicalCounts:
    """Lower either a recorded Circuit or a CountSummary."""
    if isinstance(obj, Circuit):
        return lower_to_clifford_t(obj)
    return lower_summary(obj)
