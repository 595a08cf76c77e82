"""Clifford+T accounting.

`count_raw` tallies a circuit without decomposition.  `lower_to_clifford_t`
expands Toffoli-class and rotation gates into Clifford+T and recomputes depth
on the expanded stream with greedy as-soon-as-possible layering, taken one
recorded gate at a time through each kind's `LayeringProfile`.  For
counting-mode builds (no materialised gate list) `lower_summary` applies the
same tallies with serial depth composition, mirroring the conservative
scheduling stance of the estimation methodology this model follows.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field, asdict
from operator import add, attrgetter

from .circuit import (
    CCX,
    CNOT,
    CPHASE,
    H,
    MCX,
    RZ,
    S,
    SDG,
    SWAP,
    T,
    TDG,
    X,
    Builder,
    Circuit,
    CountSummary,
    Gate,
)

_SINGLE_CLIFFORD = frozenset({X, H, S, SDG})
_T_KINDS = frozenset({T, TDG})
_ROTATION_KINDS = frozenset({RZ, CPHASE})


@dataclass(frozen=True)
class SynthesisParams:
    """Rotation-synthesis cost model: T per rotation = ceil(slope*log2(1/eps)+offset)."""

    epsilon_syn: float = 1e-10
    t_per_rotation_slope: float = 0.53
    t_per_rotation_offset: float = 5.3

    def __post_init__(self):
        if not 0.0 < self.epsilon_syn < 1.0:
            raise ValueError("epsilon_syn must lie in (0, 1)")

    def t_per_rotation(self) -> int:
        return math.ceil(
            self.t_per_rotation_slope * math.log2(1.0 / self.epsilon_syn)
            + self.t_per_rotation_offset
        )


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

    def as_dict(self) -> dict:
        return asdict(self)


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


def ccx_decomposition(c1: int, c2: int, t: int) -> list[Gate]:
    roles = (c1, c2, t)
    out = []
    for kind, qs in CCX_TEMPLATE:
        out.append(Gate(kind, tuple(roles[i] for i in qs)))
    return out


def count_raw(c: Circuit) -> LogicalCounts:
    """Tally gates by class without decomposition.

    MCX gates land in `toffoli_count` (multi-controlled class) and SWAP in
    `cnot_count` (two-qubit Clifford class).
    """
    out = LogicalCounts(qubits=c.num_qubits)
    for g in c.gates:
        k = g.kind
        if k in _T_KINDS:
            out.t_count += 1
        elif k in (CCX, MCX):
            out.toffoli_count += 1
        elif k in (CNOT, SWAP):
            out.cnot_count += 1
        elif k in _ROTATION_KINDS:
            out.rotation_count += 1
        else:
            out.single_qubit_clifford += 1
    out.depth, out.t_depth = _greedy_depth(c, c.num_qubits)
    return out


def _mcx_ladder(controls: tuple[int, ...], target: int, anc_base: int):
    """Ancilla-ladder MCX expansion: k-1 Toffolis each way plus one CNOT."""
    k = len(controls)
    ancs = list(range(anc_base, anc_base + k - 1))
    ups = [(CCX, (controls[0], controls[1], ancs[0]))]
    for j in range(2, k):
        ups.append((CCX, (ancs[j - 2], controls[j], ancs[j - 1])))
    yield from ups
    yield (CNOT, (ancs[-1], target))
    yield from reversed(ups)


# An offset for a role whose entry frontier cannot reach an expression.
# Frontiers never exceed the number of events laid out, so it never wins a max.
_UNREACHED = -(1 << 62)


@dataclass(frozen=True)
class LayeringProfile:
    """Greedy ASAP layering of one gate's Clifford+T expansion, as a function
    of the frontiers of its roles on entry.

    Every frontier the expansion produces is a max-plus expression
    ``max over roles r of (f[r] + offset[r])`` of the entry frontiers ``f``.
    Expressions equal up to a constant share one ``shape`` (the offsets per
    role); ``outs`` gives each role's exit frontier and ``t_layers`` each
    distinct layer holding a T or T-dagger as (shape index, shift).
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


def _expand_ccx(events):
    for kind, qs in events:
        if kind == CCX:
            for sub, roles in CCX_TEMPLATE:
                yield sub, tuple(qs[i] for i in roles)
        else:
            yield kind, qs


_CCX_PROFILE = LayeringProfile.of(CCX_TEMPLATE, 3)
_SWAP_PROFILE = LayeringProfile.of(SWAP_TEMPLATE, 2)


@functools.cache
def _mcx_profile(k: int) -> LayeringProfile:
    """Profile of a k-control MCX over roles (controls, target, k-1 ladder
    ancillas), the order `_greedy_depth` maps them onto qubits in."""
    ladder = _mcx_ladder(tuple(range(k)), k, k + 1)
    return LayeringProfile.of(_expand_ccx(ladder), 2 * k)


# Kinds laid out as more than one layer when lowered; every other gate, and
# every gate in `count_raw`, is a single layer on its own qubits.
_EXPANDED_KINDS = frozenset({CCX, MCX, SWAP}) | _ROTATION_KINDS


def _greedy_depth(
    c: Circuit, width: int, per_rot: int | None = None
) -> tuple[int, int]:
    """Greedy ASAP layering of `c`, one step per recorded gate.

    Returns (depth, t_depth) where t_depth counts layers containing at least
    one T or T-dagger.  With `per_rot` None every gate is one layer; otherwise
    each gate is laid out as its Clifford+T expansion (CCX and SWAP from their
    templates, MCX as an ancilla ladder on qubits ``c.num_qubits ...``,
    rotations as a serial ladder of `per_rot` T gates), with the same depths
    as layering that expanded stream event by event.  `width` covers every
    qubit the layout touches.
    """
    front = [0] * width
    at = front.__getitem__
    t_layers: set[int] = set()
    expanded = frozenset() if per_rot is None else _EXPANDED_KINDS
    ancillas = tuple(range(c.num_qubits, width))
    for g in c.gates:
        kind, qs = g.kind, g.qubits
        if kind not in expanded:
            layer = max(map(at, qs)) + 1
            for q in qs:
                front[q] = layer
            if kind in _T_KINDS:
                t_layers.add(layer)
            continue
        if kind in _ROTATION_KINDS:
            # Synthesized as a serial T ladder on the gate's qubits: the
            # Clifford interleaving of the synthesis is not scheduled.
            start = max(map(at, qs))
            for q in qs:
                front[q] = start + per_rot
            t_layers.update(range(start + 1, start + per_rot + 1))
            continue
        if kind == MCX:
            k = len(qs) - 1
            prof = _mcx_profile(k)
            qs += ancillas[:k - 1]
        else:
            prof = _CCX_PROFILE if kind == CCX else _SWAP_PROFILE
        f = tuple(map(at, qs))
        v = [max(map(add, f, shape)) for shape in prof.shapes]
        for q, (i, d) in zip(qs, prof.outs):
            front[q] = v[i] + d
        t_layers.update([v[i] + d for i, d in prof.t_layers])
    return max(front, default=0), len(t_layers)


def _lowered_tallies(
    kinds: dict[str, int], mcx_controls: dict[int, int], num_qubits: int,
    params: SynthesisParams,
) -> LogicalCounts:
    """Clifford+T tallies of raw gate tallies; `qubits` adds the ancillas of
    the widest MCX ladder to `num_qubits`."""
    max_k = max(mcx_controls, default=0)
    out = LogicalCounts(qubits=num_qubits + (max_k - 1 if max_k else 0))
    per_rot = params.t_per_rotation()
    ccx_total = kinds.get(CCX, 0)
    for k, count in mcx_controls.items():
        ccx_total += 2 * (k - 1) * count
    rotations = kinds.get(RZ, 0) + kinds.get(CPHASE, 0)
    out.toffoli_count = ccx_total
    out.rotation_count = rotations
    out.t_count = (
        7 * ccx_total
        + per_rot * rotations
        + kinds.get(T, 0)
        + kinds.get(TDG, 0)
    )
    out.cnot_count = (
        kinds.get(CNOT, 0)
        + 3 * kinds.get(SWAP, 0)
        + 6 * ccx_total
        + sum(mcx_controls.values())  # one CNOT per MCX ladder
    )
    out.single_qubit_clifford = (
        kinds.get(X, 0)
        + kinds.get(H, 0)
        + kinds.get(S, 0)
        + kinds.get(SDG, 0)
        + 2 * ccx_total  # two H per expanded Toffoli
    )
    return out


def lower_to_clifford_t(
    c: Circuit, params: SynthesisParams | None = None
) -> LogicalCounts:
    """Lower a recorded circuit; depth recomputed on the expanded sequence."""
    params = params or SynthesisParams()
    kinds = Counter(map(attrgetter("kind"), c.gates))
    mcx: Counter[int] = Counter()
    if kinds[MCX]:
        mcx.update(len(g.qubits) - 1 for g in c.gates if g.kind == MCX)
    out = _lowered_tallies(kinds, mcx, c.num_qubits, params)
    out.depth, out.t_depth = _greedy_depth(
        c, out.qubits, params.t_per_rotation()
    )
    return out


def lower_summary(
    s: CountSummary, params: SynthesisParams | None = None
) -> LogicalCounts:
    """Lower counting-mode tallies; depth is composed serially.

    Gate tallies agree exactly with `lower_to_clifford_t` on the same
    construction; only depth/t_depth differ (serial upper bound instead of
    greedy layering, since no gate list exists).
    """
    params = params or SynthesisParams()
    out = _lowered_tallies(s.kinds, s.mcx_controls, s.num_qubits, params)
    per_rot = params.t_per_rotation()
    ccx_depth, ccx_t_depth = _CCX_PROFILE.depth, _CCX_PROFILE.t_depth
    depth_weights = {
        X: 1, H: 1, S: 1, SDG: 1, T: 1, TDG: 1, CNOT: 1,
        SWAP: _SWAP_PROFILE.depth, CCX: ccx_depth, RZ: per_rot, CPHASE: per_rot,
    }
    t_weights = {
        T: 1, TDG: 1, CCX: ccx_t_depth, RZ: per_rot, CPHASE: per_rot,
    }
    depth = 0
    t_depth = 0
    for kind, count in s.kinds.items():
        if kind == MCX:
            continue
        depth += depth_weights[kind] * count
        t_depth += t_weights.get(kind, 0) * count
    # An MCX is composed serially as its 2(k-1) Toffolis and one CNOT, like
    # every gate here: without qubit assignments the summary cannot credit
    # the overlap of consecutive ladder Toffolis that greedy layering finds.
    for k, count in s.mcx_controls.items():
        depth += (2 * (k - 1) * ccx_depth + 1) * count
        t_depth += 2 * (k - 1) * ccx_t_depth * count
    out.depth = depth
    out.t_depth = t_depth
    return out


def lower(obj, params: SynthesisParams | None = None) -> LogicalCounts:
    """Lower either a recorded Circuit or a CountSummary."""
    if isinstance(obj, Circuit):
        return lower_to_clifford_t(obj, params)
    return lower_summary(obj, params)
