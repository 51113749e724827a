"""Greedy routing over a highway overlay.

Three variants:

* ``plain`` — the strictly improving move closest to the target among
  local neighbors and (at highway nodes) long-range contacts; ties break
  to the lowest id, and a node that is both is a local move.
* ``highway-sticky`` — at a highway node, the improving long-range
  contact closest to the target (lowest id on ties); otherwise, or
  when no contact improves, a local step that boards the highway
  whenever it can: among the strictly improving neighbors it takes the
  highway node closest to the target (lowest id on ties), and only if
  none is a highway node the plain choice (the lowest-id neighbor
  closest to the target).
* ``highway-aware`` — like sticky, but the initial segment follows
  nearest-highway next-hop pointers (those hops may move away from the
  target) before switching to the sticky rules.

Every step of ``plain`` and ``highway-sticky``, and every step of
``highway-aware`` after its pointer segment, strictly decreases the
distance to the target.

Every hop is labeled with its edge kind (local / long-range) and phase
(to-highway / on-highway / to-target).

``route`` walks one pair hop by hop; its hop rule, ``_next_hop``, is the
reference. ``route_batch`` applies the same rule to a whole batch in
lockstep: every live walk of a block advances one hop per numpy step,
reading its contacts from the overlay's padded ``contact_table`` rows,
and each of its traces equals ``route``'s for the same pair.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import BLOCK_CELLS, Graph
from .overlay import HighwayOverlay

VARIANTS = ("plain", "highway-sticky", "highway-aware")

KIND_LOCAL = "local"
KIND_LONG = "long-range"
PHASE_TO_HIGHWAY = "to-highway"
PHASE_ON_HIGHWAY = "on-highway"
PHASE_TO_TARGET = "to-target"

# labels by the codes route_batch stores in its int8 buffers: kind 1 is
# long-range, phase 0/1/2 is to-highway/on-highway/to-target
_KINDS = np.array([KIND_LOCAL, KIND_LONG], dtype=object)
_PHASES = np.array([PHASE_TO_HIGHWAY, PHASE_ON_HIGHWAY, PHASE_TO_TARGET],
                   dtype=object)

_FAR = np.iinfo(np.int32).max  # beyond every hop distance

TRACE_COLUMNS = ("pair_id", "source", "target", "variant", "hops",
                 "hops_to_highway", "hops_on_highway", "hops_to_target",
                 "dist_st")


class RoutingError(RuntimeError):
    """A routing invariant failed (no improving move, runaway walk)."""


@dataclass
class RoutingTrace:
    source: int
    target: int
    variant: str
    path: list[int]
    edge_kinds: list[str] = field(default_factory=list)
    phases: list[str] = field(default_factory=list)
    dist_st: int = 0

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    @property
    def hops_to_highway(self) -> int:
        return self.phases.count(PHASE_TO_HIGHWAY)

    @property
    def hops_on_highway(self) -> int:
        return self.phases.count(PHASE_ON_HIGHWAY)

    @property
    def hops_to_target(self) -> int:
        return self.phases.count(PHASE_TO_TARGET)


def _next_hop(graph: Graph, overlay: HighwayOverlay, dist_t: np.ndarray,
              cur: int, plain: bool) -> tuple[int, str]:
    """Next node of a greedy walk at ``cur`` and the kind of its edge.

    Sticky and aware walks take the best contact of a highway node
    (closest to the target, lowest id on ties) whenever it improves.
    Otherwise the step goes to the lowest-id neighbor closest to the
    target, which must improve: plain swaps in an improving contact that
    is smaller by (distance, id), and sticky and aware board the closest
    improving highway neighbor (lowest id on ties) if there is one.
    """
    d_cur = dist_t[cur]
    contact = None
    if overlay.is_highway[cur]:
        contacts = overlay.contacts(cur)
        if contacts.size:
            i = int(np.argmin(dist_t[contacts]))  # contacts ascend
            if dist_t[contacts[i]] < d_cur:
                contact = int(contacts[i])
                if not plain:
                    return contact, KIND_LONG
    nbrs = graph.neighbors(cur)
    d = dist_t[nbrs]
    i = int(np.argmin(d))  # neighbors ascend, argmin takes first
    if d[i] >= d_cur:
        raise RoutingError(
            f"no improving local move at node {cur} (connected graph "
            f"should always have one)")
    if not plain:
        onto = np.flatnonzero(overlay.is_highway[nbrs] & (d < d_cur))
        if onto.size:
            i = int(onto[np.argmin(d[onto])])
    elif contact is not None and \
            (dist_t[contact], contact) < (d[i], int(nbrs[i])):
        return contact, KIND_LONG
    return int(nbrs[i]), KIND_LOCAL


def route(graph: Graph, overlay: HighwayOverlay, source: int, target: int,
          variant: str = "highway-sticky") -> RoutingTrace:
    """Run one greedy walk by ``_next_hop`` over the target's
    ``distance_row``; always succeeds on a connected graph."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    source = graph._node(source)
    dist_t = graph.distance_row(target)
    trace = RoutingTrace(source=source, target=target, variant=variant,
                         path=[source], dist_st=int(dist_t[source]))
    is_hw = overlay.is_highway
    cur = source
    seen_highway = bool(is_hw[cur])
    plain = variant == "plain"
    hop_cap = 4 * graph.n + 16

    if variant == "highway-aware" and not seen_highway:
        _, next_hop = overlay.nearest_highway()
        while cur != target and not is_hw[cur]:
            cur = int(next_hop[cur])
            trace.path.append(cur)
            trace.edge_kinds.append(KIND_LOCAL)
            trace.phases.append(PHASE_TO_HIGHWAY)
        seen_highway = bool(is_hw[cur])

    while cur != target:
        if len(trace.path) > hop_cap:
            raise RoutingError("walk exceeded the hop cap")
        cur, kind = _next_hop(graph, overlay, dist_t, cur, plain)
        trace.path.append(cur)
        trace.edge_kinds.append(kind)
        trace.phases.append(
            PHASE_ON_HIGHWAY if kind == KIND_LONG
            else PHASE_TO_TARGET if seen_highway else PHASE_TO_HIGHWAY)
        seen_highway = seen_highway or bool(is_hw[cur])
    return trace


def route_batch(graph: Graph, overlay: HighwayOverlay,
                pairs: Sequence[tuple[int, int]],
                variant: str = "highway-sticky") -> list[RoutingTrace]:
    """Route every pair; traces in input order, each equal to ``route``'s.

    Walks advance in lockstep on one thread, one hop per numpy step, in
    blocks whose step holds at most about BLOCK_CELLS candidate cells
    (walks times neighbour and contact columns); without a lattice hint
    a walk's target row counts n cells.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    ends = np.asarray(pairs)
    if ends.size and ends.dtype.kind not in "iu":
        raise TypeError(f"node ids must be integers, got {ends.dtype}")
    ends = ends.astype(np.int64).reshape(-1, 2)
    bad = np.flatnonzero((ends < 0) | (ends >= graph.n))
    if bad.size:
        raise ValueError(f"node {int(ends.flat[bad[0]])} out of range")
    walks = _Lockstep(graph, overlay, variant)
    width = graph.n if graph.lattice_hint is None \
        else walks.nbrs.shape[1] + overlay.contact_table.shape[1]
    block = max(1, BLOCK_CELLS // width)
    return [trace for i in range(0, len(ends), block)
            for trace in walks.run(ends[i:i + block])]


class _Lockstep:
    """``_next_hop`` over a block of walks at once.

    The neighbour table holds each node's neighbours in ascending order,
    padded with the row's own node, whose distance never improves on the
    walk's; the overlay's ``contact_rows`` are padded the same way and
    are built when a walk first stands on their node.
    """

    def __init__(self, graph: Graph, overlay: HighwayOverlay, variant: str):
        self.graph = graph
        self.overlay = overlay
        self.variant = variant
        self.plain = variant == "plain"
        self.is_hw = overlay.is_highway
        self.nbrs = _neighbour_table(graph)
        self.nearest = (overlay.nearest_highway()
                        if variant == "highway-aware" else None)

    def _step(self, dist, walk: np.ndarray, cur: np.ndarray,
              d_cur: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(next node, its distance, long-range flag) of each walk."""
        # the best contact (lowest id among the closest) where it
        # improves, else the walk's own node at d_cur
        best, d_best = cur.copy(), d_cur.copy()
        on = self.is_hw[cur].nonzero()[0]
        if on.size:
            cand = self.overlay.contact_rows(cur[on])
            d = dist(walk[on, None], cand)
            pick = np.arange(on.size), d.argmin(axis=1)
            d_pick = d[pick]
            better = d_pick < d_cur[on]
            best[on[better]] = cand[pick][better]
            d_best[on[better]] = d_pick[better]
        long = d_best < d_cur  # sticky and aware take it at once
        local = np.arange(cur.size) if self.plain else (~long).nonzero()[0]
        nxt, d_nxt = best, d_best
        if local.size:
            cand = self.nbrs[cur[local]]
            d = dist(walk[local, None], cand)
            i = d.argmin(axis=1)
            rows = np.arange(local.size)
            stuck = (d[rows, i] >= d_cur[local]).nonzero()[0]
            if stuck.size:
                raise RoutingError(
                    f"no improving local move at node "
                    f"{int(cur[local[stuck[0]]])} (connected graph should "
                    f"always have one)")
            if not self.plain:  # board the closest improving highway node
                onto = self.is_hw[cand] & (d < d_cur[local, None])
                j = np.where(onto, d, _FAR).argmin(axis=1)
                i = np.where(onto[rows, j], j, i)
            step, d_step = cand[rows, i], d[rows, i]
            if self.plain:  # the contact only if smaller by (distance, id)
                long = (d_best < d_step) | ((d_best == d_step)
                                            & (best < step))
                nxt = np.where(long, best, step)
                d_nxt = np.where(long, d_best, d_step)
            else:
                nxt[local], d_nxt[local] = step, d_step
        return nxt, d_nxt, long

    def run(self, ends: np.ndarray) -> list[RoutingTrace]:
        """Traces of one block of (source, target) rows."""
        is_hw = self.is_hw
        source, target = ends[:, 0], ends[:, 1]
        dist = self.graph.distances_to(target)
        walk = np.arange(len(ends))
        dist_st = dist(walk, source)
        # plain and sticky walks strictly approach the target; an aware
        # walk first takes at most hw_dist(s) pointer hops
        bound = dist_st.astype(np.int64)
        if self.nearest is not None:
            bound += 2 * self.nearest[0][source]
        start = np.zeros(len(ends) + 1, dtype=np.int64)
        np.cumsum(bound + 1, out=start[1:])
        path = np.zeros(start[-1], dtype=np.int32)
        kind = np.zeros(start[-1], dtype=np.int8)   # index into _KINDS
        phase = np.zeros(start[-1], dtype=np.int8)  # index into _PHASES
        path[start[:-1]] = source
        size = np.ones(len(ends), dtype=np.int64)   # nodes on each path
        cur = source.astype(np.int32)
        seen = is_hw[cur]

        def record(live, nxt, long, phases):
            at = start[live] + size[live]
            path[at] = nxt
            kind[at] = long
            phase[at] = phases
            size[live] += 1
            cur[live] = nxt

        if self.nearest is not None:
            next_hop = self.nearest[1]
            live = np.flatnonzero(~seen & (cur != target))
            while live.size:
                nxt = next_hop[cur[live]]
                record(live, nxt, False, 0)
                live = live[(nxt != target[live]) & ~is_hw[nxt]]
            seen = is_hw[cur]
        d_cur = dist(walk, cur)
        live = np.flatnonzero(d_cur > 0)
        while live.size:
            nxt, d_nxt, long = self._step(dist, live, cur[live], d_cur[live])
            record(live, nxt, long, np.where(long, 1, 2 * seen[live]))
            d_cur[live] = d_nxt
            seen[live] |= is_hw[nxt]
            live = live[d_nxt > 0]

        path, kind, phase = (path.tolist(), _KINDS[kind].tolist(),
                             _PHASES[phase].tolist())
        return [RoutingTrace(source=s, target=t, variant=self.variant,
                             path=path[a:a + k], edge_kinds=kind[a + 1:a + k],
                             phases=phase[a + 1:a + k], dist_st=d)
                for s, t, a, k, d in zip(source.tolist(), target.tolist(),
                                         start.tolist(), size.tolist(),
                                         dist_st.tolist())]


def _neighbour_table(graph: Graph) -> np.ndarray:
    """Neighbours of every node in ascending order, one row per node,
    padded to the largest degree with the row's own node (int32)."""
    degree = np.diff(graph.indptr)
    width = int(degree.max())
    if degree.min() == width:  # regular graph: the CSR indices as they are
        return graph.indices.reshape(graph.n, width)
    table = np.repeat(np.arange(graph.n, dtype=np.int32)[:, None], width,
                      axis=1)
    heads = np.repeat(np.arange(graph.n), degree)
    table[heads, np.arange(heads.size) - graph.indptr[heads]] = graph.indices
    return table


def validate_trace(graph: Graph, overlay: HighwayOverlay,
                   trace: RoutingTrace) -> None:
    """Raise if any hop is not a real edge / real contact of its kind,
    or has the wrong phase: a long-range hop is on-highway, and a local
    hop is to-target once the walk has stood on a highway node (its
    start included), to-highway before."""
    if trace.path[0] != trace.source or trace.path[-1] != trace.target:
        raise RoutingError("trace endpoints do not match")
    if len(trace.edge_kinds) != trace.hops or len(trace.phases) != trace.hops:
        raise RoutingError("trace labels out of sync with path")
    seen_highway = False
    for i in range(trace.hops):
        a, b = trace.path[i], trace.path[i + 1]
        seen_highway = seen_highway or bool(overlay.is_highway[a])
        if trace.edge_kinds[i] == KIND_LOCAL:
            if b not in graph.neighbors(a):
                raise RoutingError(f"hop {a}->{b} is not a local edge")
            phase = PHASE_TO_TARGET if seen_highway else PHASE_TO_HIGHWAY
        else:
            if not overlay.is_highway[a] or b not in overlay.contacts(a):
                raise RoutingError(f"hop {a}->{b} is not a contact")
            phase = PHASE_ON_HIGHWAY
        if trace.phases[i] != phase:
            raise RoutingError(f"hop {a}->{b} has phase "
                               f"{trace.phases[i]!r}, not {phase!r}")


def write_trace_csv(traces: Sequence[RoutingTrace], path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for pair_id, t in enumerate(traces):
            writer.writerow([pair_id, t.source, t.target, t.variant, t.hops,
                             t.hops_to_highway, t.hops_on_highway,
                             t.hops_to_target, t.dist_st])
