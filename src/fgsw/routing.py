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

Every hop is labeled with its edge kind (local / long-range); its phase
(to-highway / on-highway / to-target) follows from the kinds and the
trace's ``hops_to_highway``, as ``RoutingTrace.phases`` says.

``route_batch`` walks a whole batch in lockstep: every live walk of a
block advances one hop per numpy step, reading its contacts from the
overlay's padded ``contact_table`` rows. A walk's trace does not depend
on the other pairs of its batch, so ``route`` is ``route_batch`` on one
pair.
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

# labels of the kind codes in route_batch's int8 buffer: 1 is long-range
_KINDS = np.array([KIND_LOCAL, KIND_LONG], dtype=object)

_FAR = np.iinfo(np.int32).max  # beyond every hop distance

TRACE_COLUMNS = ("pair_id", "source", "target", "variant", "hops",
                 "hops_to_highway", "hops_on_highway", "hops_to_target",
                 "dist_st")


class RoutingError(RuntimeError):
    """A routing invariant failed (no improving local move, or a trace
    that is not a walk of its kind)."""


@dataclass
class RoutingTrace:
    source: int
    target: int
    variant: str
    path: list[int]
    edge_kinds: list[str] = field(default_factory=list)
    hops_to_highway: int = 0  # before the walk first stands on the highway
    dist_st: int = 0

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    @property
    def hops_on_highway(self) -> int:
        return self.edge_kinds.count(KIND_LONG)

    @property
    def hops_to_target(self) -> int:
        return self.hops - self.hops_to_highway - self.hops_on_highway

    @property
    def phases(self) -> list[str]:
        """The first ``hops_to_highway`` hops are to-highway; after them
        a long-range hop is on-highway and a local hop to-target."""
        k = self.hops_to_highway
        return [PHASE_TO_HIGHWAY] * k + [
            PHASE_ON_HIGHWAY if kind == KIND_LONG else PHASE_TO_TARGET
            for kind in self.edge_kinds[k:]]


def _boarding(flags: list[bool]) -> int:
    """Hops before a path with highway ``flags`` first stands on a
    highway node (its start counts); all of its hops if it never does."""
    return (flags[:-1] + [True]).index(True)


def route(graph: Graph, overlay: HighwayOverlay, source: int, target: int,
          variant: str = "highway-sticky") -> RoutingTrace:
    """One greedy walk: ``route_batch`` on the single pair."""
    return route_batch(graph, overlay, [(source, target)], variant)[0]


def route_batch(graph: Graph, overlay: HighwayOverlay,
                pairs: Sequence[tuple[int, int]],
                variant: str = "highway-sticky") -> list[RoutingTrace]:
    """Route every pair; traces in input order.

    Walks advance in lockstep on one thread, one hop per numpy step, in
    blocks whose step holds at most about BLOCK_CELLS candidate cells
    (walks times neighbour and contact columns). A walk's target adds
    the cells the graph's metric holds per target: none on a lattice or
    a gasket, whose distances are closed forms, and a row of n cells on
    any other graph.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    ends = graph._nodes(pairs)
    if ends.size and ends.shape[1:] != (2,):
        raise ValueError(f"pairs must be shaped (m, 2), got {ends.shape}")
    ends = ends.reshape(-1, 2)
    walks = _Lockstep(graph, overlay, variant)
    width = (graph._metric.target_cells + walks.nbrs.shape[1]
             + overlay.contact_table.shape[1])
    block = max(1, BLOCK_CELLS // width)
    return [trace for i in range(0, len(ends), block)
            for trace in walks.run(ends[i:i + block])]


class _Lockstep:
    """The hop rule of the module docstring over a block of walks at once.

    A step reads the graph's ``_neighbour_table``, which holds each
    node's neighbours in ascending order padded with the row's own node,
    whose distance never improves on the walk's; the overlay's
    ``contact_rows`` are padded the same way and are built when a walk
    first stands on their node. A walk's path buffer holds d(s, t) hops,
    plus twice d(s, highway) for an aware walk, and every step after the
    pointer segment must improve, so no walk outgrows it.
    """

    def __init__(self, graph: Graph, overlay: HighwayOverlay, variant: str):
        self.graph = graph
        self.overlay = overlay
        self.variant = variant
        self.plain = variant == "plain"
        self.is_hw = overlay.is_highway
        self.nbrs = graph._neighbour_table
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
        kind = np.zeros(start[-1], dtype=np.int8)  # index into _KINDS
        path[start[:-1]] = source
        size = np.ones(len(ends), dtype=np.int64)  # nodes on each path
        cur = source.astype(np.int32)

        def record(live, nxt, long):
            at = start[live] + size[live]
            path[at] = nxt
            kind[at] = long
            size[live] += 1
            cur[live] = nxt

        if self.nearest is not None:
            next_hop = self.nearest[1]
            live = np.flatnonzero(~is_hw[cur] & (cur != target))
            while live.size:
                nxt = next_hop[cur[live]]
                record(live, nxt, False)
                live = live[(nxt != target[live]) & ~is_hw[nxt]]
        d_cur = dist(walk, cur)
        live = np.flatnonzero(d_cur > 0)
        while live.size:
            nxt, d_nxt, long = self._step(dist, live, cur[live], d_cur[live])
            record(live, nxt, long)
            d_cur[live] = d_nxt
            live = live[d_nxt > 0]

        flags = is_hw[path].tolist()
        path, kind = path.tolist(), _KINDS[kind].tolist()
        return [RoutingTrace(source=s, target=t, variant=self.variant,
                             path=path[a:a + k], edge_kinds=kind[a + 1:a + k],
                             hops_to_highway=_boarding(flags[a:a + k]),
                             dist_st=d)
                for s, t, a, k, d in zip(source.tolist(), target.tolist(),
                                         start.tolist(), size.tolist(),
                                         dist_st.tolist())]


def validate_trace(graph: Graph, overlay: HighwayOverlay,
                   trace: RoutingTrace) -> None:
    """Raise if any hop is not a real edge / real contact of its kind,
    a kind is neither label, or ``hops_to_highway`` is not the hop at
    which the path first stands on a highway node."""
    if trace.path[0] != trace.source or trace.path[-1] != trace.target:
        raise RoutingError("trace endpoints do not match")
    if len(trace.edge_kinds) != trace.hops:
        raise RoutingError("trace labels out of sync with path")
    for i, kind in enumerate(trace.edge_kinds):
        a, b = trace.path[i], trace.path[i + 1]
        if kind == KIND_LOCAL:
            if b not in graph.neighbors(a):
                raise RoutingError(f"hop {a}->{b} is not a local edge")
        elif kind != KIND_LONG:
            raise RoutingError(f"hop {a}->{b} has kind {kind!r}")
        elif not overlay.is_highway[a] or b not in overlay.contacts(a):
            raise RoutingError(f"hop {a}->{b} is not a contact")
    boarding = _boarding(overlay.is_highway[trace.path].tolist())
    if trace.hops_to_highway != boarding:
        raise RoutingError(f"trace has hops_to_highway="
                           f"{trace.hops_to_highway}, its path boards "
                           f"after {boarding}")


def write_trace_csv(traces: Sequence[RoutingTrace], path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for pair_id, t in enumerate(traces):
            writer.writerow([pair_id, t.source, t.target, t.variant, t.hops,
                             t.hops_to_highway, t.hops_on_highway,
                             t.hops_to_target, t.dist_st])
