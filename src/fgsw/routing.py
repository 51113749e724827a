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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import Graph
from .overlay import HighwayOverlay

VARIANTS = ("plain", "highway-sticky", "highway-aware")

KIND_LOCAL = "local"
KIND_LONG = "long-range"
PHASE_TO_HIGHWAY = "to-highway"
PHASE_ON_HIGHWAY = "on-highway"
PHASE_TO_TARGET = "to-target"

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

    def phase_hops(self, phase: str) -> int:
        return sum(1 for p in self.phases if p == phase)

    @property
    def hops_to_highway(self) -> int:
        return self.phase_hops(PHASE_TO_HIGHWAY)

    @property
    def hops_on_highway(self) -> int:
        return self.phase_hops(PHASE_ON_HIGHWAY)

    @property
    def hops_to_target(self) -> int:
        return self.phase_hops(PHASE_TO_TARGET)


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
          variant: str = "highway-sticky",
          dist_to_target: np.ndarray | None = None) -> RoutingTrace:
    """Run one greedy walk; always succeeds on a connected graph."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    for node in (source, target):
        if not 0 <= node < graph.n:
            raise ValueError(f"node {node} out of range")
    dist_t = dist_to_target if dist_to_target is not None \
        else graph.distance_row(target)
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
    """Route every pair serially, results in input order.

    Routing is serial because the overlay's lazy caches are
    single-threaded, and a thread pool measured slower than serial.
    """
    return [route(graph, overlay, int(s), int(t), variant) for s, t in pairs]


def validate_trace(graph: Graph, overlay: HighwayOverlay,
                   trace: RoutingTrace) -> None:
    """Raise if any hop is not a real edge / real contact of its kind."""
    if trace.path[0] != trace.source or trace.path[-1] != trace.target:
        raise RoutingError("trace endpoints do not match")
    if len(trace.edge_kinds) != trace.hops or len(trace.phases) != trace.hops:
        raise RoutingError("trace labels out of sync with path")
    for i in range(trace.hops):
        a, b = trace.path[i], trace.path[i + 1]
        if trace.edge_kinds[i] == KIND_LOCAL:
            if b not in graph.neighbors(a):
                raise RoutingError(f"hop {a}->{b} is not a local edge")
        else:
            if not overlay.is_highway[a] or b not in overlay.contacts(a):
                raise RoutingError(f"hop {a}->{b} is not a contact")


def write_trace_csv(traces: Sequence[RoutingTrace], path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for pair_id, t in enumerate(traces):
            writer.writerow([pair_id, t.source, t.target, t.variant, t.hops,
                             t.hops_to_highway, t.hops_on_highway,
                             t.hops_to_target, t.dist_st])
