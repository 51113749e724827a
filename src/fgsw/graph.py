"""Undirected graph core: CSR storage, BFS distances, balls and shells.

Hop distance is the only metric in the package. One BFS defines it:
``_bfs``, scipy's csgraph Dijkstra over unit-weight arcs, behind every
distance row, ball, shell and diameter; components come from csgraph
over the same arcs. ``Graph`` reads the metric through three entry
points: ``distance_row(u)`` for a full row, ``distances(u, targets)``
for a subset and ``distance(u, v)`` for one pair. Lattice generators
may attach a coordinate hint that lets all three evaluate the same
metric in closed form, the subset and pair ones without building a row
(the equivalence is asserted by tests, not assumed); without a hint
the subset and pair ones read a BFS row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_array

UNREACHABLE = -1


class GraphFormatError(ValueError):
    """Malformed graph data (file contents or edge lists)."""


@dataclass(frozen=True)
class DistanceField:
    """Hop distances from a fixed source; UNREACHABLE marks no path."""

    source: int
    dist: np.ndarray


@dataclass(frozen=True)
class LatticeHint:
    """Coordinate structure of a generated lattice.

    Present only on graphs whose hop metric provably equals the
    (wrapped) L1 coordinate distance; enables closed-form distance
    rows, subsets and pairs without BFS.
    """

    dim: int
    side: int
    wrap: bool


class Graph:
    """Immutable connected undirected graph in CSR form."""

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 lattice_hint: LatticeHint | None = None):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.lattice_hint = lattice_hint
        self._coords: np.ndarray | None = None
        indptr.flags.writeable = False
        indices.flags.writeable = False

    @property
    def m(self) -> int:
        return int(self.indptr[-1]) // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray,
                   lattice_hint: LatticeHint | None = None) -> "Graph":
        """Build from an edge list (each undirected edge listed once)."""
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError("edge list must be pairs of node ids")
        if n < 1:
            raise GraphFormatError("graph needs at least one node")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise GraphFormatError(
                f"edge endpoint out of range [0, {n - 1}]")
        if np.any(arr[:, 0] == arr[:, 1]):
            raise GraphFormatError("self-loops are not allowed")
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        key = lo * n + hi
        if np.unique(key).size != key.size:
            raise GraphFormatError("duplicate edge in input")

        heads = np.concatenate([lo, hi])
        tails = np.concatenate([hi, lo])
        indptr, indices = _build_csr(n, heads, tails)
        g = cls(n, indptr, indices, lattice_hint)
        comp = g.component_count()
        if comp != 1:
            raise GraphFormatError(
                f"graph must be connected (found {comp} components)")
        return g

    # -- metric -------------------------------------------------------

    def _coordinates(self) -> np.ndarray:
        hint = self.lattice_hint
        assert hint is not None
        if self._coords is None:
            ids = np.arange(self.n, dtype=np.int64)
            coords = np.empty((hint.dim, self.n), dtype=np.int32)
            for axis in range(hint.dim - 1, -1, -1):
                coords[axis] = ids % hint.side
                ids //= hint.side
            self._coords = coords
        return self._coords

    def _lattice_distances(self, u: int, coords: np.ndarray) -> np.ndarray:
        """Closed-form hop distance from u to the nodes whose coordinate
        columns are ``coords`` (int32)."""
        hint = self.lattice_hint
        delta = np.abs(coords - self._coordinates()[:, u:u + 1])
        if hint.wrap:
            np.minimum(delta, hint.side - delta, out=delta)
        return delta.sum(axis=0, dtype=np.int32)

    def distance_row(self, u: int) -> np.ndarray:
        """Hop distance from u to every node (int32)."""
        if self.lattice_hint is None:
            return _bfs(self.indptr, self.indices, self.n, (u,))
        return self._lattice_distances(u, self._coordinates())

    def distances(self, u: int, targets: np.ndarray) -> np.ndarray:
        """Hop distance from u to each of ``targets``, in their order
        (int32)."""
        if self.lattice_hint is None:
            return self.distance_row(u)[targets]
        return self._lattice_distances(
            u, np.take(self._coordinates(), targets, axis=1))

    def distance(self, u: int, v: int) -> int:
        """Hop distance between u and v; the BFS fallback reads v's row."""
        hint = self.lattice_hint
        if hint is None:
            return int(self.distance_row(v)[u])
        u, v, total = int(u), int(v), 0
        for _ in range(hint.dim):
            u, a = divmod(u, hint.side)
            v, b = divmod(v, hint.side)
            delta = abs(a - b)
            total += min(delta, hint.side - delta) if hint.wrap else delta
        return total

    def eccentricity(self, u: int) -> int:
        return int(self.distance_row(u).max())

    def component_count(self) -> int:
        return _components(self.indptr, self.indices, self.n)[0]

    # -- text format ----------------------------------------------------

    def save(self, path) -> None:
        """Write the text format: `n m` then one `u v` line per edge."""
        u = np.repeat(np.arange(self.n, dtype=np.int64),
                      np.diff(self.indptr))
        v = self.indices.astype(np.int64)
        mask = u < v
        pairs = np.stack([u[mask], v[mask]], axis=1)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{self.n} {pairs.shape[0]}\n")
            for a, b in pairs:
                fh.write(f"{a} {b}\n")

    @classmethod
    def load(cls, path) -> "Graph":
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise GraphFormatError(f"{path}: empty file")
        head = lines[0].split()
        if len(head) != 2:
            raise GraphFormatError(f"{path}: header must be `n m`")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError as exc:
            raise GraphFormatError(f"{path}: non-integer header") from exc
        if len(lines) - 1 != m:
            raise GraphFormatError(
                f"{path}: header promises {m} edges, file has {len(lines) - 1}")
        edges = np.empty((m, 2), dtype=np.int64)
        for i, line in enumerate(lines[1:]):
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"{path}: bad edge line {i + 2}")
            try:
                edges[i, 0], edges[i, 1] = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}: non-integer edge line {i + 2}") from exc
        return cls.from_edges(n, edges)


def _build_csr(n: int, heads: np.ndarray, tails: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays from directed arcs, neighbor lists sorted ascending."""
    order = np.lexsort((tails, heads))
    heads = heads[order]
    tails = tails[order]
    counts = np.bincount(heads, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, tails.astype(np.int32)


def _adjacency(indptr: np.ndarray, indices: np.ndarray, n: int
               ) -> csr_array:
    """CSR arcs as a sparse matrix of unit weights; shares ``indices``."""
    return csr_array((np.ones(indices.size), indices,
                      indptr.astype(indices.dtype)), shape=(n, n))


def _bfs(indptr: np.ndarray, indices: np.ndarray, n: int,
         sources: Sequence[int], cutoff: int | None = None,
         min_only: bool = True) -> np.ndarray:
    """Hop distances along the directed arcs of a CSR graph (int32).

    The package's one BFS kernel. With ``min_only`` it returns one row,
    the distance to the nearest source; otherwise one row per source.
    Nodes farther than ``cutoff`` (or with no path) are UNREACHABLE.
    The arcs already weigh 1, so csgraph's ``unweighted`` flag, which
    copies the weights, is left off.
    """
    dist = csgraph.dijkstra(_adjacency(indptr, indices, n),
                            indices=sources, min_only=min_only,
                            limit=np.inf if cutoff is None else cutoff)
    dist[np.isinf(dist)] = UNREACHABLE
    return dist.astype(np.int32)


def _components(indptr: np.ndarray, indices: np.ndarray, n: int
                ) -> tuple[int, np.ndarray]:
    """(count, per-node label) of the strong components of the arcs;
    on symmetric arcs these are the ordinary connected components."""
    return csgraph.connected_components(_adjacency(indptr, indices, n),
                                        connection="strong")


def bfs(graph: Graph, source: int, cutoff: int | None = None) -> DistanceField:
    """Hop distances from ``source`` (optionally truncated at ``cutoff``)."""
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} out of range")
    return DistanceField(source,
                         _bfs(graph.indptr, graph.indices, graph.n,
                              (source,), cutoff=cutoff))


def multi_source_bfs(graph: Graph, sources: Sequence[int]) -> np.ndarray:
    """Distance to the nearest of ``sources`` for every node."""
    if len(sources) == 0:
        raise ValueError("need at least one source")
    return _bfs(graph.indptr, graph.indices, graph.n, sources)


def ball(graph: Graph, u: int, radius: int) -> np.ndarray:
    """Sorted ids of nodes within hop distance ``radius`` of u."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dist = _bfs(graph.indptr, graph.indices, graph.n, (u,), cutoff=radius)
    return np.flatnonzero(dist >= 0).astype(np.int32)


def ball_profile(graph: Graph, u: int, size_stop: int | None = None
                 ) -> np.ndarray:
    """Cumulative ball sizes [|B_0|, |B_1|, ...] from u.

    With ``size_stop`` the profile ends at the first size that reaches
    it (or at the full-graph count).
    """
    sizes = np.cumsum(np.bincount(graph.distance_row(u)))
    if size_stop is not None:
        sizes = sizes[:np.searchsorted(sizes, size_stop) + 1]
    return sizes


def shell(graph: Graph, u: int, width: int, index: int) -> np.ndarray:
    """Sorted ids with index*width < d(u, .) <= (index+1)*width."""
    if width < 1:
        raise ValueError("shell width must be >= 1")
    if index < 0:
        raise ValueError("shell index must be >= 0")
    outer = (index + 1) * width
    dist = _bfs(graph.indptr, graph.indices, graph.n, (u,), cutoff=outer)
    return np.flatnonzero((dist > index * width) & (dist <= outer)
                          ).astype(np.int32)


def pack_independent_balls(graph: Graph, radius: int) -> np.ndarray:
    """Greedy maximal set of centers pairwise more than 2*radius apart.

    Scans ids in ascending order; each accepted center retires every
    node within 2*radius of it. Every node ends within 2*radius of
    some center.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    available = np.ones(graph.n, dtype=bool)
    centers = []
    for u in range(graph.n):
        if available[u]:
            centers.append(u)
            available[ball(graph, u, 2 * radius)] = False
    return np.asarray(centers, dtype=np.int32)
