"""Undirected graph core: CSR storage, the hop metric, balls and shells.

Hop distance is the only metric in the package, and ``Graph`` holds it:
``distance_row(u)``, ``distances(u, targets)``, ``distance(u, v)``,
``distances_to(targets)`` (a lookup into a block of target rows) and
``eccentricity(u)``. ``Graph._node`` is the package's one check of a
scalar node id, which the overlay and ``route`` call too: an id outside
[0, n) is a ValueError and one that is not an integer (a float, say) a
TypeError; numpy integers pass. ``Graph._nodes`` is its array form,
which ``route_batch`` and ``contact_rows`` call. A graph whose CSR
arrays equal those of a row-major lattice recognises itself as one,
whatever built it, keeps the coordinates that check built, and
evaluates all five in closed form, all but the first without building a
row (tests assert the equivalence). Otherwise ``_bfs``, scipy's csgraph
Dijkstra over unit-weight arcs, builds the rows; it serves only single
rows, row blocks and ``multi_source_bfs``. ``bfs`` is ``distance_row``,
and ``ball``, ``shell`` and ``pack_independent_balls`` threshold it.
Components come from csgraph over the same arcs, and diameters from
``_max_eccentricity``, a bit-parallel multi-source BFS that builds no
rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_array

UNREACHABLE = -1

# Cells one block of batched work may hold: the (arcs, words) gather of
# one diameter BFS level, the walks of one lockstep routing block and
# the ids `Graph.save` formats at once are sized from it.
BLOCK_CELLS = 1 << 16


class GraphFormatError(ValueError):
    """Malformed graph data (file contents or edge lists)."""


@dataclass(frozen=True)
class LatticeHint:
    """Coordinate structure of a lattice graph.

    ``Graph`` works it out from its own CSR arrays: it is present only
    when they equal those of the row-major lattice, so the hop metric
    provably equals the (wrapped) L1 coordinate distance; enables
    closed-form distance rows, subsets and pairs without BFS.
    """

    dim: int
    side: int
    wrap: bool


class Graph:
    """Immutable connected undirected graph in CSR form."""

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.lattice_hint, self._coords = _recognize_lattice(
            self.n, indptr, indices)
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
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray
                   ) -> "Graph":
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
        indptr, indices = _build_csr(n, arr.ravel(), arr[:, ::-1].ravel())
        if indices.size != 2 * len(arr):  # a repeated edge, either way round
            raise GraphFormatError("duplicate edge in input")
        g = cls(n, indptr, indices)
        comp = _components(indptr, indices, n)[0]
        if comp != 1:
            raise GraphFormatError(
                f"graph must be connected (found {comp} components)")
        return g

    # -- metric -------------------------------------------------------

    def _node(self, u: int) -> int:
        """u as an int; TypeError unless u is an integer, ValueError
        unless 0 <= u < n."""
        u = operator.index(u)
        if not 0 <= u < self.n:
            raise ValueError(f"node {u} out of range")
        return u

    def _nodes(self, nodes) -> np.ndarray:
        """``_node`` over an array: the ids as int64; TypeError unless a
        non-empty array holds integers, ValueError for the first id
        outside [0, n)."""
        ids = np.asarray(nodes)
        if ids.size and ids.dtype.kind not in "iu":
            raise TypeError(f"node ids must be integers, got {ids.dtype}")
        ids = ids.astype(np.int64)
        bad = np.flatnonzero((ids < 0) | (ids >= self.n))
        if bad.size:
            raise ValueError(f"node {int(ids.flat[bad[0]])} out of range")
        return ids

    def _lattice_distances(self, a: np.ndarray, b: np.ndarray
                           ) -> np.ndarray:
        """Closed-form hop distance between the nodes whose coordinate
        columns are ``a`` and ``b`` (int32, broadcast along axis 0)."""
        hint = self.lattice_hint
        delta = np.abs(a - b)
        if hint.wrap:
            np.minimum(delta, hint.side - delta, out=delta)
        return delta.sum(axis=0, dtype=np.int32)

    def distance_row(self, u: int) -> np.ndarray:
        """Hop distance from u to every node (int32)."""
        u = self._node(u)
        if self.lattice_hint is None:
            return _bfs(self.indptr, self.indices, self.n, (u,))
        return self._lattice_distances(self._coords[:, u:u + 1], self._coords)

    def distances(self, u: int, targets: np.ndarray) -> np.ndarray:
        """Hop distance from u to each of ``targets``, in their order
        (int32)."""
        u = self._node(u)
        if self.lattice_hint is None:
            return self.distance_row(u)[targets]
        return self._lattice_distances(self._coords[:, u:u + 1],
                                       np.take(self._coords, targets, axis=1))

    def distances_to(self, targets: np.ndarray
                     ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Lookup of hop distances to a block of targets.

        ``lookup(i, nodes)`` is d(nodes, targets[i]) elementwise (int32),
        for integer arrays ``i`` and ``nodes`` that broadcast together.
        Without a lattice hint one BFS call builds a row per target, so
        the block holds len(targets) * n cells.
        """
        targets = np.asarray(targets)
        if self.lattice_hint is None:
            rows = _bfs(self.indptr, self.indices, self.n, targets,
                        min_only=False)
            return lambda i, nodes: rows[i, nodes]
        coords = self._coords
        ends = coords[:, targets]
        return lambda i, nodes: self._lattice_distances(ends[:, i],
                                                        coords[:, nodes])

    def distance(self, u: int, v: int) -> int:
        """Hop distance between u and v; the BFS fallback reads v's row."""
        u, v, hint = self._node(u), self._node(v), self.lattice_hint
        if hint is None:
            return int(self.distance_row(v)[u])
        total = 0
        for _ in range(hint.dim):
            u, a = divmod(u, hint.side)
            v, b = divmod(v, hint.side)
            delta = abs(a - b)
            total += min(delta, hint.side - delta) if hint.wrap else delta
        return total

    def eccentricity(self, u: int) -> int:
        """Largest hop distance from u; closed form on a lattice, where
        each axis contributes side // 2 when wrapped and u's distance to
        the farther end otherwise."""
        u, hint = self._node(u), self.lattice_hint
        if hint is None:
            return int(self.distance_row(u).max())
        if hint.wrap:
            return hint.dim * (hint.side // 2)
        total = 0
        for _ in range(hint.dim):
            u, c = divmod(u, hint.side)
            total += max(c, hint.side - 1 - c)
        return total

    # -- text format ----------------------------------------------------

    def save(self, path) -> None:
        """Write the text format: `n m` then one `u v` line per edge,
        formatted BLOCK_CELLS ids at a time."""
        u = np.repeat(np.arange(self.n, dtype=np.int32), np.diff(self.indptr))
        mask = u < self.indices
        ids = np.stack([u[mask], self.indices[mask]], axis=1).ravel()
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{self.n} {ids.size // 2}\n")
            for start in range(0, ids.size, BLOCK_CELLS):
                block = ids[start:start + BLOCK_CELLS].tolist()
                fh.write(("%d %d\n" * (len(block) // 2)) % tuple(block))

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
        if m < n - 1:  # checked before any array of n cells is built
            raise GraphFormatError(
                f"{path}: header's {m} edges cannot connect {n} nodes")
        if len(lines) - 1 != m:
            raise GraphFormatError(
                f"{path}: header promises {m} edges, file has {len(lines) - 1}")
        # the header is parsed again as row 0: loadtxt then always reads
        # a row (it warns on none) and holds every line to its two
        # columns, so only a skipped blank line leaves the rows short
        try:
            rows = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
        except ValueError as exc:
            raise GraphFormatError(f"{path}: non-integer or malformed "
                                   f"line: {exc}") from exc
        if len(rows) != m + 1:
            raise GraphFormatError(f"{path}: blank edge line")
        return cls.from_edges(n, rows[1:])


def _build_csr(n: int, heads: np.ndarray, tails: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Canonical CSR arrays of directed arcs: each arc kept once, however
    often listed, and each row ascending. One sort of the packed keys
    head * n + tail does both; n * n < 2**63 for every n int32 indices
    can address."""
    key = (np.asarray(heads, dtype=np.int64) * n
           + np.asarray(tails, dtype=np.int64))
    key.sort()
    key = key[np.diff(key, prepend=-1) != 0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return indptr, (key % n).astype(np.int32)


def _lattice_coordinates(dim: int, side: int) -> np.ndarray:
    """Coordinates of the side**dim row-major lattice ids, one row per
    axis (int32)."""
    ids = np.arange(side ** dim, dtype=np.int64)
    coords = np.empty((dim, ids.size), dtype=np.int32)
    for axis in range(dim - 1, -1, -1):
        ids, coords[axis] = np.divmod(ids, side)
    return coords


def _lattice_csr(coords: np.ndarray, side: int, wrap: bool
                 ) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of the row-major lattice with coordinates ``coords``
    in ``_build_csr``'s canonical layout, sorted per row rather than
    over all arcs. Each node is joined to its +-1 neighbours along
    every axis, across the boundary only when ``wrap``; callers keep
    side >= 3 when wrapped, >= 2 otherwise, so no arc repeats."""
    dim, n = coords.shape
    ids = np.arange(n, dtype=np.int64)
    nbrs = np.full((n, 2 * dim), n, dtype=np.int64)  # n: no neighbour
    for axis in range(dim):
        stride = side ** (dim - 1 - axis)
        across = (side - 1) * stride
        c = coords[axis]
        nbrs[:, 2 * axis] = np.where(
            c > 0, ids - stride, ids + across if wrap else n)
        nbrs[:, 2 * axis + 1] = np.where(
            c < side - 1, ids + stride, ids - across if wrap else n)
    nbrs.sort(axis=1)
    real = nbrs < n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(real.sum(axis=1), out=indptr[1:])
    return indptr, nbrs[real].astype(np.int32)


def _recognize_lattice(n: int, indptr: np.ndarray, indices: np.ndarray
                       ) -> tuple[LatticeHint | None, np.ndarray | None]:
    """(hint, coordinates) of the lattice with these CSR arrays, else
    (None, None).

    Candidates must have side**dim == n nodes and the lattice's arc
    count before any array is built; the match compares full arrays.
    """
    for dim in (1, 2, 3):
        side = round(n ** (1 / dim))
        if side ** dim != n:
            continue
        for wrap in (True, False):
            if side < (3 if wrap else 2):
                continue
            arcs = 2 * dim * (side if wrap else side - 1) * side ** (dim - 1)
            if indices.size != arcs:
                continue
            coords = _lattice_coordinates(dim, side)
            want_indptr, want_indices = _lattice_csr(coords, side, wrap)
            if (np.array_equal(indptr, want_indptr)
                    and np.array_equal(indices, want_indices)):
                return LatticeHint(dim, side, wrap), coords
    return None, None


def _adjacency(indptr: np.ndarray, indices: np.ndarray, n: int
               ) -> csr_array:
    """CSR arcs as a sparse matrix of unit weights; shares ``indices``."""
    return csr_array((np.ones(indices.size), indices,
                      indptr.astype(indices.dtype)), shape=(n, n))


def _bfs(indptr: np.ndarray, indices: np.ndarray, n: int,
         sources: Sequence[int], min_only: bool = True) -> np.ndarray:
    """Hop distances along the directed arcs of a CSR graph (int32).

    The package's one BFS kernel. With ``min_only`` it returns one row,
    the distance to the nearest source; otherwise one row per source.
    Nodes with no path are UNREACHABLE. The arcs already weigh 1, so
    csgraph's ``unweighted`` flag, which copies the weights, is left off.
    """
    dist = csgraph.dijkstra(_adjacency(indptr, indices, n),
                            indices=sources, min_only=min_only)
    dist[np.isinf(dist)] = UNREACHABLE
    return dist.astype(np.int32)


def _max_eccentricity(indptr: np.ndarray, indices: np.ndarray, n: int,
                      sources: Sequence[int]) -> int:
    """Largest eccentricity of ``sources`` along the directed arcs of a
    CSR graph, by bit-parallel multi-source BFS (MS-BFS: Then et al.,
    "The More the Merrier", PVLDB 8(4), 2014).

    Sources go in blocks of 64*W, and every node holds one bit per
    source of the block in W uint64 words. A level pulls its frontier
    over the in-arcs with one ``bitwise_or.reduceat``; the number of
    levels until no bit is new is the block's largest eccentricity. W is
    the largest word count (at least 1, at most the sources need) whose
    (arcs, W) gather stays within BLOCK_CELLS words. Raises
    ValueError when a node misses a source, i.e. the arcs are not
    strongly connected.
    """
    sources = np.asarray(sources, dtype=np.int64)
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    in_ptr, in_idx = _build_csr(n, indices, heads)
    in_idx = in_idx.astype(np.intp)  # np.take converts other dtypes per call
    # reduceat misreads empty segments, so only nodes with an in-arc
    # take part in a level; the others are reached only as sources
    has_in = in_ptr[1:] > in_ptr[:-1]
    starts = in_ptr[:-1][has_in]
    words = max(1, min(BLOCK_CELLS // max(1, in_idx.size),
                       -(-sources.size // 64)))
    best = 0
    for lo in range(0, sources.size, 64 * words):
        block = sources[lo:lo + 64 * words]
        bit = np.arange(block.size)
        mask = np.uint64(1) << (bit % 64).astype(np.uint64)
        seen = np.zeros((n, words), dtype=np.uint64)
        np.bitwise_or.at(seen, (block, bit // 64), mask)
        full = np.bitwise_or.reduce(seen, axis=0)
        frontier = seen
        level = 0
        while starts.size:
            reached = np.zeros_like(seen)
            reached[has_in] = np.bitwise_or.reduceat(
                np.take(frontier, in_idx, axis=0), starts, axis=0)
            frontier = reached & ~seen
            if not frontier.any():
                break
            seen = seen | frontier
            level += 1
        if not (seen == full).all():
            raise ValueError("augmented graph is not strongly connected")
        best = max(best, level)
    return best


def _components(indptr: np.ndarray, indices: np.ndarray, n: int
                ) -> tuple[int, np.ndarray]:
    """(count, per-node label) of the strong components of the arcs;
    on symmetric arcs these are the ordinary connected components."""
    return csgraph.connected_components(_adjacency(indptr, indices, n),
                                        connection="strong")


def bfs(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source``: its ``distance_row``. Kept only
    because the benchmark's tracer wraps it by name."""
    return graph.distance_row(source)


def multi_source_bfs(graph: Graph, sources: Sequence[int]) -> np.ndarray:
    """Distance to the nearest of ``sources`` for every node."""
    if len(sources) == 0:
        raise ValueError("need at least one source")
    return _bfs(graph.indptr, graph.indices, graph.n, sources)


def ball(graph: Graph, u: int, radius: int) -> np.ndarray:
    """Sorted ids of nodes within hop distance ``radius`` of u."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return np.flatnonzero(graph.distance_row(u) <= radius).astype(np.int32)


def ball_profile(graph: Graph, u: int) -> np.ndarray:
    """Cumulative ball sizes [|B_0|, |B_1|, ...] from u."""
    return np.cumsum(np.bincount(graph.distance_row(u)))


def shell(graph: Graph, u: int, width: int, index: int) -> np.ndarray:
    """Sorted ids with index*width < d(u, .) <= (index+1)*width."""
    if width < 1:
        raise ValueError("shell width must be >= 1")
    if index < 0:
        raise ValueError("shell index must be >= 0")
    dist = graph.distance_row(u)
    return np.flatnonzero((dist > index * width)
                          & (dist <= (index + 1) * width)).astype(np.int32)


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
