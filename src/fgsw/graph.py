"""Undirected graph core: CSR storage, the hop metric, balls and shells.

Hop distance is the only metric in the package, and ``Graph`` holds it:
``distance_row(u)``, ``distances(u, targets)``, ``distance(u, v)``,
``distances_to(targets)`` (a lookup into a block of target rows) and
``eccentricity(u)``. ``Graph._node`` is the package's one check of a
scalar node id, which the overlay calls too: an id outside [0, n) is a
ValueError and one that is not an integer (a float, say) a TypeError;
numpy integers pass. ``Graph._nodes`` is its array form, with the same
errors for the first failing id in flat order, which ``route_batch``
(and so ``route``) and ``contact_rows`` call.

All five methods ask one private metric object per graph, picked from
the graph's own CSR arrays, whatever built them:

- ``_Lattice``: the arrays equal those of a row-major lattice (checked
  at construction, so the 3-ring is a lattice, not a level-1 gasket);
  distances are (wrapped) L1 coordinate distances.
- ``_Gasket``: the arrays equal those of ``_gasket_csr(level)``
  (checked on the first query); distances follow the Sierpinski-gasket
  recursion of Hinz and Schief (PTRF 87, 1990) through each node's
  packed copy digits.
- ``_Rows``: any other graph; ``_bfs``, scipy's csgraph Dijkstra over
  unit-weight arcs, builds the rows from an adjacency matrix the metric
  builds once.

Both closed forms evaluate everything but ``distance_row`` without
building a row (tests assert the equivalence). ``bfs`` is
``distance_row``, and ``ball``, ``shell`` and ``pack_independent_balls``
threshold it. Components come from csgraph over the same arcs, and
diameters from ``_max_eccentricity``, a bit-parallel multi-source BFS
that builds no rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_array

UNREACHABLE = -1

# Cells one block of batched work may hold: the (arcs, words) gather of
# one diameter BFS level, the walks of one lockstep routing block and
# the ids `Graph.save` formats at once are sized from it.
BLOCK_CELLS = 1 << 16

# Deepest gasket the closed form takes: its packed codes fill an int32
# and its corner bits a uint16.
GASKET_MAX_LEVEL = 15


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
        self.lattice_hint, coords = _recognize_lattice(self.n, indptr, indices)
        if coords is not None:
            self._metric = _Lattice(self.lattice_hint, coords)
        indptr.flags.writeable = False
        indices.flags.writeable = False

    @cached_property
    def _metric(self):
        """A non-lattice's metric, picked on its first query: the gasket
        closed form when the arrays are a gasket's, else csgraph rows."""
        level = _recognize_gasket(self.n, self.indptr, self.indices)
        return _Gasket(level) if level else _Rows(self)

    @cached_property
    def _neighbour_table(self) -> np.ndarray:
        """Neighbours of every node in ascending order, one row per node,
        padded to the largest degree with the row's own node (int32); on
        a regular graph, a view of ``indices``."""
        degree = np.diff(self.indptr)
        width = int(degree.max())
        if degree.min() == width:
            return self.indices.reshape(self.n, width)
        table = np.repeat(np.arange(self.n, dtype=np.int32)[:, None], width,
                          axis=1)
        heads = np.repeat(np.arange(self.n), degree)
        table[heads, np.arange(heads.size) - self.indptr[heads]] = \
            self.indices
        return table

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
        """``_node`` over an array, in flat order: the ids as int64.
        Ids that numpy holds in no integer dtype (floats, strings, or
        integers beyond int64 beside others) are checked one by one, so
        each error is ``_node``'s for the first id that fails."""
        ids = np.asarray(nodes)
        if ids.size and ids.dtype.kind not in "iu":
            ids = np.asarray(nodes, dtype=object)
            return np.array([self._node(u) for u in ids.flat],
                            dtype=np.int64).reshape(ids.shape)
        bad = np.flatnonzero((ids < 0) | (ids >= self.n))
        if bad.size:
            raise ValueError(f"node {int(ids.flat[bad[0]])} out of range")
        return ids.astype(np.int64)

    def distance_row(self, u: int) -> np.ndarray:
        """Hop distance from u to every node (int32)."""
        return self._metric.row(self._node(u))

    def distances(self, u: int, targets: np.ndarray) -> np.ndarray:
        """Hop distance from u to each of ``targets``, in their order
        (int32)."""
        return self._metric.distances(self._node(u), targets)

    def distances_to(self, targets: np.ndarray
                     ) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Lookup of hop distances to a block of targets.

        ``lookup(i, nodes)`` is d(nodes, targets[i]) elementwise (int32),
        for integer arrays ``i`` and ``nodes`` that broadcast together.
        On csgraph rows one BFS call builds a row per target, so the
        block holds len(targets) * n cells; a closed form holds none.
        """
        return self._metric.distances_to(np.asarray(targets))

    def distance(self, u: int, v: int) -> int:
        """Hop distance between u and v; csgraph rows read v's row."""
        return self._metric.distance(self._node(u), self._node(v))

    def eccentricity(self, u: int) -> int:
        """Largest hop distance from u."""
        return self._metric.eccentricity(self._node(u))

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


def _gasket_gluings(level: int):
    """The steps that glue the level-``level`` Sierpinski gasket from
    the triangle 0, 1, 2 (its corners 0, 1 and 2).

    A step lays three copies of the n-node gasket below at ids 0, n and
    2n and yields (n, new, kept): ``new`` maps each of the 3n copy ids
    to its id in the glued gasket, and ``kept`` lists, by glued id, the
    copy id it keeps. Copy i's corner j (i != j) is glued to copy j's
    corner i and keeps the lower id; copy i's corner i becomes corner i
    of the glued gasket.
    """
    corners = np.arange(3)
    n = 3
    for _ in range(level - 1):
        c0, c1, c2 = corners
        into = np.arange(3 * n)
        into[[n + c0, 2 * n + c0, 2 * n + c1]] = c1, c2, n + c2
        kept = np.flatnonzero(into == np.arange(3 * n))
        new = np.empty(3 * n, dtype=np.int64)
        new[kept] = np.arange(kept.size)
        yield n, new[into], kept
        corners = new[[c0, n + c1, 2 * n + c2]]
        n = kept.size


def _gasket_csr(level: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of the level-``level`` gasket, numbered as
    ``_gasket_gluings`` glues it, in ``_build_csr``'s canonical layout."""
    edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
    for n, new, _ in _gasket_gluings(level):
        edges = new[np.concatenate([edges, edges + n, edges + 2 * n])]
    return _build_csr((3 ** level + 3) // 2, edges.ravel(),
                      edges[:, ::-1].ravel())


def _recognize_gasket(n: int, indptr: np.ndarray, indices: np.ndarray
                      ) -> int:
    """Level of the gasket with these CSR arrays, else 0.

    A candidate must have n = (3^L + 3) / 2 nodes, 2 * 3^L arcs and
    L <= GASKET_MAX_LEVEL before any array is built; the match compares
    full arrays.
    """
    level = 1
    while 3 ** level < 2 * n - 3:
        level += 1
    if (3 ** level != 2 * n - 3 or indices.size != 2 * 3 ** level
            or level > GASKET_MAX_LEVEL):
        return 0
    want_indptr, want_indices = _gasket_csr(level)
    if (np.array_equal(indptr, want_indptr)
            and np.array_equal(indices, want_indices)):
        return level
    return 0


# -- metrics -------------------------------------------------------------


class _Metric:
    """Hop distances between node ids ``Graph`` has checked, all int32.

    A metric gives ``row(u)`` and ``distances_to(targets)``, whose
    lookup holds ``target_cells`` cells per target and node; subsets,
    pairs and eccentricities read rows unless it has a closed form.
    """

    target_cells = 0

    def distances(self, u: int, targets: np.ndarray) -> np.ndarray:
        return self.row(u)[targets]

    def distance(self, u: int, v: int) -> int:
        return int(self.row(v)[u])

    def eccentricity(self, u: int) -> int:
        return int(self.row(u).max())


class _Lattice(_Metric):
    """(Wrapped) L1 distances between the coordinate columns of a
    recognised lattice (``coords``: int32, one row per axis)."""

    def __init__(self, hint: LatticeHint, coords: np.ndarray):
        self.hint = hint
        self.coords = coords

    def _between(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Hop distance between the nodes whose coordinate columns are
        ``a`` and ``b`` (broadcast along axis 0)."""
        delta = np.abs(a - b)
        if self.hint.wrap:
            np.minimum(delta, self.hint.side - delta, out=delta)
        return delta.sum(axis=0, dtype=np.int32)

    def row(self, u: int) -> np.ndarray:
        return self._between(self.coords[:, u:u + 1], self.coords)

    def distances(self, u: int, targets: np.ndarray) -> np.ndarray:
        return self._between(self.coords[:, u:u + 1],
                             np.take(self.coords, targets, axis=1))

    def distances_to(self, targets: np.ndarray):
        coords = self.coords
        ends = coords[:, targets]
        return lambda i, nodes: self._between(ends[:, i], coords[:, nodes])

    def distance(self, u: int, v: int) -> int:
        hint, total = self.hint, 0
        for _ in range(hint.dim):
            u, a = divmod(u, hint.side)
            v, b = divmod(v, hint.side)
            delta = abs(a - b)
            total += min(delta, hint.side - delta) if hint.wrap else delta
        return total

    def eccentricity(self, u: int) -> int:
        """Each axis adds side // 2 when wrapped, else u's distance to
        the farther end."""
        hint = self.hint
        if hint.wrap:
            return hint.dim * (hint.side // 2)
        total = 0
        for _ in range(hint.dim):
            u, c = divmod(u, hint.side)
            total += max(c, hint.side - 1 - c)
        return total


class _Gasket(_Metric):
    """Closed-form hop distances on the level-L Sierpinski gasket (Hinz
    and Schief, "The average distance on the Sierpinski gasket", PTRF
    87, 1990).

    ``code[u]`` packs u's digits, two bits each. Gluing step q (level
    q to q + 1 in ``_gasket_gluings``) lays three copies of the level-q
    gasket, and digit q names the one that holds u; digit 0 names u's
    corner of its base triangle. So digits q and up fix the level-q
    copy that holds u, whose corner j is the one it shares with its
    sibling copy j. Bit q of ``corner[j, u]`` is set when digit q is not
    j, and u is as many hops from corner j of its level-p copy as the
    bits below p weigh: 1 for bit 0 and 2^(q-1) for bit q.
    """

    def __init__(self, level: int):
        code = np.arange(3, dtype=np.int32)
        for step, (_, _, kept) in enumerate(_gasket_gluings(level), 1):
            digit = 1 << 2 * step
            code = np.concatenate([code, code + digit,
                                   code + 2 * digit])[kept]
        corner = np.zeros((3, code.size), dtype=np.uint16)
        for q in range(level):
            digit = code >> 2 * q & 3
            for j in range(3):
                corner[j] |= (digit != j).astype(np.uint16) << q
        self.code = code
        self.corner = corner

    def _pairs(self, u, v) -> np.ndarray:
        """d(u, v) elementwise over node ids that broadcast together.

        At the first digit p where u's and v's codes differ, u lies in
        the level-p copy x and v in copy y of one level-(p + 1) gasket,
        whose third copy z spans 2^(p-1) hops. A shortest path crosses
        from x to y at their shared corner or through z. Distinct
        corners of one base triangle (p = 0) are one hop apart.
        """
        cu, cv = self.code[u], self.code[v]
        # frexp's exponent of an integer is its bit length
        p = np.maximum(np.frexp(cu ^ cv)[1] - 1, 0) >> 1
        x, y = cu >> 2 * p & 3, cv >> 2 * p & 3
        z = (3 - x - y) % 3  # any copy where u == v
        low = (1 << p) - 1
        corner = self.corner

        def hops(j, w):  # from w to corner j of its level-p copy
            bits = corner[j, w] & low
            return (bits >> 1) + (bits & 1)

        d = np.minimum(hops(y, u) + hops(x, v),
                       hops(z, u) + (low + 1 >> 1) + hops(z, v))
        # where p = 0 the sum above is 0: one hop apart, or u == v
        return np.maximum(d, cu != cv).astype(np.int32)

    def row(self, u: int) -> np.ndarray:
        return self._pairs(u, np.arange(self.code.size))

    def distances(self, u: int, targets: np.ndarray) -> np.ndarray:
        return self._pairs(u, targets)

    def distances_to(self, targets: np.ndarray):
        return lambda i, nodes: self._pairs(targets[i], nodes)

    def distance(self, u: int, v: int) -> int:
        return int(self._pairs(u, v))


class _Rows(_Metric):
    """csgraph rows over the graph's arcs: the metric of a graph with no
    closed form. The adjacency matrix is built once, with the metric."""

    def __init__(self, graph: Graph):
        self.target_cells = graph.n
        self._adjacency = _adjacency(graph.indptr, graph.indices, graph.n)

    def row(self, u: int) -> np.ndarray:
        return _bfs(self._adjacency, (u,))

    def distances_to(self, targets: np.ndarray):
        rows = _bfs(self._adjacency, targets, min_only=False)
        return lambda i, nodes: rows[i, nodes]


def _adjacency(indptr: np.ndarray, indices: np.ndarray, n: int
               ) -> csr_array:
    """CSR arcs as a sparse matrix of unit weights; shares ``indices``."""
    return csr_array((np.ones(indices.size), indices,
                      indptr.astype(indices.dtype)), shape=(n, n))


def _bfs(adjacency: csr_array, sources: Sequence[int],
         min_only: bool = True) -> np.ndarray:
    """Hop distances along the arcs of an ``_adjacency`` matrix (int32).

    The package's one BFS kernel. With ``min_only`` it returns one row,
    the distance to the nearest source; otherwise one row per source.
    Nodes with no path are UNREACHABLE. The arcs already weigh 1, so
    csgraph's ``unweighted`` flag, which copies the weights, is left off.
    """
    dist = csgraph.dijkstra(adjacency, indices=sources, min_only=min_only)
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
    return _bfs(_adjacency(graph.indptr, graph.indices, graph.n), sources)


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
