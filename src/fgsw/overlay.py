"""Randomized highway overlay over a fixed underlying graph.

Each node independently becomes a highway node with probability 1/k;
each highway node u receives round(q*k) directed long-range contacts,
every draw picking highway node h != u with probability
d(u,h)^(-s) / z(u) where z(u) sums d(u,h)^(-s) over all other highway
nodes. All randomness comes from per-(node, draw-index) substreams of
the master seed, so an overlay materialized lazily, eagerly, or in any
order is identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .graph import BLOCK_CELLS, Graph, multi_source_bfs

MAX_MEMBERSHIP_EPOCHS = 16
# most contact draws per highway node: 2**24 uniforms are 128 MiB for
# one list, and a larger round(q*k) only asks numpy for more memory
MAX_DRAWS_PER_NODE = 1 << 24


class OverlayError(ValueError):
    """Invalid overlay parameters or malformed overlay data."""


def _number(kind, token: str) -> float:
    """kind(token), or NaN where kind refuses it or an int is no int32."""
    try:
        value = kind(token)
    except ValueError:
        return math.nan
    return value if kind is float or -1 << 31 <= value < 1 << 31 else math.nan


@dataclass(frozen=True)
class OverlayParams:
    """Model parameters: highway constant k, contact multiplier q,
    clustering exponent s, master seed."""

    k: float
    q: float
    s: float
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.q * self.k) and math.isfinite(self.s)):
            raise OverlayError("k, q, q*k and s must be finite")
        if not self.k >= 1:
            raise OverlayError("k must be >= 1")
        if not self.q > 0:
            raise OverlayError("q must be > 0")
        # s = 0 is degenerate (uniform contacts) but useful in tests
        if not self.s >= 0:
            raise OverlayError("s must be >= 0")
        if self.draws_per_node < 1:
            raise OverlayError("round(q*k) must be >= 1")
        if self.draws_per_node > MAX_DRAWS_PER_NODE:
            raise OverlayError(f"round(q*k) = {self.draws_per_node} is above "
                               f"the limit of {MAX_DRAWS_PER_NODE} draws")

    @property
    def draws_per_node(self) -> int:
        """Raw contact draws per highway node: round(q*k), half up."""
        return int(np.floor(self.q * self.k + 0.5))


def sample_highway_membership(graph: Graph, params: OverlayParams
                              ) -> tuple[np.ndarray, int]:
    """Per-node highway flags plus the epoch that produced them.

    Flag i is a pure function of (seed, epoch, i). If fewer than two
    highway nodes come up, the whole membership is resampled under the
    next epoch, up to MAX_MEMBERSHIP_EPOCHS.
    """
    p = 1.0 / params.k
    for epoch in range(MAX_MEMBERSHIP_EPOCHS):
        stream = rng.substream(params.seed, rng.DOMAIN_MEMBERSHIP, epoch)
        flags = stream.random(graph.n) < p
        if int(flags.sum()) >= 2:
            return flags, epoch
    raise OverlayError(
        f"fewer than 2 highway nodes after {MAX_MEMBERSHIP_EPOCHS} "
        f"membership epochs (n={graph.n}, k={params.k})")


class HighwayOverlay:
    """Sampled highway set plus per-node contact lists and z values.

    Contact lists and z(u) are materialized on first access and cached;
    the result never depends on access order. The lists live in one
    int32 table, ``contact_table``: row r belongs to ``highway_ids[r]``
    and is min(round(q*k), |H| - 1) wide. A built row holds the node's
    contacts in ascending order, padded with the node's own id; an
    unbuilt row is all -1. ``_cache`` maps a built node to (z, its row
    without the padding). ``save`` builds every row, then formats the
    table in blocks; ``load`` checks a file as whole arrays and fills
    the table and ``_cache`` at once. The caches are filled without
    locks, so an overlay is single-threaded.
    """

    def __init__(self, graph: Graph, params: OverlayParams,
                 is_highway: np.ndarray, epoch: int):
        self.graph = graph
        self.params = params
        self.epoch = epoch
        self.is_highway = is_highway
        self.highway_ids = np.flatnonzero(is_highway).astype(np.int32)
        if self.highway_ids.size < 2:
            raise OverlayError(f"fewer than 2 highway nodes "
                               f"({self.highway_ids.size} flagged)")
        width = min(params.draws_per_node, self.highway_ids.size - 1)
        self.contact_table = np.full((self.highway_ids.size, width), -1,
                                     dtype=np.int32)
        self._cache: dict[int, tuple[float, np.ndarray]] = {}
        self._nearest: tuple[np.ndarray, np.ndarray] | None = None

    # -- contact distribution ------------------------------------------

    def _weight_cumsum(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(targets, cumulative weights) of u's contact distribution,
        targets in ascending id order."""
        targets = self.highway_ids[self.highway_ids != u]
        d = self.graph.distances(u, targets).astype(np.float64)
        return targets, np.cumsum(d ** -self.params.s)

    def _draw(self, u: int, count: int, *path: int
              ) -> tuple[float, np.ndarray]:
        """z(u) and ``count`` draws from u's law on substream ``path``."""
        targets, cum = self._weight_cumsum(u)
        z = float(cum[-1])
        stream = rng.substream(self.params.seed, *path)
        idx = np.searchsorted(cum, stream.random(count) * z, side="right")
        np.minimum(idx, cum.size - 1, out=idx)
        return z, targets[idx]

    def _materialize(self, u: int) -> tuple[float, np.ndarray]:
        if u not in self._cache:
            z, drawn = self._draw(u, self.params.draws_per_node,
                                  rng.DOMAIN_CONTACTS, self.epoch, u)
            contacts = np.unique(drawn)
            row = self.contact_table[np.searchsorted(self.highway_ids, u)]
            row[:] = u
            row[:contacts.size] = contacts
            self._cache[u] = (z, row[:contacts.size])
        return self._cache[u]

    def _require_highway(self, u: int) -> None:
        if not self.is_highway[self.graph._node(u)]:
            raise ValueError(f"node {u} is not a highway node")

    def zvalue(self, u: int) -> float:
        """Normalization constant of u's contact distribution."""
        self._require_highway(u)
        return self._materialize(u)[0]

    def contacts(self, u: int) -> np.ndarray:
        """u's long-range contact targets, deduplicated, ascending."""
        self._require_highway(u)
        return self._materialize(u)[1]

    def contact_distribution(self, u: int
                             ) -> tuple[np.ndarray, np.ndarray, float]:
        """(targets, probabilities, z) of u's exact contact law."""
        self._require_highway(u)
        targets, cum = self._weight_cumsum(u)
        z = float(cum[-1])
        probs = np.diff(cum, prepend=0.0) / z
        return targets, probs, z

    def draw_contact_targets(self, u: int, count: int, tag: int
                             ) -> np.ndarray:
        """Fresh draws from u's contact law (for statistics; does not
        touch the overlay's own contact lists)."""
        self._require_highway(u)
        return self._draw(u, count, rng.DOMAIN_REDRAW, self.epoch, u, tag)[1]

    def contact_rows(self, nodes: np.ndarray) -> np.ndarray:
        """Padded contact-table rows of highway ``nodes``, built on
        demand; ``Graph._nodes``'s errors, then ``_require_highway``'s."""
        nodes = self.graph._nodes(nodes)
        rank = np.searchsorted(self.highway_ids, nodes)
        found = self.highway_ids[np.minimum(rank, self.highway_ids.size - 1)]
        if not np.array_equal(found, nodes):
            self._require_highway(nodes[found != nodes][0])
        for r in np.unique(rank[self.contact_table[rank, 0] < 0]):
            self._materialize(int(self.highway_ids[r]))
        return self.contact_table[rank]

    def materialize_all(self) -> None:
        self.contact_rows(self.highway_ids)

    def zvalues(self) -> np.ndarray:
        """z over all highway nodes, aligned with highway_ids."""
        self.materialize_all()
        return np.array([self._cache[u][0] for u in self.highway_ids.tolist()])

    # -- nearest-highway field ------------------------------------------

    def nearest_highway(self) -> tuple[np.ndarray, np.ndarray]:
        """(distance to nearest highway node, local next-hop) per node.

        Highway nodes have distance 0 and themselves as next hop; for
        the rest the next hop is the lowest-id neighbor strictly closer
        to the highway set.
        """
        if self._nearest is None:
            g = self.graph
            dist = multi_source_bfs(g, self.highway_ids)
            heads = np.repeat(np.arange(g.n), np.diff(g.indptr))
            good = dist[g.indices] == dist[heads] - 1
            cand = np.where(good, g.indices, g.n).astype(np.int64)
            next_hop = np.minimum.reduceat(cand, g.indptr[:-1]).astype(np.int64)
            next_hop[self.is_highway] = np.flatnonzero(self.is_highway)
            if next_hop.max() >= g.n:
                raise OverlayError("nearest-highway field has a dead end")
            self._nearest = (dist, next_hop.astype(np.int32))
        return self._nearest

    # -- serialization ----------------------------------------------------

    def save(self, path) -> None:
        """Text format: `k q s seed epoch n` header, then one
        `h <id> z=<z> : t1 t2 ...` line per highway node, ascending; a
        line holds at most round(q*k) contacts."""
        p, ids, table = self.params, self.highway_ids, self.contact_table
        z = self.zvalues()  # builds every row
        count = (table != ids[:, None]).sum(axis=1)  # padding repeats u
        # each line's u, z and contacts as float64 cells; ids are exact
        # there, and `%d` prints them whole
        cells = np.column_stack([ids, z, table])[
            np.arange(table.shape[1] + 2) < count[:, None] + 2]
        start = np.concatenate([[0], np.cumsum(count + 2)])  # a line's cells
        step = max(1, BLOCK_CELLS // (table.shape[1] + 2))  # lines a block
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{p.k:.17g} {p.q:.17g} {p.s:.17g} {p.seed} "
                     f"{self.epoch} {self.graph.n}\n")
            for r in range(0, ids.size, step):
                c = count[r:r + step].tolist()
                block = cells[start[r]:start[r + len(c)]].tolist()
                fh.write("".join("h %d z=%.17g :" + " %d" * i + "\n"
                                 for i in c) % tuple(block))

    @classmethod
    def load(cls, graph: Graph, path) -> "HighwayOverlay":
        """Read the `save` format: each line is split once, then each
        check runs over whole arrays and names the first line failing it."""
        with open(path, "r", encoding="ascii") as fh:
            # int() and float() read `1_0` as 10 but refuse `1?0`
            lines = fh.read().replace("_", "?").splitlines()
        if not lines:
            raise OverlayError(f"{path}: empty overlay file")
        head = lines[0].split()
        if len(head) != 6:
            raise OverlayError(f"{path}: header must be `k q s seed epoch n`")
        try:
            k, q, s = map(float, head[:3])
            seed, epoch, n = map(int, head[3:])
        except ValueError as exc:
            raise OverlayError(f"{path}: malformed header") from exc
        if n != graph.n:
            raise OverlayError(
                f"{path}: overlay is for n={n}, graph has n={graph.n}")
        if not 0 <= epoch < MAX_MEMBERSHIP_EPOCHS:
            raise OverlayError(f"{path}: epoch {epoch} is outside "
                               f"[0, {MAX_MEMBERSHIP_EPOCHS})")
        params = OverlayParams(k=k, q=q, s=s, seed=seed)

        def refuse(bad, what, *values, line=None):
            """Refuse body line i, or line[i], for the first i where
            ``bad`` holds; ``what`` is formatted with ``values`` at i."""
            if bad.any():
                i = int(bad.argmax())
                lineno = (i if line is None else line[i]) + 2
                raise OverlayError(f"{path}:{lineno}: "
                                   + what.format(*(v[i] for v in values)))

        parts = [line.split() for line in lines[1:]]
        refuse(np.array([len(t) < 4 or t[0] != "h" or t[3] != ":"
                         or t[2][:2] != "z=" for t in parts], dtype=bool),
               "malformed highway line")
        count = np.array([len(t) - 4 for t in parts], dtype=np.int64)
        owner = np.repeat(np.arange(count.size), count)  # a contact's line
        # float64 throughout: NaN marks a refused token, ints are exact
        ids = np.array([_number(int, t[1]) for t in parts], dtype=float)
        z = np.array([_number(float, t[2][2:]) for t in parts], dtype=float)
        contacts = np.array([_number(int, c) for t in parts for c in t[4:]],
                            dtype=float)
        malformed = np.isnan(ids) | np.isnan(z)
        malformed[owner[np.isnan(contacts)]] = True
        refuse(malformed, "malformed values")
        ids, contacts = ids.astype(np.int64), contacts.astype(np.int64)
        refuse((ids < 0) | (ids >= n), "node {} out of range", ids)
        refuse(count == 0, "no contacts")
        refuse((contacts < 0) | (contacts >= n), "contact id out of range",
               line=owner)
        refuse(count > params.draws_per_node,
               f"more than round(q*k) = {params.draws_per_node} contacts")
        refuse(np.diff(ids, prepend=-1) <= 0, "ids must be ascending")
        refuse(~(np.isfinite(z) & (z > 0)), "bad z value")
        if count.size < 2:
            raise OverlayError(f"{path}: fewer than 2 highway nodes")
        is_highway = np.bincount(ids, minlength=n) > 0
        refuse(~is_highway[contacts], "node {} has non-highway contact {}",
               ids[owner], contacts, line=owner)
        bad = contacts == ids[owner]
        bad[1:] |= (np.diff(contacts) <= 0) & (np.diff(owner) == 0)
        refuse(bad, "node {} has self or unsorted contacts", ids[owner],
               line=owner)
        overlay = cls(graph, params, is_highway, epoch)
        table = overlay.contact_table
        table[:] = ids[:, None]  # padding, then each row's contacts
        table[np.arange(table.shape[1]) < count[:, None]] = contacts
        overlay._cache = {u: (zu, row[:c]) for u, zu, row, c in
                          zip(ids.tolist(), z.tolist(), table, count.tolist())}
        return overlay


def build_overlay(graph: Graph, params: OverlayParams,
                  materialize: bool = True) -> HighwayOverlay:
    """Sample membership and (by default) all contact lists and z values.

    With materialize=False contacts are computed on first use instead;
    the resulting overlay is identical either way.
    """
    if graph.n < 2:
        raise OverlayError("overlay needs a graph with at least 2 nodes")
    flags, epoch = sample_highway_membership(graph, params)
    overlay = HighwayOverlay(graph, params, flags, epoch)
    if materialize:
        overlay.materialize_all()
    return overlay
