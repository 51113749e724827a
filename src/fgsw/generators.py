"""Graph constructors: wrap/no-wrap lattices, Sierpinski gaskets, DIMACS import."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import (Graph, GraphFormatError, _build_csr, _components,
                    _gasket_csr, _lattice_coordinates, _lattice_csr)

log = logging.getLogger(__name__)

NODE_BUDGET = 2_000_000  # largest graph either generator builds


def gen_lattice(dim: int, side: int, wrap: bool = True) -> Graph:
    """d-dimensional lattice with side nodes per axis, row-major ids.

    Wrapped lattices are vertex-transitive tori of degree 2*dim, the
    unwrapped ones lose edges at the boundary; n <= NODE_BUDGET.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2, or 3")
    min_side = 3 if wrap else 2
    if side < min_side:
        raise ValueError(f"side must be >= {min_side} for wrap={wrap}")
    n = side ** dim
    if n > NODE_BUDGET:
        raise ValueError(
            f"side^dim = {n} exceeds the node budget of {NODE_BUDGET}")
    return Graph(n, *_lattice_csr(_lattice_coordinates(dim, side), side, wrap))


def gen_sierpinski(level: int) -> Graph:
    """Sierpinski gasket graph of the given level.

    Level 1 is a triangle; each next level glues three copies pairwise
    at corner nodes (``graph._gasket_gluings``). Copies are ordered and
    glued corners take the lowest id, so numbering is deterministic.
    n_L = (3^L + 3)/2, m_L = 3^L; levels over NODE_BUDGET nodes are
    refused.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    n = (3 ** level + 3) // 2
    if n > NODE_BUDGET:
        raise ValueError(
            f"level {level} needs {n} nodes, over the budget "
            f"of {NODE_BUDGET}")
    return Graph(n, *_gasket_csr(level))


@dataclass(frozen=True)
class DimacsImport:
    """Largest-component hop graph extracted from a DIMACS file."""

    graph: Graph
    original_ids: np.ndarray  # new id -> 1-indexed id in the file
    file_nodes: int
    dropped_nodes: int

    def write_renumber_map(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("new_id,original_id\n")
            for new, orig in enumerate(self.original_ids):
                fh.write(f"{new},{orig}\n")


def _dimacs_ints(path, lineno: int, fields: list, what: str) -> list:
    """The integer fields of one DIMACS line, each within int64 and
    written without the digit-group underscores int() reads (`1_0`)."""
    try:
        values = [int(f) for f in fields]
        if all(-2 ** 63 <= x < 2 ** 63 for x in values) \
                and not any("_" in f for f in fields):
            return values
    except ValueError:
        pass
    raise GraphFormatError(f"{path}:{lineno}: non-integer {what} or one "
                           f"outside int64: `{' '.join(fields)}`")


def import_dimacs(path) -> DimacsImport:
    """Read a DIMACS shortest-path file as an unweighted undirected graph.

    Arc weights and directions are dropped, duplicate arcs collapse to
    one edge, and only the largest connected component is kept (dense
    renumbering in ascending original-id order).
    """
    n_decl = None
    heads, tails = [], []
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected `p sp n m`")
                n_decl, = _dimacs_ints(path, lineno, parts[2:3], "node count")
            elif parts[0] == "a":
                if len(parts) != 4:
                    raise GraphFormatError(
                        f"{path}:{lineno}: expected `a u v w`")
                if n_decl is None:
                    raise GraphFormatError(
                        f"{path}:{lineno}: arc before problem line")
                u, v = _dimacs_ints(path, lineno, parts[1:3], "arc endpoint")
                if not (1 <= u <= n_decl and 1 <= v <= n_decl):
                    raise GraphFormatError(
                        f"{path}:{lineno}: endpoint outside [1, {n_decl}]")
                if u != v:
                    heads.append(u - 1)
                    tails.append(v - 1)
            else:
                raise GraphFormatError(
                    f"{path}:{lineno}: unknown record `{parts[0]}`")
    if n_decl is None:
        raise GraphFormatError(f"{path}: missing `p sp` line")
    if not heads:
        raise GraphFormatError(f"{path}: no arcs")

    # every array is sized from the distinct endpoints (at most two per
    # arc), not from the declared n: a declared node without arcs is a
    # singleton and loses to any edge's component. The CSR holds each
    # arc once in both directions, so repeated and reverse arcs collapse.
    ids, ends = np.unique(np.asarray(heads + tails, dtype=np.int64),
                          return_inverse=True)
    n_ids = ids.size
    h, t = ends[:len(heads)], ends[len(heads):]
    indptr, indices = _build_csr(n_ids, np.concatenate([h, t]),
                                 np.concatenate([t, h]))

    # keep the largest component; on a size tie, the one holding the
    # lowest node id (ids ascend, so their order is the file's)
    comp = _components(indptr, indices, n_ids)[1]
    sizes = np.bincount(comp)
    best = comp[np.flatnonzero(sizes[comp] == sizes.max())[0]]
    keep = np.flatnonzero(comp == best)
    dropped = n_decl - keep.size
    if dropped:
        log.warning("%s: kept largest component (%d nodes), dropped %d",
                    path, keep.size, dropped)

    # a component is closed, so its own rows, renumbered in ascending
    # order (a kept id's rank in ``keep``), are already canonical CSR
    degree = np.diff(indptr)
    arcs = indices[np.repeat(comp == best, degree)]
    graph = Graph(int(keep.size),
                  np.concatenate([[0], np.cumsum(degree[keep])]),
                  np.searchsorted(keep, arcs).astype(np.int32))
    return DimacsImport(graph=graph, original_ids=ids[keep] + 1,
                        file_nodes=n_decl, dropped_nodes=dropped)
