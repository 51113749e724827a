"""Generators: lattices, Sierpinski gaskets, DIMACS import."""

import logging
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from fgsw import (Graph, GraphFormatError, gen_lattice, gen_sierpinski,
                  import_dimacs)
from fgsw.graph import _build_csr, _components


# -- lattices ----------------------------------------------------------------


def test_ring_counts_and_degrees():
    g = gen_lattice(1, 8)
    assert g.n == 8 and g.m == 8
    assert all(g.degree(u) == 2 for u in range(g.n))


def test_torus_2d_counts_and_degrees():
    g = gen_lattice(2, 4)
    assert g.n == 16 and g.m == 32
    assert all(g.degree(u) == 4 for u in range(g.n))


def test_torus_3d_counts_and_degrees():
    g = gen_lattice(3, 3)
    assert g.n == 27 and g.m == 81
    assert all(g.degree(u) == 6 for u in range(g.n))


def test_unwrapped_grid_counts():
    g = gen_lattice(2, 4, wrap=False)
    assert g.n == 16 and g.m == 24  # 2 * 4 * 3
    assert g.degree(0) == 2  # corner
    assert g.degree(5) == 4  # interior


def test_path_counts():
    g = gen_lattice(1, 9, wrap=False)
    assert g.n == 9 and g.m == 8
    assert g.degree(0) == 1 and g.degree(4) == 2


def test_wrapped_lattices_vertex_transitive():
    # identical distance profile from every probe node
    for dim, side in ((1, 9), (2, 5), (3, 4)):
        g = gen_lattice(dim, side)
        ref = np.bincount(g.distance_row(0))
        for u in (1, g.n // 2, g.n - 1):
            assert np.array_equal(np.bincount(g.distance_row(u)), ref)


def test_lattice_rejects_bad_dim():
    for dim in (0, 4, -1):
        with pytest.raises(ValueError, match="dim must be"):
            gen_lattice(dim, 5)


def test_lattice_rejects_small_side():
    with pytest.raises(ValueError, match="side must be >= 3"):
        gen_lattice(1, 2)  # wrapped needs >= 3 (side 2 would double edges)
    with pytest.raises(ValueError, match="side must be >= 2"):
        gen_lattice(1, 1, wrap=False)
    gen_lattice(1, 2, wrap=False)  # fine: a single edge


def test_lattice_rejects_over_budget():
    with pytest.raises(ValueError, match="node budget"):
        gen_lattice(3, 200)  # 8,000,000 nodes


# -- Sierpinski gasket --------------------------------------------------------


def test_sierpinski_level1_is_triangle():
    g = gen_sierpinski(1)
    assert g.n == 3 and g.m == 3
    assert all(g.degree(u) == 2 for u in range(3))


def test_sierpinski_recursions():
    for level in range(1, 7):
        g = gen_sierpinski(level)
        assert g.n == (3 ** level + 3) // 2
        assert g.m == 3 ** level


def test_sierpinski_degree_split():
    # exactly three corner nodes of degree 2; the rest have degree 4
    g = gen_sierpinski(4)
    degs = np.array([g.degree(u) for u in range(g.n)])
    assert np.count_nonzero(degs == 2) == 3
    assert np.count_nonzero(degs == 4) == g.n - 3


def test_sierpinski_deterministic():
    a, b = gen_sierpinski(3), gen_sierpinski(3)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


def unique_glued_sierpinski(level):
    """The gasket numbered by the original gluing, which found each
    level's surviving ids with np.unique over the glued edges."""
    edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
    corners = np.array([0, 1, 2], dtype=np.int64)
    n = 3
    for _ in range(level - 1):
        c0, c1, c2 = corners
        merged = np.concatenate([edges + off for off in (0, n, 2 * n)])
        remap = np.arange(3 * n, dtype=np.int64)
        remap[n + c0] = c1
        remap[2 * n + c1] = n + c2
        remap[2 * n + c0] = c2
        merged = remap[merged]
        kept = np.unique(merged)
        dense = np.full(3 * n, -1, dtype=np.int64)
        dense[kept] = np.arange(kept.size)
        edges = dense[merged]
        corners = dense[np.array([c0, n + c1, 2 * n + c2])]
        n = kept.size
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("level", range(1, 9))
def test_sierpinski_numbering_matches_unique_gluing(level):
    g, want = gen_sierpinski(level), unique_glued_sierpinski(level)
    assert np.array_equal(g.indptr, want.indptr)
    assert np.array_equal(g.indices, want.indices)


def test_sierpinski_rejects_bad_level():
    with pytest.raises(ValueError, match="level must be >= 1"):
        gen_sierpinski(0)


def test_sierpinski_rejects_over_budget():
    with pytest.raises(ValueError, match="budget"):
        gen_sierpinski(14)  # level 14 needs 2,391,486 nodes


# -- DIMACS import -------------------------------------------------------------


def write_dimacs(path, n, arcs, comments=()):
    lines = [f"c {c}" for c in comments]
    lines.append(f"p sp {n} {len(arcs)}")
    lines.extend(f"a {u} {v} {w}" for u, v, w in arcs)
    path.write_text("\n".join(lines) + "\n")


def test_dimacs_basic_triangle(tmp_path):
    p = tmp_path / "t.gr"
    write_dimacs(p, 3, [(1, 2, 7), (2, 3, 1), (3, 1, 9)],
                 comments=["tiny example"])
    imp = import_dimacs(p)
    assert imp.graph.n == 3 and imp.graph.m == 3
    assert imp.file_nodes == 3 and imp.dropped_nodes == 0
    assert list(imp.original_ids) == [1, 2, 3]


def test_dimacs_collapses_duplicates_and_reverse_arcs(tmp_path):
    p = tmp_path / "t.gr"
    write_dimacs(p, 3, [(1, 2, 5), (2, 1, 8), (1, 2, 5), (2, 3, 1)])
    imp = import_dimacs(p)
    assert imp.graph.m == 2


def test_dimacs_drops_self_loop_arcs(tmp_path):
    p = tmp_path / "t.gr"
    write_dimacs(p, 3, [(1, 2, 5), (2, 2, 1), (2, 3, 1)])
    assert import_dimacs(p).graph.m == 2


def test_dimacs_keeps_largest_component(tmp_path, caplog):
    # component {1..5} (a 5-cycle), component {6,7}, isolated node 8
    arcs = [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 1, 1),
            (6, 7, 1)]
    p = tmp_path / "t.gr"
    write_dimacs(p, 8, arcs)
    with caplog.at_level(logging.WARNING, logger="fgsw.generators"):
        imp = import_dimacs(p)
    assert imp.graph.n == 5
    assert imp.dropped_nodes == 3
    assert list(imp.original_ids) == [1, 2, 3, 4, 5]
    assert any("dropped 3" in r.getMessage() for r in caplog.records)


def test_dimacs_renumber_map(tmp_path):
    arcs = [(2, 4, 1), (4, 6, 1)]
    p = tmp_path / "t.gr"
    write_dimacs(p, 6, arcs)
    imp = import_dimacs(p)
    out = tmp_path / "map.csv"
    imp.write_renumber_map(out)
    assert out.read_text() == "new_id,original_id\n0,2\n1,4\n2,6\n"


def test_dimacs_component_tie_keeps_lowest_ids(tmp_path):
    p = tmp_path / "t.gr"
    write_dimacs(p, 4, [(3, 4, 1), (1, 2, 1)])
    assert list(import_dimacs(p).original_ids) == [1, 2]


def test_dimacs_outputs_pinned(tmp_path, caplog):
    # ids with gaps: components {2,5,9,12}, {4,7,11} and {1,6}; node 3
    # has only a self-loop, and 8 and 10 have no arc
    p = tmp_path / "t.gr"
    write_dimacs(p, 12, [(2, 5, 4), (5, 9, 1), (9, 2, 7), (9, 12, 2),
                         (12, 9, 3), (3, 3, 1), (4, 7, 1), (7, 11, 5),
                         (1, 6, 1)])
    with caplog.at_level(logging.WARNING, logger="fgsw.generators"):
        imp = import_dimacs(p)
    assert imp.graph.n == 4
    assert imp.graph.indptr.tolist() == [0, 2, 4, 7, 8]
    assert imp.graph.indices.tolist() == [1, 2, 0, 2, 0, 1, 3, 2]
    assert imp.original_ids.tolist() == [2, 5, 9, 12]
    assert imp.file_nodes == 12 and imp.dropped_nodes == 8
    assert [r.getMessage() for r in caplog.records] == [
        f"{p}: kept largest component (4 nodes), dropped 8"]


def edge_list_import(n_decl, arcs):
    """(graph, original ids, dropped nodes) of a DIMACS import built the
    way import_dimacs once did: the kept component's edges as a list
    through Graph.from_edges."""
    heads = [u - 1 for u, v in arcs if u != v]
    tails = [v - 1 for u, v in arcs if u != v]
    ids, ends = np.unique(np.asarray(heads + tails, dtype=np.int64),
                          return_inverse=True)
    h, t = ends[:len(heads)], ends[len(heads):]
    indptr, indices = _build_csr(ids.size, np.concatenate([h, t]),
                                 np.concatenate([t, h]))
    comp = _components(indptr, indices, ids.size)[1]
    sizes = np.bincount(comp)
    best = comp[np.flatnonzero(sizes[comp] == sizes.max())[0]]
    keep = np.flatnonzero(comp == best)
    dense = np.full(ids.size, -1, dtype=np.int64)
    dense[keep] = np.arange(keep.size)
    u = np.repeat(np.arange(ids.size), np.diff(indptr))
    mask = (u < indices) & (comp[u] == best)
    edges = np.stack([dense[u[mask]], dense[indices[mask]]], axis=1)
    return (Graph.from_edges(int(keep.size), edges), ids[keep] + 1,
            n_decl - keep.size)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_decl=st.integers(2, 30), data=st.data())
def test_dimacs_rows_equal_edge_list_import(tmp_path, n_decl, data):
    # repeated, reverse and self arcs over several components
    node = st.integers(1, n_decl)
    arcs = data.draw(st.lists(st.tuples(node, node), min_size=1,
                              max_size=3 * n_decl))
    arcs += data.draw(st.lists(st.sampled_from(arcs), max_size=5))
    arcs += [(v, u) for u, v in data.draw(st.lists(st.sampled_from(arcs),
                                                   max_size=5))]
    assume(any(u != v for u, v in arcs))
    path = tmp_path / "r.gr"
    write_dimacs(path, n_decl, [(u, v, 1) for u, v in arcs])
    imp = import_dimacs(path)
    graph, original_ids, dropped = edge_list_import(n_decl, arcs)
    for got, want in ((imp.graph.indptr, graph.indptr),
                      (imp.graph.indices, graph.indices),
                      (imp.original_ids, original_ids)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert imp.graph.n == graph.n
    assert imp.graph.lattice_hint == graph.lattice_hint
    assert (imp.dropped_nodes, imp.file_nodes) == (dropped, n_decl)


def test_dimacs_huge_declared_node_count(tmp_path):
    # arrays are sized from the arcs' endpoints, not from `p sp n m`
    p = tmp_path / "t.gr"
    write_dimacs(p, 99999999999, [(1, 99999999999, 1)])
    imp = import_dimacs(p)
    assert imp.graph.n == 2 and imp.graph.m == 1
    assert imp.file_nodes == 99999999999
    assert imp.dropped_nodes == 99999999997
    assert imp.original_ids.tolist() == [1, 99999999999]


def test_dimacs_rejects_missing_problem_line(tmp_path):
    p = tmp_path / "t.gr"
    p.write_text("c nothing else\n")
    with pytest.raises(GraphFormatError, match="missing `p sp`"):
        import_dimacs(p)


def test_dimacs_rejects_arc_before_problem_line(tmp_path):
    p = tmp_path / "t.gr"
    p.write_text("a 1 2 1\np sp 2 1\n")
    with pytest.raises(GraphFormatError, match="arc before problem"):
        import_dimacs(p)


def test_dimacs_rejects_unknown_record(tmp_path):
    p = tmp_path / "t.gr"
    p.write_text("p sp 2 1\nx 1 2\n")
    with pytest.raises(GraphFormatError, match="unknown record"):
        import_dimacs(p)


def test_dimacs_rejects_out_of_range_endpoint(tmp_path):
    p = tmp_path / "t.gr"
    write_dimacs(p, 3, [(1, 4, 1)])
    with pytest.raises(GraphFormatError, match=r"outside \[1, 3\]"):
        import_dimacs(p)


def test_dimacs_rejects_non_integer_endpoint(tmp_path):
    p = tmp_path / "t.gr"
    p.write_text("p sp 3 1\na 1 x 1\n")
    with pytest.raises(GraphFormatError, match="non-integer arc"):
        import_dimacs(p)


@pytest.mark.parametrize("text, line", [
    ("p sp 20 1\na 1_0 2 1\n", 2),
    ("p sp 2_0 1\na 10 2 1\n", 1),
])
def test_dimacs_rejects_digit_group_underscores(tmp_path, text, line):
    # int() reads `1_0` as 10; a DIMACS integer is plain digits
    p = tmp_path / "t.gr"
    p.write_text(text)
    with pytest.raises(GraphFormatError,
                       match=re.escape(f"{p}:{line}: non-integer")):
        import_dimacs(p)


def test_dimacs_rejects_no_arcs(tmp_path):
    p = tmp_path / "t.gr"
    p.write_text("p sp 3 0\n")
    with pytest.raises(GraphFormatError, match="no arcs"):
        import_dimacs(p)


def test_dimacs_import_is_usable_graph(tmp_path):
    p = tmp_path / "t.gr"
    write_dimacs(p, 5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3)])
    g = import_dimacs(p).graph
    assert isinstance(g, Graph)
    assert g.distance_row(0)[4] == 4
