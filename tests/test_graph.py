"""Graph core: CSR construction, BFS metric, balls, shells, packing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgsw import (Graph, GraphFormatError, LatticeHint, ball, ball_profile,
                  bfs, gen_lattice, gen_sierpinski, multi_source_bfs,
                  pack_independent_balls, shell)
from fgsw.graph import _bfs, _build_csr, _lattice_coordinates, _lattice_csr
from fgsw.rng import substream

# (dim, side, wrap): every dim at its minimum sides and at larger ones
LATTICES = [(dim, side, wrap)
            for dim, sides in ((1, (3, 2, 17, 16)), (2, (3, 2, 9, 8)),
                               (3, (3, 2, 5, 4)))
            for side, wrap in zip(sides, (True, False, True, False))]


def bfs_oracle(adj, src):
    """Plain dict/deque BFS, independent of the package internals."""
    from collections import deque
    dist = {src: 0}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def to_adj(graph):
    return {u: [int(v) for v in graph.neighbors(u)] for u in range(graph.n)}


def random_connected_edges(n, extra_edges, seed):
    """Sorted edges (u < v) of a random tree plus extra random
    non-parallel edges."""
    stream = substream(seed, 99)
    edges = set()
    for v in range(1, n):
        u = int(stream.integers(0, v))
        edges.add((u, v))
    while len(edges) < n - 1 + extra_edges:
        u, v = (int(x) for x in stream.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def random_connected_graph(n, extra_edges, seed):
    return Graph.from_edges(n, random_connected_edges(n, extra_edges, seed))


# -- construction and validation ------------------------------------------


def test_from_edges_path():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert list(g.neighbors(1)) == [0, 2]
    assert g.degree(0) == 1


def test_from_edges_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="self-loop"):
        Graph.from_edges(3, [(0, 1), (1, 1), (1, 2)])


def test_from_edges_rejects_duplicate_edge():
    # same edge in either orientation is a duplicate
    with pytest.raises(GraphFormatError, match="duplicate"):
        Graph.from_edges(3, [(0, 1), (1, 2), (2, 1)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(GraphFormatError, match="out of range"):
        Graph.from_edges(3, [(0, 1), (1, 3)])


def test_from_edges_rejects_disconnected_and_counts_components():
    with pytest.raises(GraphFormatError, match="2 components"):
        Graph.from_edges(4, [(0, 1), (2, 3)])


def test_neighbors_sorted_ascending():
    g = Graph.from_edges(5, [(4, 0), (0, 2), (1, 0), (0, 3), (1, 2)])
    assert list(g.neighbors(0)) == [1, 2, 3, 4]


@st.composite
def arc_lists(draw):
    """(n, arcs): random directed arcs, some listed again, in any order."""
    n = draw(st.integers(1, 300))
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node), max_size=200))
    if arcs:
        arcs += draw(st.lists(st.sampled_from(arcs), max_size=100))
    return n, draw(st.permutations(arcs))


@settings(max_examples=100, deadline=None)
@given(case=arc_lists())
def test_build_csr_is_the_sorted_arc_set(case):
    n, arcs = case
    heads = np.array([h for h, _ in arcs], dtype=np.int64)
    tails = np.array([t for _, t in arcs], dtype=np.int64)
    indptr, indices = _build_csr(n, heads, tails)
    want = sorted(set(arcs))
    assert indptr.dtype == np.int64 and indices.dtype == np.int32
    assert np.array_equal(indptr, np.searchsorted([h for h, _ in want],
                                                  np.arange(n + 1)))
    assert indices.tolist() == [t for _, t in want]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), extra=st.integers(0, 40),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_from_edges_ignores_order_and_rejects_repeats(n, extra, seed, data):
    edges = random_connected_edges(n, min(extra, (n - 1) * (n - 2) // 2),
                                   seed)
    g = Graph.from_edges(n, edges)
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges),
                               max_size=len(edges)))
    shuffled = data.draw(st.permutations(
        [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]))
    h = Graph.from_edges(n, shuffled)
    assert np.array_equal(g.indptr, h.indptr)
    assert np.array_equal(g.indices, h.indices)
    u, v = data.draw(st.sampled_from(edges))
    again = (v, u) if data.draw(st.booleans()) else (u, v)
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        Graph.from_edges(n, shuffled + [again])


# -- lattice recognition -----------------------------------------------------


def edge_list_lattice(dim, side, wrap):
    """The lattice built from its edge list, independently of _lattice_csr."""
    n = side ** dim
    ids = np.arange(n, dtype=np.int64)
    heads, tails = [], []
    for axis in range(dim):
        stride = side ** (dim - 1 - axis)
        coord = (ids // stride) % side
        fwd = coord < side - 1
        heads.append(ids[fwd])
        tails.append(ids[fwd] + stride)
        if wrap:
            last = coord == side - 1
            heads.append(ids[last])
            tails.append(ids[last] - (side - 1) * stride)
    edges = np.stack([np.concatenate(heads), np.concatenate(tails)], axis=1)
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("dim,side,wrap", LATTICES)
def test_lattice_csr_equals_edge_list_construction(dim, side, wrap):
    ref = edge_list_lattice(dim, side, wrap)
    indptr, indices = _lattice_csr(_lattice_coordinates(dim, side), side,
                                   wrap)
    assert indptr.dtype == ref.indptr.dtype
    assert indices.dtype == ref.indices.dtype
    assert np.array_equal(indptr, ref.indptr)
    assert np.array_equal(indices, ref.indices)
    assert ref.lattice_hint == LatticeHint(dim, side, wrap)


def test_non_lattices_get_no_hint():
    torus = gen_lattice(2, 6)
    edges = [(u, int(v)) for u in range(torus.n) for v in torus.neighbors(u)
             if u < v]
    perm = substream(5, 1).permutation(torus.n)
    # a double edge swap keeps every degree and the arc count
    swapped = ([e for e in edges if e not in ((0, 1), (14, 15))]
               + [(0, 15), (1, 14)])
    # a star has a path's n and arc count, so only the arrays reject it
    star = Graph.from_edges(16, [(0, v) for v in range(1, 16)])
    graphs = [gen_sierpinski(4),
              Graph.from_edges(torus.n, [(perm[u], perm[v]) for u, v in edges]),
              Graph.from_edges(torus.n, edges[1:]),
              Graph.from_edges(torus.n, swapped),
              star]
    assert star.indices.size == 2 * (16 - 1)
    assert [g.lattice_hint for g in graphs] == [None] * len(graphs)


# -- distances -------------------------------------------------------------


def test_bfs_path_graph():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert list(bfs(g, 0)) == [0, 1, 2]


def test_bfs_source_distance_zero():
    g = random_connected_graph(40, 30, seed=1)
    for u in (0, 7, 39):
        assert bfs(g, u)[u] == 0


def test_4x4_wrap_distance_to_opposite_corner():
    g = gen_lattice(2, 4)
    # node (2,2) has id 10; hand BFS gives 4
    assert g.distance_row(0)[10] == 4


def test_distance_row_matches_bfs_oracle_on_random_graphs():
    for seed in range(6):
        g = random_connected_graph(50, 40, seed=seed)
        adj = to_adj(g)
        for src in (0, 13, 49):
            expect = bfs_oracle(adj, src)
            got = g.distance_row(src)
            assert all(got[v] == d for v, d in expect.items())


def test_lattice_closed_form_equals_bfs():
    # the coordinate shortcut must agree with BFS over the actual edges
    for dim, side in ((1, 9), (2, 7), (3, 5)):
        for wrap in (True, False):
            g = gen_lattice(dim, side, wrap=wrap)
            adj = to_adj(g)
            for src in (0, g.n // 2, g.n - 1):
                expect = bfs_oracle(adj, src)
                got = g.distance_row(src)
                assert all(got[v] == d for v, d in expect.items()), (
                    dim, side, wrap, src)


def without_hint(g):
    # a copy recognises its own lattice; drop the hint to force BFS rows
    plain = Graph(g.n, g.indptr.copy(), g.indices.copy())
    plain.lattice_hint = None
    return plain


def test_subset_and_pair_distances_match_rows():
    lattices = [gen_lattice(1, 64), gen_lattice(2, 12),
                gen_lattice(2, 10, wrap=False), gen_lattice(3, 6)]
    graphs = (lattices + [without_hint(g) for g in lattices]
              + [gen_sierpinski(4)])
    assert [g.lattice_hint is None for g in graphs] == [False] * 4 + [True] * 5
    for g in graphs:
        stream = substream(17, g.n)
        for u in (0, g.n // 3, g.n - 1):
            row = g.distance_row(u)
            targets = np.union1d(
                stream.choice(g.n, size=g.n // 4, replace=False), [u]
            ).astype(np.int32)
            got = g.distances(u, targets)
            assert got.dtype == np.int32
            assert np.array_equal(got, row[targets])
            assert got[np.searchsorted(targets, u)] == 0
            # any order, repeats allowed
            shuffled = stream.permutation(np.concatenate([targets, targets]))
            assert np.array_equal(g.distances(u, shuffled), row[shuffled])
            empty = g.distances(u, np.array([], dtype=np.int32))
            assert empty.dtype == np.int32 and empty.size == 0
            for v in range(g.n):
                d = g.distance(v, u)
                assert type(d) is int and d == row[v]
            assert g.distance(np.int32(u), np.int64(0)) == row[0]


def test_block_lookup_matches_rows():
    lattices = [gen_lattice(1, 64), gen_lattice(2, 10, wrap=False),
                gen_lattice(3, 6)]
    for g in lattices + [without_hint(g) for g in lattices] \
            + [gen_sierpinski(4)]:
        stream = substream(19, g.n)
        targets = stream.integers(0, g.n, size=7)
        rows = np.stack([g.distance_row(int(t)) for t in targets])
        lookup = g.distances_to(targets)
        which = stream.integers(0, targets.size, size=(40, 1))
        nodes = stream.integers(0, g.n, size=(40, 5))
        got = lookup(which, nodes)
        assert got.dtype == np.int32
        assert np.array_equal(got, rows[which, nodes])
        assert np.array_equal(lookup(np.arange(7), targets), np.zeros(7))


def test_multi_source_bfs_is_min_over_sources():
    g = random_connected_graph(60, 25, seed=3)
    sources = [4, 17, 58]
    single = np.min([g.distance_row(s) for s in sources], axis=0)
    assert np.array_equal(multi_source_bfs(g, sources), single)


@pytest.mark.parametrize("g", [gen_lattice(2, 8), gen_sierpinski(3)],
                         ids=["lattice", "gasket"])
def test_node_ids_out_of_range_raise(g):
    # a wrapped id would read another node's distances without a word
    for bad in (-1, g.n):
        calls = [lambda: g.distance_row(bad),
                 lambda: g.distances(bad, np.arange(3)),
                 lambda: g.distance(bad, 0), lambda: g.distance(0, bad),
                 lambda: g.eccentricity(bad), lambda: bfs(g, bad),
                 lambda: ball(g, bad, 1), lambda: shell(g, bad, 1, 0)]
        for call in calls:
            with pytest.raises(ValueError, match=f"node {bad} out of range"):
                call()
    with pytest.raises(ValueError, match="node 1000000000 out of range"):
        g.eccentricity(10 ** 9)


def test_eccentricity_ring():
    assert gen_lattice(1, 8).eccentricity(0) == 4
    assert gen_lattice(2, 4).eccentricity(5) == 4


@pytest.mark.parametrize("dim, side, wrap", LATTICES)
def test_lattice_eccentricity_closed_form_equals_rows(dim, side, wrap):
    g = gen_lattice(dim, side, wrap=wrap)
    assert g.lattice_hint == LatticeHint(dim, side, wrap)
    plain = without_hint(g)
    for u in sorted({0, 1, g.n // 3, g.n // 2, g.n - 2, g.n - 1}):
        want = int(plain.distance_row(u).max())
        assert g.eccentricity(u) == want == int(g.distance_row(u).max())


@pytest.mark.parametrize("dim,side,wrap", LATTICES)
def test_helpers_equal_on_lattice_and_its_bfs_copy(dim, side, wrap):
    # the helpers threshold distance_row: closed form here, BFS rows there
    g = gen_lattice(dim, side, wrap=wrap)
    plain = without_hint(g)
    for u in sorted({0, g.n // 3, g.n - 1}):
        assert np.array_equal(bfs(g, u), bfs(plain, u))
        for radius in range(4):
            assert np.array_equal(ball(g, u, radius), ball(plain, u, radius))
            assert np.array_equal(shell(g, u, 2, radius),
                                  shell(plain, u, 2, radius))
    for radius in range(3):
        assert np.array_equal(pack_independent_balls(g, radius),
                              pack_independent_balls(plain, radius))


@st.composite
def relabelled_lattices(draw):
    """(dim, side, wrap, new id of each old id, whether that is a
    symmetry of the lattice)."""
    dim, side, wrap = draw(st.sampled_from(LATTICES))
    n = side ** dim
    if draw(st.booleans()):  # any relabelling of the ids
        return (dim, side, wrap,
                np.array(draw(st.permutations(range(n)))), False)
    # a symmetry: permute the axes, reflect some, translate a torus
    axes = draw(st.permutations(range(dim)))
    flips = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    shifts = draw(st.lists(st.integers(0, side - 1), min_size=dim,
                           max_size=dim)) if wrap else [0] * dim
    coords = _lattice_coordinates(dim, side).astype(np.int64)[list(axes)]
    coords = np.where(np.array(flips)[:, None], side - 1 - coords, coords)
    coords = (coords + np.array(shifts)[:, None]) % side
    perm = np.zeros(n, dtype=np.int64)
    for axis in range(dim):
        perm = perm * side + coords[axis]
    return dim, side, wrap, perm, True


@settings(max_examples=60, deadline=None)
@given(case=relabelled_lattices())
def test_relabelled_lattice_rows_equal_bfs_rows(case):
    dim, side, wrap, perm, symmetry = case
    g = gen_lattice(dim, side, wrap=wrap)
    edges = [(u, int(v)) for u in range(g.n) for v in g.neighbors(u) if u < v]
    copy = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in edges])
    if symmetry:  # a symmetry maps the CSR arrays onto themselves
        assert copy.lattice_hint == g.lattice_hint
    if copy.lattice_hint is not None:
        for u in range(copy.n):
            bfs_row = _bfs(copy.indptr, copy.indices, copy.n, (u,))
            assert np.array_equal(copy.distance_row(u), bfs_row)
    for u in sorted({0, g.n // 2, g.n - 1}):
        assert np.array_equal(copy.distance_row(perm[u])[perm],
                              g.distance_row(u))


# -- balls ------------------------------------------------------------------


def test_ball_radius_zero_is_center():
    g = gen_lattice(2, 5)
    assert list(ball(g, 7, 0)) == [7]


def test_ball_radius_one_2d():
    g = gen_lattice(2, 5)
    assert len(ball(g, 12, 1)) == 5  # center + 4 lattice neighbors


def test_ball_closed_form_2d():
    g = gen_lattice(2, 24)
    for radius in range(1, 11):
        assert len(ball(g, 0, radius)) == 2 * radius * radius + 2 * radius + 1


def test_ball_profile_matches_ball_sizes():
    # the hinted lattice takes the closed-form row, its copy the BFS row
    lattice = gen_lattice(2, 9)
    plain = without_hint(lattice)
    assert lattice.lattice_hint is not None and plain.lattice_hint is None
    for g in (random_connected_graph(45, 30, seed=5), lattice, plain):
        prof = ball_profile(g, 9)
        for radius in range(len(prof)):
            assert prof[radius] == len(ball(g, 9, radius))
        assert prof[-1] == g.n
    for size_stop in (None, 1, 20, 41):
        assert np.array_equal(ball_profile(lattice, 9, size_stop=size_stop),
                              ball_profile(plain, 9, size_stop=size_stop))


def test_ball_profile_size_stop_overshoots_once():
    g = gen_lattice(1, 100)
    prof = ball_profile(g, 0, size_stop=21)
    assert prof[-1] >= 21 and prof[-2] < 21


# -- shells ------------------------------------------------------------------


def test_shell_b0_w1_is_distance_one():
    g = gen_lattice(2, 6)
    assert np.array_equal(shell(g, 0, 1, 0), np.sort(g.neighbors(0)))


def test_shells_telescope_to_ball():
    g = random_connected_graph(70, 40, seed=2)
    width, outer_index = 2, 3
    union = {11}
    for b in range(outer_index + 1):
        union.update(int(v) for v in shell(g, 11, width, b))
    assert union == set(int(v) for v in ball(g, 11, (outer_index + 1) * width))


def test_shell_2d_w2_b1():
    g = gen_lattice(2, 24)
    members = shell(g, 0, 2, 1)
    assert len(members) == 28  # 4*3 at distance 3 plus 4*4 at distance 4
    d = g.distance_row(0)[members]
    assert set(d.tolist()) == {3, 4}


# -- packing ---------------------------------------------------------------


def test_pack_whole_graph_single_center():
    g = gen_lattice(2, 4)
    assert list(pack_independent_balls(g, 4)) == [0]  # 4 >= diameter


def test_pack_path9():
    g = gen_lattice(1, 9, wrap=False)
    assert list(pack_independent_balls(g, 1)) == [0, 3, 6]


def test_pack_balls_disjoint_and_covering():
    g = random_connected_graph(80, 50, seed=8)
    radius = 2
    centers = pack_independent_balls(g, radius)
    rows = [g.distance_row(int(c)) for c in centers]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            assert rows[i][centers[j]] > 2 * radius
    assert np.all(np.min(rows, axis=0) <= 2 * radius)


def test_pack_count_band_side64():
    g = gen_lattice(2, 64)
    count = len(pack_independent_balls(g, 4))
    assert 0.2 * g.n / 16 <= count <= 5 * g.n / 16


# -- text format -------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    g = random_connected_graph(30, 20, seed=4)
    p1 = tmp_path / "g.txt"
    p2 = tmp_path / "g2.txt"
    g.save(p1)
    g2 = Graph.load(p1)
    g2.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert g2.n == g.n and g2.m == g.m


@pytest.mark.parametrize("dim,side,wrap", LATTICES)
def test_saved_lattice_loads_with_its_hint(tmp_path, dim, side, wrap):
    g = gen_lattice(dim, side, wrap=wrap)
    path = tmp_path / "lattice.txt"
    g.save(path)
    loaded = Graph.load(path)
    assert g.lattice_hint == LatticeHint(dim, side, wrap)
    assert loaded.lattice_hint == g.lattice_hint


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    # m < n - 1 cannot describe a connected graph; rejected before any
    # array of n cells is built
    for text, msg in (("3\n0 1\n1 2\n", "header"),
                      ("99999999999 1\n0 1\n", "cannot connect 99999999999")):
        p.write_text(text)
        with pytest.raises(GraphFormatError, match=msg):
            Graph.load(p)


def test_load_rejects_edge_count_mismatch(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 3\n0 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="promises 3 edges"):
        Graph.load(p)


def test_load_rejects_non_integer_edge(tmp_path):
    p = tmp_path / "bad.txt"
    for text in ("3 2\n0 1\n1 x\n", "3 2\n0 1\n1 9223372036854775808\n"):
        p.write_text(text)
        with pytest.raises(GraphFormatError, match="non-integer"):
            Graph.load(p)
