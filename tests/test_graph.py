"""Graph core: CSR construction, BFS metric, balls, shells, packing."""

import numpy as np
import pytest

from fgsw import (Graph, GraphFormatError, ball, ball_profile, bfs,
                  gen_lattice, gen_sierpinski, multi_source_bfs,
                  pack_independent_balls, shell)
from fgsw.rng import substream


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


def random_connected_graph(n, extra_edges, seed):
    """Random tree plus extra random non-parallel edges."""
    stream = substream(seed, 99)
    edges = set()
    for v in range(1, n):
        u = int(stream.integers(0, v))
        edges.add((u, v))
    while len(edges) < n - 1 + extra_edges:
        u, v = (int(x) for x in stream.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


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


# -- distances -------------------------------------------------------------


def test_bfs_path_graph():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert list(bfs(g, 0).dist) == [0, 1, 2]


def test_bfs_source_distance_zero():
    g = random_connected_graph(40, 30, seed=1)
    for u in (0, 7, 39):
        assert bfs(g, u).dist[u] == 0


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
    return Graph(g.n, g.indptr.copy(), g.indices.copy())


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


def test_multi_source_bfs_is_min_over_sources():
    g = random_connected_graph(60, 25, seed=3)
    sources = [4, 17, 58]
    single = np.min([g.distance_row(s) for s in sources], axis=0)
    assert np.array_equal(multi_source_bfs(g, sources), single)


def test_eccentricity_ring():
    assert gen_lattice(1, 8).eccentricity(0) == 4
    assert gen_lattice(2, 4).eccentricity(5) == 4


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
    plain = Graph(lattice.n, lattice.indptr.copy(), lattice.indices.copy())
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


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3\n0 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="header"):
        Graph.load(p)


def test_load_rejects_edge_count_mismatch(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 3\n0 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="promises 3 edges"):
        Graph.load(p)


def test_load_rejects_non_integer_edge(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 2\n0 1\n1 x\n")
    with pytest.raises(GraphFormatError, match="non-integer"):
        Graph.load(p)
