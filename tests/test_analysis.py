"""Analysis statistics: far pairs, ball/shell counts, z, improvement,
fresh contacts, diameter, dimension estimate, clustering-exponent sweep."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgsw import (Graph, HighwayOverlay, OverlayParams, StatReport, ball,
                  ball_highway_stats, build_overlay, estimate_alpha,
                  estimate_diameter, fresh_contact_probability, gen_lattice,
                  gen_sierpinski, highway_distance_stats,
                  improvement_probability, route, sample_far_pairs,
                  shell_highway_stats, sweep_clustering_exponent, z_stats)
from fgsw import graph as graph_module
from fgsw.analysis import (ALPHA_GRID_MAX_POINTS, _augmented_csr,
                           _sample_nodes, sampled_radius)
from fgsw.graph import (BLOCK_CELLS, _adjacency, _bfs, _build_csr,
                        _max_eccentricity)
from test_graph import metric_kinds, on_rows


def all_highway(graph, q=3.0, s=2.0, seed=0):
    return build_overlay(graph, OverlayParams(k=1, q=q, s=s, seed=seed))


def overlay_with(graph, highway_ids, s=1.0):
    flags = np.zeros(graph.n, dtype=bool)
    flags[list(highway_ids)] = True
    return HighwayOverlay(graph, OverlayParams(k=2, q=1, s=s, seed=0),
                          flags, 0)


# -- report container ----------------------------------------------------------


def test_report_csv_golden(tmp_path):
    rep = StatReport(experiment="exp", params={"n": 64, "seed": 3},
                     columns=("a", "b"), rows=[(1, 2.5), (3, 4.0)])
    out = tmp_path / "r.csv"
    rep.write_csv(out)
    assert out.read_bytes() == (b"# experiment=exp\n"
                                b"# version=0.1.0\n"
                                b"# n=64\n"
                                b"# seed=3\n"
                                b"a,b\r\n1,2.5\r\n3,4.0\r\n")


# -- far pairs -------------------------------------------------------------------


def test_sampled_radius_ring():
    assert sampled_radius(gen_lattice(1, 64), seed=3) == 32


def test_far_pairs_meet_distance_threshold():
    g = gen_lattice(1, 64)
    pairs = sample_far_pairs(g, 20, seed=3)
    assert len(pairs) == 20
    for s, t, d in pairs:
        assert s != t
        assert d == g.distance_row(t)[s]
        assert d >= 16  # half the ring radius


def test_far_pairs_same_on_closed_form_and_bfs_metric():
    # the torus reads closed-form pair distances, its copy BFS rows
    lattice = gen_lattice(2, 16)
    plain = on_rows(lattice)
    assert metric_kinds([lattice, plain]) == ["_Lattice", "_Rows"]
    pairs = sample_far_pairs(lattice, 30, seed=4)
    assert pairs == sample_far_pairs(plain, 30, seed=4)
    assert all(type(x) is int for triple in pairs for x in triple)


def test_far_pairs_deterministic():
    g = gen_lattice(2, 8)
    assert sample_far_pairs(g, 10, seed=5) == sample_far_pairs(g, 10, seed=5)
    assert sample_far_pairs(g, 10, seed=5) != sample_far_pairs(g, 10, seed=6)


# -- highway counts in balls -------------------------------------------------------


def test_ball_highway_all_highway_ring():
    # k=1: every node is a highway node, so counts are exact ball sizes
    g = gen_lattice(1, 64)
    rep = ball_highway_stats(g, all_highway(g), c=1.0, samples=10,
                             alpha=1.0, seed=2)
    radius = rep.params["radius"]
    assert radius == math.ceil(math.log(64))  # k = 1, alpha = 1
    for _, r, count, over_scale, _, _ in rep.rows:
        assert r == radius and count == 2 * radius + 1
        assert over_scale == pytest.approx(count / radius)


def test_ball_highway_mean_equals_double_counting_identity():
    # summed over all centers, each highway node is counted |B_r| times
    g = gen_lattice(2, 24)
    ov = build_overlay(g, OverlayParams(k=4, q=1, s=2, seed=6))
    rep = ball_highway_stats(g, ov, c=1.0, samples=g.n, alpha=2.0, seed=2)
    radius = rep.params["radius"]
    ball_size = 2 * radius * radius + 2 * radius + 1
    counts = [row[2] for row in rep.rows]
    assert len(counts) == g.n
    expect = ball_size * int(ov.is_highway.sum()) / g.n
    assert np.mean(counts) == pytest.approx(expect, rel=1e-12)


def test_ball_highway_rejects_radius_beyond_graph():
    g = gen_lattice(1, 64)
    with pytest.raises(ValueError, match="exceeds the graph radius"):
        ball_highway_stats(g, all_highway(g), c=8.0, samples=5,
                           alpha=1.0, seed=2)
    with pytest.raises(ValueError, match="c must be > 0"):
        ball_highway_stats(g, all_highway(g), c=0, samples=5,
                           alpha=1.0, seed=2)


# -- highway counts in shells --------------------------------------------------------


def test_shell_highway_ring_flat():
    # all-highway ring: every width-4 shell holds exactly 8 nodes
    g = gen_lattice(1, 64)
    rep = shell_highway_stats(g, all_highway(g), width=4, b_max=4,
                              samples=12, seed=3)
    for b, mean, std, _, _ in rep.rows:
        assert mean == 8.0 and std == 0.0
    assert abs(rep.params["fit_exponent"]) < 1e-12


def test_shell_highway_2d_exact_counts():
    # width-2 shell b on the torus holds 16b + 12 nodes
    g = gen_lattice(2, 24)
    rep = shell_highway_stats(g, all_highway(g), width=2, b_max=4,
                              samples=6, seed=3)
    assert [row[1] for row in rep.rows] == [28.0, 44.0, 60.0, 76.0]


def test_shell_highway_2d_slope_near_one():
    g = gen_lattice(2, 64)
    rep = shell_highway_stats(g, all_highway(g), width=4, b_max=6,
                              samples=8, seed=3)
    assert 0.7 <= rep.params["fit_exponent"] <= 1.3


def test_shell_highway_3d_slope_near_two():
    # zero-noise at k=1: shell b holds exactly 4(b+1)^2 + 2 nodes, and
    # the b = 4..8 log-log fit of that is 1.6764
    g = gen_lattice(3, 20)
    rep = shell_highway_stats(g, all_highway(g), width=1, b_max=8,
                              samples=20, seed=3, b_min=4)
    assert rep.params["fit_exponent"] == pytest.approx(1.6764, abs=0.001)
    assert 1.6 <= rep.params["fit_exponent"] <= 2.4


def test_shell_highway_guards():
    g = gen_lattice(1, 64)
    ov = all_highway(g)
    with pytest.raises(ValueError, match="width >= 1"):
        shell_highway_stats(g, ov, width=0, b_max=3, samples=5, seed=1)
    with pytest.raises(ValueError, match="b_min <= b_max"):
        shell_highway_stats(g, ov, width=2, b_max=2, samples=5, seed=1,
                            b_min=3)
    with pytest.raises(ValueError, match="outermost shell exceeds"):
        shell_highway_stats(g, ov, width=8, b_max=4, samples=5, seed=1)


def test_shell_highway_zero_mean_is_an_error():
    # a single sampled center sees two highway nodes in at most two of
    # the 21 requested shells; the rest are empty
    g = gen_lattice(1, 32, wrap=False)
    ov = overlay_with(g, [0, 1])
    with pytest.raises(ValueError, match="zero mean"):
        shell_highway_stats(g, ov, width=1, b_max=20, samples=1, seed=1)


# -- z statistics ------------------------------------------------------------------


def test_z_stats_vertex_transitive_ring():
    g = gen_lattice(1, 8)
    ov = all_highway(g, s=1.0)
    rep = z_stats(g, ov)
    (min_z, max_z, mean_z, max_ratio, min_ratio, _, count), = rep.rows
    for value in (min_z, max_z, mean_z):
        assert value == pytest.approx(47 / 12, rel=1e-12)
    assert count == 8
    upper = math.log(8) / 1 + math.log(math.log(8))
    lower = math.log(8) / 1
    assert max_ratio == pytest.approx((47 / 12) / upper)
    assert min_ratio == pytest.approx((47 / 12) / lower)


def test_z_stats_two_highway_path():
    g = gen_lattice(1, 3, wrap=False)
    ov = overlay_with(g, [0, 2], s=1.0)  # d(0,2) = 2, z = 0.5 both
    rep = z_stats(g, ov)
    row = rep.rows[0]
    assert row[0] == row[1] == pytest.approx(0.5)


# -- distance to the highway ---------------------------------------------------------


def test_highway_distance_all_highway():
    g = gen_lattice(1, 32)
    rep = highway_distance_stats(g, all_highway(g), alpha=1.0)
    max_d, mean_d, median_d, over_scale, _, _ = rep.rows[0]
    assert max_d == 0 and mean_d == 0.0 and over_scale == 0.0


def test_highway_distance_two_sources_exact():
    g = gen_lattice(2, 4)
    ov = overlay_with(g, [0, 10])
    rep = highway_distance_stats(g, ov, alpha=2.0)
    max_d, mean_d, _, over_scale, _, _ = rep.rows[0]
    field = np.minimum(g.distance_row(0), g.distance_row(10))
    assert max_d == int(field.max())
    assert mean_d == pytest.approx(field.mean())
    scale = (2 * math.log(16)) ** 0.5
    assert over_scale == pytest.approx(max_d / scale)


# -- improvement probability ------------------------------------------------------------


def test_improvement_rejects_c_at_or_below_one():
    g = gen_lattice(1, 64)
    ov = all_highway(g)
    for c in (1.0, 0.5):
        with pytest.raises(ValueError, match="must be > 1"):
            improvement_probability(g, ov, [c], samples=5, alpha=1.0, seed=1)


def test_improvement_rejects_unreachable_distance():
    # c = 8 wants pairs at distance >= 8 ln 64 = 33.3 > ring radius 32
    g = gen_lattice(1, 64)
    with pytest.raises(ValueError, match="no \\(u, t\\) pair"):
        improvement_probability(g, all_highway(g), [8.0], samples=5,
                                alpha=1.0, seed=1)


def test_improvement_probability_matches_exact_mass():
    # k=1 torus: P(hit) = 1 - (1 - w)^draws with w the exact improving
    # mass; compare the sampled mean with its enumerated expectation
    g = gen_lattice(2, 16)
    ov = all_highway(g, q=3.0, s=2.0)  # 3 draws per probe
    c, m = 2.0, 400
    rep = improvement_probability(g, ov, [c], samples=m, alpha=2.0, seed=9)
    row = rep.rows[0]
    assert row[3] == m  # samples_used

    min_d = c * (1 * math.log(g.n)) ** 0.5
    z = ov.zvalue(0)
    row0 = g.distance_row(0).astype(np.float64)
    probs = []
    for t in range(g.n):
        d = row0[t]
        if t == 0 or d < min_d:
            continue
        in_ball = g.distance_row(t) <= d / c
        in_ball[0] = False  # u itself is not a contact target
        w = float((row0[in_ball] ** -2.0).sum()) / z
        probs.append(1.0 - (1.0 - w) ** 3)
    p_bar = float(np.mean(probs))
    sigma = math.sqrt(p_bar * (1 - p_bar) / m)
    assert abs(row[1] - p_bar) <= 4 * sigma


def test_improvement_normalized_column_identity():
    g = gen_lattice(1, 64)
    ov = all_highway(g, s=1.0)
    rep = improvement_probability(g, ov, [2.0], samples=50, alpha=1.0,
                                  seed=4)
    c, p, normalized, used, _, _ = rep.rows[0]
    z = ov.zvalue(0)  # vertex-transitive: same z everywhere
    assert normalized == pytest.approx(p * (c + 1) ** 1.0 * z, rel=1e-12)


def test_improvement_decreases_with_harder_factor():
    g = gen_lattice(1, 64)
    rep = improvement_probability(g, all_highway(g, s=1.0), [1.01, 2.0, 4.0],
                                  samples=300, alpha=1.0, seed=11)
    ps = [row[1] for row in rep.rows]
    assert ps[0] >= ps[1] >= ps[2]
    assert ps[0] > 0


# -- fresh-contact probability -------------------------------------------------------------


def test_fresh_contact_radius_zero_always_leaves():
    g = gen_lattice(1, 32)
    rep = fresh_contact_probability(g, all_highway(g), radius=0, samples=20,
                                    alpha=1.0, seed=2)
    assert rep.rows[0][1] == 1.0


def test_fresh_contact_monotone_in_radius():
    # same seed means identical draws, so growing the ball can only
    # keep or shrink the escape fraction
    g = gen_lattice(2, 16)
    ov = all_highway(g)
    ps = [fresh_contact_probability(g, ov, radius=r, samples=30,
                                    alpha=2.0, seed=2).rows[0][1]
          for r in (0, 2, 5, 9)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_fresh_contact_matches_exact_mass():
    g = gen_lattice(2, 16)
    ov = all_highway(g, q=3.0, s=2.0)
    radius, m = 4, 200
    rep = fresh_contact_probability(g, ov, radius=radius, samples=m,
                                    alpha=2.0, seed=7)
    row0 = g.distance_row(0).astype(np.float64)
    weights = row0[1:] ** -2.0
    z = weights.sum()
    p_star = float(weights[row0[1:] > radius].sum() / z)
    sigma = math.sqrt(p_star * (1 - p_star) / (m * 3))
    assert abs(rep.rows[0][1] - p_star) <= 4 * sigma
    # normalized column: frac * k * z / ln n with k = 1
    assert rep.rows[0][2] == pytest.approx(
        rep.rows[0][1] * z / math.log(g.n), rel=1e-9)


def test_fresh_contact_guards():
    g = gen_lattice(2, 16)
    ov = all_highway(g)
    with pytest.raises(ValueError, match="above n\\^"):
        fresh_contact_probability(g, ov, radius=13, samples=5, alpha=2.0,
                                  seed=1)  # 256^0.45 = 12.1


# -- diameter -------------------------------------------------------------------------


def test_diameter_exact_rings_and_torus():
    assert estimate_diameter(gen_lattice(1, 9), None).value == 4
    assert estimate_diameter(gen_lattice(1, 8), None).value == 4
    assert estimate_diameter(gen_lattice(1, 9, wrap=False), None).value == 8
    assert estimate_diameter(gen_lattice(2, 4), None).value == 4
    one = Graph.from_edges(1, [])  # no arcs at all
    assert estimate_diameter(one, None).value == 0
    assert estimate_diameter(one, None, mode="sampled").value == 0


def test_diameter_result_fields():
    g = gen_lattice(1, 8)
    res = estimate_diameter(g, None)
    assert res.mode == "exact" and res.sources_evaluated == 8


def test_diameter_augmented_never_exceeds_underlying():
    g = gen_lattice(2, 8)
    ov = build_overlay(g, OverlayParams(k=3, q=2, s=2, seed=4))
    under = estimate_diameter(g, None).value
    aug = estimate_diameter(g, ov).value
    assert aug <= under


def test_diameter_sampled_lower_bounds_exact():
    g = gen_lattice(2, 8)
    ov = build_overlay(g, OverlayParams(k=3, q=2, s=2, seed=4))
    exact = estimate_diameter(g, ov)
    sampled = estimate_diameter(g, ov, mode="sampled", samples=10, seed=1)
    assert sampled.mode == "sampled"
    assert sampled.sources_evaluated == 10
    assert sampled.value <= exact.value
    again = estimate_diameter(g, ov, mode="sampled", samples=10, seed=1)
    assert again.value == sampled.value


@pytest.mark.parametrize("kind", ["eager", "lazy", "loaded"])
def test_augmented_csr_matches_contact_lists(tmp_path, kind):
    # the expected arcs come node by node from a separate eager overlay
    g = gen_lattice(2, 12, wrap=False)
    params = OverlayParams(k=3, q=2, s=2, seed=4)
    ref = build_overlay(g, params)
    # a contact that is also a lattice neighbour is one arc, not two
    rows = [sorted(set(g.neighbors(v).tolist()) | set(
                ref.contacts(v).tolist() if ref.is_highway[v] else []))
            for v in range(g.n)]
    ov = build_overlay(g, params, materialize=kind == "eager")
    if kind == "lazy":  # some rows built, the rest not
        ov.contacts(int(ov.highway_ids[3]))
    elif kind == "loaded":
        ref.save(tmp_path / "o.ov")
        ov = HighwayOverlay.load(g, tmp_path / "o.ov")
    indptr, indices = _augmented_csr(g, ov)
    assert np.any(ov.contact_table == ov.highway_ids[:, None])  # padding
    assert np.array_equal(indptr, np.cumsum([0] + [len(r) for r in rows]))
    assert np.array_equal(indices, [v for r in rows for v in r])
    assert all(np.all(np.diff(indices[indptr[v]:indptr[v + 1]]) > 0)
               for v in range(g.n))


def test_diameter_follows_contact_direction(tmp_path):
    # a 7-node path whose contacts form the one-way cycle 0 -> 6 -> 3 -> 0
    g = gen_lattice(1, 7, wrap=False)
    path = tmp_path / "cycle.ov"
    path.write_text("2 1 1 0 0 7\n"
                    "h 0 z=1 : 6\n"
                    "h 3 z=1 : 0\n"
                    "h 6 z=1 : 3\n")
    ov = HighwayOverlay.load(g, path)
    arcs = {u: [int(v) for v in g.neighbors(u)] for u in range(g.n)}
    for u, v in ((0, 6), (6, 3), (3, 0)):
        arcs[u].append(v)
    both_ways = {u: list(vs) for u, vs in arcs.items()}
    for u, v in ((0, 6), (6, 3), (3, 0)):
        both_ways[v].append(u)

    def oracle_diameter(adj):
        best = 0
        for src in adj:
            dist = {src: 0}
            dq = deque([src])
            while dq:
                u = dq.popleft()
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        dq.append(v)
            assert len(dist) == len(adj)
            best = max(best, max(dist.values()))
        return best

    directed = oracle_diameter(arcs)
    assert oracle_diameter(both_ways) < directed
    assert estimate_diameter(g, ov, mode="exact").value == directed


def random_connected_graph(n, extra, seed):
    """A random spanning tree plus up to ``extra`` random edges."""
    gen = np.random.default_rng(seed)
    edges = {(int(gen.integers(0, i)), i) for i in range(1, n)}
    for u, v in gen.integers(0, n, size=(extra, 2)):
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    return Graph.from_edges(n, sorted(edges))


def bfs_rows_max(indptr, indices, n, sources):
    """Largest eccentricity of ``sources`` read off csgraph rows."""
    return int(_bfs(_adjacency(indptr, indices, n), sources,
                    min_only=False).max())


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 160), extra=st.integers(0, 80),
       one_way=st.integers(0, 80), sources=st.integers(1, 160),
       cells=st.sampled_from([8, 500, BLOCK_CELLS]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_max_eccentricity_matches_bfs_rows(n, extra, one_way, sources, cells,
                                          seed):
    # random one-way arcs on top of a connected graph keep it strongly
    # connected; small budgets force one-word blocks and partial ones
    g = random_connected_graph(n, extra, seed)
    gen = np.random.default_rng(seed + 1)
    heads = np.concatenate([np.repeat(np.arange(n), np.diff(g.indptr)),
                            gen.integers(0, n, one_way)])
    tails = np.concatenate([g.indices, gen.integers(0, n, one_way)])
    loop = heads == tails
    indptr, indices = _build_csr(n, heads[~loop], tails[~loop])
    chosen = np.sort(gen.choice(n, size=min(sources, n), replace=False))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "BLOCK_CELLS", cells)
        got = _max_eccentricity(indptr, indices, n, chosen)
    assert got == bfs_rows_max(indptr, indices, n, chosen)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 200), extra=st.integers(0, 100),
       k=st.floats(1.0, 4.0), q=st.floats(0.5, 3.0), s=st.floats(0.0, 3.0),
       mode=st.sampled_from(["exact", "sampled"]),
       samples=st.integers(1, 150), seed=st.integers(0, 2 ** 16))
def test_diameter_matches_bfs_rows_on_random_augmentations(
        n, extra, k, q, s, mode, samples, seed):
    g = random_connected_graph(n, extra, seed)
    ov = build_overlay(g, OverlayParams(k=k, q=q, s=s, seed=seed))
    res = estimate_diameter(g, ov, mode=mode, samples=samples, seed=seed)
    sources = (np.arange(n) if mode == "exact"
               else _sample_nodes(n, samples, seed, tag=5))
    assert res.sources_evaluated == len(sources)
    assert res.value == bfs_rows_max(*_augmented_csr(g, ov), n, sources)


def test_max_eccentricity_rejects_sources_that_miss_a_node():
    # 1 -> 0 <-> 2: node 1 reaches both, but its in-arc segment is empty
    indptr, indices = _build_csr(3, np.array([1, 0, 2]), np.array([0, 2, 0]))
    assert _max_eccentricity(indptr, indices, 3, np.array([1])) == 2
    for sources in ([0], [2], [0, 2], [0, 1, 2]):
        with pytest.raises(ValueError, match="not strongly connected"):
            _max_eccentricity(indptr, indices, 3, np.array(sources))
    # a two-way ring 0..99, the one-way arc 99 -> 100 and 100 <-> 101:
    # sources 0..63 reach every node, so only the block's second word
    # shows that 100 and 101 do not
    ring = np.arange(100)
    heads = np.concatenate([ring, (ring + 1) % 100, [99, 100, 101]])
    tails = np.concatenate([(ring + 1) % 100, ring, [100, 101, 100]])
    indptr, indices = _build_csr(102, heads, tails)
    assert _max_eccentricity(indptr, indices, 102, np.arange(64)) == 52
    with pytest.raises(ValueError, match="not strongly connected"):
        _max_eccentricity(indptr, indices, 102, np.arange(102))


def test_diameter_guards():
    g = gen_lattice(2, 16)
    with pytest.raises(ValueError, match="mode must be"):
        estimate_diameter(g, None, mode="approx")
    with pytest.raises(ValueError, match="needs n <= 20000"):
        estimate_diameter(gen_lattice(2, 142), None)  # 20,164 nodes
    # built straight from CSR arcs: 0 <-> 1 and 2 <-> 3, never joined
    split = Graph(4, np.array([0, 1, 2, 3, 4]),
                  np.array([1, 0, 3, 2], dtype=np.int32))
    for mode in ("exact", "sampled"):
        with pytest.raises(ValueError, match="not strongly connected"):
            estimate_diameter(split, None, mode=mode)


# -- dimension estimate ----------------------------------------------------------------


def test_estimate_alpha_ring():
    est = estimate_alpha(gen_lattice(1, 1024), samples=200, seed=11)
    assert est.alpha_median == pytest.approx(1.0, abs=1e-9)
    assert est.skipped == []
    assert est.grid == (0.5, 4.0, 0.01)


def test_estimate_alpha_path9_skips_central_nodes():
    # only the two endpoints see 3 usable radii before the half-size cap
    est = estimate_alpha(gen_lattice(1, 9, wrap=False), samples=9, seed=0)
    kept = {p[0]: p for p in est.per_node}
    assert set(kept) == {0, 8}
    for node in (0, 8):
        _, best_alpha, ratio, l_max = kept[node]
        assert best_alpha == pytest.approx(1.0)
        assert ratio == pytest.approx(1.0)
        assert l_max == 3
    assert sorted(est.skipped) == [1, 2, 3, 4, 5, 6, 7]


def test_estimate_alpha_tori_hit_their_dimension():
    # the 2l term of the 2D excess 2l^2 + 2l, and the wrap of the 12^3
    # torus from radius 6 on, each pull a pure l^alpha fit low
    a2 = estimate_alpha(gen_lattice(2, 64), samples=5, seed=11)
    a3 = estimate_alpha(gen_lattice(3, 12), samples=5, seed=11)
    assert a2.alpha_median == pytest.approx(2.0, abs=0.15)
    assert a3.alpha_median == pytest.approx(3.0, abs=0.15)


def test_estimate_alpha_sierpinski_has_no_heavy_tail():
    # a fit whose leading term vanishes at the last fitted radius used to
    # hand gasket nodes exponents up to 3.5
    est = estimate_alpha(gen_sierpinski(8), samples=200, seed=11)
    assert max(p[1] for p in est.per_node) <= 2.5
    assert 1.4 <= est.alpha_median <= 1.8


def test_estimate_alpha_all_skipped_raises():
    with pytest.raises(ValueError, match="no sampled node"):
        estimate_alpha(gen_lattice(1, 7), samples=7, seed=0)


def test_estimate_alpha_rejects_bad_grid():
    g = gen_lattice(1, 64)
    for grid in ((0.0, 4.0, 0.01), (2.0, 1.0, 0.01), (0.5, 4.0, 0.0)):
        with pytest.raises(ValueError, match="bad alpha grid"):
            estimate_alpha(g, samples=5, alpha_grid=grid, seed=0)


def test_estimate_alpha_caps_grid_points():
    g = gen_lattice(1, 64)
    step = 2.0 ** -12  # exact in binary, so the point counts are exact
    top = 0.5 + (ALPHA_GRID_MAX_POINTS - 1) * step
    est = estimate_alpha(g, samples=5, alpha_grid=(0.5, top, step), seed=0)
    assert abs(est.alpha_median - 1.0) < 0.01
    # refused before the grid is built: 1e18 points would not fit in memory
    for grid in ((0.5, top + step, step), (0.5, 1e9, 1e-9),
                 (0.5, math.inf, 0.01)):
        with pytest.raises(ValueError, match="points, more than 10000"):
            estimate_alpha(g, samples=5, alpha_grid=grid, seed=0)


def test_estimate_alpha_deterministic():
    g = gen_sierpinski(6)
    a = estimate_alpha(g, samples=50, seed=3)
    b = estimate_alpha(g, samples=50, seed=3)
    assert a.alpha_median == b.alpha_median
    assert a.per_node == b.per_node


# -- clustering-exponent sweep ------------------------------------------------------------


def test_sweep_single_s_matches_direct_routing():
    g = gen_lattice(2, 16)
    k, q, s, seed, pairs = 3, 2.0, 2.0, 5, 30
    rep = sweep_clustering_exponent(g, k=k, q=q, s_values=[s], pairs=pairs,
                                    seed=seed)
    ov = build_overlay(g, OverlayParams(k=k, q=q, s=s, seed=seed),
                       materialize=False)
    far = sample_far_pairs(g, pairs, seed)
    hops = [route(g, ov, a, b, "highway-sticky").hops for a, b, _ in far]
    assert rep.rows[0][1] == pytest.approx(np.mean(hops))
    assert rep.params["argmin_s"] == s


def test_sweep_argmin_order_invariant():
    g = gen_lattice(2, 8)
    fwd = sweep_clustering_exponent(g, k=2, q=2.0, s_values=[1.0, 2.0, 3.0],
                                    pairs=20, seed=3)
    rev = sweep_clustering_exponent(g, k=2, q=2.0, s_values=[3.0, 2.0, 1.0],
                                    pairs=20, seed=3)
    assert fwd.params["argmin_s"] == rev.params["argmin_s"]
    assert sorted(fwd.rows) == sorted(rev.rows)


def test_sweep_tie_breaks_to_smaller_s():
    g = gen_lattice(2, 8)
    rep = sweep_clustering_exponent(g, k=2, q=2.0, s_values=[3.0, 3.0],
                                    pairs=10, seed=3)
    assert rep.rows[0][1] == rep.rows[1][1]
    assert rep.params["argmin_s"] == 3.0


def test_sweep_rejects_no_pairs():
    with pytest.raises(ValueError, match="at least one pair"):
        sweep_clustering_exponent(gen_lattice(2, 8), k=2, q=2.0,
                                  s_values=[2.0], pairs=0, seed=3)
