"""Greedy routing: variants, invariants, batch determinism, trace CSV."""

from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgsw import (HighwayOverlay, OverlayError, OverlayParams, RoutingError,
                  RoutingTrace, build_overlay, gen_lattice, gen_sierpinski,
                  route, route_batch, validate_trace, write_trace_csv)
from fgsw.graph import BLOCK_CELLS, Graph
from fgsw.overlay import MAX_DRAWS_PER_NODE
from fgsw.rng import substream
from test_graph import metric_kinds, permuted, random_connected_graph

VARIANTS = ("plain", "highway-sticky", "highway-aware")


def overlay_with(graph, highway_ids, seed=0):
    """Overlay with a hand-picked highway set (contacts still sampled)."""
    flags = np.zeros(graph.n, dtype=bool)
    flags[list(highway_ids)] = True
    return HighwayOverlay(graph, OverlayParams(k=2, q=1, s=1, seed=seed),
                          flags, 0)


def random_pairs(n, count, seed):
    stream = substream(seed, 7)
    pairs = []
    while len(pairs) < count:
        s, t = (int(x) for x in stream.integers(0, n, size=2))
        if s != t:
            pairs.append((s, t))
    return pairs


# -- single-walk behavior -----------------------------------------------------


def test_source_equals_target_zero_hops():
    g = gen_lattice(1, 8)
    ov = overlay_with(g, [0, 4])
    for variant in VARIANTS:
        tr = route(g, ov, 3, 3, variant)
        assert tr.hops == 0 and tr.path == [3] and tr.dist_st == 0


def test_plain_pure_local_when_highway_is_elsewhere():
    # highway nodes on the far side never help a 0 -> 8 walk
    g = gen_lattice(1, 32)
    ov = overlay_with(g, [16, 17])
    tr = route(g, ov, 0, 8, "plain")
    assert tr.path == list(range(9))
    assert tr.hops == 8 == tr.dist_st
    assert all(k == "local" for k in tr.edge_kinds)
    # a walk that never stands on a highway node: every hop to-highway
    assert tr.hops_to_highway == 8 and tr.phases == ["to-highway"] * 8
    validate_trace(g, ov, tr)
    # one whose first highway node is its target: the same
    tr = route(g, ov, 0, 16, "plain")
    assert tr.path == list(range(17))
    assert tr.hops_to_highway == 16 and tr.phases == ["to-highway"] * 16
    validate_trace(g, ov, tr)


def test_plain_takes_strictly_better_contact():
    g = gen_lattice(1, 32)
    ov = overlay_with(g, [0, 16])
    assert list(ov.contacts(0)) == [16]
    tr = route(g, ov, 0, 15, "plain")
    assert tr.path == [0, 16, 15]
    assert tr.edge_kinds == ["long-range", "local"]


def test_plain_tie_prefers_lower_id():
    # local neighbor 1 and contact 3 both sit at distance 1 from target 2
    g = gen_lattice(1, 32)
    ov = overlay_with(g, [0, 3])
    tr = route(g, ov, 0, 2, "plain")
    assert tr.path == [0, 1, 2]


def test_contact_that_is_also_best_neighbor():
    # node 0's only contact, 1, is also its best neighbor toward 5: plain
    # records the hop as local, sticky and aware as long-range
    g = gen_lattice(1, 32)
    ov = overlay_with(g, [0, 1])
    assert list(ov.contacts(0)) == [1]
    tr = route(g, ov, 0, 5, "plain")
    assert (tr.path[1], tr.edge_kinds[0], tr.phases[0]) \
        == (1, "local", "to-target")
    for variant in ("highway-sticky", "highway-aware"):
        tr = route(g, ov, 0, 5, variant)
        assert (tr.path[1], tr.edge_kinds[0], tr.phases[0]) \
            == (1, "long-range", "on-highway")


def test_sticky_takes_improving_contact_over_tied_neighbor():
    # contact 3 and the lower-id neighbor 1 both sit at distance 1 from
    # target 2: plain takes node 1 (test above), sticky and aware the contact
    g = gen_lattice(1, 32)
    ov = overlay_with(g, [0, 3])
    assert list(ov.contacts(0)) == [3]
    for variant in ("highway-sticky", "highway-aware"):
        tr = route(g, ov, 0, 2, variant)
        assert tr.path == [0, 3, 2]
        assert tr.edge_kinds == ["long-range", "local"]


def test_sticky_three_phases_on_ring():
    g = gen_lattice(1, 32)
    ov = overlay_with(g, [0, 16])
    tr = route(g, ov, 1, 17, "highway-sticky")
    assert tr.path == [1, 0, 16, 17]
    assert tr.edge_kinds == ["local", "long-range", "local"]
    assert tr.phases == ["to-highway", "on-highway", "to-target"]
    assert (tr.hops_to_highway, tr.hops_on_highway, tr.hops_to_target) \
        == (1, 1, 1)


def test_sticky_local_step_boards_highway_when_it_can():
    # on the 8x8 torus, neighbors 1 and 8 of node 0 both improve toward
    # target 18; only 8 is a highway node
    g = gen_lattice(2, 8)
    ov = overlay_with(g, [8, 63])
    for variant in ("highway-sticky", "highway-aware"):
        tr = route(g, ov, 0, 18, variant)
        assert tr.path[1] == 8
        assert (tr.edge_kinds[0], tr.phases[0]) == ("local", "to-highway")
        assert tr.hops == tr.dist_st == 4
    assert route(g, ov, 0, 18, "plain").path[1] == 1


def test_aware_pointer_phase_may_move_away_from_target():
    # target is left of the source, the only highway nodes are right
    g = gen_lattice(1, 7, wrap=False)
    ov = overlay_with(g, [5, 6])
    tr = route(g, ov, 2, 0, "highway-aware")
    assert tr.path == [2, 3, 4, 5, 4, 3, 2, 1, 0]
    assert tr.hops == 8 > tr.dist_st == 2
    assert tr.phases[:3] == ["to-highway"] * 3
    assert tr.phases[3:] == ["to-target"] * 5
    # sticky never detours: greedy-local reaches the target first
    st = route(g, ov, 2, 0, "highway-sticky")
    assert st.path == [2, 1, 0]


def test_route_rejects_bad_arguments():
    g = gen_lattice(1, 8)
    ov = overlay_with(g, [0, 4])
    with pytest.raises(ValueError, match="unknown variant"):
        route(g, ov, 0, 1, "fastest")
    with pytest.raises(ValueError, match="out of range"):
        route(g, ov, 0, 8)
    with pytest.raises(ValueError, match="out of range"):
        route(g, ov, -1, 3)
    # the variant first, then the source, then the target; an integer
    # beyond int64 is out of range like any other, a float or a string
    # is no node id
    for source, target, variant, error, match in (
            (2.5, 2 ** 70, "warp", ValueError, "^unknown variant"),
            (2.5, 2 ** 70, "plain", TypeError, "float"),
            (2 ** 70, 2.5, "plain", ValueError, f"^node {2 ** 70} out"),
            (2 ** 64 - 1, "7", "plain", ValueError, f"^node {2 ** 64 - 1} "),
            (1, 2 ** 64 - 3, "plain", ValueError, f"^node {2 ** 64 - 3} "),
            (1, 2 ** 63, "plain", ValueError, f"^node {2 ** 63} "),
            (-2 ** 63 - 1, 1, "plain", ValueError, f"^node {-2 ** 63 - 1} "),
            (1, "7", "plain", TypeError, "str"),
            (1, 9.0, "plain", TypeError, "float")):
        with pytest.raises(error, match=match):
            route(g, ov, source, target, variant)


def test_node_ids_must_be_integers():
    # a float id used to be truncated to another node or to fail deep
    # inside numpy
    g = gen_lattice(2, 8)
    ov = build_overlay(g, OverlayParams(k=3, q=2, s=2, seed=1))
    h = int(ov.highway_ids[0])
    calls = [lambda: g.distance(2.5, 0), lambda: g.distance_row(2.7),
             lambda: route(g, ov, 2.5, 9), lambda: route(g, ov, 2, 9.0),
             lambda: ov.contacts(float(h)),
             lambda: ov.contact_rows(np.array([float(h)])),
             lambda: route_batch(g, ov, [(2.5, 9.9)]),
             lambda: route_batch(g, ov, [(2, 9), (3, 4.0)]),
             lambda: route_batch(g, ov, [(2, "9")]),
             lambda: route_batch(g, ov, np.array([["2", "9"]])),
             lambda: route(g, ov, "2", 9)]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    # numpy integers pass, and an empty batch is still empty
    assert g.distance(np.int64(2), np.int32(0)) == 2
    assert route(g, ov, np.int64(2), np.uint8(9)) == route(g, ov, 2, 9)
    assert route_batch(g, ov, np.array([[2, 9]], dtype=np.uint16)) == \
        [route(g, ov, 2, 9)]
    # numpy holds int64 beside uint64 as float64, yet both are integers
    assert route(g, ov, np.int64(2), np.uint64(9)) == route(g, ov, 2, 9)
    assert route_batch(g, ov, [(np.uint64(2), np.int64(9))]) == \
        [route(g, ov, 2, 9)]
    assert route_batch(g, ov, []) == []


# -- invariants over randomized instances --------------------------------------


def instance_pool():
    graphs = [gen_lattice(1, 64), gen_lattice(2, 8),
              gen_lattice(2, 7, wrap=False), gen_sierpinski(4)]
    for g in graphs:
        for seed in (1, 2):
            yield g, build_overlay(g, OverlayParams(k=3, q=2, s=2, seed=seed))


def test_invariants_across_variants():
    for g, ov in instance_pool():
        for s, t in random_pairs(g.n, 15, seed=g.n):
            dist_t = g.distance_row(t)
            for variant in VARIANTS:
                tr = route(g, ov, s, t, variant)
                assert tr.path[-1] == t
                assert tr.dist_st == dist_t[s]
                validate_trace(g, ov, tr)
                assert (tr.hops_to_highway + tr.hops_on_highway
                        + tr.hops_to_target) == tr.hops
                if variant != "highway-aware":
                    # every hop strictly decreases distance to target
                    d = dist_t[tr.path]
                    assert np.all(np.diff(d) < 0) or tr.hops == 0
                    assert tr.hops <= tr.dist_st


def test_aware_detour_bounded_by_highway_distance():
    for g, ov in instance_pool():
        hw_dist, _ = ov.nearest_highway()
        for s, t in random_pairs(g.n, 10, seed=g.n + 1):
            tr = route(g, ov, s, t, "highway-aware")
            assert tr.hops_to_highway <= hw_dist[s]
            assert tr.path[-1] == t


# -- validate_trace -------------------------------------------------------------


def test_validate_rejects_tampered_traces():
    g = gen_lattice(1, 32)
    ov = overlay_with(g, [0, 16])
    tr = route(g, ov, 1, 17, "highway-sticky")

    bad = route(g, ov, 1, 17, "highway-sticky")
    bad.path[1] = 5  # 1 -> 5 is not an edge
    with pytest.raises(RoutingError, match="not a local edge"):
        validate_trace(g, ov, bad)

    bad = route(g, ov, 1, 17, "highway-sticky")
    bad.edge_kinds[0] = "long-range"  # node 1 is not even a highway node
    with pytest.raises(RoutingError, match="not a contact"):
        validate_trace(g, ov, bad)

    bad = route(g, ov, 1, 17, "highway-sticky")
    bad.edge_kinds[1] = "bogus"  # phases would read it as local
    with pytest.raises(RoutingError, match="has kind 'bogus'"):
        validate_trace(g, ov, bad)

    bad = route(g, ov, 1, 17, "highway-sticky")
    bad.source = 2
    with pytest.raises(RoutingError, match="endpoints"):
        validate_trace(g, ov, bad)

    bad = route(g, ov, 1, 17, "highway-sticky")
    bad.edge_kinds.append("local")
    with pytest.raises(RoutingError, match="out of sync"):
        validate_trace(g, ov, bad)

    assert tr.hops_to_highway == 1  # the walk boards at node 0
    for hops in (0, 2, 3):
        bad = route(g, ov, 1, 17, "highway-sticky")
        bad.hops_to_highway = hops
        with pytest.raises(RoutingError,
                           match=f"hops_to_highway={hops}, .* after 1$"):
            validate_trace(g, ov, bad)

    validate_trace(g, ov, tr)  # untouched trace still validates


# -- batches ---------------------------------------------------------------------


def test_route_batch_empty():
    g = gen_lattice(1, 8)
    ov = overlay_with(g, [0, 4])
    assert route_batch(g, ov, []) == []


def test_route_batch_keeps_order_and_duplicates():
    g = gen_lattice(2, 8)
    ov = build_overlay(g, OverlayParams(k=3, q=2, s=2, seed=4))
    pairs = [(0, 9), (5, 40), (0, 9)]
    traces = route_batch(g, ov, pairs, "plain")
    assert [(t.source, t.target) for t in traces] == pairs
    assert traces[0].path == traces[2].path


def test_route_batch_rejects_bad_arguments():
    g = gen_lattice(1, 8)
    ov = overlay_with(g, [0, 4])
    with pytest.raises(ValueError, match="unknown variant"):
        route_batch(g, ov, [(0, 1)], variant="warp")
    # the first bad node in pair order, as route would meet it
    for pairs, bad in (([(0, 1), (2, 8), (9, 3)], 8),
                       ([(0, 1), (-1, 9)], -1), ([(3, 3), (5, 12)], 12)):
        with pytest.raises(ValueError, match=f"^node {bad} out of range$"):
            route_batch(g, ov, pairs)
    # integers beyond int64, or numpy's uint64, quote the id as written
    for pairs, bad in (([(1, 2), (1, 2 ** 64 - 3)], 2 ** 64 - 3),
                       ([(2 ** 70, 1)], 2 ** 70),
                       ([(0, 1), (3, 2 ** 63), (2 ** 70, 1)], 2 ** 63),
                       (np.array([[1, 2 ** 64 - 1]], dtype=np.uint64),
                        2 ** 64 - 1)):
        with pytest.raises(ValueError, match=f"^node {bad} out of range$"):
            route_batch(g, ov, pairs)
    # ids are never regrouped into pairs
    for pairs in (np.array([[1, 2, 3], [4, 5, 6]]), [1, 2, 3, 4]):
        with pytest.raises(ValueError, match=r"shaped \(m, 2\)"):
            route_batch(g, ov, pairs)


def test_route_batch_builds_the_neighbour_table_once_per_graph(monkeypatch):
    builds = []
    build = Graph._neighbour_table.func
    table = cached_property(lambda g: builds.append(g) or build(g))
    table.__set_name__(Graph, "_neighbour_table")
    monkeypatch.setattr(Graph, "_neighbour_table", table)
    graphs = [gen_lattice(2, 8), gen_sierpinski(4)]  # regular and not
    for i, g in enumerate(graphs):
        ov = build_overlay(g, OverlayParams(k=3, q=2, s=2, seed=1))
        for variant in VARIANTS:
            route_batch(g, ov, [(0, 9), (5, 1)], variant)
            route(g, ov, 3, 7, variant)
        assert builds == graphs[:i + 1]
    torus, gasket = graphs
    # a regular graph's table is its CSR indices; an irregular one pads
    # each row with its own node
    assert np.shares_memory(torus._neighbour_table, torus.indices)
    for u, row in enumerate(gasket._neighbour_table):
        nbrs = gasket.neighbors(u)
        assert list(row) == list(nbrs) + [u] * (row.size - nbrs.size)


def reference_phases(ov, tr):
    """Each hop's phase by the per-hop rule: a long-range hop is
    on-highway; a local hop is to-target once any node up to and
    including its start is a highway node, to-highway before."""
    phases, seen = [], False
    for a, kind in zip(tr.path, tr.edge_kinds):
        seen = seen or bool(ov.is_highway[a])
        phases.append("on-highway" if kind == "long-range"
                      else "to-target" if seen else "to-highway")
    return phases


def reference_route(g, ov, s, t, variant):
    """The routing module's three variants, one node at a time over
    ``distance_row(t)`` and ``contacts(u)``: the oracle for the lockstep.

    Plain takes the improving neighbor or contact closest to t (lowest
    id on ties; a node that is both is a local move). Sticky takes the
    closest improving contact of a highway node, else the closest
    improving highway neighbor, else the closest improving neighbor.
    Aware first follows nearest-highway pointers, then walks as sticky.
    """
    dist = g.distance_row(t)
    path, kinds = [s], []

    def closest(nodes):
        return min(nodes, key=lambda v: (dist[v], v))

    if variant == "highway-aware":
        _, next_hop = ov.nearest_highway()
        while path[-1] != t and not ov.is_highway[path[-1]]:
            path.append(int(next_hop[path[-1]]))
            kinds.append("local")
    while path[-1] != t:
        u = path[-1]
        nbrs = [int(v) for v in g.neighbors(u) if dist[v] < dist[u]]
        contacts = [int(v) for v in ov.contacts(u) if dist[v] < dist[u]] \
            if ov.is_highway[u] else []
        if variant == "plain":
            v = closest(nbrs + contacts)
            kind = "local" if v in nbrs else "long-range"
        elif contacts:
            v, kind = closest(contacts), "long-range"
        else:
            onto = [v for v in nbrs if ov.is_highway[v]]
            v, kind = closest(onto or nbrs), "local"
        path.append(v)
        kinds.append(kind)
    flags = [bool(ov.is_highway[v]) for v in path[:-1]] + [True]
    return RoutingTrace(source=s, target=t, variant=variant, path=path,
                        edge_kinds=kinds, hops_to_highway=flags.index(True),
                        dist_st=int(dist[s]))


def scalar_traces(g, ov, pairs, variant):
    return [reference_route(g, ov, s, t, variant) for s, t in pairs]


def test_route_batch_equals_route_trace_by_trace():
    # criterion 10's graph pool; lazy overlays are built twice so that
    # batch and reference each materialize their own contacts; a pair
    # routed alone gives its trace in the batch
    graphs = [gen_lattice(1, 64), gen_lattice(1, 128), gen_lattice(2, 8),
              gen_lattice(2, 12), gen_lattice(2, 16),
              gen_lattice(2, 10, wrap=False), gen_sierpinski(4),
              gen_sierpinski(5)]
    for g in graphs:
        pairs = random_pairs(g.n, 60, seed=g.n) + [(5, 5), (0, 1), (0, 1)]
        for seed, eager in ((0, True), (1, False)):
            params = OverlayParams(k=3, q=2, s=2, seed=seed)
            for variant in VARIANTS:
                got = route_batch(g, build_overlay(g, params, eager), pairs,
                                  variant)
                ov = build_overlay(g, params, eager)
                want = scalar_traces(g, ov, pairs, variant)
                assert got == want, (g.n, seed, eager, variant)
                assert [route(g, ov, s, t, variant) for s, t in pairs[:3]] \
                    == want[:3]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 60), extra=st.integers(0, 40),
       k=st.floats(1, 4), q=st.floats(0.5, 3), s=st.floats(0, 3),
       seed=st.integers(0, 2 ** 32 - 1),
       ends=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)),
                     min_size=1, max_size=12))
def test_routing_invariants_on_random_graphs(n, extra, k, q, s, seed, ends):
    # random connected graphs, mostly irregular; with k <= n / 3 three
    # highway nodes are expected, so 16 membership epochs all but
    # never come up short
    g = random_connected_graph(n, min(extra, (n - 1) * (n - 2) // 2), seed)
    params = OverlayParams(k=min(k, max(1.0, n / 3)), q=q, s=s, seed=seed)
    pairs = [(a % n, b % n) for a, b in ends] + [(ends[0][0] % n,) * 2]
    for variant in VARIANTS:
        # each side builds its own lazy overlay and so its own contacts
        got = route_batch(g, build_overlay(g, params, False), pairs, variant)
        ov = build_overlay(g, params, False)
        assert got == scalar_traces(g, ov, pairs, variant), variant
        for tr in got:
            validate_trace(g, ov, tr)
            assert tr.phases == reference_phases(ov, tr)
            if variant == "highway-aware":
                assert tr.hops_to_highway <= ov.nearest_highway()[0][tr.source]
            else:
                assert np.all(np.diff(g.distance_row(tr.target)[tr.path]) < 0)


def test_route_batch_spans_blocks_without_hint():
    # the relabelled gasket's rows hold n cells per target, so its walks
    # go in blocks of at most BLOCK_CELLS // n; the gasket's closed form
    # routes them all in one
    gasket = gen_sierpinski(7)
    relabelled = permuted(gasket, 4)
    assert metric_kinds([gasket, relabelled]) == ["_Gasket", "_Rows"]
    assert 150 > 2 * (BLOCK_CELLS // relabelled.n)
    pairs = random_pairs(gasket.n, 150, seed=5)
    for g in (gasket, relabelled):
        ov = build_overlay(g, OverlayParams(k=4, q=2, s=2, seed=3))
        for variant in VARIANTS:
            assert route_batch(g, ov, pairs, variant) \
                == scalar_traces(g, ov, pairs, variant)


RING16_CONTACTS = ("h 0 z=1 : 5 10 12\n"
                   "h 5 z=1 : 0\n"
                   "h 10 z=1 : 5\n"
                   "h 12 z=1 : 0 5\n")


def load_ring16(tmp_path, header):
    g = gen_lattice(1, 16)
    path = tmp_path / "ring.ov"
    path.write_text(header + RING16_CONTACTS)
    return g, HighwayOverlay.load(g, path)


def test_route_batch_breaks_loaded_contact_ties_to_lowest_id(tmp_path):
    # round(q*k) = 3 draws per node; node 0 lists three contacts
    g, ov = load_ring16(tmp_path, "1 3 1 0 0 16\n")
    assert ov.params.draws_per_node == 3
    pairs = [(s, t) for s in range(16) for t in range(16)]
    for variant in VARIANTS:
        got = route_batch(g, ov, pairs, variant)
        assert got == scalar_traces(g, ov, pairs, variant)
    # 10 and 12 tie toward 11; the lower id wins
    assert route_batch(g, ov, [(0, 11)])[0].path == [0, 10, 11]


def test_load_rejects_contact_lists_over_round_qk(tmp_path):
    # round(q*k) = 1 draw per node, yet node 0 lists three contacts
    with pytest.raises(OverlayError, match=r":2: more than round\(q\*k\)"):
        load_ring16(tmp_path, "1 1 1 0 0 16\n")


def test_route_batch_on_a_huge_round_qk_header(tmp_path):
    # round(q*k) = MAX_DRAWS_PER_NODE draws, but two highway nodes leave
    # one contact, so the table is one column wide
    g = gen_lattice(1, 3, wrap=False)
    path = tmp_path / "huge.ov"
    path.write_text(f"{MAX_DRAWS_PER_NODE} 1 1 0 0 3\n"
                    f"h 0 z=0.5 : 2\nh 2 z=0.5 : 0\n")
    ov = HighwayOverlay.load(g, path)
    assert ov.contact_table.shape == (2, 1)
    pairs = [(s, t) for s in range(3) for t in range(3)]
    for variant in VARIANTS:
        assert route_batch(g, ov, pairs, variant) \
            == scalar_traces(g, ov, pairs, variant)


def test_trace_csv_golden(tmp_path):
    g = gen_lattice(1, 32)
    ov = overlay_with(g, [0, 16])
    out = tmp_path / "t.csv"
    write_trace_csv(route_batch(g, ov, [(1, 17), (3, 3)], "highway-sticky"),
                    out)
    assert out.read_bytes() == (
        b"pair_id,source,target,variant,hops,hops_to_highway,"
        b"hops_on_highway,hops_to_target,dist_st\r\n"
        b"0,1,17,highway-sticky,3,1,1,1,16\r\n"
        b"1,3,3,highway-sticky,0,0,0,0,0\r\n")
