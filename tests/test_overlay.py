"""Highway overlay: membership, contact law, z values, serialization."""

import numpy as np
import pytest
from scipy import stats

from fgsw import (Graph, HighwayOverlay, OverlayError, OverlayParams,
                  build_overlay, gen_lattice, rng, route, route_batch,
                  sample_far_pairs, sample_highway_membership)
from fgsw.overlay import MAX_DRAWS_PER_NODE, MAX_MEMBERSHIP_EPOCHS
from fgsw.rng import DOMAIN_MEMBERSHIP, substream


def all_highway_ring8(s=1.0, seed=0, q=3.0):
    """k=1 makes every node a highway node deterministically."""
    g = gen_lattice(1, 8)
    return build_overlay(g, OverlayParams(k=1, q=q, s=s, seed=seed))


# -- parameters ---------------------------------------------------------------


def test_params_validation():
    with pytest.raises(OverlayError, match="k must be >= 1"):
        OverlayParams(k=0.5, q=1, s=1, seed=0)
    with pytest.raises(OverlayError, match="q must be > 0"):
        OverlayParams(k=2, q=0, s=1, seed=0)
    with pytest.raises(OverlayError, match="s must be >= 0"):
        OverlayParams(k=2, q=1, s=-1, seed=0)
    with pytest.raises(OverlayError, match="round\\(q\\*k\\) must be >= 1"):
        OverlayParams(k=1, q=0.4, s=1, seed=0)
    with pytest.raises(OverlayError,
                       match="round\\(q\\*k\\) = 16777217 is above the limit"):
        OverlayParams(k=1, q=MAX_DRAWS_PER_NODE + 1, s=1, seed=0)
    for k, q, s in ((np.inf, 1, 1), (2, np.inf, 1), (1e200, 1e200, 1),
                    (2, 1, np.inf), (np.nan, 1, 1)):
        with pytest.raises(OverlayError, match="must be finite"):
            OverlayParams(k=k, q=q, s=s, seed=0)


def test_draws_per_node_rounds_half_up():
    assert OverlayParams(k=1, q=2.5, s=1, seed=0).draws_per_node == 3
    assert OverlayParams(k=3, q=0.5, s=1, seed=0).draws_per_node == 2
    assert OverlayParams(k=2, q=0.25, s=1, seed=0).draws_per_node == 1
    assert OverlayParams(k=4, q=0.6, s=1, seed=0).draws_per_node == 2
    assert OverlayParams(k=1, q=MAX_DRAWS_PER_NODE, s=1,
                         seed=0).draws_per_node == MAX_DRAWS_PER_NODE


# -- membership ---------------------------------------------------------------


def test_membership_count_in_binomial_band():
    # n=4096, p=1/8: mean 512, sigma 21.17; 4-sigma band
    g = gen_lattice(2, 64)
    for seed in (1, 2, 3):
        flags, epoch = sample_highway_membership(
            g, OverlayParams(k=8, q=1, s=2, seed=seed))
        assert epoch == 0
        assert 427 <= int(flags.sum()) <= 597


def test_membership_deterministic_and_seed_sensitive():
    g = gen_lattice(2, 64)
    a, _ = sample_highway_membership(g, OverlayParams(k=8, q=1, s=2, seed=1))
    b, _ = sample_highway_membership(g, OverlayParams(k=8, q=1, s=2, seed=1))
    c, _ = sample_highway_membership(g, OverlayParams(k=8, q=1, s=2, seed=2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_membership_resamples_under_next_epoch():
    # n=4, p=0.1: epoch 0 usually yields < 2 highway nodes
    g = gen_lattice(2, 2, wrap=False)
    found = None
    for seed in range(200):
        try:
            flags, epoch = sample_highway_membership(
                g, OverlayParams(k=10, q=1, s=1, seed=seed))
        except OverlayError:
            continue
        if epoch > 0:
            found = (seed, flags, epoch)
            break
    assert found is not None, "no resampled membership in 200 seeds"
    seed, flags, epoch = found
    for e in range(epoch):
        early = substream(seed, DOMAIN_MEMBERSHIP, e).random(4) < 0.1
        assert int(early.sum()) < 2
    redo = substream(seed, DOMAIN_MEMBERSHIP, epoch).random(4) < 0.1
    assert np.array_equal(flags, redo)
    assert int(flags.sum()) >= 2


def test_membership_gives_up_after_bounded_epochs():
    g = gen_lattice(2, 2, wrap=False)
    with pytest.raises(OverlayError,
                       match=f"after {MAX_MEMBERSHIP_EPOCHS}"):
        sample_highway_membership(
            g, OverlayParams(k=1e6, q=1e-6, s=1, seed=0))


def test_k1_makes_everyone_highway():
    ov = all_highway_ring8()
    assert ov.epoch == 0
    assert list(ov.highway_ids) == list(range(8))


# -- contact law ----------------------------------------------------------------


def test_ring8_exact_z():
    # distances from 0: 1,2,3,4,3,2,1; s=1 gives z = 2(1+1/2+1/3)+1/4
    ov = all_highway_ring8(s=1.0)
    assert ov.zvalue(0) == pytest.approx(47 / 12, rel=1e-12)


def test_ring8_exact_contact_probabilities():
    ov = all_highway_ring8(s=1.0)
    targets, probs, z = ov.contact_distribution(0)
    assert list(targets) == [1, 2, 3, 4, 5, 6, 7]
    expect = np.array([12, 6, 4, 3, 4, 6, 12]) / 47
    assert probs == pytest.approx(expect, rel=1e-12)
    assert probs.sum() == pytest.approx(1.0, rel=1e-12)
    assert z == pytest.approx(47 / 12, rel=1e-12)


def test_s0_z_is_count_of_other_highways():
    ov = all_highway_ring8(s=0.0)
    assert ov.zvalue(3) == pytest.approx(7.0)


def test_z_matches_brute_force():
    g = gen_lattice(2, 6)
    ov = build_overlay(g, OverlayParams(k=3, q=1, s=2, seed=5))
    for u in ov.highway_ids:
        u = int(u)
        row = g.distance_row(u)
        brute = sum(float(row[int(h)]) ** -2.0
                    for h in ov.highway_ids if int(h) != u)
        assert ov.zvalue(u) == pytest.approx(brute, rel=1e-12)


def test_draws_match_exact_law_chi_square():
    ov = all_highway_ring8(s=1.0, seed=3)
    draws = ov.draw_contact_targets(0, 100_000, tag=77)
    counts = np.bincount(draws, minlength=8)[1:]
    expect = 100_000 * np.array([12, 6, 4, 3, 4, 6, 12]) / 47
    _, p = stats.chisquare(counts, f_exp=expect)
    assert p > 0.01


def test_redraws_deterministic_and_tag_separated():
    ov = all_highway_ring8(seed=3)
    a = ov.draw_contact_targets(0, 50, tag=5)
    b = ov.draw_contact_targets(0, 50, tag=5)
    c = ov.draw_contact_targets(0, 50, tag=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_contact_lists_well_formed():
    g = gen_lattice(2, 8)
    params = OverlayParams(k=3, q=2, s=2, seed=9)
    ov = build_overlay(g, params)
    assert len(ov.highway_ids) >= 2
    for u in ov.highway_ids:
        u = int(u)
        c = ov.contacts(u)
        assert 1 <= c.size <= params.draws_per_node
        assert np.all(np.diff(c) > 0)  # strictly ascending, deduplicated
        assert not np.any(c == u)
        assert np.all(ov.is_highway[c])


def test_two_highway_nodes_point_at_each_other():
    g = gen_lattice(1, 3, wrap=False)
    flags = np.array([True, False, True])
    ov = HighwayOverlay(g, OverlayParams(k=2, q=1, s=1, seed=0), flags, 0)
    assert list(ov.contacts(0)) == [2]
    assert list(ov.contacts(2)) == [0]
    assert ov.zvalue(0) == pytest.approx(0.5)  # d=2, s=1


def test_lazy_equals_eager_any_access_order():
    g = gen_lattice(2, 8)
    params = OverlayParams(k=3, q=2, s=2, seed=9)
    eager = build_overlay(g, params)
    lazy = build_overlay(g, params, materialize=False)
    for u in reversed(eager.highway_ids):
        u = int(u)
        assert lazy.zvalue(u) == eager.zvalue(u)
        assert np.array_equal(lazy.contacts(u), eager.contacts(u))


def test_closed_form_and_bfs_overlays_are_bitwise_equal():
    # the hinted lattice takes closed-form subset distances, its copy BFS rows
    lattice = gen_lattice(2, 24)
    plain = Graph(lattice.n, lattice.indptr.copy(), lattice.indices.copy())
    plain.lattice_hint = None  # the copy recognises itself; force BFS
    assert lattice.lattice_hint is not None and plain.lattice_hint is None
    params = OverlayParams(k=5, q=2, s=2.3, seed=4)
    for materialize in (False, True):
        hinted = build_overlay(lattice, params, materialize=materialize)
        bfs = build_overlay(plain, params, materialize=materialize)
        assert np.array_equal(hinted.highway_ids, bfs.highway_ids)
        for u in hinted.highway_ids:
            u = int(u)
            assert hinted.zvalue(u).hex() == bfs.zvalue(u).hex()
            assert np.array_equal(hinted.contacts(u), bfs.contacts(u))


def test_zvalues_aligned_with_highway_ids():
    ov = all_highway_ring8(s=1.0)
    zs = ov.zvalues()
    assert zs.shape == (8,)
    assert zs[0] == ov.zvalue(0)


def test_contact_queries_reject_non_highway_and_bad_ids():
    g = gen_lattice(2, 8)
    ov = build_overlay(g, OverlayParams(k=3, q=2, s=2, seed=9))
    outsider = int(np.flatnonzero(~ov.is_highway)[0])
    with pytest.raises(ValueError, match="not a highway node"):
        ov.contacts(outsider)
    with pytest.raises(ValueError, match="out of range"):
        ov.zvalue(-1)


def test_contact_rows_refuse_nodes_off_the_highway():
    # node 0 would otherwise read highway node 4's row, the next in order
    g = gen_lattice(2, 8)
    ov = build_overlay(g, OverlayParams(k=3, q=2, s=2, seed=1),
                       materialize=False)
    assert not ov.is_highway[0] and ov.highway_ids[0] == 4
    with pytest.raises(ValueError, match="^node 0 is not a highway node$"):
        ov.contact_rows([0])
    with pytest.raises(ValueError, match="^node 0 is not a highway node$"):
        ov.contact_rows(np.array([4, 0, 4]))
    for bad in (-1, g.n):
        with pytest.raises(ValueError, match=f"^node {bad} out of range$"):
            ov.contact_rows([4, bad])
    rows = ov.contact_rows(ov.highway_ids)
    for u, row in zip(ov.highway_ids, rows):
        contacts = ov.contacts(int(u))
        assert np.array_equal(row[:contacts.size], contacts)


def test_build_overlay_rejects_trivial_graph():
    g = gen_lattice(1, 2, wrap=False)
    flags = np.array([True, True])
    # n=2 graph is fine for direct construction but build_overlay insists
    assert HighwayOverlay(
        g, OverlayParams(k=1, q=1, s=1, seed=0), flags, 0).zvalue(0) == 1.0


# -- nearest-highway field ------------------------------------------------------


def test_nearest_highway_single_source_path():
    g = gen_lattice(1, 3, wrap=False)
    flags = np.array([True, False, False])
    ov = HighwayOverlay(g, OverlayParams(k=2, q=1, s=1, seed=0), flags, 0)
    dist, next_hop = ov.nearest_highway()
    assert list(dist) == [0, 1, 2]
    assert list(next_hop) == [0, 0, 1]


def test_nearest_highway_two_sources_torus():
    g = gen_lattice(2, 4)
    flags = np.zeros(16, dtype=bool)
    flags[[0, 10]] = True
    ov = HighwayOverlay(g, OverlayParams(k=2, q=1, s=1, seed=0), flags, 0)
    dist, next_hop = ov.nearest_highway()
    rows = np.minimum(g.distance_row(0), g.distance_row(10))
    assert np.array_equal(dist, rows)
    assert next_hop[0] == 0 and next_hop[10] == 10
    for u in range(16):
        if not flags[u]:
            assert dist[next_hop[u]] == dist[u] - 1
            assert next_hop[u] in g.neighbors(u)
            # lowest-id strictly-closer neighbor wins
            closer = [v for v in g.neighbors(u) if dist[v] == dist[u] - 1]
            assert next_hop[u] == min(closer)


def test_contacts_are_table_rows_without_padding(tmp_path):
    g = gen_lattice(2, 10)
    params = OverlayParams(k=3, q=3, s=2, seed=2)
    ov = build_overlay(g, params, materialize=False)
    ids, table = ov.highway_ids, ov.contact_table
    assert table.dtype == np.int32
    assert table.shape == (ids.size, min(9, ids.size - 1))
    assert np.all(table == -1)  # nothing built yet
    rows = ov.contact_rows(ids[[2, 0, 2]])
    assert np.array_equal(rows, table[[2, 0, 2]])
    assert np.all(table[1] == -1)  # rows nobody asked for stay unbuilt
    ov.materialize_all()
    for r, u in enumerate(ids.tolist()):
        c = ov.contacts(u)
        assert np.array_equal(table[r, :c.size], c)
        assert np.all(table[r, c.size:] == u)  # padded with the node
    assert np.any(table == ids[:, None])  # some list lost a duplicate
    ov.save(tmp_path / "o.ov")
    loaded = HighwayOverlay.load(g, tmp_path / "o.ov")
    assert np.array_equal(loaded.contact_table, table)
    assert np.array_equal(table, build_overlay(g, params).contact_table)


def test_routing_draws_each_contact_list_once(monkeypatch):
    g = gen_lattice(2, 16)
    ov = build_overlay(g, OverlayParams(k=4, q=2, s=2, seed=3),
                       materialize=False)
    pairs = [(s, t) for s, t, _ in sample_far_pairs(g, 40, seed=1)]
    drawn = []

    def counting(seed, *path):
        if path[0] == rng.DOMAIN_CONTACTS:
            drawn.append(path[-1])
        return substream(seed, *path)

    monkeypatch.setattr(rng, "substream", counting)
    for variant in ("highway-sticky", "plain"):
        route_batch(g, ov, pairs, variant)
    route(g, ov, *pairs[0], variant="highway-aware")
    assert len(drawn) == len(set(drawn)) == len(ov._cache) > 0


# -- serialization ----------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    g = gen_lattice(2, 8)
    ov = build_overlay(g, OverlayParams(k=3, q=2, s=2, seed=9))
    p1, p2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
    ov.save(p1)
    loaded = HighwayOverlay.load(g, p1)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(loaded.is_highway, ov.is_highway)
    assert loaded.params == ov.params and loaded.epoch == ov.epoch
    for u in ov.highway_ids:
        assert loaded.zvalue(int(u)) == ov.zvalue(int(u))
        assert np.array_equal(loaded.contacts(int(u)), ov.contacts(int(u)))


def path3():
    return gen_lattice(1, 3, wrap=False)


def load_text(tmp_path, text):
    p = tmp_path / "ov.txt"
    p.write_text(text)
    return HighwayOverlay.load(path3(), p)


GOOD = "2 1 1 0 0 3\nh 0 z=0.5 : 2\nh 2 z=0.5 : 0\n"


def test_load_minimal_valid_file(tmp_path):
    ov = load_text(tmp_path, GOOD)
    assert list(ov.highway_ids) == [0, 2]
    assert ov.zvalue(2) == 0.5


@pytest.mark.parametrize("text,msg", [
    ("", "empty overlay"),
    ("2 1 1 0 0\nh 0 z=0.5 : 2\n", "header must be"),
    ("x 1 1 0 0 3\nh 0 z=0.5 : 2\n", "malformed header"),
    ("2 1 1 0 0 4\nh 0 z=0.5 : 2\n", "overlay is for n=4"),
    ("0.5 1 1 0 0 3\nh 0 z=0.5 : 2\n", "k must be >= 1"),
    ("inf 2 1 0 0 3\nh 0 z=0.5 : 2\n", "must be finite"),
    ("2 1 1 0 0 3\nh 0 z=0.5 2\nh 2 z=0.5 : 0\n", "malformed highway line"),
    ("2 1 1 0 0 3\nh 0 z=abc : 2\nh 2 z=0.5 : 0\n", "malformed values"),
    ("2 1 1 0 0 3\nh 5 z=0.5 : 2\nh 2 z=0.5 : 0\n", "out of range"),
    ("2 1 1 0 0 3\nh 0 z=0.5 : 7\nh 2 z=0.5 : 0\n", "contact id out of range"),
    ("2 1 1 0 0 3\nh 0 z=0.5 : 2147483648\nh 2 z=0.5 : 0\n",
     "malformed values"),
    ("1 1 1 0 0 3\nh 0 z=0.5 : 1 2\nh 1 z=0.5 : 0\nh 2 z=0.5 : 0\n",
     "ov.txt:2: more than round\\(q\\*k\\) = 1 contacts"),
    ("2 1 1 0 0 3\nh 2 z=0.5 : 0\nh 0 z=0.5 : 2\n", "ascending"),
    ("2 1 1 0 0 3\nh 0 z=0 : 2\nh 2 z=0.5 : 0\n", "bad z value"),
    ("2 1 1 0 0 3\nh 0 z=0.5 :\nh 2 z=0.5 : 0\n", "no contacts"),
    ("2 1 1 0 0 3\nh 0 z=0.5 : 2\n", "fewer than 2 highway"),
    ("2 1 1 0 0 3\nh 0 z=0.5 : 1\nh 2 z=0.5 : 0\n", "non-highway contact"),
    ("2 1 1 0 0 3\nh 0 z=0.5 : 0\nh 2 z=0.5 : 0\n", "self or unsorted"),
    ("1e12 1 1 0 0 3\nh 0 z=0.5 : 2\nh 2 z=0.5 : 0\n",
     "round\\(q\\*k\\) = 1000000000000 is above"),
    ("2 1 1 0 0 3\nh 0 z=0.5 : 2 2\nh 2 z=0.5 : 0\n", "self or unsorted"),
])
def test_load_rejects_malformed_files(tmp_path, text, msg):
    with pytest.raises(OverlayError, match=msg):
        load_text(tmp_path, text)
