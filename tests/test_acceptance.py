"""Acceptance suite: eleven numbered end-to-end criteria.

Each test prints one `ACCEPTANCE nn <name>: PASS|FAIL` line carrying
the measured values (visible with `pytest -s` or in failure output).
Every sub-check is evaluated before anything is asserted, so a failing
criterion still reports all of its measurements.
"""

import math
from collections import deque

import numpy as np
from scipy import stats as sstats

from fgsw import (Graph, OverlayParams, build_overlay, estimate_alpha,
                  estimate_diameter, gen_lattice, gen_sierpinski,
                  highway_distance_stats, route_batch,
                  sample_far_pairs, shell_highway_stats,
                  sweep_clustering_exponent, validate_trace, z_stats)
from fgsw.cli import main
from fgsw.rng import substream


def report(num, name, checks):
    """checks: [(label, ok, detail)] -> one verdict line, then assert."""
    verdict = "PASS" if all(ok for _, ok, _ in checks) else "FAIL"
    body = "; ".join(f"{label}={detail} [{'ok' if ok else 'FAIL'}]"
                     for label, ok, detail in checks)
    line = f"ACCEPTANCE {num:02d} {name}: {verdict} -- {body}"
    print(line)
    assert verdict == "PASS", line


def k_auto(n):
    return math.ceil(math.log(n))


def mean_hops(graph, overlay, pairs, variant="highway-sticky"):
    traces = route_batch(graph, overlay, pairs, variant)
    return float(np.mean([t.hops for t in traces]))


# -- 1: exact contact law on the 8-ring ---------------------------------------


def test_criterion_01_contact_distribution_exactness():
    g = gen_lattice(1, 8)
    ov = build_overlay(g, OverlayParams(k=1, q=3, s=1, seed=3))
    z0 = ov.zvalue(0)
    targets, probs, _ = ov.contact_distribution(0)
    p01 = float(probs[list(targets).index(1)])
    draws = ov.draw_contact_targets(0, 100_000, tag=77)
    counts = np.bincount(draws, minlength=8)[1:]
    expect = 100_000 * np.array([12, 6, 4, 3, 4, 6, 12]) / 47
    pval = float(sstats.chisquare(counts, f_exp=expect).pvalue)
    report(1, "contact-distribution exactness", [
        ("z(0)", abs(z0 - 47 / 12) <= 1e-12 * 47 / 12, f"{z0:.15g} vs 47/12"),
        ("Pr(0->1)", abs(p01 - 12 / 47) <= 1e-12, f"{p01:.15g} vs 12/47"),
        ("chi2 p", pval > 0.01, f"{pval:.3f} over 1e5 draws"),
    ])


# -- 2: z equals an independent brute force -----------------------------------


def bfs_dict(adj, src):
    dist = {src: 0}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def random_connected_graph(n, extra, seed):
    stream = substream(seed, 98)
    edges = set()
    for v in range(1, n):
        edges.add((int(stream.integers(0, v)), v))
    while len(edges) < n - 1 + extra:
        u, v = (int(x) for x in stream.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


def test_criterion_02_z_brute_force():
    worst = 0.0
    graphs = 0
    for i in range(20):
        n = 16 + (i * 7) % 49  # sizes 16..64
        g = random_connected_graph(n, n // 2, seed=100 + i)
        s = (1.0, 2.0, 2.5)[i % 3]
        ov = build_overlay(g, OverlayParams(k=2, q=1, s=s, seed=i))
        adj = {u: [int(v) for v in g.neighbors(u)] for u in range(n)}
        for u in ov.highway_ids:
            u = int(u)
            dist = bfs_dict(adj, u)
            brute = sum(dist[int(h)] ** -s
                        for h in ov.highway_ids if int(h) != u)
            worst = max(worst, abs(ov.zvalue(u) - brute) / brute)
        graphs += 1
    report(2, "z exactness", [
        ("graphs", graphs == 20, graphs),
        ("worst rel err", worst <= 1e-12, f"{worst:.2e}"),
    ])


# -- 3: highway routing speedup across sizes ----------------------------------


def test_criterion_03_routing_speedup():
    sides = (64, 128, 256, 512)
    seed, q, s, n_pairs = 7, 2.0, 2.0, 1000
    means, lnns = [], []
    ratio_inputs = {}
    for side in sides:
        g = gen_lattice(2, side)
        pairs = [(a, b) for a, b, _ in sample_far_pairs(g, n_pairs, seed)]
        ov = build_overlay(g, OverlayParams(k=k_auto(g.n), q=q, s=s,
                                            seed=seed), materialize=False)
        m = mean_hops(g, ov, pairs)
        means.append(m)
        lnns.append(math.log(g.n))
        if side == 512:
            ov1 = build_overlay(g, OverlayParams(k=1, q=q, s=s, seed=seed),
                                materialize=False)
            ratio_inputs["k_auto"] = m
            ratio_inputs["k1"] = mean_hops(g, ov1, pairs)
            ratio_inputs["aware"] = mean_hops(g, ov, pairs, "highway-aware")
    fit = sstats.linregress(lnns, means)
    r2 = fit.rvalue ** 2
    ratio = ratio_inputs["k_auto"] / ratio_inputs["k1"]
    aware_ratio = ratio_inputs["aware"] / ratio_inputs["k1"]
    report(3, "routing speedup", [
        ("(a) R2 of hops~ln n", r2 >= 0.9,
         f"{r2:.3f} means=" + ",".join(f"{m:.2f}" for m in means)),
        ("(b) side-512 k-auto/k-1 sticky", ratio <= 0.5,
         f"{ratio:.3f} ({ratio_inputs['k_auto']:.2f}/"
         f"{ratio_inputs['k1']:.2f}; highway-aware gets "
         f"{aware_ratio:.3f})"),
    ])


# -- 4: distance to the highway -------------------------------------------------


def test_criterion_04_distance_to_highway():
    checks = []
    for side in (64, 128, 256, 512):
        g = gen_lattice(2, side)
        ov = build_overlay(g, OverlayParams(k=k_auto(g.n), q=2, s=2, seed=7),
                           materialize=False)
        val = highway_distance_stats(g, ov, alpha=2.0).rows[0][3]
        checks.append((f"side {side} max/(k ln n)^0.5",
                       0.3 <= val <= 3.0, f"{val:.3f}"))
    report(4, "distance to highway", checks)


# -- 5: shell scaling ------------------------------------------------------------


def test_criterion_05_shell_scaling():
    ring = gen_lattice(1, 4096)
    ov1 = build_overlay(ring, OverlayParams(k=4, q=1, s=2, seed=5),
                        materialize=False)
    s1 = shell_highway_stats(ring, ov1, width=32, b_max=8, samples=300,
                             seed=5).params["fit_exponent"]
    t2 = gen_lattice(2, 256)
    ov2 = build_overlay(t2, OverlayParams(k=12, q=1, s=2, seed=5),
                        materialize=False)
    s2 = shell_highway_stats(t2, ov2, width=12, b_max=8, samples=300,
                             seed=5).params["fit_exponent"]
    t3 = gen_lattice(3, 44)
    ov3 = build_overlay(t3, OverlayParams(k=2, q=1, s=2, seed=5),
                        materialize=False)
    s3 = shell_highway_stats(t3, ov3, width=1, b_max=20, samples=300,
                             seed=5, b_min=6).params["fit_exponent"]
    report(5, "shell scaling", [
        ("alpha=1 slope", abs(s1 - 0) <= 0.3, f"{s1:.3f}"),
        ("alpha=2 slope", abs(s2 - 1) <= 0.3, f"{s2:.3f}"),
        ("alpha=3 slope", abs(s3 - 2) <= 0.3, f"{s3:.3f}"),
    ])


# -- 6: normalization bounds ------------------------------------------------------


def test_criterion_06_z_bounds():
    max_ratios, min_ratios = [], []
    for side in (64, 128, 256):
        g = gen_lattice(2, side)
        ov = build_overlay(g, OverlayParams(k=k_auto(g.n), q=2, s=2, seed=7),
                           materialize=False)
        row = z_stats(g, ov).rows[0]
        max_ratios.append(row[3])
        min_ratios.append(row[4])
    growth = max(max_ratios) / min(max_ratios)
    report(6, "normalization bounds", [
        ("max-z ratio growth", growth <= 1.5,
         f"{growth:.3f} ratios=" + ",".join(f"{r:.3f}" for r in max_ratios)),
        ("min z >= 0.1 ln n/k", min(min_ratios) >= 0.1,
         "min=" + ",".join(f"{r:.3f}" for r in min_ratios)),
    ])


# -- 7: dimensionality estimator ----------------------------------------------------


def test_criterion_07_dimension_estimator():
    a1 = estimate_alpha(gen_lattice(1, 1024), samples=200,
                        seed=11).alpha_median
    a2 = estimate_alpha(gen_lattice(2, 64), samples=200, seed=11).alpha_median
    a3 = estimate_alpha(gen_lattice(3, 12), samples=200, seed=11).alpha_median
    asp = estimate_alpha(gen_sierpinski(8), samples=200,
                         seed=11).alpha_median
    report(7, "dimension estimator", [
        ("ring 1024", abs(a1 - 1) <= 0.15, f"{a1:.2f}"),
        ("torus 64", abs(a2 - 2) <= 0.15, f"{a2:.2f}"),
        ("torus3d 12", abs(a3 - 3) <= 0.15, f"{a3:.2f}"),
        ("sierpinski L8", 1.4 <= asp <= 1.8, f"{asp:.2f} (analytic 1.585)"),
    ])


# -- 8: s = alpha beats s = 2 ---------------------------------------------------------


def test_criterion_08_optimal_clustering_exponent():
    g9 = gen_sierpinski(9)
    rep = sweep_clustering_exponent(g9, k=k_auto(g9.n), q=2.0,
                                    s_values=[1.585, 2.0], pairs=2000,
                                    seed=7)
    rows = {row[0]: row for row in rep.rows}
    m_alpha, ci_alpha = rows[1.585][1], rows[1.585][2]
    m_two, ci_two = rows[2.0][1], rows[2.0][2]
    gap = m_two - m_alpha

    g2 = gen_lattice(2, 1024)
    lat = sweep_clustering_exponent(g2, k=k_auto(g2.n), q=2.0,
                                    s_values=[1.5, 1.75, 2.0, 2.25, 2.5],
                                    pairs=600, seed=7)
    argmin = lat.params["argmin_s"]
    lat_means = ",".join(f"{row[0]:g}:{row[1]:.2f}" for row in lat.rows)
    report(8, "s=alpha beats s=2", [
        ("sierpinski mean ratio", m_alpha <= 0.95 * m_two,
         f"{m_alpha:.2f}/{m_two:.2f}={m_alpha / m_two:.3f}"),
        ("sierpinski gap > CIs", gap > max(ci_alpha, ci_two),
         f"{gap:.2f} vs ci {ci_alpha:.2f},{ci_two:.2f}"),
        ("lattice argmin s", argmin == 2.0, f"{argmin} ({lat_means})"),
    ])


# -- 9: diameter trend ------------------------------------------------------------------


def test_criterion_09_diameter_trend():
    values = {}
    unders = {}
    for side in (64, 128):
        g = gen_lattice(2, side)
        unders[side] = g.eccentricity(0)  # vertex-transitive: ecc = diameter
        ov = build_overlay(g, OverlayParams(k=k_auto(g.n), q=2, s=2, seed=7))
        values[side] = estimate_diameter(g, ov).value
    dia_ratio = values[128] / values[64]
    ln_ratio = math.log(128 ** 2) / math.log(64 ** 2)
    report(9, "diameter trend", [
        ("augmented <= underlying",
         values[64] <= unders[64] and values[128] <= unders[128],
         f"{values[64]}<={unders[64]}, {values[128]}<={unders[128]}"),
        ("growth vs 1.5x ln-ratio", dia_ratio <= 1.5 * ln_ratio,
         f"{dia_ratio:.3f} <= {1.5 * ln_ratio:.3f}"),
    ])


# -- 10: routing invariants over random instances -----------------------------------------


def test_criterion_10_routing_invariants():
    graphs = [gen_lattice(1, 64), gen_lattice(1, 128), gen_lattice(2, 8),
              gen_lattice(2, 12), gen_lattice(2, 16),
              gen_lattice(2, 10, wrap=False), gen_sierpinski(4),
              gen_sierpinski(5)]
    instances = 0
    violations = []
    for gi, g in enumerate(graphs):
        for seed in range(5):
            ov = build_overlay(g, OverlayParams(k=3, q=2, s=2, seed=seed),
                               materialize=False)
            stream = substream(1000 + gi, 11, seed)
            pairs = []
            while len(pairs) < 250:
                s, t = (int(x) for x in stream.integers(0, g.n, size=2))
                if s != t:
                    pairs.append((s, t))
            instances += len(pairs)
            for variant in ("plain", "highway-sticky", "highway-aware"):
                for (s, t), tr in zip(pairs,
                                      route_batch(g, ov, pairs, variant)):
                    if tr.path[-1] != t:
                        violations.append(f"{variant} missed target")
                    try:
                        validate_trace(g, ov, tr)
                    except Exception as exc:  # pragma: no cover
                        violations.append(str(exc))
                    if variant == "plain":
                        steps = np.diff(g.distance_row(t)[tr.path])
                        if tr.hops and not np.all(steps < 0):
                            violations.append("plain non-improving hop")
                        if tr.hops > tr.dist_st:
                            violations.append("plain hops > distance")
    report(10, "routing invariants", [
        ("instances", instances == 10_000, instances),
        ("violations", not violations, violations[:3] or "none"),
    ])


# -- 11: CLI determinism --------------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    d = tmp_path

    def run_twice(argv_fn, a="a", b="b"):
        """argv_fn(out_path) -> argv; returns True if reruns match."""
        pa, pb = d / a, d / b
        assert main(argv_fn(str(pa))) == 0
        assert main(argv_fn(str(pb))) == 0
        return pa.read_bytes() == pb.read_bytes()

    checks = []
    g = str(d / "g.txt")
    checks.append(("gen-lattice", run_twice(
        lambda o: ["gen-lattice", "--dim", "2", "--side", "8", "--out", o]),
        "dim 2 side 8"))
    assert main(["gen-lattice", "--dim", "2", "--side", "8",
                 "--out", g]) == 0
    checks.append(("gen-sierpinski", run_twice(
        lambda o: ["gen-sierpinski", "--level", "4", "--out", o]),
        "level 4"))
    dim = d / "d.gr"
    dim.write_text("p sp 4 3\na 1 2 9\na 2 3 9\na 3 4 9\n")
    checks.append(("import-dimacs", run_twice(
        lambda o: ["import-dimacs", "--input", str(dim), "--out", o,
                   "--map-out", o + ".map"]),
        "4-node chain"))
    ovl = str(d / "o.ov")
    checks.append(("augment", run_twice(
        lambda o: ["augment", "--graph", g, "--k", "auto", "--q", "2",
                   "--s", "2", "--seed", "5", "--out", o]),
        "k auto seed 5"))
    assert main(["augment", "--graph", g, "--k", "auto", "--q", "2",
                 "--s", "2", "--seed", "5", "--out", ovl]) == 0
    checks.append(("route", run_twice(
        lambda o: ["route", "--graph", g, "--overlay", ovl, "--source", "0",
                   "--target", "36", "--out", o]),
        "0->36"))
    checks.append(("route-batch t1=t8", run_twice(
        lambda o: ["route-batch", "--graph", g, "--overlay", ovl, "--pairs",
                   "50", "--seed", "3", "--threads",
                   "1" if o.endswith("a") else "8", "--out", o]),
        "50 pairs"))
    for kind, extra in (("balls", ["--alpha", "2", "--c", "1"]),
                        ("shells", ["--width", "1", "--b-max", "3"]),
                        ("z", []),
                        ("highway-dist", ["--alpha", "2"]),
                        ("improve", ["--alpha", "2", "--c-list", "1.5",
                                     "--samples", "20"]),
                        ("fresh", ["--alpha", "2", "--radius", "2",
                                   "--samples", "20"])):
        checks.append((f"stats {kind}", run_twice(
            lambda o, k=kind, e=extra: ["stats", k, "--graph", g,
                                        "--overlay", ovl, "--seed", "2",
                                        "--out", o] + e),
            "seed 2"))
    checks.append(("diameter", run_twice(
        lambda o: ["diameter", "--graph", g, "--overlay", ovl, "--mode",
                   "sampled", "--samples", "8", "--seed", "1", "--out", o]),
        "sampled 8"))
    checks.append(("estimate-alpha", run_twice(
        lambda o: ["estimate-alpha", "--graph", g, "--samples", "10",
                   "--seed", "11", "--out", o]),
        "10 samples"))
    checks.append(("sweep-s", run_twice(
        lambda o: ["sweep-s", "--graph", g, "--k", "2", "--q", "2",
                   "--s-list", "1.5,2.0", "--pairs", "10", "--seed", "3",
                   "--out", o]),
        "2 exponents"))
    checks.append(("scaling t1=t8", run_twice(
        lambda o: ["scaling", "--dim", "2", "--sides", "8,12", "--q", "2",
                   "--s", "2", "--pairs", "10", "--seed", "7", "--threads",
                   "1" if o.endswith("a") else "8", "--out", o]),
        "sides 8,12"))
    report(11, "CLI determinism",
           [(label, ok, detail) for label, ok, detail in checks])
