"""Empirical statistics over graphs and overlays.

Everything here reports raw measurements next to the scale the theory
predicts for them, so the check "does quantity X track f(n)" is a read
of one ratio column. Sampling is seeded and reproducible; reports
carry their full parameter set.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import stats as sstats

from . import __version__, rng
from .graph import Graph, _build_csr, _max_eccentricity, ball_profile
from .overlay import HighwayOverlay, OverlayParams, build_overlay
from .routing import route_batch

RADIUS_PROBES = 8  # nodes whose eccentricities bound the sampled radius
FAR_PAIR_TRIES = 100  # candidates drawn per far pair at most
FRESH_THETA = 0.9  # fresh contacts are measured up to n^(theta/alpha)
EXACT_DIAMETER_MAX_N = 20000  # larger graphs take the sampled mode


@dataclass
class StatReport:
    """Tabular result: named columns, rows, and the parameters that
    produced them (embedded as `# key=value` comment lines in CSV)."""

    experiment: str
    params: dict
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(f"# experiment={self.experiment}\n")
            fh.write(f"# version={__version__}\n")
            for key in sorted(self.params):
                fh.write(f"# {key}={self.params[key]}\n")
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(self.rows)


def _sample_nodes(n: int, samples: int, seed: int, tag: int) -> np.ndarray:
    if samples < 1:
        raise ValueError("need at least one sample")
    stream = rng.substream(seed, rng.DOMAIN_SAMPLES, tag)
    if samples >= n:
        return np.arange(n, dtype=np.int64)
    return np.sort(stream.choice(n, size=samples, replace=False))


def _alpha_power(base: float, exponent: float, alpha: float) -> float:
    """base^exponent for an exponent made from the growth dimension
    alpha; ValueError naming alpha when the power overflows a float."""
    try:
        return base ** exponent
    except OverflowError:
        raise ValueError(f"alpha = {alpha} overflows the power "
                         f"{base:.6g}^{exponent:.6g}") from None


def _growth_scale(base: float, alpha: float, theta: float = 1.0) -> float:
    """base^(theta/alpha) for a growth dimension alpha; ValueError
    unless alpha is finite and > 0 and the power fits a float."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be > 0 and finite, got {alpha}")
    return _alpha_power(base, theta / alpha, alpha)


def reference_eccentricity(graph: Graph) -> int:
    """Eccentricity of node 0; the radius bound used by preconditions."""
    return graph.eccentricity(0)


# -- far pairs ----------------------------------------------------------


def sampled_radius(graph: Graph, seed: int) -> int:
    """Radius estimate: smallest eccentricity of RADIUS_PROBES nodes."""
    nodes = _sample_nodes(graph.n, RADIUS_PROBES, seed, tag=90)
    return int(min(graph.eccentricity(int(u)) for u in nodes))


def sample_far_pairs(graph: Graph, count: int, seed: int
                     ) -> list[tuple[int, int, int]]:
    """Uniform (source, target) pairs with d >= half the sampled radius.

    Each pair draws up to FAR_PAIR_TRIES candidates, then keeps the
    farthest seen. Returns (source, target, distance) triples.
    """
    if count < 1:
        raise ValueError("need at least one pair")
    threshold = 0.5 * sampled_radius(graph, seed)
    pairs = []
    for i in range(count):
        stream = rng.substream(seed, rng.DOMAIN_PAIRS, i)
        best = None
        for _ in range(FAR_PAIR_TRIES):
            s, t = stream.integers(0, graph.n, size=2)
            if s == t:
                continue
            d = graph.distance(int(s), int(t))
            if best is None or d > best[2]:
                best = (int(s), int(t), d)
            if d >= threshold:
                break
        if best is None:  # n == 1 cannot happen for connected n >= 2
            raise ValueError("could not sample a pair")
        pairs.append(best)
    return pairs


# -- highway structure statistics ------------------------------------------


def ball_highway_stats(graph: Graph, overlay: HighwayOverlay, c: float,
                       samples: int, alpha: float, seed: int) -> StatReport:
    """Highway-node counts in balls of radius ceil(c*(k ln n)^(1/alpha)).

    Rows are per sampled center; the expected scale is l^alpha / k.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be > 0 and finite, got {c}")
    n, k = graph.n, overlay.params.k
    reach = c * _growth_scale(k * math.log(n), alpha)
    if reach > reference_eccentricity(graph):  # before ceil, which rejects inf
        raise ValueError(f"ball radius c*(k ln n)^(1/alpha) = {reach:.4g} "
                         f"exceeds the graph radius")
    radius = math.ceil(reach)
    centers = _sample_nodes(n, samples, seed, tag=1)
    scale = _alpha_power(radius, alpha, alpha) / k
    report = StatReport(
        experiment="ball_highway",
        params={"n": n, "k": k, "q": overlay.params.q, "s": overlay.params.s,
                "alpha": alpha, "c": c, "radius": radius, "seed": seed,
                "samples": len(centers), "scale": scale},
        columns=("center", "radius", "highway_count", "count_over_scale",
                 "seed", "samples"))
    for u in centers:
        count = int((graph.distances(int(u), overlay.highway_ids) <= radius)
                    .sum())
        report.rows.append((int(u), radius, count, count / scale,
                            seed, len(centers)))
    return report


def shell_highway_stats(graph: Graph, overlay: HighwayOverlay, width: int,
                        b_max: int, samples: int, seed: int,
                        b_min: int = 1) -> StatReport:
    """Mean highway count per shell index b over sampled centers, plus
    the log-log regression of mean count against b.

    Shell b of width w spans distances (b*w, (b+1)*w].
    """
    if width < 1 or b_min < 1 or b_max < b_min:
        raise ValueError("need width >= 1 and 1 <= b_min <= b_max")
    if (b_max + 1) * width > reference_eccentricity(graph):
        raise ValueError("outermost shell exceeds the graph radius")
    n = graph.n
    centers = _sample_nodes(n, samples, seed, tag=2)
    b_range = np.arange(b_min, b_max + 1)
    counts = np.zeros((len(centers), len(b_range)), dtype=np.int64)
    for i, u in enumerate(centers):
        d = graph.distances(int(u), overlay.highway_ids)
        idx = (d - 1) // width  # shell index of each highway node
        idx = idx[(d > b_min * width) & (idx <= b_max)]
        counts[i] = np.bincount(idx - b_min, minlength=len(b_range))
    means = counts.mean(axis=0)
    if np.any(means <= 0):
        raise ValueError("a shell had zero mean highway count; "
                         "widen the shells or enlarge the graph")
    fit = sstats.linregress(np.log(b_range), np.log(means))
    report = StatReport(
        experiment="shell_highway",
        params={"n": n, "k": overlay.params.k, "width": width,
                "b_min": b_min, "b_max": b_max, "seed": seed,
                "samples": len(centers), "fit_exponent": fit.slope,
                "fit_r2": fit.rvalue ** 2},
        columns=("b", "mean_count", "std_count", "seed", "samples"))
    stds = counts.std(axis=0)
    for j, b in enumerate(b_range):
        report.rows.append((int(b), float(means[j]), float(stds[j]),
                            seed, len(centers)))
    return report


def z_stats(graph: Graph, overlay: HighwayOverlay) -> StatReport:
    """Extremes and mean of z over all highway nodes, with the ratios
    the theory holds to max z (ln n / k + ln ln n) and min z (ln n / k)."""
    n, k = graph.n, overlay.params.k
    zs = overlay.zvalues()
    upper_scale = math.log(n) / k + math.log(math.log(n))
    lower_scale = math.log(n) / k
    report = StatReport(
        experiment="z_stats",
        params={"n": n, "k": k, "q": overlay.params.q, "s": overlay.params.s,
                "seed": overlay.params.seed, "samples": len(zs)},
        columns=("min_z", "max_z", "mean_z", "max_over_upper_scale",
                 "min_over_lower_scale", "seed", "samples"))
    report.rows.append((float(zs.min()), float(zs.max()), float(zs.mean()),
                        float(zs.max() / upper_scale),
                        float(zs.min() / lower_scale),
                        overlay.params.seed, len(zs)))
    return report


def highway_distance_stats(graph: Graph, overlay: HighwayOverlay,
                           alpha: float) -> StatReport:
    """Distance to the nearest highway node: max, mean, and the max
    normalized by (k ln n)^(1/alpha)."""
    n, k = graph.n, overlay.params.k
    scale = _growth_scale(k * math.log(n), alpha)
    dist, _ = overlay.nearest_highway()
    report = StatReport(
        experiment="highway_distance",
        params={"n": n, "k": k, "alpha": alpha, "seed": overlay.params.seed,
                "samples": n},
        columns=("max_dist", "mean_dist", "median_dist", "max_over_scale",
                 "seed", "samples"))
    report.rows.append((int(dist.max()), float(dist.mean()),
                        float(np.median(dist)), float(dist.max() / scale),
                        overlay.params.seed, n))
    return report


def improvement_probability(graph: Graph, overlay: HighwayOverlay,
                            c_values: Sequence[float], samples: int,
                            alpha: float, seed: int) -> StatReport:
    """Chance that a fresh contact set improves distance by factor c.

    For each c > 1, samples (highway node u, target t) with
    d(u, t) >= c * (k ln n)^(1/alpha), redraws u's contacts fresh, and
    records whether any landed within d(u, t)/c of t. The normalized
    column rescales by (c+1)^alpha * z(u), which the theory predicts is
    a constant. c just above 1 probes the full improving-move chance.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    n, k = graph.n, overlay.params.k
    scale = _growth_scale(k * math.log(n), alpha)
    hw = overlay.highway_ids
    report = StatReport(
        experiment="improvement_probability",
        params={"n": n, "k": k, "q": overlay.params.q, "s": overlay.params.s,
                "alpha": alpha, "seed": seed, "samples": samples},
        columns=("c", "empirical_p", "normalized", "samples_used",
                 "seed", "samples"))
    for ci, c in enumerate(c_values):
        if not (math.isfinite(c) and c > 1):
            raise ValueError(f"improvement factor c must be > 1 and "
                             f"finite, got {c}")
        min_d = c * scale
        weight = _alpha_power(c + 1, alpha, alpha)
        stream = rng.substream(seed, rng.DOMAIN_SAMPLES, 3, ci)
        hits, normalized = [], []
        used = attempts = 0
        while used < samples and attempts < 50 * samples:
            attempts += 1
            u = int(hw[stream.integers(0, hw.size)])
            t = int(stream.integers(0, n))
            dist_t = graph.distance_row(t)
            d_ut = int(dist_t[u])
            if d_ut < min_d:
                continue
            fresh = overlay.draw_contact_targets(u, overlay.params.draws_per_node,
                                                 tag=used + ci * samples)
            ok = bool(np.any(dist_t[fresh] <= d_ut / c))
            hits.append(ok)
            normalized.append(ok * weight * overlay.zvalue(u))
            used += 1
        if used == 0:
            raise ValueError(
                f"no (u, t) pair at distance >= {min_d:.1f} for c={c}")
        report.rows.append((float(c), float(np.mean(hits)),
                            float(np.mean(normalized)), used,
                            seed, samples))
    return report


def fresh_contact_probability(graph: Graph, overlay: HighwayOverlay,
                              radius: int, samples: int, alpha: float,
                              seed: int) -> StatReport:
    """Chance that a fresh contact leaves B_radius(u), normalized by
    ln n / (k * z(u)). Valid for radius <= n^(FRESH_THETA/alpha)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    n, k = graph.n, overlay.params.k
    cap = _growth_scale(n, alpha, FRESH_THETA)
    if radius > cap:
        raise ValueError(f"radius {radius} above n^(theta/alpha) = {cap:.1f}")
    hw = overlay.highway_ids
    stream = rng.substream(seed, rng.DOMAIN_SAMPLES, 4)
    nodes = hw[stream.integers(0, hw.size, size=samples)]
    outside, normalized = [], []
    for i, u in enumerate(nodes):
        u = int(u)
        fresh = overlay.draw_contact_targets(
            u, overlay.params.draws_per_node, tag=10_000_000 + i)
        frac = float(np.mean(graph.distances(u, fresh) > radius))
        outside.append(frac)
        normalized.append(frac * k * overlay.zvalue(u) / math.log(n))
    report = StatReport(
        experiment="fresh_contact",
        params={"n": n, "k": k, "q": overlay.params.q, "s": overlay.params.s,
                "alpha": alpha, "radius": radius, "theta": FRESH_THETA,
                "seed": seed, "samples": samples},
        columns=("radius", "empirical_p", "normalized", "seed", "samples"))
    report.rows.append((radius, float(np.mean(outside)),
                        float(np.mean(normalized)), seed, samples))
    return report


# -- diameter -------------------------------------------------------------


@dataclass(frozen=True)
class DiameterResult:
    value: int
    mode: str
    sources_evaluated: int


def _augmented_csr(graph: Graph, overlay: HighwayOverlay | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    if overlay is None:
        return graph.indptr, graph.indices
    ids = overlay.highway_ids
    rows = overlay.contact_rows(ids)
    r, c = np.nonzero(rows != ids[:, None])  # every cell but the padding
    heads = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    return _build_csr(graph.n, np.concatenate([heads, ids[r]]),
                      np.concatenate([graph.indices, rows[r, c]]))


def estimate_diameter(graph: Graph, overlay: HighwayOverlay | None,
                      mode: str = "exact", samples: int = 64,
                      seed: int = 0) -> DiameterResult:
    """Directed diameter of the graph augmented with long-range contacts.

    ``exact`` evaluates every source (refused above EXACT_DIAMETER_MAX_N
    nodes); ``sampled`` lower-bounds via sampled sources. Both take the
    largest eccentricity from the bit-parallel multi-source BFS kernel
    ``_max_eccentricity``, whose blocks of 64*W sources keep each
    level's (arcs, W) gather within BLOCK_CELLS words.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be exact or sampled")
    if mode == "exact" and graph.n > EXACT_DIAMETER_MAX_N:
        raise ValueError(f"exact diameter needs n <= "
                         f"{EXACT_DIAMETER_MAX_N}, got {graph.n}")
    sources = (np.arange(graph.n) if mode == "exact"
               else _sample_nodes(graph.n, samples, seed, tag=5))
    indptr, indices = _augmented_csr(graph, overlay)
    best = _max_eccentricity(indptr, indices, graph.n, sources)
    return DiameterResult(value=best, mode=mode,
                          sources_evaluated=len(sources))


# -- dimensionality ----------------------------------------------------------


@dataclass(frozen=True)
class DimEstimate:
    """Median best-fit growth dimension over sampled nodes."""

    alpha_median: float
    grid: tuple[float, float, float]  # (lo, hi, step)
    # (node, alpha, ratio, l_max): the node's fitted exponent; the spread
    # ratio max c / min c of c(l) = (|B_l| - 1) / l^alpha over the fitted
    # radii 1..L at that exponent; the largest radius whose ball holds
    # under half the graph
    per_node: list[tuple[int, float, float, int]]
    skipped: list[int]  # nodes whose usable radius l_max was < 3


FIT_TIE = 1e-9  # residuals this close to the minimum tie; smaller alpha wins
ALPHA_GRID_MAX_POINTS = 10_000  # the default grid has 351


def _fit_growth(excess: np.ndarray, grid: np.ndarray) -> tuple[float, float]:
    """Growth exponent of ball excesses |B_l| - 1 at radii l = 1..L.

    For each grid alpha, fits a*l^alpha + b*l^(alpha-1) + c*l^(alpha-2)
    (at most L - 1 of these terms) by relative least squares. An alpha
    qualifies when its leading term dominates at radius L, a > 0 and
    a >= |b|/L + |c|/L^2 (failing that, when a > 0; failing that, every
    alpha does): a vanishing a would let l^(alpha-2) carry the fit. The
    winner is the smallest qualifying alpha whose residual lies within
    FIT_TIE of their minimum; on a ring, 2l fits exactly at alpha = 1, 2
    and 3. Returns (alpha, spread ratio of excess / l^alpha at that
    alpha).
    """
    radii = np.arange(1, excess.size + 1, dtype=np.float64)
    terms = min(3, excess.size - 1)
    # relative residual: (l^alpha / y) * (a + b/l + c/l^2) - 1
    lower = radii[:, None] ** -np.arange(terms)[None, :]
    scale = radii[None, :] ** grid[:, None] / excess[None, :]
    design = scale[:, :, None] * lower[None, :, :]
    q, r = np.linalg.qr(design)  # least squares for design @ x = 1
    coef = np.linalg.solve(r, q.sum(axis=1)[:, :, None])[:, :, 0]
    resid = np.einsum("gij,gj->gi", design, coef) - 1.0
    cost = (resid ** 2).sum(axis=1)
    lead = coef[:, 0]
    tail = (np.abs(coef[:, 1:]) / radii[-1] ** np.arange(1, terms)).sum(axis=1)
    ok = (lead > 0) & (lead >= tail)
    if not ok.any():
        ok = lead > 0
    if not ok.any():
        ok[:] = True
    best = int(np.flatnonzero(ok & (cost <= cost[ok].min() + FIT_TIE))[0])
    c = excess / radii ** grid[best]
    return float(grid[best]), float(c.max() / c.min())


def estimate_alpha(graph: Graph, samples: int = 200,
                   alpha_grid: tuple[float, float, float] = (0.5, 4.0, 0.01),
                   seed: int = 0) -> DimEstimate:
    """Growth-dimension estimate from ball profiles.

    Per sampled node: l_max is the largest radius whose ball holds under
    half the graph; nodes with l_max < 3 are skipped. The exponent is
    fitted on radii 1..L, where L is the largest radius whose ball holds
    under an eighth of the graph, but at least 3. Fitting the excesses
    |B_l| - 1 with the two lower-order terms l^(alpha-1) and l^(alpha-2)
    beside l^alpha removes their pull toward a low exponent (on the
    infinite 2D lattice |B_l| - 1 = 2l^2 + 2l exactly), and the n/8 cap
    keeps the fit off radii where a small torus wraps. A profile is
    fitted once however many nodes share it. The estimate is the median
    of the per-node exponents.
    """
    lo, hi, step = alpha_grid
    if not (0 < lo <= hi and step > 0):
        raise ValueError("bad alpha grid")
    points = (hi - lo) / step + 1
    if not points <= ALPHA_GRID_MAX_POINTS:  # refuses inf and nan too
        raise ValueError(f"alpha grid {lo}:{hi}:{step} has {points:.3g} "
                         f"points, more than {ALPHA_GRID_MAX_POINTS}")
    decimals = max(0, int(round(-math.log10(step))) + 1)
    grid = np.round(np.arange(lo, hi + step / 2, step), decimals)
    nodes = _sample_nodes(graph.n, samples, seed, tag=6)
    half, eighth = graph.n / 2, graph.n / 8
    per_node, skipped = [], []
    fits: dict[bytes, tuple[float, float]] = {}
    for u in nodes:
        sizes = ball_profile(graph, int(u))
        l_max = int(np.count_nonzero(sizes[1:] < half))
        if l_max < 3:  # too few radii to fit a growth exponent
            skipped.append(int(u))
            continue
        fit_to = max(3, int(np.count_nonzero(sizes[1:] < eighth)))
        excess = sizes[1:fit_to + 1] - 1.0
        key = excess.tobytes()
        if key not in fits:
            fits[key] = _fit_growth(excess, grid)
        alpha, ratio = fits[key]
        per_node.append((int(u), alpha, ratio, l_max))
    if not per_node:
        raise ValueError("no sampled node had a usable ball profile")
    alpha_median = float(np.median([p[1] for p in per_node]))
    return DimEstimate(alpha_median=alpha_median, grid=alpha_grid,
                       per_node=per_node, skipped=skipped)


# -- clustering-exponent sweep ------------------------------------------------


def sweep_clustering_exponent(graph: Graph, k: float, q: float,
                              s_values: Sequence[float], pairs: int,
                              seed: int,
                              variant: str = "highway-sticky") -> StatReport:
    """Mean routing hops per clustering exponent s.

    Highway membership and the evaluated pairs are shared across all s
    (same seed), so the sweep isolates the effect of s on contacts.
    """
    ends = [pair[:2] for pair in sample_far_pairs(graph, pairs, seed)]
    report = StatReport(
        experiment="sweep_s",
        params={"n": graph.n, "k": k, "q": q, "pairs": pairs, "seed": seed,
                "variant": variant},
        columns=("s", "mean_hops", "ci95", "pairs", "seed", "samples"))
    for s in s_values:
        params = OverlayParams(k=k, q=q, s=float(s), seed=seed)
        overlay = build_overlay(graph, params, materialize=False)
        traces = route_batch(graph, overlay, ends, variant)
        hops = np.array([t.hops for t in traces], dtype=np.float64)
        ci95 = 1.96 * hops.std(ddof=1) / math.sqrt(len(hops))
        report.rows.append((float(s), float(hops.mean()), float(ci95),
                            pairs, seed, pairs))
    # ties break toward smaller s, so the winner is order-invariant
    report.params["argmin_s"] = min(report.rows,
                                    key=lambda r: (r[1], r[0]))[0]
    return report
