"""Command-line interface.

Progress goes to stdout; data artifacts go to the files named by the
flags. Exit codes: 0 success, 1 usage error, 2 data error. Routing
runs on one thread: ``--threads`` is accepted and ignored, and a value
below 1 is a data error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, analysis, generators, overlay, routing
from .graph import Graph, GraphFormatError
from .overlay import HighwayOverlay, OverlayError, OverlayParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_THREADS_HELP = "accepted and ignored: routing runs on one thread"


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _resolve_k(spec: str, n: int) -> float:
    if spec == "auto":
        return float(math.ceil(math.log(n)))
    return float(spec)


def _number_list(text: str, flag: str, kind=float) -> list:
    """The numbers of a comma-separated flag value, empty items skipped;
    an empty or non-numeric list is a data error that names the flag."""
    try:
        values = [kind(item) for item in text.split(",") if item]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{flag} needs comma-separated {kind.__name__} "
                         f"values, got {text!r}")
    return values


def _load_pair(args) -> tuple[Graph, HighwayOverlay]:
    graph = Graph.load(args.graph)
    ovl = HighwayOverlay.load(graph, args.overlay)
    return graph, ovl


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fgsw", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-lattice", help="generate a lattice graph")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--side", type=int, required=True)
    wrap = p.add_mutually_exclusive_group()
    wrap.add_argument("--wrap", dest="wrap", action="store_true", default=True)
    wrap.add_argument("--no-wrap", dest="wrap", action="store_false")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-sierpinski", help="generate a Sierpinski gasket")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("import-dimacs", help="import a DIMACS sp file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--map-out", required=True,
                   help="renumbering map CSV (new_id,original_id)")

    p = sub.add_parser("augment", help="sample a highway overlay")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", required=True, help="highway constant or `auto`")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("route", help="route one pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--overlay", required=True)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--variant", choices=routing.VARIANTS,
                   default="highway-sticky")
    p.add_argument("--out", help="optional one-row trace CSV")

    p = sub.add_parser("route-batch", help="route sampled far pairs")
    p.add_argument("--graph", required=True)
    p.add_argument("--overlay", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", choices=routing.VARIANTS,
                   default="highway-sticky")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", required=True)

    p = sub.add_parser("stats", help="overlay structure statistics")
    p.add_argument("kind", choices=("balls", "shells", "z", "highway-dist",
                                    "improve", "fresh"))
    p.add_argument("--graph", required=True)
    p.add_argument("--overlay", required=True)
    p.add_argument("--alpha", type=float, default=2.0,
                   help="growth dimension used in the scale terms")
    p.add_argument("--c", type=float, default=2.0,
                   help="radius factor (balls)")
    p.add_argument("--c-list", default="2,4,8,16",
                   help="improvement factors (improve)")
    p.add_argument("--width", type=int, default=4, help="shell width")
    p.add_argument("--b-max", type=int, default=8)
    p.add_argument("--b-min", type=int, default=1)
    p.add_argument("--radius", type=int, default=4, help="ball radius (fresh)")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("diameter", help="diameter of the augmented graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--overlay")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional one-row result CSV")

    p = sub.add_parser("estimate-alpha", help="growth-dimension estimate")
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--grid", default="0.5:4.0:0.01", help="lo:hi:step")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="optional per-node CSV")

    p = sub.add_parser("sweep-s", help="mean hops per clustering exponent")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s-list", required=True, help="comma separated")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--variant", choices=routing.VARIANTS,
                   default="highway-sticky")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("scaling", help="mean hops across lattice sizes")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--sides", required=True, help="comma separated")
    p.add_argument("--k", default="auto")
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--variant", choices=routing.VARIANTS,
                   default="highway-sticky")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out", required=True)

    return parser


def _cmd_gen_lattice(args) -> int:
    graph = generators.gen_lattice(args.dim, args.side, wrap=args.wrap)
    graph.save(args.out)
    print(f"lattice dim={args.dim} side={args.side} wrap={args.wrap}: "
          f"n={graph.n} m={graph.m} -> {args.out}")
    return EXIT_OK


def _cmd_gen_sierpinski(args) -> int:
    graph = generators.gen_sierpinski(args.level)
    graph.save(args.out)
    print(f"sierpinski level={args.level}: n={graph.n} m={graph.m} "
          f"-> {args.out}")
    return EXIT_OK


def _cmd_import_dimacs(args) -> int:
    result = generators.import_dimacs(args.input)
    result.graph.save(args.out)
    result.write_renumber_map(args.map_out)
    print(f"imported {args.input}: kept n={result.graph.n} "
          f"m={result.graph.m}, dropped {result.dropped_nodes} of "
          f"{result.file_nodes} nodes -> {args.out}, {args.map_out}")
    return EXIT_OK


def _cmd_augment(args) -> int:
    graph = Graph.load(args.graph)
    params = OverlayParams(k=_resolve_k(args.k, graph.n), q=args.q,
                           s=args.s, seed=args.seed)
    ovl = overlay.build_overlay(graph, params)
    ovl.save(args.out)
    print(f"overlay k={params.k} q={params.q} s={params.s} "
          f"seed={params.seed} epoch={ovl.epoch}: "
          f"{ovl.highway_ids.size} highway nodes -> {args.out}")
    return EXIT_OK


def _cmd_route(args) -> int:
    graph, ovl = _load_pair(args)
    trace = routing.route(graph, ovl, args.source, args.target, args.variant)
    print(f"{args.variant} {args.source}->{args.target}: hops={trace.hops} "
          f"(to-highway={trace.hops_to_highway} "
          f"on-highway={trace.hops_on_highway} "
          f"to-target={trace.hops_to_target}) dist={trace.dist_st}")
    if args.out:
        routing.write_trace_csv([trace], args.out)
        print(f"trace -> {args.out}")
    return EXIT_OK


def _cmd_route_batch(args) -> int:
    graph, ovl = _load_pair(args)
    pairs = [(s, t) for s, t, _ in
             analysis.sample_far_pairs(graph, args.pairs, args.seed)]
    traces = routing.route_batch(graph, ovl, pairs, args.variant)
    routing.write_trace_csv(traces, args.out)
    mean = sum(t.hops for t in traces) / len(traces)
    print(f"{len(traces)} pairs, mean hops {mean:.2f} -> {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    graph, ovl = _load_pair(args)
    if args.kind == "balls":
        report = analysis.ball_highway_stats(graph, ovl, args.c, args.samples,
                                             args.alpha, args.seed)
    elif args.kind == "shells":
        report = analysis.shell_highway_stats(graph, ovl, args.width,
                                              args.b_max, args.samples,
                                              args.seed, b_min=args.b_min)
    elif args.kind == "z":
        report = analysis.z_stats(graph, ovl)
    elif args.kind == "highway-dist":
        report = analysis.highway_distance_stats(graph, ovl, args.alpha)
    elif args.kind == "improve":
        c_values = _number_list(args.c_list, "--c-list")
        report = analysis.improvement_probability(graph, ovl, c_values,
                                                  args.samples, args.alpha,
                                                  args.seed)
    else:
        report = analysis.fresh_contact_probability(graph, ovl, args.radius,
                                                    args.samples, args.alpha,
                                                    args.seed)
    report.write_csv(args.out)
    print(f"{report.experiment}: {len(report.rows)} rows -> {args.out}")
    return EXIT_OK


def _cmd_diameter(args) -> int:
    graph = Graph.load(args.graph)
    ovl = HighwayOverlay.load(graph, args.overlay) if args.overlay else None
    result = analysis.estimate_diameter(graph, ovl, mode=args.mode,
                                        samples=args.samples, seed=args.seed)
    label = "augmented" if ovl is not None else "underlying"
    # a sampled run only lower-bounds the true diameter
    kind = "exact" if result.mode == "exact" else "sampled_lower_bound"
    print(f"{label} diameter ({kind}, "
          f"{result.sources_evaluated} sources): {result.value}")
    if args.out:
        report = analysis.StatReport(
            experiment="diameter",
            params={"n": graph.n, "graph_role": label, "mode": args.mode,
                    "seed": args.seed,
                    "samples": result.sources_evaluated},
            columns=("diameter", "kind", "sources", "seed", "samples"))
        report.rows.append((result.value, kind, result.sources_evaluated,
                            args.seed, result.sources_evaluated))
        report.write_csv(args.out)
        print(f"diameter -> {args.out}")
    return EXIT_OK


def _cmd_estimate_alpha(args) -> int:
    graph = Graph.load(args.graph)
    parts = args.grid.split(":")
    if len(parts) != 3:
        raise ValueError("--grid must be lo:hi:step")
    grid = (float(parts[0]), float(parts[1]), float(parts[2]))
    est = analysis.estimate_alpha(graph, samples=args.samples,
                                  alpha_grid=grid, seed=args.seed)
    print(f"alpha median {est.alpha_median:.2f} over {len(est.per_node)} "
          f"nodes (grid {args.grid}, {len(est.skipped)} skipped)")
    if args.out:
        report = analysis.StatReport(
            experiment="estimate_alpha",
            params={"n": graph.n, "grid": args.grid, "seed": args.seed,
                    "samples": len(est.per_node),
                    "skipped": len(est.skipped),
                    "alpha_median": est.alpha_median},
            columns=("node", "best_alpha", "ratio", "l_max",
                     "seed", "samples"))
        for node, alpha, ratio, l_max in est.per_node:
            report.rows.append((node, alpha, f"{ratio:.17g}", l_max,
                                args.seed, len(est.per_node)))
        report.write_csv(args.out)
        print(f"alpha -> {args.out}")
    return EXIT_OK


def _cmd_sweep_s(args) -> int:
    graph = Graph.load(args.graph)
    s_values = _number_list(args.s_list, "--s-list")
    report = analysis.sweep_clustering_exponent(
        graph, _resolve_k(args.k, graph.n), args.q, s_values,
        args.pairs, args.seed, variant=args.variant)
    report.write_csv(args.out)
    for row in report.rows:
        print(f"s={row[0]}: mean hops {row[1]:.2f} +- {row[2]:.2f}")
    print(f"sweep -> {args.out}")
    return EXIT_OK


def _cmd_scaling(args) -> int:
    sides = _number_list(args.sides, "--sides", int)
    report = analysis.StatReport(
        experiment="scaling",
        params={"dim": args.dim, "sides": args.sides, "k": args.k,
                "q": args.q, "s": args.s, "pairs": args.pairs,
                "variant": args.variant, "seed": args.seed,
                "n": sides[-1] ** args.dim},
        columns=("side", "n", "k", "ln_n", "mean_hops", "mean_to_highway",
                 "mean_on_highway", "mean_to_target", "seed", "samples"))
    for side in sides:
        graph = generators.gen_lattice(args.dim, side, wrap=True)
        k = _resolve_k(args.k, graph.n)
        params = OverlayParams(k=k, q=args.q, s=args.s, seed=args.seed)
        ovl = overlay.build_overlay(graph, params, materialize=False)
        pairs = [(s, t) for s, t, _ in
                 analysis.sample_far_pairs(graph, args.pairs, args.seed)]
        traces = routing.route_batch(graph, ovl, pairs, args.variant)
        means = [sum(getattr(t, col) for t in traces) / len(traces)
                 for col in ("hops", "hops_to_highway", "hops_on_highway",
                             "hops_to_target")]
        report.rows.append((side, graph.n, k, math.log(graph.n), *means,
                            args.seed, len(traces)))
        print(f"side {side}: n={graph.n} k={k} "
              f"mean hops {report.rows[-1][4]:.2f}")
    report.write_csv(args.out)
    print(f"scaling -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen-lattice": _cmd_gen_lattice,
    "gen-sierpinski": _cmd_gen_sierpinski,
    "import-dimacs": _cmd_import_dimacs,
    "augment": _cmd_augment,
    "route": _cmd_route,
    "route-batch": _cmd_route_batch,
    "stats": _cmd_stats,
    "diameter": _cmd_diameter,
    "estimate-alpha": _cmd_estimate_alpha,
    "sweep-s": _cmd_sweep_s,
    "scaling": _cmd_scaling,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be >= 1")
        return _COMMANDS[args.command](args)
    except (GraphFormatError, OverlayError, routing.RoutingError,
            ValueError, OSError) as exc:
        print(f"fgsw: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
