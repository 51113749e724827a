"""Randomized highway overlays and greedy routing on fixed-growth graphs."""

__version__ = "0.1.0"

from .graph import (Graph, GraphFormatError, LatticeHint, ball,
                    ball_profile, bfs, multi_source_bfs,
                    pack_independent_balls, shell)
from .generators import DimacsImport, gen_lattice, gen_sierpinski, import_dimacs
from .overlay import (HighwayOverlay, OverlayError, OverlayParams,
                      build_overlay, sample_highway_membership)
from .routing import (RoutingError, RoutingTrace, route, route_batch,
                      validate_trace, write_trace_csv)
from .analysis import (DiameterResult, DimEstimate, StatReport,
                       ball_highway_stats, estimate_alpha, estimate_diameter,
                       fresh_contact_probability, highway_distance_stats,
                       improvement_probability, sample_far_pairs,
                       shell_highway_stats, sweep_clustering_exponent,
                       z_stats)

__all__ = [
    "Graph", "GraphFormatError", "LatticeHint",
    "ball", "ball_profile", "bfs", "multi_source_bfs",
    "pack_independent_balls", "shell",
    "DimacsImport", "gen_lattice", "gen_sierpinski", "import_dimacs",
    "HighwayOverlay", "OverlayError", "OverlayParams", "build_overlay",
    "sample_highway_membership",
    "RoutingError", "RoutingTrace", "route", "route_batch",
    "validate_trace", "write_trace_csv",
    "DiameterResult", "DimEstimate", "StatReport", "ball_highway_stats",
    "estimate_alpha", "estimate_diameter", "fresh_contact_probability",
    "highway_distance_stats", "improvement_probability", "sample_far_pairs",
    "shell_highway_stats", "sweep_clustering_exponent", "z_stats",
    "__version__",
]
