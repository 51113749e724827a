"""The four benchmark workloads and the checks on their outputs.

A workload is a ``setup`` (graph and overlay ready) and a ``body`` (the
routing and statistics phases). One pass runs both on fresh objects, so
lazily built caches (``HighwayOverlay._cache``, ``Graph._coords``) start
cold in every pass. Library calls go through module attributes at call
time, so a traced pass sees them through the tracer's wrappers.

Seeds: the workload seed ``w`` (default 1) is the seed of every sampling
step (far pairs, shells, diameter, alpha, the sweep); overlays use
``w + 6`` (default 7).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

from fgsw import analysis, cli, generators, overlay, routing
from fgsw.overlay import OverlayParams

VALIDATE_SAMPLE = 50  # traces per variant checked with validate_trace


@dataclass
class Pass:
    """Phase times, outputs and operation tally of one workload pass."""

    seed: int
    tmp_root: str
    tracer: object = None
    times: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # name -> bytes
    ops: int = 0
    failed: int = 0
    routed: int = 0
    failures: list = field(default_factory=list)

    @property
    def pair_seed(self) -> int:
        return self.seed

    @property
    def overlay_seed(self) -> int:
        return self.seed + 6

    @contextlib.contextmanager
    def phase(self, *names: str):
        """Time a block and add it to every named phase."""
        start = time.perf_counter()
        with self.span("bench." + "+".join(names)):
            yield
        elapsed = time.perf_counter() - start
        for name in names:
            self.times[name] = self.times.get(name, 0.0) + elapsed

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def op(self, ok: bool, what: str, n: int = 1) -> None:
        """Tally n operations (routed pairs, CLI commands or checks) that
        stand or fall together."""
        self.ops += n
        if not ok:
            self.failed += n
            if len(self.failures) < 20:
                self.failures.append(what)

    def output(self, name: str, value) -> None:
        """Record a result for the digest check, as canonical JSON."""
        self.outputs[name] = json.dumps(value, separators=(",", ":"),
                                        sort_keys=True).encode("ascii")

    def cli(self, argv: list[str]) -> None:
        """Run one ``fgsw`` command in-process, quietly, as one operation."""
        with self.span("cli." + argv[0]), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        self.op(code == 0, f"fgsw {argv[0]} exited with {code}")


def _route_checks(run: Pass, graph, ovl, far, traces: dict) -> None:
    """Record per-pair hops and check every routed pair.

    Plain and sticky walks never exceed d(s, t); an aware walk exceeds it
    by at most twice its detour to the highway. A sample of each variant
    is replayed with ``validate_trace``.
    """
    run.output("pairs", [list(p) for p in far])
    for variant, batch in traces.items():
        run.output(f"{variant}.hops",
                   [[t.hops, t.hops_to_highway, t.hops_on_highway,
                     t.hops_to_target] for t in batch])
        aware = variant == "highway-aware"
        for (s, t, d), tr in zip(far, batch, strict=True):
            bound = d + (2 * tr.hops_to_highway if aware else 0)
            ok = (tr.source, tr.target, tr.dist_st) == (s, t, d) \
                and tr.hops <= bound
            run.op(ok, f"{variant} {s}->{t}: {tr.hops} hops, d={d}")
        step = max(1, len(batch) // VALIDATE_SAMPLE)
        for tr in batch[::step][:VALIDATE_SAMPLE]:
            try:
                routing.validate_trace(graph, ovl, tr)
                run.op(True, "")
            except routing.RoutingError as exc:
                run.op(False, f"{variant} {tr.source}->{tr.target}: {exc}")


class TorusRoute:
    name = "torus-route"
    pairs = 120

    def setup(self, run: Pass):
        graph = generators.gen_lattice(2, 512)
        params = OverlayParams(k=math.ceil(math.log(graph.n)), q=2.0, s=2.0,
                               seed=run.overlay_seed)
        return graph, overlay.build_overlay(graph, params, materialize=False)

    def body(self, run: Pass, state):
        graph, ovl = state
        with run.phase("stats"):
            far = analysis.sample_far_pairs(graph, self.pairs, run.pair_seed)
        pairs = [(s, t) for s, t, _ in far]
        with run.phase("route"):
            traces = {v: routing.route_batch(graph, ovl, pairs, v)
                      for v in ("highway-sticky", "highway-aware")}
        run.routed += 2 * len(pairs)
        return graph, ovl, far, traces

    def check(self, run: Pass, result) -> None:
        _route_checks(run, *result)


class GasketSweep:
    name = "gasket-sweep"
    s_values = (1.585, 2.5)
    pairs = 40

    def setup(self, run: Pass):
        return generators.gen_sierpinski(9)

    def body(self, run: Pass, graph):
        # the sweep routes inside its own call: both phases are the sweep
        with run.phase("route", "stats"):
            report = analysis.sweep_clustering_exponent(
                graph, 10, 2.0, self.s_values, self.pairs, run.pair_seed)
        run.routed += self.pairs * len(self.s_values)
        return report

    def check(self, run: Pass, report) -> None:
        run.output("sweep", {"rows": [list(r) for r in report.rows],
                             "argmin_s": report.params["argmin_s"]})
        run.op([r[0] for r in report.rows] == list(self.s_values),
               "sweep rows do not follow the s values")
        for row in report.rows:  # one row stands for its routed pairs
            run.op(row[3] == self.pairs and math.isfinite(row[1])
                   and row[1] >= 1, f"bad sweep row {row}", n=self.pairs)
        run.op(report.params["argmin_s"] in self.s_values, "bad argmin_s")


class TorusHops:
    name = "torus-hops"
    side = 48
    pairs = 10000

    def setup(self, run: Pass):
        graph = generators.gen_lattice(2, self.side)
        params = OverlayParams(k=math.ceil(math.log(graph.n)), q=2.0, s=2.0,
                               seed=run.overlay_seed)
        return graph, overlay.build_overlay(graph, params)

    def body(self, run: Pass, state):
        graph, ovl = state
        with run.phase("stats"):
            far = analysis.sample_far_pairs(graph, self.pairs, run.pair_seed)
        pairs = [(s, t) for s, t, _ in far]
        with run.phase("route"):
            traces = {v: routing.route_batch(graph, ovl, pairs, v)
                      for v in routing.VARIANTS}
        run.routed += len(routing.VARIANTS) * len(pairs)
        with run.phase("stats"):
            diameter = analysis.estimate_diameter(graph, ovl, mode="exact")
        return graph, ovl, far, traces, diameter

    def check(self, run: Pass, result) -> None:
        graph, ovl, far, traces, diameter = result
        _route_checks(run, graph, ovl, far, traces)
        run.output("diameter", diameter.value)
        # contacts only add arcs, so the torus diameter bounds it
        run.op(1 <= diameter.value <= self.side
               and diameter.sources_evaluated == graph.n,
               f"bad diameter {diameter}")


class TorusCli:
    name = "torus-cli"
    side = 64
    pairs = 150
    files = ("graph.txt", "overlay.txt", "hops.csv", "shells.csv",
             "diameter.csv", "alpha.csv")

    def setup(self, run: Pass):
        d = tempfile.mkdtemp(prefix="cli-", dir=run.tmp_root)
        graph, ovl = (os.path.join(d, f) for f in self.files[:2])
        run.cli(["gen-lattice", "--dim", "2", "--side", str(self.side),
                 "--out", graph])
        run.cli(["augment", "--graph", graph, "--k", "auto", "--q", "2",
                 "--s", "2", "--seed", str(run.overlay_seed), "--out", ovl])
        return d

    def body(self, run: Pass, d):
        path = {f: os.path.join(d, f) for f in self.files}
        seed = str(run.pair_seed)
        both = ["--graph", path["graph.txt"], "--overlay", path["overlay.txt"]]
        with run.phase("route"):
            run.cli(["route-batch", *both, "--pairs", str(self.pairs),
                     "--seed", seed, "--threads", "2",
                     "--out", path["hops.csv"]])
        run.routed += self.pairs
        with run.phase("stats"):
            run.cli(["stats", "shells", *both, "--width", "4", "--b-max", "6",
                     "--samples", "200", "--seed", seed,
                     "--out", path["shells.csv"]])
            run.cli(["diameter", *both, "--mode", "sampled", "--samples",
                     "64", "--seed", seed, "--out", path["diameter.csv"]])
            run.cli(["estimate-alpha", "--graph", path["graph.txt"],
                     "--samples", "200", "--seed", seed,
                     "--out", path["alpha.csv"]])
        return d

    def check(self, run: Pass, d) -> None:
        for f in self.files:
            p = os.path.join(d, f)
            exists = os.path.exists(p)
            run.op(exists, f"{f} missing")
            if exists:
                with open(p, "rb") as fh:
                    run.outputs[f] = fh.read()
        rows = list(csv.DictReader(
            io.StringIO(run.outputs.get("hops.csv", b"").decode())))
        run.op(len(rows) == self.pairs,
               f"hops.csv has {len(rows)} rows, wanted {self.pairs}")
        for r in rows:
            run.op(int(r["hops"]) <= int(r["dist_st"]),
                   f"sticky hops above d(s, t): {r}")


WORKLOADS = {w.name: w for w in (TorusRoute(), GasketSweep(), TorusCli(),
                                 TorusHops())}
