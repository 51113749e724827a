"""In-memory span tracer for the fgsw benchmark's traced run.

While a ``Tracer.patched()`` block is open, every public function of the
fgsw modules listed in ``TRACED`` is replaced by a wrapper that records a
span: name, start, end, parent span and thread. A function is replaced
everywhere a caller looks it up: each fgsw module (and the package
namespace) that binds it by name, or the class for methods. Patching only
``routing.route`` would miss the calls ``analysis`` makes through its own
``route`` binding.

Each thread keeps its own span stack, so spans recorded on
``route_batch``'s pool threads nest correctly; a pool thread's outermost
span takes the main thread's innermost open span as its parent. Spans and
counters stay in per-thread buffers until ``aggregate()`` turns them into
per-name call counts, self times and inclusive times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from array import array

import numpy as np

_clock = time.perf_counter

# (span name, module, attribute path, special wrapper or None).
# Left out on purpose: the per-hop accessors Graph.neighbors / degree / m
# (tracing them would charge the tracer's own cost to routing), and
# Graph.component_count and rng.stream_key, whose time belongs to their
# only callers, Graph.from_edges and rng.substream.
TRACED = (
    ("graph.from_edges", "fgsw.graph", "Graph.from_edges", None),
    ("graph.distance_row", "fgsw.graph", "Graph.distance_row", "distance_row"),
    ("graph.eccentricity", "fgsw.graph", "Graph.eccentricity", None),
    ("io.graph_save", "fgsw.graph", "Graph.save", None),
    ("io.graph_load", "fgsw.graph", "Graph.load", "graph_load"),
    ("graph.bfs", "fgsw.graph", "bfs", None),
    ("graph.multi_source_bfs", "fgsw.graph", "multi_source_bfs", None),
    ("graph.ball", "fgsw.graph", "ball", None),
    ("graph.ball_profile", "fgsw.graph", "ball_profile", None),
    ("graph.shell", "fgsw.graph", "shell", None),
    ("graph.pack_independent_balls", "fgsw.graph", "pack_independent_balls",
     None),
    ("generators.gen_lattice", "fgsw.generators", "gen_lattice", None),
    ("generators.gen_sierpinski", "fgsw.generators", "gen_sierpinski", None),
    ("generators.import_dimacs", "fgsw.generators", "import_dimacs", None),
    ("rng.substream", "fgsw.rng", "substream", "substream"),
    ("overlay.sample_membership", "fgsw.overlay", "sample_highway_membership",
     None),
    ("overlay.build", "fgsw.overlay", "build_overlay", None),
    ("overlay.materialize", "fgsw.overlay", "HighwayOverlay._materialize",
     "materialize"),
    ("overlay.contacts", "fgsw.overlay", "HighwayOverlay.contacts",
     "contacts"),
    ("overlay.zvalue", "fgsw.overlay", "HighwayOverlay.zvalue", None),
    ("overlay.zvalues", "fgsw.overlay", "HighwayOverlay.zvalues", None),
    ("overlay.contact_distribution", "fgsw.overlay",
     "HighwayOverlay.contact_distribution", None),
    ("overlay.draw_contact_targets", "fgsw.overlay",
     "HighwayOverlay.draw_contact_targets", None),
    ("overlay.materialize_all", "fgsw.overlay",
     "HighwayOverlay.materialize_all", None),
    ("overlay.nearest_highway", "fgsw.overlay",
     "HighwayOverlay.nearest_highway", None),
    ("io.overlay_save", "fgsw.overlay", "HighwayOverlay.save", None),
    ("io.overlay_load", "fgsw.overlay", "HighwayOverlay.load", None),
    ("routing.route", "fgsw.routing", "route", "route"),
    ("routing.route_batch", "fgsw.routing", "route_batch", None),
    ("routing.validate_trace", "fgsw.routing", "validate_trace", None),
    ("io.csv_write", "fgsw.routing", "write_trace_csv", None),
    ("io.csv_write", "fgsw.analysis", "StatReport.write_csv", None),
    ("analysis.reference_eccentricity", "fgsw.analysis",
     "reference_eccentricity", None),
    ("analysis.sampled_radius", "fgsw.analysis", "sampled_radius", None),
    ("analysis.sample_far_pairs", "fgsw.analysis", "sample_far_pairs",
     "far_pairs"),
    ("analysis.ball_highway_stats", "fgsw.analysis", "ball_highway_stats",
     None),
    ("analysis.shell_highway_stats", "fgsw.analysis", "shell_highway_stats",
     None),
    ("analysis.z_stats", "fgsw.analysis", "z_stats", None),
    ("analysis.highway_distance_stats", "fgsw.analysis",
     "highway_distance_stats", None),
    ("analysis.improvement_probability", "fgsw.analysis",
     "improvement_probability", None),
    ("analysis.fresh_contact_probability", "fgsw.analysis",
     "fresh_contact_probability", None),
    ("analysis.estimate_diameter", "fgsw.analysis", "estimate_diameter",
     None),
    ("analysis.estimate_alpha", "fgsw.analysis", "estimate_alpha", None),
    ("analysis.sweep", "fgsw.analysis", "sweep_clustering_exponent", None),
)

# distance_row is split by the path it takes inside the graph layer
BFS_ROW = "graph.bfs_row"
CLOSED_ROW = "graph.closed_row"


class _ThreadLog:
    """Open-span stack, finished spans and counters of one thread."""

    def __init__(self):
        self.stack: list[int] = []
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, int] = {}


class Tracer:
    """Span recorder; create one per traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._next_id = itertools.count()
        self._names: dict[str, int] = {}
        self._main = self._log()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def name_id(self, name: str) -> int:
        with self._lock:
            return self._names.setdefault(name, len(self._names))

    def count(self, key: str, n: int = 1) -> None:
        counters = self._log().counters
        counters[key] = counters.get(key, 0) + n

    def _open(self, log: _ThreadLog) -> tuple[int, int]:
        """Push a new span on the thread's stack; return (id, parent).

        A pool thread's outermost span takes the main thread's innermost
        open span as its parent."""
        if log.stack:
            parent = log.stack[-1]
        elif log is self._main:
            parent = -1
        else:
            try:
                parent = self._main.stack[-1]
            except IndexError:
                parent = -1
        sid = next(self._next_id)
        log.stack.append(sid)
        return sid, parent

    @staticmethod
    def _close(log: _ThreadLog, sid: int, parent: int, name_id: int,
               start: float) -> None:
        end = _clock()
        log.stack.pop()
        log.ids.append(sid)
        log.parents.append(parent)
        log.names.append(name_id)
        log.starts.append(start)
        log.ends.append(end)

    def call(self, name_id: int, fn, args, kwargs):
        log = self._log()
        sid, parent = self._open(log)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(log, sid, parent, name_id, start)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        log = self._log()
        name_id = self.name_id(name)
        sid, parent = self._open(log)
        start = _clock()
        try:
            yield
        finally:
            self._close(log, sid, parent, name_id, start)

    # -- patching ---------------------------------------------------------

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers of ``TRACED``; restore the originals on
        exit."""
        restore: list[tuple[object, str, object]] = []
        try:
            for name, module, path, special in TRACED:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                if isinstance(owner, type):
                    raw = vars(owner)[attr]
                    is_cm = isinstance(raw, classmethod)
                    fn = raw.__func__ if is_cm else raw
                    wrapper = self._wrapper(name, fn, special)
                    restore.append((owner, attr, raw))
                    setattr(owner, attr,
                            classmethod(wrapper) if is_cm else wrapper)
                    continue
                fn = getattr(owner, attr)
                wrapper = self._wrapper(name, fn, special)
                for mod in _fgsw_modules():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            restore.append((mod, key, fn))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrapper(self, name: str, fn, special: str | None):
        call, count = self.call, self.count
        nid = self.name_id(name)

        if special is None:
            def wrapper(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        elif special == "distance_row":
            bfs, closed = self.name_id(BFS_ROW), self.name_id(CLOSED_ROW)

            def wrapper(graph, u):
                row = bfs if graph.lattice_hint is None else closed
                return call(row, fn, (graph, u), {})
        elif special == "materialize":
            # only a cache miss builds a contact list; hits stay unrecorded
            def wrapper(ovl, u):
                if u in ovl._cache:
                    return fn(ovl, u)
                return call(nid, fn, (ovl, u), {})
        elif special == "contacts":
            # counters only, no span: routing calls this on every highway
            # hop, and a span's own cost would land in route's self time.
            # A miss's build is timed by the _materialize span.
            def wrapper(ovl, u):
                count("overlay.contacts.hits" if u in ovl._cache
                      else "overlay.contacts.misses")
                return fn(ovl, u)
        elif special == "route":
            def wrapper(*args, **kwargs):
                trace = call(nid, fn, args, kwargs)
                count("routing.hops", trace.hops)
                count("routing.long_hops", trace.edge_kinds.count("long-range"))
                return trace
        elif special == "substream":
            def wrapper(master_seed, *path):
                count(f"rng.substream.domain{path[0] if path else 'none'}")
                return call(nid, fn, (master_seed,) + path, {})
        elif special == "far_pairs":
            def wrapper(*args, **kwargs):
                pairs = call(nid, fn, args, kwargs)
                count("analysis.far_pairs.pairs", len(pairs))
                return pairs
        elif special == "graph_load":
            def wrapper(cls, path):
                count("io.graph_load.bytes", os.path.getsize(path))
                return call(nid, fn, (cls, path), {})
        else:
            raise ValueError(f"unknown wrapper {special!r}")
        return functools.wraps(fn)(wrapper)

    # -- results ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All finished spans as parallel arrays, ordered by span id."""
        with self._lock:
            logs = list(self._logs)
        ids = np.concatenate([np.frombuffer(l.ids, np.int64) for l in logs])
        order = np.argsort(ids, kind="stable")
        cat = lambda attr, dt: np.concatenate(
            [np.frombuffer(getattr(l, attr), dt) for l in logs])[order]
        thread = np.concatenate([np.full(len(l.ids), i, np.int32)
                                 for i, l in enumerate(logs)])[order]
        return {"id": ids[order], "parent": cat("parents", np.int64),
                "name": cat("names", np.uint16),
                "start": cat("starts", np.float64),
                "end": cat("ends", np.float64), "thread": thread}

    def names(self) -> list[str]:
        return sorted(self._names, key=self._names.__getitem__)

    def counters(self) -> dict[str, int]:
        total: dict[str, int] = {}
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for key, value in log.counters.items():
                total[key] = total.get(key, 0) + value
        return total

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and total_s.

        Self time is a span's duration minus the part of its interval its
        children cover. Children on the span's own thread never overlap;
        children adopted from pool threads may, so their cover is the
        union of their intervals.
        """
        sp = self.spans()
        n = sp["id"].size
        if n == 0:
            return {}
        if not np.array_equal(sp["id"], np.arange(n)):
            raise RuntimeError("span ids are not contiguous")
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.flatnonzero(has_parent)
        parent = sp["parent"][child]
        same = sp["thread"][child] == sp["thread"][parent]
        cover = np.bincount(parent[same], weights=dur[child[same]],
                            minlength=n)
        adopted: dict[int, list[int]] = {}
        for c, p in zip(child[~same].tolist(), parent[~same].tolist()):
            adopted.setdefault(p, []).append(c)
        for p, kids in adopted.items():
            lo, hi = sp["start"][p], sp["end"][p]
            spans = sorted((max(lo, sp["start"][c]), min(hi, sp["end"][c]))
                           for c in kids)
            covered, cur_lo, cur_hi = 0.0, None, None
            for a, b in spans:
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cover[p] += covered
        self_time = dur - cover
        names = self.names()
        k = len(names)
        calls = np.bincount(sp["name"], minlength=k)
        self_s = np.bincount(sp["name"], weights=self_time, minlength=k)
        total_s = np.bincount(sp["name"], weights=dur, minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                       "total_s": float(total_s[i])}
                for i, name in enumerate(names)}

    def rows_within(self, outer: str) -> int:
        """Distance rows recorded inside spans named ``outer``."""
        sp = self.spans()
        ids = self._names
        if outer not in ids:
            return 0
        rows = np.isin(sp["name"], [ids[r] for r in (BFS_ROW, CLOSED_ROW)
                                    if r in ids])
        total = 0
        for i in np.flatnonzero(sp["name"] == ids[outer]):
            inside = (rows & (sp["thread"] == sp["thread"][i])
                      & (sp["start"] >= sp["start"][i])
                      & (sp["end"] <= sp["end"][i]))
            total += int(inside.sum())
        return total

    def save(self, path) -> None:
        """Write every span (and the name table) as a numpy archive."""
        np.savez_compressed(path, names=np.array(self.names()),
                            **self.spans())


def _fgsw_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "fgsw" or key.startswith("fgsw."))]


def layer_metrics(tracer: Tracer, untraced_wall: float,
                  traced_wall: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass.

    A layer that did not run reports 0 (calls, times and the ratios
    built on them).
    """
    agg, counters = tracer.aggregate(), tracer.counters()

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for span, key in ((BFS_ROW, "graph.bfs_row"),
                      (CLOSED_ROW, "graph.closed_row")):
        m[f"{key}.calls"] = get(span, "calls")
        m[f"{key}.self_s"] = get(span, "self_s")
        m[f"{key}.us_per_call"] = ratio(1e6 * get(span, "self_s"),
                                        get(span, "calls"))
    for span in ("graph.from_edges", "graph.multi_source_bfs",
                 "graph.ball_profile", "overlay.nearest_highway",
                 "overlay.build", "rng.substream",
                 "routing.route", "routing.route_batch",
                 "analysis.sample_far_pairs", "analysis.sweep",
                 "analysis.estimate_diameter", "analysis.estimate_alpha",
                 "analysis.shell_highway_stats"):
        m[f"{span}.self_s"] = get(span, "self_s")
    for span in ("graph.ball_profile", "rng.substream", "routing.route"):
        m[f"{span}.calls"] = get(span, "calls")

    built = get("overlay.materialize", "calls")
    m["overlay.materialized"] = built
    m["overlay.materialize.us_per_node"] = ratio(
        1e6 * get("overlay.materialize", "total_s"), built)
    hits = counters.get("overlay.contacts.hits", 0)
    m["overlay.contacts.calls"] = calls = hits + counters.get(
        "overlay.contacts.misses", 0)
    m["overlay.contacts.hit_ratio"] = ratio(hits, calls)

    hops = counters.get("routing.hops", 0)
    m["routing.hops"] = hops
    m["routing.us_per_hop"] = ratio(1e6 * get("routing.route", "self_s"),
                                    hops)
    m["routing.long_hop_frac"] = ratio(counters.get("routing.long_hops", 0),
                                       hops)
    m["analysis.far_pairs.rows_per_pair"] = ratio(
        tracer.rows_within("analysis.sample_far_pairs"),
        counters.get("analysis.far_pairs.pairs", 0))

    for op in ("graph_load", "graph_save", "overlay_load", "overlay_save",
               "csv_write"):
        m[f"io.{op}.s"] = get(f"io.{op}", "total_s")
    m["io.graph_load.mb_per_s"] = ratio(
        counters.get("io.graph_load.bytes", 0) / 1e6,
        get("io.graph_load", "total_s"))
    for command in ("gen-lattice", "augment", "route-batch", "stats",
                    "diameter", "estimate-alpha"):
        m[f"cli.{command}.s"] = get(f"cli.{command}", "total_s")
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m
