"""The benchmark's span tracer still patches every function it names.

``perfbench/tracer.py`` replaces fgsw functions by name and by call
signature, so a rename or signature change in the package would
otherwise break only the benchmark's traced run, not this suite.
"""

import importlib
import sys
from pathlib import Path

import fgsw

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def bindings():
    """Every name bound in an fgsw module or in one of its classes."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "fgsw" or key.startswith("fgsw.")):
            continue
        for name, value in vars(mod).items():
            out[key, name] = value
            if isinstance(value, type) and value.__module__ == key:
                for attr, raw in vars(value).items():
                    out[key, name, attr] = raw
    return out


def test_tracer_patches_every_traced_name_and_restores_it(monkeypatch,
                                                          tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    before = bindings()
    originals = {(m, p): resolve(m, p) for _, m, p, _ in tracer.TRACED}
    tr = tracer.Tracer()
    with tr.patched():
        for (module, path), fn in originals.items():
            assert resolve(module, path) is not fn, (module, path)
        # one call through each special wrapper's fixed signature
        g = fgsw.gen_lattice(1, 32)
        g.save(tmp_path / "g.txt")
        g = fgsw.Graph.load(tmp_path / "g.txt")
        params = fgsw.OverlayParams(k=2, q=2, s=1, seed=1)
        fgsw.build_overlay(g, params).save(tmp_path / "o.ov")
        fgsw.HighwayOverlay.load(g, tmp_path / "o.ov")
        ov = fgsw.build_overlay(g, params, materialize=False)
        pairs = [(s, t) for s, t, _ in fgsw.sample_far_pairs(g, 4, seed=1)]
        fgsw.route(g, ov, *pairs[0])
        fgsw.route_batch(g, ov, pairs)
        g.distance_row(0)
        fresh = fgsw.build_overlay(g, params, materialize=False)
        fresh.contacts(int(fresh.highway_ids[0]))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    calls = {name: agg["calls"] for name, agg in tr.aggregate().items()}
    for name in ("io.graph_load", "graph.closed_row", "overlay.materialize",
                 "overlay.materialize_all", "io.overlay_load",
                 "routing.route", "routing.route_batch",
                 "analysis.sample_far_pairs", "rng.substream"):
        assert calls.get(name, 0) > 0, name
    counters = tr.counters()
    assert counters["routing.hops"] > 0
    assert counters["overlay.contacts.misses"] > 0
