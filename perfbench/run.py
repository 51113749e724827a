"""fgsw benchmark: four workloads, end-to-end time to result, traced
per-layer spans.

Run from the repository root:

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload torus-route --seed 1 --seconds 16 \
        --trace 0

Each workload runs in a fresh interpreter. An untraced run (``--trace 0``)
runs whole passes of the workload until at least ``MIN_PASSES`` have run
and their measured time reaches ``--seconds``, checks every pass's outputs
outside the timed region and prints the end-to-end metrics of
``BENCHMARK.json``. A traced run (``--trace 1``) runs two untraced passes
and one traced pass and prints the per-layer metrics. The last line of
standard output is one JSON object; the full record (environment, per-pass
times, output digests, counters) goes to ``.perfbench_out/``. See
perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "digests.json")
# An untraced run measures at least MIN_PASSES whole passes and goes on
# until they add up to --seconds. Each pass sets up afresh. After each
# pass the set-up alone is repeated, timed as one region, until that
# region lasts BLOCK_SECONDS (at least once); with the pass's own set-up
# it forms one block, and setup_s is the median of the block means.
MIN_PASSES = 3
BLOCK_SECONDS = 0.3


def import_fgsw():
    """Import fgsw from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import fgsw
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fgsw from {SRC}: {exc}")
    if not os.path.abspath(fgsw.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: fgsw came from {fgsw.__file__}, "
                         f"not from {SRC}")
    return fgsw


def environment(fgsw) -> dict:
    import numpy
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "fgsw": fgsw.__version__, "commit": commit}


def run_pass(workload, seed: int, tmp: str, tracer=None):
    from workloads import Pass
    run = Pass(seed, tmp, tracer)
    start = time.perf_counter()
    with run.phase("setup"):
        state = workload.setup(run)
    result = workload.body(run, state)
    run.times["wall"] = time.perf_counter() - start
    return run, result


def digests(run, reference: dict | None) -> dict:
    """SHA-256 of every output; each comparison with the reference is an
    operation of the pass."""
    got = {k: hashlib.sha256(v).hexdigest()
           for k, v in sorted(run.outputs.items())}
    if reference is not None:
        for key in sorted(set(got) | set(reference)):
            run.op(got.get(key) == reference.get(key),
                   f"digest of {key} differs from the reference")
    return got


def load_reference(workload: str, seed: int) -> dict | None:
    with open(REFERENCE, encoding="ascii") as fh:
        ref = json.load(fh)
    return ref["workloads"].get(workload) if seed == ref["seed"] else None


def measure(workload, seed: int, seconds: float, tmp: str) -> dict:
    """Time whole passes and set-up blocks.

    The host's speed drifts over seconds to minutes, so the pass times
    are pooled: wall_s and stats_s are the measured time per pass and
    pairs_per_s is all pairs routed over all routing time of the run."""
    from workloads import Pass
    reference = load_reference(workload.name, seed)
    passes, blocks, first = [], [], None
    ops = failed = 0
    while (len(passes) < MIN_PASSES
           or sum(p.times["wall"] for p in passes) < seconds):
        run, result = run_pass(workload, seed, tmp)
        workload.check(run, result)
        del result
        got = digests(run, reference)
        if first is None:
            first = got
        else:  # later passes must repeat the first byte for byte
            run.op(got == first, "pass outputs differ from the first pass")
        passes.append(run)
        extra, start = 0, time.perf_counter()
        while extra == 0 or time.perf_counter() - start < BLOCK_SECONDS:
            alone = Pass(seed, tmp)
            workload.setup(alone)
            ops, failed = ops + alone.ops, failed + alone.failed
            extra += 1
        blocks.append((run.times["setup"] + time.perf_counter() - start)
                      / (1 + extra))
    total = {k: sum(p.times[k] for p in passes)
             for k in ("wall", "route", "stats")}
    metrics = {
        "wall_s": total["wall"] / len(passes),
        "setup_s": median(blocks),
        "pairs_per_s": sum(p.routed for p in passes) / total["route"],
        "stats_s": total["stats"] / len(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {"metrics": metrics,
            "ops": ops + sum(p.ops for p in passes),
            "failed": failed + sum(p.failed for p in passes),
            "failures": [f for p in passes for f in p.failures],
            "setup_blocks": blocks, "passes": [p.times for p in passes],
            "digests": first}


def trace(workload, seed: int, tmp: str, spans_path: str) -> dict:
    """One warm-up pass, one untraced and one traced pass. The first pass
    in a process tended to run slower, so the overhead compares the
    traced pass with the second untraced one."""
    from tracer import Tracer, layer_metrics
    reference = load_reference(workload.name, seed)
    passes, got = [], []
    for _ in range(2):
        run, result = run_pass(workload, seed, tmp)
        workload.check(run, result)
        del result
        passes.append(run)
        got.append(digests(run, reference))
    tracer = Tracer()
    with tracer.patched():
        traced, result = run_pass(workload, seed, tmp, tracer)
    workload.check(traced, result)  # untraced, like every check
    del result
    passes.append(traced)
    got.append(digests(traced, reference))
    traced.op(got[0] == got[1] == got[2],
              "traced outputs differ from untraced outputs")
    tracer.save(spans_path)
    return {"metrics": layer_metrics(tracer, passes[1].times["wall"],
                                     traced.times["wall"]),
            "ops": sum(p.ops for p in passes),
            "failed": sum(p.failed for p in passes),
            "failures": [f for p in passes for f in p.failures],
            "passes": [p.times for p in passes],
            "digests": got[2], "untraced_digests": got[1],
            "counters": tracer.counters(), "spans": tracer.aggregate()}


def run_one(args, spec: dict) -> int:
    fgsw = import_fgsw()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace"
                             f"{args.trace}")
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        if args.trace:
            record = trace(workload, args.seed, tmp, stem + ".spans.npz")
        else:
            record = measure(workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]],
                           "unit": m["unit"]} for m in declared}
    record.update(workload=workload.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  env=environment(fgsw))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{why}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:  # reported, but not among the gated metrics
        print(f"  {'stats_s':40s} {record['metrics']['stats_s']:>16.6g} s")
    attempted, failed = record["ops"], record["failed"]
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    for what in record["failures"][:10]:
        print(f"  FAILED: {what}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    results, status = {}, 0
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=1800)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= 0 if results[name]["correct"] else 1
    print(json.dumps(results), flush=True)
    return status


def main(argv=None) -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", default="all", choices=["all"] + names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="measured time per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = run_all if args.workload == "all" else run_one
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
