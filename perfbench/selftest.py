"""Self-test of the benchmark's traced run.

Runs ``run.py --trace 1`` twice per workload at the default seed and
checks that

* every operation passed, including the digest checks against
  ``digests.json``;
* the traced pass wrote the same output digests as the untraced pass;
* the exact counts repeat from one run to the next;
* ``graph.bfs_row.calls`` is 0 on torus-route and torus-hops and
  nonzero on gasket-sweep and torus-cli;
* ``overlay.materialized`` equals the ``rng.substream`` calls in the
  contacts domain.

Usage, from the repository root (about five minutes):

    python3 perfbench/selftest.py [workload ...]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
EXACT = ("graph.bfs_row.calls", "graph.closed_row.calls",
         "graph.ball_profile.calls", "overlay.materialized",
         "overlay.contacts.calls", "overlay.contacts.hit_ratio",
         "rng.substream.calls", "routing.route.calls", "routing.hops",
         "routing.long_hop_frac", "analysis.far_pairs.rows_per_pair")
USES_BFS = {"torus-route": False, "gasket-sweep": True, "torus-cli": True,
            "torus-hops": False}
DOMAIN_CONTACTS = 2  # fgsw.rng.DOMAIN_CONTACTS


def traced_run(workload: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--trace", "1"],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n"
                             f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench_out",
                        f"{workload}-seed{SEED}-trace1.json")
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


def check(workload: str) -> list[str]:
    problems = []
    runs = [traced_run(workload) for _ in range(2)]
    for result, record in runs:
        if not result["correct"] or result["failed"]:
            problems.append(f"{result['failed']} failed operations: "
                            f"{record['failures'][:3]}")
        if record["digests"] != record["untraced_digests"]:
            problems.append("traced digests differ from untraced digests")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if (metrics["graph.bfs_row.calls"] > 0) != USES_BFS[workload]:
            problems.append(f"graph.bfs_row.calls = "
                            f"{metrics['graph.bfs_row.calls']}")
        contacts = record["counters"].get(
            f"rng.substream.domain{DOMAIN_CONTACTS}", 0)
        if metrics["overlay.materialized"] != contacts:
            problems.append(f"overlay.materialized = "
                            f"{metrics['overlay.materialized']}, contacts "
                            f"substreams = {contacts}")
    first, second = ({k: r["metrics"][k]["value"] for k in EXACT}
                     for r, _ in runs)
    for key in EXACT:
        if first[key] != second[key]:
            problems.append(f"{key}: {first[key]} then {second[key]}")
    return problems


def main(argv: list[str]) -> int:
    workloads = argv or list(USES_BFS)
    failed = False
    for workload in workloads:
        problems = check(workload)
        failed |= bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
