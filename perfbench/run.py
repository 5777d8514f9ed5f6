"""End-to-end near-clique benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload planted-find --seed 1 --seconds 10 --trace 0

Generates the workload's input from ``--seed`` (see ``gen.py``), runs the
workload in fresh processes (``worker.py``) against the program in
``src/``, checks every output, prints one line per metric and, as the last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Traced runs write their spans here, one JSON line per span.
SPANS_DIR = os.path.join(ROOT, ".perfbench-spans")

GENERATORS = {
    "planted-find": gen.planted,
    "web-find": gen.web,
    "service-updates": gen.service_blocks,
}
#: Fresh processes per measured run; setup_s is the median of their
#: cold starts.  The last of them also runs the measured operations.
COLD_STARTS = 3
#: Fewest measured operations per run.  The service's closed loop runs at
#: least 200 updates, so that its p90 has at least twenty samples beyond it.
MIN_OPS = {"planted-find": 3, "web-find": 3, "service-updates": 200}
#: Updates in the traced run: one on the find workloads (whose graphs are
#: connected, so the service re-runs everything), a hundred on the service.
TRACED_UPDATES = {"planted-find": 1, "web-find": 1, "service-updates": 100}
#: No workload process may outlive this many seconds from the start of
#: the run.
RUN_TIMEOUT_S = 170
STARTED = time.monotonic()


def run_worker(spec: Dict) -> Dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, STARTED + RUN_TIMEOUT_S - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SystemExit("perfbench: the workload process timed out")
    finally:
        # The process backend's shard workers share the session; none may
        # be left behind.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise SystemExit("perfbench: the workload process failed (exit %d)" % process.returncode)
    return json.loads(out.decode().strip().splitlines()[-1])


def percentile(values: List[float], percent: int) -> float:
    """Inclusive-method percentile, as ``statistics.quantiles`` computes it."""
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def measure(workload: str, seed: int, graph: str, seconds: float) -> Dict:
    """COLD_STARTS fresh processes; the last runs the operations for *seconds*.

    An operation's latency is CPU time of the workload process; see
    ``worker.py`` for why.
    """
    mode = "updates" if workload == "service-updates" else "find"
    spec = dict(workload=workload, graph=graph, seed=seed, mode=mode, outputs=[])
    reports = []
    for _ in range(COLD_STARTS - 1):
        reports.append(run_worker(dict(spec, budget_s=0, min_ops=0)))
        spec["outputs"] += reports[-1].pop("outputs", [])
    last = run_worker(dict(spec, budget_s=seconds, min_ops=MIN_OPS[workload]))
    reports.append(last)
    cpu_ms, wall_ms = last["cpu_ms"], last["wall_ms"]
    setups = [report["setup_s"] for report in reports]
    return dict(
        metrics={
            "latency_cpu_p50_ms": (statistics.median(cpu_ms), "ms"),
            "latency_cpu_p90_ms": (percentile(cpu_ms, 90), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(report["peak_rss_mb"] for report in reports), "MiB"),
        },
        # cold find outputs are checked by the last process, which counts them
        attempted=sum(report.get("attempted", 0) for report in reports),
        failures=[reason for report in reports for reason in report.get("failures", ())],
        notes=[
            "%d timed operations in one warm process; wall time p50 %.1f ms, p90 %.1f ms"
            % (len(cpu_ms), statistics.median(wall_ms), percentile(wall_ms, 90)),
            "setup: CPU time from before the import to the first answer, %d cold starts"
            % len(setups),
        ],
    )


def trace(workload: str, seed: int, graph: str) -> Dict:
    os.makedirs(SPANS_DIR, exist_ok=True)
    report = run_worker(
        dict(
            workload=workload,
            graph=graph,
            seed=seed,
            mode="trace",
            updates=TRACED_UPDATES[workload],
            spans=os.path.join(SPANS_DIR, "%s-seed%d.jsonl" % (workload, seed)),
        )
    )
    report["metrics"] = {
        name: (entry["value"], entry["unit"]) for name, entry in report["metrics"].items()
    }
    report["notes"] = ["spans written to %s" % os.path.relpath(SPANS_DIR, ROOT)]
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2

    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        graph = os.path.join(scratch, "%s.edges" % args.workload)
        edges = GENERATORS[args.workload](args.seed, graph)
        print("workload %s, seed %d: %d edges" % (args.workload, args.seed, edges))
        if args.trace:
            result = trace(args.workload, args.seed, graph)
        else:
            result = measure(args.workload, args.seed, graph, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(result["failures"])
    for note in result["notes"]:
        print(note)
    for name, (value, unit) in sorted(result["metrics"].items()):
        print("%-40s %14.6g %s" % (name, value, unit))
    print(
        "error_rate %.6g (%d of %d checked operations failed)"
        % (failed / result["attempted"], failed, result["attempted"])
    )
    for reason in result["failures"]:
        print("FAILED: %s" % reason)
    print(
        json.dumps(
            dict(
                correct=failed == 0,
                attempted=result["attempted"],
                failed=failed,
                metrics={
                    name: dict(value=value, unit=unit)
                    for name, (value, unit) in result["metrics"].items()
                },
            )
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
