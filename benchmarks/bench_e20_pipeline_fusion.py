"""E20 — pipeline compiler: fused phase groups on the process backend.

The composite ``DistNearCliqueRunner`` runs ~14 phases.  A process session
keeps one worker pool across them, and the pipeline compiler
(:mod:`repro.congest.pipeline`) compiles the declared phase graph into
maximal fused groups: one ``arm`` ships the whole group, workers self-arm
the next phase on phase completion (a harvest that skips state packing
entirely), and the context fold-back happens once per *group* instead of
once per phase.  On the composite run the full 13-phase
exploration+decision suffix fuses into a single group — 2 pool re-arms for
14 phases.  Fusion is the only execution path, so there is no unfused arm
to race; this benchmark holds the compiler to the contract and reports
where the process session stands against the default engine:

* **Bit-identity before any timing** — every backend (reference, batched,
  vectorized, async, sharded serial / thread / process) on a
  differential-scale workload, every fingerprint (labels, sample, rounds,
  message/bit totals, the full per-round trace) equal to the reference
  engine's; then, at the report scale, the process session against the
  batched engine.  Fusion that changes one bit fails here.

* **Re-arm elision** — from :class:`~repro.congest.sharding.ShardingStats`:
  the run's ``rearms`` must stay strictly below the phase count executed,
  with ``fused_phases`` accounting for the difference.

* **Wall clock, reported, not gated** — the full ``DistNearCliqueRunner``
  at n >= 4000 on the community workload: the process session next to the
  ``batched`` default engine, interleaved best-of-N.

Results are emitted through the shared ``--json`` machinery in
``benchmarks/conftest.py`` (one ``{bench, config, measured, gate,
passed}`` record per check), both under pytest and from ``main()``.

Run directly (``python benchmarks/bench_e20_pipeline_fusion.py``) or via
the pytest-benchmark harness; quick mode (``REPRO_BENCH_QUICK=1`` or
``--quick``) keeps n at the report scale but trims repetitions.
"""

from __future__ import annotations

import os
import random
import sys
import time

import networkx as nx

from repro.analysis import tables
from repro.congest.config import CongestConfig
from repro.core.dist_near_clique import DistNearCliqueRunner

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import record_result, set_json_path

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0") or "0"))

#: Shard count (== worker processes) of the timed comparison.
SHARDS = 4

#: Forced sample (block-0 node ids of the community workload): keeps the
#: sampling stage deterministic and the exploration stage bounded, so the
#: timed arms do byte-identical protocol work.
FORCED_SAMPLE = (2, 7, 19, 41, 83)

#: Every backend held to bit-identity before timing.  Label ->
#: CongestConfig kwargs.
BACKENDS = (
    ("reference", dict(engine="reference")),
    ("batched", dict(engine="batched")),
    ("vectorized", dict(engine="vectorized")),
    ("async", dict(engine="async")),
    ("sharded-serial", dict(engine="sharded", shards=SHARDS, shard_backend="serial")),
    ("sharded-thread", dict(engine="sharded", shards=SHARDS, shard_backend="thread")),
    ("sharded-process", dict(engine="sharded", shards=SHARDS, shard_backend="process")),
)

#: The timed arms: the default engine and the process session.
TIMED = ("batched", "sharded-process")


def _community_graph(n: int, blocks: int, p_in: float, p_out: float, seed: int):
    """Equal dense blocks with contiguous ids over a sparse background."""
    rng = random.Random(seed)
    graph = nx.Graph()
    size = n // blocks
    for block in range(blocks):
        dense = nx.gnp_random_graph(size, p_in, seed=seed + block)
        offset = block * size
        graph.add_edges_from((offset + u, offset + v) for u, v in dense.edges())
    graph.add_nodes_from(range(n))
    for _ in range(int(p_out * n * n / 2.0)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


def _workload(quick: bool):
    # The report scale stays at n >= 4000 even in quick mode, where the
    # process backend has real work per worker; quick mode trims
    # repetitions instead.
    n = 4000 if quick else 6000
    graph = _community_graph(n, SHARDS, 0.04, 2.0 / n, seed=7)
    return "web-communities (n=%d, %d blocks)" % (n, SHARDS), graph


def _differential_workload():
    # Small enough for the reference engine, dense enough that every phase
    # of the composite does real work.
    n = 600
    graph = _community_graph(n, SHARDS, 0.08, 4.0 / n, seed=7)
    return "web-communities (n=%d, %d blocks)" % (n, SHARDS), graph


def _result_fingerprint(result):
    m = result.metrics
    return (
        result.labels,
        result.sample,
        result.aborted,
        m.rounds,
        m.total_messages,
        m.total_bits,
        m.max_message_bits,
        [
            (r.round_index, r.messages_sent, r.bits_sent, r.active_nodes)
            for r in m.per_round
        ],
    )


def _run_once(graph, backend_kwargs, seed=11):
    """One full DistNearClique run; returns (seconds, fingerprint, runner)."""
    n = graph.number_of_nodes()
    config = CongestConfig(**backend_kwargs).with_log_budget(n)
    runner = DistNearCliqueRunner(
        epsilon=0.25,
        sample_probability=0.001,
        max_sample_size=None,
        rng=random.Random(seed),
        config=config,
    )
    start = time.perf_counter()
    result = runner.run(graph, sample=FORCED_SAMPLE)
    elapsed = time.perf_counter() - start
    assert not result.aborted, "benchmark workload aborted: %s" % result.abort_reason
    return elapsed, _result_fingerprint(result), runner


def _run_batched_oracle(graph, seed=11):
    """Fingerprint of the default engine's run (the timed arms' oracle)."""
    return _run_once(graph, dict(BACKENDS)["batched"], seed=seed)[1]


def _identity_sweep():
    """Bit-identity of every backend, pinned to the reference engine."""
    name, graph = _differential_workload()
    oracle = None
    for label, backend_kwargs in BACKENDS:
        _, fingerprint, _ = _run_once(graph, backend_kwargs)
        if oracle is None:
            oracle = fingerprint  # the reference engine
        assert fingerprint == oracle, (
            "%s diverged from the reference engine on %s" % (label, name)
        )
    print(
        "E20  bit-identity: %d backends identical to the reference engine "
        "on %s" % (len(BACKENDS), name)
    )
    record_result(
        "e20-pipeline-fusion",
        {"workload": name, "backends": [label for label, _ in BACKENDS]},
        {"arms": len(BACKENDS)},
        {"criterion": "fingerprints identical to reference"},
        True,
    )


def _fusion_table(name, graph, quick):
    backends = dict(BACKENDS)
    timings = dict.fromkeys(TIMED, float("inf"))
    oracle = None
    process_runner = None
    repetitions = 2 if quick else 3
    # Interleaved best-of-N, every run's fingerprint pinned to the first
    # batched run's before its time counts.
    for _ in range(repetitions):
        for label in TIMED:
            elapsed, fingerprint, runner = _run_once(graph, backends[label])
            if oracle is None:
                oracle = fingerprint
            assert fingerprint == oracle, (
                "%s diverged from the batched engine on %s" % (label, name)
            )
            timings[label] = min(timings[label], elapsed)
            if label == "sharded-process":
                process_runner = runner

    stats = process_runner.last_session_stats
    plan = process_runner.last_pipeline_plan
    phases_executed = stats.rearms + stats.fused_phases
    assert stats.rearms < phases_executed, (
        "fusion elided nothing: %d re-arms for %d phases"
        % (stats.rearms, phases_executed)
    )

    baseline = timings["batched"]
    tables.print_table(
        ["engine", "wall s", "vs batched"],
        [
            [label, round(timings[label], 3), round(timings[label] / baseline, 2)]
            for label in TIMED
        ],
        title="E20  %s — DistNearCliqueRunner end to end (process session: "
        "%d shards, fused groups; bit-identical runs)" % (name, SHARDS),
    )
    print(plan.describe())
    print(
        "pool re-arms: %d for %d phases (%d elided by fusion)"
        % (stats.rearms, phases_executed, stats.fused_phases)
    )

    record_result(
        "e20-pipeline-fusion",
        {
            "workload": name,
            "backend": "sharded-process",
            "shards": SHARDS,
            "quick": quick,
            "cpus": os.cpu_count() or 1,
        },
        {
            "wall_seconds_batched": timings["batched"],
            "wall_seconds_process": timings["sharded-process"],
            "rearms": stats.rearms,
            "fused_phases": stats.fused_phases,
        },
        {"criterion": "rearms < phases executed"},
        True,
    )
    return timings


def _run_suite(quick: bool):
    _identity_sweep()
    name, graph = _workload(quick)
    return _fusion_table(name, graph, quick)


def bench_e20_pipeline_fusion(benchmark):
    """pytest-benchmark entry point, matching the other E* modules."""
    _run_suite(QUICK)

    _name, graph = _workload(quick=True)
    process_kwargs = dict(BACKENDS)["sharded-process"]
    benchmark(lambda: _run_once(graph, process_kwargs))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--json" in argv:
        index = argv.index("--json")
        set_json_path(argv[index + 1])
        del argv[index : index + 2]
    quick = QUICK or "--quick" in argv
    _run_suite(quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
