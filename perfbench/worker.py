"""The workload process: runs one workload's operations and checks them.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
program's sources and one JSON argument, a spec whose ``mode`` is one of

``find``
    One cold find, in this fresh process, as each ``repro find`` pays it:
    its CPU time from before ``import repro`` is a setup sample.  With a
    positive ``budget_s`` the process then runs warm finds until the
    budget and ``min_ops`` are both reached, timing each, and checks its
    own outputs and the ``outputs`` other processes reported.
``updates``
    Builds the service and answers its first query (the setup sample).
    With a positive ``budget_s`` it then runs closed-loop updates until
    the budget and ``min_ops`` are both reached, checking answers at
    fixed checkpoints.
``trace``
    The separate traced run: splits a find and service updates by layer,
    sweeps the engines, and reports per-layer metrics only.

Measured operations are timed in CPU seconds of this process
(``time.process_time``): on a shared virtual machine the wall clock also
counts the time other tenants hold the CPU, which moved whole runs by
more than half.  The wall time is reported alongside, for reading only.
The result is one JSON object on the last line of standard output.
"""

import time

# setup_s starts here, before the program is imported.
T0_CPU = time.process_time()

import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from repro.congest.config import CongestConfig  # noqa: E402
from repro.congest.engine import get_engine  # noqa: E402
from repro.congest.network import Network  # noqa: E402
from repro.core.dist_near_clique import DistNearCliqueRunner  # noqa: E402
from repro.core.params import AlgorithmParameters  # noqa: E402
from repro.graphs.io import load_snap_edgelist  # noqa: E402
from repro.service import NearCliqueService  # noqa: E402

import gen  # noqa: E402
from checks import FindChecker, Tally, check_answer, fingerprint, labels_digest  # noqa: E402
from tracer import Tracer, within_tolerance  # noqa: E402

#: Seed of the algorithm's own coins (the runner's ``rng``).  It is the
#: same in every run, so every run draws the same sample: the exploration
#: stage costs time exponential in the sampled components (Lemma 5.1), and
#: a sample that changed with the workload seed would swamp the effect of
#: any code change.  The workload seed varies the graph.
COIN_SEED = 1
#: The seed every service query runs under.
QUERY_SEED = 1
#: Service answers are compared with a fresh full run after every
#: CHECK_EVERY-th update and after the last one.
CHECK_EVERY = 100

#: The algorithm's ε on every workload.
EPSILON = 0.2
#: Per workload: E|S| = p·n, the Section 4.1 bound on |S|, the blocks the
#: update stream edits, and the planted (|D|, δ) that Theorem 5.7 is
#: checked against.
WORKLOADS = {
    "planted-find": dict(
        expected_sample=10.0,
        max_sample_size=18,
        blocks=[(0, gen.PLANTED_SIZE)],
        planted=(gen.PLANTED_SIZE, gen.PLANTED_DELTA),
    ),
    "web-find": dict(
        expected_sample=30.0,
        max_sample_size=64,
        blocks=[(0, gen.WEB_COMMUNITY_SIZES[0])],
        planted=None,
    ),
    "service-updates": dict(
        expected_sample=10.0,
        max_sample_size=18,
        blocks=[
            (block * gen.SERVICE_BLOCK_SIZE, (block + 1) * gen.SERVICE_BLOCK_SIZE)
            for block in range(gen.SERVICE_BLOCKS)
        ],
        planted=None,
    ),
}

#: The engine sweep of the traced run: every non-oracle backend at its
#: best configuration.  ``reference`` and ``async`` are oracles, not timed.
SHARDED = dict(engine="sharded", shards=2)
PERSISTENT_FUSED = dict(session_mode="persistent", pipeline_mode="fuse")
ARMS = (
    ("batched", dict()),
    ("vectorized", dict(engine="vectorized")),
    ("serial", dict(SHARDED, shard_backend="serial")),
    ("thread", dict(SHARDED, shard_backend="thread", shard_workers=2, **PERSISTENT_FUSED)),
    ("process", dict(SHARDED, shard_backend="process", **PERSISTENT_FUSED)),
)

PHASES = (
    "nc-sampling",
    "min-id-bfs-tree",
    "bfs-parent-notification",
    "convergecast-collect",
    "tree-broadcast",
    "nc-comp-dissemination",
    "nc-local-subsets",
    "nc-k-aggregation",
    "nc-k-size-broadcast",
    "nc-k-announce",
    "nc-t-aggregation",
    "nc-best-broadcast",
    "nc-vote",
    "nc-final-labels",
)


def parameters(workload: str, n: int) -> AlgorithmParameters:
    spec = WORKLOADS[workload]
    return AlgorithmParameters(
        epsilon=EPSILON,
        sample_probability=min(1.0, spec["expected_sample"] / n),
        max_sample_size=spec["max_sample_size"],
    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# instrumentation (traced runs only)
# ----------------------------------------------------------------------
def instrument_network(tracer: Tracer, network: Network) -> None:
    if tracer.enabled:
        tracer.wrap(network, "build_contexts", "network.contexts")
        tracer.wrap(network, "apply_delta", "network.apply_delta")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Trace sessions the default engine opens, and their executes."""
    engine = get_engine(None)

    def wrap_session(_span, session) -> None:
        tracer.wrap(
            session,
            "execute",
            "engine.execute",
            attrs_of=lambda protocol, **_: {"phase": protocol.name},
        )
        tracer.wrap(session, "execute_fused", "engine.execute_fused")
        instrument_network(tracer, session.network)

    tracer.wrap(engine, "open_session", "engine.open_session", after=wrap_session)
    try:
        yield
    finally:
        del engine.open_session


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
def find(workload: str, path: str, tracer: Tracer, config: Optional[CongestConfig] = None):
    """One find as ``repro find --graph-file`` runs it: file in, result out.

    ``runner.run(graph)`` builds ``Network(graph, seed=rng.getrandbits(48))``
    itself; the build is done here so that it can be traced on its own.
    """
    with tracer.span("find") as root:
        with tracer.span("ingest.load"):
            graph = load_snap_edgelist(path, relabel=True)
        n = graph.number_of_nodes()
        runner = DistNearCliqueRunner(
            parameters=parameters(workload, n),
            rng=random.Random(COIN_SEED),
            config=(config or CongestConfig()).with_log_budget(n),
        )
        with tracer.span("network.build"):
            network = Network(graph, seed=runner.rng.getrandbits(48))
        instrument_network(tracer, network)
        with tracer.span("runner.run"):
            result = runner.run(network=network)
    return graph, result, runner, root


def open_service(workload: str, path: str, tracer: Tracer) -> NearCliqueService:
    with tracer.span("ingest.load"):
        graph = load_snap_edgelist(path, relabel=True)
    with tracer.span("service.build"):
        service = NearCliqueService(graph, parameters(workload, graph.number_of_nodes()))
    if tracer.enabled:
        tracer.wrap(service, "apply_delta", "service.apply_delta")
        tracer.wrap(
            service,
            "query",
            "service.query",
            after=lambda span, outcome: span.attrs.update(kind=outcome.record.kind),
        )
        instrument_network(tracer, service.network)
    return service


class DeltaStream:
    """Seeded edits inside the workload's blocks.

    Each delta adds one missing intra-block edge and removes one present
    intra-block edge of a block chosen by the seed, so the edge count
    stays fixed.
    """

    def __init__(self, graph, blocks: List[Tuple[int, int]], seed: int) -> None:
        self.rng = random.Random("%d:deltas" % seed)
        self.present: List[List[Tuple[int, int]]] = []
        self.missing: List[List[Tuple[int, int]]] = []
        for start, stop in blocks:
            present, missing = [], []
            for u in range(start, stop):
                for v in range(u + 1, stop):
                    (present if graph.has_edge(u, v) else missing).append((u, v))
            self.present.append(present)
            self.missing.append(missing)

    @staticmethod
    def _take(pool: List[Tuple[int, int]], index: int) -> Tuple[int, int]:
        pool[index], pool[-1] = pool[-1], pool[index]
        return pool.pop()

    def next(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        block = self.rng.randrange(len(self.present))
        present, missing = self.present[block], self.missing[block]
        add = self._take(missing, self.rng.randrange(len(missing)))
        remove = self._take(present, self.rng.randrange(len(present)))
        present.append(add)
        missing.append(remove)
        return add, remove


def update(service: NearCliqueService, delta, tracer: Tracer):
    """One closed-loop client step: send an edge delta, wait for the answer."""
    add, remove = delta
    with tracer.span("update") as root:
        service.apply_delta(additions=[add], removals=[remove])
        outcome = service.query(seed=QUERY_SEED)
    return outcome, root


def fresh_answer(workload: str, service: NearCliqueService):
    """A fresh full run on the service's current graph, under the query seed."""
    graph = service.network.graph
    runner = DistNearCliqueRunner(
        parameters=parameters(workload, graph.number_of_nodes()),
        config=service.config,
    )
    return runner.run(network=Network(graph, seed=QUERY_SEED))


# ----------------------------------------------------------------------
# measure mode
# ----------------------------------------------------------------------
def find_output(result) -> Dict:
    return dict(
        sample=sorted(result.sample),
        labels_digest=labels_digest(result.labels),
        aborted=result.aborted,
        abort_reason=result.abort_reason,
    )


def measure_find(spec: Dict) -> Dict:
    """A cold find, then warm finds, each from file to result."""
    workload, path = spec["workload"], spec["graph"]
    off = Tracer(enabled=False)
    _, result, _, _ = find(workload, path, off)
    setup_s = time.process_time() - T0_CPU
    outputs = [find_output(result)]
    cpu_ms: List[float] = []
    wall_ms: List[float] = []
    start = time.perf_counter()
    while spec["budget_s"] > 0 and (
        len(cpu_ms) < spec["min_ops"] or time.perf_counter() - start < spec["budget_s"]
    ):
        del result
        gc.collect()  # the previous find's garbage is not this find's cost
        wall, cpu = time.perf_counter(), time.process_time()
        _, result, _, _ = find(workload, path, off)
        cpu_ms.append(1000.0 * (time.process_time() - cpu))
        wall_ms.append(1000.0 * (time.perf_counter() - wall))
        outputs.append(find_output(result))
    report = dict(setup_s=setup_s, cpu_ms=cpu_ms, wall_ms=wall_ms, peak_rss_mb=peak_rss_mb())
    if spec["budget_s"] > 0:
        report.update(check_finds(workload, path, outputs + spec["outputs"]))
    else:
        report["outputs"] = outputs
    return report


def check_finds(workload: str, path: str, outputs: List[Dict]) -> Dict:
    """Check find outputs against the centralized finder."""
    graph = load_snap_edgelist(path, relabel=True)
    checker = FindChecker(graph, EPSILON, WORKLOADS[workload]["planted"])
    tally = Tally()
    for index, output in enumerate(outputs):
        reason = checker.check_output(
            output["sample"], output["labels_digest"], output["aborted"], output["abort_reason"]
        )
        tally.add(reason, "find %d: " % index)
    return dict(attempted=tally.attempted, failures=tally.failures)


def measure_updates(spec: Dict) -> Dict:
    """Service setup, then closed-loop updates checked at checkpoints."""
    workload, path = spec["workload"], spec["graph"]
    off = Tracer(enabled=False)
    tally = Tally()
    service = open_service(workload, path, off)
    with service:
        answer = service.query(seed=QUERY_SEED).result
        setup_s = time.process_time() - T0_CPU
        tally.add("aborted: %s" % answer.abort_reason if answer.aborted else None, "setup: ")
        rss = peak_rss_mb()

        stream = DeltaStream(service.network.graph, WORKLOADS[workload]["blocks"], spec["seed"])
        cpu_ms: List[float] = []
        wall_ms: List[float] = []
        checking_s = 0.0
        start = time.perf_counter()
        while spec["budget_s"] > 0 and (
            len(cpu_ms) < spec["min_ops"]
            or time.perf_counter() - start - checking_s < spec["budget_s"]
        ):
            delta = stream.next()
            wall, cpu = time.perf_counter(), time.process_time()
            outcome, _ = update(service, delta, off)
            cpu_ms.append(1000.0 * (time.process_time() - cpu))
            wall_ms.append(1000.0 * (time.perf_counter() - wall))
            answer = outcome.result
            reason = "aborted: %s" % answer.abort_reason if answer.aborted else None
            if len(cpu_ms) % CHECK_EVERY == 0:
                if len(cpu_ms) == CHECK_EVERY:  # before the checks' fresh runs allocate
                    rss = peak_rss_mb()
                began = time.perf_counter()
                reason = check_answer(answer, fresh_answer(workload, service))
                checking_s += time.perf_counter() - began
            tally.add(reason, "update %d: " % len(cpu_ms))
        if len(cpu_ms) % CHECK_EVERY:  # the last answer is always checked
            reason = check_answer(outcome.result, fresh_answer(workload, service))
            if reason:
                tally.failures.append("update %d: %s" % (len(cpu_ms), reason))
    return dict(
        setup_s=setup_s,
        cpu_ms=cpu_ms,
        wall_ms=wall_ms,
        peak_rss_mb=rss,
        attempted=tally.attempted,
        failures=tally.failures,
    )


# ----------------------------------------------------------------------
# trace mode
# ----------------------------------------------------------------------
def find_layers(tracer: Tracer, root, result, stopwatch_s: float, tally: Tally) -> Dict:
    spans = tracer.tree(root)
    own = tracer.self_time_by_name(spans)
    metrics = {
        "ingest.load_s": (own["ingest.load"], "s"),
        "network.build_s": (own["network.build"], "s"),
        "network.contexts_s": (own["network.contexts"], "s"),
        "network.contexts_calls": (sum(1 for s in spans if s.name == "network.contexts"), "count"),
        "engine.execute_s": (own["engine.execute"] + own.get("engine.execute_fused", 0.0), "s"),
        # run time minus execute time: sampling glue, session open, harvest
        "runner.other_s": (own["runner.run"] + own["engine.open_session"], "s"),
        "core.sample_size": (len(result.sample), "count"),
        "core.largest_cluster": (len(result.largest_cluster()), "count"),
    }
    phase_s = dict.fromkeys(PHASES, 0.0)
    for span in spans:
        if span.name == "engine.execute":
            phase_s[span.attrs["phase"]] += span.duration
    breakdown = result.metrics.protocol_breakdown
    for label in PHASES:
        metrics["phase.%s.s" % label] = (phase_s[label], "s")
        if label != "nc-sampling":  # local coin flips: no rounds, no messages
            metrics["phase.%s.rounds" % label] = (breakdown[label].rounds, "count")
            metrics["phase.%s.messages" % label] = (breakdown[label].total_messages, "count")
    summed = sum(own.values())
    tally.add(
        None if within_tolerance(summed, stopwatch_s) else
        "self times sum to %.4f s, its stopwatch read %.4f s" % (summed, stopwatch_s),
        "traced find: ",
    )
    return metrics


def service_layers(workload: str, path: str, seed: int, updates: int, tracer: Tracer, tally: Tally) -> Dict:
    """A traced service session on the workload's graph.

    One full query, *updates* closed-loop updates, and a repeated query
    that the cache answers.
    """
    service = open_service(workload, path, tracer)
    with service:
        service.query(seed=QUERY_SEED)
        stream = DeltaStream(service.network.graph, WORKLOADS[workload]["blocks"], seed)
        delta_ms, recomputed, total = [], 0, 0
        for index in range(1, updates + 1):
            began = time.perf_counter()
            outcome, root = update(service, stream.next(), tracer)
            stopwatch_s = time.perf_counter() - began
            own = tracer.self_time_by_name(tracer.tree(root))
            summed = sum(own.values())
            tally.add(
                None if within_tolerance(summed, stopwatch_s) else
                "self times sum to %.4f s, its stopwatch read %.4f s" % (summed, stopwatch_s),
                "traced update %d: " % index,
            )
            delta_ms.append(1000.0 * own["network.apply_delta"])
            recomputed += outcome.record.recomputed_nodes
            total += outcome.record.total_nodes
            if index % CHECK_EVERY == 0 or index == updates:
                tally.add(check_answer(outcome.result, fresh_answer(workload, service)),
                          "traced update %d: " % index)
        service.query(seed=QUERY_SEED)
        stats = service.stats

    (build,) = [s for s in tracer.spans if s.name == "service.build"]
    metrics = {
        "service.build_s": (build.duration, "s"),
        "network.apply_delta_ms": (statistics.median(delta_ms), "ms"),
        "service.recomputed_frac": (recomputed / total, "ratio"),
        "service.kind.full": (stats.full_queries, "count"),
        "service.kind.incremental": (stats.incremental_queries, "count"),
        "service.kind.cached": (stats.cached_hits, "count"),
    }
    for kind in ("full", "incremental", "cached"):
        durations = [
            1000.0 * s.duration
            for s in tracer.spans
            if s.name == "service.query" and s.attrs.get("kind") == kind
        ]
        metrics["service.query_ms.%s" % kind] = (statistics.median(durations), "ms")
    return metrics


def engine_sweep(workload: str, path: str, reference_fp, tally: Tally) -> Dict:
    """One timed find per arm; a time counts only if the arm's output matched.

    Each arm's fingerprint is compared with the default engine's before
    its time is recorded; one mismatch fails the run and drops every arm
    time.  (Fingerprinting in a separate untimed run first would double
    the sweep, and the process arm alone takes ~20 s on web-find.)
    """
    off = Tracer(enabled=False)
    times = {}
    for name, options in ARMS:
        gc.collect()
        began = time.perf_counter()
        _, result, runner, _ = find(workload, path, off, CongestConfig(**options))
        elapsed = time.perf_counter() - began
        reason = None if fingerprint(result) == reference_fp else (
            "fingerprint differs from the default engine's"
        )
        tally.add(reason, "engine %s: " % name)
        if reason is None:
            times[name] = elapsed
    if len(times) < len(ARMS):
        return {}
    stats = runner.last_session_stats  # the process arm runs last
    metrics = {"engine.%s.find_s" % name: (value, "s") for name, value in times.items()}
    metrics["engine.default_over_fastest"] = (times["batched"] / min(times.values()), "ratio")
    metrics.update(
        {
            "sharding.setup_s": (stats.setup_seconds, "s"),
            "sharding.rearms": (stats.rearms, "count"),
            "sharding.fused_phases": (stats.fused_phases, "count"),
            "sharding.boundary_bytes": (stats.boundary_bytes, "bytes"),
            "sharding.barrier_rounds": (stats.barrier_rounds, "count"),
            "sharding.cross_shard_fraction": (stats.cross_shard_fraction, "ratio"),
        }
    )
    return metrics


def trace(spec: Dict) -> Dict:
    workload, path = spec["workload"], spec["graph"]
    tally = Tally()
    graph, first, _, _ = find(workload, path, Tracer(enabled=False))
    reference_fp = fingerprint(first)
    checker = FindChecker(graph, EPSILON, WORKLOADS[workload]["planted"])
    tally.add(checker.check(first), "untraced find: ")

    tracer = Tracer()
    gc.collect()
    with instrumented(tracer):
        began = time.perf_counter()
        _, traced, _, root = find(workload, path, tracer)
        traced_s = time.perf_counter() - began
    tally.add(
        None if fingerprint(traced) == reference_fp else
        "fingerprint differs from the untraced find's",
        "traced find: ",
    )
    metrics = find_layers(tracer, root, traced, traced_s, tally)

    # Right after the traced find, so that its batched arm is the
    # untraced twin the tracing overhead is measured against.
    sweep = engine_sweep(workload, path, reference_fp, tally)
    metrics.update(sweep)
    if sweep:
        batched_s = sweep["engine.batched.find_s"][0]
        metrics["trace.overhead_frac"] = (traced_s / batched_s - 1.0, "ratio")

    with instrumented(tracer):
        metrics.update(service_layers(workload, path, spec["seed"], spec["updates"], tracer, tally))
    tracer.write(spec["spans"])
    return dict(
        metrics={name: dict(value=value, unit=unit) for name, (value, unit) in metrics.items()},
        attempted=tally.attempted,
        failures=tally.failures,
    )


MODES = {
    "find": measure_find,
    "updates": measure_updates,
    "trace": trace,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    print(json.dumps(MODES[spec["mode"]](spec)))


if __name__ == "__main__":
    main()
