"""The Demaq benchmark: one workload per run, in one process and thread.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload procurement-mem --seed 1 \\
        --seconds 30 --trace 0

A run repeats *rounds* for about ``--seconds`` (at least
``MIN_ROUNDS``).  Every round replays the same seeded inputs against a
fresh deployment in four phases:

1. set-up: construct the servers (QDL and rule compile, store open),
   then a fixed warm-up;
2. backlog: enqueue batches of inputs, each followed by a drive to
   quiescence (throughput);
3. closed loop: one client sends a request and waits until its result
   is committed before sending the next (latency, paper §2.2);
4. power cut: crash every node discarding unforced log bytes and
   recover (twice), then check that every acknowledged result survived.

Nothing in a timed phase sleeps, opens a socket or starts a thread or
process.  Every output is compared with the reference the workload
computed from its own inputs.

Timings are taken per repeated operation: each backlog batch, each
closed-loop request and each recovery is the same work in every round,
so the figure kept for it is its fastest repetition.  Other load on the
host only ever slows an operation down, while every cost the program
causes, garbage-collection pauses included, recurs in every round
(``gc.collect()`` runs before each timed phase).  Throughput is the
backlog's messages over the sum of its batches' kept times; the latency
percentiles are taken over the requests' kept times; ``setup_s`` is
the fastest set-up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics: traced
rounds wrap each layer's entry points from outside (see ``layers.py``),
and the gap between the two kinds of round is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON object of diagnostics (host-speed probe, effective runtime
configuration, registry cross-check, per-round figures).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"

#: Rounds a run makes even when ``--seconds`` is shorter.  A traced run
#: alternates untraced and traced rounds, so it needs two of each.
MIN_ROUNDS = {0: 3, 1: 4}
#: Power cuts per round: each replays the same log, so each is one more
#: repetition of the same recovery.
POWER_CUTS = 2

#: Registry counters that must repeat exactly in every round.
ROUND_COUNTERS = (
    "demaq_executor_messages_processed_total",
    "demaq_executor_rules_evaluated_total",
    "demaq_executor_rules_skipped_by_prefilter_total",
    "demaq_wal_appended_records_total",
    "demaq_wal_forces_total",
    "demaq_store_body_parses_total",
    "demaq_store_parse_cache_hits_total",
    "demaq_locks_acquisitions_total",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hygienic_environment() -> dict[str, str]:
    """The environment every run executes in: a fixed hash seed, and no
    ``DEMAQ_*`` switch inherited from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEMAQ_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: tells host drift apart from
    a program change.  A diagnostic, not a metric."""
    started = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - started


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


class Round:
    """The figures one round produced."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.setup_s = 0.0
        #: Seconds of each backlog batch, in input order.
        self.batches: list[float] = []
        self.msgs = 0
        self.wal_bytes = 0
        #: Turnaround of each closed-loop request, in input order.
        self.latencies: list[float] = []
        self.recoveries: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, float] = {}
        #: Per-layer figures (traced rounds only).
        self.layers: dict[str, float] = {}
        self.cross_check: list[dict] = []

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(problem)


def run_round(workload, tracer=None) -> Round:
    from layers import cross_check, layer_metrics

    result = Round(traced=tracer is not None)
    recording = tracer.recording if tracer is not None else nullcontext

    # 1. set-up
    gc.collect()
    started = perf_counter()
    with recording():
        deployment = workload.deploy()
    for batch in workload.warmup:
        for body in batch:
            deployment.send(body)
        deployment.drive()
    result.setup_s = perf_counter() - started
    if tracer is not None:
        result.layers["qdl.compile_ms"] = \
            tracer.span("qdl.compile").total * 1e3
        result.layers["engine.compile_rules_ms"] = \
            tracer.span("engine.compile_rules").total * 1e3

    try:
        # 2. backlog
        before = deployment.registry()
        wal_before = deployment.wal_bytes()
        gc.collect()
        with recording():
            for batch in workload.backlog:
                started = perf_counter()
                for body in batch:
                    try:
                        deployment.send(body)
                    except Exception as exc:   # counted, not fatal
                        result.fail(1, f"enqueue failed: {exc!r}")
                deployment.drive()
                result.batches.append(perf_counter() - started)
        counts = _delta(deployment.registry(), before)
        result.msgs = int(counts["demaq_executor_messages_processed_total"])
        result.wal_bytes = deployment.wal_bytes() - wal_before
        result.counts = {k: counts.get(k, 0) for k in ROUND_COUNTERS}
        result.fail(int(result.msgs != workload.backlog_msgs),
                    f"backlog processed {result.msgs} messages, "
                    f"expected {workload.backlog_msgs}")
        if tracer is not None:
            result.layers.update(layer_metrics(
                tracer, counts, result.msgs, result.wal_bytes))
            result.cross_check = cross_check(tracer, counts)

        # 3. closed loop
        processed = deployment.processed()
        gc.collect()
        for body in workload.closed_loop:
            started = perf_counter()
            try:
                deployment.send(body)
            except Exception as exc:   # counted, not fatal
                result.fail(1, f"enqueue failed: {exc!r}")
            deployment.drive()
            result.latencies.append(perf_counter() - started)
        closed = deployment.processed() - processed
        result.fail(int(closed != workload.closed_msgs),
                    f"closed loop processed {closed} messages, "
                    f"expected {workload.closed_msgs}")
        result.attempted = workload.inputs

        # reference check
        texts = deployment.result_texts()
        failed, problems = workload.check(texts)
        result.fail(failed, "; ".join(problems))
        result.fail(deployment.errors(), "rule errors or error documents")

        # 4. power cuts, recovery, durability check
        processed = deployment.processed()
        with recording():
            for _ in range(POWER_CUTS):
                gc.collect()
                started = perf_counter()
                deployment.power_cut()
                result.recoveries.append(perf_counter() - started)
        records = sum(s.store.stats.replayed_records
                      for s in deployment.servers)
        result.counts["replayed_records"] = records
        if tracer is not None:
            result.layers["storage.recovery.records"] = records
            result.layers["storage.recovery.us_per_record"] = (
                tracer.span("storage.recovery").total * 1e6
                / (records * POWER_CUTS) if records else 0.0)
        deployment.drive()
        redone = deployment.processed() - processed
        result.fail(redone, f"{redone} messages processed again after "
                            f"the restart")
        survived = deployment.result_texts()
        lost = sum((Counter(texts) - Counter(survived)).values())
        result.fail(lost, f"{lost} acknowledged results lost in the "
                          f"power cut")
        failed, problems = workload.check(survived)
        result.fail(failed, "after restart: " + "; ".join(problems))
    finally:
        deployment.close()
    return result


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fastest(series: list[list[float]]) -> list[float]:
    """Element-wise minimum: each operation's fastest repetition."""
    return [min(times) for times in zip(*series)]


def backlog_us_per_msg(rounds: list[Round]) -> float:
    return sum(fastest([r.batches for r in rounds])) * 1e6 / rounds[0].msgs


def end_to_end(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    latencies = fastest([r.latencies for r in rounds])
    first = rounds[0]
    return {
        "throughput_msgs_per_s": (1e6 / backlog_us_per_msg(rounds), "msg/s"),
        "latency_p50_ms": (percentile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "setup_s": (min(r.setup_s for r in rounds), "s"),
        "recovery_s": (min(x for r in rounds for x in r.recoveries), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
        "wal_bytes_per_msg": (first.wal_bytes / first.msgs, "B/msg"),
    }


#: Units of the per-layer metrics, by name suffix.
_UNITS = (("calls_per_msg", "1/msg"), ("records_per_msg", "1/msg"),
          ("forces_per_msg", "1/msg"), ("retries_per_msg", "1/msg"),
          ("acquisitions_per_msg", "1/msg"), ("us_per_msg", "us/msg"),
          ("msgs_per_call", "msg/call"), ("bytes_per_record", "B/record"),
          ("us_per_record", "us/record"), ("force_us_p50", "us"),
          ("_ratio", "ratio"), ("batch_fill", "msg/batch"),
          ("_ms", "ms"), ("records", "records"), ("_pct", "%"))


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in _UNITS if name.endswith(suffix))


def per_layer(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    from layers import COUNT_METRICS, SELF_TIME_METRICS

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    # Times: the fastest traced round.  Counts: the first traced round,
    # which follows the same rounds in every run, so they repeat
    # exactly for one seed.
    values = {name: min(r.layers[name] for r in traced)
              for name in traced[0].layers}
    for name in COUNT_METRICS:
        values[name] = traced[0].layers[name]
    untraced_us = backlog_us_per_msg(plain)
    values["trace.unattributed_us_per_msg"] = untraced_us - sum(
        values[name] for name in SELF_TIME_METRICS)
    values["trace.overhead_pct"] = \
        (backlog_us_per_msg(traced) / untraced_us - 1) * 100
    return {name: (value, unit_of(name)) for name, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    env = hygienic_environment()
    if env != dict(os.environ):
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]], env)

    sys.path.insert(0, str(SOURCES))
    try:
        import repro
        from repro.config import active
    except ImportError as exc:
        print(f"error: cannot import the Demaq sources under {SOURCES}: "
              f"{exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SOURCES):
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{SOURCES}", file=sys.stderr)
        return 2
    from layers import LayerTracer, MissingEntryPoint
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    probe_before = host_probe()
    workload = WORKLOADS[args.workload](args.seed)
    tracer = LayerTracer() if args.trace else None
    rounds: list[Round] = []
    begin = perf_counter()
    # Start another round only if it should end within the time.
    while len(rounds) < MIN_ROUNDS[args.trace] or (
            perf_counter() - begin) * (len(rounds) + 1) / len(rounds) \
            <= args.seconds:
        if tracer is not None and len(rounds) % 2 == 1:
            try:
                with tracer.installed():
                    rounds.append(run_round(workload, tracer))
            except MissingEntryPoint as exc:
                print(f"error: cannot trace the layers: {exc}",
                      file=sys.stderr)
                return 2
        else:
            rounds.append(run_round(workload))
    measured = perf_counter() - begin
    probe_after = host_probe()

    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    counts_repeat = all(r.counts == rounds[0].counts for r in rounds)
    cross = next((r.cross_check for r in rounds if r.traced), [])
    disagreements = [row["check"] for row in cross if not row["agree"]]

    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "measured_s": measured,
        "latency_samples_per_round": len(workload.closed_loop),
        "host_probe_s": [probe_before, probe_after],
        "python": platform.python_version(), "cpus": os.cpu_count(),
        "config": active().to_json(),
        "round_counts": rounds[0].counts,
        "round_counts_repeat": counts_repeat,
        "registry_cross_check": cross,
        "backlog_s_per_round": [sum(r.batches) for r in rounds],
        "recovery_s_per_round": [r.recoveries for r in rounds],
        "setup_s_per_round": [r.setup_s for r in rounds],
        "problems": problems[:20],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    if problems:
        print("FAILED: " + " | ".join(problems[:5]), file=sys.stderr)
    if not counts_repeat:
        print("WARNING: per-round counts differ between rounds of one "
              "seed", file=sys.stderr)
    if disagreements:
        print("WARNING: wrappers and the /metrics registry disagree on: "
              + ", ".join(disagreements), file=sys.stderr)
    print(json.dumps({"diagnostics": diagnostics}))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
