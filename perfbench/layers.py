"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer (the
repo's modules) for the length of one traced round and restores them
afterwards, so untraced rounds run the program untouched.  Each wrapper
is a span: it records calls, inclusive time and self time (inclusive
time minus the time of spans nested inside it), and for read calls the
number of messages returned.  Only calls made while ``active`` is set
are recorded, so one phase can be measured in isolation.

:func:`layer_metrics` turns one traced backlog phase into the per-layer
metrics named ``<layer>.<metric>``; :func:`cross_check` compares the
wrapper's counts and times with the program's own ``/metrics`` registry.
"""

from __future__ import annotations

import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

from repro.engine.compiler import CompiledRule, compile_rules
from repro.engine.executor import RuleExecutor
from repro.engine.scheduler import Scheduler
from repro.engine.server import DemaqServer
from repro.network import Network, build_envelope, parse_envelope
from repro.qdl import compile_application
from repro.queues.properties import PropertyResolver
from repro.storage.store import MessageStore
from repro.storage.wal import WriteAheadLog
from repro.xmldm.parser import XMLParser
from repro.xmldm.serializer import serialize

#: (span, owner class, method names).
METHOD_SPANS = [
    ("xmldm.parse", XMLParser, ("parse_document",)),
    ("engine.ingress", DemaqServer, ("enqueue",)),
    ("engine.scheduler", Scheduler, ("next_batch",)),
    ("engine.executor", RuleExecutor, ("process_batch",)),
    ("queues.properties", PropertyResolver, ("resolve",)),
    ("storage.reads", MessageStore,
     ("slice_messages", "queue_messages", "property_lookup")),
    ("storage.body", MessageStore, ("parsed_body", "body_text")),
    ("storage.publish", MessageStore, ("publish",)),
    ("storage.commit", MessageStore, ("commit",)),
    ("storage.wal.append", WriteAheadLog, ("append",)),
    ("storage.wal.force", WriteAheadLog, ("flush",)),
    ("storage.recovery", MessageStore, ("recover",)),
    ("network.pump", Network, ("pump",)),
]

#: (span, function): wrapped in every ``repro`` module that imported the
#: function by name, since callers hold their own reference to it.
FUNCTION_SPANS = [
    ("xmldm.serialize", serialize),
    ("network.envelope", build_envelope),
    ("network.envelope", parse_envelope),
    ("qdl.compile", compile_application),
    ("engine.compile_rules", compile_rules),
]

#: Spans whose results are message lists: their lengths are summed.
_COUNTED = {"storage.reads"}


class Span:
    __slots__ = ("calls", "total", "self_time", "items", "durations",
                 "parents")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0
        self.durations: list[float] = []
        self.parents: dict[str | None, int] = {}


class MissingEntryPoint(RuntimeError):
    """A layer entry point the tracer wraps no longer exists."""


class LayerTracer:
    """Installs span wrappers around each layer's entry points."""

    def __init__(self) -> None:
        self.active = False
        self.spans: dict[str, Span] = {}
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = {}
        self._stack.clear()

    def span(self, name: str) -> Span:
        return self.spans.get(name) or Span()

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        counted = name in _COUNTED

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += elapsed
                span = tracer.spans.get(name)
                if span is None:
                    span = tracer.spans[name] = Span()
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[0]
                span.durations.append(elapsed)
                key = parent[1] if parent is not None else None
                span.parents[key] = span.parents.get(key, 0) + 1
            if counted:
                span.items += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block.

        Raises :class:`MissingEntryPoint` if any entry point is gone, so
        that a renamed function fails the run instead of reading zero.
        """
        missing = []
        for name, owner, methods in METHOD_SPANS:
            for method in methods:
                fn = owner.__dict__.get(method)
                if fn is None:
                    missing.append(f"{owner.__name__}.{method}")
                else:
                    self._patch(owner, method, self._wrap(name, fn))
        for name, fn in FUNCTION_SPANS:
            wrapped = self._wrap(name, fn)
            modules = [module for module in list(sys.modules.values())
                       if getattr(module, "__name__", "").startswith("repro")
                       and vars(module).get(fn.__name__) is fn]
            if not modules:
                missing.append(f"{fn.__module__}.{fn.__name__}")
            for module in modules:
                self._patch(module, fn.__name__, wrapped)
        evaluator = CompiledRule.__dict__.get("evaluator")
        if evaluator is None:
            missing.append("CompiledRule.evaluator")
        else:
            wrapped_evaluators: dict = {}

            def traced_evaluator(rule):
                fn = evaluator(rule)
                wrapped = wrapped_evaluators.get(fn)
                if wrapped is None:
                    wrapped = wrapped_evaluators[fn] = \
                        self._wrap("xquery.eval", fn)
                return wrapped

            self._patch(CompiledRule, "evaluator", traced_evaluator)
        try:
            if missing:
                raise MissingEntryPoint(
                    "entry points not found: " + ", ".join(missing))
            yield self
        finally:
            self.active = False
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    @contextmanager
    def recording(self):
        """Record spans for the duration of the block (from empty)."""
        self.reset()
        self.active = True
        try:
            yield self
        finally:
            self.active = False


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def layer_metrics(tracer: LayerTracer, registry: dict[str, float],
                  msgs: int, wal_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced backlog phase.

    *registry* holds the deltas of the program's own counters over the
    phase; *msgs* is the number of messages the engine processed.
    """
    span = tracer.span
    us = 1e6
    reads = span("storage.reads")
    body = span("storage.body")
    parse = span("xmldm.parse")
    force = span("storage.wal.force")
    append = span("storage.wal.append")
    envelope = span("network.envelope")
    rules = registry.get("demaq_executor_rules_evaluated_total", 0)
    skipped = registry.get(
        "demaq_executor_rules_skipped_by_prefilter_total", 0)
    batches = span("engine.executor").calls
    hits = registry.get("demaq_store_parse_cache_hits_total", 0)
    return {
        "xmldm.parse.calls_per_msg": _per(parse.calls, msgs),
        "xmldm.parse.us_per_msg": _per(parse.self_time * us, msgs),
        "xmldm.serialize.us_per_msg": _per(
            span("xmldm.serialize").self_time * us, msgs),
        "xquery.eval.calls_per_msg": _per(span("xquery.eval").calls, msgs),
        "xquery.eval.self_us_per_msg": _per(
            span("xquery.eval").self_time * us, msgs),
        "engine.ingress.us_per_msg": _per(
            span("engine.ingress").self_time * us, msgs),
        "engine.scheduler.us_per_msg": _per(
            span("engine.scheduler").self_time * us, msgs),
        "engine.executor.self_us_per_msg": _per(
            span("engine.executor").self_time * us, msgs),
        "engine.executor.batch_fill": _per(
            registry.get("demaq_executor_messages_processed_total", 0),
            batches),
        "engine.executor.retries_per_msg": _per(
            registry.get("demaq_executor_deadlock_retries_total", 0), msgs),
        "engine.prefilter.skip_ratio": _per(skipped, rules + skipped),
        "queues.properties.us_per_msg": _per(
            span("queues.properties").self_time * us, msgs),
        "storage.reads.calls_per_msg": _per(reads.calls, msgs),
        "storage.reads.msgs_per_call": _per(reads.items, reads.calls),
        "storage.reads.self_us_per_msg": _per(reads.self_time * us, msgs),
        "storage.body.self_us_per_msg": _per(body.self_time * us, msgs),
        "storage.parse_cache.hit_ratio": _per(hits, body.calls),
        "storage.publish.self_us_per_msg": _per(
            span("storage.publish").self_time * us, msgs),
        "storage.commit.self_us_per_msg": _per(
            span("storage.commit").self_time * us, msgs),
        "storage.wal.records_per_msg": _per(append.calls, msgs),
        "storage.wal.bytes_per_record": _per(wal_bytes, append.calls),
        "storage.wal.append_us_per_msg": _per(append.self_time * us, msgs),
        "storage.wal.forces_per_msg": _per(force.calls, msgs),
        "storage.wal.force_us_p50": (
            statistics.median(force.durations) * us
            if force.durations else 0.0),
        "storage.wal.force_us_per_msg": _per(force.self_time * us, msgs),
        "storage.locks.acquisitions_per_msg": _per(
            registry.get("demaq_locks_acquisitions_total", 0), msgs),
        "network.envelope.us_per_msg": _per(envelope.self_time * us, msgs),
        "network.pump.self_us_per_msg": _per(
            span("network.pump").self_time * us, msgs),
    }


#: Layer self times that add up to the traced part of a message's cost.
SELF_TIME_METRICS = [
    "xmldm.parse.us_per_msg", "xmldm.serialize.us_per_msg",
    "xquery.eval.self_us_per_msg", "engine.ingress.us_per_msg",
    "engine.scheduler.us_per_msg", "engine.executor.self_us_per_msg",
    "queues.properties.us_per_msg", "storage.reads.self_us_per_msg",
    "storage.body.self_us_per_msg", "storage.publish.self_us_per_msg",
    "storage.commit.self_us_per_msg", "storage.wal.append_us_per_msg",
    "storage.wal.force_us_per_msg", "network.envelope.us_per_msg",
    "network.pump.self_us_per_msg",
]

#: Per-layer metrics derived from counts only: they repeat exactly in
#: every run with the same seed.
COUNT_METRICS = [
    "xmldm.parse.calls_per_msg", "xquery.eval.calls_per_msg",
    "engine.executor.batch_fill", "engine.executor.retries_per_msg",
    "engine.prefilter.skip_ratio", "storage.reads.calls_per_msg",
    "storage.reads.msgs_per_call", "storage.parse_cache.hit_ratio",
    "storage.wal.records_per_msg", "storage.wal.bytes_per_record",
    "storage.wal.forces_per_msg", "storage.locks.acquisitions_per_msg",
    "storage.recovery.records",
]


def cross_check(tracer: LayerTracer, registry: dict[str, float],
                time_tolerance: float = 0.25,
                per_call_slack: float = 5e-6) -> list[dict]:
    """Compare wrapper-measured counts and times with the registry.

    Counts must agree exactly.  The wrapper and the registry's timer do
    not enclose quite the same code (the rule timer also covers the
    evaluator lookup; a wrapper also covers its own bookkeeping), so
    times agree within *time_tolerance* of the registry's figure or
    *per_call_slack* seconds per call, whichever is larger.
    """
    span = tracer.span
    body = span("storage.body")
    body_parses = span("xmldm.parse").parents.get("storage.body", 0)
    rows = []

    def count(name, instrument, wrapper):
        value = registry.get(instrument, 0)
        rows.append({"check": name, "registry": value, "wrapper": wrapper,
                     "agree": value == wrapper})

    def seconds(name, instrument, timed: Span):
        value = registry.get(instrument, 0.0)
        slack = max(time_tolerance * value, per_call_slack * timed.calls)
        rows.append({"check": name, "registry": value,
                     "wrapper": timed.total,
                     "agree": abs(timed.total - value) <= slack})

    count("rule evaluations", "demaq_rule_seconds_count",
          span("xquery.eval").calls)
    seconds("rule seconds", "demaq_rule_seconds_sum", span("xquery.eval"))
    count("commits", "demaq_store_commit_seconds_count",
          span("storage.commit").calls)
    seconds("commit seconds", "demaq_store_commit_seconds_sum",
            span("storage.commit"))
    count("force histogram count", "demaq_wal_fsync_seconds_count",
          span("storage.wal.force").calls)
    seconds("force seconds", "demaq_wal_fsync_seconds_sum",
            span("storage.wal.force"))
    count("WAL records", "demaq_wal_appended_records_total",
          span("storage.wal.append").calls)
    count("WAL forces", "demaq_wal_forces_total",
          span("storage.wal.force").calls)
    count("body parses", "demaq_store_body_parses_total", body_parses)
    count("parse-cache hits", "demaq_store_parse_cache_hits_total",
          body.calls - body_parses)
    return rows
