"""The program's layers, the public functions that mark their boundaries,
and the per-layer metrics derived from a traced run.

Each function is wrapped where its caller looks it up: ``parse`` as
``repro.script.sandbox.parse``, ``aggregate_footrule`` as
``repro.server.ranker_service.aggregate_footrule``, ``apply_records`` as
``repro.server.sharding.apply_records``, the codec functions as
attributes of ``repro.net.codec`` (``Envelope`` calls them through the
module). Methods are wrapped on the class that defines them.
"""

from __future__ import annotations

from typing import Any

from perfbench.spans import SpanRecorder, Target, TraceSummary

TABLE_OPS = ("insert", "get", "select", "update", "delete")


def counter_total(registry: Any, name: str) -> float:
    """Sum of every label series of counter ``name`` (0 if never created)."""
    metric = registry.get(name)
    if metric is None:
        return 0.0
    return sum(child.value for _, child in metric.series())


def _add(count: str, measure=lambda args, result: 1.0):
    def on_result(recorder: SpanRecorder, args: tuple, result: Any) -> None:
        recorder.count(count, measure(args, result))

    return on_result


#: Per-layer counts the program keeps in its own metrics registry.
PROGRAM_COUNTERS: dict[str, str] = {
    "net.resilience.retries": "sor_net_retries_total",
    "server.server.dedupe_replays": "sor_server_duplicate_envelopes_total",
    "core.scheduling.instants_evaluated": "sor_scheduler_instants_evaluated_total",
}


def program_counts(registries: list[Any], simulator: Any = None) -> dict[str, float]:
    """The program's own counts, read from a deployment's state.

    ``registries`` are the metrics registries the deployment's objects
    write to; one listed twice is read once. ``simulator`` supplies
    ``sim.engine.events``. The runner reads these before and after a
    round's timed work, so each count is read once per round however
    deeply the calls that bump it nest.
    """
    distinct = list({id(registry): registry for registry in registries}.values())
    counts = {
        name: sum(counter_total(registry, counter) for registry in distinct)
        for name, counter in PROGRAM_COUNTERS.items()
    }
    counts["sim.engine.events"] = (
        float(simulator.events_processed) if simulator is not None else 0.0
    )
    return counts


def targets() -> list[Target]:
    """Every wrapped function, grouped by layer."""
    import repro.net.codec as codec
    import repro.script.sandbox as sandbox
    import repro.server.ranker_service as ranker_service
    import repro.server.sharding as sharding
    from repro.core.features.pipeline import FeaturePipeline
    from repro.core.scheduling.objective import CoverageObjective
    from repro.db.replication import WalShipper
    from repro.db.table import Table
    from repro.db.wal import DurabilityManager, WalWriter
    from repro.net.messages import Envelope
    from repro.net.resilience import ResilientClient
    from repro.net.router import ShardRouter
    from repro.net.transport import Network
    from repro.phone.frontend import MobilePhone
    from repro.script.interpreter import Interpreter
    from repro.sensors import provider
    from repro.server.data_processor import DataProcessor
    from repro.server.ranker_service import PersonalizableRanker, RankingCache
    from repro.server.scheduler_service import SensingSchedulerService
    from repro.server.server import SensingServer

    provider_classes = [
        cls
        for cls in vars(provider).values()
        if isinstance(cls, type)
        and cls.__module__ == provider.__name__
        and "acquire_burst" in vars(cls)
        and cls is not provider.Provider
    ]
    return [
        Target(codec, "encode_body", "net.codec",
               on_result=_add("net.codec.bytes", lambda a, r: len(r))),
        Target(codec, "decode_body", "net.codec",
               on_result=_add("net.codec.bytes", lambda a, r: len(a[0]))),
        Target(Envelope, "content_key", "net.messages"),
        Target(Network, "send", "net.transport"),
        Target(ResilientClient, "send", "net.resilience"),
        Target(ShardRouter, "handle_request", "net.router"),
        Target(SensingServer, "handle_request", "server.server"),
        Target(SensingSchedulerService, "schedule_task", "server.scheduler_service"),
        Target(CoverageObjective, "add", "core.scheduling"),
        Target(CoverageObjective, "gains_fast", "core.scheduling"),
        Target(PersonalizableRanker, "rank_many", "server.ranker_service"),
        Target(RankingCache, "get", "server.ranker_service",
               on_result=_add("server.ranker_service.cache_hits",
                              lambda a, r: float(r is not None))),
        Target(ranker_service, "aggregate_footrule", "core.ranking",
               on_result=_add("core.ranking.places",
                              lambda a, r: len(r.items))),
        Target(DataProcessor, "process_pending", "server.data_processor",
               on_result=_add("server.data_processor.blobs_decoded",
                              lambda a, r: r)),
        Target(DataProcessor, "compute_features", "server.data_processor"),
        Target(FeaturePipeline, "compute_available", "core.features"),
        *(Target(Table, op, "db.table") for op in TABLE_OPS),
        Target(DurabilityManager, "commit", "db.wal"),
        Target(DurabilityManager, "checkpoint", "db.wal"),
        Target(WalWriter, "append", "db.wal", span=False,
               on_result=_add("db.wal.bytes", lambda a, r: r)),
        Target(WalShipper, "ship", "db.replication"),
        Target(sharding, "apply_records", "db.replication",
               on_result=_add("db.replication.records_applied",
                              lambda a, r: r)),
        Target(sandbox, "parse", "script"),
        Target(Interpreter, "run", "script"),
        *(Target(cls, "acquire_burst", "sensors") for cls in provider_classes),
        Target(MobilePhone, "tick", "phone"),
    ]


#: Per-layer metric name → unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "net.codec.calls": "count",
    "net.codec.self_ms": "ms",
    "net.codec.bytes": "bytes",
    "net.messages.content_key_calls": "count",
    "net.messages.content_key_self_ms": "ms",
    "net.transport.sends": "count",
    "net.transport.self_ms": "ms",
    "net.resilience.retries": "count",
    "net.router.calls": "count",
    "net.router.self_ms": "ms",
    "server.server.requests": "count",
    "server.server.self_ms": "ms",
    "server.server.dedupe_replays": "count",
    "server.scheduler_service.calls": "count",
    "server.scheduler_service.self_ms": "ms",
    "core.scheduling.self_ms": "ms",
    "core.scheduling.instants_evaluated": "count",
    "server.ranker_service.calls": "count",
    "server.ranker_service.self_ms": "ms",
    "server.ranker_service.cache_hit_ratio": "ratio",
    "core.ranking.aggregations": "count",
    "core.ranking.self_ms": "ms",
    "core.ranking.places_per_aggregation": "count",
    "server.data_processor.blobs_decoded": "count",
    "server.data_processor.self_ms": "ms",
    "core.features.self_ms": "ms",
    "db.table.ops": "count",
    "db.table.self_ms": "ms",
    "db.wal.commits": "count",
    "db.wal.bytes": "bytes",
    "db.wal.self_ms": "ms",
    "db.wal.checkpoints": "count",
    "db.wal.checkpoint_max_ms": "ms",
    "db.replication.ships": "count",
    "db.replication.records_applied": "count",
    "db.replication.self_ms": "ms",
    "script.parses": "count",
    "script.runs": "count",
    "script.parse_self_ms": "ms",
    "script.exec_self_ms": "ms",
    "sensors.bursts": "count",
    "sensors.self_ms": "ms",
    "phone.ticks": "count",
    "phone.self_ms": "ms",
    "sim.engine.events": "count",
    "trace.overhead_pct": "%",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(summary: TraceSummary, rounds: int) -> dict[str, float]:
    """Per-layer metrics per traced round (ratios and maxima as they are).

    ``trace.overhead_pct`` needs the untraced run and is added by the
    runner.
    """
    s, c = summary, summary.counts
    totals = {
        "net.codec.calls": s.calls("net.codec"),
        "net.codec.self_ms": s.self_ms("net.codec"),
        "net.codec.bytes": c.get("net.codec.bytes", 0.0),
        "net.messages.content_key_calls": s.calls("net.messages"),
        "net.messages.content_key_self_ms": s.self_ms("net.messages"),
        "net.transport.sends": s.calls("net.transport"),
        "net.transport.self_ms": s.self_ms("net.transport"),
        "net.resilience.retries": c.get("net.resilience.retries", 0.0),
        "net.router.calls": s.calls("net.router"),
        "net.router.self_ms": s.self_ms("net.router"),
        "server.server.requests": s.calls("server.server"),
        "server.server.self_ms": s.self_ms("server.server"),
        "server.server.dedupe_replays": c.get("server.server.dedupe_replays", 0.0),
        "server.scheduler_service.calls": s.calls("server.scheduler_service"),
        "server.scheduler_service.self_ms": s.self_ms("server.scheduler_service"),
        "core.scheduling.self_ms": s.self_ms("core.scheduling"),
        "core.scheduling.instants_evaluated":
            c.get("core.scheduling.instants_evaluated", 0.0),
        "server.ranker_service.calls": s.calls("server.ranker_service", "rank_many"),
        "server.ranker_service.self_ms": s.self_ms("server.ranker_service"),
        "core.ranking.aggregations": s.calls("core.ranking"),
        "core.ranking.self_ms": s.self_ms("core.ranking"),
        "server.data_processor.blobs_decoded":
            c.get("server.data_processor.blobs_decoded", 0.0),
        "server.data_processor.self_ms": s.self_ms("server.data_processor"),
        "core.features.self_ms": s.self_ms("core.features"),
        "db.table.ops": s.calls("db.table"),
        "db.table.self_ms": s.self_ms("db.table"),
        "db.wal.commits": s.calls("db.wal", "commit"),
        "db.wal.bytes": c.get("db.wal.bytes", 0.0),
        "db.wal.self_ms": s.self_ms("db.wal"),
        "db.wal.checkpoints": s.calls("db.wal", "checkpoint"),
        "db.replication.ships": s.calls("db.replication", "ship"),
        "db.replication.records_applied":
            c.get("db.replication.records_applied", 0.0),
        "db.replication.self_ms": s.self_ms("db.replication"),
        "script.parses": s.calls("script", "parse"),
        "script.runs": s.calls("script", "run"),
        "script.parse_self_ms": s.self_ms("script", "parse"),
        "script.exec_self_ms": s.self_ms("script", "run"),
        "sensors.bursts": s.calls("sensors"),
        "sensors.self_ms": s.self_ms("sensors"),
        "phone.ticks": s.calls("phone"),
        "phone.self_ms": s.self_ms("phone"),
        "sim.engine.events": c.get("sim.engine.events", 0.0),
    }
    metrics = {name: float(value) / rounds for name, value in totals.items()}
    metrics["server.ranker_service.cache_hit_ratio"] = _ratio(
        c.get("server.ranker_service.cache_hits", 0.0),
        s.calls("server.ranker_service", "get"),
    )
    metrics["core.ranking.places_per_aggregation"] = _ratio(
        c.get("core.ranking.places", 0.0), s.calls("core.ranking")
    )
    metrics["db.wal.checkpoint_max_ms"] = s.max_ms("db.wal", "checkpoint")
    return metrics
