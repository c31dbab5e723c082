"""The four benchmark workloads.

Every workload is built from its seed alone and runs in *rounds*: a
round sets up a fresh deployment (timed as set-up), runs a fixed
sequence of timed steps against it, checks the outputs and tears the
deployment down. Every round runs the same steps in the same order, so
step ``i`` of one round is the same work as step ``i`` of any other.

The request workloads (``serve``, ``rank``, ``fleet``) are closed loop
with one client: the server is a synchronous in-process call, so the
next request is built only after the previous reply is decoded. Each
request is timed by the client, from building the request bytes to the
decoded reply.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench import checks, layers
from perfbench.spans import SpanRecorder
from repro.common.clock import ManualClock
from repro.common.errors import CodecError, TransportError
from repro.common.geo import LatLon
from repro.core.features import FeaturePipeline, FeatureSpec, MeanExtractor
from repro.db import DurabilityConfig, and_, eq
from repro.experiments import TABLE1_EXPECTED, TABLE2_EXPECTED
from repro.net import Envelope, MessageType, NetworkConditions
from repro.net.http import HttpRequest
from repro.net.resilience import BreakerPolicy, ResilientClient, RetryPolicy
from repro.net.transport import Network
from repro.obs import MetricsRegistry, NullTracer, get_metrics
from repro.server import SORSystem
from repro.server.app_manager import Application
from repro.server.ranker_service import (
    PersonalizableRanker,
    bump_data_version,
    profile_from_dict,
)
from repro.server.server import SensingServer
from repro.server.sharding import ShardCluster
from repro.sim import scenarios
from repro.sim.loadgen import PROFILES, LoadgenSpec, build_workload, workload_digest

SERVER_HOST = "bench-server"
#: Features every request-workload place carries (as the loadgen's).
FEATURES = ("noise_db", "wifi_mbps", "occupancy")
FEATURE_RANGES = {"noise_db": (40.0, 80.0), "wifi_mbps": (1.0, 100.0),
                  "occupancy": (0.0, 1.0)}


def digest(inputs: Any) -> str:
    """A short stable hash of JSON-able generated inputs."""
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class Samples:
    """One round's timed steps and client-side latencies, both in order.

    Steps cover the round's whole timed work (a request, a feature
    refresh, a replication pump, one simulator event). Latencies are
    the requests among them, by kind.
    """

    steps: list[float] = field(default_factory=list)
    latencies: list[tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def step(self, ms: float) -> None:
        """Record one timed step."""
        self.steps.append(ms)

    def latency(self, kind: str, ms: float) -> None:
        """Record one request latency."""
        self.latencies.append((kind, ms))


def timed_step(samples: Samples, action: Callable[[], Any], kind: str = "") -> Any:
    """Run ``action`` as one timed step, also a latency of ``kind`` if given."""
    started = time.perf_counter()
    try:
        return action()
    finally:
        ms = 1000.0 * (time.perf_counter() - started)
        samples.step(ms)
        if kind:
            samples.latency(kind, ms)


class Workload:
    """One benchmark workload; subclasses fill in the round steps."""

    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def inputs(self) -> Any:
        """The generated inputs, JSON-able, without execution shape."""
        raise NotImplementedError

    def digest(self) -> str:
        """The workload identity: a hash of :meth:`inputs`."""
        return digest({"workload": self.name, "inputs": self.inputs()})

    def setup(self, *, warmup: bool) -> Any:
        """Build a fresh deployment for one round; returns its state."""
        raise NotImplementedError

    def run(self, state: Any, samples: Samples, recorder: SpanRecorder | None) -> int:
        """The timed work of one round; returns the requests completed."""
        raise NotImplementedError

    def check(self, state: Any) -> list[str]:
        """Problems with the round's outputs (empty when correct)."""
        raise NotImplementedError

    def counters(self, state: Any) -> dict[str, float]:
        """The program's own per-layer counts, as :func:`layers.program_counts`."""
        return layers.program_counts([state.metrics])

    def teardown(self, state: Any) -> None:
        """Release the round's deployment."""


# ----------------------------------------------------------------------
# the client side of the request workloads
# ----------------------------------------------------------------------
class TimedClient:
    """One closed-loop client that times every request it makes.

    A request fails on a transport error (retries exhausted included),
    any status but 200, or an ERROR reply.
    """

    def __init__(
        self,
        network: Network,
        host: str,
        *,
        seed: int,
        metrics: MetricsRegistry,
        samples: Samples,
        recorder: SpanRecorder | None,
    ) -> None:
        self.host = host
        self.samples = samples
        self.recorder = recorder
        self.client = ResilientClient(
            network,
            policy=RetryPolicy(
                max_attempts=4, base_backoff_s=0.001, max_backoff_s=0.01,
                deadline_s=30.0,
            ),
            breaker_policy=BreakerPolicy(
                failure_threshold=1_000_000, recovery_timeout_s=0.001
            ),
            rng=np.random.default_rng((seed, 2)),
            sleep=time.sleep,
            metrics=metrics,
            tracer=NullTracer(),
        )

    def post(
        self, kind: str, build: Callable[[], Envelope]
    ) -> tuple[Envelope | None, bytes, Envelope | None]:
        """Send what ``build`` makes; returns (reply, reply body, request).

        The reply is None when the request failed.
        """
        self.samples.attempted += 1
        reply: Envelope | None = None
        body = b""
        envelope: Envelope | None = None
        context = self.recorder.request(kind) if self.recorder else nullcontext()
        with context:
            started = time.perf_counter()
            try:
                envelope = build()
                response = self.client.send(
                    HttpRequest("POST", self.host, "/sor", envelope.to_bytes())
                )
                if response.status == 200:
                    body = response.body
                    reply = Envelope.from_bytes(body)
            except (TransportError, CodecError):
                reply = None
            elapsed = time.perf_counter() - started
        self.samples.step(1000.0 * elapsed)
        self.samples.latency(kind, 1000.0 * elapsed)
        if reply is None or reply.message_type is MessageType.ERROR:
            self.samples.failed += 1
            return None, body, envelope
        return reply, body, envelope


@dataclass
class SessionLog:
    """What the phone sessions of one round saw."""

    completed: int = 0
    errors: int = 0
    mismatches: int = 0
    acked_tasks: list[str] = field(default_factory=list)


def run_sessions(
    client: TimedClient,
    scripts: list[Any],
    spec: LoadgenSpec,
    category_of: dict[str, str],
    log: SessionLog,
) -> None:
    """The loadgen phone-session mix: participate, pull, upload, rank."""
    host = client.host
    for script in scripts:
        sender = f"phone-{script.index}"
        reply, body, participate = client.post(
            "participate",
            lambda: Envelope(
                message_type=MessageType.PARTICIPATE,
                sender=sender,
                recipient=host,
                payload={
                    "app_id": script.app_id,
                    "user_id": script.user_id,
                    "token": script.token,
                    "budget": spec.budget,
                    "latitude": script.location.latitude,
                    "longitude": script.location.longitude,
                    "departure_time": script.departure_time,
                },
            ).with_idempotency_key(),
        )
        if reply is None or reply.message_type is not MessageType.SCHEDULE:
            log.errors += 1
            continue
        task_id = reply.payload["task_id"]
        log.acked_tasks.append(task_id)
        if script.pull:
            # A verbatim replay: the idempotency layer must serve the
            # identical stored reply.
            pulled, pulled_body, _ = client.post("pull", lambda: participate)
            if pulled is None or pulled_body != body:
                log.mismatches += 1
        ack, _, _ = client.post(
            "upload",
            lambda: Envelope(
                message_type=MessageType.SENSED_DATA,
                sender=sender,
                recipient=host,
                payload={
                    "task_id": task_id,
                    "token": script.token,
                    "status": "finished",
                    "executed": script.executed,
                    "readings": [script.index, script.executed],
                },
            ).with_idempotency_key(),
        )
        if ack is None or ack.message_type is not MessageType.ACK:
            log.errors += 1
            continue
        if script.rank_profile >= 0:
            ranking, _, _ = client.post(
                "rank",
                lambda: Envelope(
                    message_type=MessageType.RANK_QUERY,
                    sender=sender,
                    recipient=host,
                    payload={
                        "category": category_of[script.app_id],
                        "profiles": [PROFILES[script.rank_profile]],
                    },
                ),
            )
            if ranking is None or ranking.message_type is not MessageType.RANKING:
                log.errors += 1
                continue
        log.completed += 1


def _network(seed: int, metrics: MetricsRegistry) -> Network:
    return Network(
        conditions=NetworkConditions(base_latency_s=0.0, jitter_s=0.0),
        rng=np.random.default_rng(seed + 1),
        metrics=metrics,
    )


def _application(
    place_index: int, category: str, location: LatLon, num_instants: int,
    period_s: float,
) -> Application:
    return Application(
        app_id=f"app-place-{place_index}",
        creator="perfbench",
        place_id=f"place-{place_index}",
        place_name=f"Place {place_index}",
        category=category,
        location=location,
        script="local data = {}\nreturn data",
        pipeline=FeaturePipeline(
            [FeatureSpec(feature, "microphone", MeanExtractor()) for feature in FEATURES]
        ),
        period_start=0.0,
        period_end=period_s,
        num_instants=num_instants,
    )


def _seed_features(
    server: SensingServer, place_index: int, category: str, values: list[float]
) -> None:
    table = server.database.table("feature_data")
    for feature, value in zip(FEATURES, values):
        table.insert(
            {
                "place_id": f"place-{place_index}",
                "category": category,
                "feature": feature,
                "value": value,
                "computed_at": 0.0,
            }
        )


class _SessionWorkload(Workload):
    """Shared inputs of ``serve`` and ``fleet``: the loadgen population."""

    phones = 0
    categories = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.spec = LoadgenSpec(
            phones=self.phones, seed=seed, mode="sequential", places=8,
            categories=self.categories,
        )
        self.scripts = build_workload(self.spec)
        rng = np.random.default_rng((seed, 7))
        self.feature_values = [
            [round(float(rng.uniform(*FEATURE_RANGES[f])), 6) for f in FEATURES]
            for _ in range(self.spec.places)
        ]
        self.locations = {s.app_id: s.location for s in self.scripts}
        self.category_of = {
            f"app-place-{index}": (
                "loadgen" if self.categories == 1 else f"loadgen-{index % self.categories}"
            )
            for index in range(self.spec.places)
        }

    def inputs(self) -> Any:
        return {
            "loadgen": workload_digest(self.spec, self.scripts),
            "features": self.feature_values,
            "categories": self.category_of,
        }

    def applications(self) -> list[tuple[int, Application]]:
        """Every place's application, freshly built."""
        return [
            (
                index,
                _application(
                    index,
                    self.category_of[f"app-place-{index}"],
                    self.locations[f"app-place-{index}"],
                    self.spec.num_instants,
                    self.spec.period_s,
                ),
            )
            for index in range(self.spec.places)
        ]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
@dataclass
class _ServeState:
    server: SensingServer
    directory: Path
    metrics: MetricsRegistry
    log: SessionLog = field(default_factory=SessionLog)


class Serve(_SessionWorkload):
    """One durable server receiving the loadgen phone-session mix."""

    name = "serve"
    phones = 500
    #: WAL records between automatic checkpoints: a few per round.
    checkpoint_every_records = 1000

    def setup(self, *, warmup: bool) -> _ServeState:
        directory = Path(tempfile.mkdtemp(prefix="serve-", dir=self.scratch))
        metrics = MetricsRegistry()
        server = SensingServer(
            SERVER_HOST,
            _network(self.seed, metrics),
            ManualClock(0.0),
            metrics=metrics,
            tracer=NullTracer(),
            dedupe_capacity=3 * self.phones + 64,
            durability=DurabilityConfig(
                directory=directory,
                fsync=False,
                checkpoint_every_records=self.checkpoint_every_records,
            ),
        )
        for index, application in self.applications():
            server.create_application(application)
            _seed_features(
                server, index, application.category, self.feature_values[index]
            )
        for script in self.scripts:
            server.register_user(script.user_id, script.user_id.title(), script.token)
        return _ServeState(server=server, directory=directory, metrics=metrics)

    def run(self, state: _ServeState, samples: Samples, recorder: SpanRecorder | None) -> int:
        client = TimedClient(
            state.server.network, SERVER_HOST, seed=self.seed,
            metrics=state.metrics, samples=samples, recorder=recorder,
        )
        attempted = samples.attempted
        run_sessions(client, self.scripts, self.spec, self.category_of, state.log)
        return samples.attempted - attempted

    def check(self, state: _ServeState) -> list[str]:
        tasks = state.server.database.table("tasks")
        return checks.session_problems(
            phones=len(self.scripts),
            completed=state.log.completed,
            error_replies=state.log.errors,
            replay_mismatches=state.log.mismatches,
        ) + checks.missing_task_problems(
            state.log.acked_tasks, lambda task_id: tasks.get(task_id) is not None,
            "the primary",
        )

    def teardown(self, state: _ServeState) -> None:
        state.server.close()
        if state.server.database.durability is not None:
            state.server.database.durability.close()
        shutil.rmtree(state.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
@dataclass
class _FleetState:
    cluster: ShardCluster
    directory: Path
    metrics: MetricsRegistry
    log: SessionLog = field(default_factory=SessionLog)


class Fleet(_SessionWorkload):
    """2 shards × 1 replica behind the router; replicas serve rank queries.

    Replication is pumped on the client thread, one timed step after
    every ``pump_every`` phone sessions, through
    ``ShardCluster.sync_replicas`` — the call the cluster's background
    replication thread makes on a timer. At fixed points every round
    ships and applies the same records, so rounds stay identical.
    """

    name = "fleet"
    phones = 480
    categories = 2
    shards = 2
    pump_every = 40

    def setup(self, *, warmup: bool) -> _FleetState:
        directory = Path(tempfile.mkdtemp(prefix="fleet-", dir=self.scratch))
        metrics = MetricsRegistry()
        network = _network(self.seed, metrics)
        cluster = ShardCluster(
            network,
            ManualClock(0.0),
            directory,
            num_shards=self.shards,
            replicas_per_shard=1,
            metrics=metrics,
            tracer=NullTracer(),
            fsync=False,
            router_client=ResilientClient(
                network,
                policy=RetryPolicy(
                    max_attempts=8, base_backoff_s=0.001, max_backoff_s=0.02,
                    deadline_s=60.0,
                ),
                breaker_policy=BreakerPolicy(
                    failure_threshold=64, recovery_timeout_s=0.05
                ),
                rng=np.random.default_rng(self.seed + 3),
                sleep=time.sleep,
                metrics=metrics,
                tracer=NullTracer(),
            ),
        )
        for index, application in self.applications():
            primary = cluster.create_application(
                application, pin_to=f"shard-{index % self.categories % self.shards}"
            )
            _seed_features(
                primary, index, application.category, self.feature_values[index]
            )
        for script in self.scripts:
            cluster.register_user(script.user_id, script.user_id.title(), script.token)
        # Ship the seeded data before traffic, so no rank query meets a
        # replica without its category.
        cluster.sync_replicas()
        return _FleetState(cluster=cluster, directory=directory, metrics=metrics)

    def run(self, state: _FleetState, samples: Samples, recorder: SpanRecorder | None) -> int:
        client = TimedClient(
            state.cluster.network, state.cluster.router_host, seed=self.seed,
            metrics=state.metrics, samples=samples, recorder=recorder,
        )
        attempted = samples.attempted
        for start in range(0, len(self.scripts), self.pump_every):
            run_sessions(
                client, self.scripts[start:start + self.pump_every], self.spec,
                self.category_of, state.log,
            )
            timed_step(samples, state.cluster.sync_replicas)
        return samples.attempted - attempted

    def check(self, state: _FleetState) -> list[str]:
        cluster = state.cluster
        cluster.sync_replicas()

        def shard_of(task_id: str):
            return cluster.shards.get(task_id.rsplit(":task-", 1)[0])

        def on_primary(task_id: str) -> bool:
            shard = shard_of(task_id)
            return shard is not None and (
                shard.primary.database.table("tasks").get(task_id) is not None
            )

        def on_replica(task_id: str) -> bool:
            shard = shard_of(task_id)
            return shard is not None and all(
                replica.database.table("tasks").get(task_id) is not None
                for replica in shard.replicas
            )

        return (
            checks.session_problems(
                phones=len(self.scripts),
                completed=state.log.completed,
                error_replies=state.log.errors,
                replay_mismatches=state.log.mismatches,
            )
            + checks.missing_task_problems(state.log.acked_tasks, on_primary, "the primaries")
            + checks.missing_task_problems(
                state.log.acked_tasks, on_replica, "the caught-up replicas"
            )
        )

    def teardown(self, state: _FleetState) -> None:
        state.cluster.close()
        shutil.rmtree(state.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# rank
# ----------------------------------------------------------------------
@dataclass
class _RankState:
    server: SensingServer
    metrics: MetricsRegistry
    problems: list[str] = field(default_factory=list)
    last_queries: list[list[dict[str, Any]]] = field(default_factory=list)
    last_cold: list[dict[str, Any]] = field(default_factory=list)


class Rank(Workload):
    """Feature refreshes, each followed by cold then warm rank queries."""

    name = "rank"
    category = "rank"
    places = 32
    refreshes = 6
    places_per_refresh = 4
    profile_pool = 24
    single_queries = 4
    batch_size = 2
    warm_repeats = 4

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        rng = np.random.default_rng((seed, 11))
        self.initial = [self._values(rng) for _ in range(self.places)]
        self.pool = [self._profile(index, rng) for index in range(self.profile_pool)]
        picked = self.single_queries + self.batch_size
        self.plan = []
        for _ in range(self.refreshes):
            places = sorted(
                int(p) for p in rng.choice(self.places, self.places_per_refresh, replace=False)
            )
            profiles = [int(p) for p in rng.choice(self.profile_pool, picked, replace=False)]
            self.plan.append(
                {
                    "values": {place: self._values(rng) for place in places},
                    "queries": [[self.pool[p]] for p in profiles[: self.single_queries]]
                    + [[self.pool[p] for p in profiles[self.single_queries:]]],
                }
            )

    @staticmethod
    def _values(rng: np.random.Generator) -> list[float]:
        return [round(float(rng.uniform(*FEATURE_RANGES[f])), 6) for f in FEATURES]

    @staticmethod
    def _profile(index: int, rng: np.random.Generator) -> dict[str, Any]:
        preferences = {}
        for feature in FEATURES:
            kind = int(rng.integers(0, 3))
            preferred: Any = (
                "max" if kind == 0 else "min" if kind == 1
                else round(float(rng.uniform(*FEATURE_RANGES[feature])), 6)
            )
            preferences[feature] = {"preferred": preferred, "weight": int(rng.integers(1, 6))}
        return {"name": f"profile-{index}", "preferences": preferences}

    def inputs(self) -> Any:
        return {"initial": self.initial, "plan": self.plan}

    def setup(self, *, warmup: bool) -> _RankState:
        metrics = MetricsRegistry()
        server = SensingServer(
            SERVER_HOST, _network(self.seed, metrics), ManualClock(0.0),
            metrics=metrics, tracer=NullTracer(),
        )
        for index, values in enumerate(self.initial):
            server.create_application(
                _application(index, self.category, LatLon(43.0 + 0.001 * index, -76.0),
                             120, 10800.0)
            )
            _seed_features(server, index, self.category, values)
        return _RankState(server=server, metrics=metrics)

    def _refresh(self, server: SensingServer, values: dict[int, list[float]]) -> None:
        # The same write DataProcessor.compute_features makes.
        database = server.database
        bump_data_version(database, self.category)
        table = database.table("feature_data")
        for place, row in values.items():
            for feature, value in zip(FEATURES, row):
                table.update(
                    and_(eq("place_id", f"place-{place}"), eq("feature", feature)),
                    {"value": value, "computed_at": 1.0},
                )

    def _query(self, client: TimedClient, kind: str, profiles: list[dict[str, Any]]):
        return client.post(
            kind,
            lambda: Envelope(
                message_type=MessageType.RANK_QUERY,
                sender="bench-user",
                recipient=SERVER_HOST,
                payload={"category": self.category, "profiles": profiles},
            ),
        )[0]

    def run(self, state: _RankState, samples: Samples, recorder: SpanRecorder | None) -> int:
        client = TimedClient(
            state.server.network, SERVER_HOST, seed=self.seed,
            metrics=state.metrics, samples=samples, recorder=recorder,
        )
        attempted = samples.attempted
        for step in self.plan:
            timed_step(samples, lambda: self._refresh(state.server, step["values"]))
            cold = []
            for profiles in step["queries"]:
                reply = self._query(client, "rank_cold", profiles)
                if reply is None or reply.message_type is not MessageType.RANKING:
                    state.problems.append("a cold rank query failed")
                    cold.append({})
                    continue
                state.problems.extend(checks.footrule_bound_problems(reply.payload))
                cold.append(reply.payload)
            for _ in range(self.warm_repeats):
                for profiles, payload in zip(step["queries"], cold):
                    reply = self._query(client, "rank_warm", profiles)
                    if reply is None or reply.payload != payload:
                        state.problems.append("a cached ranking differs from its cold reply")
            state.last_queries, state.last_cold = step["queries"], cold
        return samples.attempted - attempted

    def check(self, state: _RankState) -> list[str]:
        # Sample: the last refresh's cold replies against an uncached
        # ranker over the same (still current) data.
        uncached = PersonalizableRanker(
            state.server.database, cache=None, metrics=MetricsRegistry(),
            tracer=NullTracer(),
        )
        problems = list(dict.fromkeys(state.problems))
        for profiles, payload in zip(state.last_queries, state.last_cold):
            reference = uncached.rank_many(
                self.category, [profile_from_dict(p) for p in profiles]
            )
            problems.extend(checks.reference_problems(payload, reference))
        return problems

    def teardown(self, state: _RankState) -> None:
        state.server.close()


# ----------------------------------------------------------------------
# fieldtest
# ----------------------------------------------------------------------
@dataclass
class _FieldState:
    system: SORSystem
    warmup: bool
    rankings: dict[str, dict[str, list[str]]] = field(default_factory=dict)
    failed_sends: int = 0


class FieldTest(Workload):
    """The coffee-shop and trail field tests through the full protocol.

    The phones are the clients, and they live inside the program: each
    simulator event is one phone action (a barcode scan and its
    participate request, a sensing instant, an upload), timed as a step
    and as a latency. Half the phones of the paper-scale test (12 per
    shop, 6 per trail) keep rounds short enough for several per run;
    Tables I and II still reproduce.
    """

    name = "fieldtest"
    phones_per_shop = 6
    phones_per_trail = 3
    budget = 30

    def _places(self) -> tuple[list[Any], list[Any]]:
        rng = np.random.default_rng(self.seed)
        return scenarios.syracuse_coffee_shops(rng), scenarios.syracuse_trails(rng)

    def inputs(self) -> Any:
        shops, trails = self._places()
        return {
            "seed": self.seed,
            "phones_per_shop": self.phones_per_shop,
            "phones_per_trail": self.phones_per_trail,
            "budget": self.budget,
            "places": [
                [place.place_id, place.category, place.location.latitude,
                 place.location.longitude]
                for place in shops + trails
            ],
            "trails": [
                [[round(p.east_m, 6), round(p.north_m, 6)] for p in trail.trail.points]
                for trail in trails
            ],
        }

    def setup(self, *, warmup: bool) -> _FieldState:
        system = SORSystem(seed=self.seed)
        shops, trails = self._places()
        per_shop, per_trail = (2, 1) if warmup else (self.phones_per_shop, self.phones_per_trail)
        for places, pipeline, phones in (
            (shops, scenarios.shop_feature_pipeline(), per_shop),
            (trails, scenarios.trail_feature_pipeline(), per_trail),
        ):
            for place in places:
                system.deploy_place(place, pipeline)
                for _ in range(phones):
                    system.deploy_phone(place.place_id, budget=self.budget)
        return _FieldState(system=system, warmup=warmup)

    def run(self, state: _FieldState, samples: Samples, recorder: SpanRecorder | None) -> int:
        system = state.system
        # SORSystem.run() one event at a time.
        simulator = system.simulator
        while len(simulator.queue) and simulator.queue.peek_time() <= system.end_time:
            timed_step(samples, simulator.step, "phone_event")
        if simulator.now() < system.end_time:
            simulator.clock.set(system.end_time)
        names = {place_id: d.place.name for place_id, d in system.places.items()}
        for category, profiles in (
            ("coffee_shop", scenarios.customer_profiles()),
            ("hiking_trail", scenarios.hiker_profiles()),
        ):
            reports = timed_step(
                samples, lambda: system.process_and_rank(category, profiles)
            )
            state.rankings[category] = {
                name: [names[place] for place in report.ranking.items]
                for name, report in reports.items()
            }
        stats = system.network.stats
        sends = stats.requests_sent + stats.unknown_host_sends
        state.failed_sends = (
            stats.requests_dropped + stats.responses_dropped + stats.outage_drops
            + stats.unknown_host_sends
        )
        samples.attempted += sends
        samples.failed += state.failed_sends
        return len(samples.latencies)

    def counters(self, state: _FieldState) -> dict[str, float]:
        # The phones' clients and the servers write to the default registry.
        system = state.system
        return layers.program_counts(
            [get_metrics(), *(server.metrics for server in system.servers)],
            system.simulator,
        )

    def check(self, state: _FieldState) -> list[str]:
        problems = [f"{state.failed_sends} failed sends"] if state.failed_sends else []
        if state.warmup:  # too few phones to reproduce the paper's tables
            return problems
        return (
            problems
            + checks.table_problems(state.rankings["coffee_shop"], TABLE2_EXPECTED, "Table II")
            + checks.table_problems(state.rankings["hiking_trail"], TABLE1_EXPECTED, "Table I")
        )


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Serve, FieldTest, Rank, Fleet)
}
