"""Per-layer counts the program keeps are read once per round."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import engine, layers
from perfbench.spans import SpanRecorder, install
from perfbench.workloads import Samples, Workload
from repro.common.errors import TransportError
from repro.net.http import HttpRequest, HttpResponse
from repro.net.resilience import ResilientClient, RetryPolicy
from repro.obs import MetricsRegistry, NullTracer


class _Flaky:
    """A network whose first send fails and whose later sends succeed."""

    def __init__(self) -> None:
        self.sends = 0

    def send(self, request: HttpRequest) -> HttpResponse:
        self.sends += 1
        if self.sends == 1:
            raise TransportError("dropped")
        return HttpResponse(200, b"ok")


class _Forwarding:
    """A network that forwards each request through another client."""

    def __init__(self, inner: ResilientClient) -> None:
        self.inner = inner

    def send(self, request: HttpRequest) -> HttpResponse:
        return self.inner.send(request)


def _client(network, metrics: MetricsRegistry) -> ResilientClient:
    return ResilientClient(
        network,
        policy=RetryPolicy(max_attempts=3, base_backoff_s=0.001, max_backoff_s=0.001),
        rng=np.random.default_rng(0),
        sleep=lambda seconds: None,
        metrics=metrics,
        tracer=NullTracer(),
    )


@dataclass
class _State:
    metrics: MetricsRegistry
    outer: ResilientClient


class _NestedSends(Workload):
    """A router-like chain: an outer client whose hop retries once inside."""

    name = "nested"

    def setup(self, *, warmup: bool) -> _State:
        metrics = MetricsRegistry()
        inner = _client(_Flaky(), metrics)
        return _State(metrics, _client(_Forwarding(inner), metrics))

    def run(self, state: _State, samples: Samples, recorder) -> int:
        samples.attempted += 1
        assert state.outer.send(HttpRequest("POST", "host", "/sor", b"x")).status == 200
        samples.step(1.0)
        return 1

    def check(self, state: _State) -> list[str]:
        return []


def test_nested_sends_on_one_registry_count_each_retry_once(tmp_path: Path):
    workload = _NestedSends(seed=1, scratch=tmp_path)
    recorder = SpanRecorder()
    restore = install(recorder, layers.targets())
    try:
        measurement = engine.measure(workload, 0.0, recorder)
    finally:
        restore()
    assert len(measurement.rounds) == 1
    assert recorder.counts["net.resilience.retries"] == 1.0
    sends = [span for span in recorder.spans if span.layer == "net.resilience"]
    assert len(sends) == 2 and sends[0].parent is sends[1]


def test_program_counts_read_a_shared_registry_once():
    metrics = MetricsRegistry()
    metrics.counter("sor_net_retries_total", "", labels=("host",)).labels(host="a").inc(2)
    metrics.counter("sor_net_retries_total", "", labels=("host",)).labels(host="b").inc(1)
    counts = layers.program_counts([metrics, metrics])
    assert counts["net.resilience.retries"] == 3.0
    assert counts["server.server.dedupe_replays"] == 0.0
    assert counts["sim.engine.events"] == 0.0
