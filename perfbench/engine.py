"""Runs one workload for a time budget and turns the rounds into metrics.

An untraced run reports the end-to-end metrics. A traced run first
repeats the untraced measurement as the baseline for
``trace.overhead_pct``, then wraps every layer boundary (see
:mod:`perfbench.layers`) and reports the per-layer metrics per round.

Every round runs the same steps in the same order. Timings come from
the *best round*: step ``i`` of it takes the shortest time step ``i``
took in any round of the run. Other tenants of a shared machine only
ever slow a step down, and their load comes and goes within seconds, so
a step's best time is the steadiest view of what the code costs. The
best round never ran as such: its latencies, the tail included, are
each request's deterministic cost, and a cost that only some rounds pay
cannot show in them. The tails the client actually observed are
printed beside the metrics, not gated. Set-up time is the median over
rounds.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import layers, stats
from perfbench.spans import (
    CLIENT,
    SpanRecorder,
    TraceSummary,
    install,
    summarize,
    write_spans,
)
from perfbench.workloads import Samples, Workload

E2E_UNITS: dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Round:
    """One round's timings and client-side samples."""

    setup_s: float
    run_s: float
    requests: int
    samples: Samples


@dataclass
class Measurement:
    """The rounds of one measured phase."""

    rounds: list[Round] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        """Requests attempted over every round."""
        return sum(r.samples.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        """Requests failed over every round."""
        return sum(r.samples.failed for r in self.rounds)

    def best_round(self) -> Samples:
        """Each step and latency at its shortest over the rounds.

        Raises :class:`ValueError` if the rounds did not run the same
        steps, which would make the positions incomparable.
        """
        rounds = [r.samples for r in self.rounds]
        shapes = {(len(r.steps), tuple(kind for kind, _ in r.latencies)) for r in rounds}
        if len(shapes) != 1:
            raise ValueError(f"rounds ran different steps: {len(shapes)} shapes")
        best = Samples()
        best.steps = [min(step) for step in zip(*(r.steps for r in rounds))]
        best.latencies = [
            (column[0][0], min(ms for _, ms in column))
            for column in zip(*(r.latencies for r in rounds))
        ]
        return best

    def best_run_s(self) -> float:
        """The best round's total time, in seconds."""
        return sum(self.best_round().steps) / 1000.0


def _round(
    workload: Workload,
    measurement: Measurement,
    *,
    warmup: bool = False,
    recorder: SpanRecorder | None = None,
) -> None:
    samples = Samples()
    started = time.perf_counter()
    state = workload.setup(warmup=warmup)
    try:
        ready = time.perf_counter()
        if recorder is not None:
            counted = workload.counters(state)
            recorder.enabled = True
        try:
            requests = workload.run(state, samples, recorder)
        finally:
            if recorder is not None:
                recorder.enabled = False
        done = time.perf_counter()
        if recorder is not None:
            for name, value in workload.counters(state).items():
                recorder.count(name, value - counted[name])
        measurement.problems.extend(workload.check(state))
    finally:
        workload.teardown(state)
        del state
        # Free this round's reference cycles now, off the clock, so every
        # round starts from the same heap instead of paying for the last
        # round's garbage at an arbitrary step.
        gc.collect()
    measurement.rounds.append(Round(ready - started, done - ready, requests, samples))


def warm_up(workload: Workload) -> Measurement:
    """One reduced round that fills caches and finishes lazy set-up."""
    measurement = Measurement()
    _round(workload, measurement, warmup=True)
    return measurement


def measure(
    workload: Workload, seconds: float, recorder: SpanRecorder | None = None
) -> Measurement:
    """Full rounds until ``seconds`` of wall time have passed (at least one)."""
    measurement = Measurement()
    started = time.perf_counter()
    while not measurement.rounds or time.perf_counter() - started < seconds:
        _round(workload, measurement, recorder=recorder)
    return measurement


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_line(label: str, samples: list[float]) -> str:
    ordered = sorted(samples)
    line = f"latency {label}: p50 {stats.percentile(ordered, 50.0):.4f} ms"
    try:
        tail = stats.tail(ordered)
    except ValueError:
        tail = None
    if tail is not None and tail.percentile > 50.0:
        line += f", p{tail.percentile:g} {tail.value:.4f} ms"
    return line + f" over {len(ordered)} samples"


def end_to_end(measurement: Measurement) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics, plus report lines on every latency kind."""
    rounds = measurement.rounds
    best = measurement.best_round()
    run_s = sum(best.steps) / 1000.0
    latencies = sorted(ms for _, ms in best.latencies)
    observed = sorted(ms for r in rounds for _, ms in r.samples.latencies)
    q = stats.tail_percentile(len(latencies))
    round_tails = [
        stats.percentile(sorted(ms for _, ms in r.samples.latencies), q) for r in rounds
    ]
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "run_s": run_s,
        "throughput_rps": rounds[0].requests / run_s,
        "latency_p50_ms": stats.percentile(latencies, 50.0),
        "latency_tail_ms": stats.percentile(latencies, q),
        "peak_rss_mb": peak_rss_mb(),
    }
    wall = sorted(r.run_s for r in rounds)
    lines = [
        f"rounds {len(rounds)}, steps per round {len(best.steps)}, "
        f"requests per round {rounds[0].requests}",
        f"round wall time: min {wall[0]:.4f} s, median {statistics.median(wall):.4f} s, "
        f"best-round total {run_s:.4f} s",
        f"tail: p{q:g} of the best round's {len(latencies)} requests",
        f"observed p{q:g}, not gated: each round's over its own requests, median "
        f"{statistics.median(round_tails):.4f} ms (min {min(round_tails):.4f}, max "
        f"{max(round_tails):.4f}); all {len(observed)} requests pooled "
        f"{stats.percentile(observed, q):.4f} ms",
        "best round, by kind:",
    ]
    for kind in dict.fromkeys(kind for kind, _ in best.latencies):
        lines.append(_latency_line(kind, [ms for k, ms in best.latencies if k == kind]))
    lines.append("all rounds pooled, by kind:")
    for kind in dict.fromkeys(kind for kind, _ in best.latencies):
        lines.append(_latency_line(
            kind, [ms for r in rounds for k, ms in r.samples.latencies if k == kind]
        ))
    return metrics, lines


def traced(
    workload: Workload, seconds: float, trace_path: Path
) -> tuple[dict[str, float], Measurement, list[str]]:
    """Per-layer metrics from a traced phase after an untraced baseline.

    Each phase gets half of ``seconds``. Spans are written to
    ``trace_path`` when the run ends.
    """
    baseline = measure(workload, seconds / 2)
    recorder = SpanRecorder()
    restore = install(recorder, layers.targets())
    try:
        phase = measure(workload, seconds / 2, recorder)
    finally:
        restore()
    summary = summarize(recorder.spans, recorder.counts)
    metrics = layers.per_layer_metrics(summary, len(phase.rounds))
    metrics["trace.overhead_pct"] = 100.0 * (
        phase.best_run_s() / baseline.best_run_s() - 1.0
    )
    write_spans(trace_path, recorder.spans)
    lines = [
        f"traced rounds {len(phase.rounds)}, untraced rounds {len(baseline.rounds)}, "
        f"{len(recorder.spans)} spans written to {trace_path}",
        *split_lines(summary, len(phase.rounds)),
    ]
    phase.rounds[:0] = baseline.rounds
    phase.problems[:0] = baseline.problems
    return metrics, phase, lines


def _shares(self_s: dict[str, float], top: int = 5) -> str:
    total = sum(self_s.values())
    ranked = sorted(self_s.items(), key=lambda item: -item[1])[:top]
    return ", ".join(
        f"{layer} {100.0 * seconds / total:.1f} %" for layer, seconds in ranked
    )


def split_lines(summary: TraceSummary, rounds: int) -> list[str]:
    """Where the traced time went: the layers with the most self time.

    First over every span, then within each client request kind (the
    time from building the request to the decoded reply). ``client`` is
    the time a request spends outside every wrapped layer.
    """
    by_layer: dict[str, float] = {}
    for (layer, _), op in summary.ops.items():
        if layer != CLIENT:
            by_layer[layer] = by_layer.get(layer, 0.0) + op.self_s
    lines = [
        "layer self ms per round: " + ", ".join(
            f"{layer} {1000.0 * seconds / rounds:.2f}"
            for layer, seconds in sorted(by_layer.items(), key=lambda item: -item[1])
        ),
    ]
    for kind, self_s in summary.by_kind.items():
        lines.append(
            f"split of {kind} requests ({1000.0 * sum(self_s.values()) / rounds:.2f} ms "
            f"per round): {_shares(self_s)}"
        )
    return lines


def result(
    measurement: Measurement, metrics: dict[str, float], units: dict[str, str]
) -> dict[str, Any]:
    """The benchmark's final JSON object."""
    return {
        "correct": not measurement.problems,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
