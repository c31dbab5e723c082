"""Span recording, wrapping and self time."""

import threading
import types

import pytest

from perfbench.spans import (
    Span,
    SpanRecorder,
    Target,
    covered,
    install,
    self_times,
    summarize,
)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(2.0, 3.0), (2.5, 2.7)], 0.0, 10.0) == 1.0
    assert covered([(-5.0, 1.0)], 0.0, 10.0) == 1.0


def test_self_time_on_a_nested_tree_with_overlapping_children():
    root = Span("server.server", "handle_request", 0.0, 10.0)
    first = Span("db.table", "get", 1.0, 4.0, parent=root)
    second = Span("db.wal", "commit", 3.0, 6.0, parent=root)  # overlaps first
    late = Span("net.codec", "encode_body", 8.0, 12.0, parent=root)  # outlives root
    grandchild = Span("db.table", "insert", 4.0, 5.0, parent=second)
    spans = [first, grandchild, second, late, root]
    own = self_times(spans)
    assert own[id(root)] == pytest.approx(10.0 - 7.0)
    assert own[id(first)] == pytest.approx(3.0)
    assert own[id(second)] == pytest.approx(2.0)
    assert own[id(grandchild)] == pytest.approx(1.0)
    assert own[id(late)] == pytest.approx(4.0)

    summary = summarize(spans, {"x": 2.0})
    assert summary.self_ms("db.table") == pytest.approx(4000.0)
    assert summary.self_ms("db.table", "get") == pytest.approx(3000.0)
    assert summary.calls("db.table") == 2
    assert summary.max_ms("db.wal", "commit") == pytest.approx(3000.0)
    assert summary.max_ms("db.wal", "checkpoint") == 0.0
    assert summary.counts == {"x": 2.0}


class _Service:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2


def test_install_wraps_records_parents_and_restores():
    recorder = SpanRecorder()
    original_outer = _Service.__dict__["outer"]
    restore = install(
        recorder,
        [
            Target(_Service, "outer", "layer.outer",
                   on_result=lambda rec, args, result: rec.count("outs", result)),
            Target(_Service, "inner", "layer.inner"),
        ],
    )
    try:
        service = _Service()
        assert service.outer(3) == 7  # disabled: nothing recorded
        assert recorder.spans == []
        recorder.enabled = True
        with recorder.request("probe"):
            assert service.outer(3) == 7
        recorder.enabled = False
    finally:
        restore()
    assert _Service.__dict__["outer"] is original_outer
    inner, outer, client = recorder.spans
    assert (inner.layer, outer.layer, client.layer) == ("layer.inner", "layer.outer", "client")
    assert inner.parent is outer and outer.parent is client and client.parent is None
    assert inner.request == outer.request == client.request is not None
    assert recorder.counts == {"outs": 7.0}


def test_split_by_request_kind_adds_up_to_the_requests_time():
    cold = Span("client", "rank_cold", 0.0, 10.0, request=1)
    ranking = Span("core.ranking", "aggregate_footrule", 2.0, 9.0, parent=cold, request=1)
    warm = Span("client", "rank_warm", 20.0, 21.0, request=2)
    step = Span("db.table", "update", 30.0, 32.0)  # not inside a request
    summary = summarize([ranking, cold, warm, step], {})
    assert summary.by_kind == {
        "rank_cold": {"core.ranking": pytest.approx(7.0), "client": pytest.approx(3.0)},
        "rank_warm": {"client": pytest.approx(1.0)},
    }


def test_install_refuses_an_inherited_or_missing_attribute():
    class Child(_Service):
        pass

    with pytest.raises(AttributeError):
        install(SpanRecorder(), [Target(Child, "outer", "layer")])


def test_threads_keep_separate_stacks():
    recorder = SpanRecorder()
    recorder.enabled = True

    def work():
        with recorder.span("worker", "job"):
            pass

    with recorder.span("main", "job"):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    worker = next(span for span in recorder.spans if span.layer == "worker")
    assert worker.parent is None
