"""Tests for the ablation registry, runner, and report.

The runner tests use *synthetic* benches with hand-picked effect sizes
so the expected importance ranking is known exactly — the point is the
harness's arithmetic and invariants, not the real system's performance
(the real slate runs in the CI ``ablation-smoke`` job and in
``tests/ablation/test_switch_injection.py``).
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.ablation import (
    AblationSpec,
    BenchResult,
    Switch,
    SwitchRegistry,
    baseline_bench_json,
    default_registry,
    effect_ratio,
    format_report,
    run_ablation,
    to_bench_json,
)
from repro.common.errors import AblationError
from repro.obs import MetricsRegistry


def _load_compare_bench():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "compare_bench.py"
    spec = importlib.util.spec_from_file_location("compare_bench_ablation", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_bench = _load_compare_bench()


# ----------------------------------------------------------------------
# fixtures: a synthetic three-switch world with known effect sizes
# ----------------------------------------------------------------------
def synthetic_registry() -> SwitchRegistry:
    registry = SwitchRegistry()
    registry.register(
        Switch(
            name="fast",
            description="a component worth 4x",
            baseline="on",
            ablated="off",
            primary_metric="t_seconds",
            behavior_preserving=True,
            gate=True,
            gate_floor=2.0,
            gate_tolerance_pct=40.0,
        )
    )
    registry.register(
        Switch(
            name="costly",
            description="a component that halves throughput",
            baseline="on",
            ablated="off",
            primary_metric="delivered",
            direction="higher",
            gate=True,
            gate_floor=1.5,
            gate_tolerance_pct=20.0,
        )
    )
    registry.register(
        Switch(
            name="useless",
            description="a component that does nothing",
            baseline="on",
            ablated="off",
            primary_metric="t_seconds",
        )
    )
    return registry


def synthetic_bench(values, *, seed, repeat, scale):
    """Deterministic metrics: fast=off ⇒ 4x slower; costly=on ⇒ 2x rows."""
    seconds = 1.0 * (4.0 if values.get("fast", "on") == "off" else 1.0)
    delivered = 100.0 * (2.0 if values.get("costly", "on") == "on" else 1.0)
    return BenchResult(
        metrics={"t_seconds": seconds, "delivered": delivered},
        digests={"work": "identical-everywhere"},
    )


SYNTHETIC_BENCHES = {"synthetic": synthetic_bench}


def run_synthetic(registry=None, spec=None, benches=None):
    return run_ablation(
        spec or AblationSpec(seed=7, repeat=1),
        registry=registry or synthetic_registry(),
        benches=benches or SYNTHETIC_BENCHES,
        metrics=MetricsRegistry(),
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_enumerates_baseline_plus_one_per_switch(self):
        registry = default_registry()
        configs = registry.enumerate_configs()
        assert len(configs) == len(registry) + 1
        assert configs[0].name == "baseline"
        assert configs[0].ablated is None
        ablated = [config.ablated for config in configs[1:]]
        assert ablated == registry.names()
        for config in configs[1:]:
            switch = registry.get(config.ablated)
            assert config.values[switch.name] == switch.ablated
            others = {
                name: value
                for name, value in config.values.items()
                if name != switch.name
            }
            baseline = registry.baseline_values()
            assert others == {
                name: baseline[name] for name in baseline if name != switch.name
            }

    def test_duplicate_registration_raises(self):
        registry = synthetic_registry()
        with pytest.raises(AblationError, match="already registered"):
            registry.register(registry.get("fast"))

    def test_unknown_switch_raises_with_known_names(self):
        with pytest.raises(AblationError, match="unknown switch"):
            default_registry().get("flux_capacitor")

    def test_subset_preserves_order_and_rejects_unknown(self):
        registry = default_registry()
        subset = registry.subset(["ranking_cache", "backend"])
        assert subset.names() == ["backend", "ranking_cache"]
        with pytest.raises(AblationError, match="unknown switch"):
            registry.subset(["backend", "nope"])

    def test_inverted_swaps_exactly_one_switch(self):
        registry = synthetic_registry()
        inverted = registry.inverted("fast")
        swapped = inverted.get("fast")
        original = registry.get("fast")
        assert swapped.baseline == original.ablated
        assert swapped.ablated == original.baseline
        assert swapped.description.startswith("INVERTED")
        assert inverted.get("costly") is registry.get("costly")

    def test_empty_enumeration_raises(self):
        with pytest.raises(AblationError, match="empty switch registry"):
            SwitchRegistry().enumerate_configs()

    def test_switch_validation(self):
        with pytest.raises(AblationError, match="direction"):
            Switch(
                name="x",
                description="",
                baseline="a",
                ablated="b",
                primary_metric="m",
                direction="sideways",
            )
        with pytest.raises(AblationError, match="equal"):
            Switch(
                name="x",
                description="",
                baseline="same",
                ablated="same",
                primary_metric="m",
            )
        with pytest.raises(AblationError, match="bad switch name"):
            Switch(
                name="not a name",
                description="",
                baseline="a",
                ablated="b",
                primary_metric="m",
            )


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
class TestRunner:
    def test_known_effects_rank_deterministically(self):
        report = run_synthetic()
        names = [entry.name for entry in report.importance]
        # |ln 4| > |ln 2| > |ln 1|: fast, costly, useless — exactly.
        assert names == ["fast", "costly", "useless"]
        by_name = {entry.name: entry for entry in report.importance}
        assert by_name["fast"].ratio == pytest.approx(4.0)
        assert by_name["fast"].kind == "speedup"
        assert by_name["costly"].ratio == pytest.approx(2.0)
        assert by_name["costly"].kind == "speedup"
        assert by_name["useless"].ratio == pytest.approx(1.0)
        assert by_name["useless"].kind == "neutral"
        assert by_name["useless"].impact == pytest.approx(0.0)

    def test_useless_component_always_ranks_last(self):
        report = run_synthetic()
        assert report.importance[-1].name == "useless"

    def test_two_runs_identical(self):
        first = run_synthetic()
        second = run_synthetic()
        assert [e.name for e in first.importance] == [
            e.name for e in second.importance
        ]
        assert [e.ratio for e in first.importance] == [
            e.ratio for e in second.importance
        ]

    def test_cost_switch_reports_cost_kind(self):
        registry = SwitchRegistry()
        registry.register(
            Switch(
                name="overhead",
                description="pure tax",
                baseline="on",
                ablated="off",
                primary_metric="t_seconds",
            )
        )

        def bench(values, *, seed, repeat, scale):
            seconds = 2.0 if values["overhead"] == "on" else 1.0
            return BenchResult(metrics={"t_seconds": seconds})

        report = run_ablation(
            AblationSpec(seed=1, repeat=1),
            registry=registry,
            benches={"b": bench},
            metrics=MetricsRegistry(),
        )
        entry = report.importance[0]
        assert entry.kind == "cost"
        assert entry.ratio == pytest.approx(0.5)
        assert entry.impact == pytest.approx(abs(math.log(0.5)))

    def test_components_subset_limits_matrix(self):
        report = run_synthetic(spec=AblationSpec(seed=7, repeat=1, components=("fast",)))
        assert len(report.results) == 2
        assert [entry.name for entry in report.importance] == ["fast"]

    def test_behavior_digest_divergence_raises(self):
        def treacherous(values, *, seed, repeat, scale):
            result = synthetic_bench(values, seed=seed, repeat=repeat, scale=scale)
            result.digests["work"] = f"depends-on-{values['fast']}"
            return result

        with pytest.raises(AblationError, match="behavior-preserving"):
            run_synthetic(benches={"synthetic": treacherous})

    def test_metric_collision_between_benches_raises(self):
        benches = {
            "one": synthetic_bench,
            "two": lambda values, *, seed, repeat, scale: BenchResult(
                metrics={"t_seconds": 1.0}
            ),
        }
        with pytest.raises(AblationError, match="re-emits metric"):
            run_synthetic(benches=benches)

    def test_missing_primary_metric_raises(self):
        def sparse(values, *, seed, repeat, scale):
            return BenchResult(metrics={"t_seconds": 1.0})

        with pytest.raises(AblationError, match="primary metric"):
            run_synthetic(benches={"sparse": sparse})

    def test_repeat_must_be_positive(self):
        with pytest.raises(AblationError, match="repeat"):
            AblationSpec(repeat=0)

    def test_effect_ratio_semantics(self):
        assert effect_ratio("lower", 1.0, 4.0) == pytest.approx(4.0)
        assert effect_ratio("higher", 4.0, 1.0) == pytest.approx(4.0)
        assert effect_ratio("lower", 4.0, 1.0) == pytest.approx(0.25)
        with pytest.raises(AblationError, match="positive"):
            effect_ratio("lower", 0.0, 1.0)

    def test_emits_sor_ablation_metrics(self):
        metrics = MetricsRegistry()
        run_ablation(
            AblationSpec(seed=7, repeat=1),
            registry=synthetic_registry(),
            benches=SYNTHETIC_BENCHES,
            metrics=metrics,
        )
        assert metrics.counter(
            "sor_ablation_configs_total", ""
        ).value() == 4.0
        gauge = metrics.gauge(
            "sor_ablation_effect_ratio", "", labels=("switch",)
        )
        assert gauge.value(switch="fast") == pytest.approx(4.0)
        bench_gauge = metrics.gauge(
            "sor_ablation_bench_seconds", "", labels=("config", "bench")
        )
        assert bench_gauge.value(config="baseline", bench="synthetic") >= 0.0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
class TestReport:
    def test_bench_json_round_trips_through_compare_bench(self, tmp_path):
        report = run_synthetic()
        document = to_bench_json(report)
        path = tmp_path / "BENCH_ablation.json"
        path.write_text(json.dumps(document))
        loaded = compare_bench.load_metrics(path, 20.0)
        # Only gated switches become metrics; all read back exactly.
        assert set(loaded) == {"ablation_effect_fast", "ablation_effect_costly"}
        assert loaded["ablation_effect_fast"]["value"] == pytest.approx(4.0)
        assert loaded["ablation_effect_fast"]["direction"] == "higher"
        assert loaded["ablation_effect_fast"]["tolerance_pct"] == 40.0

    def test_fresh_run_passes_gate_against_committed_floors(self, tmp_path):
        report = run_synthetic()
        baseline_path = tmp_path / "baseline.json"
        fresh_path = tmp_path / "fresh.json"
        baseline_path.write_text(json.dumps(baseline_bench_json(report)))
        fresh_path.write_text(json.dumps(to_bench_json(report)))
        _, failures = compare_bench.compare(
            compare_bench.load_metrics(baseline_path, 20.0),
            compare_bench.load_metrics(fresh_path, 20.0),
        )
        assert failures == []

    def test_importance_inversion_fails_gate(self, tmp_path):
        honest = run_synthetic()
        inverted = run_synthetic(registry=synthetic_registry().inverted("fast"))
        baseline_path = tmp_path / "baseline.json"
        fresh_path = tmp_path / "fresh.json"
        baseline_path.write_text(json.dumps(baseline_bench_json(honest)))
        fresh_path.write_text(json.dumps(to_bench_json(inverted)))
        _, failures = compare_bench.compare(
            compare_bench.load_metrics(baseline_path, 20.0),
            compare_bench.load_metrics(fresh_path, 20.0),
        )
        # fast's measured ratio collapses to 1/4 — far below its 2.0
        # floor even with 40% tolerance.
        assert any("ablation_effect_fast" in failure for failure in failures)

    def test_text_and_json_forms(self):
        report = run_synthetic()
        table = format_report(report)
        assert "component importance" in table
        assert "fast" in table
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["seed"] == 7
        assert [e["name"] for e in payload["importance"]] == [
            "fast",
            "costly",
            "useless",
        ]

    def test_ranking_listed_in_bench_json(self):
        report = run_synthetic()
        assert to_bench_json(report)["ranking"] == ["fast", "costly", "useless"]
