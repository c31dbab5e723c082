"""Tests for the experiment harnesses — the paper's tables and figures."""

import pytest

from repro.common.errors import ValidationError
from repro.experiments import (
    TABLE1_EXPECTED,
    TABLE2_EXPECTED,
    run_fig6,
    run_fig10,
    run_fig14a,
    run_fig14b,
    run_table1,
    run_table2,
)
from repro.experiments.ablations import (
    run_aggregation_ablation,
    run_backend_ablation,
    run_multikernel_ablation,
    run_online_ablation,
    run_sigma_ablation,
    run_spam_resistance_ablation,
)
from repro.experiments.end_to_end import run_end_to_end
from repro.experiments.fig6_trail_features import format_fig6
from repro.experiments.fig14_scheduling import format_sweep
from repro.experiments.table1_trail_rankings import format_table1
from repro.experiments.table2_shop_rankings import format_table2


class TestFig6:
    def test_feature_orderings_match_ground_truth(self):
        result = run_fig6(seed=2014)
        assert result.matches_expected(), result.features

    def test_five_features_three_trails(self):
        result = run_fig6(seed=2014)
        assert len(result.features) == 3
        for features in result.features.values():
            assert len(features) == 5

    def test_format_renders(self):
        text = format_fig6(run_fig6(seed=2014))
        assert "Fig. 6" in text and "roughness" in text


class TestFig10:
    def test_feature_orderings_match_ground_truth(self):
        result = run_fig10(seed=2014)
        assert result.matches_expected(), result.features

    def test_starbucks_is_noisy_and_dark(self):
        features = run_fig10(seed=2014).features
        assert features["Starbucks"]["noise"] > features["B&N Cafe"]["noise"]
        assert features["Starbucks"]["brightness"] < features["B&N Cafe"]["brightness"]


class TestTables:
    @pytest.mark.parametrize("seed", [2014, 7, 99])
    def test_table1_matches_paper(self, seed):
        result = run_table1(seed=seed)
        assert result.matches_expected(), result.as_rows()

    @pytest.mark.parametrize("seed", [2014, 7, 99])
    def test_table2_matches_paper(self, seed):
        result = run_table2(seed=seed)
        assert result.matches_expected(), result.as_rows()

    def test_expected_constants_match_paper_text(self):
        assert TABLE1_EXPECTED["Alice"][0] == "Cliff Trail"
        assert TABLE2_EXPECTED["Emma"][-1] == "Starbucks"

    def test_formatting(self):
        assert "matches paper: YES" in format_table1(run_table1(seed=2014))
        assert "matches paper: YES" in format_table2(run_table2(seed=2014))


class TestFig14:
    def test_fig14a_shapes(self):
        """Greedy dominates, grows with users, baseline ≈ 0.5 at 40."""
        result = run_fig14a(runs=3, seed=0)
        for point in result.points:
            assert point.greedy_mean > point.baseline_mean
        greedy = [point.greedy_mean for point in result.points]
        assert greedy == sorted(greedy)  # increasing with users
        at_40 = next(point for point in result.points if point.x == 40)
        assert at_40.baseline_mean == pytest.approx(0.5, abs=0.1)
        assert at_40.greedy_mean > 0.8
        at_50 = next(point for point in result.points if point.x == 50)
        assert at_50.greedy_mean > 0.9  # "almost 100% by ~50–55 users"

    def test_fig14b_shapes(self):
        result = run_fig14b(runs=3, seed=0)
        for point in result.points:
            assert point.greedy_mean > point.baseline_mean
        greedy = [point.greedy_mean for point in result.points]
        assert greedy == sorted(greedy)  # increasing with budget

    def test_headline_improvement_magnitude(self):
        """Paper: 65% average improvement; we require the same order."""
        result = run_fig14a(runs=2, seed=1)
        assert result.mean_improvement > 0.4

    def test_format(self):
        text = format_sweep(run_fig14a(runs=1, seed=0), "test")
        assert "mean improvement" in text

    @pytest.mark.parametrize("sweep", [run_fig14a, run_fig14b])
    @pytest.mark.parametrize("runs", [0, -1])
    def test_runs_below_one_rejected(self, sweep, runs):
        with pytest.raises(ValidationError, match="runs must be at least 1"):
            sweep(runs=runs, seed=0)


class TestAblations:
    def test_sigma_monotone_coverage(self):
        points = run_sigma_ablation(sigmas=(5.0, 30.0), runs=2)
        assert points[1].greedy_coverage > points[0].greedy_coverage
        for point in points:
            assert point.greedy_coverage >= point.baseline_coverage

    def test_backend_identical_and_numpy_faster_at_scale(self):
        # Correctness tier asserts identity plus a conservative speedup
        # margin; the ≥3× headline gate lives in the benchmark suite
        # where timing noise is controlled. Both backends run the exact
        # greedy, whose gap grows with the kernel window, so this uses
        # the gate's σ=100 s kernel (~5× measured at 1000 instants).
        points = run_backend_ablation(instant_counts=(360, 1000), sigma=100.0)
        assert all(point.identical_schedules for point in points)
        assert points[-1].speedup > 1.5

    def test_aggregation_quality_ordering(self):
        stats = run_aggregation_ablation(instances=15, num_items=5)
        assert stats.footrule_ratio <= 2.0  # the theoretical guarantee
        assert stats.refined_ratio <= stats.footrule_ratio + 1e-9
        assert stats.footrule_optimal_fraction > 0.3

    def test_online_close_to_offline(self):
        points = run_online_ablation(user_counts=(20, 40), runs=2)
        for point in points:
            assert 0.8 <= point.ratio <= 1.02

    def test_multikernel_blend_wins_on_blend_value(self):
        points = run_multikernel_ablation(runs=2, users=10)
        by_name = {point.strategy: point for point in points}
        blended = by_name["blended kernels"]
        for point in points:
            assert blended.blended_value >= point.blended_value - 1e-6

    def test_spam_resistance_minority_regime(self):
        points = run_spam_resistance_ablation(instances=10, seed=1)
        minority = next(point for point in points if point.spam_weight == 3)
        assert minority.footrule_drift <= minority.borda_drift + 1e-9
        # drift grows with spam weight for both aggregators
        assert points[-1].borda_drift >= points[0].borda_drift


class TestEndToEnd:
    def test_runs_and_matches_table2(self):
        result = run_end_to_end(seed=42, phones_per_shop=6, budget=15)
        assert result.rankings["David"] == ["Starbucks", "B&N Cafe", "Tim Hortons"]
        assert result.rankings["Emma"] == ["B&N Cafe", "Tim Hortons", "Starbucks"]
        assert result.messages_sent > 0
        assert result.blobs_decoded == 18
        assert result.total_phone_energy_mj > 0
