"""The real benchmark slate's scheduling cell.

The ``backend`` switch is the only runtime gate on the numpy exact
greedy: its committed floor in ``benchmarks/baselines/BENCH_ablation.json``
assumes the ``bench_scheduling`` cell (1,000 instants, σ = 100 s,
50 users × budget 20). This checks the same cell at a conservative
margin in the correctness tier.
"""

from __future__ import annotations

from repro.ablation.benches import bench_scheduling


class TestSchedulingBench:
    def test_backend_identical_and_numpy_faster_at_scale(self):
        numpy_run = bench_scheduling({"backend": "numpy"}, seed=2014, repeat=2)
        reference_run = bench_scheduling(
            {"backend": "reference"}, seed=2014, repeat=2
        )
        assert numpy_run.digests["schedule"] == reference_run.digests["schedule"]
        ratio = (
            reference_run.metrics["scheduling_seconds"]
            / numpy_run.metrics["scheduling_seconds"]
        )
        assert ratio > 1.5
