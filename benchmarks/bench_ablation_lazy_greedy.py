"""Ablation — the vectorized scheduling backend vs the scalar reference.

Both backends run the exact greedy and produce byte-identical
schedules; this bench shows the runtime gap on a 1000-instant horizon.
The numpy core answers each pick with one masked argmax over its
maintained gains array, while the reference runs the lazy heap and
re-walks a kernel window for every stale top it re-evaluates.
"""

from benchmarks._ablation_common import (
    print_table,
    record,
    run_once,
)
from repro.experiments.ablations import run_backend_ablation


def test_ablation_backend_1000_instants(benchmark):
    """Numpy vs reference exact greedy on a 1000-instant horizon.

    The acceptance bar: the vectorized backend beats the scalar
    reference's lazy heap by ≥3× at 1000 instants (it lands nearer
    5–6×) and produces the identical schedule.
    """
    point = run_once(
        benchmark,
        lambda: run_backend_ablation(
            instant_counts=(1000,), users=50, budget=20, sigma=100.0
        )[0],
    )
    print_table(
        [
            ("reference (s)", ">14.4f"),
            ("numpy (s)", ">10.4f"),
            ("speedup", ">8.1f"),
        ],
        [(point.reference_seconds, point.numpy_seconds, point.speedup)],
    )
    assert point.identical_schedules
    assert point.speedup >= 3.0
    record(
        benchmark,
        reference_seconds=point.reference_seconds,
        numpy_seconds=point.numpy_seconds,
        speedup=point.speedup,
    )
