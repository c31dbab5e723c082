"""Micro-benchmarks of the individual substrates.

Not tied to a paper figure; these catch performance regressions in the
pieces the experiment benches depend on.
"""

import numpy as np

from repro.barcode import PlacePayload, ReedSolomonCodec, decode_place_barcode, encode_place_barcode
from repro.core.ranking import Ranking, aggregate_footrule
from repro.core.scheduling import (
    GaussianKernel,
    GreedyScheduler,
    SchedulingPeriod,
    SchedulingProblem,
)
from repro.net.codec import decode_body, encode_body
from repro.script import Sandbox
from repro.sim.arrivals import uniform_arrivals


def test_codec_roundtrip_speed(benchmark):
    body = {
        "task_id": "task-123",
        "bursts": [
            {"sensor": "temperature", "t": float(i), "dt": 5.0,
             "values": [70.0 + j * 0.1 for j in range(5)]}
            for i in range(50)
        ],
    }
    result = benchmark(lambda: decode_body(encode_body(body)))
    assert result == body


def test_reed_solomon_decode_with_errors(benchmark):
    codec = ReedSolomonCodec(10)
    data = bytes(range(100))
    codeword = bytearray(codec.encode(data))
    for position in (3, 40, 77, 90, 104):
        codeword[position] ^= 0x5A
    damaged = bytes(codeword)
    assert benchmark(lambda: codec.decode(damaged)) == data


def test_barcode_scan_speed(benchmark):
    payload = PlacePayload(
        "starbucks", "Starbucks", "coffee_shop", 43.04, -76.13,
        "app-starbucks", "sor-server",
    )
    matrix = encode_place_barcode(payload)
    assert benchmark(lambda: decode_place_barcode(matrix)) == payload


def test_greedy_scheduler_paper_scale(benchmark):
    rng = np.random.default_rng(0)
    period = SchedulingPeriod(0.0, 10_800.0, 1080)
    users = uniform_arrivals(40, 10_800.0, 17, rng)
    problem = SchedulingProblem(period, users, GaussianKernel(10.0))
    schedule = benchmark(lambda: GreedyScheduler().solve(problem))
    assert schedule.average_coverage > 0.7


def test_greedy_scheduler_large_scale(benchmark):
    """2× the paper's resolution and 100 users — exact greedy must stay
    comfortably sub-second."""
    rng = np.random.default_rng(1)
    period = SchedulingPeriod(0.0, 21_600.0, 2160)
    users = uniform_arrivals(100, 21_600.0, 17, rng)
    problem = SchedulingProblem(period, users, GaussianKernel(10.0))
    schedule = benchmark(lambda: GreedyScheduler().solve(problem))
    assert schedule.average_coverage > 0.7


def test_rank_aggregation_speed(benchmark):
    rng = np.random.default_rng(0)
    items = [f"place-{i}" for i in range(20)]
    collection = [Ranking(rng.permutation(items).tolist()) for _ in range(6)]
    weights = [3, 5, 1, 2, 4, 2]
    ranking = benchmark(lambda: aggregate_footrule(collection, weights))
    assert len(ranking) == 20


def test_lualite_script_execution(benchmark):
    sandbox = Sandbox()
    sandbox.register_function("get_light_readings", lambda n, ms: [500.0] * int(n))
    source = """
    local readings = get_light_readings(10, 100)
    local total = 0
    for i = 1, #readings do total = total + readings[i] end
    return total / #readings
    """
    assert benchmark(lambda: sandbox.run(source)) == 500.0
