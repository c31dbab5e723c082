"""End-to-end system experiment: the whole protocol on one simulator.

Runs a complete deployment (barcodes, phones, server, scripts, uploads,
decoding, ranking) for the coffee-shop scenario, and reports both the
produced rankings and protocol-level statistics — message counts, bytes
on the wire, phone energy, script executions — which the e2e benchmark
tracks for regressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ranking import Ranking
from repro.server import SORSystem
from repro.server.ranker_service import RankingReport
from repro.sim.scenarios import (
    customer_profiles,
    shop_feature_pipeline,
    syracuse_coffee_shops,
)


@dataclass
class EndToEndResult:
    rankings: dict[str, list[str]]  # profile name → ranked place names
    features: dict[str, dict[str, float]]
    messages_sent: int
    bytes_sent: int
    bytes_received: int
    events_processed: int
    blobs_decoded: int
    total_phone_energy_mj: float


def deploy_coffee_shops(
    *, seed: int, phones_per_shop: int, budget: int
) -> tuple[SORSystem, dict[str, RankingReport]]:
    """Run the coffee-shop deployment and rank it for the customer profiles.

    Returns the finished system (for its statistics and caches) and the
    per-profile reports of the first ranking pass.
    """
    system = SORSystem(seed=seed)
    rng = np.random.default_rng(seed)
    pipeline = shop_feature_pipeline()
    for shop in syracuse_coffee_shops(rng):
        system.deploy_place(shop, pipeline)
        for _ in range(phones_per_shop):
            system.deploy_phone(shop.place_id, budget=budget)
    system.run()
    return system, system.process_and_rank("coffee_shop", customer_profiles())


def run_end_to_end(
    *, seed: int = 42, phones_per_shop: int = 12, budget: int = 30
) -> EndToEndResult:
    """Run the coffee-shop deployment through the full SOR protocol."""
    system, reports = deploy_coffee_shops(
        seed=seed, phones_per_shop=phones_per_shop, budget=budget
    )
    place_names = {
        place_id: deployed.place.name for place_id, deployed in system.places.items()
    }

    def named(ranking: Ranking) -> list[str]:
        return [place_names[place_id] for place_id in ranking.items]

    total_energy = sum(
        deployed.phone.battery.capacity_mj - deployed.phone.battery.remaining_mj
        for deployed in system.phones
    )
    return EndToEndResult(
        rankings={name: named(report.ranking) for name, report in reports.items()},
        features=system.feature_values("coffee_shop"),
        messages_sent=system.network.stats.requests_sent,
        bytes_sent=system.network.stats.bytes_sent,
        bytes_received=system.network.stats.bytes_received,
        events_processed=system.simulator.events_processed,
        blobs_decoded=system.server.data_processor.blobs_decoded,
        total_phone_energy_mj=total_energy,
    )
