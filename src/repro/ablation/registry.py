"""The declarative switch registry behind ``repro ablate``.

A :class:`Switch` names one injectable component of the system together
with its **baseline** value (the component present, as production runs
it) and its **ablated** value (the component removed or replaced by the
naive alternative). The registry enumerates the baseline configuration
plus one leave-one-out variant per switch; the runner
(:mod:`repro.ablation.runner`) executes the benchmark slate on every
configuration and attributes the performance difference of each
leave-one-out twin to its switch.

Switches are *declarative*: a switch carries the name of the primary
metric that measures its contribution and whether lower or higher is
better, so adding a component to the ablation matrix is one
``register()`` call plus the constructor knob it toggles (see
docs/ABLATION.md). ``behavior_preserving`` switches additionally promise
that ablating them changes *only* performance — the runner cross-checks
the result digests of the baseline and the ablated twin and fails loudly
if they diverge. That digest slot is also where a future approximate
component (e.g. stochastic-greedy sampling) would declare its weaker
guarantee by *not* setting the flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.common.errors import AblationError

#: The two spellings every on/off switch uses.
ON = "on"
OFF = "off"


@dataclass(frozen=True)
class Switch:
    """One injectable component and how to measure its worth.

    ``primary_metric`` names the slate metric that isolates this
    component (``direction`` says whether lower or higher is better).
    Every switch's effect ratio is emitted into the fresh
    ``BENCH_ablation.json`` as an ``ablation_effect_<name>`` entry; its
    floor and tolerance live only in the committed
    ``benchmarks/baselines/BENCH_ablation.json``, which
    ``compare_bench.py`` checks it against.
    """

    name: str
    description: str
    baseline: Any
    ablated: Any
    primary_metric: str
    direction: str = "lower"
    behavior_preserving: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise AblationError(f"bad switch name {self.name!r}")
        if self.direction not in ("lower", "higher"):
            raise AblationError(
                f"switch {self.name!r}: direction must be 'lower' or 'higher'"
            )
        if self.baseline == self.ablated:
            raise AblationError(
                f"switch {self.name!r}: baseline and ablated values are equal"
            )


@dataclass(frozen=True)
class AblationConfig:
    """One cell of the leave-one-out matrix.

    ``values`` maps every registered switch name to its value in this
    configuration; ``ablated`` names the one switch set to its ablated
    value (``None`` for the baseline configuration).
    """

    name: str
    values: Mapping[str, Any]
    ablated: str | None = None


class SwitchRegistry:
    """Ordered collection of switches; enumeration follows registration."""

    def __init__(self) -> None:
        self._switches: dict[str, Switch] = {}

    def register(self, switch: Switch) -> Switch:
        """Add ``switch``; duplicate names raise :class:`AblationError`."""
        if switch.name in self._switches:
            raise AblationError(f"switch {switch.name!r} already registered")
        self._switches[switch.name] = switch
        return switch

    def get(self, name: str) -> Switch:
        """Look up a switch by name, raising on unknown names."""
        try:
            return self._switches[name]
        except KeyError:
            raise AblationError(
                f"unknown switch {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        """Switch names in registration order."""
        return list(self._switches)

    def __iter__(self) -> Iterator[Switch]:
        return iter(self._switches.values())

    def __len__(self) -> int:
        return len(self._switches)

    def __contains__(self, name: object) -> bool:
        return name in self._switches

    def subset(self, names: list[str] | tuple[str, ...]) -> "SwitchRegistry":
        """A registry over only ``names`` (original registration order)."""
        wanted = set(names)
        for name in names:
            self.get(name)  # raises AblationError on unknown names
        subset = SwitchRegistry()
        for switch in self:
            if switch.name in wanted:
                subset.register(switch)
        return subset

    def inverted(self, name: str) -> "SwitchRegistry":
        """A registry with ``name``'s baseline and ablated values swapped.

        This deliberately builds a *wrong* matrix — the baseline runs
        without the component and the "ablated" twin runs with it — so
        the component's measured importance inverts. The CI
        ``ablation-smoke`` job uses it to demonstrate that the
        importance gate actually fails when a component stops winning.
        """
        target = self.get(name)
        inverted = SwitchRegistry()
        for switch in self:
            if switch is target:
                switch = Switch(
                    name=switch.name,
                    description=f"INVERTED: {switch.description}",
                    baseline=switch.ablated,
                    ablated=switch.baseline,
                    primary_metric=switch.primary_metric,
                    direction=switch.direction,
                    behavior_preserving=switch.behavior_preserving,
                )
            inverted.register(switch)
        return inverted

    def baseline_values(self) -> dict[str, Any]:
        """The full-system configuration: every switch at its baseline."""
        return {switch.name: switch.baseline for switch in self}

    def enumerate_configs(self) -> list[AblationConfig]:
        """The baseline plus exactly one leave-one-out config per switch."""
        if not self._switches:
            raise AblationError("cannot enumerate an empty switch registry")
        baseline = self.baseline_values()
        configs = [AblationConfig(name="baseline", values=dict(baseline))]
        for switch in self:
            values = dict(baseline)
            values[switch.name] = switch.ablated
            configs.append(
                AblationConfig(
                    name=f"no-{switch.name}", values=values, ablated=switch.name
                )
            )
        return configs


def default_registry() -> SwitchRegistry:
    """The production switch matrix over the injectable knobs.

    Values are plain strings so reports read naturally; the
    :mod:`repro.ablation.apply` helpers translate them into the
    ``GreedyScheduler`` / ``SensingServer`` / ``SORSystem`` constructor
    keywords, and the injection-uniformity tests assert the round trip.
    """
    registry = SwitchRegistry()
    registry.register(
        Switch(
            name="backend",
            description="vectorized numpy coverage objective vs the "
            "scalar reference specification",
            baseline="numpy",
            ablated="reference",
            primary_metric="scheduling_seconds",
            behavior_preserving=True,
        )
    )
    registry.register(
        Switch(
            name="stochastic",
            description="stochastic-greedy sampled picks vs the exact "
            "accelerated sweep on the long-horizon scheduling cell "
            "(approximate by design: schedules differ from exact greedy, "
            "so no behavior digest is promised)",
            baseline=ON,
            ablated=OFF,
            primary_metric="scheduling_stochastic_seconds",
        )
    )
    registry.register(
        Switch(
            name="ranking_cache",
            description="versioned ranking cache vs running the full "
            "Algorithm 2 pipeline on every rank query",
            baseline=ON,
            ablated=OFF,
            primary_metric="ranking_seconds",
            behavior_preserving=True,
        )
    )
    registry.register(
        Switch(
            name="concurrency",
            description="worker pool behind the bounded admission queue "
            "vs the single-threaded server",
            baseline="pool",
            ablated="sequential",
            primary_metric="loadgen_seconds",
            behavior_preserving=True,
        )
    )
    registry.register(
        Switch(
            name="resilient",
            description="retrying resilient client vs bare sends on a "
            "lossy network (importance = data actually delivered)",
            baseline=ON,
            ablated=OFF,
            primary_metric="fieldtest_raw_rows",
            direction="higher",
        )
    )
    registry.register(
        Switch(
            name="durability",
            description="write-ahead log + checkpoints vs a purely "
            "in-memory database (importance = rows recovered after a "
            "crash/restart of the field-test server)",
            baseline=ON,
            ablated=OFF,
            primary_metric="fieldtest_recovered_rows",
            direction="higher",
        )
    )
    return registry
