"""Automated ablation harness: leave-one-out matrix over the injectable
components (scheduling backend, stochastic sampling,
ranking cache, concurrency, resilience, durability), a pinned-seed
benchmark slate, and a ranked component-importance report with CI
gates. See docs/ABLATION.md.
"""

from repro.ablation.apply import (
    effective_greedy_values,
    effective_server_values,
    effective_stochastic_values,
    effective_system_values,
    greedy_kwargs,
    server_kwargs,
    stochastic_greedy_kwargs,
    system_kwargs,
)
from repro.ablation.benches import (
    DEFAULT_BENCHES,
    BenchResult,
)
from repro.ablation.registry import (
    OFF,
    ON,
    AblationConfig,
    Switch,
    SwitchRegistry,
    default_registry,
)
from repro.ablation.report import (
    EFFECT_PREFIX,
    format_report,
    to_bench_json,
)
from repro.ablation.runner import (
    AblationReport,
    AblationSpec,
    ComponentImportance,
    ConfigResult,
    effect_ratio,
    run_ablation,
)

__all__ = [
    "AblationConfig",
    "AblationReport",
    "AblationSpec",
    "BenchResult",
    "ComponentImportance",
    "ConfigResult",
    "DEFAULT_BENCHES",
    "EFFECT_PREFIX",
    "OFF",
    "ON",
    "Switch",
    "SwitchRegistry",
    "default_registry",
    "effect_ratio",
    "effective_greedy_values",
    "effective_server_values",
    "effective_stochastic_values",
    "effective_system_values",
    "format_report",
    "greedy_kwargs",
    "run_ablation",
    "server_kwargs",
    "stochastic_greedy_kwargs",
    "system_kwargs",
    "to_bench_json",
]
