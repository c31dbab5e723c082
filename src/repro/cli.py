"""Command-line interface: one subcommand per paper artefact or scenario.

Usage::

    python -m repro table1            # Table I rankings
    python -m repro fig14a --runs 10  # Fig. 14(a) sweep
    python -m repro all               # every paper artefact, in paper order
    python -m repro obs               # end-to-end run + metrics dump
    python -m repro <command> --help  # the flags that command reads

Paper artefacts: ``fig6 table1 fig10 table2 fig14a fig14b all``.
System scenarios: ``obs rank crash loadgen shardchaos ablate``.
Each subcommand accepts only the flags its handler reads; invalid
values are reported as ``repro <command>: error: …`` with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.common.errors import AblationError, ValidationError
from repro.experiments.fig6_trail_features import format_fig6, run_fig6
from repro.experiments.fig10_shop_features import format_fig10, run_fig10
from repro.experiments.fig14_scheduling import (
    format_sweep,
    run_fig14a,
    run_fig14b,
)
from repro.experiments.table1_trail_rankings import format_table1, run_table1
from repro.experiments.table2_shop_rankings import format_table2, run_table2

# Every command's default --seed, except the Fig. 14 sweeps which use
# seed 0 by convention.
_PAPER_SEED = 2014
_SCHEDULING_SEED = 0
# What `repro all` regenerates, in paper order.
_PAPER_ARTEFACTS = ("fig6", "table1", "fig10", "table2", "fig14a", "fig14b")


def _cmd_fig6(args: argparse.Namespace) -> str:
    return format_fig6(run_fig6(seed=args.seed))


def _cmd_fig10(args: argparse.Namespace) -> str:
    return format_fig10(run_fig10(seed=args.seed))


def _cmd_table1(args: argparse.Namespace) -> str:
    return format_table1(run_table1(seed=args.seed))


def _cmd_table2(args: argparse.Namespace) -> str:
    return format_table2(run_table2(seed=args.seed))


def _cmd_fig14a(args: argparse.Namespace) -> str:
    return format_sweep(
        run_fig14a(runs=args.runs, seed=args.seed),
        f"Fig. 14(a) — coverage vs users ({args.runs} runs/point)",
    )


def _cmd_fig14b(args: argparse.Namespace) -> str:
    return format_sweep(
        run_fig14b(runs=args.runs, seed=args.seed),
        f"Fig. 14(b) — coverage vs budget ({args.runs} runs/point)",
    )


def _cmd_all(args: argparse.Namespace) -> str:
    """Every paper artefact in paper order.

    Each artefact runs with its own subcommand's defaults; ``--seed``
    (when given) and ``--runs`` override them. ``--runs`` is checked
    before the first artefact starts, not when the Fig. 14 sweeps reach it.
    """
    if args.runs < 1:
        raise ValidationError(f"runs must be at least 1, got {args.runs}")
    parser = build_parser()
    sections = []
    for name in _PAPER_ARTEFACTS:
        own = parser.parse_args([name])
        if args.seed is not None:
            own.seed = args.seed
        if "runs" in own:
            own.runs = args.runs
        sections.append(f"\n{'=' * 20} {name} {'=' * 20}\n{own.run(own)}")
    return "\n".join(sections)


def _cmd_obs(args: argparse.Namespace) -> str:
    """Run the end-to-end experiment and dump the metrics registry.

    The whole protocol (participation, scheduling, uploads, decoding,
    ranking) runs against the process-global registry, so the dump shows
    every instrumented subsystem with real traffic behind it.
    """
    from repro.experiments.end_to_end import run_end_to_end
    from repro.obs import get_metrics, to_dict, to_prometheus_text

    run_end_to_end(seed=args.seed, phones_per_shop=3, budget=10)
    registry = get_metrics()
    if args.format == "json":
        return json.dumps(to_dict(registry), indent=2, sort_keys=True)
    return to_prometheus_text(registry)


def _cmd_rank(args: argparse.Namespace) -> str:
    """Run the coffee-shop deployment and serve rankings twice.

    The first pass runs the full Algorithm 2 pipeline and fills the
    versioned ranking cache; the second pass repeats the same batch
    query and is served entirely from the cache, which the trailing
    stats line makes visible.
    """
    from repro.experiments.end_to_end import deploy_coffee_shops
    from repro.sim.scenarios import customer_profiles

    system, _ = deploy_coffee_shops(seed=args.seed, phones_per_shop=3, budget=10)
    reports = system.server.ranker.rank_many("coffee_shop", customer_profiles())
    names = {
        place_id: deployed.place.name
        for place_id, deployed in system.places.items()
    }
    lines = ["Personalizable rankings — coffee_shop"]
    for profile_name, report in reports.items():
        placed = " > ".join(names[place] for place in report.ranking.items)
        lines.append(
            f"{profile_name:<8}{placed}   "
            f"(footrule {report.weighted_footrule:.1f}, "
            f"kemeny {report.weighted_kemeny:.1f})"
        )
    cache = system.server.ranking_cache
    lines.append(
        f"data_version {system.server.ranker.data_version('coffee_shop')}; "
        f"cache: {cache.hits} hits, {cache.misses} misses, "
        f"{cache.evictions} evictions"
    )
    return "\n".join(lines)


def _cmd_crash(args: argparse.Namespace) -> str:
    """Run the crash-injection scenario and report what survived.

    With durability on (the default) the report should end ``data
    intact``; pass ``--no-durability`` to watch the same kills destroy
    acknowledged state.
    """
    import tempfile

    from repro.sim.crash import CrashSpec, run_crash_scenario

    spec = CrashSpec(
        kills=args.kills, seed=args.seed, durability=not args.no_durability
    )
    if args.durability_dir is not None:
        report = run_crash_scenario(spec, args.durability_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="sor-crash-") as tmp:
            report = run_crash_scenario(spec, tmp)
    lines = [
        f"kills executed      : {report.kills_executed}",
        f"acked schedules     : {report.acked_schedules}"
        f" (lost {report.lost_acked_schedules})",
        f"acked uploads       : {report.acked_uploads}"
        f" (lost {report.lost_acked_uploads})",
        f"duplicate tasks     : {report.duplicate_tasks}",
        f"duplicate uploads   : {report.duplicate_uploads}",
        f"WAL records replayed: {report.records_replayed}",
        f"verdict             : data {'intact' if report.data_intact else 'LOST'}",
    ]
    return "\n".join(lines)


def _cmd_loadgen(args: argparse.Namespace) -> str:
    """Drive the in-process sensing server with a reproducible load mix.

    ``--mode compare`` runs the same seeded workload through the
    concurrent server and the single-threaded baseline and reports the
    throughput ratio — the number the CI load gate asserts on.
    """
    from repro.sim.loadgen import (
        LoadgenSpec,
        format_report,
        run_comparison,
        run_loadgen,
    )

    if args.places:
        places = args.places
    else:
        # Auto-size: the spec requires places to be a multiple of
        # categories with at least two places per category to rank.
        per_category = max(2, -(-8 // args.categories))
        places = per_category * args.categories
    spec = LoadgenSpec(
        phones=args.phones,
        seed=args.seed,
        mode="concurrent" if args.mode == "compare" else args.mode,
        clients=args.clients,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        io_delay_s=args.io_delay_ms / 1000.0,
        places=places,
        shards=args.shards,
        replicas=args.replicas,
        categories=args.categories,
    )
    if args.mode == "compare":
        concurrent, sequential, speedup = run_comparison(spec)
        if args.format == "json":
            return json.dumps(
                {
                    "concurrent": concurrent.to_dict(),
                    "sequential": sequential.to_dict(),
                    "speedup": speedup,
                },
                indent=2,
                sort_keys=True,
            )
        return "\n\n".join(
            [
                format_report(concurrent),
                format_report(sequential),
                f"concurrent/sequential speedup: {speedup:.2f}x",
            ]
        )
    report = run_loadgen(spec)
    if args.format == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    return format_report(report)


def _cmd_ablate(args: argparse.Namespace) -> str:
    """Run the leave-one-out ablation matrix and rank the components.

    ``--out`` additionally writes the canonical gate document
    (``ablation_effect_<switch>`` metrics) that
    ``benchmarks/compare_bench.py`` checks against the committed
    baseline; ``--invert SWITCH`` deliberately swaps that switch's
    baseline/ablated values so its measured importance inverts — the CI
    job uses it to prove the gate fails when a component stops winning.
    """
    from pathlib import Path

    from repro.ablation import (
        AblationSpec,
        default_registry,
        format_report,
        run_ablation,
        to_bench_json,
    )

    registry = default_registry()
    if args.invert:
        registry = registry.inverted(args.invert)
    components = (
        tuple(name.strip() for name in args.components.split(",") if name.strip())
        if args.components
        else None
    )
    report = run_ablation(
        AblationSpec(seed=args.seed, repeat=args.repeat, components=components),
        registry=registry,
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(to_bench_json(report), indent=2, sort_keys=True) + "\n"
        )
    if args.format == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    return format_report(report)


def _cmd_shardchaos(args: argparse.Namespace) -> str:
    """Kill shard primaries mid-run (repeatedly) and audit acked data.

    Drives the loadgen protocol mix through the shard router under a
    lossy network and runs ``--kills`` kill→promote→reseed cycles: the
    first hard-kills ``--kill-shard``'s primary and durably promotes
    its WAL-fed replica; with ``--kills 2`` or more, the second kill
    hits the *same shard again* — the freshly promoted primary — and
    lands mid-reseed via a crash hook; later kills walk the remaining
    shards. Ends by killing the victim's promoted primary once more and
    recovering it from its re-attached WAL, then reports whether every
    acked schedule and upload survived.
    """
    from repro.sim.shard_chaos import (
        ShardChaosSpec,
        format_shard_chaos_report,
        run_shard_chaos,
    )

    spec = ShardChaosSpec(
        phones=args.phones,
        shards=args.shards,
        replicas=args.replicas,
        categories=args.categories,
        seed=args.seed,
        kill_shard=args.kill_shard,
        kills=args.kills,
    )
    report = run_shard_chaos(spec)
    if not report.data_intact:
        # CI runs this as a gate: acked data loss must fail the job.
        print(format_shard_chaos_report(report), file=sys.stderr)
        raise SystemExit(1)
    if args.format == "json":
        payload = dict(vars(report))
        payload.pop("metrics")
        payload["data_intact"] = report.data_intact
        return json.dumps(payload, indent=2, sort_keys=True)
    return format_shard_chaos_report(report)


def _number_flag(
    parser: argparse.ArgumentParser, flag: str, default: int | float, text: str
) -> None:
    parser.add_argument(
        flag, type=type(default), default=default, help=f"{text} (default {default})"
    )


def _format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the SOR paper's tables and figures and run "
        "the system scenarios. See 'repro <command> --help'.",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="<command>"
    )

    def command(name, run, text, seed=_PAPER_SEED):
        sub = subparsers.add_parser(name, help=text, description=text)
        shown = "each artefact's own" if seed is None else seed
        sub.add_argument(
            "--seed", type=int, default=seed,
            help=f"root random seed (default: {shown})",
        )
        sub.set_defaults(run=run, usage_error=sub.error)
        return sub

    command("fig6", _cmd_fig6, "Fig. 6: hiking-trail feature values")
    command("table1", _cmd_table1, "Table I: hiking-trail rankings")
    command("fig10", _cmd_fig10, "Fig. 10: coffee-shop feature values")
    command("table2", _cmd_table2, "Table II: coffee-shop rankings")
    for name, run, text, seed in (
        ("fig14a", _cmd_fig14a, "Fig. 14(a): coverage vs number of users",
         _SCHEDULING_SEED),
        ("fig14b", _cmd_fig14b, "Fig. 14(b): coverage vs sensing budget",
         _SCHEDULING_SEED),
        ("all", _cmd_all, "every paper artefact, in paper order", None),
    ):
        sub = command(name, run, text, seed)
        _number_flag(sub, "--runs", 10, "runs per Fig. 14 sweep point (paper: 10)")

    _format_flag(
        command("obs", _cmd_obs, "end-to-end run, then dump the metrics registry")
    )
    command("rank", _cmd_rank, "coffee-shop rankings served twice (cache stats)")

    sub = command("crash", _cmd_crash, "kill the server mid-run, audit acked data")
    _number_flag(sub, "--kills", 2, "server kills")
    sub.add_argument(
        "--durability-dir",
        help="where WAL + checkpoints live (default: a temporary directory)",
    )
    sub.add_argument(
        "--no-durability", action="store_true",
        help="run without the durability layer (demonstrates data loss)",
    )

    sub = command("loadgen", _cmd_loadgen, "drive the server with a seeded load mix")
    _format_flag(sub)
    _number_flag(sub, "--phones", 10000, "phone population")
    sub.add_argument(
        "--mode", choices=("concurrent", "sequential", "compare"),
        default="concurrent",
        help="execution mode; 'compare' runs both and reports the speedup "
        "(default: concurrent)",
    )
    _number_flag(sub, "--clients", 8, "driver threads")
    _number_flag(sub, "--workers", 8, "server worker pool size")
    _number_flag(sub, "--queue-capacity", 64, "server admission queue bound")
    _number_flag(sub, "--io-delay-ms", 0.2, "simulated per-request socket/disk ms")
    _number_flag(sub, "--shards", 1, "shard count; more than 1 drives a "
                 "ShardCluster through its router")
    _number_flag(sub, "--replicas", 1, "read-replicas per shard")
    _number_flag(sub, "--categories", 1, "rankable categories the places split into")
    _number_flag(sub, "--places", 0, "places; 0 means at least 8, grown so every "
                 "category keeps two rankable places")

    sub = command(
        "shardchaos", _cmd_shardchaos, "kill shard primaries mid-run, audit acked data"
    )
    _format_flag(sub)
    _number_flag(sub, "--phones", 120, "phone population")
    _number_flag(sub, "--shards", 4, "shard count")
    _number_flag(sub, "--replicas", 1, "read-replicas per shard")
    _number_flag(sub, "--categories", 8, "rankable categories")
    _number_flag(sub, "--kill-shard", 1, "index of the shard whose primary is killed")
    _number_flag(sub, "--kills", 2, "kill-promote-reseed cycles")

    sub = command("ablate", _cmd_ablate, "leave-one-out ablation matrix + ranking")
    _format_flag(sub)
    sub.add_argument(
        "--components",
        help="comma-separated switch subset (default: every registered switch)",
    )
    _number_flag(sub, "--repeat", 2, "timed repetitions per benchmark cell, best-of")
    sub.add_argument(
        "--out", help="also write the canonical BENCH_ablation.json gate document here"
    )
    sub.add_argument(
        "--invert", metavar="SWITCH",
        help="swap SWITCH's baseline/ablated values to demonstrate an "
        "importance inversion failing the gate",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        output = args.run(args)
    except (ValidationError, AblationError) as exc:
        args.usage_error(str(exc))
    print(output)
    return 0
