"""Tests for the CLI entry point and sparkline visualization."""

import pytest

from repro.cli import build_parser, main
from repro.common.errors import ValidationError
from repro.server.visualization import sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([0.0, 0.5, 1.0])) == 3

    def test_monotone_values_monotone_glyphs(self):
        art = sparkline([0.0, 0.25, 0.5, 0.75, 1.0])
        levels = "▁▂▃▄▅▆▇█"
        indices = [levels.index(ch) for ch in art]
        assert indices == sorted(indices)
        assert art[-1] == "█"

    def test_resampling_to_width(self):
        assert len(sparkline(range(100), width=20)) == 20

    def test_all_zero_handled(self):
        assert sparkline([0.0, 0.0]) == "▁▁"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sparkline([])


SUBCOMMANDS = (
    "fig6", "table1", "fig10", "table2", "fig14a", "fig14b", "all",
    "obs", "rank", "crash", "loadgen", "shardchaos", "ablate",
)


class TestCli:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_every_subcommand_parses_without_flags(self, command):
        args = build_parser().parse_args([command])
        assert args.command == command
        assert callable(args.run)

    def test_seed_defaults(self):
        parser = build_parser()
        for command in SUBCOMMANDS:
            expected = {"fig14a": 0, "fig14b": 0, "all": None}.get(command, 2014)
            assert parser.parse_args([command]).seed == expected, command

    def test_shardchaos_defaults(self):
        args = build_parser().parse_args(["shardchaos"])
        assert (
            args.phones, args.shards, args.replicas, args.categories,
            args.kill_shard, args.kills,
        ) == (120, 4, 1, 8, 1, 2)

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.phones == 10000
        assert args.io_delay_ms == 0.2

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--kills", "3"],
            ["shardchaos", "--io-delay-ms", "5"],
            ["obs", "--components", "backend"],
            ["ablate", "--format", "table"],
        ],
    )
    def test_flags_of_other_commands_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, problem",
        [
            (["loadgen", "--places", "5", "--categories", "2"],
             "multiple of categories"),
            (["crash", "--kills", "0"], "at least one kill"),
            (["ablate", "--components", "nope"], "unknown switch 'nope'"),
            (["ablate", "--invert", "nope"], "unknown switch 'nope'"),
            (["ablate", "--repeat", "0"], "repeat must be at least 1"),
            (["shardchaos", "--shards", "1"], "at least 2 shards"),
            (["shardchaos", "--replicas", "0"], "needs a replica"),
            (["fig14a", "--runs", "0"], "runs must be at least 1"),
        ],
    )
    def test_bad_values_are_usage_errors(self, argv, problem, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro {argv[0]}: error: " in err
        assert problem in err
        assert "Traceback" not in err

    def test_fig14a_seed_flag_is_honoured(self, capsys):
        main(["fig14a", "--runs", "1"])
        default = capsys.readouterr().out
        main(["fig14a", "--runs", "1", "--seed", "2014"])
        assert capsys.readouterr().out != default

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "matches paper: YES" in out

    def test_fig14a_quick(self, capsys):
        assert main(["fig14a", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "mean improvement" in out
