"""Tests for the richnote CLI."""

import gzip

import pytest

from repro.cli import _parse_method, build_parser, main
from repro.experiments.config import Method
from repro.trace.generator import Workload
from repro.trace.io import read_trace


class TestMethodParsing:
    def test_richnote(self):
        spec = _parse_method("richnote")
        assert spec.method is Method.RICHNOTE

    def test_baselines_with_level(self):
        assert _parse_method("fifo:3").fixed_level == 3
        assert _parse_method("util:2").method is Method.UTIL

    def test_errors(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_method("richnote:3")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_method("fifo")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_method("bogus:1")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate-trace"])

    def test_budget_lists_parse_to_floats(self):
        for command in (["sweep"], ["figures", "--out", "unused"]):
            args = build_parser().parse_args(
                [*command, "--trace", "t.jsonl", "--budgets", "2, 20,0.5"]
            )
            assert args.budgets == (2.0, 20.0, 0.5)
        default = build_parser().parse_args(["sweep", "--trace", "t.jsonl"])
        assert default.budgets == (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["sweep", "--budgets", "1,,2"], "''"),
            (["sweep", "--budgets", "2,2"], "duplicate budget '2'"),
            (["sweep", "--budgets", "-1"], "'-1'"),
            (["sweep", "--budgets", "1,nan"], "'nan'"),
            (["figures", "--out", "unused", "--budgets", "5,inf"], "'inf'"),
            (["run", "--budget", "0"], "'0'"),
            (["run", "--budget", "nan"], "'nan'"),
            (["run", "--users", "-3"], "'-3'"),
            (["figures", "--out", "unused", "--users", "-1"], "'-1'"),
            (["serve", "--users", "0"], "'0'"),
            (["serve", "--rounds", "0"], "'0'"),
            (["serve", "--round-seconds", "-5"], "'-5'"),
            (["serve", "--round-seconds", "nan"], "'nan'"),
            (["serve", "--queue-bound", "0"], "'0'"),
            (["bench-channels", "--rounds", "0"], "'0'"),
            (["bench-channels", "--crowd-users", "0"], "'0'"),
            (["bench-channels", "--bystanders", "0"], "'0'"),
            (["bench-channels", "--pool-bytes", "-1"], "'-1'"),
            (["bench-channels", "--pool-bytes", "nan"], "'nan'"),
            (["sweep", "--workers", "-2"], "'-2'"),
            (["survey", "--respondents", "0"], "'0'"),
            (["survey", "--respondents", "-3"], "'-3'"),
            (["sweep", "--workers", "-1"], "'-1'"),
            (["sweep", "--workers", "two"], "'two'"),
            (["survey", "--respondents", "1.5"], "'1.5'"),
        ],
    )
    def test_hostile_values_are_usage_errors_naming_the_entry(self, argv, bad, capsys):
        """Rejected while parsing: the (missing) trace is never opened."""
        if argv[0] not in ("serve", "bench-channels", "survey"):
            argv = [*argv, "--trace", "no-such-trace.jsonl"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert bad in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["run", "--method", "bogus"], "unknown method 'bogus'"),
            (["run", "--method", "fifo:abc"], "fifo needs an integer level"),
            (["run", "--method", "fifo:0"], "fifo needs a fixed level >= 1"),
            (["run", "--method", "richnote:2"], "richnote does not take a level"),
            (["run", "--method", "fifo:99"], "'fifo:99': the ladder's top level is 6"),
            (["sweep", "--methods", "fifo:1,fifo:1"], "duplicate method 'fifo:1'"),
            (["sweep", "--methods", "richnote,util:7"], "the ladder's top level is 6"),
            (["sweep", "--methods", "util:2,"], "unknown method ''"),
        ],
    )
    def test_bad_methods_are_usage_errors_before_the_trace_is_read(
        self, argv, bad, monkeypatch, capsys
    ):
        def read_trace(path):
            raise AssertionError(f"{path} was read before --method was checked")

        monkeypatch.setattr("repro.cli.read_trace", read_trace)
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--trace", "unused.jsonl"])
        assert exit_info.value.code == 2
        assert bad in capsys.readouterr().err

    def test_lint_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "src/repro"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err


class TestUnreadableTrace:
    """A trace that cannot be read is a usage error naming the path, in the
    commands that load it whole (``run``) and stream it (``stats``)."""

    @staticmethod
    def _exit_code(command: str, path, capsys) -> int:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--trace", str(path)])
        assert str(path) in capsys.readouterr().err
        return exit_info.value.code

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_missing_path(self, command, tmp_path, capsys):
        assert self._exit_code(command, tmp_path / "missing.jsonl", capsys) == 2

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_directory(self, command, tmp_path, capsys):
        assert self._exit_code(command, tmp_path, capsys) == 2

    @pytest.mark.parametrize("command", ["run", "stats"])
    @pytest.mark.parametrize("header", ["not json", "5", '{"format": "other"}'])
    def test_not_a_trace(self, command, header, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(header + "\n")
        assert self._exit_code(command, path, capsys) == 2

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_empty_file(self, command, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert self._exit_code(command, path, capsys) == 2

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_gz_that_is_not_gzip(self, command, tmp_path, capsys):
        path = tmp_path / "bad.jsonl.gz"
        path.write_text("not gzip\n")
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--trace", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Not a gzipped file" in err

    @pytest.mark.parametrize("command", ["run", "stats"])
    def test_truncated_gz(self, command, trace_path, tmp_path, capsys):
        path = tmp_path / "truncated.jsonl.gz"
        whole = gzip.compress(trace_path.read_bytes())
        path.write_bytes(whole[: len(whole) // 2])
        assert self._exit_code(command, path, capsys) == 2


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace.jsonl"
    code = main(
        ["--seed", "5", "generate-trace", "--preset", "small", "--out", str(path)]
    )
    assert code == 0
    return path


class TestCommands:
    def test_generate_trace_writes_valid_jsonl(self, trace_path, capsys):
        records = read_trace(trace_path)
        assert records
        workload = Workload.from_records(records)
        assert workload.config.duration_hours >= 47

    def test_train(self, trace_path, capsys):
        assert main(["train", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out
        assert "precision=" in out

    def test_run(self, trace_path, capsys):
        code = main(
            [
                "run",
                "--trace", str(trace_path),
                "--method", "richnote",
                "--budget", "5",
                "--users", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RichNote @ 5 MB/week" in out
        assert "delivery_ratio" in out

    def test_sweep(self, trace_path, capsys):
        code = main(
            [
                "sweep",
                "--trace", str(trace_path),
                "--budgets", "2,20",
                "--methods", "richnote,util:3",
                "--users", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig3a_delivery_ratio" in out
        assert "UTIL-L3" in out

    def test_stats(self, trace_path, capsys):
        assert main(["stats", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "notifications :" in out
        assert "friend fraction" in out

    def test_bench_channels_runs_the_global_seed(self, monkeypatch, capsys):
        import repro.experiments.channels_bench as scenario

        seeds = []
        real = scenario.bench_channels

        def spy(config):
            seeds.append(config.seed)
            return real(config)

        monkeypatch.setattr(scenario, "bench_channels", spy)
        assert main(["--seed", "5", "bench-channels", "--rounds", "14"]) == 0
        assert seeds == [5]
        assert "shared-cell bystanders" in capsys.readouterr().out

    def test_survey(self, capsys):
        assert main(["survey", "--respondents", "40"]) == 0
        out = capsys.readouterr().out
        assert "Fig 2(a)" in out
        assert "logarithmic" in out


class TestWorkloadFromRecords:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Workload.from_records([])

    def test_top_users_rejects_negative_k(self, trace_path):
        workload = Workload.from_records(read_trace(trace_path))
        assert workload.top_users(0) == []
        with pytest.raises(ValueError, match="k >= 0"):
            workload.top_users(-3)

    def test_duration_inferred_and_sorted(self, trace_path):
        records = read_trace(trace_path)
        shuffled = list(reversed(records))
        workload = Workload.from_records(shuffled)
        timestamps = [r.timestamp for r in workload.records]
        assert timestamps == sorted(timestamps)
        assert workload.catalog is None


class TestFiguresCommand:
    def test_writes_artifacts(self, trace_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = main(
            [
                "figures",
                "--trace", str(trace_path),
                "--out", str(out),
                "--budgets", "2,20",
                "--users", "3",
            ]
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert "fig4a_total_utility.csv" in names
        assert "tables.txt" in names
        text = (out / "tables.txt").read_text()
        assert "fig3a_delivery_ratio" in text
        assert "fig5b presentation mix" in text
        assert "fig5c presentation mix" in text  # the Markov-network mix
        # CSVs round-trip through the loader.
        from repro.experiments.reporting import load_series_csv

        series = load_series_csv(out / "fig4a_total_utility.csv")
        assert "RichNote" in series.series
