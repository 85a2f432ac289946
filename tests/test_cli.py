"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.command == "generate"
        assert args.pattern == "few_high"
        assert args.variants_in == "child"

    def test_link_requires_attribute(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["link", "a.csv", "b.csv"])

    def test_experiment_test_case_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--test-case", "bogus"])

    def test_policy_defaults_to_mar(self):
        args = build_parser().parse_args(
            ["link", "a.csv", "b.csv", "--attribute", "location"]
        )
        assert args.policy == "mar"
        assert args.budget is None

    def test_policy_choices_cover_the_registry(self):
        from repro.runtime.policy import available_policies

        for name in available_policies():
            args = build_parser().parse_args(
                ["link", "a.csv", "b.csv", "--attribute", "x", "--policy", name]
            )
            assert args.policy == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["link", "a.csv", "b.csv", "--attribute", "x", "--policy", "bogus"]
            )

    def test_experiment_accepts_policy_and_budget(self):
        args = build_parser().parse_args(
            ["experiment", "--policy", "budget-greedy", "--budget", "0.4"]
        )
        assert args.policy == "budget-greedy"
        assert args.budget == 0.4

    def test_sharding_defaults_to_unsharded_serial_hash(self):
        args = build_parser().parse_args(
            ["link", "a.csv", "b.csv", "--attribute", "location"]
        )
        assert args.shards == 1
        assert args.backend == "serial"
        assert args.partitioner == "hash"
        assert args.deadline is None

    def test_sharding_flags_parsed(self):
        args = build_parser().parse_args([
            "experiment", "--shards", "4", "--backend", "process",
            "--partitioner", "gram-prefix", "--deadline", "2.5",
        ])
        assert args.shards == 4
        assert args.backend == "process"
        assert args.partitioner == "gram-prefix"
        assert args.deadline == 2.5

    def test_backend_and_partitioner_choices_cover_registries(self):
        from repro.runtime.parallel import available_backends
        from repro.runtime.sharding import available_partitioners

        for backend in available_backends():
            args = build_parser().parse_args(
                ["link", "a", "b", "--attribute", "x", "--backend", backend]
            )
            assert args.backend == backend
        for partitioner in available_partitioners():
            args = build_parser().parse_args(
                ["link", "a", "b", "--attribute", "x",
                 "--partitioner", partitioner]
            )
            assert args.partitioner == partitioner
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["link", "a", "b", "--attribute", "x", "--backend", "gpu"]
            )
        for removed in ("gram", "round-robin", "range"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["link", "a", "b", "--attribute", "x",
                     "--partitioner", removed]
                )


class TestGenerateCommand:
    def test_generates_csv_files(self, tmp_path, capsys):
        parent = tmp_path / "parent.csv"
        child = tmp_path / "child.csv"
        truth = tmp_path / "truth.csv"
        exit_code = main([
            "generate",
            "--pattern", "uniform",
            "--parent-size", "80",
            "--child-size", "120",
            "--parent-output", str(parent),
            "--child-output", str(child),
            "--truth-output", str(truth),
        ])
        assert exit_code == 0
        assert parent.exists() and child.exists() and truth.exists()
        assert len(parent.read_text().splitlines()) == 81
        assert len(child.read_text().splitlines()) == 121
        assert len(truth.read_text().splitlines()) == 121
        assert "wrote 80 parent rows" in capsys.readouterr().out

    def test_generates_standard_test_case(self, tmp_path):
        exit_code = main([
            "generate",
            "--test-case", "few_high_both",
            "--parent-size", "60",
            "--child-size", "90",
            "--parent-output", str(tmp_path / "p.csv"),
            "--child-output", str(tmp_path / "c.csv"),
            "--truth-output", str(tmp_path / "t.csv"),
        ])
        assert exit_code == 0


class TestLinkCommand:
    def test_links_generated_files(self, tmp_path, capsys):
        parent = tmp_path / "parent.csv"
        child = tmp_path / "child.csv"
        truth = tmp_path / "truth.csv"
        main([
            "generate",
            "--pattern", "few_high",
            "--parent-size", "100",
            "--child-size", "200",
            "--parent-output", str(parent),
            "--child-output", str(child),
            "--truth-output", str(truth),
        ])
        matches = tmp_path / "matches.csv"
        exit_code = main([
            "link", str(parent), str(child),
            "--attribute", "location",
            "--strategy", "adaptive",
            "--delta-adapt", "25",
            "--window-size", "25",
            "--output", str(matches),
        ])
        assert exit_code == 0
        lines = matches.read_text().splitlines()
        assert lines[0] == "left_index,right_index"
        assert len(lines) > 150
        output = capsys.readouterr().out
        assert "matched pairs written" in output
        assert "adaptive trace" in output

    def test_links_sharded(self, tmp_path, capsys):
        parent = tmp_path / "parent.csv"
        child = tmp_path / "child.csv"
        main([
            "generate",
            "--pattern", "few_high",
            "--parent-size", "80",
            "--child-size", "160",
            "--parent-output", str(parent),
            "--child-output", str(child),
            "--truth-output", str(tmp_path / "truth.csv"),
        ])
        matches = tmp_path / "matches.csv"
        exit_code = main([
            "link", str(parent), str(child),
            "--attribute", "location",
            "--strategy", "adaptive",
            "--delta-adapt", "25",
            "--window-size", "25",
            "--shards", "2",
            "--output", str(matches),
        ])
        assert exit_code == 0
        lines = matches.read_text().splitlines()
        assert lines[0] == "left_index,right_index"
        assert len(lines) > 100
        output = capsys.readouterr().out
        assert "per-shard breakdown" in output

    def test_links_sharded_with_gram_prefix_partitioner(self, tmp_path, capsys):
        """Prefix-gram sharding matches the unsharded pair set exactly."""
        parent = tmp_path / "parent.csv"
        child = tmp_path / "child.csv"
        main([
            "generate",
            "--pattern", "few_high",
            "--parent-size", "80",
            "--child-size", "160",
            "--parent-output", str(parent),
            "--child-output", str(child),
            "--truth-output", str(tmp_path / "truth.csv"),
        ])
        # budget-greedy without a budget never switches out of lap/rap:
        # a schedule-free all-approximate run, the workload the gram
        # partitioner's recall guarantee is stated for.
        common = [
            "link", str(parent), str(child),
            "--attribute", "location",
            "--strategy", "adaptive",
            "--policy", "budget-greedy",
        ]
        unsharded = tmp_path / "unsharded.csv"
        assert main(common + ["--output", str(unsharded)]) == 0
        sharded = tmp_path / "sharded.csv"
        exit_code = main(common + [
            "--shards", "2",
            "--partitioner", "gram-prefix",
            "--output", str(sharded),
        ])
        assert exit_code == 0
        unsharded_pairs = set(unsharded.read_text().splitlines()[1:])
        sharded_pairs = set(sharded.read_text().splitlines()[1:])
        assert sharded_pairs == unsharded_pairs
        assert "per-shard breakdown" in capsys.readouterr().out

    def test_sharded_non_adaptive_is_a_clean_cli_error(self, tmp_path, capsys):
        exit_code = main([
            "link", "a.csv", "b.csv",
            "--attribute", "location",
            "--strategy", "exact",
            "--shards", "2",
        ])
        assert exit_code == 2
        assert "--strategy adaptive" in capsys.readouterr().err

    def test_zero_shards_is_a_clean_cli_error(self, tmp_path, capsys):
        exit_code = main([
            "link", "a.csv", "b.csv",
            "--attribute", "location",
            "--shards", "0",
        ])
        assert exit_code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_links_with_fixed_policy_and_budget(self, tmp_path, capsys):
        parent = tmp_path / "parent.csv"
        child = tmp_path / "child.csv"
        main([
            "generate",
            "--pattern", "few_high",
            "--parent-size", "80",
            "--child-size", "160",
            "--parent-output", str(parent),
            "--child-output", str(child),
            "--truth-output", str(tmp_path / "t.csv"),
        ])
        matches = tmp_path / "matches.csv"
        exit_code = main([
            "link", str(parent), str(child),
            "--attribute", "location",
            "--strategy", "adaptive",
            "--policy", "budget-greedy",
            "--budget", "0.5",
            "--delta-adapt", "25",
            "--window-size", "25",
            "--output", str(matches),
        ])
        assert exit_code == 0
        assert len(matches.read_text().splitlines()) > 1
        assert "matched pairs written" in capsys.readouterr().out

    @pytest.mark.parametrize("strategy", ["exact", "approximate", "blocking"])
    def test_non_adaptive_strategies(self, tmp_path, strategy):
        parent = tmp_path / "parent.csv"
        child = tmp_path / "child.csv"
        main([
            "generate",
            "--parent-size", "60",
            "--child-size", "90",
            "--parent-output", str(parent),
            "--child-output", str(child),
            "--truth-output", str(tmp_path / "t.csv"),
        ])
        matches = tmp_path / f"{strategy}.csv"
        exit_code = main([
            "link", str(parent), str(child),
            "--attribute", "location",
            "--strategy", strategy,
            "--output", str(matches),
        ])
        assert exit_code == 0
        assert matches.exists()


class TestStreamAndProgress:
    """The jobs-layer CLI surfaces: --stream NDJSON and --progress ticker."""

    @staticmethod
    def _generate(tmp_path):
        parent = tmp_path / "parent.csv"
        child = tmp_path / "child.csv"
        main([
            "generate",
            "--pattern", "few_high",
            "--parent-size", "80",
            "--child-size", "160",
            "--parent-output", str(parent),
            "--child-output", str(child),
            "--truth-output", str(tmp_path / "truth.csv"),
        ])
        return parent, child

    def test_stream_emits_ndjson_matches_on_stdout(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        capsys.readouterr()  # drop the generate output
        matches = tmp_path / "matches.csv"
        exit_code = main([
            "link", str(parent), str(child),
            "--attribute", "location",
            "--delta-adapt", "25",
            "--window-size", "25",
            "--stream",
            "--output", str(matches),
        ])
        assert exit_code == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert lines, "expected NDJSON match lines on stdout"
        events = [json.loads(line) for line in lines]
        assert all(
            {"left_index", "right_index", "similarity", "mode", "step"}
            <= set(event)
            for event in events
        )
        # The CSV agrees with the stream, and the summary went to stderr.
        csv_pairs = matches.read_text().splitlines()[1:]
        assert len(csv_pairs) == len(events)
        assert "matched pairs written" in captured.err

    def test_stream_sharded_tags_shards(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        capsys.readouterr()
        exit_code = main([
            "link", str(parent), str(child),
            "--attribute", "location",
            "--delta-adapt", "25",
            "--window-size", "25",
            "--stream",
            "--shards", "2",
            "--output", str(tmp_path / "m.csv"),
        ])
        assert exit_code == 0
        events = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert events and all("shard" in event for event in events)
        assert {event["shard"] for event in events} <= {0, 1}

    def test_stream_rejects_baseline_strategies(self, tmp_path, capsys):
        exit_code = main([
            "link", "a.csv", "b.csv",
            "--attribute", "location",
            "--strategy", "exact",
            "--stream",
        ])
        assert exit_code == 2
        assert "--stream" in capsys.readouterr().err

    def test_stream_rejects_parallel_backends(self, tmp_path, capsys):
        exit_code = main([
            "link", "a.csv", "b.csv",
            "--attribute", "location",
            "--stream",
            "--shards", "2",
            "--backend", "process",
        ])
        assert exit_code == 2
        assert "serial-merge" in capsys.readouterr().err

    def test_progress_rejects_baseline_strategies(self, tmp_path, capsys):
        exit_code = main([
            "link", "a.csv", "b.csv",
            "--attribute", "location",
            "--strategy", "blocking",
            "--progress",
        ])
        assert exit_code == 2
        assert "--progress" in capsys.readouterr().err

    def test_progress_prints_a_final_ticker_line(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        capsys.readouterr()
        exit_code = main([
            "link", str(parent), str(child),
            "--attribute", "location",
            "--delta-adapt", "25",
            "--window-size", "25",
            "--progress",
            "--shards", "2",
            "--backend", "process",
            "--output", str(tmp_path / "m.csv"),
        ])
        assert exit_code == 0
        err = capsys.readouterr().err
        assert "progress:" in err
        assert "shards 2/2" in err
        assert "100%" in err

    def test_process_backend_from_the_cli(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        serial = tmp_path / "serial.csv"
        viaprocess = tmp_path / "process.csv"
        common = [
            "link", str(parent), str(child),
            "--attribute", "location",
            "--delta-adapt", "25",
            "--window-size", "25",
            "--shards", "2",
        ]
        assert main(common + ["--output", str(serial)]) == 0
        assert main(common + [
            "--backend", "process", "--output", str(viaprocess)
        ]) == 0
        assert viaprocess.read_text() == serial.read_text()


class TestExperimentCommand:
    def test_experiment_prints_rows_and_writes_json(self, tmp_path, capsys):
        json_path = tmp_path / "outcome.json"
        exit_code = main([
            "experiment",
            "--test-case", "uniform_child",
            "--parent-size", "150",
            "--child-size", "300",
            "--delta-adapt", "25",
            "--window-size", "25",
            "--json-output", str(json_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "gain / cost" in output
        assert "state breakdown" in output
        payload = json.loads(json_path.read_text())
        assert payload["test_case"] == "uniform_child"
        assert payload["result_sizes"]["adaptive"] >= payload["result_sizes"]["exact"]
        assert 0.0 <= payload["metrics"]["gain"] <= 1.0


class TestCalibrateCommand:
    def test_calibrate_prints_weights(self, capsys):
        exit_code = main([
            "calibrate",
            "--parent-size", "120",
            "--child-size", "80",
            "--max-steps", "80",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "paper_step_weight" in output
        assert "lap/rap" in output


class TestFailureFlags:
    """`repro link --on-failure/--retries/--shard-timeout` + fault injection."""

    @staticmethod
    def _generate(tmp_path):
        parent = tmp_path / "parent.csv"
        child = tmp_path / "child.csv"
        main([
            "generate",
            "--pattern", "few_high",
            "--parent-size", "80",
            "--child-size", "160",
            "--parent-output", str(parent),
            "--child-output", str(child),
            "--truth-output", str(tmp_path / "truth.csv"),
        ])
        return parent, child

    @staticmethod
    def _link_args(parent, child, output, *extra):
        return [
            "link", str(parent), str(child),
            "--attribute", "location",
            "--strategy", "adaptive",
            "--delta-adapt", "25",
            "--window-size", "25",
            "--shards", "2",
            "--output", str(output),
            *extra,
        ]

    def test_retry_recovers_an_injected_crash_exactly(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        clean = tmp_path / "clean.csv"
        assert main(self._link_args(parent, child, clean)) == 0
        retried = tmp_path / "retried.csv"
        exit_code = main(self._link_args(
            parent, child, retried,
            "--on-failure", "retry", "--retries", "2", "--inject-crash", "1",
        ))
        captured = capsys.readouterr()
        assert exit_code == 0
        assert retried.read_text() == clean.read_text()
        assert "degraded" not in captured.err

    def test_degraded_run_reports_on_stderr_and_exits_3(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        matches = tmp_path / "matches.csv"
        exit_code = main(self._link_args(
            parent, child, matches,
            "--on-failure", "degrade", "--inject-crash", "1",
        ))
        captured = capsys.readouterr()
        assert exit_code == 3
        assert "degraded run" in captured.err
        assert "estimated recall" in captured.err
        assert "shard 1" in captured.err
        # The partial output is still written — fewer pairs, never junk.
        lines = matches.read_text().splitlines()
        assert lines[0] == "left_index,right_index"
        assert len(lines) > 1

    def test_fail_fast_crash_is_a_clean_error_exit(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        exit_code = main(self._link_args(
            parent, child, tmp_path / "matches.csv", "--inject-crash", "0",
        ))
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err
        assert "shard 0" in captured.err

    def test_shard_timeout_accepted_on_a_clean_run(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        matches = tmp_path / "matches.csv"
        exit_code = main(self._link_args(
            parent, child, matches, "--shard-timeout", "30",
        ))
        assert exit_code == 0
        assert "matched pairs written" in capsys.readouterr().out

    def test_retries_require_a_retrying_policy(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        exit_code = main(self._link_args(
            parent, child, tmp_path / "m.csv", "--retries", "2",
        ))
        assert exit_code == 2
        assert "fail-fast" in capsys.readouterr().err

    def test_negative_retries_rejected(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        exit_code = main(self._link_args(
            parent, child, tmp_path / "m.csv",
            "--on-failure", "retry", "--retries", "-1",
        ))
        assert exit_code == 2
        assert "retries" in capsys.readouterr().err

    def test_failure_flags_are_adaptive_only(self, tmp_path, capsys):
        parent, child = self._generate(tmp_path)
        args = self._link_args(
            parent, child, tmp_path / "m.csv", "--on-failure", "degrade",
        )
        args[args.index("--strategy") + 1] = "exact"
        exit_code = main(args)
        assert exit_code == 2
        assert "adaptive" in capsys.readouterr().err
