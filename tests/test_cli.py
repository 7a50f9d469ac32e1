"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

import repro.__main__ as cli
from repro.__main__ import (
    EXIT_FAULT,
    EXIT_OK,
    EXIT_OOM,
    EXIT_USAGE,
    build_parser,
    main,
)
from repro.engine.kernels import get_backend

TRIANGLE = "T(x,y,z) :- R:Twitter(x,y), S:Twitter(y,z), T:Twitter(z,x)."

_EXECUTION = {"--runtime": "serial", "--kernels": None}
_INJECTION = {"--faults": None, "--recovery": None}

#: every subcommand's options (positionals by name) and their defaults
OPTIONS = {
    "run": {
        "query": None, "--dataset": "twitter", "--strategy": "HC_TJ",
        "--workers": 16, "--show-rows": 0, "--memory-tuples": None,
        **_EXECUTION, **_INJECTION,
    },
    "explain": {
        "query": None, "--dataset": "twitter", "--workers": 16,
        "--strategy": "HC_TJ", "--memory-tuples": None, "--analyze": False,
        **_EXECUTION, **_INJECTION,
    },
    "grid": {
        "workload": None, "--workers": 64, "--scale": "bench",
        "--no-memory-budget": False, **_EXECUTION,
    },
    "config": {
        "workload_or_query": None, "--workers": 64, "--scale": "bench",
        "--cardinality": 1_000_000,
    },
    "serve": {
        "--queries": 64, "--concurrency": 8, "--workers": 16,
        "--scale": "unit", "--workloads": None, "--zipf": 1.0, "--seed": 0,
        "--memory-tuples": None, "--deadline-ticks": None, "--timeout": None,
        "--show-outcomes": False, **_EXECUTION,
    },
    "workloads": {},
}


def _subcommands():
    """The parser of each ``python -m repro`` command, by name."""
    (commands,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return commands.choices


class TestParser:
    def test_options_and_defaults_per_command(self):
        found = {
            name: {
                (action.option_strings or [action.dest])[0]: action.default
                for action in command._actions
                if not isinstance(action, argparse._HelpAction)
            }
            for name, command in _subcommands().items()
        }
        assert found == OPTIONS

    @pytest.mark.parametrize(
        "argv",
        [["run", TRIANGLE], ["explain", TRIANGLE], ["grid", "Q1"], ["serve"]],
        ids=lambda argv: argv[0],
    )
    def test_kernels_scope_every_command(self, argv, monkeypatch):
        seen = []
        monkeypatch.setattr(
            cli, f"_cmd_{argv[0]}",
            lambda args: seen.append(get_backend()) or EXIT_OK,
        )
        before = get_backend()
        other = "python" if before == "numpy" else "numpy"
        assert main(argv + ["--kernels", other]) == EXIT_OK
        assert seen == [other]
        assert get_backend() == before

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", TRIANGLE])
        assert args.dataset == "twitter"
        assert args.strategy == "HC_TJ"

    def test_grid_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["grid", "Q99"])

    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain", TRIANGLE])
        assert args.strategy == "HC_TJ"
        assert args.analyze is False
        assert args.workers == 16


class TestCommands:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", TRIANGLE, "--workers", "4", "--show-rows", "2"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "tuples shuffled" in captured
        assert "hypercube" in captured

    def test_run_prints_memory_and_phases(self, capsys):
        code = main(["run", TRIANGLE, "--workers", "4", "--strategy", "RS_HJ"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "peak memory" in captured
        assert "phases:" in captured
        assert "step1:shuffle" in captured
        assert "step1:join" in captured

    def test_explain_renders_plan(self, capsys):
        code = main(["explain", TRIANGLE, "--workers", "4",
                     "--strategy", "RS_HJ"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "left-deep plan" in captured
        assert "physical plan" in captured
        assert "exchange[regular]" in captured
        assert "hash-join" in captured

    def test_explain_analyze_annotates_and_conserves(self, capsys):
        code = main(["explain", TRIANGLE, "--workers", "4",
                     "--strategy", "HC_TJ", "--analyze"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "(analyzed)" in captured
        assert "tuples in=" in captured
        assert "totals: cpu=" in captured
        assert "peak memory" in captured

    def test_grid_unit_scale(self, capsys):
        code = main(["grid", "Q7", "--workers", "4", "--scale", "unit"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "HC_TJ" in captured
        assert "consistent: True" in captured

    def test_config_for_workload(self, capsys):
        code = main(["config", "Q1", "--workers", "64", "--scale", "unit"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "fractional shares" in captured
        assert "Algorithm 1" in captured

    def test_config_for_adhoc_query(self, capsys):
        code = main(
            ["config", "Q(x,y) :- R(x,y), S(y,x).", "--workers", "4"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "Algorithm 1" in captured

    def test_workloads_listing(self, capsys):
        code = main(["workloads"])
        captured = capsys.readouterr().out
        assert code == 0
        for name in ("Q1", "Q4", "Q8"):
            assert name in captured

    def test_serve_mixed_traffic(self, capsys):
        code = main(["serve", "--queries", "6", "--concurrency", "3",
                     "--scale", "unit", "--workers", "4",
                     "--workloads", "Q1,Q7", "--seed", "3",
                     "--show-outcomes"])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "ok=6" in captured
        assert "throughput" in captured
        assert "p99" in captured
        assert "plan cache:" in captured

    def test_serve_throughput_counts_completed_queries_only(self, capsys):
        code = main(["serve", "--queries", "4", "--workloads", "Q1",
                     "--scale", "unit", "--workers", "4", "--timeout", "0"])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "timeout=4" in captured
        assert "throughput 0.0 queries/s" in captured

    def test_serve_prints_no_latency_when_no_query_completed(self, capsys):
        code = main(["serve", "--queries", "4", "--workloads", "Q1",
                     "--scale", "unit", "--workers", "4", "--timeout", "0"])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "latency:     n/a (no query completed)" in captured
        assert "p50" not in captured

    def test_serve_rejects_unknown_workload(self, capsys):
        code = main(["serve", "--queries", "2", "--workloads", "Q99"])
        assert code == EXIT_USAGE
        assert "Q99" in capsys.readouterr().err

    def test_unknown_dataset_exits(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            args = parser.parse_args(["run", TRIANGLE, "--dataset", "nope"])


class TestExitCodes:
    """Each documented failure class maps to its own exit code."""

    def test_unknown_strategy_is_usage_error(self, capsys):
        code = main(["run", TRIANGLE, "--workers", "4",
                     "--strategy", "WAT_HJ"])
        assert code == EXIT_USAGE
        assert "WAT_HJ" in capsys.readouterr().err

    def test_oom_abort(self, capsys):
        code = main(["run", TRIANGLE, "--workers", "4",
                     "--strategy", "RS_HJ", "--memory-tuples", "10"])
        captured = capsys.readouterr().out
        assert code == EXIT_OOM
        assert "FAILED" in captured

    def test_fault_abort(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"kind": "crash", "round": "step 1",'
            ' "worker": 1}]}'
        )
        code = main(["run", TRIANGLE, "--workers", "4",
                     "--strategy", "RS_HJ",
                     "--faults", str(plan), "--recovery", "fail"])
        captured = capsys.readouterr().out
        assert code == EXIT_FAULT
        assert "injected crash" in captured

    def test_fault_recovered_is_success(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"kind": "crash", "round": "step 1",'
            ' "worker": 1}]}'
        )
        code = main(["run", TRIANGLE, "--workers", "4",
                     "--strategy", "RS_HJ",
                     "--faults", str(plan), "--recovery", "retry"])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert "recovery:" in captured
        assert "1 fault(s) injected" in captured

    @pytest.mark.parametrize(
        "text, field",
        [
            (None, "plan.json"),
            ('{"faults": [{"kind": "crash", "wrkr": 1}]}', "wrkr"),
            ('[{"kind": "crash"}]', "object"),
            ('{"faults": [{"kind": "straggler", "factor": "3"}]}', "factor"),
            ('{"faults": [{"kind": "crash", "attempts": 1}]}', "attempts"),
            ('{"faults": [{"kind": "crash", "round": 2, "worker": 99}]}', "worker"),
            ('{"faults": [{"kind": "crash", "worker": -1}]}', "worker"),
            ('{"faults": [{"kind": "crash", "round": -1}]}', "round"),
            ('{"faults": [{"kind": "oom", "attempts": [-1]}]}', "attempts"),
            ('{"faults": [{"kind": "oom", "factor": 5.0}]}', "factor"),
            ('{"faults": [{"kind": "crash", "exchange": "S"}]}', "exchange"),
            ('{"faults": [{"kind": "oom", "phase": "nope"}]}', "phase"),
            ('{"faults": [{"kind": "partition_loss", "exchange": "S", "worker": 0}]}',
             "worker"),
            ('{"faults": [{"kind": "straggler", "factor": 2.0, "attempts": [0]}]}',
             "attempts"),
        ],
        ids=["missing", "unknown-key", "list", "string-factor", "int-attempts",
             "worker-out-of-range", "negative-worker", "negative-round",
             "negative-attempt", "factor-on-oom", "exchange-on-crash",
             "phase-on-oom", "worker-on-partition-loss", "attempts-on-straggler"],
    )
    def test_unreadable_fault_plan_is_usage_error(self, capsys, tmp_path, text, field):
        plan = tmp_path / "plan.json"
        if text is not None:
            plan.write_text(text)
        code = main(["run", TRIANGLE, "--workers", "4", "--faults", str(plan)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "plan.json" in err and field in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["serve", "--workers", "0", "--queries", "4"], "workers"),
            (["serve", "--queries", "-1"], "queries"),
            (["serve", "--queries", "2", "--memory-tuples", "-1"], "budget"),
            (["serve", "--queries", "2", "--deadline-ticks", "-1"], "deadline_ticks"),
            (["serve", "--queries", "2", "--timeout", "-1"], "timeout_seconds"),
            (["run", TRIANGLE, "--workers", "4", "--memory-tuples", "-1"],
             "per_worker_tuples"),
        ],
        ids=["serve-workers", "serve-queries", "serve-memory", "serve-deadline",
             "serve-timeout", "run-memory"],
    )
    def test_out_of_range_value_is_usage_error(self, capsys, argv, field):
        assert main(argv) == EXIT_USAGE
        assert field in capsys.readouterr().err

    def test_explain_faults_without_analyze_is_usage_error(self, capsys):
        code = main(["explain", TRIANGLE, "--faults", "/nonexistent.json"])
        assert code == EXIT_USAGE
        assert "--analyze" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--recovery", "bogus"], ["--runtime", "bogus"], ["--memory-tuples", "-5"]],
        ids=["recovery", "runtime", "memory"],
    )
    def test_explain_checks_execution_flags_without_analyze(self, capsys, flags):
        """``explain`` rejects the flags ``run`` and ``explain --analyze``
        reject, with the same one-line error, whether or not it executes."""
        errors = []
        for command in (["run"], ["explain"], ["explain", "--analyze"]):
            assert main([*command, TRIANGLE, "--workers", "4", *flags]) == EXIT_USAGE
            errors.append(capsys.readouterr().err)
        assert errors[0].count("\n") == 1 and errors[0].startswith("error: ")
        assert errors == [errors[0]] * 3

    @pytest.mark.parametrize(
        "command", [["run"], ["explain"], ["explain", "--analyze"]],
        ids=["run", "explain", "analyze"],
    )
    def test_unknown_relation_is_usage_error(self, capsys, command):
        code = main([*command, "Q(x,y) :- E(x,y).", "--workers", "4"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: unknown relation 'E'; known: ['Twitter']\n"
        )

    def test_bad_recovery_spec_is_usage_error(self, capsys):
        code = main(["run", TRIANGLE, "--workers", "4",
                     "--recovery", "retry:lots"])
        assert code == EXIT_USAGE

    def test_explain_analyze_fault_abort(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"faults": [{"kind": "crash", "round": "step 1",'
            ' "worker": 0, "attempts": [0, 1, 2]}]}'
        )
        code = main(["explain", TRIANGLE, "--workers", "4",
                     "--strategy", "RS_HJ", "--analyze",
                     "--faults", str(plan), "--recovery", "retry:2"])
        assert code == EXIT_FAULT
