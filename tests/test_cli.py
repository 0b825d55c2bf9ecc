import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensemblekit
from ensemblekit import cli
from ensemblekit import events as ev
from ensemblekit.cli import main
from ensemblekit.engine import (
    NodeFault,
    RuntimeModel,
    run_simulated,
)
from ensemblekit.errors import Interrupted
from ensemblekit.events import EventLog, scheduled_detail
from ensemblekit.metrics import compute_utilization
from ensemblekit.platform import get_profile, usable_cores
from ensemblekit.pst import Stage, TaskDescription, WorkflowSpec, validate_workflow
from conftest import make_task, save_platform, single_stage, small_platform


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def small_platform_file(tmp_path):
    # a mini Frontier: 8 nodes of 64 cores (8 reserved) and 8 GPUs
    path = tmp_path / "small.json"
    save_platform(
        small_platform(cores=64, reserved=8, gpus=8, nodes=8,
                       max_walltime=50000.0),
        path,
    )
    return path


# the run metadata of a log simulated on small_platform_file's 8 nodes
_SMALL_META = {
    "backend": "sim", "platform": "test", "allocation_nodes": 8,
    "cores_total": 64, "cores_reserved": 8, "gpus_per_node": 8,
    "bootstrap_s": 0.0, "walltime_s": 20000.0,
}


class TestExample:
    def test_writes_valid_workflow(self, tmp_path):
        out = tmp_path / "wf.json"
        assert run_cli("example", "--example", "exaca", "--cases", "3",
                       "--uq-params", "2", "--out", str(out)) == 0
        spec = WorkflowSpec.load(out)
        assert validate_workflow(spec) == []
        assert len(spec.stages[0].tasks) == 6

    def test_unknown_shape_is_config_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_cli("example", "--example", "fusion", "--out", "x.json")

    def test_missing_shape_is_config_error(self, tmp_path):
        assert run_cli("example", "--out", str(tmp_path / "x.json")) == 2

    @pytest.mark.parametrize("sleep", ["nan", "inf", "-1"])
    def test_bad_sleep_is_config_error(self, tmp_path, capsys, sleep):
        # each would go into every task's command: `sleep inf` never ends
        out = tmp_path / "wf.json"
        assert run_cli("example", "--example", "uq-stage1", "--desk",
                       "--sleep", sleep, "--out", str(out)) == 2
        assert "error: ConfigError: sleep_s" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [("additivefoam", "--cases", "0"), ("exaca", "--uq-params", "0")],
        ids=["additivefoam-no-case", "exaca-no-parameter"],
    )
    def test_an_empty_grid_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "wf.json"
        assert run_cli("example", "--example", *argv, "--out", str(out)) == 2
        assert f"error: UnknownShape: {argv[0]} needs" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (("--example", "uq-stage1", "--tasks", "5"), "'tasks'"),
            (("--example", "toy", "--cases", "3", "--uq-params", "9",
              "--desk", "--no-optimizer"),
             "'cases', 'desk', 'optimizer', 'uq_params'"),
        ],
        ids=["uq-stage1", "toy"],
    )
    def test_a_flag_the_shape_does_not_read_is_config_error(
        self, tmp_path, capsys, argv, unread
    ):
        out = tmp_path / "wf.json"
        assert run_cli("example", *argv, "--seed", "1", "--sleep", "0",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: ConfigError: example shape {argv[1]} does not " \
            f"read {unread}\n" in err
        assert not out.exists()


class TestSimulate:
    def test_small_ensemble_end_to_end(self, tmp_path, small_platform_file, capsys):
        wf = tmp_path / "wf.json"
        log = tmp_path / "run.jsonl"
        assert run_cli("example", "--example", "exaconstit", "--tasks", "6",
                       "--no-optimizer", "--out", str(wf)) == 0
        code = run_cli(
            "simulate", "--workflow", str(wf),
            "--platform", str(small_platform_file),
            "--nodes", "8", "--walltime", "20000", "--seed", "1",
            "--runtime", "uniform:600,1244", "--out", str(log),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "done=6" in out
        assert "node_utilization=" in out
        assert EventLog.load_jsonl(log).complete

    def test_missing_workflow_file(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--workflow", str(tmp_path / "absent.json"),
            "--profile", "frontier-sim", "--nodes", "4",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2

    def test_garbage_workflow_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(
            "simulate", "--workflow", str(bad),
            "--profile", "frontier-sim", "--nodes", "4",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2

    def test_platform_and_workflow_come_only_from_files(
        self, tmp_path, capsys, monkeypatch
    ):
        # --platform names a file, never a profile; no inline workflow
        monkeypatch.chdir(tmp_path)
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "toy", "--out", str(wf))
        capsys.readouterr()
        code = run_cli(
            "simulate", "--workflow", str(wf), "--platform", "frontier-sim",
            "--nodes", "4", "--walltime", "7200", "--out", "x.jsonl",
        )
        assert code == 2
        assert "error: ParseError: frontier-sim: " in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            run_cli("simulate", "--example", "toy", "--profile",
                    "frontier-sim", "--nodes", "4", "--out", "x.jsonl")
        assert exit_info.value.code == 2
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cpu_processes", "x"),
            ("expected_runtime_s", "x"),
            ("cpu_processes", 1.5),
            ("gpus_per_process", True),
            ("expected_runtime_s", float("nan")),
            ("uid", 5),
            ("arguments", "abc"),
            ("uid", ""),
            pytest.param("expected_runtime_s", 10**400,
                         id="expected_runtime_s-beyond-float-range"),
        ],
    )
    def test_bad_workflow_field_is_config_error(self, tmp_path, capsys,
                                                field, value):
        doc = json.loads(json.dumps(_WORKFLOW))
        _put(doc, _TASK + (field,), value)
        wf = tmp_path / "wf.json"
        wf.write_text(json.dumps(doc))
        log = tmp_path / "run.jsonl"
        code = run_cli(
            "simulate", "--workflow", str(wf), "--profile", "frontier-sim",
            "--nodes", "2", "--walltime", "7200", "--out", str(log),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: ValidationError: task " in err
        assert field in err
        assert "Traceback" not in err
        assert not log.exists()

    @pytest.mark.parametrize(
        "path,value",
        [
            (("bootstrap_overhead_s",), float("nan")),
            (("bootstrap_overhead_s",), "x"),
            (("policy", "tiers", 0), ["a", 1.0]),
            (("policy", "tiers", 0), [4, 3600.0, 1]),
            (("node", "cores_total"), 10**400),
            (("node_count",), 1.5),
            (("node_count",), 2**53 + 1),
            (("bootstrap_overhead_s",), 10**400),
            (("policy", "tiers", 0), [4, 10**400]),
        ],
        ids=["bootstrap-nan", "bootstrap-string", "tier-string-nodes",
             "tier-three-elements", "cores-beyond-float-range",
             "node-count-float", "node-count-beyond-slots",
             "bootstrap-beyond-float-range",
             "tier-walltime-beyond-float-range"],
    )
    def test_bad_platform_field_is_validation_error(self, tmp_path, capsys,
                                                    path, value):
        doc = json.loads(json.dumps(_PLATFORM))
        _put(doc, path, value)
        platform = tmp_path / "p.json"
        platform.write_text(json.dumps(doc))
        wf = tmp_path / "wf.json"
        wf.write_text(json.dumps(_WORKFLOW))
        log = tmp_path / "run.jsonl"
        code = run_cli(
            "simulate", "--workflow", str(wf), "--platform", str(platform),
            "--nodes", "2", "--out", str(log),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: ValidationError: " in err
        assert "Traceback" not in err
        assert not log.exists()

    def test_accounting_beyond_float_range_is_config_error(self, tmp_path,
                                                           capsys):
        # each value passes its own field check; together, 4 nodes of 2^53
        # cores for 1e300 s leave the float range in core-seconds
        platform = tmp_path / "p.json"
        platform.write_text(json.dumps({
            "name": "big", "node": {"cores_total": 2**53},
            "node_count": 4, "policy": {"tiers": [[4, 1e300]]},
        }))
        doc = json.loads(json.dumps(_WORKFLOW))
        _put(doc, _TASK + ("expected_runtime_s",), 1e300)
        wf = tmp_path / "wf.json"
        wf.write_text(json.dumps(doc))
        log = tmp_path / "h.jsonl"
        code = run_cli(
            "simulate", "--workflow", str(wf), "--platform", str(platform),
            "--nodes", "4", "--out", str(log),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: ConfigError: " in err and "float range" in err
        assert not log.exists()

    def test_allocation_too_large_to_hold_is_config_error(self, tmp_path,
                                                          capsys):
        # 2**50 nodes pass every check of the platform and the flags, and
        # their slot tables need 2**53 bytes, more than a process can map,
        # so the allocator refuses at once. Never run this at a size the
        # host could try to fill.
        nodes = 2**50
        platform = tmp_path / "p.json"
        platform.write_text(json.dumps({
            "name": "big",
            "node": {"cores_total": 64, "cores_reserved": 8, "gpus": 8},
            "node_count": nodes, "policy": {"tiers": [[nodes, 43200.0]]},
        }))
        wf = tmp_path / "toy.json"
        assert run_cli("example", "--example", "toy", "--out", str(wf)) == 0
        capsys.readouterr()
        log = tmp_path / "big.jsonl"
        code = run_cli(
            "simulate", "--workflow", str(wf), "--platform", str(platform),
            "--nodes", str(nodes), "--walltime", "12000", "--out", str(log),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: ConfigError: an allocation of {nodes} nodes is too large "
            f"to hold its slot tables\n"
        )
        assert not log.exists()

    def test_task_beyond_the_slot_range_is_config_error(self, tmp_path,
                                                        capsys):
        # each count is in range; their product is not
        doc = json.loads(json.dumps(_WORKFLOW))
        _put(doc, _TASK + ("cpu_processes",), 2**30)
        _put(doc, _TASK + ("cpu_threads_per_process",), 2**30)
        err = _simulate_rejects(doc, _PLATFORM, capsys, tmp_path)
        assert f"error: ValidationError: task t: reserves more than " \
            f"{2**53} core or GPU slots" in err

    @pytest.mark.parametrize(
        "nodes, error",
        [((), "ConfigError: --nodes is required"),
         (("--nodes", "0"), "PolicyGap: nodes_requested must be >= 1")],
        ids=["missing", "zero"],
    )
    def test_allocation_of_no_node_is_config_error(self, tmp_path, capsys,
                                                   nodes, error):
        # without --walltime, so that the policy is asked for a limit
        wf, out = tmp_path / "wf.json", tmp_path / "x.jsonl"
        run_cli("example", "--example", "toy", "--out", str(wf))
        assert run_cli("simulate", "--workflow", str(wf), *nodes,
                       "--out", str(out)) == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    def test_walltime_above_policy(self, tmp_path, capsys):
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "toy", "--out", str(wf))
        code = run_cli(
            "simulate", "--workflow", str(wf), "--profile", "frontier-sim",
            "--nodes", "4", "--walltime", "99999999",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2
        assert "PolicyViolation" in capsys.readouterr().err

    def test_retry_after_node_fault_writes_both_logs(
        self, tmp_path, small_platform_file, capsys
    ):
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "exaconstit", "--tasks", "6",
                "--no-optimizer", "--out", str(wf))
        # desk platform has 8 cores/node; members need 64x7 cores => use
        # eight full nodes per member? too wide. Use runtime fixed and the
        # built-in small platform instead via --platform.
        log = tmp_path / "run.jsonl"
        code = run_cli(
            "simulate", "--workflow", str(wf),
            "--platform", str(small_platform_file),
            "--nodes", "8", "--walltime", "20000",
            "--runtime", "fixed:500", "--fail-node", "0@600",
            "--max-attempts", "2", "--out", str(log),
        )
        assert code == 0
        assert log.exists()
        assert (tmp_path / "run.attempt2.jsonl").exists()

    def test_retry_summary_uses_the_retry_allocation(self, tmp_path, capsys):
        # a transient fault fails one 8-node member, so attempt 2 runs on 8
        # of attempt 1's 16 nodes
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "exaconstit", "--tasks", "4",
                "--no-optimizer", "--out", str(wf))
        code = run_cli(
            "simulate", "--workflow", str(wf), "--profile", "frontier-sim",
            "--nodes", "16", "--runtime", "fixed:500",
            "--fail-node", "0@600:transient", "--max-attempts", "2",
            "--out", str(tmp_path / "run.jsonl"),
        )
        assert code == 0
        retry = EventLog.load_jsonl(tmp_path / "run.attempt2.jsonl")
        assert json.loads(retry[0].detail)["allocation_nodes"] == 8
        stack = compute_utilization(retry)
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("attempt 2: ")
        assert line.endswith(
            f"node_utilization={stack.nodes.utilization_fraction:.3f}"
        )

    @pytest.mark.parametrize(
        "flag",
        [
            ("--runtime", "fixed:abc"),
            ("--runtime", "uniform:nan,nan"),
            ("--walltime", "nan"),
            ("--fail-node", "x@1"),
            ("--fail-task", "t@zz"),
            ("--launch-delay", "nan"),
            ("--launch-delay", "-5"),
            ("--launch-rate-cap", "0"),
            ("--max-attempts", "0"),
            ("--fail-task", "nosuch@0.5"),
            pytest.param(("--fail-node", "9@100"),
                         id="fault-node-outside-allocation"),
            pytest.param(("--walltime", "80"),
                         id="walltime-within-bootstrap"),
            ("--runtime", "bogus"),
        ],
    )
    def test_bad_flag_value_is_config_error(self, tmp_path, capsys, flag):
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "toy", "--out", str(wf))
        code = run_cli(
            "simulate", "--workflow", str(wf), "--profile", "frontier-sim",
            "--nodes", "4", *flag, "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_fault_lists_log_as_repeated_flags(self, tmp_path):
        # faults given as one list per flag, one flag per fault, or a mix
        # keep their order and give one log. On the toy's one node, a task
        # fault ends toy-s0-t0 at 85.5 s; at 86 s a transient node fault
        # kills toy-s0-t1, and a persistent one, logged after it, dooms the
        # second stage, placed but not launched yet
        wf = tmp_path / "toy.json"
        assert run_cli("example", "--example", "toy", "--out", str(wf)) == 0
        spellings = [
            ["--fail-node", "0@86:transient", "0@86",
             "--fail-task", "toy-s0-t0@0.05", "toy-s1-t1@0.5"],
            ["--fail-node", "0@86:transient", "--fail-node", "0@86",
             "--fail-task", "toy-s0-t0@0.05", "--fail-task", "toy-s1-t1@0.5"],
            ["--fail-task", "toy-s0-t0@0.05", "--fail-node", "0@86:transient",
             "--fail-task", "toy-s1-t1@0.5", "--fail-node", "0@86"],
        ]
        logs = []
        for i, faults in enumerate(spellings):
            log = tmp_path / f"run{i}.jsonl"
            assert run_cli("simulate", "--workflow", str(wf), "--nodes", "1",
                           *faults, "--out", str(log)) == 1
            logs.append(log.read_bytes())
        assert logs[0] == logs[1] == logs[2]
        log = EventLog.load_jsonl(tmp_path / "run0.jsonl")
        assert [(e.ts, e.detail) for e in log if e.kind == ev.NODE_FAILED] \
            == [(86.0, "transient"), (86.0, "persistent")]
        assert [(e.task_uid, e.ts, e.detail) for e in log
                if e.kind == ev.TASK_FAILED] == [
            ("toy-s0-t0", 85.5, "task_fault"),
            ("toy-s0-t1", 86.0, "node_failure node=0"),
            ("toy-s1-t0", 96.0, "node_failure node=0"),
            ("toy-s1-t1", 96.0, "node_failure node=0"),
        ]

    def test_shared_node_fault_logs_match_golden_hash(self, tmp_path):
        # 2000 1-core tasks share 100 Frontier nodes, 56 to a node; a
        # persistent and a transient fault each kill a node's holders.
        # Hashes recorded before the holder index and the cores-gated
        # first-fit heap replaced the whole-table scans.
        wf = tmp_path / "wf.json"
        log = tmp_path / "run.jsonl"
        assert run_cli("example", "--example", "exaconstit", "--tasks", "2000",
                       "--no-optimizer", "--desk", "--seed", "5",
                       "--out", str(wf)) == 0
        assert run_cli(
            "simulate", "--workflow", str(wf), "--profile", "frontier-sim",
            "--nodes", "100", "--walltime", "21600", "--seed", "5",
            "--runtime", "uniform:600,1244",
            "--fail-node", "17@400:persistent", "--fail-node", "3@700:transient",
            "--max-attempts", "2", "--out", str(log),
        ) == 0
        logs = (log, tmp_path / "run.attempt2.jsonl")
        digests = [
            hashlib.sha256(path.read_bytes()).hexdigest() for path in logs
        ]
        assert digests == [
            "33144971e2bf41dcfeb0436bced69a0de7768534133d04744d14329f7d7f6dcd",
            "a96bb32f06b8b00855f69eabc1b213fa2315eca7a2dc612cd0acf0816a4711ec",
        ]
        # each attempt's exports: tasks share nodes, fail on them and retry.
        # Recorded before the utilization fold became one ordered sweep.
        exports = []
        for path in logs:
            prefix = path.with_suffix("")
            assert run_cli("report", "--log", str(path)) == 0
            exports += [
                hashlib.sha256(
                    Path(f"{prefix}_{name}.csv").read_bytes()
                ).hexdigest()
                for name in ("utilization", "concurrency", "rates")
            ]
        assert exports == [
            "b31709377b819c9d12dc5c67fbd07490c41db280f96ca945e452285f9815e842",
            "1e4e3803da6ada4bc2c653ee4815229488d4d690ff363e1e01e4ed7fa174022c",
            "1ac34d7868cb5715fef9fc67296ec2c1d86095b25458f1ebe98e32aa9889e5ba",
            "17568c224f2fe9a3e9e426d2d33988773e42329096574f551f11e6ff70015505",
            "e20314269f032a68c5937436b17a68cdcb1bba7828e1e966b25eb907ffa72c50",
            "468d554dc425d441d854b09d1d0915f2eebef28bd617593107d798b4a746bdfa",
        ]

    def test_mixed_shape_fault_logs_match_golden_hash(self, tmp_path):
        # three stages, each interleaving 224-rank tasks (4 nodes: 64, 64,
        # 64 and 32 ranks), 1-node GPU tasks (8 ranks of 7 cores + 1 GPU,
        # 8 cores left) and 1-core tasks, which fill the partly used nodes
        # beside the wider chunks and block the next wide task behind them.
        # A persistent and a transient fault fail tasks of every shape.
        # Hashes recorded before the placement record carried its node ids.
        stages = []
        for s in range(3):
            tasks = []
            for i in range(8):
                tasks += [
                    make_task(f"s{s}-wide-{i}", procs=224, expected=3600.0),
                    make_task(f"s{s}-gpu-{i}", procs=8, threads=7, gpus=1,
                              expected=1800.0),
                    *(make_task(f"s{s}-one-{i}-{k}", expected=120.0)
                      for k in range(5)),
                ]
            stages.append(Stage(name=f"mixed-{s}", tasks=tuple(tasks)))
        wf, platform = tmp_path / "wf.json", tmp_path / "platform.json"
        WorkflowSpec(name="mixed", stages=tuple(stages)).save(wf)
        save_platform(
            small_platform(cores=64, reserved=0, gpus=8, nodes=24,
                           max_walltime=50000.0),
            platform,
        )
        log = tmp_path / "run.jsonl"
        assert run_cli(
            "simulate", "--workflow", str(wf), "--platform", str(platform),
            "--nodes", "24", "--walltime", "40000", "--seed", "3",
            "--runtime", "uniform:600,1244",
            "--fail-node", "5@900:persistent", "--fail-node", "13@2000:transient",
            "--max-attempts", "2", "--out", str(log),
        ) == 0
        digests = []
        for path in (log, tmp_path / "run.attempt2.jsonl"):
            prefix = path.with_suffix("")
            assert run_cli("report", "--log", str(path)) == 0
            digests += [
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in [path] + [
                    Path(f"{prefix}_{name}.csv")
                    for name in ("utilization", "concurrency", "rates")
                ]
            ]
        assert digests == [
            "137d478ddbb0daf45a4879380bf931cc88df9ddf5035932438f9255857d7904c",
            "7c8ddc161f9417a1e42e0c6b3d220f442ac21c68cfdb75013ca59f2fea76aa1e",
            "3d673d6070ee084300cab459dbaa19f9779bab5f264c7208546b29e5731b89b4",
            "47993158513e9bf358b753cb2ea22ede3723cf49f7ec42218c572c8cf79abb88",
            "c193a77cea6c2b402d24dbab4b7c7758ab13912a3cfcb843f031c27b6862d0dd",
            "0be29610ec58042be5c4533b03ece4f09f644d5e44979e216692a7d7162785ff",
            "4b27ec67b579bdbb1f75f0ac84eb8d1fee4d66b85d830152476b3e887966527a",
            "d373a7c45a4d8231e5fe9ac043dcae5ff773006089267af6f8b77895c3b7ed38",
        ]

    def test_seeded_runs_reproduce_logs(self, tmp_path, small_platform_file):
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "exaconstit", "--tasks", "5",
                "--no-optimizer", "--out", str(wf))
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            assert run_cli(
                "simulate", "--workflow", str(wf),
                "--platform", str(small_platform_file),
                "--nodes", "8", "--walltime", "20000", "--seed", "7",
                "--runtime", "uniform:100,500", "--out", str(path),
            ) == 0
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]


class TestReport:
    def make_log(self, tmp_path, small_platform_file):
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "exaconstit", "--tasks", "6",
                "--no-optimizer", "--out", str(wf))
        log = tmp_path / "run.jsonl"
        assert run_cli(
            "simulate", "--workflow", str(wf),
            "--platform", str(small_platform_file),
            "--nodes", "8", "--walltime", "20000",
            "--runtime", "uniform:600,1244", "--out", str(log),
        ) == 0
        return log

    def test_writes_three_exports_with_identity(self, tmp_path,
                                                small_platform_file):
        log = self.make_log(tmp_path, small_platform_file)
        prefix = tmp_path / "report"
        assert run_cli("report", "--log", str(log), "--out", str(prefix)) == 0
        util = (tmp_path / "report_utilization.csv").read_text().splitlines()
        assert util[0].startswith("unit,capacity_s")
        import csv

        with open(tmp_path / "report_utilization.csv") as f:
            for row in csv.DictReader(f):
                total = (
                    float(row["ovh_s"]) + float(row["busy_s"])
                    + float(row["idle_s"])
                )
                assert total == pytest.approx(float(row["capacity_s"]), rel=1e-9)
        assert (tmp_path / "report_concurrency.csv").exists()
        assert (tmp_path / "report_rates.csv").exists()

    def test_report_twice_byte_identical(self, tmp_path, small_platform_file):
        log = self.make_log(tmp_path, small_platform_file)
        outs = []
        for prefix in ("r1", "r2"):
            assert run_cli("report", "--log", str(log), "--out",
                           str(tmp_path / prefix)) == 0
            outs.append(
                (tmp_path / f"{prefix}_utilization.csv").read_bytes()
                + (tmp_path / f"{prefix}_concurrency.csv").read_bytes()
                + (tmp_path / f"{prefix}_rates.csv").read_bytes()
            )
        assert outs[0] == outs[1]

    def test_truncated_log_exit_1(self, tmp_path, small_platform_file, capsys):
        log = self.make_log(tmp_path, small_platform_file)
        lines = log.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        assert run_cli("report", "--log", str(truncated)) == 1
        assert "IncompleteLog" in capsys.readouterr().err

    def test_a_task_run_on_other_nodes_exit_1(self, tmp_path,
                                              small_platform_file, capsys):
        # the first task's launch and terminal event name a node it was
        # not scheduled on
        log = self.make_log(tmp_path, small_platform_file)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        uid = next(r["task_uid"] for r in records
                   if r["kind"] == ev.TASK_SCHEDULED)
        for r in records:
            if r["task_uid"] == uid and r["kind"] != ev.TASK_SCHEDULED:
                r["node_ids"] = [n + 1 for n in r["node_ids"]]
        moved = tmp_path / "moved.jsonl"
        moved.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert run_cli("report", "--log", str(moved)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: MalformedLog: {moved}:")
        assert "it was scheduled on" in err
        assert not list(tmp_path.glob("moved_*"))

    def test_missing_log_exit_2(self, tmp_path):
        assert run_cli("report", "--log", str(tmp_path / "absent.jsonl")) == 2

    @pytest.mark.parametrize(
        "line",
        [
            '{"ts":0}',
            "[1,2]",
            '{"ts":"x","kind":"JOB_START"}',
            '{"ts":NaN,"kind":"JOB_START"}',
            '{"ts":0,"kind":"BOGUS"}',
            '{"ts":0,"kind":"JOB_START","node_ids":5}',
            '{"ts":0,"kind":"TASK_SCHEDULED","task_uid":["a"]}',
            '{"ts":0,"kind":"TASK_SCHEDULED","task_uid":"a","node_ids":["x"]}',
            '{"ts":0,"kind":"TASK_SCHEDULED","task_uid":"a","node_ids":[true]}',
            '{"ts":0,"kind":"TASK_SCHEDULED","task_uid":"a","node_ids":[-1]}',
            '{"ts":0,"kind":"JOB_START","detail":5}',
            # unhashable fields, which the reader cannot share
            '{"ts":0,"kind":["TASK_DONE"]}',
            '{"ts":0,"kind":"TASK_SCHEDULED","task_uid":{"a":1}}',
            '{"ts":0,"kind":"JOB_START","node_ids":[[1]]}',
            '{"ts":0,"kind":"JOB_START","detail":{"a":1}}',
            pytest.param('{"ts":1' + "0" * 400 + ',"kind":"JOB_START"}',
                         id="ts-int-beyond-float-range"),
            pytest.param('{"ts":1' + "0" * 5000 + ',"kind":"JOB_START"}',
                         id="ts-int-beyond-int-digit-limit"),
            pytest.param("[" * 100000, id="nesting-beyond-recursion-limit"),
            # a task event off its lifecycle, or naming no task, and another
            # kind naming a task
            '{"ts":0,"kind":"TASK_LAUNCHED","task_uid":"a"}',
            '{"ts":0,"kind":"TASK_CANCELED"}',
            '{"ts":0,"kind":"JOB_START","task_uid":"a"}',
            # run metadata naming an invalid node shape and allocation size
            '{"ts":0,"kind":"JOB_START","detail":"{\\"cores_total\\":2,'
            '\\"cores_reserved\\":2,\\"allocation_nodes\\":\\"x\\"}"}',
        ],
    )
    def test_malformed_line_exit_1(self, tmp_path, capsys, line):
        log = tmp_path / "bad.jsonl"
        log.write_text(line + "\n")
        wf = tmp_path / "wf.json"
        assert run_cli("example", "--example", "toy", "--out", str(wf)) == 0
        capsys.readouterr()
        for argv in (
            ("report", "--log", str(log)),
            ("resubmit", "--log", str(log), "--workflow", str(wf),
             "--out", str(tmp_path / "plan.json")),
        ):
            assert run_cli(*argv) == 1
            err = capsys.readouterr().err
            assert "MalformedLog" in err
            assert "Traceback" not in err


    def edit_line(self, log, kind, edit):
        """Apply ``edit`` to the record of the first line of ``kind``."""
        lines = log.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if f'"{kind}"' in line)
        rec = json.loads(lines[i])
        edit(rec)
        lines[i] = json.dumps(rec)
        log.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "kind,detail",
        [
            (ev.TASK_SCHEDULED, '{"threads":7,"gpus_pp":1,"chunks":5}'),
            (ev.TASK_SCHEDULED, '{"threads":"x","gpus_pp":1,"chunks":[8]}'),
            (ev.TASK_SCHEDULED, '{"threads":7,"gpus_pp":-1,"chunks":[8]}'),
            (ev.TASK_SCHEDULED, '{"threads":7,"gpus_pp":1,"chunks":[8,0]}'),
            (ev.TASK_SCHEDULED, "5"),
            (ev.JOB_START, '{"cores_total":64,"allocation_nodes":0}'),
            (ev.JOB_START, '{"cores_total":64,"allocation_nodes":Infinity}'),
            # run metadata is read as written: no number is coerced
            *[
                pytest.param(
                    ev.JOB_START, json.dumps(dict(_SMALL_META, **edit)),
                    id="-".join(f"{k}={v!r}" for k, v in edit.items()),
                )
                for edit in (
                    {"allocation_nodes": True},
                    {"allocation_nodes": "2"},
                    {"allocation_nodes": 2.7},
                    # with no reserved cores, so 8 would be a valid shape
                    {"cores_total": 8.9, "cores_reserved": 0},
                    {"cores_total": "8", "cores_reserved": 0},
                    {"gpus_per_node": 2.5},
                )
            ],
            pytest.param(
                ev.TASK_SCHEDULED,
                json.dumps({"threads": 10**200, "gpus_pp": 1,
                            "chunks": [10**200]}),
                id="widths-beyond-float-range",
            ),
            pytest.param(
                ev.TASK_SCHEDULED,
                '{"threads":1' + "0" * 5000 + ',"gpus_pp":1,"chunks":[8]}',
                id="widths-beyond-int-digit-limit",
            ),
            pytest.param(
                ev.JOB_START,
                '{"cores_total":1' + "0" * 400 + ',"allocation_nodes":8}',
                id="cores-beyond-float-range",
            ),
            pytest.param(
                ev.JOB_START,
                '{"cores_total":1' + "0" * 5000 + ',"allocation_nodes":8}',
                id="cores-beyond-int-digit-limit",
            ),
            pytest.param(ev.JOB_START, "[" * 100000,
                         id="metadata-nesting-beyond-recursion-limit"),
            pytest.param(
                ev.JOB_START,
                '{"cores_total":64,"gpus_per_node":1' + "0" * 400
                + ',"allocation_nodes":8}',
                id="gpus-beyond-float-range",
            ),
        ],
    )
    def test_bad_detail_exit_1(self, tmp_path, small_platform_file, capsys,
                               kind, detail):
        log = self.make_log(tmp_path, small_platform_file)
        self.edit_line(log, kind, lambda rec: rec.update(detail=detail))
        capsys.readouterr()
        assert run_cli("report", "--log", str(log)) == 1
        err = capsys.readouterr().err
        assert "error: MalformedLog:" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("run_*"))

    @pytest.mark.parametrize(
        "tasks,match",
        [
            # two tasks each take all 8 cores of node 0 at once
            ([("a", [0], [1], 0, 10), ("b", [0], [1], 0, 10)],
             "more cores or GPUs of node 0 than are free"),
            ([("a", [0, 5, 6], [1, 1, 1], 0, 10)],
             "node 5 is outside the allocation"),
            ([("a", [0], [1, 1, 1], 0, 10)], "3 chunks on 1 nodes"),
            ([("a", [0], [1], None, None)],
             "1 tasks still scheduled or running at JOB_END"),
            ([("a", [0], [1], 0, None)],
             "1 tasks still scheduled or running at JOB_END"),
        ],
        ids=["over-reserved", "node-outside-allocation", "chunks-not-per-node",
             "scheduled-at-job-end", "running-at-job-end"],
    )
    def test_impossible_reservation_exit_1(self, tmp_path, capsys, tasks,
                                           match):
        # 1 node of 8 cores; each task is (uid, node_ids, chunks, launch ts,
        # terminal ts) of 8 threads per rank, scheduled at ts 0; JOB_END at
        # ts 10
        meta = dict(_SMALL_META, allocation_nodes=1, cores_total=8,
                    cores_reserved=0, gpus_per_node=0)
        records = [
            {"ts": 0, "kind": ev.JOB_START, "detail": json.dumps(meta)},
            {"ts": 0, "kind": ev.BOOTSTRAP_DONE},
        ]
        rows = []
        for uid, node_ids, chunks, launch, term in tasks:
            rows.append({"ts": 0, "kind": ev.TASK_SCHEDULED, "task_uid": uid,
                         "node_ids": node_ids,
                         "detail": scheduled_detail(8, 0, chunks)})
            if launch is not None:
                rows.append({"ts": launch, "kind": ev.TASK_LAUNCHED,
                             "task_uid": uid})
            if term is not None:
                rows.append({"ts": term, "kind": ev.TASK_DONE,
                             "task_uid": uid})
        records += sorted(rows, key=lambda r: r["ts"])
        records.append({"ts": 10, "kind": ev.JOB_END})
        log = tmp_path / "bad.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run_cli("report", "--log", str(log)) == 1
        err = capsys.readouterr().err
        assert "error: MalformedLog:" in err
        assert match in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("bad_*"))

    @pytest.mark.parametrize(
        "tasks,message",
        [
            # (1, 2) first takes 4 cores of node 1 and all 8 of node 2; its
            # second use wants 4 more of each
            ([("a", [1, 2], [1, 2]), ("b", [1, 2], [1, 1])],
             "task b: takes more cores or GPUs of node 2 than are free"),
            # (1, 1) takes node 1 whole; so does its second use
            ([("a", [1, 1], [1, 1]), ("b", [1, 1], [1, 1])],
             "task b: takes more cores or GPUs of node 1 than are free"),
            # the first use of (1, 5) names node 5 of 4
            ([("a", [0], [2]), ("b", [1, 5], [1, 1])],
             "task b: node 5 is outside the allocation"),
            # node 0 is full before the first use of (0, 9) names node 9
            ([("a", [0], [2]), ("b", [0, 9], [1, 1])],
             "task b: takes more cores or GPUs of node 0 than are free"),
        ],
        ids=["second-use-over-reserves", "repeated-node-over-reserves",
             "first-use-outside", "full-node-before-outside"],
    )
    def test_node_ids_used_again_are_checked_again_exit_1(self, tmp_path,
                                                          capsys, tasks,
                                                          message):
        # 4 nodes of 8 cores; each task is (uid, node_ids, chunks) of 4
        # threads per rank, scheduled at ts 0 and canceled at JOB_END
        meta = dict(_SMALL_META, allocation_nodes=4, cores_total=8,
                    cores_reserved=0, gpus_per_node=0)
        records = [
            {"ts": 0, "kind": ev.JOB_START, "detail": json.dumps(meta)},
            {"ts": 0, "kind": ev.BOOTSTRAP_DONE},
        ]
        for uid, node_ids, chunks in tasks:
            records.append({"ts": 0, "kind": ev.TASK_SCHEDULED,
                            "task_uid": uid, "node_ids": node_ids,
                            "detail": scheduled_detail(4, 0, chunks)})
        records += [{"ts": 10, "kind": ev.TASK_CANCELED, "task_uid": uid}
                    for uid, _, _ in tasks]
        records.append({"ts": 10, "kind": ev.JOB_END})
        log = tmp_path / "bad.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run_cli("report", "--log", str(log)) == 1
        assert capsys.readouterr().err == f"error: MalformedLog: {message}\n"
        assert not list(tmp_path.glob("bad_*"))

    @pytest.mark.parametrize(
        "records,match",
        [
            # the task runs after the job ended: busy past capacity
            ([(0, ev.BOOTSTRAP_DONE), (1, ev.JOB_END),
              (1, ev.TASK_SCHEDULED), (1, ev.TASK_LAUNCHED),
              (100, ev.TASK_DONE)],
             "TASK_SCHEDULED event after JOB_END"),
            # the task runs during the bootstrap: counted as ovh and busy
            ([(0, ev.TASK_SCHEDULED), (0, ev.TASK_LAUNCHED),
              (10, ev.TASK_DONE), (10, ev.BOOTSTRAP_DONE), (10, ev.JOB_END)],
             "scheduled at 0.0, before BOOTSTRAP_DONE at 10.0"),
        ],
        ids=["after-job-end", "before-bootstrap"],
    )
    def test_task_outside_the_job_exit_1(self, tmp_path, capsys, records,
                                         match):
        # 1 node of 8 cores and one 8-core task
        meta = dict(_SMALL_META, allocation_nodes=1, cores_total=8,
                    cores_reserved=0, gpus_per_node=0)
        lines = [{"ts": 0, "kind": ev.JOB_START, "detail": json.dumps(meta)}]
        for ts, kind in records:
            rec = {"ts": ts, "kind": kind}
            if kind.startswith("TASK_"):
                rec.update(task_uid="a", node_ids=[0])
            if kind == ev.TASK_SCHEDULED:
                rec["detail"] = scheduled_detail(8, 0, [1])
            lines.append(rec)
        log = tmp_path / "bad.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in lines))
        assert run_cli("report", "--log", str(log)) == 1
        err = capsys.readouterr().err
        assert "error: MalformedLog:" in err
        assert match in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("bad_*"))

    def test_non_finite_accounting_exit_1(self, tmp_path, capsys):
        # finite timestamps whose capacity product leaves the float range
        meta = dict(_META, allocation_nodes=2)
        records = [
            {"ts": 0.0, "kind": ev.JOB_START, "detail": json.dumps(meta)},
            {"ts": 1e308, "kind": ev.BOOTSTRAP_DONE},
            {"ts": 1.5e308, "kind": ev.JOB_END},
        ]
        log = tmp_path / "huge.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run_cli("report", "--log", str(log)) == 1
        err = capsys.readouterr().err
        assert "error: MalformedLog:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "huge_utilization.csv").exists()

    def test_binary_log_exit_1(self, tmp_path, capsys):
        log = tmp_path / "binary.jsonl"
        log.write_bytes(bytes(range(256)))
        assert run_cli("report", "--log", str(log)) == 1
        err = capsys.readouterr().err
        assert f"error: MalformedLog: {log}:1: " in err
        assert "Traceback" not in err

    def test_data_after_a_line_s_object_exit_1(self, tmp_path, capsys):
        lines = [json.dumps(r) for r in _VALID_LOG]
        lines[2] += " {}"
        log = tmp_path / "run.jsonl"
        log.write_text("".join(line + "\n" for line in lines))
        assert run_cli("report", "--log", str(log)) == 1
        err = capsys.readouterr().err
        assert f"error: MalformedLog: {log}:3: not a JSON event line: " \
            "Extra data" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("run_*"))

    def test_blank_lines_are_skipped(self, tmp_path, small_platform_file):
        log = self.make_log(tmp_path, small_platform_file)
        lines = log.read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("\n" + "".join(lines[:3]) + " \t\n"
                          + "".join(lines[3:]) + "\n")
        exports = []
        for path, prefix in ((log, "a"), (spaced, "b")):
            assert run_cli("report", "--log", str(path),
                           "--out", str(tmp_path / prefix)) == 0
            exports.append([
                (tmp_path / f"{prefix}_{name}.csv").read_bytes()
                for name in ("utilization", "concurrency", "rates")
            ])
        assert exports[0] == exports[1]

    def test_negative_bootstrap_metadata_is_not_read(self, tmp_path,
                                                     small_platform_file):
        # ovh comes from BOOTSTRAP_DONE; JOB_START's bootstrap_s is unread
        log = self.make_log(tmp_path, small_platform_file)
        edited = tmp_path / "edited.jsonl"
        edited.write_text(log.read_text())

        def negative_bootstrap(rec):
            meta = json.loads(rec["detail"])
            meta["bootstrap_s"] = -1
            rec["detail"] = json.dumps(meta)

        self.edit_line(edited, ev.JOB_START, negative_bootstrap)
        exports = []
        for path, prefix in ((log, "a"), (edited, "b")):
            assert run_cli("report", "--log", str(path),
                           "--out", str(tmp_path / prefix)) == 0
            exports.append([
                (tmp_path / f"{prefix}_{name}.csv").read_bytes()
                for name in ("utilization", "concurrency", "rates")
            ])
        assert exports[0] == exports[1]


# A complete one-task log; the property below breaks one field of it.
_META = {
    "backend": "sim", "platform": "test", "allocation_nodes": 2,
    "cores_total": 8, "cores_reserved": 0, "gpus_per_node": 2,
    "bootstrap_s": 1.0, "walltime_s": 100.0,
}
_VALID_LOG = [
    {"ts": 0.0, "kind": ev.JOB_START, "task_uid": None, "node_ids": None,
     "detail": json.dumps(_META)},
    {"ts": 1.0, "kind": ev.BOOTSTRAP_DONE, "task_uid": None, "node_ids": None,
     "detail": ""},
    {"ts": 1.0, "kind": ev.TASK_SCHEDULED, "task_uid": "t",
     "node_ids": [0, 1], "detail": scheduled_detail(2, 1, [2, 2])},
    {"ts": 2.0, "kind": ev.TASK_LAUNCHED, "task_uid": "t",
     "node_ids": [0, 1], "detail": ""},
    {"ts": 10.0, "kind": ev.TASK_DONE, "task_uid": "t", "node_ids": [0, 1],
     "detail": ""},
    {"ts": 12.0, "kind": ev.JOB_END, "task_uid": None, "node_ids": None,
     "detail": ""},
]
# (line, field) or (line, "detail", key inside the JSON detail)
_FIELDS = (
    [(i, f) for i in range(len(_VALID_LOG))
     for f in ("ts", "kind", "task_uid", "node_ids", "detail")]
    + [(0, "detail", key) for key in _META]
    + [(2, "detail", key) for key in ("threads", "gpus_pp", "chunks")]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(sorted(ev.KINDS)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@given(field=st.sampled_from(_FIELDS), value=_JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_report_on_one_broken_field_exits_0_or_1(field, value):
    records = json.loads(json.dumps(_VALID_LOG))
    rec = records[field[0]]
    if len(field) == 2:
        rec[field[1]] = value
    else:
        doc = json.loads(rec["detail"])
        doc[field[2]] = value
        rec["detail"] = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "run.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["report", "--log", str(log),
                         "--out", str(Path(tmp) / "r")])
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _shared_node_log() -> list[dict]:
    """The records of a simulated log in which 1- to 3-rank tasks of 1 or 2
    threads, some with a GPU, share 3 nodes of 4 cores and 2 GPUs."""
    rng = random.Random(0)
    tasks = [
        make_task(f"t{i}", procs=rng.randint(1, 3), threads=rng.randint(1, 2),
                  gpus=rng.randint(0, 1))
        for i in range(8)
    ]
    log = run_simulated(
        single_stage("s", tasks), small_platform(cores=4, gpus=2, nodes=3),
        3, 1000.0, RuntimeModel("uniform", 1.0, 10.0, seed=0),
    )
    return [event._asdict() for event in log]


_SHARED_NODE_LOG = _shared_node_log()
_SCHEDULED = [
    i for i, rec in enumerate(_SHARED_NODE_LOG)
    if rec["kind"] == ev.TASK_SCHEDULED
]


@given(
    line=st.sampled_from(_SCHEDULED),
    node_ids=st.none() | st.lists(st.integers(0, 4), max_size=4),
    widths=st.fixed_dictionaries({}, optional={
        "threads": st.integers(0, 5),
        "gpus_pp": st.integers(0, 3),
        "chunks": st.lists(st.integers(0, 5), max_size=4),
    }),
)
@settings(max_examples=100, deadline=None)
def test_report_on_one_edited_reservation_stays_in_bounds(line, node_ids,
                                                          widths):
    # a TASK_SCHEDULED given other node ids, chunks or widths is rejected,
    # or every unit accounts busy within capacity and leaves idle >= 0
    records = json.loads(json.dumps(_SHARED_NODE_LOG))
    rec = records[line]
    if node_ids is not None:
        rec["node_ids"] = node_ids
    rec["detail"] = json.dumps(dict(json.loads(rec["detail"]), **widths))
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "run.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["report", "--log", str(log), "--format", "json"])
        if code == 1:
            assert "error: MalformedLog:" in err.getvalue()
            assert not list(Path(tmp).glob("run_*"))
            return
        assert code == 0, err.getvalue()
        stack = json.loads((Path(tmp) / "run_utilization.json").read_text())
    for unit in stack.values():
        assert 0 <= unit["busy_s"] <= unit["capacity_s"], unit
        assert unit["idle_s"] >= 0, unit


# A valid one-task workflow and a small platform; the properties below
# replace one field of either.
_WORKFLOW = {
    "name": "w",
    "stages": [{"name": "s", "tasks": [{
        "uid": "t", "executable": "/bin/true", "arguments": ["-c"],
        "pre_exec": [], "cpu_processes": 1, "cpu_threads_per_process": 1,
        "gpus_per_process": 0, "expected_runtime_s": 10.0, "tags": {},
    }]}],
}
_PLATFORM = {
    "name": "p", "node": {"cores_total": 8, "cores_reserved": 0, "gpus": 2},
    "node_count": 4, "bootstrap_overhead_s": 1.0,
    "policy": {"tiers": [[4, 3600.0]]},
}
_TASK = ("stages", 0, "tasks", 0)
_WORKFLOW_FIELDS = (
    [("name",), ("stages",), ("stages", 0), ("stages", 0, "name"),
     ("stages", 0, "tasks"), _TASK]
    + [_TASK + (key,) for key in _WORKFLOW["stages"][0]["tasks"][0]]
)
_PLATFORM_FIELDS = (
    [("name",), ("node",), ("node_count",), ("bootstrap_overhead_s",),
     ("policy",), ("policy", "tiers"), ("policy", "tiers", 0),
     ("policy", "tiers", 0, 0), ("policy", "tiers", 0, 1)]
    + [("node", key) for key in _PLATFORM["node"]]
)


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _simulate_then_report(workflow, platform, *flags):
    """Run simulate on the two documents in-process: it exits 0 or 2 with
    no traceback, writes no log on 2, and on 0 writes one report reads."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        wf, plat, log = tmp / "wf.json", tmp / "p.json", tmp / "run.jsonl"
        wf.write_text(json.dumps(workflow))
        plat.write_text(json.dumps(platform))
        for argv, codes in (
            (["simulate", "--workflow", str(wf), "--platform", str(plat),
              *flags, "--out", str(log)], (0, 2)),
            (["report", "--log", str(log), "--out", str(tmp / "r")], (0,)),
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in codes, err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert not log.exists()
                return


@given(field=st.sampled_from(_WORKFLOW_FIELDS), value=_JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_simulate_on_one_broken_workflow_field(field, value):
    doc = json.loads(json.dumps(_WORKFLOW))
    _put(doc, field, value)
    _simulate_then_report(doc, _PLATFORM, "--nodes", "2", "--walltime", "3600")


@given(field=st.sampled_from(_PLATFORM_FIELDS), value=_JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_simulate_on_one_broken_platform_field(field, value):
    doc = json.loads(json.dumps(_PLATFORM))
    _put(doc, field, value)
    _simulate_then_report(_WORKFLOW, doc, "--nodes", "2")


def _rename(doc, path, new_key):
    """A copy of ``doc`` with the key at ``path`` renamed ``new_key``."""
    doc = json.loads(json.dumps(doc))
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[new_key] = section.pop(path[-1])
    return doc


def _simulate_rejects(workflow, platform, capsys, tmp_path) -> str:
    """simulate's stderr on the two documents, which it rejects with exit 2
    and no log."""
    wf, plat, log = (tmp_path / "wf.json", tmp_path / "p.json",
                     tmp_path / "run.jsonl")
    wf.write_text(json.dumps(workflow))
    plat.write_text(json.dumps(platform))
    assert run_cli("simulate", "--workflow", str(wf), "--platform", str(plat),
                   "--nodes", "2", "--walltime", "3600",
                   "--out", str(log)) == 2
    assert not log.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "path, typo",
    [
        (_TASK + ("cpu_processes",), "cpu_proceses"),
        (("stages", 0, "tasks"), "taks"),
        (("name",), "nmae"),
    ],
    ids=["task", "stage", "workflow"],
)
def test_a_misspelled_workflow_field_exits_2_naming_it(path, typo, capsys,
                                                       tmp_path):
    err = _simulate_rejects(_rename(_WORKFLOW, path, typo), _PLATFORM,
                            capsys, tmp_path)
    assert "error: ParseError:" in err and repr(typo) in err


@pytest.mark.parametrize(
    "path, typo",
    [
        (("node", "cores_reserved"), "cores_reserverd"),
        (("policy", "tiers"), "tier"),
        (("bootstrap_overhead_s",), "bootstrap_overhead"),
    ],
    ids=["node", "policy", "platform"],
)
def test_a_misspelled_platform_field_exits_2_naming_it(path, typo, capsys,
                                                       tmp_path):
    err = _simulate_rejects(_WORKFLOW, _rename(_PLATFORM, path, typo),
                            capsys, tmp_path)
    assert "error: ValidationError:" in err and repr(typo) in err


@pytest.mark.parametrize("line", range(len(_VALID_LOG)))
@pytest.mark.parametrize("drop", [None, "detail"], ids=["full", "no-detail"])
def test_report_on_a_line_with_an_extra_key_exits_1(line, drop, capsys,
                                                    tmp_path):
    records = json.loads(json.dumps(_VALID_LOG))
    records[line]["extra"] = 0
    records[line].pop(drop, None)
    log = tmp_path / "run.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run_cli("report", "--log", str(log)) == 1
    err = capsys.readouterr().err
    assert f"error: MalformedLog: {log}:{line + 1}: " in err
    assert "'extra'" in err
    assert not list(tmp_path.glob("run_*"))


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "--log", "{dir}"),
        ("simulate", "--workflow", "{wf}", "--nodes", "4", "--out", "{dir}"),
        ("run", "--workflow", "{wf}", "--out", "{file}"),
        ("example", "--example", "toy", "--out", "{dir}"),
        ("resubmit", "--workflow", "{wf}", "--log", "{log}", "--out", "{dir}"),
        pytest.param(
            ("simulate", "--workflow", "{wf}", "--nodes", "4",
             "--out", "{dir}/gone/run.jsonl"),
            id="simulate-missing-parent",
        ),
        pytest.param(
            ("simulate", "--workflow", "{wf}", "--nodes", "4",
             "--out", "{file}/run.jsonl"),
            id="simulate-file-parent",
        ),
        # a retry's log path is a directory, and its attempt may run
        pytest.param(
            ("simulate", "--workflow", "{wf}", "--nodes", "4",
             "--max-attempts", "2", "--out", "{dir}/run.jsonl"),
            id="simulate-retry-path",
        ),
        pytest.param(
            ("simulate", "--workflow", "{wf}", "--nodes", "4",
             "--max-attempts", str(10**30), "--out", "{dir}/run.jsonl"),
            id="simulate-retry-path-of-many-attempts",
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_path_of_the_wrong_kind_exits_2(tmp_path, capsys, monkeypatch, argv):
    # a directory where a file is wanted, or a file where a directory is
    wf, log = tmp_path / "wf.json", tmp_path / "run.jsonl"
    run_cli("example", "--example", "toy", "--out", str(wf))
    run_cli("simulate", "--workflow", str(wf), "--nodes", "4",
            "--fail-task", "toy-s0-t0@0.5", "--out", str(log))
    (tmp_path / "d" / "run.attempt2.jsonl").mkdir(parents=True)
    (tmp_path / "f").write_text("")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()

    def simulated(*args, **kwargs):
        pytest.fail("simulate ran before it checked --out")

    monkeypatch.setattr(cli, "run_simulated", simulated)
    paths = {"dir": tmp_path / "d", "file": tmp_path / "f", "wf": wf,
             "log": log}
    assert run_cli(*(a.format(**paths) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before  # no log, no output
    if argv[0] == "simulate":
        assert err.startswith(f"error: {_OPEN_ERROR[argv[-1]]}: ")


@pytest.mark.parametrize(
    "directory",
    ["run.attempt1.jsonl", "run.attempt3.jsonl", "run.attempt02.jsonl",
     "run.attempt2.json"],
)
def test_directory_no_attempt_writes_to_leaves_simulate_alone(tmp_path,
                                                              directory):
    wf = tmp_path / "wf.json"
    run_cli("example", "--example", "exaconstit", "--tasks", "4",
            "--no-optimizer", "--out", str(wf))
    (tmp_path / directory).mkdir()
    # the fault fails one member, so attempt 2 runs
    assert run_cli(
        "simulate", "--workflow", str(wf), "--profile", "frontier-sim",
        "--nodes", "16", "--runtime", "fixed:1000", "--fail-node", "2@700",
        "--max-attempts", "2", "--out", str(tmp_path / "run.jsonl"),
    ) == 0
    assert (tmp_path / "run.attempt2.jsonl").is_file()


# the OSError that opening each wrong --out path for writing raises
_OPEN_ERROR = {
    "{dir}": "IsADirectoryError",
    "{dir}/gone/run.jsonl": "FileNotFoundError",
    "{file}/run.jsonl": "NotADirectoryError",
    "{dir}/run.jsonl": "IsADirectoryError",
}


@contextlib.contextmanager
def _chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


# Valid command lines for the argv property below, one value after each
# flag; {…} names a file of the example's own directory. run is left out
# because it spawns processes.
_ARGV = {
    "simulate": [
        "simulate", "--workflow", "{wf}", "--platform", "{platform}",
        "--profile", "frontier-sim", "--nodes", "2", "--walltime", "3600",
        "--seed", "0", "--runtime", "uniform:1,20", "--fail-node", "0@5",
        "--fail-task", "t@0.5", "--launch-rate-cap", "10",
        "--launch-delay", "0.5", "--max-attempts", "2", "--out", "{out}",
    ],
    "report": ["report", "--log", "{log}", "--out", "{out}", "--format", "csv"],
    "resubmit": [
        "resubmit", "--workflow", "{wf}", "--platform", "{platform}",
        "--log", "{log}", "--attempt", "2", "--out", "{out}",
    ],
    "example": [
        "example", "--example", "uq-stage1", "--cases", "2",
        "--uq-params", "2", "--sleep", "0", "--seed", "0", "--out", "{out}",
    ],
}
# a drawn value: (name of an existing file or directory, "") or ("", text).
# Text holds no NUL, which no argv string can, no lone surrogate, which no
# decoded argv string holds outside the surrogateescape range, and no "/",
# so that every path it names lies in the example's directory.
_ARGV_VALUES = st.one_of(
    st.text(
        st.characters(blacklist_categories=("Cs",),
                      blacklist_characters="\x00/"),
        max_size=12,
    ).map(lambda text: ("", text)),
    st.one_of(
        st.integers(-3, 100),
        st.sampled_from([2**31, 2**53, 2**53 + 1, 2**63, 10**30]),
        st.floats(),
    ).map(lambda n: ("", str(n))),
    st.sampled_from(["wf", "platform", "log", "dir", "tmp"]).map(
        lambda name: (name, "")
    ),
)


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    """The property's input files: a workflow, a platform and the log of a
    run of them in which task t failed."""
    tmp = tmp_path_factory.mktemp("argv")
    files = {"wf": tmp / "wf.json", "platform": tmp / "p.json",
             "log": tmp / "run.jsonl"}
    files["wf"].write_text(json.dumps(_WORKFLOW))
    files["platform"].write_text(json.dumps(_PLATFORM))
    with contextlib.redirect_stdout(io.StringIO()):
        main(["simulate", "--workflow", str(files["wf"]),
              "--platform", str(files["platform"]), "--nodes", "2",
              "--fail-task", "t@0.5", "--out", str(files["log"])])
    return {name: path.read_bytes() for name, path in files.items()}


@given(command=st.sampled_from(sorted(_ARGV)), data=st.data(),
       value=_ARGV_VALUES)
@settings(max_examples=150, deadline=None)
def test_one_replaced_flag_value_exits_0_1_or_2(argv_inputs, command, data,
                                                value):
    template = _ARGV[command]
    at = data.draw(st.sampled_from(range(2, len(template), 2)))
    with tempfile.TemporaryDirectory() as tmp, _chdir(tmp):
        tmp = Path(tmp)
        paths = {"wf": tmp / "wf.json", "platform": tmp / "p.json",
                 "log": tmp / "run.jsonl", "dir": tmp / "d", "tmp": tmp,
                 "out": tmp / "out"}
        for name, content in argv_inputs.items():
            paths[name].write_bytes(content)
        paths["dir"].mkdir()
        argv = [a.format(**paths) for a in template]
        name, text = value
        argv[at] = str(paths[name]) if name else text
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejects the value
                code = e.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "flags",
    [("--attempt", "1"), ("--attempt", "0"), ("--attempt", "-3"),
     ("--nodes", "100000")],
    ids=["attempt-1", "attempt-0", "attempt-negative", "nodes"],
)
def test_resubmit_rejects_an_early_attempt_and_a_nodes_flag(argv_inputs,
                                                            flags, tmp_path,
                                                            capsys):
    # the allocation comes from the log's JOB_START alone, and attempt 1
    # is the run that wrote the log
    for name, content in argv_inputs.items():
        (tmp_path / name).write_bytes(content)
    plan = tmp_path / "plan.json"
    argv = ["resubmit", "--workflow", str(tmp_path / "wf"), "--platform",
            str(tmp_path / "platform"), "--log", str(tmp_path / "log"),
            *flags, "--out", str(plan)]
    try:
        code = run_cli(*argv)
    except SystemExit as e:  # argparse rejects an unknown flag
        code = e.code
    assert code == 2
    if flags[0] == "--attempt":
        assert (f"error: ConfigError: --attempt must be >= 2, not "
                f"{flags[1]}") in capsys.readouterr().err
    assert not plan.exists()


class TestResubmitComposition:
    def test_simulate_resubmit_simulate(self, tmp_path, small_platform_file,
                                        capsys):
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "exaconstit", "--tasks", "6",
                "--no-optimizer", "--out", str(wf))
        log = tmp_path / "run.jsonl"
        assert run_cli(
            "simulate", "--workflow", str(wf),
            "--platform", str(small_platform_file),
            "--nodes", "8", "--walltime", "20000",
            "--runtime", "fixed:500", "--fail-node", "2@600",
            "--out", str(log),
        ) == 1  # unresolved failures, single attempt
        plan = tmp_path / "plan.json"
        assert run_cli(
            "resubmit", "--log", str(log), "--workflow", str(wf),
            "--platform", str(small_platform_file), "--out", str(plan),
        ) == 0
        sidecar = json.loads((tmp_path / "plan.json.meta.json").read_text())
        assert sidecar["attempt"] == 2
        assert sidecar["allocation"]["nodes"] >= 1
        retry_log = tmp_path / "retry.jsonl"
        assert run_cli(
            "simulate", "--workflow", str(plan),
            "--platform", str(small_platform_file),
            "--nodes", str(sidecar["allocation"]["nodes"]),
            "--walltime", "20000", "--runtime", "fixed:500",
            "--out", str(retry_log),
        ) == 0
        retried = EventLog.load_jsonl(retry_log)
        assert all(
            e.kind != ev.TASK_FAILED for e in retried
        )

    def test_clean_log_nothing_to_resubmit(self, tmp_path, small_platform_file,
                                           capsys):
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "toy", "--out", str(wf))
        log = tmp_path / "run.jsonl"
        assert run_cli(
            "simulate", "--workflow", str(wf),
            "--platform", str(small_platform_file),
            "--nodes", "4", "--walltime", "20000",
            "--out", str(log),
        ) == 0
        assert run_cli(
            "resubmit", "--log", str(log), "--workflow", str(wf),
            "--platform", str(small_platform_file),
            "--out", str(tmp_path / "plan.json"),
        ) == 0
        assert "nothing to resubmit" in capsys.readouterr().out
        assert not (tmp_path / "plan.json").exists()


    def fault_log(self, tmp_path, platform_file):
        """A 12-member log in which a persistent node fault fails 11."""
        wf, log = tmp_path / "wf.json", tmp_path / "run.jsonl"
        run_cli("example", "--example", "exaconstit", "--tasks", "12",
                "--no-optimizer", "--out", str(wf))
        assert run_cli(
            "simulate", "--workflow", str(wf),
            "--platform", str(platform_file),
            "--nodes", "8", "--walltime", "20000",
            "--runtime", "fixed:500", "--fail-node", "2@600",
            "--out", str(log),
        ) == 1
        return wf, log

    def test_task_with_no_terminal_event_exits_1(self, tmp_path,
                                                 small_platform_file, capsys):
        # one TASK_FAILED line deleted: the task is open at JOB_END, so
        # resubmit, like report, rejects the log instead of dropping it
        wf, log = self.fault_log(tmp_path, small_platform_file)
        lines = log.read_text().splitlines(keepends=True)
        cut = next(i for i, line in enumerate(lines) if "TASK_FAILED" in line)
        uid = json.loads(lines[cut])["task_uid"]
        log.write_text("".join(lines[:cut] + lines[cut + 1:]))
        plan = tmp_path / "plan.json"
        capsys.readouterr()
        assert run_cli("report", "--log", str(log)) == 1
        assert run_cli(
            "resubmit", "--log", str(log), "--workflow", str(wf),
            "--platform", str(small_platform_file), "--out", str(plan),
        ) == 1
        err = capsys.readouterr().err
        assert (
            "error: MalformedLog: 1 tasks of workflow exaconstit have no "
            f"terminal event in the log: {uid}\n"
        ) in err
        assert "Traceback" not in err
        assert not plan.exists()

    def test_over_reserved_node_exits_1(self, tmp_path, small_platform_file,
                                        capsys):
        # the first reservation widened to 9 ranks of 7 threads per node,
        # past the 56 usable cores: resubmit, like report, rejects the log
        wf, log = self.fault_log(tmp_path, small_platform_file)
        lines = log.read_text().splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines)
                 if f'"{ev.TASK_SCHEDULED}"' in line)
        rec = json.loads(lines[i])
        rec["detail"] = scheduled_detail(7, 1, [9] * len(rec["node_ids"]))
        lines[i] = json.dumps(rec) + "\n"
        log.write_text("".join(lines))
        plan = tmp_path / "plan.json"
        capsys.readouterr()
        for argv in (("report", "--log", str(log)),
                     ("resubmit", "--log", str(log), "--workflow", str(wf),
                      "--platform", str(small_platform_file),
                      "--out", str(plan))):
            assert run_cli(*argv) == 1
            err = capsys.readouterr().err
            assert re.search(r"error: MalformedLog: task \S+: takes more "
                             r"cores or GPUs of node \d+ than are free", err)
            assert "Traceback" not in err
        assert not plan.exists()

    def test_workflow_foreign_to_the_log_exits_1(self, tmp_path,
                                                 small_platform_file, capsys):
        # none of the toy workflow's tasks ran in this log
        _, log = self.fault_log(tmp_path, small_platform_file)
        toy, plan = tmp_path / "toy.json", tmp_path / "plan.json"
        run_cli("example", "--example", "toy", "--out", str(toy))
        capsys.readouterr()
        assert run_cli(
            "resubmit", "--log", str(log), "--workflow", str(toy),
            "--platform", str(small_platform_file), "--out", str(plan),
        ) == 1
        out, err = capsys.readouterr()
        assert err == (
            "error: MalformedLog: 4 tasks of workflow toy have no terminal "
            "event in the log: toy-s0-t0 toy-s0-t1 toy-s1-t0 toy-s1-t1\n"
        )
        assert "nothing to resubmit" not in out
        assert not plan.exists()

    @pytest.mark.parametrize("allocation", [0, None], ids=["zero", "absent"])
    def test_log_allocation_below_one_is_malformed_log(
        self, tmp_path, small_platform_file, capsys, allocation
    ):
        # the allocation is read from the log, not a flag: exit 1, as report
        wf = tmp_path / "wf.json"
        log = tmp_path / "run.jsonl"
        plan = tmp_path / "plan.json"
        run_cli("example", "--example", "exaconstit", "--tasks", "6",
                "--no-optimizer", "--out", str(wf))
        assert run_cli(
            "simulate", "--workflow", str(wf),
            "--platform", str(small_platform_file),
            "--nodes", "8", "--walltime", "20000",
            "--runtime", "fixed:500", "--fail-node", "2@600",
            "--out", str(log),
        ) == 1
        lines = log.read_text().splitlines()
        rec = json.loads(lines[0])
        meta = json.loads(rec["detail"])
        if allocation is None:
            del meta["allocation_nodes"]
        else:
            meta["allocation_nodes"] = allocation
        rec["detail"] = json.dumps(meta)
        log.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        capsys.readouterr()
        for argv in (("report", "--log", str(log)),
                     ("resubmit", "--log", str(log), "--workflow", str(wf),
                      "--platform", str(small_platform_file),
                      "--out", str(plan))):
            assert run_cli(*argv) == 1
            err = capsys.readouterr().err
            assert "error: MalformedLog:" in err
            assert "Traceback" not in err
        assert not plan.exists()

    def test_plan_that_cannot_fit_the_profile_is_config_error(self, tmp_path,
                                                              capsys):
        # eight-node GPU members cannot be planned onto the GPU-less host
        wf = tmp_path / "wf.json"
        log = tmp_path / "run.jsonl"
        plan = tmp_path / "plan.json"
        assert run_cli("example", "--example", "exaconstit", "--tasks", "20",
                       "--no-optimizer", "--out", str(wf)) == 0
        assert run_cli(
            "simulate", "--workflow", str(wf), "--profile", "frontier-sim",
            "--nodes", "64", "--fail-node", "3@300", "--out", str(log),
        ) == 1
        capsys.readouterr()
        assert run_cli(
            "resubmit", "--log", str(log), "--workflow", str(wf),
            "--profile", "local", "--out", str(plan),
        ) == 2
        err = capsys.readouterr().err
        assert "error: Unplaceable:" in err
        assert "Traceback" not in err
        assert not plan.exists()


def _small_fault_log():
    """A platform, a workflow and the records of its simulated log: 8 tasks
    share 3 nodes of 4 cores and 2 GPUs, a persistent fault on node 1 fails
    2 of them and the walltime cancels 2."""
    rng = random.Random(0)
    spec = single_stage("s", [
        make_task(f"t{i}", procs=rng.randint(1, 3), threads=rng.randint(1, 2),
                  gpus=rng.randint(0, 1))
        for i in range(8)
    ])
    platform = small_platform(cores=4, gpus=2, nodes=3, bootstrap=1.0)
    log = run_simulated(
        spec, platform, 3, 18.0,
        RuntimeModel("uniform", 1.0, 10.0, seed=0),
        node_faults=(NodeFault(1, 5.0, persistent=True),),
    )
    return platform, spec, [event._asdict() for event in log]


_FAULT_PLATFORM, _FAULT_SPEC, _FAULT_LOG = _small_fault_log()
# each field's distinct values in the log, for edits
_FAULT_VALUES = {
    field: list({json.dumps(r[field]): r[field] for r in _FAULT_LOG}.values())
    for field in _FAULT_LOG[0]
}


@st.composite
def mutated_fault_logs(draw):
    """The fault log's records after 1-3 deletions, duplications, swaps or
    edits of one field to a value another line has there."""
    records = json.loads(json.dumps(_FAULT_LOG))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "edit"]))
        i = draw(st.integers(0, len(records) - 1))
        if op == "delete":
            del records[i]
        elif op == "duplicate":
            records.insert(draw(st.integers(0, len(records))), records[i])
        elif op == "swap":
            j = draw(st.integers(0, len(records) - 1))
            records[i], records[j] = records[j], records[i]
        else:
            field = draw(st.sampled_from(sorted(_FAULT_VALUES)))
            value = draw(st.sampled_from(_FAULT_VALUES[field]))
            records[i] = dict(records[i], **{field: value})
    return records


@given(records=mutated_fault_logs(), retry_canceled=st.booleans())
@settings(max_examples=200, deadline=None)
def test_resubmit_accepts_only_logs_report_accepts(records, retry_canceled):
    # a log resubmit plans from is one report accepts, and the plan holds
    # exactly its failed (and, with the flag, canceled) tasks. Not the
    # converse: resubmit alone rejects a workflow task the log never names.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        wf, plat = tmp / "wf.json", tmp / "p.json"
        log, plan = tmp / "run.jsonl", tmp / "plan.json"
        _FAULT_SPEC.save(wf)
        save_platform(_FAULT_PLATFORM, plat)
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        flags = ["--retry-canceled"] if retry_canceled else []
        codes = []
        for argv in (["resubmit", "--log", str(log), "--workflow", str(wf),
                      "--platform", str(plat), *flags, "--out", str(plan)],
                     ["report", "--log", str(log), "--out", str(tmp / "r")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                codes.append(main(argv))
            if codes[0] != 0:
                return
        assert codes == [0, 0], err.getvalue()
        retried = {ev.TASK_FAILED}
        if retry_canceled:
            retried.add(ev.TASK_CANCELED)
        expected = sorted(e.task_uid for e in EventLog.load_jsonl(log)
                          if e.kind in retried)
        planned = (sorted(t.uid for t in WorkflowSpec.load(plan).tasks())
                   if plan.exists() else [])
    assert planned == expected


class TestRunLocal:
    def test_three_stage_pipeline(self, tmp_path, capsys):
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "toy", "--tasks", "2", "--out", str(wf))
        out_dir = tmp_path / "out"
        code = run_cli("run", "--workflow", str(wf), "--out", str(out_dir),
                       "--max-parallel", "2")
        assert code == 0
        assert (out_dir / "events.jsonl").exists()
        assert (out_dir / "task-logs").is_dir()
        # the same summary line as simulate prints
        assert re.search(
            r"^attempt 1: done=\d+ failed=0 canceled=0 makespan=\d+\.\ds "
            r"node_utilization=\d\.\d{3}$",
            capsys.readouterr().out, re.MULTILINE,
        )

    def test_deterministic_failure_exhausts_retries(self, tmp_path, capsys):
        spec = WorkflowSpec(
            name="alwaysfail",
            stages=(
                Stage(
                    name="s0",
                    tasks=(
                        TaskDescription(
                            uid="doomed", executable="/bin/sh",
                            arguments=("-c", "exit 3"),
                        ),
                        TaskDescription(
                            uid="fine", executable="/bin/sh",
                            arguments=("-c", "true"),
                        ),
                    ),
                ),
            ),
        )
        wf = tmp_path / "wf.json"
        spec.save(wf)
        code = run_cli("run", "--workflow", str(wf),
                       "--out", str(tmp_path / "out"), "--max-attempts", "2")
        assert code == 1
        assert "doomed" in capsys.readouterr().out

    def test_task_wider_than_host_is_config_error(self, tmp_path, capsys):
        # 224 one-core ranks: an AdditiveFOAM case, wider than a desk host
        cores = usable_cores(get_profile("local").node)
        spec = single_stage("s", [TaskDescription(
            uid="af", executable="/bin/true", cpu_processes=max(224, cores + 1),
        )])
        wf = tmp_path / "wf.json"
        spec.save(wf)
        out = tmp_path / "out"
        assert run_cli("run", "--workflow", str(wf), "--out", str(out)) == 2
        assert "Unplaceable" in capsys.readouterr().err
        assert not (out / "events.jsonl").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("uid", "../escaped"),
            ("uid", "x/y"),
            ("uid", "a\x00b"),
            ("uid", "a\ud800"),
            ("executable", "/bin/tr\x00ue"),
            ("executable", "/bin/\ud800"),
            ("arguments", ("x\x00y",)),
            ("arguments", ("x\ud800",)),
            ("pre_exec", ("true\x00",)),
            ("pre_exec", ("echo \ud800",)),
        ],
        ids=["uid-parent", "uid-slash", "uid-nul", "uid-surrogate",
             "executable-nul", "executable-surrogate", "argument-nul",
             "argument-surrogate", "pre_exec-nul", "pre_exec-surrogate"],
    )
    def test_a_task_run_cannot_start_is_config_error(
        self, tmp_path, capsys, field, value
    ):
        # simulate runs no command and writes no task log, so it keeps
        # accepting the workflow; run rejects it before the out directory
        # or any task log exists
        task = {"uid": "t", "executable": "/bin/true",
                "expected_runtime_s": 1.0, field: value}
        wf = tmp_path / "wf.json"
        single_stage("s", [TaskDescription(**task)]).save(wf)
        out = tmp_path / "out"
        assert run_cli("run", "--workflow", str(wf), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ConfigError: task {task['uid']!r}: ")
        assert field.removesuffix("s") in err
        assert "Traceback" not in err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wf.json"]
        assert run_cli("simulate", "--workflow", str(wf), "--nodes", "1",
                       "--out", str(tmp_path / "sim.jsonl")) == 0

    def test_a_uid_too_long_to_name_its_log_file_is_config_error(
        self, tmp_path, capsys
    ):
        # <uid>.out must fit the name limit of the output directory's file
        # system, in bytes: a uid one byte over it, 300 characters, or
        # two-byte characters one over it are rejected before anything is
        # made; the longest uid that fits runs
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        wide = len(os.fsencode("\u00e9"))
        fits = "u" * (limit - len(".out"))
        too_long = [fits + "u", "u" * max(300, limit),
                    "\u00e9" * ((limit - len(".out")) // wide + 1)]
        for uid in too_long:
            wf = tmp_path / "wf.json"
            single_stage("s", [make_task(uid, expected=1.0)]).save(wf)
            out = tmp_path / "out"
            assert run_cli("run", "--workflow", str(wf), "--out",
                           str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: ConfigError: task {uid!r}: uid ")
            assert "too long to name a log file" in err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["wf.json"]
        single_stage("s", [TaskDescription(
            uid=fits, executable="/bin/sh", arguments=("-c", "echo hi"),
        )]).save(wf)
        assert run_cli("run", "--workflow", str(wf), "--out", str(out)) == 0
        assert (out / "task-logs" / f"{fits}.out").read_text() == "hi\n"

    @pytest.mark.parametrize("broken", ["missing", "failing"])
    def test_run_without_pidfd_open_is_config_error(
        self, tmp_path, capsys, monkeypatch, broken
    ):
        # an older kernel (ENOSYS) or an interpreter built without it
        def pidfd_open(pid, *args):
            raise OSError(errno.ENOSYS, os.strerror(errno.ENOSYS))

        wf = tmp_path / "wf.json"
        single_stage("s", [TaskDescription(
            uid="fine", executable="/bin/sh", arguments=("-c", "true"),
        )]).save(wf)
        if broken == "missing":
            monkeypatch.delattr(os, "pidfd_open")
        else:
            monkeypatch.setattr(os, "pidfd_open", pidfd_open)
        out = tmp_path / "out"
        assert run_cli("run", "--workflow", str(wf), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: the local backend needs "
                              "os.pidfd_open")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, make, error",
        [
            ("events.jsonl", Path.mkdir, "IsADirectoryError"),
            ("attempt-2", Path.touch, "NotADirectoryError"),
            ("attempt-2/events.jsonl", Path.mkdir, "IsADirectoryError"),
            ("attempt-2/task-logs", Path.touch, "FileExistsError"),
        ],
        ids=["log-is-a-directory", "retry-directory-is-a-file",
             "retry-log-is-a-directory", "retry-task-logs-is-a-file"],
    )
    def test_log_path_of_every_attempt_is_checked_before_the_run(
        self, tmp_path, capsys, entry, make, error
    ):
        # attempt 1 fails a task, so attempt 2 would run; the other task
        # leaves a marker in the output directory
        wf = tmp_path / "wf.json"
        single_stage("s", [
            TaskDescription(uid="doomed", executable="/bin/sh",
                            arguments=("-c", "exit 3")),
            TaskDescription(uid="fine", executable="/bin/sh",
                            arguments=("-c", "touch fine.done")),
        ]).save(wf)
        out = tmp_path / "out"
        (out / entry).parent.mkdir(parents=True, exist_ok=True)
        make(out / entry)
        assert run_cli("run", "--workflow", str(wf), "--out", str(out),
                       "--max-attempts", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and "Traceback" not in err
        assert not [path for path in out.rglob("task-logs") if path.is_dir()]
        assert not list(out.rglob("*.done"))

    def test_entries_no_attempt_writes_to_leave_run_alone(self, tmp_path):
        wf = tmp_path / "wf.json"
        single_stage("s", [
            TaskDescription(uid="doomed", executable="/bin/sh",
                            arguments=("-c", "exit 3")),
        ]).save(wf)
        out = tmp_path / "out"
        out.mkdir()
        for name in ("attempt-1", "attempt-3", "attempt-02", "attempt-2x"):
            (out / name).touch()
        assert run_cli("run", "--workflow", str(wf), "--out", str(out),
                       "--max-attempts", "2") == 1
        assert (out / "attempt-2" / "events.jsonl").is_file()

    def test_transient_failure_recovers_on_retry(self, tmp_path, capsys):
        # fails once, then succeeds: the flag file survives between attempts
        flag = tmp_path / "flaky.flag"
        script = f"if [ -f {flag} ]; then exit 0; else touch {flag}; exit 1; fi"
        spec = WorkflowSpec(
            name="flaky",
            stages=(
                Stage(
                    name="s0",
                    tasks=(
                        TaskDescription(
                            uid="flaky", executable="/bin/sh",
                            arguments=("-c", script),
                        ),
                    ),
                ),
            ),
        )
        wf = tmp_path / "wf.json"
        spec.save(wf)
        code = run_cli("run", "--workflow", str(wf),
                       "--out", str(tmp_path / "out"), "--max-attempts", "2")
        assert code == 0
        out = capsys.readouterr().out
        assert "attempt 1: done=0 failed=1" in out
        assert "attempt 2: done=1 failed=0" in out


def _alive(pid: int) -> bool:
    """Whether the process runs; a zombie nobody reaped counts as dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


class TestInterruptedRun:
    def test_ctrl_c_in_simulate_exits_1_without_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_simulated", interrupted)
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "toy", "--out", str(wf))
        capsys.readouterr()
        log = tmp_path / "run.jsonl"
        assert run_cli(
            "simulate", "--workflow", str(wf), "--profile", "frontier-sim",
            "--nodes", "4", "--out", str(log),
        ) == 1
        err = capsys.readouterr().err
        assert err == "error: KeyboardInterrupt: interrupted\n"
        assert not log.exists()

    def test_ctrl_c_in_a_retry_keeps_the_earlier_logs(
        self, tmp_path, small_platform_file, capsys, monkeypatch
    ):
        wf = tmp_path / "wf.json"
        run_cli("example", "--example", "exaconstit", "--tasks", "6",
                "--no-optimizer", "--out", str(wf))

        def simulate(out):
            return run_cli(
                "simulate", "--workflow", str(wf),
                "--platform", str(small_platform_file),
                "--nodes", "8", "--walltime", "20000",
                "--runtime", "fixed:500", "--fail-node", "0@600",
                "--max-attempts", "2", "--out", str(out),
            )

        clean = tmp_path / "clean.jsonl"
        assert simulate(clean) == 0
        capsys.readouterr()
        attempts = []

        def interrupted_retry(*args, **kwargs):
            attempts.append(args)
            if len(attempts) == 2:
                raise KeyboardInterrupt
            return run_simulated(*args, **kwargs)

        monkeypatch.setattr(cli, "run_simulated", interrupted_retry)
        log = tmp_path / "run.jsonl"
        assert simulate(log) == 1
        out, err = capsys.readouterr()
        assert err == "error: KeyboardInterrupt: interrupted\n"
        assert out.startswith(f"attempt 1: {log} ")
        assert log.read_bytes() == clean.read_bytes()
        assert not (tmp_path / "run.attempt2.jsonl").exists()

    def test_ctrl_c_in_a_run_retry_keeps_the_earlier_lines(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = single_stage("s", [TaskDescription(
            uid="doomed", executable="/bin/sh", arguments=("-c", "exit 3"),
        )])
        wf = tmp_path / "wf.json"
        spec.save(wf)
        real_run_local = cli.run_local
        calls = []

        def interrupted_retry(specs, platform, max_parallel, out_dir):
            calls.append(out_dir)
            log = real_run_local(specs, platform, max_parallel, out_dir)
            if len(calls) == 2:
                raise Interrupted("run interrupted", log)
            return log

        monkeypatch.setattr(cli, "run_local", interrupted_retry)
        out_dir = tmp_path / "out"
        assert run_cli("run", "--workflow", str(wf), "--out", str(out_dir),
                       "--max-attempts", "3") == 1
        out, err = capsys.readouterr()
        assert err == "error: Interrupted: run interrupted\n"
        assert re.fullmatch(
            r"attempt 1: done=0 failed=1 canceled=0 makespan=\d+\.\ds "
            r"node_utilization=\d\.\d{3}\n", out,
        )
        assert len(calls) == 2
        assert (out_dir / "attempt-2" / "events.jsonl").exists()

    def test_sigint_leaves_a_complete_log_resubmit_accepts(
        self, tmp_path, capsys, sigint_raises
    ):
        # each task records its pid, then becomes "sleep 5"; the pre_exec
        # line makes the task's outer shell fork, so killing that shell
        # alone would leave the sleep running
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        spec = single_stage("s", [
            TaskDescription(
                uid=f"t{i}", executable="/bin/sh",
                arguments=("-c", f"echo $$ > {pid_dir}/t{i}; exec sleep 5"),
                pre_exec=("true",),
            )
            for i in range(4)
        ])
        wf = tmp_path / "wf.json"
        spec.save(wf)
        out = tmp_path / "out"
        src = str(Path(ensemblekit.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "ensemblekit.cli", "run", "--workflow",
             str(wf), "--out", str(out), "--max-parallel", "2",
             "--max-attempts", "2", "--retry-canceled"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while len(list(pid_dir.iterdir())) < 2:
                assert time.monotonic() < deadline, "tasks never started"
                time.sleep(0.02)
            # the pid files are written before exec: let both tasks exec
            time.sleep(0.2)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 1
        assert "error: Interrupted: " in err
        assert "Traceback" not in err
        log = EventLog.load_jsonl(out / "events.jsonl")
        assert log[-1].kind == ev.JOB_END
        assert log[-1].detail == "done=0 failed=0 canceled=4"
        assert not (out / "attempt-2").exists()
        pids = [int(f.read_text()) for f in pid_dir.iterdir()]
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)

        plan = tmp_path / "plan.json"
        assert run_cli(
            "resubmit", "--log", str(out / "events.jsonl"), "--workflow",
            str(wf), "--profile", "local", "--retry-canceled",
            "--out", str(plan),
        ) == 0
        assert "4 tasks in 1 stages" in capsys.readouterr().out
        planned = WorkflowSpec.load(plan)
        assert sorted(t.uid for st in planned.stages for t in st.tasks) == [
            "t0", "t1", "t2", "t3"
        ]


def _bad_log(path):
    # a TASK_DONE with no TASK_LAUNCHED before it: report exits 1
    path.write_text(
        '{"ts": 0.0, "kind": "JOB_START", "detail": "{}"}\n'
        '{"ts": 1.0, "kind": "TASK_DONE", "task_uid": "t"}\n'
    )
    return ["report", "--log", str(path)]


def _interrupted(monkeypatch, tmp_path):
    def command(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_example", command)
    return ["example", "--out", str(tmp_path / "wf.json")]


@pytest.mark.parametrize("caller", [(700, 10, 10), (701, 11, 12), (0, 10, 10)])
@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("exit_code,argv", [
    (0, lambda mp, tmp: ["example", "--example", "toy",
                         "--out", str(tmp / "wf.json")]),
    (2, lambda mp, tmp: ["example", "--out", str(tmp / "wf.json")]),
    (1, lambda mp, tmp: _bad_log(tmp / "bad.jsonl")),
    (1, _interrupted),
    ("SystemExit", lambda mp, tmp: ["example", "--example", "fusion"]),
], ids=["ok", "config-error", "malformed-log", "interrupt", "argparse"])
def test_main_restores_the_callers_gc_settings(
    monkeypatch, tmp_path, caller, enabled, exit_code, argv
):
    argv = argv(monkeypatch, tmp_path)
    saved = gc.get_threshold(), gc.isenabled()
    try:
        gc.set_threshold(*caller)
        if not enabled:
            gc.disable()
        if exit_code == "SystemExit":
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == exit_code
        assert gc.get_threshold() == caller
        assert gc.isenabled() is enabled
    finally:
        gc.set_threshold(*saved[0])
        (gc.enable if saved[1] else gc.disable)()


@pytest.mark.parametrize("caller,seen", [
    ((700, 10, 10), (cli._GC_YOUNG_THRESHOLD, 10, 10)),
    ((701, 11, 12), (cli._GC_YOUNG_THRESHOLD, 11, 12)),
    # never lowered, and left off when the caller turned it off
    ((10**6, 10, 10), (10**6, 10, 10)),
    ((0, 10, 10), (0, 10, 10)),
])
def test_a_command_runs_with_the_raised_young_gc_threshold(
    monkeypatch, caller, seen
):
    during = []

    def command(args):
        during.append(gc.get_threshold())
        return 0

    monkeypatch.setattr(cli, "cmd_example", command)
    saved = gc.get_threshold()
    try:
        gc.set_threshold(*caller)
        assert main(["example", "--out", "unused.json"]) == 0
        assert gc.get_threshold() == caller
    finally:
        gc.set_threshold(*saved)
    assert during == [seen]
