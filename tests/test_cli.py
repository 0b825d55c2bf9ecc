import contextlib
import hashlib
import io
import json
import os
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
from ensemblekit import events as ev
from ensemblekit.cli import main
from ensemblekit.events import EventLog, scheduled_detail
from ensemblekit.metrics import compute_utilization
from ensemblekit.platform import get_profile, save_platform_config, usable_cores
from ensemblekit.pst import Stage, TaskDescription, WorkflowSpec, validate_workflow
from conftest import single_stage, small_platform


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def small_platform_file(tmp_path):
    # a mini Frontier: 8 nodes of 64 cores (8 reserved) and 8 GPUs
    path = tmp_path / "small.json"
    save_platform_config(
        small_platform(cores=64, reserved=8, gpus=8, nodes=8,
                       max_walltime=50000.0),
        path,
    )
    return path


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
        ],
        ids=["bootstrap-nan", "bootstrap-string", "tier-string-nodes",
             "tier-three-elements", "cores-beyond-float-range",
             "node-count-float"],
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
        assert retry.job_meta()["allocation_nodes"] == 8
        stack = compute_utilization(retry, get_profile("frontier-sim").node, 8)
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
        digests = [
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (log, tmp_path / "run.attempt2.jsonl")
        ]
        assert digests == [
            "33144971e2bf41dcfeb0436bced69a0de7768534133d04744d14329f7d7f6dcd",
            "a96bb32f06b8b00855f69eabc1b213fa2315eca7a2dc612cd0acf0816a4711ec",
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
