import collections
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ensemblekit import engine
from ensemblekit import events as ev
from ensemblekit.cli import main
from ensemblekit.engine import (
    NodeFault,
    RuntimeModel,
    SimState,
    TaskFault,
    run_simulated,
    step,
)
from ensemblekit.errors import ConfigError, PolicyViolation, Unplaceable
from ensemblekit.events import EventLog
from ensemblekit.metrics import compute_utilization, concurrency_series
from ensemblekit.platform import WalltimePolicy, get_profile
from ensemblekit.pst import Stage, WorkflowSpec
from conftest import (
    events_by_task,
    exaconstit_task,
    log_of,
    make_task,
    single_stage,
    small_platform,
    terminal_ts,
)

FIXED_100 = RuntimeModel("fixed", 100.0)


def kinds_for(log, uid):
    return [e.kind for e in log if e.task_uid == uid]


class TestBasics:
    def test_single_task_sequential_arithmetic(self):
        platform = small_platform(bootstrap=10.0)
        wf = single_stage("s", [make_task("t")])
        log = run_simulated(wf, platform, 1, 7200.0, FIXED_100)
        by_kind = {e.kind: e.ts for e in log}
        assert by_kind[ev.BOOTSTRAP_DONE] == 10.0
        assert by_kind[ev.TASK_DONE] == 110.0
        assert by_kind[ev.JOB_END] == 110.0

    def test_log_starts_with_job_start_at_zero(self):
        platform = small_platform(bootstrap=3.0)
        log = run_simulated(
            single_stage("s", [make_task("t")]), platform, 1, 100.0, FIXED_100
        )
        assert log[0].kind == ev.JOB_START and log[0].ts == 0.0
        assert log[1].kind == ev.BOOTSTRAP_DONE and log[1].ts == 3.0

    def test_timestamps_non_decreasing(self):
        platform = small_platform(nodes=2)
        wf = single_stage(
            "s", [make_task(f"t{i}", procs=8, expected=50.0 + i) for i in range(6)]
        )
        log = run_simulated(
            wf, platform, 2, 1000.0, RuntimeModel()
        )
        ts = [e.ts for e in log]
        assert ts == sorted(ts)

    def test_launch_follows_schedule_for_every_task(self):
        platform = small_platform(nodes=2)
        wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(5)])
        log = run_simulated(wf, platform, 2, 1000.0, FIXED_100)
        tasks = events_by_task(log)
        assert len(tasks) == 5
        for kinds in tasks.values():
            assert (kinds[ev.TASK_SCHEDULED].ts <= kinds[ev.TASK_LAUNCHED].ts
                    <= terminal_ts(kinds))

    def test_scaled_ensemble_completes_with_capacity_plateau(self):
        # 64 eight-node members on 128 nodes: peak concurrency 16
        platform = get_profile("frontier-sim")
        wf = single_stage(
            "members", [exaconstit_task(f"m{i:03d}") for i in range(64)]
        )
        log = run_simulated(
            wf,
            platform,
            128,
            21600.0,
            RuntimeModel("uniform", 600.0, 1500.0, seed=2),
        )
        assert sum(1 for e in log if e.kind == ev.TASK_DONE) == 64
        series = concurrency_series(log)
        assert max(p.n_running for p in series.points) == 128 // 8

    def test_ovh_ttx_identity(self):
        platform = small_platform(bootstrap=7.5)
        wf = single_stage("s", [make_task("t")])
        log = run_simulated(wf, platform, 1, 1000.0, FIXED_100)
        ovh = log.bootstrap_ts()
        ttx = log.job_end_ts() - log.bootstrap_ts()
        assert abs((ovh + ttx) - log.job_end_ts()) <= 1e-9 * log.job_end_ts()

    def test_no_event_outside_allocation(self):
        platform = small_platform(nodes=4)
        wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(6)])
        log = run_simulated(wf, platform, 3, 1000.0, FIXED_100)
        for e in log:
            for node_id in e.node_ids or ():
                assert 0 <= node_id < 3


class TestStageSequencing:
    def test_two_stages_run_in_order(self):
        platform = small_platform()
        wf = WorkflowSpec(
            name="wf",
            stages=(
                Stage(name="s0", tasks=(make_task("a"), make_task("b"))),
                Stage(name="s1", tasks=(make_task("c"),)),
            ),
        )
        log = run_simulated(wf, platform, 4, 1000.0, FIXED_100)
        tasks = events_by_task(log)
        c_sched = tasks["c"][ev.TASK_SCHEDULED].ts
        assert c_sched >= terminal_ts(tasks["a"])
        assert c_sched >= terminal_ts(tasks["b"])

    def test_two_pipelines_progress_independently(self):
        platform = small_platform(nodes=4)
        slow = single_stage("slow", [make_task("slowtask", expected=500.0)],
                            workflow_name="p-slow")
        fast = WorkflowSpec(
            name="p-fast",
            stages=(
                Stage(name="f0", tasks=(make_task("f0", expected=10.0),)),
                Stage(name="f1", tasks=(make_task("f1", expected=10.0),)),
            ),
        )
        log = run_simulated(
            [slow, fast], platform, 4, 1000.0,
            RuntimeModel(),
        )
        tasks = events_by_task(log)
        # fast pipeline's second stage starts long before the slow one ends
        assert (tasks["f1"][ev.TASK_SCHEDULED].ts
                < terminal_ts(tasks["slowtask"]))

    def test_a_stage_that_opens_later_queues_behind_other_pipelines(self):
        # the pipelines of a job share one FIFO queue. On one 8-core node, a0
        # (1 core, 10 s) and b0 (7 cores, 100 s) start at 0. a0's end opens
        # stage a1 behind b1 and b2, and a1 waits until b2 is placed at 200,
        # though the core it needs is free from 10 on
        platform = small_platform(nodes=1)
        a = WorkflowSpec(
            name="a",
            stages=(
                Stage(name="a0", tasks=(make_task("a0", expected=10.0),)),
                Stage(name="a1", tasks=(make_task("a1", expected=10.0),)),
            ),
        )
        b = single_stage(
            "b", [make_task(f"b{i}", procs=7, expected=100.0) for i in range(3)]
        )
        log = run_simulated([a, b], platform, 1, 1000.0, RuntimeModel())
        scheduled = [(e.task_uid, e.ts) for e in log
                     if e.kind == ev.TASK_SCHEDULED]
        assert scheduled == [("a0", 0.0), ("b0", 0.0), ("b1", 100.0),
                             ("b2", 200.0), ("a1", 200.0)]
        alone = run_simulated(a, platform, 1, 1000.0, RuntimeModel())
        assert events_by_task(alone)["a1"][ev.TASK_SCHEDULED].ts == 10.0


class TestFaults:
    def test_persistent_fault_fails_only_node_holders(self):
        # four 1-node tasks on four nodes; node 2 dies at 10% of the runtime
        platform = small_platform(nodes=4)
        wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(4)])
        log = run_simulated(
            wf, platform, 4, 1000.0, FIXED_100,
            node_faults=(NodeFault(2, 10.0, persistent=True),),
        )
        failed = {e.task_uid for e in log if e.kind == ev.TASK_FAILED}
        held_node2 = {
            e.task_uid
            for e in log
            if e.kind == ev.TASK_SCHEDULED and 2 in e.node_ids
        }
        assert failed == held_node2 == {"t2"}
        assert sum(1 for e in log if e.kind == ev.TASK_DONE) == 3
        node_event = next(e for e in log if e.kind == ev.NODE_FAILED)
        assert node_event.node_ids == (2,) and node_event.detail == "persistent"

    def test_persistent_fault_cascades_through_waves(self):
        # 3 waves of 4 one-node tasks; every task placed on node 1 fails
        platform = small_platform(nodes=4)
        wf = single_stage("s", [make_task(f"t{i:02d}", procs=8) for i in range(12)])
        log = run_simulated(
            wf, platform, 4, 10000.0, FIXED_100,
            node_faults=(NodeFault(1, 50.0, persistent=True),),
        )
        failed = {e.task_uid for e in log if e.kind == ev.TASK_FAILED}
        ever_held = {
            uid for uid, kinds in events_by_task(log).items()
            if 1 in kinds[ev.TASK_SCHEDULED].node_ids
            and terminal_ts(kinds) >= 50.0
        }
        assert failed == ever_held
        assert len(failed) == 3  # one per wave
        for e in log:
            if e.kind == ev.TASK_FAILED:
                assert e.detail == "node_failure node=1"

    def test_transient_fault_kills_current_holder_only(self):
        platform = small_platform(nodes=2)
        wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(4)])
        log = run_simulated(
            wf, platform, 2, 10000.0, FIXED_100,
            node_faults=(NodeFault(0, 10.0, persistent=False),),
        )
        failed = [e.task_uid for e in log if e.kind == ev.TASK_FAILED]
        assert failed == ["t0"]
        done = {e.task_uid for e in log if e.kind == ev.TASK_DONE}
        assert done == {"t1", "t2", "t3"}
        # the failed task ended at the fault instant
        fail_event = next(e for e in log if e.kind == ev.TASK_FAILED)
        assert fail_event.ts == 10.0

    def test_holders_are_kept_only_while_a_fault_is_to_come(self):
        # at JOB_END the simulator holds a list of uids only for nodes with
        # a fault still in the heap; the launches that tie with a node's
        # last fault come after it, and add to no list
        for seed in range(100):
            (specs, platform, nodes, walltime, model), kwargs = tied_job(seed)
            state = SimState(specs, platform, nodes, walltime, model, **kwargs)
            state.pilot.drive(state)
            to_come = {data.node_id for *_, action, data in state.heap
                       if action == "node_fault"}
            assert set(state._holders) <= to_come, seed

    def test_node_fault_fails_running_holders_in_uid_order(self):
        # four 1-core tasks share one node; "a" ends first and its slot goes
        # to "late", which is SCHEDULED but not yet launched at the fault
        platform = small_platform(cores=4, nodes=1)
        tasks = [make_task("a", expected=10.0)] + [
            make_task(uid, expected=100.0)
            for uid in ("m-c", "m-a", "m-b", "late")
        ]
        wf = single_stage("s", tasks)
        log = run_simulated(
            wf, platform, 1, 1000.0, RuntimeModel(),
            node_faults=(NodeFault(0, 17.0, persistent=False),),
            launch_delay_s=5.0,
        )
        late = events_by_task(log)["late"]
        assert late[ev.TASK_SCHEDULED].ts == 15.0
        assert late[ev.TASK_LAUNCHED].ts == 20.0
        failed = [e for e in log if e.kind == ev.TASK_FAILED]
        assert [e.task_uid for e in failed] == ["m-a", "m-b", "m-c"]
        assert all(e.ts == 17.0 for e in failed)
        done = [e.task_uid for e in log if e.kind == ev.TASK_DONE]
        assert done == ["a", "late"]

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        faults=st.lists(
            st.tuples(st.integers(min_value=0, max_value=4),
                      st.floats(min_value=0.0, max_value=1.0),
                      st.booleans()),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_node_fault_fails_the_tasks_running_on_its_node(self, seed,
                                                              faults):
        # from the log's event order alone: the node_failure events right
        # after each NODE_FAILED of node N are the tasks launched on N and
        # not ended yet, in uid order
        args, kwargs = random_job(seed)
        nodes, walltime = args[2], args[3]
        kwargs["node_faults"] = tuple(
            NodeFault(node % nodes, at * walltime, persistent)
            for node, at, persistent in faults
        )
        events = list(run_simulated(*args, **kwargs))
        running = collections.defaultdict(set)  # node -> launched, not ended
        for i, e in enumerate(events):
            if e.kind == ev.TASK_LAUNCHED:
                for node in e.node_ids:
                    running[node].add(e.task_uid)
            elif e.kind in ev.TERMINAL_KINDS:
                for node in e.node_ids or ():
                    running[node].discard(e.task_uid)
            elif e.kind == ev.NODE_FAILED:
                (node,) = e.node_ids
                detail = f"node_failure node={node}"
                failed = itertools.takewhile(
                    lambda f: (f.kind, f.detail, f.ts)
                    == (ev.TASK_FAILED, detail, e.ts),
                    events[i + 1:],
                )
                assert [f.task_uid for f in failed] == sorted(running[node])

    def test_task_fault_at_last_step(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t")])
        log = run_simulated(
            wf, platform, 1, 1000.0, FIXED_100,
            task_faults=(TaskFault("t", 1.0),),
        )
        fail_event = next(e for e in log if e.kind == ev.TASK_FAILED)
        assert fail_event.ts == 100.0  # launched at 0, failed at full runtime
        assert fail_event.detail == "task_fault"

    def test_task_fault_mid_run(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t")])
        log = run_simulated(
            wf, platform, 1, 1000.0, FIXED_100,
            task_faults=(TaskFault("t", 0.25),),
        )
        assert next(e for e in log if e.kind == ev.TASK_FAILED).ts == 25.0

    def test_fault_fraction_bounds(self):
        with pytest.raises(ConfigError):
            TaskFault(uid="t", at_fraction=0.0)
        with pytest.raises(ConfigError):
            TaskFault(uid="t", at_fraction=1.5)

    def test_fault_outside_walltime_rejected(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t")])
        with pytest.raises(ConfigError):
            run_simulated(
                wf, platform, 1, 500.0, FIXED_100,
                node_faults=(NodeFault(0, 600.0, persistent=True),),
            )

    def test_fault_on_the_node_past_the_allocation_rejected(self):
        # nodes 0..3 of a 4-node allocation: node 3 is the last, node 4 is
        # not in it
        platform = small_platform(nodes=4)
        wf = single_stage("s", [make_task("t")])
        last = run_simulated(wf, platform, 4, 500.0, FIXED_100,
                             node_faults=(NodeFault(3, 50.0, True),))
        assert [e.node_ids for e in last if e.kind == ev.NODE_FAILED] == [(3,)]
        with pytest.raises(ConfigError) as caught:
            run_simulated(wf, platform, 4, 500.0, FIXED_100,
                          node_faults=(NodeFault(4, 50.0, True),))
        assert str(caught.value) == "fault node 4 outside allocation"


class TestWalltime:
    def test_running_and_queued_tasks_cancel_at_walltime(self):
        platform = small_platform(bootstrap=5.0)
        wf = single_stage(
            "s", [make_task(f"t{i}", procs=8, expected=400.0) for i in range(3)]
        )
        log = run_simulated(
            wf, platform, 1, 900.0, RuntimeModel()
        )
        canceled = [e for e in log if e.kind == ev.TASK_CANCELED]
        assert {e.task_uid for e in canceled} == {"t2"}
        assert all(e.ts == 900.0 for e in canceled)
        assert all(e.detail == "walltime" for e in canceled)
        assert log.job_end_ts() == 900.0

    def test_never_scheduled_task_cancels_too(self):
        platform = small_platform(bootstrap=0.0)
        wf = single_stage(
            "s", [make_task(f"t{i}", procs=8, expected=400.0) for i in range(4)]
        )
        log = run_simulated(
            wf, platform, 1, 500.0, RuntimeModel()
        )
        canceled = {e.task_uid for e in log if e.kind == ev.TASK_CANCELED}
        assert canceled == {"t1", "t2", "t3"}
        # t1 was mid-run, t2 and t3 never scheduled: no node_ids on those
        events = {e.task_uid: e for e in log if e.kind == ev.TASK_CANCELED}
        assert events["t2"].node_ids is None
        assert events["t3"].node_ids is None

    def test_walltime_above_policy_rejected(self):
        platform = small_platform(max_walltime=1000.0)
        wf = single_stage("s", [make_task("t")])
        with pytest.raises(PolicyViolation):
            run_simulated(wf, platform, 1, 2000.0, FIXED_100)


class TestConfigValidation:
    def test_allocation_larger_than_platform(self):
        platform = small_platform(nodes=4)
        with pytest.raises(ConfigError):
            run_simulated(
                single_stage("s", [make_task("t")]), platform, 5, 100.0, FIXED_100
            )

    def test_invalid_workflow_rejected(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t", procs=0)])
        with pytest.raises(ConfigError):
            run_simulated(wf, platform, 1, 100.0, FIXED_100)

    def test_task_too_wide_for_allocation(self):
        platform = small_platform(nodes=4)
        wf = single_stage("s", [make_task("wide", procs=8 * 3)])
        with pytest.raises(Unplaceable):
            run_simulated(wf, platform, 2, 100.0, FIXED_100)

    def test_expected_runtime_missing(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t")])  # no expected_runtime_s
        with pytest.raises(ConfigError):
            run_simulated(
                wf, platform, 1, 100.0,
                RuntimeModel(),
            )

    def test_hintless_task_the_walltime_cancels_is_rejected(self):
        # the walltime cancels the second stage before it is placed, so no
        # task of it would ever launch; the first hint-less task in job
        # order is named
        platform = small_platform()
        wf = WorkflowSpec(
            name="wf",
            stages=(
                Stage(name="s0", tasks=(make_task("long", expected=1e4),)),
                Stage(name="s1", tasks=(make_task("hinted", expected=1.0),
                                        make_task("b"), make_task("a"))),
            ),
        )
        with pytest.raises(ConfigError) as caught:
            run_simulated(wf, platform, 1, 200.0, RuntimeModel())
        assert str(caught.value) == (
            "task b has no expected_runtime_s and the runtime model is "
            "'expected'"
        )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "normal"}, "unknown duration kind 'normal'"),
            ({"kind": "uniform", "lo_s": 1.0, "hi_s": math.inf},
             "duration bounds must be finite"),
            ({"kind": "fixed", "lo_s": math.nan},
             "duration bounds must be finite"),
            ({"kind": "fixed", "lo_s": 0.0}, "fixed duration must be > 0"),
            ({"kind": "uniform", "lo_s": 0.0, "hi_s": 1.0},
             "uniform duration needs 0 < lo <= hi"),
            ({"kind": "uniform", "lo_s": 2.0, "hi_s": 1.0},
             "uniform duration needs 0 < lo <= hi"),
        ],
    )
    def test_bad_runtime_model_rejected(self, kwargs, message):
        with pytest.raises(ConfigError) as caught:
            RuntimeModel(**kwargs)
        assert str(caught.value) == message

    def test_uniform_with_equal_bounds_is_accepted(self):
        model = RuntimeModel("uniform", 5.0, 5.0)
        assert model.duration_for(make_task("t")) == 5.0

    def test_default_seed_is_zero(self):
        # the seed keys every uniform draw: the default draws seed 0's
        task = make_task("t")
        draw = RuntimeModel("uniform", 1.0, 2.0).duration_for(task)
        assert RuntimeModel().seed == 0
        assert draw == RuntimeModel("uniform", 1.0, 2.0, seed=0).duration_for(
            task
        )

    def test_duplicate_uid_across_pipelines(self):
        platform = small_platform()
        a = single_stage("s", [make_task("t")], workflow_name="p1")
        b = single_stage("s", [make_task("t")], workflow_name="p2")
        with pytest.raises(ConfigError):
            run_simulated([a, b], platform, 1, 100.0, FIXED_100)


class TestLaunchPipeline:
    def test_launch_delay(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t")])
        log = run_simulated(
            wf, platform, 1, 1000.0, FIXED_100, launch_delay_s=7.0
        )
        t = events_by_task(log)["t"]
        assert t[ev.TASK_LAUNCHED].ts == t[ev.TASK_SCHEDULED].ts + 7.0

    def test_launch_rate_cap_spacing(self):
        platform = small_platform(nodes=8)
        wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(8)])
        log = run_simulated(
            wf, platform, 8, 1000.0, FIXED_100, launch_rate_cap=10.0
        )
        launches = [e.ts for e in log if e.kind == ev.TASK_LAUNCHED]
        gaps = [b - a for a, b in zip(launches, launches[1:])]
        assert all(abs(g - 0.1) < 1e-9 for g in gaps)


class TestDeterminism:
    def test_same_seed_byte_identical_logs(self, tmp_path):
        platform = get_profile("frontier-sim")
        wf = single_stage(
            "members", [exaconstit_task(f"m{i:03d}") for i in range(40)]
        )
        model = RuntimeModel("uniform", 600.0, 1500.0, seed=9)
        fault = NodeFault(3, 700.0, persistent=True)
        paths = []
        for i in range(2):
            log = run_simulated(
                wf, platform, 64, 7200.0, model, node_faults=(fault,)
            )
            path = tmp_path / f"run{i}.jsonl"
            log.save_jsonl(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_changes_durations(self):
        platform = small_platform()
        wf = single_stage("s", [make_task("t")])
        model_a = RuntimeModel("uniform", 10.0, 500.0, seed=1)
        model_b = RuntimeModel("uniform", 10.0, 500.0, seed=2)
        end_a = run_simulated(wf, platform, 1, 1000.0, model_a).job_end_ts()
        end_b = run_simulated(wf, platform, 1, 1000.0, model_b).job_end_ts()
        assert end_a != end_b

    def test_random_jobs_match_golden_hash(self, tmp_path):
        # small seeded jobs of 1-3 pipelines, with multi-node, GPU and
        # remainder-chunk shapes, node and task faults, a launch delay, a
        # rate cap and walltimes that cancel tasks in every open state.
        # Hash recorded before the log became the one holder of task state.
        digest = hashlib.sha256()
        canceled_after: collections.Counter = collections.Counter()
        pipelines = set()
        path = tmp_path / "run.jsonl"
        for seed in range(100):
            args, kwargs = random_job(seed)
            log = run_simulated(*args, **kwargs)
            log.save_jsonl(path)
            digest.update(path.read_bytes())
            last = {}
            for e in log:
                if e.kind == ev.TASK_CANCELED:
                    canceled_after[last.get(e.task_uid)] += 1
                last[e.task_uid] = e.kind
            pipelines.add(len({uid[:2] for uid in last if uid}))
        # every path the hash is meant to guard was taken
        assert set(canceled_after) == {
            None, ev.TASK_SCHEDULED, ev.TASK_LAUNCHED
        }
        assert pipelines == {1, 2, 3}
        assert digest.hexdigest() == GOLDEN_RANDOM_JOBS

    def test_tied_fault_jobs_match_golden_hash(self):
        # jobs on a 5 s grid, where node faults fire at the same instant as
        # launches, ends and placements on their own node. Hash recorded
        # before a node's holders were recorded at launch instead of at
        # placement.
        digest = hashlib.sha256()
        ties = collections.Counter()
        for seed in range(400):
            args, kwargs = tied_job(seed)
            log = run_simulated(*args, **kwargs)
            digest.update(log_bytes(log))
            for fault in log:
                if fault.kind != ev.NODE_FAILED:
                    continue
                ties.update(
                    (e.kind, fault.detail) for e in log
                    if e.ts == fault.ts and e.task_uid is not None
                    and fault.node_ids[0] in (e.node_ids or ())
                )
        # every tie the hash is meant to guard was taken, under both kinds
        # of fault
        for kind in (ev.TASK_SCHEDULED, ev.TASK_LAUNCHED, ev.TASK_DONE,
                     ev.TASK_FAILED, ev.TASK_CANCELED):
            for detail in ("persistent", "transient"):
                assert ties[kind, detail] > 0, (kind, detail)
        assert digest.hexdigest() == GOLDEN_TIED_FAULT_JOBS

    def test_doubling_every_time_doubles_every_timestamp(self):
        # the engine has no time scale of its own: doubling every duration,
        # delay and limit, and halving the launch rate, doubles each event's
        # ts and leaves the rest of the log and the fractions as they were
        for seed in range(200):
            (specs, platform, nodes, walltime, model), kwargs = random_job(seed)
            cap = kwargs["launch_rate_cap"]
            slow = run_simulated(
                specs,
                dataclasses.replace(
                    platform,
                    bootstrap_overhead_s=2 * platform.bootstrap_overhead_s,
                    policy=WalltimePolicy(tuple(
                        (n, 2 * w) for n, w in platform.policy.tiers)),
                ),
                nodes,
                2 * walltime,
                RuntimeModel("uniform", 2 * model.lo_s, 2 * model.hi_s,
                             model.seed),
                node_faults=tuple(
                    dataclasses.replace(f, at_ts=2 * f.at_ts)
                    for f in kwargs["node_faults"]),
                task_faults=kwargs["task_faults"],
                launch_delay_s=2 * kwargs["launch_delay_s"],
                launch_rate_cap=None if cap is None else cap / 2,
            )
            log = run_simulated(specs, platform, nodes, walltime, model,
                                **kwargs)
            assert len(slow) == len(log), seed
            for e, s in zip(list(log)[1:], list(slow)[1:]):
                assert s == e._replace(ts=2 * e.ts), seed
            fractions = [
                [u.utilization_fraction for u in units(stack)]
                for stack in map(compute_utilization, (log, slow))
            ]
            assert fractions[0] == fractions[1], seed

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_doubling_the_allocation_halves_every_fraction(self, seed):
        # the nodes a job never reached add capacity and no busy time: with
        # allocation_nodes doubled in JOB_START, every unit's busy seconds
        # stay and its fraction is exactly half (scaling by 2 is exact)
        args, kwargs = random_job(seed)
        log = run_simulated(*args, **kwargs)
        meta = json.loads(log[0].detail)
        meta["allocation_nodes"] *= 2
        wide = log_of([log[0]._replace(detail=json.dumps(meta)), *log[1:]])
        for u, w in zip(*map(units, map(compute_utilization, (log, wide)))):
            assert w.busy_s == u.busy_s
            assert w.utilization_fraction == u.utilization_fraction / 2

    @given(seed=st.integers(0, 2**32 - 1), node=st.integers(0, 4),
           where=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           persistent=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_a_fault_after_job_end_changes_nothing(self, seed, node, where,
                                                   persistent):
        # a job that ended before its walltime logs the same bytes when a
        # node fault is added between its JOB_END and its walltime
        (specs, platform, nodes, walltime, model), kwargs = random_job(seed)
        log = run_simulated(specs, platform, nodes, walltime, model, **kwargs)
        end = log.job_end_ts()
        at = end + where * (walltime - end)
        assume(end < at < walltime)
        fault = NodeFault(node % nodes, at, persistent)
        kwargs["node_faults"] += (fault,)
        late = run_simulated(specs, platform, nodes, walltime, model, **kwargs)
        assert log_bytes(late) == log_bytes(log)


def units(stack):
    return stack.nodes, stack.cores, stack.gpus


def log_bytes(log) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        log.save_jsonl(path)
        with open(path, "rb") as f:
            return f.read()


def random_job(seed):
    """The run_simulated arguments of one small job drawn from ``seed``:
    the positional ones, and the faults, launch delay and rate cap by
    keyword."""
    rng = random.Random(seed)
    nodes = rng.randint(2, 5)
    cores, gpus = rng.choice((4, 6, 8)), rng.choice((0, 2, 4))
    platform = small_platform(cores=cores + 1, reserved=1, gpus=gpus,
                              nodes=nodes, bootstrap=rng.choice((0.0, 5.0)))
    specs = []
    for p in range(rng.randint(1, 3)):
        stages = []
        for s in range(rng.randint(1, 4)):
            tasks = []
            for t in range(rng.randint(1, 6)):
                threads = rng.randint(1, 2)
                gpus_pp = rng.randint(0, 1) if gpus else 0
                per_node = cores // threads
                if gpus_pp:
                    per_node = min(per_node, gpus // gpus_pp)
                # up to every node, the last chunk often a remainder
                procs = rng.randint(1, per_node * rng.choice((1, 1, 2, nodes)))
                tasks.append(make_task(f"p{p}s{s}t{t}", procs=procs,
                                       threads=threads, gpus=gpus_pp))
            stages.append(Stage(name=f"s{s}", tasks=tuple(tasks)))
        specs.append(WorkflowSpec(name=f"p{p}", stages=tuple(stages)))
    walltime = rng.choice((60.0, 150.0, 400.0, 5000.0))
    uids = [t.uid for spec in specs for t in spec.tasks()]
    faults = {
        "node_faults": tuple(
            NodeFault(rng.randrange(nodes), rng.uniform(0.0, walltime),
                      persistent=rng.random() < 0.5)
            for _ in range(rng.randint(0, 2))
        ),
        "task_faults": tuple(
            TaskFault(uid, rng.uniform(0.1, 1.0))
            for uid in rng.sample(uids, rng.randint(0, min(3, len(uids))))
        ),
    }
    model = RuntimeModel("uniform", 10.0, 100.0, seed=seed)
    launch = {"launch_delay_s": rng.choice((0.0, 0.5, 3.0)),
              "launch_rate_cap": rng.choice((None, 0.05, 0.2, 2.0))}
    return (specs, platform, nodes, walltime, model), {**faults, **launch}


def tied_job(seed):
    """:func:`random_job`'s job for ``seed`` with its times on a 5 s grid,
    so that events tie: each task runs its expected_runtime_s hint of 5 to
    30 s, 1 to 4 node faults fire at multiples of 5 s, and the launch delay
    and rate cap are whole multiples or fractions of 5 s."""
    (specs, platform, nodes, walltime, _), kwargs = random_job(seed)
    rng = random.Random(f"tied/{seed}")
    specs = [
        dataclasses.replace(spec, stages=tuple(
            dataclasses.replace(stage, tasks=tuple(
                dataclasses.replace(t, expected_runtime_s=5.0 * rng.randint(1, 6))
                for t in stage.tasks
            ))
            for stage in spec.stages
        ))
        for spec in specs
    ]
    kwargs["node_faults"] = tuple(
        NodeFault(rng.randrange(nodes), 5.0 * rng.randint(0, int(walltime) // 5),
                  persistent=rng.random() < 0.5)
        for _ in range(rng.randint(1, 4))
    )
    kwargs["launch_delay_s"] = rng.choice((0.0, 5.0))
    kwargs["launch_rate_cap"] = rng.choice((None, 0.2, 1.0))
    return (specs, platform, nodes, walltime, RuntimeModel()), kwargs


GOLDEN_RANDOM_JOBS = (
    "4164f21ab5bfbf84494b52d0b5943ed03b75943f314291855956c8a10bf8722a"
)
GOLDEN_TIED_FAULT_JOBS = (
    "a27327ed02e440b60fb6d17011a59b8b5fc7467b6234dc3ebf4cb53fbe1b627f"
)


class TurnState(SimState):
    """A SimState that notes the log's length and the table's free cores at
    each advance, so each turn of the pilot's drive loop (one step plus the
    placement after it) can be read back with the free cores it left."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.marks = []

    def advance(self):
        self.marks.append((len(self.log), list(self.pilot.table.free_cores)))
        super().advance()

    def turn_after(self, kind, uid):
        """Drive the job; the turn after the one that logged ``kind`` for
        ``uid``, as its events and the free cores it left."""
        self.pilot.drive(self)
        marks = [*self.marks, (len(self.log), self.pilot.table.free_cores)]
        turns = [
            (self.log[a:b], free)
            for (a, _), (b, free) in zip(marks, marks[1:])
        ]
        for i, (events, _) in enumerate(turns):
            if any(e.kind == kind and e.task_uid == uid for e in events):
                return turns[i + 1]
        raise AssertionError(f"never saw {kind}")


class TestStep:
    def make_state(self, n_tasks=2, nodes=1, **kw):
        platform = small_platform(nodes=nodes)
        wf = single_stage(
            "s", [make_task(f"t{i}", procs=8) for i in range(n_tasks)]
        )
        return TurnState(
            [wf], platform, nodes, 100000.0, FIXED_100, **kw
        )

    def test_completion_refills_queue_at_same_ts(self):
        state = self.make_state(n_tasks=2, nodes=1)
        # the next pending event after t0's launch is its completion; one
        # turn must both finish t0 and schedule t1 at the identical timestamp
        new, _ = state.turn_after(ev.TASK_LAUNCHED, "t0")
        kinds = [(e.kind, e.task_uid) for e in new]
        assert (ev.TASK_DONE, "t0") in kinds
        assert (ev.TASK_SCHEDULED, "t1") in kinds
        done_ts = next(e.ts for e in new if e.kind == ev.TASK_DONE)
        sched_ts = next(e.ts for e in new if e.kind == ev.TASK_SCHEDULED)
        assert done_ts == sched_ts

    def test_completion_with_empty_queue_only_releases(self):
        state = self.make_state(n_tasks=1, nodes=1)
        turn, free_cores = state.turn_after(ev.TASK_LAUNCHED, "t0")
        new = [(e.kind, e.task_uid) for e in turn]
        assert (ev.TASK_DONE, "t0") in new
        assert not any(k == ev.TASK_SCHEDULED for k, _ in new)
        assert free_cores[0] == 8

    def test_step_applies_one_heap_event(self):
        state = self.make_state(n_tasks=2, nodes=1)
        pending = len(state.heap)
        assert step(state) is state
        # the bootstrap boots the job; placing its first stage is the loop's
        assert len(state.heap) == pending - 1
        assert [e.kind for e in state.log] == [ev.JOB_START, ev.BOOTSTRAP_DONE]
        assert [desc.uid for desc in state.pilot.queue] == ["t0", "t1"]

    def test_ten_thousand_node_faults_run_to_job_end(self, tmp_path,
                                                     capsys):
        # each node fault is a step of its own, so the steps of a job grow
        # with its faults as well as its tasks: here past 200 per task plus
        # 10,000. Node 1 holds no running task when its faults fire.
        platform = small_platform(nodes=2)
        wf = single_stage("s", [make_task("t0", procs=8)])
        faults = [NodeFault(1, 50.0, persistent=False)] * 10_300
        log = run_simulated(wf, platform, 2, 1000.0, FIXED_100,
                            node_faults=faults)
        assert log[-1].kind == ev.JOB_END
        assert kinds_for(log, "t0")[-1] == ev.TASK_DONE
        assert sum(e.kind == ev.NODE_FAILED for e in log) == 10_300
        # a two-task toy workflow on two Frontier nodes, whose faults fire
        # during the 85 s bootstrap
        wf_path, out = tmp_path / "toy.json", tmp_path / "run.jsonl"
        assert main(["example", "--example", "toy", "--tasks", "1",
                     "--out", str(wf_path)]) == 0
        flags = ["--fail-node", *["1@10:transient"] * 10_500]
        assert main(["simulate", "--workflow", str(wf_path), "--nodes", "2",
                     *flags, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        log = EventLog.load_jsonl(out)
        assert log[-1].kind == ev.JOB_END
        assert log[-1].detail == "done=2 failed=0 canceled=0"

    def test_steps_stay_within_the_pushed_entries(self, monkeypatch):
        # a step pops one entry, and a job pushes only the bootstrap, the
        # walltime, its F node faults, one launch per placed task and one
        # end per launched task: at most 2 + F + 2T steps for T tasks. The
        # bootstrap, each launch and each node fault that fired took a step
        # each.
        steps = []

        def counted(state):
            steps.append(state)
            return step(state)

        monkeypatch.setattr(engine, "step", counted)
        for seed in range(300):
            args, kwargs = random_job(seed)
            steps.clear()
            log = run_simulated(*args, **kwargs)
            tasks = sum(spec.task_count() for spec in args[0])
            fired = sum(e.kind in (ev.TASK_LAUNCHED, ev.NODE_FAILED)
                        for e in log)
            bound = 2 + len(kwargs["node_faults"]) + 2 * tasks
            assert 1 + fired <= len(steps) <= bound, seed

    def test_simultaneous_events_total_order(self):
        """All 3-event permutations at one timestamp pop as completions,
        then failures, then launches."""
        import heapq

        from ensemblekit.engine import (
            _PRIO_COMPLETE,
            _PRIO_FAIL,
            _PRIO_LAUNCH,
        )

        entries = [
            (50.0, _PRIO_COMPLETE, "a", "complete"),
            (50.0, _PRIO_FAIL, "b", "task_fail"),
            (50.0, _PRIO_LAUNCH, "c", "launch"),
        ]
        for perm in itertools.permutations(entries):
            heap = []
            for seq, entry in enumerate(perm):
                ts, prio, uid, action = entry
                heapq.heappush(heap, (ts, prio, uid, seq, action))
            popped = [heapq.heappop(heap)[4] for _ in range(3)]
            assert popped == ["complete", "task_fail", "launch"]

    def test_simultaneous_events_in_simulation(self):
        # engineer DONE, FAILED and LAUNCHED all at ts=100 via a launch cap:
        # launches at 0, 50 and 100; the first completes at 100, the second
        # (task-faulted at half its runtime) fails at 100
        platform = small_platform(nodes=3)
        wf = single_stage("s", [make_task(f"t{i}", procs=8) for i in range(3)])
        log = run_simulated(
            wf,
            platform,
            3,
            100000.0,
            FIXED_100,
            task_faults=(TaskFault("t1", 0.5),),
            launch_rate_cap=0.02,
        )
        at_100 = [
            (e.kind, e.task_uid) for e in log if e.ts == 100.0
            and e.kind in (ev.TASK_DONE, ev.TASK_FAILED, ev.TASK_LAUNCHED)
        ]
        assert at_100 == [
            (ev.TASK_DONE, "t0"),
            (ev.TASK_FAILED, "t1"),
            (ev.TASK_LAUNCHED, "t2"),
        ]
