"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
stream; tolerances are pinned in the assertions.
"""

import os
import random
import time

from ensemblekit import events as ev
from ensemblekit.cli import main as cli_main
from ensemblekit.engine import (
    DurationSpec,
    FailureModel,
    RuntimeModel,
    run_simulated,
)
from ensemblekit.local import run_local
from ensemblekit.metrics import (
    compute_utilization,
    concurrency_series,
    task_timelines,
    throughput,
)
from ensemblekit.platform import get_profile, task_footprint
from ensemblekit.pst import Stage, WorkflowSpec
from ensemblekit.resilience import (
    collect_failures,
    plan_resubmission,
    retry_loop,
)
from ensemblekit.scheduler import (
    Pilot,
    SlotTable,
    release,
    try_place,
)
from ensemblekit.workloads import generate_example
from conftest import (
    exaconstit_task,
    make_task,
    oracle_counts_at,
    oracle_usage,
    random_complete_log,
    simulated_attempts,
    single_stage,
    small_platform,
)

# Calibrated member runtime: uniform with mean 922 s, the per-task average
# implied by 90% utilization of 8000 nodes over an 8074 s job running
# 7875 eight-node members.
CALIBRATED = DurationSpec.uniform(600.0, 1244.0)


def check(criterion: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion} failed: {detail}"


def frontier_ensemble(n=7875):
    return single_stage(
        "members", [exaconstit_task(f"m{i:05d}") for i in range(n)]
    )


def test_criterion_1_frontier_scale_reproduction():
    platform = get_profile("frontier-sim")
    wf = frontier_ensemble()
    t0 = time.monotonic()
    log = run_simulated(
        wf, platform, 8000, 12000.0, RuntimeModel(default=CALIBRATED, seed=1)
    )
    stack = compute_utilization(log, platform.node, 8000)
    series = concurrency_series(log)
    wall = time.monotonic() - t0

    util = stack.nodes.utilization_fraction
    peak = max(p.n_running for p in series.points)
    ovh = log.bootstrap_ts()
    end = log.job_end_ts()
    ttx = end - ovh
    identity_err = abs((ovh + ttx) - end) / end

    check(
        "1a node-utilization 0.90 +/- 0.03",
        abs(util - 0.90) <= 0.03,
        f"utilization={util:.4f}",
    )
    check("1b peak running concurrency exactly 1000", peak == 1000,
          f"peak={peak}")
    check("1c OVH exactly 85 s", ovh == 85.0, f"ovh={ovh}")
    check("1d OVH+TTX = job runtime to 1e-9", identity_err <= 1e-9,
          f"rel_err={identity_err:.2e}")
    check("1e simulation wall-clock <= 60 s", wall <= 60.0, f"wall={wall:.1f}s")


def test_criterion_2_throughput_substitutes():
    platform = get_profile("frontier-sim")

    # launch-rate cap must be recovered by the measurement
    wf = frontier_ensemble(1500)
    log = run_simulated(
        wf, platform, 8000, 12000.0,
        RuntimeModel(default=CALIBRATED, seed=2), launch_rate_cap=51.0,
    )
    rates = throughput(log, concurrency_series(log))
    measured = rates.launching_rate_tasks_per_s
    check(
        "2a measured launching rate 51 +/- 5%",
        measured is not None and abs(measured - 51.0) <= 0.05 * 51.0,
        f"rate={measured}",
    )

    # placing all 7875 members through the 8000-node table in <= 30 s
    wf = frontier_ensemble()
    t0 = time.monotonic()
    pilot = Pilot([wf], platform, 8000)
    pilot.boot(0.0)
    table = pilot.table
    placed = 0
    while pilot.queue:
        wave = []
        while (run := pilot.place(0.0)) is not None:
            wave.append(run.desc.uid)
        placed += len(wave)
        for uid in wave:
            release(table, table.placement_of(uid))
    wall = time.monotonic() - t0
    check(
        "2b 7875 placements through 8000-node table <= 30 s",
        placed == 7875 and wall <= 30.0,
        f"placed={placed} wall={wall:.1f}s",
    )


def test_criterion_3_fault_tolerance_reproduction():
    platform = get_profile("frontier-sim")
    wf = single_stage("members", [exaconstit_task(f"m{i:03d}") for i in range(48)])
    fault = FailureModel.persistent_node(2, 700.0)
    model = RuntimeModel(default=CALIBRATED, seed=3)
    runner = simulated_attempts(platform, model, fault)
    logs, unresolved = retry_loop(
        wf, platform, runner, 64, 7200.0, max_attempts=2
    )

    first = logs[0]
    failed = {e.task_uid for e in first if e.kind == ev.TASK_FAILED}
    timelines = task_timelines(first)
    ever_held = {
        uid for uid, tl in timelines.items()
        if 2 in tl.node_ids and tl.terminal_ts >= 700.0
    }
    check(
        "3a exactly the tasks that ever held the bad node fail",
        failed == ever_held and len(failed) >= 1,
        f"failed={len(failed)} held={len(ever_held)}",
    )
    check("3b retry_loop(max_attempts=2) resolves everything",
          unresolved == [], f"unresolved={[r.uid for r in unresolved]}")

    records = collect_failures(first, wf)
    plan = plan_resubmission(records, wf, platform, 64)
    original_order = [s.name for s in wf.stages]
    plan_order = [s.name for s in plan.workflow.stages]
    is_subsequence = all(name in original_order for name in plan_order) and (
        sorted(map(original_order.index, plan_order))
        == list(map(original_order.index, plan_order))
    )
    check("3c retry plan preserves original stage order", is_subsequence,
          f"plan stages={plan_order}")

    # multiset identity over 200 random fault scenarios
    bad = 0
    for seed in range(200):
        rng = random.Random(seed)
        n_stages = rng.randint(1, 3)
        uid = 0
        stages = []
        for s in range(n_stages):
            tasks = []
            for _ in range(rng.randint(1, 4)):
                tasks.append(make_task(f"t{uid:03d}", procs=8))
                uid += 1
            stages.append(Stage(name=f"s{s}", tasks=tuple(tasks)))
        spec = WorkflowSpec(name=f"chain{seed}", stages=tuple(stages))
        nodes = rng.randint(2, 4)
        fault_models = (
            FailureModel.persistent_node(
                rng.randrange(nodes), rng.uniform(1.0, 400.0)
            ),
        )
        runner = simulated_attempts(
            platform_for(nodes),
            RuntimeModel(default=DurationSpec.uniform(10.0, 100.0), seed=seed),
            *fault_models,
        )
        logs, unresolved = retry_loop(
            spec, platform_for(nodes), runner, nodes, 50000.0,
            max_attempts=rng.randint(1, 3),
        )
        all_uids = {t.uid for t in spec.tasks()}
        done: set[str] = set()
        ok = True
        for i, log in enumerate(logs):
            done_k = {e.task_uid for e in log if e.kind == ev.TASK_DONE}
            failed_k = {e.task_uid for e in log if e.kind == ev.TASK_FAILED}
            if done & done_k:
                ok = False  # a task may succeed once across the chain
            done |= done_k
            if i + 1 < len(logs):
                planned = {
                    e.task_uid for e in logs[i + 1]
                    if e.kind in ev.TERMINAL_KINDS
                }
                if planned != failed_k:
                    ok = False
        if done | {r.uid for r in unresolved} != all_uids:
            ok = False
        if not ok:
            bad += 1
    check("3d multiset identity DONE u planned u unresolved = original "
          "(200 seeds)", bad == 0, f"violations={bad}")


def platform_for(nodes):
    return small_platform(cores=8, reserved=0, gpus=0, nodes=nodes,
                          max_walltime=1e6)


def test_criterion_4_oracle_equivalences():
    rng = random.Random(12345)
    platform = small_platform(cores=8, gpus=2, nodes=8)
    worst_rel = 0.0
    mismatches = 0
    for _ in range(500):
        log, task_events, boot, end = random_complete_log(rng)
        stack = compute_utilization(log, platform.node, 8)
        nodes, cores, gpus = oracle_usage(task_events, boot, end, 8, 8, 2)
        for got, want in (
            (stack.nodes.busy_s, nodes),
            (stack.cores.busy_s, cores),
            (stack.gpus.busy_s, gpus),
        ):
            err = abs(got - want) / max(abs(want), 1.0)
            worst_rel = max(worst_rel, err)
            if err > 1e-9:
                mismatches += 1
        series = concurrency_series(log)
        for point in series.points:
            pending, running = oracle_counts_at(task_events, point.ts)
            if (point.n_scheduled_pending_launch, point.n_running) != (
                pending, running,
            ):
                mismatches += 1
    check(
        "4 metrics match brute-force recomputation on 500 random logs",
        mismatches == 0,
        f"mismatches={mismatches} worst_rel={worst_rel:.2e}",
    )


def test_criterion_5_scheduler_safety():
    violations = 0
    for seed in range(1000):
        rng = random.Random(seed)
        cores, gpus = rng.choice([(8, 0), (8, 2), (16, 4)])
        n_nodes = rng.randint(2, 6)
        table = SlotTable(
            small_platform(cores=cores, gpus=gpus, nodes=n_nodes).node, n_nodes
        )
        initial = (list(table.free_cores), list(table.free_gpus))
        active = {}
        for i in range(rng.randint(5, 40)):
            op = rng.random()
            if op < 0.45 or not active:
                desc = make_task(
                    f"t{i}",
                    procs=rng.randint(1, 2 * cores),
                    threads=rng.randint(1, 2),
                    gpus=rng.randint(0, 1) if gpus else 0,
                )
                try:
                    footprint = task_footprint(desc, table.node)
                except Exception:
                    continue
                if footprint[0] > n_nodes:
                    continue
                placement = try_place(table, desc, footprint)
                if placement is not None:
                    active[desc.uid] = placement
            else:
                uid = rng.choice(sorted(active))
                release(table, active.pop(uid))
            for node_id in range(n_nodes):
                if not 0 <= table.free_cores[node_id] <= cores:
                    violations += 1
                if not 0 <= table.free_gpus[node_id] <= gpus:
                    violations += 1
        for placement in active.values():
            release(table, placement)
        for node_id in range(n_nodes):
            if (
                table.free_cores[node_id] != initial[0][node_id]
                or table.free_gpus[node_id] != initial[1][node_id]
            ):
                violations += 1
    check(
        "5 no oversubscription and exact conservation over 1000 sequences",
        violations == 0,
        f"violations={violations}",
    )


def test_criterion_6_pst_semantics():
    platform = small_platform(cores=8, nodes=4, max_walltime=1e6)

    # randomized traces: stage k+1 never schedules before stage k completes
    ordering_violations = 0
    for seed in range(50):
        rng = random.Random(1000 + seed)
        stages = []
        uid = 0
        for s in range(rng.randint(2, 4)):
            tasks = tuple(
                make_task(f"t{uid + i:03d}", procs=rng.choice([4, 8]))
                for i in range(rng.randint(1, 5))
            )
            uid += len(tasks)
            stages.append(Stage(name=f"s{s}", tasks=tasks))
        spec = WorkflowSpec(name=f"wf{seed}", stages=tuple(stages))
        log = run_simulated(
            spec, platform, 4, 1e6,
            RuntimeModel(default=DurationSpec.uniform(5.0, 50.0), seed=seed),
        )
        timelines = task_timelines(log)
        stage_of = spec.stage_index()
        for k in range(len(stages) - 1):
            this_stage_end = max(
                timelines[t.uid].terminal_ts for t in stages[k].tasks
            )
            next_stage_start = min(
                timelines[t.uid].sched_ts for t in stages[k + 1].tasks
            )
            if next_stage_start < this_stage_end:
                ordering_violations += 1
    check("6a no stage k+1 task schedules before stage k completes (50 runs)",
          ordering_violations == 0, f"violations={ordering_violations}")

    # tasks of one stage overlap when capacity allows
    wf = single_stage("s", [make_task("a", procs=8, expected=100.0),
                            make_task("b", procs=8, expected=100.0)])
    log = run_simulated(wf, platform, 2, 1e6,
                        RuntimeModel(default=DurationSpec.expected()))
    series = concurrency_series(log)
    check("6b same-stage tasks overlap when capacity allows",
          max(p.n_running for p in series.points) == 2)

    # two pipelines progress independently
    slow = single_stage("slow", [make_task("slowtask", procs=8, expected=500.0)],
                        workflow_name="p-slow")
    fast = WorkflowSpec(
        name="p-fast",
        stages=(
            Stage(name="f0", tasks=(make_task("f0", expected=10.0),)),
            Stage(name="f1", tasks=(make_task("f1", expected=10.0),)),
        ),
    )
    log = run_simulated([slow, fast], platform, 4, 1e6,
                        RuntimeModel(default=DurationSpec.expected()))
    timelines = task_timelines(log)
    check(
        "6c pipelines progress independently",
        timelines["f1"].sched_ts < timelines["slowtask"].terminal_ts,
    )


def test_criterion_7_local_backend_end_to_end(tmp_path, capsys):
    wf = generate_example(
        "uq-stage1",
        {"cases": 4, "uq_params": 2, "desk": True, "sleep_s": 0.01},
    )
    platform = get_profile("local")
    max_parallel = min(2, os.cpu_count() or 1)
    log = run_local(wf, platform, max_parallel, tmp_path)
    done = sum(1 for e in log if e.kind == ev.TASK_DONE)
    # the mock payloads verify the file handoff themselves: a task exits
    # nonzero if its upstream marker file is missing
    markers = sorted(p.name for p in tmp_path.glob("*.done"))
    check(
        "7a uq-stage1 runs locally with correct stage ordering",
        done == wf.task_count() and len(markers) == wf.task_count(),
        f"done={done}/{wf.task_count()} markers={len(markers)}",
    )
    log_path = tmp_path / "events.jsonl"
    log.save_jsonl(log_path)
    code = cli_main(["report", "--log", str(log_path),
                     "--out", str(tmp_path / "report")])
    import csv

    identity_ok = code == 0
    with open(tmp_path / "report_utilization.csv") as f:
        for row in csv.DictReader(f):
            total = (
                float(row["ovh_s"]) + float(row["busy_s"]) + float(row["idle_s"])
            )
            if abs(total - float(row["capacity_s"])) > 1e-9 * max(
                float(row["capacity_s"]), 1.0
            ):
                identity_ok = False
    check("7b cmd_report accounting identity on the local log", identity_ok)


def test_criterion_8_determinism(tmp_path):
    platform = get_profile("frontier-sim")
    wf = single_stage("members", [exaconstit_task(f"m{i:03d}") for i in range(64)])
    model = RuntimeModel(default=CALIBRATED, seed=17)
    fault = FailureModel.persistent_node(5, 900.0)

    log_bytes = []
    export_bytes = []
    for i in range(2):
        log = run_simulated(wf, platform, 128, 21600.0, model, fault,
                            launch_rate_cap=200.0)
        log_path = tmp_path / f"run{i}.jsonl"
        log.save_jsonl(log_path)
        log_bytes.append(log_path.read_bytes())
        code = cli_main(["report", "--log", str(log_path),
                         "--out", str(tmp_path / f"rep{i}"), "--format", "csv"])
        assert code == 0
        blob = b""
        for suffix in ("utilization", "concurrency", "rates"):
            blob += (tmp_path / f"rep{i}_{suffix}.csv").read_bytes()
        export_bytes.append(blob)

    check("8a identical seeds give byte-identical event logs",
          log_bytes[0] == log_bytes[1])
    check("8b identical seeds give byte-identical report exports",
          export_bytes[0] == export_bytes[1])
