import csv
import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemblekit import events as ev
from ensemblekit import metrics
from ensemblekit.engine import (
    NodeFault,
    RuntimeModel,
    run_simulated,
)
from ensemblekit.errors import (
    EnsembleKitError,
    IncompleteLog,
    InsufficientData,
    MalformedLog,
)
from ensemblekit.events import Event, EventLog, scheduled_detail
from ensemblekit.metrics import (
    ConcurrencyPoint,
    ConcurrencySeries,
    RateSummary,
    compute_utilization,
    concurrency_series,
    export,
    throughput,
)
from ensemblekit.pst import Stage, WorkflowSpec
from ensemblekit.resilience import retry_loop
from conftest import (
    build_log,
    exaconstit_task,
    log_of,
    make_task,
    oracle_counts_at,
    oracle_usage,
    random_complete_log,
    single_stage,
    small_platform,
)


def write_jsonl(path, events):
    path.write_text("".join(json.dumps(e._asdict()) + "\n" for e in events))
    return path


def simple_task_events():
    # A holds node 0 over [10, 60], B holds node 1 over [10, 90]
    return [
        ("A", [0], [4], 1, 0, 10.0, 10.0, 60.0, ev.TASK_DONE),
        ("B", [1], [4], 1, 0, 10.0, 10.0, 90.0, ev.TASK_DONE),
    ]


class TestUtilization:
    def test_two_node_hand_integral(self):
        log = build_log(simple_task_events(), boot_ts=0.0, end_ts=100.0,
                        allocation_nodes=2)
        stack = compute_utilization(log)
        assert stack.nodes.busy_s == pytest.approx(130.0)
        assert stack.nodes.capacity_s == pytest.approx(200.0)
        assert stack.nodes.utilization_fraction == pytest.approx(0.65)

    def test_no_tasks(self):
        log = build_log([], boot_ts=5.0, end_ts=50.0, allocation_nodes=4)
        stack = compute_utilization(log)
        assert stack.nodes.utilization_fraction == 0.0
        assert stack.nodes.ovh_s == pytest.approx(4 * 5.0)
        assert stack.nodes.idle_s == pytest.approx(
            stack.nodes.capacity_s - stack.nodes.ovh_s
        )
        assert stack.gpus.busy_s == 0.0

    def test_accounting_identity_all_units(self):
        rng = random.Random(3)
        log, *_ = random_complete_log(rng)
        stack = compute_utilization(log)
        for unit in (stack.nodes, stack.cores, stack.gpus):
            total = unit.ovh_s + unit.busy_s + unit.idle_s
            assert total == pytest.approx(unit.capacity_s, rel=1e-9)

    def test_incomplete_log_rejected(self):
        log = build_log(simple_task_events(), end_ts=100.0)
        truncated = log_of(e for e in log if e.kind != ev.JOB_END)
        with pytest.raises(IncompleteLog):
            compute_utilization(truncated)

    def test_matches_per_instant_oracle_on_random_logs(self):
        rng = random.Random(11)
        regaps = 0  # nodes busy, then idle, then busy again
        for _ in range(50):
            log, task_events, boot, end = random_complete_log(rng)
            stack = compute_utilization(log)
            nodes, cores, gpus = oracle_usage(task_events, boot, end, 8, 8, 2)
            assert stack.nodes.busy_s == pytest.approx(nodes, rel=1e-9, abs=1e-9)
            assert stack.cores.busy_s == pytest.approx(cores, rel=1e-9, abs=1e-9)
            assert stack.gpus.busy_s == pytest.approx(gpus, rel=1e-9, abs=1e-9)
            regaps += busy_gaps(task_events)
        assert regaps > 0

    def test_node_busy_spans_add_in_time_order(self):
        # node 0 is busy over [0.1, 0.2] and [0.3, 0.4]: its busy
        # node-seconds add each span's length in time order, which the
        # pinned exports' bytes depend on; (0.4 - 0.1) + (0.2 - 0.3), the
        # same in exact arithmetic, rounds to another float
        events = [
            ("A", [0], [1], 1, 0, 0.1, 0.1, 0.2, ev.TASK_DONE),
            ("B", [0], [1], 1, 0, 0.3, 0.3, 0.4, ev.TASK_DONE),
        ]
        log = build_log(events, end_ts=0.5, allocation_nodes=1)
        busy = compute_utilization(log).nodes.busy_s
        assert busy == (0.2 - 0.1) + (0.4 - 0.3) != (0.4 - 0.1) + (0.2 - 0.3)

    def test_rounding_clamp_reached_at_equality(self, monkeypatch):
        # three full nodes busy from boot to end: the products and the sum
        # leave cores idle a few ulps below zero, which the clamp zeroes
        # when it is at most the rounding share of capacity, equality
        # included
        events = [(f"t{i}", [i], [8], 1, 0, 0.1, 0.1, 0.3, ev.TASK_DONE)
                  for i in range(3)]
        log = build_log(events, boot_ts=0.1, end_ts=0.3, allocation_nodes=3)
        monkeypatch.setattr(metrics, "_ROUNDING", 0.0)
        raw = compute_utilization(log).cores
        assert raw.idle_s < 0
        share = -raw.idle_s / raw.capacity_s
        assert share * raw.capacity_s == -raw.idle_s
        monkeypatch.setattr(metrics, "_ROUNDING", share)
        clamped = compute_utilization(log).cores
        assert clamped.idle_s == 0.0
        assert clamped.busy_s == clamped.capacity_s - clamped.ovh_s

    def test_scheduled_but_never_launched_counts_idle(self):
        events = [("A", [0], [1], 1, 0, 10.0, None, 30.0, ev.TASK_CANCELED)]
        log = build_log(events, end_ts=50.0, allocation_nodes=1)
        stack = compute_utilization(log)
        assert stack.nodes.busy_s == 0.0

    def test_recomputation_idempotent(self):
        log = build_log(simple_task_events(), end_ts=100.0, allocation_nodes=2)
        assert compute_utilization(log) == (
            compute_utilization(log)
        )


def busy_gaps(task_events):
    """How many times a node of ``task_events`` goes idle between two of
    its launched tasks."""
    spans = {}
    for _, node_ids, _, _, _, _, launch, term, _ in task_events:
        if launch is not None:
            for node in node_ids:
                spans.setdefault(node, []).append((launch, term))
    gaps = 0
    for runs in spans.values():
        runs.sort()
        until = runs[0][1]
        for launch, term in runs[1:]:
            gaps += launch > until
            until = max(until, term)
    return gaps


class TestConcurrencySeries:
    def test_serialized_tasks_peak_one(self):
        events = [
            ("A", [0], [1], 1, 0, 0.0, 0.0, 10.0, ev.TASK_DONE),
            ("B", [0], [1], 1, 0, 10.0, 10.0, 20.0, ev.TASK_DONE),
            ("C", [0], [1], 1, 0, 20.0, 20.0, 30.0, ev.TASK_DONE),
        ]
        log = build_log(events, end_ts=30.0)
        series = concurrency_series(log)
        assert max(p.n_running for p in series.points) == 1

    def test_matches_brute_force_recount_on_random_logs(self):
        rng = random.Random(23)
        for _ in range(60):
            log, task_events, *_ = random_complete_log(rng)
            series = concurrency_series(log)
            for point in series.points:
                pending, running = oracle_counts_at(task_events, point.ts)
                assert point.n_scheduled_pending_launch == pending
                assert point.n_running == running

    def test_counts_never_negative(self):
        rng = random.Random(5)
        for _ in range(30):
            log, *_ = random_complete_log(rng)
            for point in concurrency_series(log).points:
                assert point.n_scheduled_pending_launch >= 0
                assert point.n_running >= 0

    # an illegal lifecycle is rejected where the event enters the log, so
    # no reader ever sees it; through load_jsonl the message names the line

    def test_malformed_launch_without_schedule(self, tmp_path):
        events = [
            Event(ts=0.0, kind=ev.JOB_START),
            Event(ts=0.0, kind=ev.BOOTSTRAP_DONE),
            Event(ts=1.0, kind=ev.TASK_LAUNCHED, task_uid="x"),
        ]
        log = EventLog()
        for event in events[:-1]:
            log.append(event)
        with pytest.raises(MalformedLog):
            log.append(events[-1])
        assert len(log) == 2
        path = write_jsonl(tmp_path / "bad.jsonl", events)
        with pytest.raises(MalformedLog, match=re.escape(f"{path}:3: ")):
            EventLog.load_jsonl(path)

    def test_malformed_event_after_terminal(self, tmp_path):
        events = [
            Event(ts=0.0, kind=ev.JOB_START),
            Event(ts=1.0, kind=ev.TASK_SCHEDULED, task_uid="x",
                  node_ids=(0,), detail=scheduled_detail(1, 0, [1])),
            Event(ts=2.0, kind=ev.TASK_LAUNCHED, task_uid="x"),
            Event(ts=3.0, kind=ev.TASK_DONE, task_uid="x"),
            Event(ts=4.0, kind=ev.TASK_DONE, task_uid="x"),
        ]
        log = EventLog()
        for event in events[:-1]:
            log.append(event)
        with pytest.raises(MalformedLog):
            log.append(events[-1])
        assert len(log) == 4
        path = write_jsonl(tmp_path / "bad.jsonl", events)
        with pytest.raises(MalformedLog, match=re.escape(f"{path}:5: ")):
            EventLog.load_jsonl(path)


class TestThroughput:
    def test_uniform_schedule_rate(self):
        events = [
            (f"t{i}", [0], [1], 1, 0, i / 100.0, None, 2.0, ev.TASK_CANCELED)
            for i in range(11)
        ]
        log = build_log(events, end_ts=3.0)
        rates = throughput(log, concurrency_series(log))
        assert rates.scheduling_rate_tasks_per_s == pytest.approx(100.0)

    def test_rate_over_exactly_two_timestamps(self):
        # A starts at 1, B at 5 and both run to 10: two schedules and two
        # launches in the ramp, one interval of 4 s each
        events = [
            ("A", [0], [1], 1, 0, 1.0, 1.0, 10.0, ev.TASK_DONE),
            ("B", [1], [1], 1, 0, 5.0, 5.0, 10.0, ev.TASK_DONE),
        ]
        log = build_log(events, end_ts=10.0)
        rates = throughput(log, concurrency_series(log))
        assert rates.scheduling_rate_tasks_per_s == 0.25
        assert rates.launching_rate_tasks_per_s == 0.25

    def test_single_scheduled_insufficient(self):
        events = [("t", [0], [1], 1, 0, 1.0, 1.0, 2.0, ev.TASK_DONE)]
        log = build_log(events, end_ts=2.0)
        with pytest.raises(InsufficientData):
            throughput(log, concurrency_series(log))

    def test_launch_rate_cap_recovered(self, frontier):
        wf = single_stage(
            "members", [exaconstit_task(f"m{i:04d}") for i in range(400)]
        )
        log = run_simulated(
            wf, frontier, 800, 43200.0,
            RuntimeModel("uniform", 600.0, 1244.0, seed=4),
            launch_rate_cap=51.0,
        )
        rates = throughput(log, concurrency_series(log))
        assert rates.launching_rate_tasks_per_s == pytest.approx(51.0, rel=0.05)

    def test_bulk_schedule_has_undefined_rate(self):
        # all schedules at one instant: zero-width window, no rate
        events = [
            (f"t{i}", [i], [1], 1, 0, 5.0, 5.0 + i, 40.0 + i, ev.TASK_DONE)
            for i in range(4)
        ]
        log = build_log(events, end_ts=50.0)
        rates = throughput(log, concurrency_series(log))
        assert rates.scheduling_rate_tasks_per_s is None
        assert rates.launching_rate_tasks_per_s is not None


def csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestExport:
    # each export holds every field of its object: floats as repr in CSV,
    # exactly in JSON

    def test_stack_round_trips(self, tmp_path):
        log = build_log(simple_task_events(), end_ts=100.0, allocation_nodes=2)
        stack = compute_utilization(log)
        units = ("nodes", "cores", "gpus")
        fields = ["capacity_s", "ovh_s", "busy_s", "idle_s",
                  "utilization_fraction"]
        export(stack, "csv", tmp_path / "stack.csv")
        assert csv_rows(tmp_path / "stack.csv") == [["unit"] + fields] + [
            [unit] + [repr(getattr(getattr(stack, unit), f)) for f in fields]
            for unit in units
        ]
        export(stack, "json", tmp_path / "stack.json")
        assert json.loads((tmp_path / "stack.json").read_text()) == {
            unit: {f: getattr(getattr(stack, unit), f) for f in fields}
            for unit in units
        }

    def test_series_round_trips(self, tmp_path):
        rng = random.Random(2)
        log, *_ = random_complete_log(rng)
        series = concurrency_series(log)
        assert series.points
        export(series, "csv", tmp_path / "series.csv")
        assert csv_rows(tmp_path / "series.csv") == [
            ["ts", "n_scheduled_pending_launch", "n_running"]
        ] + [
            [repr(p.ts), str(p.n_scheduled_pending_launch), str(p.n_running)]
            for p in series.points
        ]
        export(series, "json", tmp_path / "series.json")
        assert json.loads((tmp_path / "series.json").read_text()) == {
            "points": [
                {"ts": p.ts,
                 "n_scheduled_pending_launch": p.n_scheduled_pending_launch,
                 "n_running": p.n_running}
                for p in series.points
            ]
        }

    def test_rates_round_trip_with_none(self, tmp_path):
        events = [
            (f"t{i}", [i], [1], 1, 0, 5.0, 5.0 + i, 40.0 + i, ev.TASK_DONE)
            for i in range(4)
        ]
        log = build_log(events, end_ts=50.0)
        rates = throughput(log, concurrency_series(log))
        assert rates.scheduling_rate_tasks_per_s is None
        fields = [f.name for f in dataclasses.fields(rates)]
        export(rates, "csv", tmp_path / "rates.csv")
        assert csv_rows(tmp_path / "rates.csv") == [["field", "value"]] + [
            [f, "" if getattr(rates, f) is None else repr(getattr(rates, f))]
            for f in fields
        ]
        export(rates, "json", tmp_path / "rates.json")
        assert json.loads((tmp_path / "rates.json").read_text()) == {
            f: getattr(rates, f) for f in fields
        }

    def test_json_export_matches_json_dumps(self, tmp_path):
        # the reference is json.dumps of asdict; None rates, an empty
        # series, and non-finite or off-schema field values go through
        # json.dumps as written
        def reference(obj):
            return json.dumps(dataclasses.asdict(obj), indent=2) + "\n"

        objs = [ConcurrencySeries(points=())]
        rng = random.Random(5)
        for _ in range(30):
            log, *_ = random_complete_log(rng)
            series = concurrency_series(log)
            objs += [compute_utilization(log), series]
            try:
                objs.append(throughput(log, series))
            except InsufficientData:
                pass
        stack, series = objs[1], objs[2]
        rates = next(o for o in objs if isinstance(o, RateSummary))
        objs += [
            dataclasses.replace(rates, ramp_end_ts=None, sched_count=True),
            dataclasses.replace(
                rates, scheduling_rate_tasks_per_s=float("inf"),
                launch_first_ts="xé", launch_count=[1, "a"],
            ),
            dataclasses.replace(
                stack,
                nodes=dataclasses.replace(
                    stack.nodes, busy_s=float("nan"), idle_s=-float("inf"),
                    ovh_s={"a": [1.5]}, capacity_s=2**70,
                ),
            ),
            ConcurrencySeries(points=series.points + (
                ConcurrencyPoint(float("nan"), None, 1.5),
            )),
        ]
        assert any(r.scheduling_rate_tasks_per_s is None for r in objs
                   if isinstance(r, RateSummary))
        path = tmp_path / "out.json"
        for obj in objs:
            export(obj, "json", path)
            assert path.read_text() == reference(obj)

    def test_series_csv_matches_the_csv_writer(self, tmp_path):
        # the reference writes every row through csv.writer, so a bool, an
        # int ts, None or a string that needs quoting reads as it does there
        def reference(series):
            with open(tmp_path / "ref.csv", "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(
                    ["ts", "n_scheduled_pending_launch", "n_running"]
                )
                for p in series.points:
                    writer.writerow(
                        [repr(p.ts), p.n_scheduled_pending_launch, p.n_running]
                    )
            return (tmp_path / "ref.csv").read_bytes()

        rng = random.Random(7)
        series = [concurrency_series(random_complete_log(rng)[0])
                  for _ in range(10)]
        series.append(ConcurrencySeries(points=series[0].points + tuple(
            ConcurrencyPoint(*fields) for fields in (
                (float("nan"), True, 2), (3, 1, 0), (1.5, None, 1.5),
                ("a,b", 1, 2), (-0.0, 0, 0), (float("inf"), 2**70, -1),
            )
        )))
        path = tmp_path / "out.csv"
        for obj in series:
            export(obj, "csv", path)
            assert path.read_bytes() == reference(obj)

    def test_empty_series_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export(ConcurrencySeries(points=()), "csv", path)
        lines = path.read_text().splitlines()
        assert lines == ["ts,n_scheduled_pending_launch,n_running"]

    def test_stack_csv_columns_re_add_to_capacity(self, tmp_path):
        log = build_log(simple_task_events(), end_ts=100.0, allocation_nodes=2)
        stack = compute_utilization(log)
        path = tmp_path / "stack.csv"
        export(stack, "csv", path)
        import csv as csvmod

        with open(path) as f:
            for row in csvmod.DictReader(f):
                total = (
                    float(row["ovh_s"]) + float(row["busy_s"]) + float(row["idle_s"])
                )
                assert total == pytest.approx(float(row["capacity_s"]), rel=1e-9)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unknown_object_or_format_writes_nothing(self, tmp_path, fmt):
        path = tmp_path / f"out.{fmt}"
        with pytest.raises(EnsembleKitError, match="cannot export dict"):
            export({"points": []}, fmt, path)
        with pytest.raises(EnsembleKitError, match="unknown export format"):
            export(ConcurrencySeries(points=()), fmt + "x", path)
        assert not path.exists()

    def test_exports_bit_stable(self, tmp_path):
        log = build_log(simple_task_events(), end_ts=100.0, allocation_nodes=2)
        stack = compute_utilization(log)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export(stack, "csv", a)
        export(stack, "csv", b)
        assert a.read_bytes() == b.read_bytes()


@st.composite
def simulated_jobs(draw):
    """A small platform, a workflow whose every task fits its allocation,
    node faults and launch timing for attempt 1, and a walltime that may
    cut the job short."""
    nodes = draw(st.integers(1, 4))
    cores = draw(st.integers(1, 8))
    gpus = draw(st.integers(0, 2))
    walltime = draw(st.floats(20.0, 400.0))
    platform = small_platform(cores=cores, gpus=gpus, nodes=nodes,
                              bootstrap=draw(st.floats(0.0, 10.0)),
                              max_walltime=walltime)
    stages, uid = [], 0
    for s in range(draw(st.integers(1, 3))):
        tasks = []
        for _ in range(draw(st.integers(1, 4))):
            threads = draw(st.integers(1, cores))
            gpus_pp = draw(st.integers(0, gpus))
            per_node = cores // threads
            if gpus_pp:
                per_node = min(per_node, gpus // gpus_pp)
            tasks.append(make_task(
                f"t{uid}", procs=draw(st.integers(1, per_node * nodes)),
                threads=threads, gpus=gpus_pp,
            ))
            uid += 1
        stages.append(Stage(name=f"s{s}", tasks=tuple(tasks)))
    faults = tuple(
        NodeFault(draw(st.integers(0, nodes - 1)),
                  draw(st.floats(0.0, walltime)), draw(st.booleans()))
        for _ in range(draw(st.integers(0, 3)))
    )
    launch = {
        "launch_delay_s": draw(st.floats(0.0, 5.0)),
        "launch_rate_cap": draw(st.none() | st.floats(0.01, 10.0)),
    }
    return (platform, WorkflowSpec(name="w", stages=tuple(stages)), nodes,
            walltime, faults, launch)


@given(job=simulated_jobs(), seed=st.integers(0, 3),
       max_attempts=st.integers(1, 3), retry_canceled=st.booleans())
@settings(max_examples=100, deadline=None)
def test_simulated_attempts_keep_accounting_in_bounds(
    job, seed, max_attempts, retry_canceled
):
    platform, spec, nodes, walltime, faults, launch = job
    model = RuntimeModel("uniform", 1.0, 100.0, seed=seed)

    def run_attempt(spec, attempt, nodes, walltime_s):
        return run_simulated(spec, platform, nodes, walltime_s, model,
                             node_faults=faults if attempt == 1 else (),
                             **launch)

    logs, _ = retry_loop(spec, platform, run_attempt, nodes, walltime,
                         max_attempts, retry_canceled)
    for log in logs:
        stack = compute_utilization(log)
        for unit in (stack.nodes, stack.cores, stack.gpus):
            assert 0 <= unit.busy_s <= unit.capacity_s, unit
            assert unit.idle_s >= 0, unit
