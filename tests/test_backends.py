"""Both backends run a job through the one pilot loop. On a 1-node, 1-core
machine, one task at a time, a local run and a simulated run of the same
workflow log the same events in the same order; only the timestamps and
the JOB_START metadata differ."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ensemblekit import events as ev
from ensemblekit.cli import main
from ensemblekit.engine import (
    RuntimeModel,
    TaskFault,
    run_simulated,
)
from ensemblekit.events import EventLog
from ensemblekit.local import run_local
from ensemblekit.pst import Stage, WorkflowSpec
from conftest import make_task, save_platform, small_platform

ONE_CORE = small_platform(cores=1, nodes=1)
ONE_SECOND = RuntimeModel("fixed", 1.0)


def untimed(log):
    """Every event after JOB_START, without its ts; a failure's detail,
    which says how the backend saw it fail, reads ``failed``."""
    return [
        (kind, uid, node_ids, "failed" if kind == ev.TASK_FAILED else detail)
        for _, kind, uid, node_ids, detail in log[1:]
    ]


def test_run_and_simulate_log_the_same_events(tmp_path):
    platform = tmp_path / "one-core.json"
    save_platform(ONE_CORE, platform)
    wf = tmp_path / "wf.json"
    assert main(["example", "--example", "uq-stage1", "--desk", "--cases",
                 "3", "--uq-params", "2", "--sleep", "0",
                 "--out", str(wf)]) == 0
    assert main(["run", "--workflow", str(wf), "--platform", str(platform),
                 "--max-parallel", "1", "--out", str(tmp_path / "run")]) == 0
    assert main(["simulate", "--workflow", str(wf), "--platform",
                 str(platform), "--nodes", "1", "--runtime", "fixed:1",
                 "--out", str(tmp_path / "sim.jsonl")]) == 0
    ran = EventLog.load_jsonl(tmp_path / "run" / "events.jsonl")
    simulated = EventLog.load_jsonl(tmp_path / "sim.jsonl")
    assert untimed(ran) == untimed(simulated)
    assert len(untimed(ran)) == 38
    assert ran[-1].detail == "done=12 failed=0 canceled=0"


# per pipeline, per stage, per task: whether the task fails
_JOBS = st.lists(
    st.lists(st.lists(st.booleans(), min_size=1, max_size=3),
             min_size=1, max_size=3),
    min_size=1, max_size=2,
)


@settings(max_examples=25, deadline=None)
@given(job=_JOBS)
def test_one_core_jobs_log_the_same_events_on_both_backends(
    tmp_path_factory, job
):
    specs, faults = [], []
    for p, stages in enumerate(job):
        built = []
        for s, fails in enumerate(stages):
            tasks = []
            for t, fail in enumerate(fails):
                uid = f"p{p}s{s}t{t}"
                tasks.append(make_task(
                    uid, executable="/bin/false" if fail else "/bin/true"
                ))
                if fail:
                    faults.append(TaskFault(uid, 1.0))
            built.append(Stage(name=f"s{s}", tasks=tuple(tasks)))
        specs.append(WorkflowSpec(name=f"p{p}", stages=tuple(built)))
    ran = run_local(specs, ONE_CORE, 1, tmp_path_factory.mktemp("run"))
    simulated = run_simulated(
        specs, ONE_CORE, 1, 10000.0, ONE_SECOND,
        task_faults=tuple(faults),
    )
    assert untimed(ran) == untimed(simulated)
