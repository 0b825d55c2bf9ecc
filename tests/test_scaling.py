"""Scaling pins: the bytecodes a layer runs grow linearly in its tasks.

Each pin counts the bytecodes of one call (:func:`conftest.count_bytecodes`)
at n, 2n and 4n tasks and bounds the ratio of each doubling. A count is
exact within one Python minor version, so the ratios are deterministic. A
linear cost with a fixed part doubles to a little under 2, the bound:
1.943 to 1.997 on 3.10 to 3.13. A cost that makes a pass over the tasks
for each task, or for each event, doubles to 3 or more at these sizes.
Counts do not see C-level work: a scan done inside one builtin, such as
``uid in a_list``, goes uncounted.
"""

from __future__ import annotations

import pytest

from ensemblekit import metrics
from ensemblekit.engine import RuntimeModel, run_simulated
from ensemblekit.platform import get_profile
from ensemblekit.pst import WorkflowSpec
from ensemblekit.workloads import generate_example
from conftest import count_bytecodes

# the smallest size; the pins count at N, 2N and 4N tasks
N = 100
# the most a count may grow when the tasks double
_DOUBLING = 2.0


def _ratios(counts: list[int]) -> list[float]:
    return [later / earlier for earlier, later in zip(counts, counts[1:])]


def _headline(members: int) -> WorkflowSpec:
    """The headline workflow: 8-node exaconstit members."""
    return generate_example(
        "exaconstit", {"tasks": members, "optimizer": False, "seed": 1}
    )


# each shape's workflow at about n tasks: the headline's n members, and the
# local-desk shape's n // 10 cases of 10 UQ parameters (n + n // 10 + 3
# tasks; 443 at n = 400, the local-desk workload)
_WORKFLOWS = {
    "headline": _headline,
    "local-desk": lambda n: generate_example(
        "uq-stage1",
        {"cases": n // 10, "uq_params": 10, "desk": True, "sleep_s": 0},
    ),
}


@pytest.mark.parametrize("shape", sorted(_WORKFLOWS))
def test_workflow_load_grows_linearly(tmp_path, shape):
    counts = []
    for size in (N, 2 * N, 4 * N):
        path = tmp_path / f"{size}.json"
        _WORKFLOWS[shape](size).save(path)
        counts.append(count_bytecodes(WorkflowSpec.load, path))
    assert max(_ratios(counts)) <= _DOUBLING, counts


@pytest.fixture(scope="module")
def headline_logs():
    """The headline shape simulated at N, 2N and 4N members on 8 nodes a
    member, so that every member is scheduled at once."""
    return [
        run_simulated(
            _headline(size), get_profile("frontier-sim"), 8 * size, 12000.0,
            RuntimeModel("uniform", 600.0, 1244.0, seed=1),
        )
        for size in (N, 2 * N, 4 * N)
    ]


@pytest.mark.parametrize(
    "fold", [metrics.concurrency_series, metrics.compute_utilization],
    ids=lambda fold: fold.__name__,
)
def test_log_folds_grow_linearly(headline_logs, fold):
    counts = [count_bytecodes(fold, log) for log in headline_logs]
    assert max(_ratios(counts)) <= _DOUBLING, counts
