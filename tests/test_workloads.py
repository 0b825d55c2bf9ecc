import pytest

from ensemblekit.errors import ConfigError, UnknownShape
from ensemblekit.platform import NodeSpec, task_footprint
from ensemblekit.pst import validate_workflow
from ensemblekit.workloads import MAX_EXAMPLE_TASKS, SHAPES, generate_example

FRONTIER_NODE = NodeSpec(64, 8, 8)


@pytest.mark.parametrize("shape", SHAPES)
def test_every_shape_validates(shape):
    spec = generate_example(shape)
    assert validate_workflow(spec) == []


def test_exaca_cartesian_product():
    spec = generate_example("exaca", {"cases": 5, "uq_params": 4})
    micro = spec.stages[0]
    assert micro.name == "exaca-microstructure"
    assert len(micro.tasks) == 20
    # one task per (case, parameter) pair, all distinct
    pairs = {(t.tags["case"], t.tags["uq_param"]) for t in micro.tasks}
    assert len(pairs) == 20
    assert spec.stages[1].name == "exaca-analysis"


def test_exaca_single_node_decomposition():
    spec = generate_example("exaca")
    task = spec.stages[0].tasks[0]
    assert (
        task.cpu_processes,
        task.cpu_threads_per_process,
        task.gpus_per_process,
    ) == (8, 7, 1)
    assert task_footprint(task, FRONTIER_NODE) == (1, 8)


def test_exaconstit_member_count_and_footprint():
    spec = generate_example("exaconstit", {"tasks": 32})
    members = spec.stages[0].tasks
    assert len(members) == 32
    for task in members:
        assert task_footprint(task, FRONTIER_NODE) == (8, 8)
        assert 600.0 <= task.expected_runtime_s <= 1500.0
    assert spec.stages[1].name == "exaconstit-optimize"


def test_exaconstit_optimizer_optional():
    spec = generate_example("exaconstit", {"tasks": 4, "optimizer": False})
    assert len(spec.stages) == 1


def test_exaconstit_runtimes_deterministic_per_seed():
    a = generate_example("exaconstit", {"tasks": 8, "seed": 5})
    b = generate_example("exaconstit", {"tasks": 8, "seed": 5})
    c = generate_example("exaconstit", {"tasks": 8, "seed": 6})
    runtimes = lambda s: [t.expected_runtime_s for t in s.stages[0].tasks]
    assert runtimes(a) == runtimes(b)
    assert runtimes(a) != runtimes(c)


def test_additivefoam_even_odd_split():
    spec = generate_example("additivefoam", {"cases": 10})
    names = [s.name for s in spec.stages]
    assert names == ["af-preprocess", "af-even", "af-odd", "af-postprocess"]
    assert len(spec.stages[1].tasks) == 5
    assert len(spec.stages[2].tasks) == 5
    run = spec.stages[1].tasks[0]
    assert task_footprint(run, FRONTIER_NODE) == (4, 56)


def test_uq_stage1_chains_both_workflows():
    spec = generate_example("uq-stage1", {"cases": 4, "uq_params": 2})
    names = [s.name for s in spec.stages]
    assert names == [
        "af-preprocess",
        "af-even",
        "af-odd",
        "af-postprocess",
        "exaca-microstructure",
        "exaca-analysis",
    ]
    # the fan-out stage waits on the gathered melt-pool output
    micro_script = spec.stages[4].tasks[0].arguments[1]
    assert "af-post.done" in micro_script


def test_desk_shapes_fit_a_laptop():
    spec = generate_example("uq-stage1", {"desk": True})
    for task in spec.tasks():
        assert task.cpu_processes == 1
        assert task.cpu_threads_per_process == 1
        assert task.gpus_per_process == 0


def test_toy_degenerate_shapes_rejected():
    with pytest.raises(UnknownShape):
        generate_example("toy", {"tasks": 0})
    with pytest.raises(UnknownShape):
        generate_example("exaconstit", {"tasks": 0})
    with pytest.raises(UnknownShape):
        generate_example("no-such-shape")


@pytest.mark.parametrize(
    "shape, params",
    [
        ("exaconstit", {"tasks": 2.7}),
        ("exaconstit", {"tasks": "3"}),
        ("toy", {"tasks": True}),
        ("exaconstit", {"tasks": float("nan")}),
        ("toy", {"tasks": [1]}),
        ("uq-stage1", {"desk": "no"}),
        ("exaconstit", {"seed": None}),
        ("toy", {"stages": 3}),
        ("exaconstit", {"seed": -5}),
    ],
)
def test_a_value_of_the_wrong_type_is_config_error(shape, params):
    # none is truncated, read as true, seeded from the clock or let through
    # as a bare ValueError or TypeError
    [name] = params
    with pytest.raises(ConfigError, match=name) as raised:
        generate_example(shape, params)
    assert type(raised.value) is ConfigError


@pytest.mark.parametrize(
    "shape,params",
    [
        ("toy", {"tasks": MAX_EXAMPLE_TASKS + 1}),
        ("exaconstit", {"tasks": 2**63}),
        ("additivefoam", {"cases": MAX_EXAMPLE_TASKS + 1}),
        ("exaca", {"cases": 2**20, "uq_params": 2**20}),
        ("uq-stage1", {"cases": 2, "uq_params": 10**30}),
    ],
)
def test_oversized_examples_rejected_before_building(shape, params):
    with pytest.raises(UnknownShape, match="at most"):
        generate_example(shape, params)


def test_mock_payloads_are_plain_shell():
    spec = generate_example("toy")
    task = spec.stages[0].tasks[0]
    assert task.executable == "/bin/sh"
    assert task.arguments[0] == "-c"


@pytest.mark.parametrize(
    "shape, unread",
    [("additivefoam", "tasks"), ("exaca", "tasks"), ("exaconstit", "cases"),
     ("uq-stage1", "tasks"), ("toy", "desk")],
)
def test_every_shape_takes_seed_and_sleep_but_no_param_it_does_not_read(
    shape, unread
):
    params = {"seed": 3, "sleep_s": 0}
    assert validate_workflow(generate_example(shape, params)) == []
    with pytest.raises(ConfigError, match=f"does not read '{unread}'$"):
        generate_example(shape, {**params, unread: 2})


def test_uq_stage1_grid_runs_over_the_additivefoam_cases():
    # one case count by default: each AdditiveFOAM run is one ExaCA case
    stages = {s.name: s.tasks for s in generate_example("uq-stage1").stages}
    runs = len(stages["af-even"]) + len(stages["af-odd"])
    cases = {t.tags["case"] for t in stages["exaca-microstructure"]}
    assert cases == {str(c) for c in range(runs)}
