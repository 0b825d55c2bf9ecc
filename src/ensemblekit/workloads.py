"""Generators for example workflows shaped like the UQ pipeline stages.

Payload commands are mocks runnable on any machine: each task sleeps briefly,
checks that its upstream marker files exist, and drops its own marker. That
makes stage-ordering violations observable as task failures in local runs.
Resource shapes default to the production decompositions (224-rank CPU tasks,
8x7c+1g single-node tasks, 8-node ensemble members); ``desk=True`` shrinks
everything to single-core tasks for laptop execution.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional, Sequence

from ensemblekit.errors import ConfigError, UnknownShape
from ensemblekit.pst import Stage, TaskDescription, WorkflowSpec, is_number

# (cpu_processes, cpu_threads_per_process, gpus_per_process)
_SHAPE_AF_RUN = (224, 1, 0)
_SHAPE_EXACA = (8, 7, 1)
_SHAPE_EXACONSTIT = (64, 7, 1)
_SHAPE_SERIAL = (1, 1, 0)

# ExaConstit members draw their runtime hint uniformly from this range
_EXACONSTIT_RUNTIME_S = (600.0, 1500.0)

# the largest product of one shape's counts (exaconstit's tasks, exaca's
# cases x uq_params, ...); a larger request is rejected before anything is
# built, rather than filling memory
MAX_EXAMPLE_TASKS = 1_000_000


def _mock_task(
    uid: str,
    requires: Sequence[str],
    sleep_s: float,
    shape: tuple[int, int, int],
    expected_runtime_s: Optional[float],
    desk: bool,
    tags: Optional[dict] = None,
) -> TaskDescription:
    checks = [f"test -f {dep}.done" for dep in requires]
    script = " && ".join(checks + [f"sleep {sleep_s}", f"touch {uid}.done"])
    procs, threads, gpus = _SHAPE_SERIAL if desk else shape
    return TaskDescription(
        uid=uid,
        executable="/bin/sh",
        arguments=("-c", script),
        cpu_processes=procs,
        cpu_threads_per_process=threads,
        gpus_per_process=gpus,
        expected_runtime_s=expected_runtime_s,
        tags=tags or {},
    )


def _additivefoam_stages(
    cases: int, sleep_s: float, desk: bool, **_
) -> list[Stage]:
    pre = _mock_task("af-pre", [], sleep_s, _SHAPE_SERIAL, 60.0, desk)
    # the melt-pool runs, even cases then odd ones (none for a single case)
    halves = {
        half: tuple(
            _mock_task(f"af-{half}-{i}", ["af-pre"], sleep_s, _SHAPE_AF_RUN,
                       3600.0, desk)
            for i in range(first, cases, 2)
        )
        for half, first in (("even", 0), ("odd", 1))
    }
    runs = [t.uid for tasks in halves.values() for t in tasks]
    post = _mock_task("af-post", runs, sleep_s, _SHAPE_SERIAL, 120.0, desk)
    return [
        Stage(name="af-preprocess", tasks=(pre,)),
        *(Stage(name=f"af-{half}", tasks=tasks)
          for half, tasks in halves.items() if tasks),
        Stage(name="af-postprocess", tasks=(post,)),
    ]


def _exaca_stages(
    cases: int, uq_params: int, sleep_s: float, desk: bool,
    requires: Sequence[str] = (), **_
) -> list[Stage]:
    # one microstructure task per (melt-pool case, UQ parameter) pair
    grid = [
        _mock_task(f"exaca-c{c}-p{p}", requires, sleep_s, _SHAPE_EXACA, 1800.0,
                   desk, tags={"case": str(c), "uq_param": str(p)})
        for c in range(cases)
        for p in range(uq_params)
    ]
    analysis = _mock_task(
        "exaca-analysis", [t.uid for t in grid], sleep_s, _SHAPE_SERIAL,
        120.0, desk,
    )
    return [
        Stage(name="exaca-microstructure", tasks=tuple(grid)),
        Stage(name="exaca-analysis", tasks=(analysis,)),
    ]


def _exaconstit_stages(
    tasks: int, seed: int, sleep_s: float, desk: bool, optimizer: bool
) -> list[Stage]:
    rng = random.Random(seed)
    members = [
        _mock_task(f"exaconstit-{i:05d}", [], sleep_s, _SHAPE_EXACONSTIT,
                   rng.uniform(*_EXACONSTIT_RUNTIME_S), desk)
        for i in range(tasks)
    ]
    stages = [Stage(name="exaconstit-ensemble", tasks=tuple(members))]
    if optimizer:
        optimize = _mock_task(
            "exaconstit-optimize", [members[0].uid, members[-1].uid], sleep_s,
            _SHAPE_SERIAL, 60.0, desk,
        )
        stages.append(Stage(name="exaconstit-optimize", tasks=(optimize,)))
    return stages


def _toy_stages(tasks: int, sleep_s: float, **_) -> list[Stage]:
    return [
        Stage(name=f"toy-stage{s}", tasks=tuple(
            _mock_task(f"toy-s{s}-t{t}", [], sleep_s, _SHAPE_SERIAL, 10.0,
                       False)
            for t in range(tasks)
        ))
        for s in range(2)
    ]


def _uq_stage1_stages(
    cases: int, uq_params: int, sleep_s: float, desk: bool, **_
) -> list[Stage]:
    # one case count for both: the ExaCA grid runs over AdditiveFOAM's cases
    return _additivefoam_stages(cases, sleep_s, desk) + _exaca_stages(
        cases, uq_params, sleep_s, desk, requires=["af-post"]
    )


# each shape's builder and the params it reads beside seed and sleep_s,
# which every shape reads, with their defaults; the int ones are its counts
_SHAPES = {
    "additivefoam": (_additivefoam_stages, {"cases": 10, "desk": False}),
    "exaca": (_exaca_stages, {"cases": 5, "uq_params": 4, "desk": False}),
    "exaconstit": (
        _exaconstit_stages, {"tasks": 16, "desk": False, "optimizer": True}
    ),
    "uq-stage1": (
        _uq_stage1_stages, {"cases": 5, "uq_params": 4, "desk": False}
    ),
    "toy": (_toy_stages, {"tasks": 2}),
}
SHAPES = tuple(_SHAPES)


def generate_example(
    shape: str, params: Optional[Mapping] = None
) -> WorkflowSpec:
    """Build one of the named example workflows.

    Shapes: additivefoam (pre / even runs / odd runs / post), exaca
    (melt-pool cases x UQ parameters fan-out plus analysis), exaconstit
    (N ensemble members plus a trailing optimization task), uq-stage1
    (additivefoam chained into exaca), toy (two stages of ``tasks`` tasks).

    Every shape reads ``seed`` (an int >= 0) and ``sleep_s`` (a finite
    number >= 0); the rest of its params are in its ``_SHAPES`` row, and a
    value given for one must have its default's type: counts are ints (not
    bools), ``desk`` and ``optimizer`` bools. ConfigError for a param the
    shape does not read, a value of the wrong type or a negative seed;
    UnknownShape for an unknown shape, a count below 1, or counts whose
    product exceeds MAX_EXAMPLE_TASKS.
    """
    if shape not in _SHAPES:
        raise UnknownShape(f"unknown example shape {shape!r}; know {SHAPES}")
    build, row = _SHAPES[shape]
    given = dict(params or {})
    unread = given.keys() - row.keys() - {"seed", "sleep_s"}
    if unread:
        raise ConfigError(
            f"example shape {shape} does not read "
            f"{', '.join(sorted(map(repr, unread)))}"
        )
    sleep_s = given.pop("sleep_s", 0.05)
    if not (is_number(sleep_s) and sleep_s >= 0):
        raise ConfigError(
            f"sleep_s must be a finite number >= 0, not {sleep_s!r}"
        )
    typed = {"seed": 0, **row}
    values = {**typed, **given}
    counts, size = [], 1
    for name, default in typed.items():
        value = values[name]
        if type(value) is not type(default):
            raise ConfigError(
                f"{name} must be {type(default).__name__}, not {value!r}"
            )
        if name in row and type(value) is int:
            if value < 1:
                raise UnknownShape(f"{shape} needs {name} >= 1")
            counts.append(name)
            size *= value
    if values["seed"] < 0:  # random.Random(seed) would use |seed|
        raise ConfigError(f"seed must be >= 0, not {values['seed']}")
    if size > MAX_EXAMPLE_TASKS:
        raise UnknownShape(
            f"{shape} asks for {' x '.join(counts)} = {size}; "
            f"at most {MAX_EXAMPLE_TASKS}"
        )
    stages = build(sleep_s=sleep_s, **values)
    return WorkflowSpec(name=shape, stages=tuple(stages))
