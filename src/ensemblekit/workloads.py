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
from typing import Mapping, Optional

from ensemblekit.errors import ConfigError, UnknownShape
from ensemblekit.pst import Stage, TaskDescription, WorkflowSpec, is_number

# (cpu_processes, cpu_threads_per_process, gpus_per_process)
_SHAPE_AF_RUN = (224, 1, 0)
_SHAPE_EXACA = (8, 7, 1)
_SHAPE_EXACONSTIT = (64, 7, 1)
_SHAPE_SERIAL = (1, 1, 0)

# ExaConstit members draw their runtime hint uniformly from this range
_EXACONSTIT_RUNTIME_S = (600.0, 1500.0)

# the most tasks the parameters of one generator may ask for (uq-stage1
# chains two); a larger request is rejected before anything is built,
# rather than filling memory
MAX_EXAMPLE_TASKS = 1_000_000


def _check_size(shape: str, n: int) -> None:
    if n > MAX_EXAMPLE_TASKS:
        raise UnknownShape(
            f"{shape} asks for {n} tasks; at most {MAX_EXAMPLE_TASKS}"
        )


def _mock_task(
    uid: str,
    requires: list[str],
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


def _additivefoam_stages(params: Mapping, prefix: str = "af") -> list[Stage]:
    cases = int(params.get("cases", 10))
    sleep_s = params.get("sleep_s", 0.05)
    desk = bool(params.get("desk", False))
    if cases < 1:
        raise UnknownShape("additivefoam needs at least 1 case")
    _check_size("additivefoam", cases)
    pre = _mock_task(
        f"{prefix}-pre", [], sleep_s, _SHAPE_SERIAL, 60.0, desk
    )
    even = [
        _mock_task(
            f"{prefix}-even-{i}", [f"{prefix}-pre"], sleep_s,
            _SHAPE_AF_RUN, 3600.0, desk,
        )
        for i in range(0, cases, 2)
    ]
    odd = [
        _mock_task(
            f"{prefix}-odd-{i}", [f"{prefix}-pre"], sleep_s,
            _SHAPE_AF_RUN, 3600.0, desk,
        )
        for i in range(1, cases, 2)
    ]
    gather = _mock_task(
        f"{prefix}-post",
        [t.uid for t in even + odd],
        sleep_s,
        _SHAPE_SERIAL,
        120.0,
        desk,
    )
    stages = [Stage(name=f"{prefix}-preprocess", tasks=(pre,))]
    if even:
        stages.append(Stage(name=f"{prefix}-even", tasks=tuple(even)))
    if odd:
        stages.append(Stage(name=f"{prefix}-odd", tasks=tuple(odd)))
    stages.append(Stage(name=f"{prefix}-postprocess", tasks=(gather,)))
    return stages


def _exaca_stages(
    params: Mapping, requires: Optional[list[str]] = None, prefix: str = "exaca"
) -> list[Stage]:
    cases = int(params.get("cases", 5))
    uq_params = int(params.get("uq_params", 4))
    sleep_s = params.get("sleep_s", 0.05)
    desk = bool(params.get("desk", False))
    if cases < 1 or uq_params < 1:
        raise UnknownShape("exaca needs cases >= 1 and uq_params >= 1")
    _check_size("exaca", cases * uq_params)
    # one microstructure task per (melt-pool case, UQ parameter) pair
    grid = [
        _mock_task(
            f"{prefix}-c{c}-p{p}",
            list(requires or []),
            sleep_s,
            _SHAPE_EXACA,
            1800.0,
            desk,
            tags={"case": str(c), "uq_param": str(p)},
        )
        for c in range(cases)
        for p in range(uq_params)
    ]
    analysis = _mock_task(
        f"{prefix}-analysis",
        [t.uid for t in grid],
        sleep_s,
        _SHAPE_SERIAL,
        120.0,
        desk,
    )
    return [
        Stage(name=f"{prefix}-microstructure", tasks=tuple(grid)),
        Stage(name=f"{prefix}-analysis", tasks=(analysis,)),
    ]


def _exaconstit_stages(params: Mapping) -> list[Stage]:
    n = int(params.get("tasks", 16))
    seed = params.get("seed", 0)
    sleep_s = params.get("sleep_s", 0.05)
    desk = bool(params.get("desk", False))
    optimizer = bool(params.get("optimizer", True))
    if n < 1:
        raise UnknownShape("exaconstit needs tasks >= 1")
    _check_size("exaconstit", n)
    rng = random.Random(seed)
    members = [
        _mock_task(
            f"exaconstit-{i:05d}",
            [],
            sleep_s,
            _SHAPE_EXACONSTIT,
            rng.uniform(*_EXACONSTIT_RUNTIME_S),
            desk,
        )
        for i in range(n)
    ]
    stages = [Stage(name="exaconstit-ensemble", tasks=tuple(members))]
    if optimizer:
        stages.append(
            Stage(
                name="exaconstit-optimize",
                tasks=(
                    _mock_task(
                        "exaconstit-optimize",
                        [members[0].uid, members[-1].uid],
                        sleep_s,
                        _SHAPE_SERIAL,
                        60.0,
                        desk,
                    ),
                ),
            )
        )
    return stages


def _toy_stages(params: Mapping) -> list[Stage]:
    n_stages = int(params.get("stages", 2))
    per_stage = int(params.get("tasks", 2))
    sleep_s = params.get("sleep_s", 0.05)
    if n_stages < 1 or per_stage < 1:
        raise UnknownShape("toy needs stages >= 1 and tasks >= 1")
    _check_size("toy", n_stages * per_stage)
    return [
        Stage(
            name=f"toy-stage{s}",
            tasks=tuple(
                _mock_task(
                    f"toy-s{s}-t{t}", [], sleep_s, _SHAPE_SERIAL, 10.0, False
                )
                for t in range(per_stage)
            ),
        )
        for s in range(n_stages)
    ]


def _uq_stage1_stages(params: Mapping) -> list[Stage]:
    # one case count for both: the ExaCA grid runs over AdditiveFOAM's cases
    params = {"cases": 5, **params}
    return (_additivefoam_stages(params)
            + _exaca_stages(params, requires=["af-post"]))


# each shape's stages and the params it reads beside seed and sleep_s, which
# every shape takes
_SHAPES = {
    "additivefoam": (_additivefoam_stages, {"cases", "desk"}),
    "exaca": (_exaca_stages, {"cases", "uq_params", "desk"}),
    "exaconstit": (_exaconstit_stages, {"tasks", "desk", "optimizer"}),
    "uq-stage1": (_uq_stage1_stages, {"cases", "uq_params", "desk"}),
    "toy": (_toy_stages, {"stages", "tasks"}),
}
SHAPES = tuple(_SHAPES)


def generate_example(
    shape: str, params: Optional[Mapping] = None
) -> WorkflowSpec:
    """Build one of the named example workflows.

    Shapes: additivefoam (pre / even runs / odd runs / post), exaca
    (melt-pool cases x UQ parameters fan-out plus analysis), exaconstit
    (N ensemble members plus a trailing optimization task), uq-stage1
    (additivefoam chained into exaca), toy. ConfigError for a param the
    shape does not read.
    """
    if shape not in _SHAPES:
        raise UnknownShape(f"unknown example shape {shape!r}; know {SHAPES}")
    stages, reads = _SHAPES[shape]
    params = dict(params or {})
    unread = params.keys() - reads - {"seed", "sleep_s"}
    if unread:
        raise ConfigError(
            f"example shape {shape} does not read "
            f"{', '.join(sorted(map(repr, unread)))}"
        )
    sleep_s = params.get("sleep_s", 0.05)
    if not (is_number(sleep_s) and sleep_s >= 0):
        raise ConfigError(
            f"sleep_s must be a finite number >= 0, not {sleep_s!r}"
        )
    return WorkflowSpec(name=shape, stages=tuple(stages(params)))
