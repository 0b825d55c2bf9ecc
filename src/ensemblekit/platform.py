"""Target-machine model: node shape, walltime policy, footprint arithmetic.

Platform configs are immutable after load and freely shareable. A machine
comes from one of two places: a platform JSON file
(:func:`load_platform_config`) or a built-in profile by name
(:func:`get_profile`): ``frontier-sim`` (64 cores with 8 reserved, 8 GPUs
per node) or ``local`` (shaped like the current host).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from ensemblekit.errors import (
    InvalidNodeSpec,
    ParseError,
    PolicyGap,
    Unplaceable,
    ValidationError,
)
from ensemblekit.pst import TaskDescription, count_violation, is_number


@dataclass(frozen=True)
class NodeSpec:
    """Shape of one compute node. ``cores_reserved`` go to system processes
    and are never schedulable. Every field is an int of at most
    :data:`~ensemblekit.pst.MAX_SLOTS`; an invalid shape raises one
    InvalidNodeSpec that names every violation."""

    cores_total: int
    cores_reserved: int = 0
    gpus: int = 0

    def __post_init__(self) -> None:
        out = [
            v for name, least in (
                ("cores_total", 1), ("cores_reserved", 0), ("gpus", 0)
            )
            if (v := count_violation(name, getattr(self, name), least))
        ]
        if not out and self.cores_reserved >= self.cores_total:
            out.append(
                f"cores_reserved ({self.cores_reserved}) must be < "
                f"cores_total ({self.cores_total})"
            )
        if out:
            raise InvalidNodeSpec("; ".join(out))


def usable_cores(node: NodeSpec) -> int:
    """Cores available to tasks: total minus the reserved ones."""
    return node.cores_total - node.cores_reserved


@dataclass(frozen=True)
class WalltimePolicy:
    """Scheduling-policy table: (max_nodes, max_walltime_s) tiers sorted by
    ascending max_nodes. Walltimes need not be monotone; only the lookup
    order is fixed."""

    tiers: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        tiers, prev = [], 0
        for tier in self.tiers:
            if not (isinstance(tier, (list, tuple)) and len(tier) == 2):
                raise ValidationError(
                    f"policy tier {tier!r} is not [max_nodes, max_walltime_s]"
                )
            max_nodes, max_walltime_s = tier
            if type(max_nodes) is not int or max_nodes <= prev:
                raise ValidationError(
                    "policy tiers must have strictly increasing integer "
                    "max_nodes"
                )
            if not (is_number(max_walltime_s) and max_walltime_s > 0):
                raise ValidationError(
                    "policy walltimes must be finite numbers > 0"
                )
            tiers.append((max_nodes, float(max_walltime_s)))
            prev = max_nodes
        object.__setattr__(self, "tiers", tuple(tiers))


def max_walltime_for(policy: WalltimePolicy, nodes_requested: int) -> float:
    """Walltime limit of the first tier covering the request."""
    if nodes_requested < 1:
        raise PolicyGap("nodes_requested must be >= 1")
    for max_nodes, max_walltime_s in policy.tiers:
        if nodes_requested <= max_nodes:
            return max_walltime_s
    raise PolicyGap(
        f"no policy tier covers {nodes_requested} nodes "
        f"(largest tier: {policy.tiers[-1][0] if policy.tiers else 0})"
    )


@dataclass(frozen=True)
class PlatformConfig:
    name: str
    node: NodeSpec
    node_count: int
    policy: WalltimePolicy
    bootstrap_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValidationError(f"platform name {self.name!r} is not a string")
        reason = count_violation("node_count", self.node_count, 1)
        if reason:
            raise ValidationError(reason)
        bootstrap = self.bootstrap_overhead_s
        if not (is_number(bootstrap) and bootstrap >= 0):
            raise ValidationError(
                f"bootstrap_overhead_s must be a finite number >= 0, "
                f"not {bootstrap!r}"
            )
        object.__setattr__(self, "bootstrap_overhead_s", float(bootstrap))


def task_footprint(
    desc: TaskDescription, node: NodeSpec
) -> tuple[int, int]:
    """Nodes needed and processes per node for a task on the given node shape.

    Processes never straddle nodes. Per-node packing is bottlenecked by both
    cores and GPUs; the node count is the tight ceiling over the rank count.
    """
    cores = usable_cores(node)
    by_cores = cores // desc.cpu_threads_per_process
    if desc.gpus_per_process > 0:
        by_gpus = node.gpus // desc.gpus_per_process
        per_node = min(by_cores, by_gpus)
    else:
        per_node = by_cores
    if per_node < 1:
        raise Unplaceable(
            f"task {desc.uid}: one process needs "
            f"{desc.cpu_threads_per_process} cores and "
            f"{desc.gpus_per_process} GPUs; node offers {cores} usable cores "
            f"and {node.gpus} GPUs"
        )
    procs_per_node = min(per_node, desc.cpu_processes)
    nodes_needed = math.ceil(desc.cpu_processes / procs_per_node)
    return nodes_needed, procs_per_node


def _frontier_sim() -> PlatformConfig:
    # Machine size 9408 is a documented assumption; the 8000-node allocation
    # in the headline runs is 85% of it.
    return PlatformConfig(
        name="frontier-sim",
        node=NodeSpec(cores_total=64, cores_reserved=8, gpus=8),
        node_count=9408,
        policy=WalltimePolicy(
            tiers=((91, 7200.0), (183, 21600.0), (9408, 43200.0))
        ),
        bootstrap_overhead_s=85.0,
    )


def _local() -> PlatformConfig:
    cores = os.cpu_count() or 1
    return PlatformConfig(
        name="local",
        node=NodeSpec(cores_total=max(cores, 1), cores_reserved=0, gpus=0),
        node_count=1,
        policy=WalltimePolicy(tiers=((1, 86400.0),)),
        bootstrap_overhead_s=0.0,
    )


_PROFILES = {"frontier-sim": _frontier_sim, "local": _local}


def get_profile(name: str) -> PlatformConfig:
    """The built-in profile ``name``: frontier-sim or local."""
    if name not in _PROFILES:
        raise ValidationError(
            f"unknown platform profile {name!r}; built-ins: {sorted(_PROFILES)}"
        )
    return _PROFILES[name]()


def load_platform_config(path: str | Path) -> PlatformConfig:
    """Load and validate a platform config JSON file: ParseError for a
    file that cannot be read or is not JSON, ValidationError for a field
    that is missing, unknown, or of the wrong type or range."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    # ValueError: bad UTF-8 or an int past Python's digit limit
    except (OSError, ValueError, RecursionError) as e:
        raise ParseError(f"{path}: {e}") from e
    return platform_from_json(doc)


def platform_from_json(doc: dict) -> PlatformConfig:
    """The machine of a platform JSON document, read by the records' own
    fields: a missing optional field takes its default, and a key that is
    not a field is a ValidationError naming it."""
    try:
        return PlatformConfig(**{
            **doc,
            "node": NodeSpec(**doc["node"]),
            "policy": WalltimePolicy(**doc["policy"]),
        })
    # KeyError, TypeError: a key missing or unknown, or a section of the
    # wrong type
    except (KeyError, TypeError) as e:
        raise ValidationError(f"malformed platform config: {e}") from e
    except InvalidNodeSpec as e:
        # the CLI reports ValidationError as a configuration error
        raise ValidationError(str(e)) from e
