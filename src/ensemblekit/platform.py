"""Target-machine model: node shape, walltime policy, footprint arithmetic.

Platform configs are immutable after load and freely shareable. Two profiles
ship built in: ``frontier-sim`` (64 cores with 8 reserved, 8 GPUs per node)
and ``local`` (shaped like the current host). Extra profiles can be dropped
as JSON files into a directory named by ``ENSEMBLEKIT_PROFILE_DIR``.
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
from ensemblekit.pst import TaskDescription

PROFILE_DIR_ENV = "ENSEMBLEKIT_PROFILE_DIR"


@dataclass(frozen=True)
class NodeSpec:
    """Shape of one compute node. ``cores_reserved`` go to system processes
    and are never schedulable. An invalid shape raises one InvalidNodeSpec
    that names every violation."""

    cores_total: int
    cores_reserved: int = 0
    gpus: int = 0

    def __post_init__(self) -> None:
        out = []
        if self.cores_total < 1:
            out.append("cores_total must be >= 1")
        if self.cores_reserved < 0:
            out.append("cores_reserved must be >= 0")
        if self.cores_reserved >= self.cores_total:
            out.append(
                f"cores_reserved ({self.cores_reserved}) must be < "
                f"cores_total ({self.cores_total})"
            )
        if self.gpus < 0:
            out.append("gpus must be >= 0")
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
        tiers = tuple((int(n), float(w)) for n, w in self.tiers)
        object.__setattr__(self, "tiers", tiers)
        prev = 0
        for max_nodes, max_walltime_s in tiers:
            if max_nodes <= prev:
                raise ValidationError(
                    "policy tiers must have strictly increasing max_nodes"
                )
            if max_walltime_s <= 0:
                raise ValidationError("policy walltimes must be > 0")
            prev = max_nodes


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
        if self.node_count < 1:
            raise ValidationError("node_count must be >= 1")
        if self.bootstrap_overhead_s < 0:
            raise ValidationError("bootstrap_overhead_s must be >= 0")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "node": {
                "cores_total": self.node.cores_total,
                "cores_reserved": self.node.cores_reserved,
                "gpus": self.node.gpus,
            },
            "node_count": self.node_count,
            "bootstrap_overhead_s": self.bootstrap_overhead_s,
            "policy": {"tiers": [list(t) for t in self.policy.tiers]},
        }


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


def builtin_profiles() -> dict[str, PlatformConfig]:
    return {"frontier-sim": _frontier_sim(), "local": _local()}


def get_profile(name: str) -> PlatformConfig:
    """Resolve a profile by name: built-ins first, then JSON files named
    ``<name>.json`` under ENSEMBLEKIT_PROFILE_DIR."""
    profiles = builtin_profiles()
    if name in profiles:
        return profiles[name]
    profile_dir = os.environ.get(PROFILE_DIR_ENV)
    if profile_dir:
        candidate = Path(profile_dir) / f"{name}.json"
        if candidate.exists():
            return load_platform_config(candidate)
    raise ValidationError(
        f"unknown platform profile {name!r}; "
        f"built-ins: {sorted(profiles)}"
    )


def load_platform_config(path: str | Path) -> PlatformConfig:
    """Load and validate a platform config JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except OSError as e:
        raise ParseError(f"{path}: {e}") from e
    return platform_from_json(doc)


def platform_from_json(doc: dict) -> PlatformConfig:
    try:
        node_doc = doc["node"]
        node = NodeSpec(
            cores_total=int(node_doc["cores_total"]),
            cores_reserved=int(node_doc.get("cores_reserved", 0)),
            gpus=int(node_doc.get("gpus", 0)),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed node section: {e}") from e
    except InvalidNodeSpec as e:
        # the CLI reports ValidationError as a configuration error
        raise ValidationError(str(e)) from e
    try:
        return PlatformConfig(
            name=str(doc["name"]),
            node=node,
            node_count=int(doc["node_count"]),
            policy=WalltimePolicy(
                tiers=tuple(tuple(t) for t in doc["policy"]["tiers"])
            ),
            bootstrap_overhead_s=float(doc.get("bootstrap_overhead_s", 0.0)),
        )
    except (KeyError, TypeError) as e:
        raise ValidationError(f"malformed platform config: {e}") from e


def save_platform_config(config: PlatformConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config.to_json(), indent=2) + "\n")
