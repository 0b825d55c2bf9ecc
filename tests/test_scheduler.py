import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemblekit import events as ev
from ensemblekit import scheduler
from ensemblekit.errors import DoubleRelease, Unplaceable
from ensemblekit.platform import NodeSpec, task_footprint, usable_cores
from ensemblekit.scheduler import (
    Pilot,
    SlotTable,
    release,
    try_place,
)
from conftest import exaconstit_task, make_task, single_stage, small_platform

FRONTIER_NODE = NodeSpec(64, 8, 8)


def place(table, desc):
    return try_place(table, desc, task_footprint(desc, table.node))


def pilot_for(descs, nodes):
    """A Pilot over one stage of descs on ``nodes`` FRONTIER_NODE-shaped
    nodes; not booted, so its queue is empty."""
    platform = small_platform(cores=64, reserved=8, gpus=8, nodes=nodes)
    return Pilot([single_stage("s", descs)], platform, nodes)


def queued(descs, nodes):
    """pilot_for, booted at ts 0: its queue holds descs in order."""
    pilot = pilot_for(descs, nodes)
    pilot.boot(0.0)
    return pilot


def drain(pilot):
    """Place through Pilot.place until the queue empties or its head
    blocks; returns the placed runs in order."""
    placed = []
    while (run := pilot.place(0.0)) is not None:
        placed.append(run)
    return placed


def scheduled(pilot):
    return [e for e in pilot.log if e.kind == ev.TASK_SCHEDULED]


def uids(runs):
    return [run.desc.uid for run in runs]


def free_slots(table):
    return list(table.free_cores), list(table.free_gpus)


def reference_first_fit(table, desc):
    """Brute-force first fit: every node in ascending id, whatever its free
    capacity, each taking the next chunk if it fits."""
    nodes_needed, per_node = task_footprint(desc, table.node)
    chunks = [per_node] * (nodes_needed - 1)
    chunks.append(desc.cpu_processes - per_node * (nodes_needed - 1))
    chosen = []
    for node_id in range(table.node_count):
        if len(chosen) == nodes_needed:
            break
        chunk = chunks[len(chosen)]
        if (
            table.free_cores[node_id] >= chunk * desc.cpu_threads_per_process
            and table.free_gpus[node_id] >= chunk * desc.gpus_per_process
        ):
            chosen.append((node_id, chunk))
    return tuple(chosen) if len(chosen) == nodes_needed else None


class TestPlaceRelease:
    def test_exaca_task_fills_one_node(self):
        table = SlotTable(FRONTIER_NODE, 1)
        desc = make_task("exaca", procs=8, threads=7, gpus=1)
        placement = place(table, desc)
        assert placement is not None
        assert placement.assignments == ((0, 8),)
        assert table.free_cores[0] == 0
        assert table.free_gpus[0] == 0

    def test_release_restores_slots(self):
        table = SlotTable(FRONTIER_NODE, 1)
        placement = place(table, make_task("exaca", procs=8, threads=7, gpus=1))
        release(table, placement)
        assert table.free_cores[0] == 56
        assert table.free_gpus[0] == 8

    def test_double_release(self):
        table = SlotTable(FRONTIER_NODE, 1)
        placement = place(table, make_task("t"))
        release(table, placement)
        with pytest.raises(DoubleRelease):
            release(table, placement)

    def test_insufficient_nodes_leaves_table_unchanged(self):
        table = SlotTable(FRONTIER_NODE, 2)
        before = free_slots(table)
        desc = make_task("wide", procs=3 * 56)  # needs 3 nodes
        assert place(table, desc) is None
        assert free_slots(table) == before

    def test_first_fit_ascending_node_id(self):
        table = SlotTable(FRONTIER_NODE, 4)
        a = place(table, exaconstit_task("a"))  # fills... 8-node task won't fit
        assert a is None
        p1 = place(table, make_task("one", procs=56))
        p2 = place(table, make_task("two", procs=56))
        assert p1.node_ids == (0,)
        assert p2.node_ids == (1,)
        release(table, p1)
        p3 = place(table, make_task("three", procs=56))
        assert p3.node_ids == (0,)  # lowest id again

    def test_tasks_share_a_node_when_slots_allow(self):
        table = SlotTable(NodeSpec(8, 0, 0), 1)
        p1 = place(table, make_task("a", procs=4))
        p2 = place(table, make_task("b", procs=4))
        assert p1.node_ids == p2.node_ids == (0,)
        assert table.free_cores[0] == 0
        assert place(table, make_task("c")) is None

    def test_remainder_chunk_on_last_node(self):
        table = SlotTable(NodeSpec(8, 0, 0), 2)
        placement = place(table, make_task("t", procs=10))
        assert placement.assignments == ((0, 8), (1, 2))
        assert table.free_cores == [0, 6]


class TestDrainQueue:
    def test_frontier_capacity_division(self):
        # 8000 free nodes, 7875 eight-node members: exactly 1000 fit
        members = [exaconstit_task(f"m{i:04d}") for i in range(7875)]
        pilot = queued(members, 8000)
        placed = drain(pilot)
        queue, log = pilot.queue, scheduled(pilot)
        assert len(placed) == 1000
        assert len(queue) == 6875
        assert uids(placed) == [t.uid for t in members[:1000]]
        assert [e.task_uid for e in log] == uids(placed)

    def test_empty_queue(self):
        pilot = pilot_for([make_task("t")], 4)
        assert drain(pilot) == []
        log = scheduled(pilot)
        assert len(log) == 0

    def test_fifo_head_blocks_no_backfill(self):
        big = make_task("big", procs=4 * 56)  # all four nodes
        small = make_task("small")
        pilot = queued([big, small], 4)
        table, queue = pilot.table, pilot.queue
        hold = place(table, make_task("hold"))
        assert drain(pilot) == []
        assert uids(queue) == ["big", "small"]
        release(table, hold)
        assert uids(drain(pilot)) == ["big"]
        assert uids(queue) == ["small"]

    def test_determinism(self):
        def run_once():
            pilot = queued([exaconstit_task(f"m{i}") for i in range(4)], 16)
            table, log = pilot.table, pilot.log
            placed = drain(pilot)
            return [
                (run.desc.uid, table.placement_of(run.desc.uid).assignments)
                for run in placed
            ], [e.to_record() for e in log]

        assert run_once() == run_once()


class TestHeapWork:
    def test_core_full_gpu_free_nodes_leave_the_heap(self, monkeypatch):
        # 1-core tasks fill the cores of nodes 0 and 1; their GPUs stay free
        table = SlotTable(FRONTIER_NODE, 4)
        for i in range(2 * 56):
            place(table, make_task(f"t{i:03d}"))
        assert table.free_cores[:2] == [0, 0]
        assert table.free_gpus[:2] == [8, 8]
        assert 0 not in table._avail and 1 not in table._avail

        pops = []
        heappop = heapq.heappop

        def counting_pop(heap):
            node_id = heappop(heap)
            pops.append(node_id)
            return node_id

        monkeypatch.setattr(scheduler.heapq, "heappop", counting_pop)
        placement = place(table, make_task("next"))
        assert placement.node_ids == (2,)
        assert pops == [2]


class TestConservation:
    def test_place_release_replay_restores_initial_table(self):
        rng = random.Random(7)
        table = SlotTable(NodeSpec(16, 0, 4), 8)
        initial = free_slots(table)
        active = []
        for i in range(300):
            if active and rng.random() < 0.45:
                release(table, active.pop(rng.randrange(len(active))))
            else:
                desc = make_task(
                    f"t{i}",
                    procs=rng.randint(1, 24),
                    threads=rng.randint(1, 2),
                    gpus=rng.choice([0, 0, 1]),
                )
                placement = place(table, desc)
                if placement is not None:
                    active.append(placement)
            for node_id in range(table.node_count):
                assert 0 <= table.free_cores[node_id] <= 16
                assert 0 <= table.free_gpus[node_id] <= 4
        for placement in active:
            release(table, placement)
        assert free_slots(table) == initial

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        cores=st.integers(min_value=1, max_value=8),
        reserved=st.integers(min_value=0, max_value=7),
        gpus=st.integers(min_value=0, max_value=4),
        nodes=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_free_counts_never_negative(self, seed, cores, reserved, gpus, nodes):
        # random place/release sequences against a brute-force first fit
        # and a recount of each node's holders
        rng = random.Random(seed)
        node = NodeSpec(cores, min(reserved, cores - 1), gpus)
        usable = usable_cores(node)
        table = SlotTable(node, nodes)
        active = {}
        for i in range(100):
            roll = rng.random()
            if active and roll < 0.5:
                uid = rng.choice(sorted(active))
                release(table, active.pop(uid))
            else:
                desc = make_task(
                    f"t{i}",
                    procs=rng.randint(1, 12),
                    threads=rng.randint(1, 2),
                    gpus=rng.choice([0, 0, 1]),
                )
                try:
                    expected = reference_first_fit(table, desc)
                except Unplaceable:
                    continue
                placement = place(table, desc)
                got = None if placement is None else placement.assignments
                assert got == expected
                if placement is not None:
                    active[desc.uid] = placement
            assert all(0 <= c <= usable for c in table.free_cores)
            assert all(0 <= g <= gpus for g in table.free_gpus)
            for node_id in range(nodes):
                assert table.holders[node_id] == {
                    uid for uid, p in active.items() if node_id in p.node_ids
                }

    def test_fifo_fairness_identical_footprints(self):
        pilot = queued([exaconstit_task(f"m{i}") for i in range(5)], 16)
        queue = pilot.queue
        placed = drain(pilot)
        assert uids(placed) == ["m0", "m1"]  # 16 nodes fit two 8-node tasks
        assert uids(queue) == ["m2", "m3", "m4"]
