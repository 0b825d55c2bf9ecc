import heapq
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemblekit import events as ev
from ensemblekit import scheduler
from ensemblekit.errors import DoubleRelease, EnsembleKitError, Unplaceable
from ensemblekit.platform import NodeSpec, task_footprint, usable_cores
from ensemblekit.scheduler import (
    Pilot,
    SlotTable,
    release,
    try_place,
)
from conftest import (
    chunks_of,
    exaconstit_task,
    make_task,
    single_stage,
    small_platform,
)

FRONTIER_NODE = NodeSpec(64, 8, 8)


def place(table, desc):
    return try_place(table, desc, chunks_of(desc, table.node))


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
    blocks; returns the placed tasks in order."""
    placed = []
    while (desc := pilot.place(0.0)) is not None:
        placed.append(desc)
    return placed


def scheduled(pilot):
    return [e for e in pilot.log if e.kind == ev.TASK_SCHEDULED]


def uids(descs):
    return [desc.uid for desc in descs]


def free_slots(table):
    return list(table.free_cores), list(table.free_gpus)


def reference_first_fit(table, desc):
    """Brute-force first fit: every node in ascending id, whatever its free
    capacity, each taking the next chunk if it fits."""
    chunks = chunks_of(desc, table.node)
    nodes_needed = len(chunks)
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


class TestTaskFootprints:
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 300), st.integers(1, 8),
                      st.integers(0, 2)),
            min_size=1, max_size=6,
        ),
        copies=st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_record_per_shape_of_full_chunks_and_its_detail(
        self, shapes, copies
    ):
        # 300 ranks of 2 GPUs need 75 Frontier nodes, 4 ranks on each
        table = SlotTable(FRONTIER_NODE, 75)
        descs = [make_task(f"t{i}.{k}", procs=procs, threads=threads,
                           gpus=gpus)
                 for i, (procs, threads, gpus) in enumerate(shapes)
                 for k in range(copies)]
        records = scheduler.task_footprints(table, descs)
        assert list(records) == uids(descs)
        by_shape = {}
        for desc in descs:
            threads, gpus = desc.cpu_threads_per_process, desc.gpus_per_process
            record = records[desc.uid]
            shape = (desc.cpu_processes, threads, gpus)
            assert by_shape.setdefault(shape, record) is record
            chunks, detail = record
            nodes_needed, per_node = task_footprint(desc, table.node)
            assert sum(chunks) == desc.cpu_processes
            assert len(chunks) == nodes_needed
            assert chunks[:-1] == (per_node,) * (nodes_needed - 1)
            assert 1 <= chunks[-1] <= per_node
            assert detail == ev.scheduled_detail(threads, gpus, chunks)

    def test_a_placement_carries_its_shapes_own_chunks(self):
        # two 100-rank tasks: chunks (56, 44), one tuple for both
        descs = [make_task(uid, procs=100) for uid in ("a", "b")]
        pilot = queued(descs, 4)
        assert uids(drain(pilot)) == ["a", "b"]
        chunks, detail = pilot.footprints["a"]
        assert chunks == (56, 44)
        for uid in ("a", "b"):
            assert pilot.table.placement_of(uid).chunks is chunks
        assert [e.detail for e in scheduled(pilot)] == [detail, detail]


class TestPlaceRelease:
    def test_exaca_task_fills_one_node(self):
        table = SlotTable(FRONTIER_NODE, 1)
        desc = make_task("exaca", procs=8, threads=7, gpus=1)
        placement = place(table, desc)
        assert placement is not None
        assert (placement.node_ids, placement.chunks) == ((0,), (8,))
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

    def test_a_table_of_no_nodes_is_rejected(self):
        with pytest.raises(EnsembleKitError, match="node_count must be >= 1"):
            SlotTable(FRONTIER_NODE, 0)

    def test_placing_a_placed_task_again_is_rejected(self):
        table = SlotTable(FRONTIER_NODE, 2)
        desc = make_task("t")
        place(table, desc)
        before = free_slots(table)
        with pytest.raises(EnsembleKitError, match="task t already placed"):
            place(table, desc)
        assert free_slots(table) == before

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
        assert (placement.node_ids, placement.chunks) == ((0, 1), (8, 2))
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
                table.placement_of(desc.uid) for desc in placed
            ], [e._asdict() for e in log]

        assert run_once() == run_once()


class ScriptedBackend:
    """A drive-loop backend whose k-th advance runs ``steps[k](started)``;
    it records the try_place calls made before each advance."""

    def __init__(self, steps, calls):
        self.steps, self.calls = list(steps), calls
        self.started, self.calls_before = [], []

    def now(self):
        return 0.0

    def ready(self):
        return True

    def start(self, desc):
        self.started.append(desc.uid)

    def advance(self):
        self.calls_before.append(len(self.calls))
        self.steps.pop(0)(self.started)


def test_blocked_head_waits_for_a_release(monkeypatch):
    """A drive turn that releases nothing does not try the blocked head
    again; the turn after a release tries it once."""
    calls = []
    real = scheduler.try_place

    def counting(table, desc, footprint):
        calls.append(desc.uid)
        return real(table, desc, footprint)

    monkeypatch.setattr(scheduler, "try_place", counting)
    whole = dict(procs=8, threads=7, gpus=1)  # one FRONTIER_NODE
    pilot = queued([make_task("a", **whole), make_task("b", **whole)], 1)
    backend = ScriptedBackend(
        [
            lambda started: pilot.launch(started[0], 0.0),
            lambda started: pilot.finish("a", ev.TASK_DONE, 0.0),
            lambda started: pilot.launch(started[1], 0.0),
            lambda started: pilot.finish("b", ev.TASK_DONE, 0.0),
        ],
        calls,
    )
    pilot.drive(backend)
    # a placed, b blocked; a's launch frees nothing; a's end frees its node
    assert backend.calls_before == [2, 2, 3, 3]
    assert calls == ["a", "b", "b"]
    assert pilot.log[-1].kind == ev.JOB_END


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


def test_a_slot_table_costs_at_most_64_bytes_a_node():
    # three lists of node_count entries and the heap's node ids; a set of
    # holders per node would cost 216 bytes more
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = SlotTable(FRONTIER_NODE, 100_000)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert table.node_count == 100_000
    assert size <= 64 * 100_000


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
        # and a recount of each node's free slots from the active placements
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
                got = None if placement is None else tuple(
                    zip(placement.node_ids, placement.chunks)
                )
                assert got == expected
                if placement is not None:
                    active[desc.uid] = placement
            assert all(0 <= c <= usable for c in table.free_cores)
            assert all(0 <= g <= gpus for g in table.free_gpus)
            cores_left, gpus_left = [usable] * nodes, [gpus] * nodes
            for p in active.values():
                for node_id, procs in zip(p.node_ids, p.chunks):
                    cores_left[node_id] -= procs * p.cpu_threads_per_process
                    gpus_left[node_id] -= procs * p.gpus_per_process
            assert table.free_cores == cores_left
            assert table.free_gpus == gpus_left

    def test_the_heap_holds_each_node_with_a_free_core_once(self):
        # random place/release sequences on small nodes, which fill and
        # free often; a full node must leave the heap, and a release must
        # not push a node that is still in it
        for seed in range(300):
            rng = random.Random(seed)
            cores = rng.randint(1, 8)
            node = NodeSpec(cores, rng.randint(0, cores - 1), rng.randint(0, 4))
            table = SlotTable(node, rng.randint(1, 6))
            active = []
            for i in range(200):
                if active and rng.random() < 0.45:
                    release(table, active.pop(rng.randrange(len(active))))
                else:
                    desc = make_task(
                        f"t{i}",
                        procs=rng.randint(1, 6),
                        threads=rng.randint(1, 2),
                        gpus=rng.choice([0, 0, 1]),
                    )
                    try:
                        placement = place(table, desc)
                    except Unplaceable:
                        continue
                    if placement is not None:
                        active.append(placement)
                assert len(table._avail) == len(set(table._avail))
                assert set(table._avail) == {
                    n for n, free in enumerate(table.free_cores) if free > 0
                }

    def test_fifo_fairness_identical_footprints(self):
        pilot = queued([exaconstit_task(f"m{i}") for i in range(5)], 16)
        queue = pilot.queue
        placed = drain(pilot)
        assert uids(placed) == ["m0", "m1"]  # 16 nodes fit two 8-node tasks
        assert uids(queue) == ["m2", "m3", "m4"]
