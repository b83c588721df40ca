"""Unit tests for the durable storage plane.

The end-to-end contract (algorithms × executors byte-identical under
storage chaos at replication=2) lives in
``tests/joins/test_storage_chaos_golden.py``; this module covers the
pieces: chunking, deterministic placement, read failover,
corruption/loss accounting, re-replication, fsck + repair, lazy
ingestion, placement persistence and the disengaged byte-identity
guarantee.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import DFSError, FaultPlanError
from repro.mapreduce.blocks import (
    BlockPlane,
    block_payload,
    chunk_blocks,
)
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.faults import FaultPlan
from repro.mapreduce.localfs import LocalFSDFS
from repro.mapreduce.placement import (
    PLACEMENT_PATH,
    BlockMeta,
    PlacementMap,
)
from repro.mapreduce.workers import WorkerPool


def _plane(dfs=None, pool=None, replication=2, block_records=4, ledger=None):
    return BlockPlane(
        dfs if dfs is not None else InMemoryDFS(),
        pool if pool is not None else WorkerPool(4),
        replication,
        block_records,
        ledger,
    )


# ----------------------------------------------------------------------
# Chunking
# ----------------------------------------------------------------------
class TestChunking:
    def test_exact_and_ragged(self):
        lines = [f"l{i}" for i in range(10)]
        blocks = chunk_blocks(lines, 4)
        assert [(s, len(c)) for s, c in blocks] == [(0, 4), (4, 4), (8, 2)]
        assert [line for __, chunk in blocks for line in chunk] == lines

    def test_empty_file_has_no_blocks(self):
        assert chunk_blocks([], 4) == []

    def test_invalid_block_size(self):
        with pytest.raises(DFSError, match="block_records"):
            chunk_blocks(["a"], 0)

    def test_payload_is_newline_terminated_utf8(self):
        assert block_payload(["a", "β"]) == "a\nβ\n".encode("utf-8")


# ----------------------------------------------------------------------
# Placement map
# ----------------------------------------------------------------------
class TestPlacementMap:
    def test_json_round_trip(self):
        pmap = PlacementMap(3)
        pmap.set_file(
            "d/f",
            [
                BlockMeta(0, 0, 4, 40, 123, ["w0", "w2"]),
                BlockMeta(1, 4, 2, 20, 456, ["w1", "w3"]),
            ],
        )
        text = pmap.to_json()
        assert "\n" not in text
        back = PlacementMap.from_json(text)
        assert back.replication == 3
        assert back.workers == ["w0", "w2", "w1", "w3"]
        assert [b.as_dict() for b in back.blocks("d/f")] == [
            b.as_dict() for b in pmap.blocks("d/f")
        ]

    def test_json_declares_crc32_checksum(self):
        assert json.loads(PlacementMap(2).to_json())["checksum"] == "crc32"

    def test_from_json_refuses_untagged_map(self):
        # A map persisted before block checksums were CRC-32 carries no
        # tag; auditing it would report every block corrupt.
        data = json.loads(PlacementMap(2).to_json())
        del data["checksum"]
        with pytest.raises(DFSError, match="CRC32C.*re-stage the store"):
            PlacementMap.from_json(json.dumps(data))

    def test_from_json_rejects_garbage(self):
        with pytest.raises(DFSError, match="corrupt placement map"):
            PlacementMap.from_json("{nope")
        with pytest.raises(DFSError, match="replication"):
            PlacementMap.from_json("{}")

    def test_holders_prefers_full_coverage(self):
        pmap = PlacementMap(2)
        pmap.set_file(
            "f",
            [
                BlockMeta(0, 0, 4, 40, 1, ["w0", "w1"]),
                BlockMeta(1, 4, 4, 40, 2, ["w1", "w2"]),
            ],
        )
        # Only w1 holds both blocks of lines 0..7.
        assert pmap.holders("f", 0, 7) == ("w1",)
        # A single block's range keeps its replica (failover) order.
        assert pmap.holders("f", 0, 3) == ("w0", "w1")
        # No single worker covers everything -> union, replica order.
        pmap.set_file(
            "g",
            [
                BlockMeta(0, 0, 4, 40, 1, ["w0"]),
                BlockMeta(1, 4, 4, 40, 2, ["w2"]),
            ],
        )
        assert pmap.holders("g", 0, 7) == ("w0", "w2")
        assert pmap.holders("g", 99, 100) == ()


# ----------------------------------------------------------------------
# The plane: write/read path
# ----------------------------------------------------------------------
class TestBlockPlaneBasics:
    def test_write_places_replication_copies(self):
        plane = _plane()
        plane.dfs.block_plane = plane
        plane.dfs.write_file("in/f", [f"r{i}" for i in range(10)])
        blocks = plane.placement.blocks("in/f")
        assert [b.start for b in blocks] == [0, 4, 8]
        for b in blocks:
            assert len(b.replicas) == 2
            assert len(set(b.replicas)) == 2
        assert plane.dfs.read_file("in/f") == [f"r{i}" for i in range(10)]

    def test_placement_is_deterministic(self):
        a, b = _plane(), _plane()
        for plane in (a, b):
            plane.on_write("in/f", [f"r{i}" for i in range(10)])
        assert a.placement.to_json() == b.placement.to_json()

    def test_read_untracked_returns_none(self):
        assert _plane().read("nope/missing") is None

    def test_lazy_ingest_of_prestaged_files(self):
        dfs = InMemoryDFS()
        dfs.write_file("in/old", ["a", "b"])  # written before the plane
        plane = _plane(dfs=dfs)
        dfs.block_plane = plane
        assert not plane.placement.tracks("in/old")
        assert dfs.read_file("in/old") == ["a", "b"]
        assert plane.placement.tracks("in/old")

    def test_internal_paths_never_recurse(self):
        plane = _plane()
        plane.dfs.block_plane = plane
        plane.on_write("in/f", ["x"])
        assert not any(
            p.startswith("_blocks") for p in plane.placement.files
        )

    def test_rewrite_replaces_blocks(self):
        plane = _plane()
        plane.on_write("f", [f"r{i}" for i in range(8)])
        plane.on_write("f", ["just-one"])
        assert len(plane.placement.blocks("f")) == 1
        assert plane.read("f") == ["just-one"]

    def test_delete_drops_placement(self):
        plane = _plane()
        plane.on_write("f", ["x", "y"])
        plane.on_delete("f")
        assert not plane.placement.tracks("f")

    def test_invalid_replication_rejected(self):
        with pytest.raises(DFSError, match="replication factor"):
            _plane(replication=0)


# ----------------------------------------------------------------------
# Failover, corruption, loss
# ----------------------------------------------------------------------
class TestFailover:
    def test_corrupt_replica_fails_over_and_is_dropped(self):
        plane = _plane()
        plane.on_write("f", [f"r{i}" for i in range(4)])
        block = plane.placement.blocks("f")[0]
        first = block.replicas[0]
        plane.dfs.write_side_file(
            plane._replica_path(first, "f", 0), ["flipped-bits"]
        )
        assert plane.read("f") == [f"r{i}" for i in range(4)]
        assert plane.report.block_corruptions == 1
        assert first not in block.replicas

    def test_all_replicas_corrupt_raises_loudly(self):
        plane = _plane()
        plane.on_write("f", ["a"])
        for worker in list(plane.placement.blocks("f")[0].replicas):
            plane.dfs.write_side_file(
                plane._replica_path(worker, "f", 0), ["zap"]
            )
        with pytest.raises(DFSError, match="block lost"):
            plane.read("f")

    def test_lose_replica_fault_counts_immediately(self):
        plane = _plane()
        plane.on_write("f", ["a", "b"])
        assert plane._lose_replica("f", 0, 1)
        assert plane.report.replicas_lost == 1
        assert len(plane.placement.blocks("f")[0].replicas) == 1
        assert plane.read("f") == ["a", "b"]

    @pytest.mark.parametrize(
        "block,replica",
        [(2, 0), (0, 2)],
        ids=["block-past-the-file", "replica-past-the-factor"],
    )
    def test_out_of_range_storage_spec_is_rejected(self, block, replica):
        """A spec that could never fire names itself instead of staying
        pending forever with no event and no warning."""
        plane = _plane()
        plane.on_write("f", ["a", "b", "c"])  # one block of 4 records
        plan = FaultPlan().corrupt_block("f", block=block, replica=replica)
        with pytest.raises(FaultPlanError, match=f"block {block}, replica {replica}"):
            plane.enact_faults(plan, "j")

    def test_replica_slot_emptied_by_a_loss_stays_pending(self):
        plane = _plane()
        plane.on_write("f", ["a"])
        assert plane._lose_replica("f", 0, 1)
        plan = FaultPlan().lose_replica("f", block=0, replica=1)
        plane.enact_faults(plan, "j")  # in range, just empty for now
        assert plan.specs[0] not in plane.pool.fired

    def test_dead_worker_replicas_swept(self):
        pool = WorkerPool(3)
        plane = _plane(pool=pool)
        plane.on_write("f", [f"r{i}" for i in range(8)])
        victim = plane.placement.blocks("f")[0].replicas[0]
        pool.kill(victim)
        plane.sweep_dead_workers()
        assert plane.report.replicas_lost > 0
        for block in plane.placement.blocks("f"):
            assert victim not in block.replicas


# ----------------------------------------------------------------------
# Self-healing
# ----------------------------------------------------------------------
class TestRereplication:
    def test_worker_death_heals_to_target_factor(self):
        pool = WorkerPool(3)
        plane = _plane(pool=pool)
        plane.on_write("f", [f"r{i}" for i in range(8)])
        victim = plane.placement.blocks("f")[0].replicas[0]
        pool.kill(victim)
        plane.rereplicate()
        report = plane.drain_report()
        assert report.blocks_rereplicated == report.replicas_lost > 0
        assert report.rereplicated_bytes > 0
        assert report.under_replicated == 0
        for block in plane.placement.blocks("f"):
            assert len(block.replicas) == 2
            assert victim not in block.replicas
        assert plane.read("f") == [f"r{i}" for i in range(8)]

    def test_pool_too_small_surfaces_under_replication(self):
        pool = WorkerPool(2)
        plane = _plane(pool=pool)
        plane.on_write("f", ["a"])
        pool.kill(pool.active()[0])
        plane.rereplicate()
        report = plane.drain_report()
        assert report.under_replicated == 1
        assert plane.fsck().exit_code == 1

    def test_drain_report_resets(self):
        plane = _plane()
        plane.on_write("f", ["a"])
        plane._lose_replica("f", 0, 0)
        assert plane.drain_report().replicas_lost == 1
        assert plane.drain_report().replicas_lost == 0


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------
class TestFsck:
    def test_healthy_store_exits_zero(self):
        plane = _plane()
        plane.on_write("f", [f"r{i}" for i in range(8)])
        report = plane.fsck()
        assert (report.exit_code, report.problems) == (0, [])
        assert report.healthy == report.blocks == 2

    def test_corrupt_replica_exits_one_and_names_it(self):
        plane = _plane()
        plane.on_write("f", ["a"])
        worker = plane.placement.blocks("f")[0].replicas[0]
        plane.dfs.write_side_file(
            plane._replica_path(worker, "f", 0), ["zap"]
        )
        report = plane.fsck()
        assert report.exit_code == 1
        assert any(
            line.startswith("corrupt: f block 0") for line in report.problems
        )

    def test_unrecoverable_block_exits_two(self):
        plane = _plane()
        plane.on_write("f", ["a"])
        for worker in list(plane.placement.blocks("f")[0].replicas):
            plane.dfs.delete(plane._replica_path(worker, "f", 0))
        report = plane.fsck()
        assert report.exit_code == 2
        assert any(line.startswith("lost: f block 0") for line in report.problems)

    def test_repair_restores_health(self):
        plane = _plane()
        plane.on_write("f", [f"r{i}" for i in range(8)])
        worker = plane.placement.blocks("f")[0].replicas[0]
        plane.dfs.write_side_file(
            plane._replica_path(worker, "f", 0), ["zap"]
        )
        repaired = plane.fsck(repair=True)
        assert repaired.exit_code == 0
        assert repaired.repaired == 1
        assert plane.fsck().exit_code == 0


# ----------------------------------------------------------------------
# Persistence / offline audit
# ----------------------------------------------------------------------
class TestPersistence:
    def test_placement_survives_process_restart(self, tmp_path):
        root = str(tmp_path / "store")
        dfs = LocalFSDFS(root)
        plane = _plane(dfs=dfs)
        dfs.block_plane = plane
        dfs.write_file("in/f", [f"r{i}" for i in range(10)])
        assert plane.dirty  # mutations wait for a barrier's flush
        plane.flush()
        persisted = dfs.read_side_file(PLACEMENT_PATH)
        assert len(persisted) == 1

        # A fresh process: new DFS handle, no pool, no factor.
        offline = BlockPlane(LocalFSDFS(root), None, None, 4)
        assert offline.replication == 2
        assert offline.placement.to_json() == plane.placement.to_json()
        assert offline.fsck().exit_code == 0
        assert offline.read("in/f") == [f"r{i}" for i in range(10)]

    def test_offline_repair_uses_persisted_worker_set(self, tmp_path):
        root = str(tmp_path / "store")
        dfs = LocalFSDFS(root)
        plane = _plane(dfs=dfs)
        dfs.block_plane = plane
        dfs.write_file("in/f", [f"r{i}" for i in range(10)])
        plane.flush()
        victim = plane.placement.blocks("in/f")[0]
        (
            tmp_path
            / "store"
            / "_blocks"
            / victim.replicas[0]
            / "in#f"
            / "b-00000"
        ).write_text("garbage\n", encoding="utf-8")

        offline = BlockPlane(LocalFSDFS(root), None, None, 4)
        assert offline.fsck().exit_code == 1
        assert BlockPlane(LocalFSDFS(root), None, None, 4).fsck(
            repair=True
        ).exit_code == 0
        assert BlockPlane(LocalFSDFS(root), None, None, 4).fsck().exit_code == 0

    def test_map_is_persisted_per_barrier_not_per_mutation(self, monkeypatch, tmp_path):
        """A replicated C-Rep-L run mutates the placement map on every
        write, read-time ingestion and re-replication, but rewrites
        ``placement.json`` only at its jobs' barriers — and what it
        leaves on disk is the live map."""
        from repro.data.synthetic import SyntheticSpec, generate_relations
        from repro.grid.partitioning import GridPartitioning
        from repro.joins.registry import make_algorithm
        from repro.mapreduce.engine import Cluster
        from repro.query.predicates import Overlap
        from repro.query.query import Query

        persists = []
        real = BlockPlane._persist

        def counting(plane):
            persists.append(plane)
            real(plane)

        monkeypatch.setattr(BlockPlane, "_persist", counting)
        spec = SyntheticSpec(
            n=150, x_range=(0, 600), y_range=(0, 600),
            l_range=(0, 60), b_range=(0, 60), seed=7,
        )
        datasets = generate_relations(spec, ["R1", "R2", "R3"])
        query = Query.chain(["R1", "R2", "R3"], Overlap())
        cluster = Cluster(
            dfs=LocalFSDFS(str(tmp_path / "store")), replication=2, num_workers=3
        )
        result = make_algorithm("c-rep-l", query=query, d_max=85.0).run(
            query, datasets, GridPartitioning.square(spec.space, 16), cluster
        )
        jobs = len(result.workflow.job_results)
        assert jobs == 2
        assert 1 <= len(persists) <= 2 * jobs
        plane = cluster.dfs.block_plane
        assert not plane.dirty
        on_disk = BlockPlane(LocalFSDFS(str(tmp_path / "store")), None, None, 4)
        assert on_disk.placement.to_json() == plane.placement.to_json()
        assert on_disk.fsck().exit_code == 0

    def test_empty_root_is_healthy(self, tmp_path):
        plane = BlockPlane(LocalFSDFS(str(tmp_path / "empty")), None, None, 4)
        report = plane.fsck()
        assert (report.exit_code, report.blocks) == (0, 0)

    def test_explicit_factor_overrides_persisted(self, tmp_path):
        root = str(tmp_path / "store")
        dfs = LocalFSDFS(root)
        plane = _plane(dfs=dfs)
        dfs.block_plane = plane
        dfs.write_file("in/f", ["a"])
        plane.flush()
        reattached = BlockPlane(LocalFSDFS(root), WorkerPool(4), 3, 4)
        assert reattached.replication == 3
        reattached.rereplicate()
        assert len(reattached.placement.blocks("in/f")[0].replicas) == 3


# ----------------------------------------------------------------------
# Locality hints
# ----------------------------------------------------------------------
class TestSplitLocalities:
    def test_holders_and_bytes_per_split(self):
        plane = _plane()
        lines = [f"record-{i}" for i in range(8)]
        plane.on_write("in/f", lines)
        splits = [
            [("in/f", i, lines[i], len(lines[i]) + 1) for i in range(0, 4)],
            [("in/f", i, lines[i], len(lines[i]) + 1) for i in range(4, 8)],
        ]
        localities = plane.split_localities(splits)
        assert set(localities) == {0, 1}
        holders, nbytes = localities[0]
        assert holders == tuple(plane.placement.blocks("in/f")[0].replicas)
        assert nbytes == sum(len(line) + 1 for line in lines[:4])

    def test_untracked_files_are_omitted(self):
        plane = _plane()
        assert plane.split_localities([[("ghost", 0, "x", 2)]]) == {}
