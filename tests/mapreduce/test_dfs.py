"""Unit tests for the DFS backends.

Parametrized over the in-memory store and the local-filesystem store:
both implement the same interface and must behave identically.
"""

import numpy as np
import pytest

from repro.errors import DFSError
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.localfs import LocalFSDFS


@pytest.fixture(params=["memory", "localfs"])
def dfs(request, tmp_path):
    if request.param == "memory":
        return InMemoryDFS()
    return LocalFSDFS(tmp_path / "dfs")


class TestWriteRead:
    def test_roundtrip(self, dfs):
        dfs.write_file("a/b.txt", ["one", "two"])
        assert dfs.read_file("a/b.txt") == ["one", "two"]

    def test_write_returns_bytes(self, dfs):
        n = dfs.write_file("f", ["ab", "c"])
        assert n == 3 + 2  # line lengths + newlines

    def test_overwrite(self, dfs):
        dfs.write_file("f", ["old"])
        dfs.write_file("f", ["new"])
        assert dfs.read_file("f") == ["new"]

    def test_missing_file(self, dfs):
        with pytest.raises(DFSError):
            dfs.read_file("nope")

    def test_newline_in_record_rejected(self, dfs):
        with pytest.raises(DFSError):
            dfs.write_file("f", ["bad\nrecord"])

    @pytest.mark.parametrize("write", ["write_file", "write_side_file"])
    def test_newline_error_names_the_first_offending_record(self, dfs, write):
        dfs.write_file("f", ["kept"])
        lines = ["fine", "", "bad\nrecord", "also\nbad", "fine"]
        with pytest.raises(DFSError, match=r"record contains a newline: 'bad\\nrecord'"):
            getattr(dfs, write)("f", lines)
        with pytest.raises(DFSError, match=r"record contains a newline: '\\n'"):
            getattr(dfs, write)("f", iter(["\n"]))
        assert dfs.read_file("f") == ["kept"]  # nothing was stored
        assert dfs.file_size("f") == 5

    def test_iter_records(self, dfs):
        dfs.write_file("f", ["a", "b"])
        assert list(dfs.iter_records("f")) == [(0, "a"), (1, "b")]

    def test_read_returns_copy(self, dfs):
        dfs.write_file("f", ["a"])
        lines = dfs.read_file("f")
        lines.append("mutated")
        assert dfs.read_file("f") == ["a"]


class TestAtomicWrites:
    """LocalFS writes are temp-file + ``os.replace``: a crash mid-write
    can never leave a truncated file under the final name, so a resumed
    workflow never fingerprint-matches half a part file."""

    def test_failed_write_leaves_old_content(self, tmp_path):
        store = LocalFSDFS(tmp_path / "dfs")
        store.write_file("out/part", ["complete", "old", "file"])

        def exploding_lines():
            yield "partial"
            raise RuntimeError("writer crashed mid-stream")

        with pytest.raises(RuntimeError):
            store.write_file("out/part", exploding_lines())
        # The old content survives untouched and no temp file remains.
        assert store.read_file("out/part") == ["complete", "old", "file"]
        assert not list((tmp_path / "dfs" / "out").glob(".*.tmp"))

    def test_no_partial_file_on_first_write(self, tmp_path):
        store = LocalFSDFS(tmp_path / "dfs")

        def exploding_lines():
            yield "partial"
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            store.write_file("out/part", exploding_lines())
        with pytest.raises(DFSError):
            store.read_file("out/part")
        assert not list((tmp_path / "dfs" / "out").glob("*"))

    def test_resume_over_stale_truncated_temp(self, tmp_path):
        # A kill -9 mid-write leaves the deterministic temp name behind,
        # truncated.  The resumed write must overwrite it and land the
        # complete file atomically.
        store = LocalFSDFS(tmp_path / "dfs")
        out = tmp_path / "dfs" / "out"
        out.mkdir(parents=True)
        (out / ".part.tmp").write_text("trunc", encoding="utf-8")

        store.write_file("out/part", ["all", "records", "present"])
        assert store.read_file("out/part") == ["all", "records", "present"]
        assert not (out / ".part.tmp").exists()

    def test_side_files_are_atomic_too(self, tmp_path):
        store = LocalFSDFS(tmp_path / "dfs")
        store.write_side_file("meta/state", ["v1"])

        def exploding_lines():
            yield "v2-partial"
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            store.write_side_file("meta/state", exploding_lines())
        assert store.read_side_file("meta/state") == ["v1"]


class TestAccounting:
    def test_bytes_written_accumulates(self, dfs):
        dfs.write_file("a", ["xx"])
        dfs.write_file("b", ["yyy"])
        assert dfs.bytes_written == 3 + 4

    def test_bytes_read_accumulates(self, dfs):
        dfs.write_file("a", ["xx"])
        dfs.read_file("a")
        dfs.read_file("a")
        assert dfs.bytes_read == 6

    def test_file_size(self, dfs):
        dfs.write_file("a", ["abc", ""])
        assert dfs.file_size("a") == 4 + 1

    def test_file_size_is_the_current_versions(self, dfs):
        dfs.write_file("d/a", ["abc", ""])
        dfs.write_file("d/a", ["a much longer line"])
        assert dfs.file_size("d/a") == 19
        dfs.write_side_file("d/a", [])
        assert dfs.file_size("d/a") == 0
        dfs.delete("d/a")
        with pytest.raises(DFSError):
            dfs.file_size("d/a")
        dfs.write_file("d/a", ["xy"])
        dfs.write_file("d/b", ["z", "z"])
        assert dfs.file_size("d/a") == 3
        assert dfs.dir_size("d") == 7
        assert dfs.dir_manifest("d") == [("d/a", 3), ("d/b", 4)]
        dfs.delete("d")
        dfs.write_side_file("d/b", ["q"])
        assert dfs.dir_manifest("d") == [("d/b", 2)]
        before = dfs.bytes_read
        dfs.charge_read("d/b")
        assert dfs.bytes_read - before == 2

    def test_non_ascii_text_is_counted_in_utf8_bytes(self, tmp_path):
        """Both stores size and charge a file by its UTF-8 bytes: "é" is
        two bytes on disk, and its newline one more."""
        charges = []
        for store in (InMemoryDFS(), LocalFSDFS(tmp_path / "dfs")):
            written = store.write_file("f", ["é"])
            before = store.bytes_read
            store.read_file("f")
            read = store.bytes_read - before
            store.charge_read("f")
            charged = store.bytes_read - before - read
            charges.append((written, store.file_size("f"), read, charged))
        assert charges == [(3, 3, 3, 3)] * 2

    def test_num_records(self, dfs):
        dfs.write_file("d/p1", ["a", "b"])
        dfs.write_file("d/p2", ["c"])
        read = dfs.bytes_read
        assert dfs.num_records("d/p1") == 2
        assert dfs.num_records("d") == 3
        # Counting lines is metadata, not a job read.
        assert dfs.bytes_read == read


class TestBundleFiles:
    """A column bundle written through ``write_records``: sized by column
    and accounted before its text exists (in memory), formatted on the
    first read, and otherwise indistinguishable from its lines."""

    @staticmethod
    def _bundles():
        from repro.data.io import TAGGED_CODEC, rect_csv
        from repro.geometry.rectangle import Rect
        from repro.kernels.batch import (
            RectBatch,
            RectColumns,
            ResultColumns,
            TaggedColumns,
        )

        rects = [Rect(0.5, 10.0, 2.0, 0.0), Rect(-1e16, 1 / 3, 5e-324, 7.0)]
        for rect in rects:
            rect_csv(rect)  # spelled, as staging spells every input rectangle
        batch = RectBatch.from_records(np, [(-(2**63), rects[0]), (99, rects[1])])
        tagged = TaggedColumns(
            RectColumns(("R1", "Roads"), np.array([1, 0]), batch),
            np.array([True, False]),
        )
        result = ResultColumns(np.array([[0, 10, -7], [2**63 - 1, 9, 100]]))
        return [(tagged, TAGGED_CODEC), (result, None)]

    @pytest.fixture
    def formatted(self, monkeypatch):
        """Counts every time a bundle's text is formatted."""
        from repro.kernels.batch import ResultColumns, TaggedColumns

        calls = []
        for cls, method in (
            (TaggedColumns, "encoded_lines"),
            (ResultColumns, "_materialise"),
        ):
            real = getattr(cls, method)

            def counting(self, _real=real):
                calls.append(type(self).__name__)
                return _real(self)

            monkeypatch.setattr(cls, method, counting)
        return calls

    def test_sized_and_accounted_before_any_read(self, dfs, formatted):
        for k, (bundle, codec) in enumerate(self._bundles()):
            lines = list(bundle) if codec is None else codec.encode_lines(list(bundle))
            size = sum(len(line) + 1 for line in lines)
            del formatted[:]
            before = dfs.bytes_written
            assert dfs.write_records(f"out/part-{k:05d}", bundle, codec) == size
            assert dfs.bytes_written - before == size
            assert dfs.file_size(f"out/part-{k:05d}") == size
            assert dfs.num_records(f"out/part-{k:05d}") == len(lines)
            if isinstance(dfs, InMemoryDFS):
                assert not formatted  # nothing built the text yet
            assert dfs.typed_records(f"out/part-{k:05d}", codec) is bundle
            read_before = dfs.bytes_read
            assert dfs.read_file(f"out/part-{k:05d}") == lines
            assert dfs.bytes_read - read_before == size
            assert dfs.read_side_file(f"out/part-{k:05d}") == lines
            if isinstance(dfs, InMemoryDFS):
                assert len(formatted) == 1  # formatted once, on first read
        sizes = [dfs.file_size(f) for f in dfs.list_dir("out")]
        assert dfs.dir_manifest("out") == list(zip(dfs.list_dir("out"), sizes))
        assert dfs.num_records("out") == 2 + 3

    def test_rewrite_and_delete_drop_the_bundle(self, dfs, formatted):
        (bundle, codec), __ = self._bundles()
        dfs.write_records("out/part-00000", bundle, codec)
        dfs.write_file("out/part-00000", ["plain"])
        assert dfs.typed_records("out/part-00000", codec) is None
        assert dfs.read_file("out/part-00000") == ["plain"]
        assert dfs.file_size("out/part-00000") == 6
        dfs.write_records("out/part-00000", bundle, codec)
        assert dfs.delete("out") == 1
        assert dfs.typed_records("out/part-00000", codec) is None
        with pytest.raises(DFSError):
            dfs.read_file("out/part-00000")
        if isinstance(dfs, InMemoryDFS):
            assert not formatted  # the dropped versions were never read

    def test_text_is_encoded_on_write_under_the_block_plane(self, formatted):
        from repro.mapreduce.blocks import BlockPlane
        from repro.mapreduce.workers import WorkerPool

        store = InMemoryDFS()
        store.block_plane = BlockPlane(store, WorkerPool(2), 2, 1000, None)
        (bundle, codec), __ = self._bundles()
        size = store.write_records("out/part-00000", bundle, codec)
        assert formatted == ["TaggedColumns"]  # checksummed as written
        assert store.read_file("out/part-00000") == codec.encode_lines(list(bundle))
        assert store.bytes_read == size


class TestDirectories:
    def test_list_dir_sorted(self, dfs):
        dfs.write_file("out/part-00001", ["b"])
        dfs.write_file("out/part-00000", ["a"])
        assert dfs.list_dir("out") == ["out/part-00000", "out/part-00001"]

    def test_read_dir_concatenates_in_part_order(self, dfs):
        dfs.write_file("out/part-00001", ["b"])
        dfs.write_file("out/part-00000", ["a"])
        assert dfs.read_dir("out") == ["a", "b"]

    def test_read_dir_missing(self, dfs):
        with pytest.raises(DFSError):
            dfs.read_dir("nothing")

    def test_resolve_file_and_dir(self, dfs):
        dfs.write_file("single", ["x"])
        dfs.write_file("d/p0", ["y"])
        assert dfs.resolve("single") == ["single"]
        assert dfs.resolve("d") == ["d/p0"]
        with pytest.raises(DFSError):
            dfs.resolve("missing")

    def test_exists(self, dfs):
        dfs.write_file("d/p0", ["y"])
        assert dfs.exists("d")
        assert dfs.exists("d/p0")
        assert not dfs.exists("q")
        assert "d" in dfs

    def test_dir_size(self, dfs):
        dfs.write_file("d/p0", ["ab"])
        dfs.write_file("d/p1", ["c"])
        assert dfs.dir_size("d") == 3 + 2

    def test_delete_file(self, dfs):
        dfs.write_file("f", ["x"])
        assert dfs.delete("f") == 1
        assert not dfs.exists("f")

    def test_delete_dir(self, dfs):
        dfs.write_file("d/p0", ["x"])
        dfs.write_file("d/p1", ["y"])
        assert dfs.delete("d") == 2
        assert not dfs.exists("d")

    def test_trailing_slash_normalized(self, dfs):
        dfs.write_file("/a/b/", ["x"])
        assert dfs.read_file("a/b") == ["x"]


class TestBackendEquivalence:
    """Whole joins must produce identical results on either backend."""

    def test_join_outputs_identical(self, tmp_path):
        from repro.data.synthetic import SyntheticSpec, generate_relations
        from repro.grid.partitioning import GridPartitioning
        from repro.joins.controlled import ControlledReplicateJoin
        from repro.mapreduce.engine import Cluster
        from repro.query.predicates import Overlap
        from repro.query.query import Query

        spec = SyntheticSpec(
            n=120, x_range=(0, 400), y_range=(0, 400),
            l_range=(0, 60), b_range=(0, 60), seed=55,
        )
        datasets = generate_relations(spec, ["R1", "R2", "R3"])
        query = Query.chain(["R1", "R2", "R3"], Overlap())
        grid = GridPartitioning.square(spec.space, 16)

        mem = ControlledReplicateJoin().run(
            query, datasets, grid, Cluster(dfs=InMemoryDFS())
        )
        disk_cluster = Cluster(dfs=LocalFSDFS(tmp_path / "cluster"))
        disk = ControlledReplicateJoin().run(query, datasets, grid, disk_cluster)

        assert mem.tuples == disk.tuples
        assert mem.stats.shuffled_records == disk.stats.shuffled_records
        assert mem.stats.rectangles_marked == disk.stats.rectangles_marked
        # Intermediate results persisted on disk and re-readable.
        marked = disk_cluster.dfs.read_dir("controlled-replicate/marked")
        assert len(marked) == 3 * 120

    def test_path_escape_blocked(self, tmp_path):
        store = LocalFSDFS(tmp_path / "dfs")
        with pytest.raises(DFSError):
            store.write_file("../../etc/passwd", ["x"])
        with pytest.raises(DFSError):
            store.read_file("a/../b")
