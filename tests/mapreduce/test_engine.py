"""Integration tests for the map-reduce engine: the classic examples
(word count, inverted index) plus determinism and failure handling."""

import pytest

from repro.errors import JobError
from repro.mapreduce.counters import C
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import Cluster
from repro.mapreduce.job import MapReduceJob, hash_partitioner


def word_count_job(num_reducers: int = 3) -> MapReduceJob:
    def mapper(key, line, ctx):
        for word in line.split():
            ctx.emit(word, 1)

    def reducer(word, counts, ctx):
        ctx.emit(f"{word}\t{sum(counts)}")

    return MapReduceJob(
        name="word-count",
        input_paths=["in"],
        output_path="out",
        mapper=mapper,
        reducer=reducer,
        num_reducers=num_reducers,
        partitioner=hash_partitioner,
    )


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(dfs=InMemoryDFS())


class TestWordCount:
    def test_counts(self, cluster):
        cluster.dfs.write_file("in", ["a b a", "b c", "a"])
        result = cluster.run_job(word_count_job())
        lines = cluster.dfs.read_dir("out")
        counts = dict(line.split("\t") for line in lines)
        assert counts == {"a": "3", "b": "2", "c": "1"}
        assert result.output_records == 3

    def test_counters(self, cluster):
        cluster.dfs.write_file("in", ["a b a", "b c", "a"])
        result = cluster.run_job(word_count_job())
        eng = result.counters
        assert eng.engine(C.MAP_INPUT_RECORDS) == 3
        assert eng.engine(C.MAP_OUTPUT_RECORDS) == 6
        assert eng.engine(C.REDUCE_INPUT_RECORDS) == 6
        assert eng.engine(C.REDUCE_INPUT_GROUPS) == 3
        assert eng.engine(C.REDUCE_OUTPUT_RECORDS) == 3
        assert result.shuffled_records == 6

    def test_one_part_file_per_reducer(self, cluster):
        cluster.dfs.write_file("in", ["a b c d e f g"])
        cluster.run_job(word_count_job(num_reducers=4))
        assert len(cluster.dfs.list_dir("out")) == 4

    def test_determinism(self):
        outputs = []
        for __ in range(2):
            c = Cluster(dfs=InMemoryDFS())
            c.dfs.write_file("in", ["z y x w", "x y", "w w w"])
            c.run_job(word_count_job())
            outputs.append(c.dfs.read_dir("out"))
        assert outputs[0] == outputs[1]


class TestEngineMechanics:
    def test_multiple_input_paths(self, cluster):
        cluster.dfs.write_file("in1", ["a"])
        cluster.dfs.write_file("in2", ["b"])
        job = word_count_job()
        job.input_paths = ["in1", "in2"]
        cluster.run_job(job)
        lines = cluster.dfs.read_dir("out")
        assert len(lines) == 2

    def test_directory_input(self, cluster):
        cluster.dfs.write_file("d/p0", ["a a"])
        cluster.dfs.write_file("d/p1", ["b"])
        job = word_count_job()
        job.input_paths = ["d"]
        cluster.run_job(job)
        counts = dict(
            line.split("\t") for line in cluster.dfs.read_dir("out")
        )
        assert counts == {"a": "2", "b": "1"}

    def test_splits_respect_split_records(self, cluster):
        cluster.split_records = 2
        cluster.dfs.write_file("in", [f"w{i}" for i in range(5)])
        result = cluster.run_job(word_count_job())
        assert len(result.map_tasks) == 3  # 2 + 2 + 1

    def test_splits_never_span_files(self, cluster):
        cluster.split_records = 100
        cluster.dfs.write_file("in1", ["a"] * 3)
        cluster.dfs.write_file("in2", ["b"] * 3)
        job = word_count_job()
        job.input_paths = ["in1", "in2"]
        result = cluster.run_job(job)
        assert len(result.map_tasks) == 2

    def test_keys_sorted_within_reducer(self, cluster):
        seen = []

        def mapper(key, line, ctx):
            ctx.emit(int(line), line)

        def reducer(key, values, ctx):
            seen.append(key)
            ctx.emit(str(key))

        cluster.dfs.write_file("in", ["3", "1", "2"])
        cluster.run_job(
            MapReduceJob(
                name="sorted",
                input_paths=["in"],
                output_path="o",
                mapper=mapper,
                reducer=reducer,
                num_reducers=1,
            )
        )
        assert seen == [1, 2, 3]

    def test_values_keep_emission_order(self, cluster):
        groups = {}

        def mapper(key, line, ctx):
            ctx.emit(0, line)

        def reducer(key, values, ctx):
            groups[key] = list(values)

        cluster.dfs.write_file("in", ["a", "b", "c"])
        cluster.run_job(
            MapReduceJob(
                name="stable",
                input_paths=["in"],
                output_path="o",
                mapper=mapper,
                reducer=reducer,
                num_reducers=1,
            )
        )
        assert groups[0] == ["a", "b", "c"]

    def test_map_only_job(self, cluster):
        def mapper(key, line, ctx):
            ctx.emit(len(line) % 2, line.upper())

        cluster.dfs.write_file("in", ["ab", "cde", "fg"])
        result = cluster.run_job(
            MapReduceJob(
                name="map-only",
                input_paths=["in"],
                output_path="o",
                mapper=mapper,
                reducer=None,
                num_reducers=2,
            )
        )
        assert sorted(cluster.dfs.read_dir("o")) == ["AB", "CDE", "FG"]
        assert result.output_records == 3

    def test_map_only_requires_string_values(self, cluster):
        def mapper(key, line, ctx):
            ctx.emit(0, 123)

        cluster.dfs.write_file("in", ["x"])
        with pytest.raises(JobError):
            cluster.run_job(
                MapReduceJob(
                    name="bad",
                    input_paths=["in"],
                    output_path="o",
                    mapper=mapper,
                    reducer=None,
                    num_reducers=1,
                )
            )


class TestInputSplits:
    """Invariants of split formation — load-bearing now that splits are
    dispatched to (possibly parallel) workers as self-contained units."""

    def _splits(self, cluster, paths):
        job = word_count_job()
        job.input_paths = paths
        return cluster._input_splits(job)

    def test_splits_never_span_files(self, cluster):
        cluster.split_records = 100
        cluster.dfs.write_file("in1", ["a"] * 3)
        cluster.dfs.write_file("in2", ["b"] * 3)
        splits = self._splits(cluster, ["in1", "in2"])
        assert len(splits) == 2
        for split in splits:
            assert len({path for path, __, __, __ in split}) == 1

    def test_splits_respect_split_records(self, cluster):
        cluster.split_records = 2
        cluster.dfs.write_file("in", [f"w{i}" for i in range(5)])
        splits = self._splits(cluster, ["in"])
        assert [len(s) for s in splits] == [2, 2, 1]

    def test_file_order_preserved_across_multi_file_inputs(self, cluster):
        cluster.split_records = 2
        cluster.dfs.write_file("d/p1", ["a0", "a1", "a2"])
        cluster.dfs.write_file("d/p0", ["b0"])
        cluster.dfs.write_file("e", ["c0", "c1"])
        splits = self._splits(cluster, ["d", "e"])
        # Directories expand sorted; explicit paths keep argument order.
        flat = [(path, lineno) for split in splits for path, lineno, __, __ in split]
        assert flat == [
            ("d/p0", 0),
            ("d/p1", 0), ("d/p1", 1), ("d/p1", 2),
            ("e", 0), ("e", 1),
        ]

    def test_records_verbatim_with_line_numbers_and_sizes(self, cluster):
        cluster.dfs.write_file("in", ["alpha", "beta"])
        ((first, second),) = [self._splits(cluster, ["in"])[0]]
        assert first == ("in", 0, "alpha", 6)
        assert second == ("in", 1, "beta", 5)

    def test_lineno_restarts_per_file(self, cluster):
        cluster.dfs.write_file("in1", ["x", "y"])
        cluster.dfs.write_file("in2", ["z"])
        splits = self._splits(cluster, ["in1", "in2"])
        assert [s[0][1] for s in splits] == [0, 0]

    def test_empty_file_yields_no_split(self, cluster):
        cluster.dfs.write_file("in1", [])
        cluster.dfs.write_file("in2", ["a"])
        splits = self._splits(cluster, ["in1", "in2"])
        assert len(splits) == 1 and splits[0][0][0] == "in2"


class TestFailures:
    def test_mapper_failure_wrapped(self, cluster):
        def mapper(key, line, ctx):
            raise ValueError("boom")

        cluster.dfs.write_file("in", ["x"])
        with pytest.raises(JobError, match="map task failed"):
            cluster.run_job(
                MapReduceJob(
                    name="failing",
                    input_paths=["in"],
                    output_path="o",
                    mapper=mapper,
                    reducer=lambda k, v, c: None,
                    num_reducers=1,
                )
            )

    def test_reducer_failure_wrapped(self, cluster):
        def mapper(key, line, ctx):
            ctx.emit(0, line)

        def reducer(key, values, ctx):
            raise RuntimeError("kaput")

        cluster.dfs.write_file("in", ["x"])
        with pytest.raises(JobError, match="reduce task 0 failed"):
            cluster.run_job(
                MapReduceJob(
                    name="failing",
                    input_paths=["in"],
                    output_path="o",
                    mapper=mapper,
                    reducer=reducer,
                    num_reducers=1,
                )
            )

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("split_records", 0, "split_records must be >= 1, got 0"),
            ("split_records", -5, "split_records must be >= 1, got -5"),
            ("num_workers", 0, "num_workers must be None or >= 1, got 0"),
            ("num_workers", -1, "num_workers must be None or >= 1, got -1"),
            ("kernel", "fast", "unknown kernel 'fast'; expected one of numpy, python"),
        ],
        ids=["split_records=0", "split_records=-5", "num_workers=0", "num_workers=-1",
             "kernel=fast"],
    )
    def test_cluster_rejects_settings_it_cannot_run(self, field, value, message):
        """One JobError naming the field and the value, raised before any
        job runs — not a bare ValueError at the first split, an empty
        committed output, or a silently serial run."""
        dfs = InMemoryDFS()
        dfs.write_file("in", ["a b a", "b c"])
        with pytest.raises(JobError, match=f"^{message}$"):
            Cluster(dfs=dfs, **{field: value}).run_job(word_count_job())
        assert not dfs.exists("out")

    def test_missing_input(self, cluster):
        with pytest.raises(Exception):
            cluster.run_job(word_count_job())


class TestCostIntegration:
    def test_simulated_time_positive(self, cluster):
        cluster.dfs.write_file("in", ["a b c"])
        result = cluster.run_job(word_count_job())
        assert result.simulated_seconds > 0
        assert result.cost.startup_s == cluster.cost_model.job_startup_s

    def test_more_data_more_time(self):
        times = []
        for n in (100, 10_000):
            c = Cluster(dfs=InMemoryDFS())
            c.dfs.write_file("in", [f"w{i} w{i + 1}" for i in range(n)])
            times.append(c.run_job(word_count_job()).simulated_seconds)
        assert times[1] > times[0]

    def test_dfs_io_counters(self, cluster):
        cluster.dfs.write_file("in", ["hello world"])
        result = cluster.run_job(word_count_job())
        assert result.counters.engine(C.DFS_BYTES_READ) >= 12
        assert result.counters.engine(C.DFS_BYTES_WRITTEN) > 0

    def test_reduce_tasks_charged_input_bytes(self, cluster):
        """Regression: reduce TaskStats.input_bytes was always 0, so the
        reduce phase's shuffled volume never reached the cost model."""
        cluster.dfs.write_file("in", ["a b a", "b c", "a"])
        result = cluster.run_job(word_count_job())
        per_task = [t.input_bytes for t in result.reduce_tasks]
        assert sum(per_task) == result.counters.engine(C.MAP_OUTPUT_BYTES)
        # every reducer that received records is charged for them
        for stats in result.reduce_tasks:
            assert (stats.input_bytes > 0) == (stats.input_records > 0)

    def test_reduce_input_bytes_reflects_combiner(self):
        """Post-combine (shuffled) bytes are charged, not raw map output."""

        def mapper(key, line, ctx):
            for word in line.split():
                ctx.emit(word, 1)

        def reducer(word, counts, ctx):
            ctx.emit(f"{word}\t{sum(counts)}")

        results = {}
        for combine in (False, True):
            c = Cluster(dfs=InMemoryDFS())
            c.dfs.write_file("in", ["a a a a b"] * 4)
            results[combine] = c.run_job(
                MapReduceJob(
                    name="wc",
                    input_paths=["in"],
                    output_path="out",
                    mapper=mapper,
                    reducer=reducer,
                    num_reducers=1,
                    partitioner=hash_partitioner,
                    combiner=(lambda w, counts: [sum(counts)]) if combine else None,
                )
            )
        combined = results[True].reduce_tasks[0].input_bytes
        raw = results[False].reduce_tasks[0].input_bytes
        assert 0 < combined < raw
        assert combined == results[True].counters.engine(C.MAP_OUTPUT_BYTES)

    def test_wall_clock_recorded(self, cluster):
        cluster.dfs.write_file("in", ["a b c"])
        result = cluster.run_job(word_count_job())
        assert result.wall_clock_seconds > 0
