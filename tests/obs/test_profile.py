"""Tests for per-task profiling: capture, merge, hotspots, flamegraphs."""

import pytest

from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import Cluster
from repro.mapreduce.job import MapReduceJob, hash_partitioner
from repro.obs.profile import (
    TaskProfiler,
    merge_profile,
    render_profile_dashboard,
    run_profiled,
    write_flamegraph,
)

FUNC_A = ("mod.py", 10, "alpha")
FUNC_B = ("mod.py", 20, "beta")
FUNC_MAIN = ("mod.py", 1, "main")


def _stats(func, cc=1, nc=1, tt=0.001, ct=0.002, callers=None):
    return {func: (cc, nc, tt, ct, dict(callers or {}))}


class TestRunProfiled:
    def test_returns_value_and_stats(self):
        def work(n):
            return sum(range(n))

        value, stats = run_profiled(work, 1000)
        assert value == sum(range(1000))
        assert isinstance(stats, dict) and stats
        labels = {name for (__, __, name) in stats}
        assert "work" in labels

    def test_stats_survive_exceptions(self):
        with pytest.raises(ValueError):
            run_profiled(lambda: (_ for _ in ()).throw(ValueError("boom")))


class TestMergeProfile:
    def test_element_wise_sums(self):
        into = _stats(FUNC_A, cc=1, nc=2, tt=0.5, ct=1.0,
                      callers={FUNC_MAIN: (1, 2, 0.5, 1.0)})
        merge_profile(
            into,
            _stats(FUNC_A, cc=3, nc=4, tt=0.25, ct=0.5,
                   callers={FUNC_MAIN: (3, 4, 0.25, 0.5)}),
        )
        cc, nc, tt, ct, callers = into[FUNC_A]
        assert (cc, nc) == (4, 6)
        assert tt == pytest.approx(0.75)
        assert ct == pytest.approx(1.5)
        assert callers[FUNC_MAIN] == (4, 6, 0.75, 1.5)

    def test_disjoint_functions_and_new_callers(self):
        into = _stats(FUNC_A)
        merge_profile(into, _stats(FUNC_B, callers={FUNC_A: (1, 1, 0.1, 0.2)}))
        assert set(into) == {FUNC_A, FUNC_B}
        assert into[FUNC_B][4][FUNC_A] == (1, 1, 0.1, 0.2)


class TestTaskProfiler:
    def test_hotspots_ordered_by_self_time(self):
        prof = TaskProfiler()
        prof.add("map", "numpy", _stats(FUNC_A, tt=0.1, ct=0.2))
        prof.add("map", "numpy", _stats(FUNC_B, tt=0.9, ct=1.0))
        hot = prof.hotspots("map", "numpy")
        assert [h.func for h in hot] == ["mod.py:20:beta", "mod.py:10:alpha"]
        assert prof.tasks[("map", "numpy")] == 2
        assert prof.keys() == [("map", "numpy")]

    def test_collapsed_stacks_conserve_microseconds(self):
        prof = TaskProfiler()
        prof.add(
            "map",
            "numpy",
            {
                FUNC_MAIN: (1, 1, 0.001, 0.004, {}),
                FUNC_A: (2, 2, 0.003, 0.003,
                         {FUNC_MAIN: (2, 2, 0.003, 0.003)}),
            },
        )
        lines = prof.collapsed_stacks()
        total_us = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        assert total_us == 1000 + 3000  # every self-µs lands exactly once
        assert any(
            line.startswith("map [numpy];mod.py:1:main;mod.py:10:alpha ")
            for line in lines
        )

    def test_collapsed_stacks_split_across_callers(self):
        prof = TaskProfiler()
        prof.add(
            "reduce",
            "python",
            {
                FUNC_A: (4, 4, 0.004, 0.004, {
                    FUNC_MAIN: (3, 3, 0.003, 0.003),
                    FUNC_B: (1, 1, 0.001, 0.001),
                }),
            },
        )
        lines = prof.collapsed_stacks()
        by_stack = dict(line.rsplit(" ", 1) for line in lines)
        assert int(by_stack["reduce [python];mod.py:1:main;mod.py:10:alpha"]) == 3000
        assert int(by_stack["reduce [python];mod.py:20:beta;mod.py:10:alpha"]) == 1000

    def test_write_flamegraph(self, tmp_path):
        prof = TaskProfiler()
        prof.add("map", "numpy", _stats(FUNC_A, tt=0.002))
        path = tmp_path / "flame.txt"
        write_flamegraph(str(path), prof)
        lines = path.read_text().splitlines()
        assert lines == ["map [numpy];mod.py:10:alpha 2000"]


class TestRenderDashboard:
    def test_empty(self):
        text = render_profile_dashboard(TaskProfiler())
        assert "(no profiled tasks)" in text

    def test_sections_per_group(self):
        prof = TaskProfiler()
        prof.add("map", "numpy", _stats(FUNC_A, tt=0.1))
        prof.add("reduce", "numpy", _stats(FUNC_B, tt=0.2))
        text = render_profile_dashboard(prof)
        assert "-- map tasks [numpy kernel] (1 task profiled) --" in text
        assert "-- reduce tasks [numpy kernel] (1 task profiled) --" in text
        assert "mod.py:10:alpha" in text and "mod.py:20:beta" in text


class TestEngineProfiling:
    def _run(self, profiler, executor="serial"):
        def mapper(key, line, ctx):
            for word in line.split():
                ctx.emit(word, 1)

        def reducer(word, counts, ctx):
            ctx.emit(f"{word}\t{sum(counts)}")

        cluster = Cluster(
            dfs=InMemoryDFS(), profiler=profiler, executor=executor,
            num_workers=2,
        )
        cluster.dfs.write_file("in", ["a b a c", "b c d", "a"] * 10)
        result = cluster.run_job(
            MapReduceJob(
                name="wc",
                input_paths=["in"],
                output_path="out",
                mapper=mapper,
                reducer=reducer,
                num_reducers=3,
                partitioner=hash_partitioner,
            )
        )
        return cluster, result

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_profiles_both_phases_on_every_executor(self, executor):
        prof = TaskProfiler()
        cluster, __ = self._run(prof, executor=executor)
        kern = cluster.resolved_kernel
        assert prof.keys() == [("map", kern), ("reduce", kern)]
        assert prof.tasks[("map", kern)] > 0
        assert prof.tasks[("reduce", kern)] == 3
        # The task bodies themselves appear in the merged stats.
        map_labels = {h.func for h in prof.hotspots("map", kern, n=50)}
        assert any("_map_task_body" in label for label in map_labels)

    def test_reduce_time_lands_in_the_segmented_kernels(self, capsys, tmp_path):
        """``join --profile``: a C-Rep reduce range's stats ride on its
        first task, so the reduce phase's profile still holds the
        kernels the range ran — the marking search and the bulk index
        probe — and every cell counts as a profiled task."""
        from repro.cli import main

        flame = tmp_path / "c-rep.folded"
        assert main(
            ["join", "--algorithm", "c-rep", "--n", "600", "--space", "3000",
             "--kernel", "numpy", "--profile", "--flamegraph", str(flame)]
        ) == 0
        out = capsys.readouterr().out
        assert "-- reduce tasks [numpy kernel] (128 tasks profiled) --" in out
        reduce_frames = {
            frame.rpartition(":")[2]
            for line in flame.read_text().splitlines()
            if line.startswith("reduce [numpy];")
            for frame in line.rsplit(" ", 1)[0].split(";")[1:]
        }
        assert {"select_marked", "probe_frontier", "enumerate_columnar"} <= reduce_frames

    def test_profiled_run_is_byte_identical(self):
        bare_cluster, bare = self._run(None)
        prof_cluster, profiled = self._run(TaskProfiler())
        assert profiled.counters.as_dict() == bare.counters.as_dict()
        assert profiled.simulated_seconds == bare.simulated_seconds
        assert [
            prof_cluster.dfs.read_file(p)
            for p in prof_cluster.dfs.resolve("out")
        ] == [
            bare_cluster.dfs.read_file(p)
            for p in bare_cluster.dfs.resolve("out")
        ]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
