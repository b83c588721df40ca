"""Failure injection: corrupted inputs and hostile configurations must
surface as clean, typed errors — never silent data loss."""

import pytest

from repro.data.synthetic import SyntheticSpec, generate_relations
from repro.errors import DFSError, JobError, JoinError, ReproError
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.joins.all_replicate import AllReplicateJoin
from repro.joins.base import stage_datasets
from repro.joins.cascade import CascadeJoin
from repro.joins.controlled import ControlledReplicateJoin
from repro.joins.registry import make_algorithm
from repro.mapreduce.engine import Cluster
from repro.query.predicates import Overlap
from repro.query.query import Query

GRID = GridPartitioning(Rect.from_corners(0, 0, 100, 100), 2, 2)
QUERY = Query.chain(["R1", "R2"], Overlap())

GOOD = {
    "R1": [(0, Rect(10, 90, 20, 20))],
    "R2": [(0, Rect(15, 85, 20, 20))],
}


def corrupt_input(cluster: Cluster, line: str) -> None:
    """Append a malformed record to R1's staged file."""
    lines = cluster.dfs.read_file("input/R1")
    cluster.dfs.write_file("input/R1", lines + [line])


@pytest.mark.parametrize(
    "algorithm",
    [CascadeJoin(), AllReplicateJoin(), ControlledReplicateJoin()],
    ids=["cascade", "all-rep", "c-rep"],
)
@pytest.mark.parametrize(
    "bad_line",
    ["not,a,rect", "1,2,3", "9,1.0,2.0,NaN,4.0", ""],
    ids=["garbage", "short", "nan-coord", "empty"],
)
def test_malformed_record_fails_loudly(monkeypatch, algorithm, bad_line):
    # The algorithms (re-)stage their inputs on run(), so the corruption
    # is injected right after staging via the staging hook each module
    # imported.
    import repro.joins.all_replicate as ar
    import repro.joins.cascade as cc
    import repro.joins.controlled as ct

    def stage_and_corrupt(cluster, datasets):
        paths = stage_datasets(cluster, datasets)
        corrupt_input(cluster, bad_line)
        return paths

    for mod in (ar, cc, ct):
        monkeypatch.setattr(mod, "stage_datasets", stage_and_corrupt)

    with pytest.raises(JobError) as err:
        algorithm.run(QUERY, GOOD, GRID, Cluster())
    # The task failure names the failing record location.
    assert "map task failed" in str(err.value)
    assert "input/R1" in str(err.value)


class TestConfigurationErrors:
    def test_missing_dataset(self):
        with pytest.raises(JoinError):
            CascadeJoin().run(QUERY, {"R1": GOOD["R1"]}, GRID)

    def test_dataset_name_with_path_separator(self):
        with pytest.raises(JoinError):
            stage_datasets(Cluster(), {"a/b": []})

    @pytest.mark.parametrize("bad", ["/", "|", ",", "\n", "\r"])
    @pytest.mark.parametrize("algorithm", ["cascade", "all-rep", "c-rep", "c-rep-l"])
    def test_dataset_name_with_a_delimiter_is_refused_before_any_job(
        self, algorithm, bad
    ):
        """Every algorithm refuses the name at staging, naming it and the
        character, with nothing written and no job run — not after round
        1 of C-Rep has done its marking, from the tagged encoder."""
        name = f"R{bad}2"
        query = Query.chain(["R1", name], Overlap())
        algorithm = make_algorithm(algorithm, query=query, d_max=30.0)
        cluster = Cluster()
        with pytest.raises(JoinError) as err:
            algorithm.run(query, {"R1": GOOD["R1"], name: GOOD["R2"]}, GRID, cluster)
        assert repr(name) in str(err.value) and repr(bad) in str(err.value)
        assert cluster.dfs.is_empty

    def test_all_errors_share_base(self):
        for exc in (DFSError, JobError, JoinError):
            assert issubclass(exc, ReproError)


class TestDegenerateWorkloads:
    @pytest.mark.parametrize(
        "algorithm",
        [CascadeJoin(), AllReplicateJoin(), ControlledReplicateJoin()],
        ids=["cascade", "all-rep", "c-rep"],
    )
    def test_empty_relations(self, algorithm):
        datasets = {"R1": [], "R2": []}
        result = algorithm.run(QUERY, datasets, GRID)
        assert result.tuples == set()

    @pytest.mark.parametrize(
        "algorithm",
        [CascadeJoin(), AllReplicateJoin(), ControlledReplicateJoin()],
        ids=["cascade", "all-rep", "c-rep"],
    )
    def test_one_empty_side(self, algorithm):
        datasets = {"R1": GOOD["R1"], "R2": []}
        result = algorithm.run(QUERY, datasets, GRID)
        assert result.tuples == set()

    def test_single_cell_grid(self):
        grid = GridPartitioning(Rect.from_corners(0, 0, 100, 100), 1, 1)
        spec = SyntheticSpec(
            n=60, x_range=(0, 100), y_range=(0, 100),
            l_range=(0, 30), b_range=(0, 30), seed=3,
        )
        datasets = generate_relations(spec, ["R1", "R2"])
        from repro.joins.reference import brute_force_join

        expected = brute_force_join(QUERY, datasets)
        for algorithm in (CascadeJoin(), AllReplicateJoin(), ControlledReplicateJoin()):
            assert algorithm.run(QUERY, datasets, grid, Cluster()).tuples == expected

    def test_rectangles_on_space_border(self):
        datasets = {
            "R1": [(0, Rect(0, 100, 100, 100))],  # the whole space
            "R2": [(0, Rect(100, 0, 0, 0))],  # bottom-right corner point
        }
        for algorithm in (CascadeJoin(), AllReplicateJoin(), ControlledReplicateJoin()):
            result = algorithm.run(QUERY, datasets, GRID)
            assert result.tuples == {(0, 0)}
