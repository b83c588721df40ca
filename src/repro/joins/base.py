"""Shared infrastructure of the multi-way join algorithms.

Every algorithm (2-way Cascade, All-Replicate, Controlled-Replicate,
C-Rep-L) implements :class:`MultiWayJoinAlgorithm`: given a query, the
named datasets and a grid partitioning, it builds and runs map-reduce
jobs on a cluster and returns a :class:`JoinResult` with

* the output tuples (record ids in query slot order), and
* :class:`JoinStats` holding the paper's three metrics (Section 7.8.3):
  end-to-end simulated time, the number of rectangles marked for
  replication, and the aggregated number of rectangles communicated
  after replication — plus shuffle volumes and per-job breakdowns.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.data.io import RECT_CODEC, decode_result
from repro.errors import JoinError
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.kernels.batch import ResultColumns
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import Cluster
from repro.mapreduce.workflow import WorkflowResult
from repro.query.query import Query

__all__ = [
    "Datasets",
    "JoinStats",
    "JoinResult",
    "MultiWayJoinAlgorithm",
    "stage_datasets",
    "dataset_from_path",
    "JOIN_COUNTERS",
    "CNT_MARKED",
    "CNT_AFTER_REPLICATION",
    "CNT_OUTPUT_TUPLES",
]

#: ``dataset key -> [(rid, Rect), ...]``
Datasets = dict[str, list[tuple[int, Rect]]]

JOIN_COUNTERS = "join"
CNT_MARKED = "rectangles_marked"
CNT_AFTER_REPLICATION = "rectangles_after_replication"
CNT_OUTPUT_TUPLES = "output_tuples"

#: DFS directory the staged relation files live under.
INPUT_PREFIX = "input"

#: characters a dataset name may not contain: the DFS path separator,
#: the tagged record's field separators and line breaks
_NAME_DELIMITERS = "/|,\n\r"


def stage_datasets(cluster: Cluster, datasets: Datasets) -> dict[str, str]:
    """Write each dataset to the DFS; returns ``dataset -> path``.

    Staging is idempotent: re-staging an identical dataset overwrites
    the file in place (experiments stage once and run all algorithms on
    the same cluster).  Files are written through the rect codec, so the
    on-DFS bytes are the canonical ``rid,x,y,l,b`` lines and typed-path
    jobs read the ``(rid, Rect)`` objects back without parsing.

    Every name is checked before anything is written: a name becomes a
    DFS path component and a field of the tagged and result records, so
    one holding a path or field delimiter or a line break is refused
    here, for every algorithm, instead of failing a later job.
    """
    for name in datasets:
        bad = next((ch for ch in _NAME_DELIMITERS if ch in name), None)
        if bad is not None:
            raise JoinError(
                f"dataset name {name!r} contains {bad!r}, which a dataset name "
                f"may not hold (any of {_NAME_DELIMITERS!r})"
            )
    paths: dict[str, str] = {}
    for name, rects in datasets.items():
        path = f"{INPUT_PREFIX}/{name}"
        cluster.dfs.write_records(path, rects, RECT_CODEC)
        paths[name] = path
    return paths


def dataset_from_path(path: str) -> str:
    """Recover the dataset key from a staged input path."""
    prefix = INPUT_PREFIX + "/"
    if not path.startswith(prefix):
        raise JoinError(f"not a staged dataset path: {path!r}")
    return path[len(prefix):]


@dataclass
class JoinStats:
    """The metrics of Section 7.8.3 plus engine-level volumes."""

    simulated_seconds: float = 0.0
    shuffled_records: int = 0
    rectangles_marked: int = 0
    rectangles_after_replication: int = 0
    output_tuples: int = 0
    #: measured host-machine duration of the algorithm's job chain
    wall_clock_seconds: float = 0.0
    job_seconds: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_workflow(cls, workflow: WorkflowResult) -> "JoinStats":
        counters: Counters = workflow.counters
        return cls(
            simulated_seconds=workflow.simulated_seconds,
            wall_clock_seconds=workflow.wall_clock_seconds,
            shuffled_records=workflow.shuffled_records,
            rectangles_marked=counters.get(JOIN_COUNTERS, CNT_MARKED),
            rectangles_after_replication=counters.get(
                JOIN_COUNTERS, CNT_AFTER_REPLICATION
            ),
            output_tuples=counters.get(JOIN_COUNTERS, CNT_OUTPUT_TUPLES),
            job_seconds={
                r.job_name: r.simulated_seconds for r in workflow.job_results
            },
        )


@dataclass
class JoinResult:
    """Join output plus run statistics."""

    tuples: set[tuple[int, ...]]
    stats: JoinStats
    workflow: WorkflowResult

    def __len__(self) -> int:
        return len(self.tuples)


class MultiWayJoinAlgorithm(abc.ABC):
    """Interface of every map-reduce multi-way spatial join algorithm."""

    #: short name used by the registry and experiment reports
    name: str = "abstract"

    @abc.abstractmethod
    def run(
        self,
        query: Query,
        datasets: Datasets,
        grid: GridPartitioning,
        cluster: Cluster | None = None,
    ) -> JoinResult:
        """Execute the join and collect results from the DFS."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_inputs(query: Query, datasets: Datasets) -> None:
        missing = [k for k in query.dataset_keys if k not in datasets]
        if missing:
            raise JoinError(f"query references missing datasets: {missing}")

    @staticmethod
    def _collect_tuples(
        cluster: Cluster, output_path: str
    ) -> set[tuple[int, ...]]:
        """Read the final output directory into a set of rid tuples.

        A part file the reducer wrote as :class:`ResultColumns` gives up
        its id columns (charged like the line read it replaces); any
        other is decoded line by line.
        """
        dfs = cluster.dfs
        tuples: set[tuple[int, ...]] = set()
        for f in dfs.resolve(output_path):
            columns = dfs.typed_records(f, None)
            if isinstance(columns, ResultColumns):
                dfs.charge_read(f)
                tuples.update(columns.id_tuples())
            else:
                tuples.update(map(decode_result, dfs.read_file(f)))
        return tuples
