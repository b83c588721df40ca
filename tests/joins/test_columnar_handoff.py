"""Columnar part files: a job's output reaches the next job — and the
result set — as columns, and nothing outside the cluster can tell.

On the numpy kernel the round-1 reducer of C-Rep / C-Rep-L emits one
``TaggedColumns`` bundle, a non-final Cascade step one
``TupleFileColumns``, every final join one ``ResultColumns``; the reduce
task encodes the bundle's lines by column, the DFS keeps both, the next
job's batch mapper is handed the bundle slice and ``_collect_tuples``
reads id columns.  ``kernel="python"`` emits, writes and reads record
objects and is the reference.  The contract: every part file of every
job directory (``marked``, ``step-*``, ``output``), every counter and the
simulated seconds are identical — on every executor, under recovery
(an active ``RetryPolicy``; poison records quarantined by skipping mode,
whose rows are masked out of the bundle slice), under a spilling memory
budget, and on every path whose consumers read the bundle's lazy row
view instead (string rids, the file-system DFS).

Geometry is adversarial on purpose: coordinates come from a lattice that
contains the cell boundaries (edges on boundaries, rectangles that
touch, distances of exactly ``D``) mixed with continuous values, and
extents may be zero.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.io import RECT_CODEC, TaggedRect, TupleRecord, decode_result
from repro.data.transforms import max_diagonal
from repro.geometry.rectangle import Rect
from repro.grid.partitioning import GridPartitioning
from repro.joins import cascade, controlled, reducers
from repro.joins.base import MultiWayJoinAlgorithm
from repro.joins.registry import make_algorithm
from repro.kernels import resolve_kernel
from repro.kernels import batch as batch_module
from repro.kernels.batch import (
    RectBatch,
    RectFileColumns,
    ResultColumns,
    TaggedColumns,
    TupleFileColumns,
)
from repro.mapreduce import dfs as dfs_module
from repro.mapreduce.counters import C
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.engine import Cluster
from repro.mapreduce.faults import FaultPlan, RetryPolicy
from repro.mapreduce.job import MapReduceJob, SplitEntries
from repro.mapreduce.localfs import LocalFSDFS
from repro.query.predicates import Overlap, Range
from repro.query.query import Query, Triple

SPACE = 100.0
D = 10.0
#: multiples of ``D`` including the 2x2 grid's boundaries (0, 50, 100)
LATTICE = [float(v) for v in range(0, 101, 10)]
GRID = GridPartitioning(Rect.from_corners(0.0, 0.0, SPACE, SPACE), rows=2, cols=2)

#: the algorithms with a job-to-job hand-off, and their DFS directory
ALGORITHMS = {
    "c-rep": "controlled-replicate",
    "c-rep-l": "controlled-replicate-limit",
    "cascade": "two-way-cascade",
}

QUERIES = {
    "chain3": Query.chain(["A", "B", "C"], Overlap()),
    "hybrid": Query.chain(["A", "B", "C"], [Overlap(), Range(D)]),
    "chain4": Query.chain(["A", "B", "C", "E"], Overlap()),
    # one dataset in two slots; the Cascade's first step reads it on
    # both sides and keeps the scalar mapper
    "self-join": Query(
        [Triple(Overlap(), "A1", "A2"), Triple(Range(D), "A2", "B")],
        datasets={"A1": "A", "A2": "A"},
    ),
}

coord = st.one_of(
    st.sampled_from(LATTICE),
    st.floats(min_value=0.0, max_value=SPACE, allow_nan=False),
)
extent = st.one_of(
    st.just(0.0),
    st.sampled_from([10.0, 20.0, 50.0]),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)


@st.composite
def rect_in_space(draw) -> Rect:
    x = draw(coord)
    y = draw(coord)
    return Rect(x, y, min(draw(extent), SPACE - x), min(draw(extent), y))


@st.composite
def workloads(draw, kinds=tuple(QUERIES)):
    """``(query, datasets)``: one adversarial bag per dataset of the query."""
    query = QUERIES[draw(st.sampled_from(kinds))]
    datasets = {
        name: list(enumerate(draw(st.lists(rect_in_space(), max_size=9))))
        for name in query.dataset_keys
    }
    return query, datasets


def _string_rids(datasets):
    return {
        name: [(str(rid), rect) for rid, rect in pairs]
        for name, pairs in datasets.items()
    }


#: every way a part file can be consumed: as columns, and through the
#: bundle's lazy row view.  ``(cluster knobs, dataset transform, local FS)``
MODES = {
    "default": ({}, None, False),
    "spill": ({"memory_budget": 256}, None, False),
    "retry": ({"retry": RetryPolicy(max_attempts=3)}, None, False),
    # poisoned offsets land in staged RectFileColumns splits and in bundle
    # (TaggedColumns / TupleFileColumns) splits alike
    "skipping": (
        {
            "fault_plan": FaultPlan()
            .poison_record(0, 3, job=None)
            .poison_record(1, 0, job=None),
            "retry": RetryPolicy(max_attempts=4, max_skipped_records=3),
        },
        None,
        False,
    ),
    "string-rids": ({}, _string_rids, False),
    "localfs": ({}, None, True),
}


def _run(name, query, datasets, *, mode="default", **cluster_kwargs):
    """One full join on a fresh cluster -> everything that must not move."""
    knobs, transform, local_fs = MODES[mode]
    if transform is not None:
        datasets = transform(datasets)
    with tempfile.TemporaryDirectory() as root:
        if local_fs:
            cluster_kwargs["dfs"] = LocalFSDFS(root)
        cluster = Cluster(**knobs, **cluster_kwargs)
        d_max = max(max_diagonal(datasets), 1e-9)
        algorithm = make_algorithm(name, query=query, d_max=d_max)
        result = algorithm.run(query, datasets, GRID, cluster)
        files = cluster.dfs.list_dir(ALGORITHMS[name])
        if cluster.dfs.exists("_quarantine"):
            files += cluster.dfs.list_dir("_quarantine")
        parts = {path: tuple(cluster.dfs.read_file(path)) for path in files}
    output = [
        line
        for path, lines in parts.items()
        if path.startswith(f"{ALGORITHMS[name]}/output/")
        for line in lines
    ]
    # However the result set was collected, it is what the lines say.
    assert result.tuples == {decode_result(line) for line in output}
    return {
        # marked / step-* intermediates, the output and skipped records
        "parts": parts,
        "tuples": result.tuples,
        "counters": result.workflow.counters.as_dict(),
        "simulated_seconds": result.stats.simulated_seconds,
        "job_seconds": result.stats.job_seconds,
    }


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("kind", QUERIES)
@settings(max_examples=25, **COMMON)
@given(data=st.data())
def test_numpy_kernel_matches_python_kernel_in_every_mode(kind, data):
    query, datasets = data.draw(workloads(kinds=(kind,)))
    for name in ALGORITHMS:
        for mode in MODES:
            reference = _run(name, query, datasets, mode=mode, kernel="python")
            got = _run(name, query, datasets, mode=mode, kernel="numpy")
            assert got == reference, f"{name} / {mode} diverged from kernel=python"


@pytest.mark.parametrize(("executor", "workers"), [("thread", 2), ("process", 2)])
@settings(max_examples=8, **COMMON)
@given(workload=workloads())
def test_parallel_executors_match_python_kernel(executor, workers, workload):
    query, datasets = workload
    for name in ALGORITHMS:
        for mode in MODES:
            # several map tasks per file: a bundle is cut into slices
            knobs = dict(mode=mode, split_records=4)
            reference = _run(name, query, datasets, kernel="python", **knobs)
            got = _run(
                name,
                query,
                datasets,
                kernel="numpy",
                executor=executor,
                num_workers=workers,
                **knobs,
            )
            assert got == reference, f"{name} / {mode} on {executor} diverged"


# ----------------------------------------------------------------------
# What crosses the job boundary
# ----------------------------------------------------------------------
def _fixed_workload(kind="chain3"):
    """A small deterministic chain with boundary-aligned, touching and
    degenerate rectangles — enough records to spill under 256 bytes."""
    rects = [
        Rect(0.0, 100.0, 50.0, 50.0),  # exactly cell 0
        Rect(50.0, 50.0, 0.0, 0.0),  # a point on the grid's centre
        Rect(40.0, 60.0, 20.0, 20.0),  # straddles all four cells
        Rect(10.0, 90.0, 30.0, 0.0),  # a horizontal segment
        Rect(60.0, 40.0, 10.0, 10.0),
        Rect(70.0, 30.0, 10.0, 10.0),  # touches the previous one at a corner
    ]
    query = QUERIES[kind]
    return query, {
        name: [(i + 10 * k, r) for i, r in enumerate(rects)]
        for k, name in enumerate(query.dataset_keys)
    }


numpy_only = pytest.mark.skipif(
    resolve_kernel("numpy") != "numpy", reason="REPRO_KERNEL forces the scalar kernel"
)


def _spy_on_batch_mappers(monkeypatch, seen):
    """Record the type of ``batch`` every next-job batch mapper is handed
    for a split of the upstream job's output (anything but ``input/``)."""

    def spying(factory):
        def make(*args, **kwargs):
            mapper = factory(*args, **kwargs)

            def batch_mapper(split_entries, ctx, batch=None):
                path = getattr(split_entries, "path", None) or split_entries[0][0]
                if not path.startswith("input/"):
                    seen.append(type(batch))
                return mapper(split_entries, ctx, batch)

            return batch_mapper

        return make

    for module, factory in (
        (controlled, "_make_route_batch_mapper"),
        (cascade, "_make_step_batch_mapper"),
    ):
        monkeypatch.setattr(module, factory, spying(getattr(module, factory)))


@numpy_only
@pytest.mark.parametrize("mode", MODES)
def test_next_job_mappers_get_a_bundle_slice_exactly_on_the_columnar_path(
    monkeypatch, mode
):
    """The next job's batch mapper is handed the slice of the bundle the
    upstream reducer wrote — in every mode: recovery dispatch runs the
    same batch mappers, skipping mode hands them the slice without the
    quarantined rows."""
    seen = []
    _spy_on_batch_mappers(monkeypatch, seen)
    query, datasets = _fixed_workload("chain4")
    bundle_of = {
        "c-rep": TaggedColumns,
        "c-rep-l": TaggedColumns,
        "cascade": TupleFileColumns,
    }
    for name, bundle in bundle_of.items():
        del seen[:]
        reference = _run(name, query, datasets, mode=mode, kernel="python")
        assert not seen  # the reference has no batch mappers
        assert _run(name, query, datasets, mode=mode, kernel="numpy") == reference
        assert seen
        assert set(seen) == {bundle}, f"{name} / {mode}"
        if mode == "skipping":
            # records were really quarantined, in the next job's splits too
            quarantined = {p.split("/")[1] for p in reference["parts"] if p[0] == "_"}
            assert len(quarantined) >= 2, name


#: cluster settings that keep the default path: none, Hadoop's default
#: retry policy, and an absorbed task failure in every job
RECOVERY = {
    "": {},
    "retry": {"retry": RetryPolicy(max_attempts=4)},
    "absorbed-fail": {
        "retry": RetryPolicy(max_attempts=4),
        "fault_plan": FaultPlan().fail_task("map", 0, job=None),
    },
}


@numpy_only
@pytest.mark.parametrize(
    ("name", "recovery"),
    [
        pytest.param(name, knobs, id="-".join(filter(None, (name, setting))))
        for name in ALGORITHMS
        for setting, knobs in RECOVERY.items()
    ],
)
def test_no_record_object_is_built_on_the_default_path(monkeypatch, name, recovery):
    """Between a reducer's columns and the next mapper's columns — and
    the collected result set — nothing constructs a ``TaggedRect``, a
    ``TupleRecord`` or a ``Rect``, no bundle's row view is read, and no
    tagged or result line is formatted: the DFS sizes those part files
    by column and formats their text only when it is read.  (The
    Cascade spells rectangles for its tuple lines, which size its
    shuffle and are its step files' text; nothing else does.)  Retries
    and absorbed faults keep that path: they run the same map body."""
    query, datasets = _fixed_workload("chain4")
    reference = _run(name, query, datasets, kernel="python")
    built = []
    formatted = []

    def counting(owner, attr, log):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            log.append(attr)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    for cls in (TaggedRect, TupleRecord, Rect):
        counting(cls, "__init__", built)
        counting(cls, "__setstate__", built)
    for cls in (TaggedColumns, TupleFileColumns):
        counting(cls, "_materialise", built)
    for module in (batch_module, reducers):
        for encoder in ("encode_result_columns", "encode_tagged_columns"):
            if hasattr(module, encoder):
                counting(module, encoder, formatted)
    spellings = []
    counting(RectBatch, "csvs", spellings)
    counting(cascade, "tuple_fragments", spellings)
    cluster = Cluster(kernel="numpy", **recovery)
    algorithm = make_algorithm(name, query=query, d_max=max_diagonal(datasets))
    result = algorithm.run(query, datasets, GRID, cluster)
    assert not built
    assert not formatted
    if name == "cascade":
        # every spelling went into a tuple fragment, one for one
        assert spellings
        assert spellings == ["csvs", "tuple_fragments"] * (len(spellings) // 2)
    else:
        assert not spellings
    assert result.tuples == reference["tuples"]
    # ... and every consumer of rows still gets them, on demand.
    checked = []
    for path in cluster.dfs.list_dir(ALGORITHMS[name]):
        codec = {"marked": controlled.TAGGED_CODEC, "step": cascade.TUPLE_CODEC}.get(
            path.split("/")[1].split("-")[0]
        )
        records = cluster.dfs.typed_records(path, codec)
        lines = cluster.dfs.read_file(path)
        if not hasattr(records, "take"):
            assert not lines, path  # a reducer that emitted nothing
            continue
        checked.append(path)
        if codec is None:
            assert list(records) == lines
        else:
            assert codec.encode_lines(list(records)) == lines
            assert list(records) == codec.decode_lines(lines)
    assert {path.split("/")[1] for path in checked} >= {"output"}
    assert len({path.split("/")[1] for path in checked}) >= 2


# ----------------------------------------------------------------------
# Result collection
# ----------------------------------------------------------------------
@numpy_only
@pytest.mark.parametrize("name", ["cascade", "all-rep", "c-rep", "c-rep-l"])
def test_collect_tuples_equals_line_decode(name):
    """Id columns, decoded lines, or a mix of both in one directory: the
    collected set is what ``decode_result`` makes of every line, and the
    read is charged alike."""
    query, datasets = _fixed_workload()
    cluster = Cluster(kernel="numpy")
    algorithm = make_algorithm(name, query=query, d_max=max_diagonal(datasets))
    result = algorithm.run(query, datasets, GRID, cluster)
    output = f"{algorithm.name}/output"
    files = cluster.dfs.list_dir(output)
    columnar = [
        f for f in files if isinstance(cluster.dfs.typed_records(f, None), ResultColumns)
    ]
    assert columnar  # the numpy reducers wrote id columns
    assert result.tuples
    assert result.tuples == {decode_result(line) for line in cluster.dfs.read_dir(output)}
    # A part file written as plain lines (no typed form), next to them.
    cluster.dfs.write_file(f"{output}/part-00099", ["7\t8\t9", "1\t2\t3"])
    before = cluster.dfs.bytes_read
    mixed = MultiWayJoinAlgorithm._collect_tuples(cluster, output)
    charged = cluster.dfs.bytes_read - before
    assert mixed == result.tuples | {(7, 8, 9), (1, 2, 3)}
    assert charged == cluster.dfs.dir_size(output)
    # Rewriting a columnar part drops its columns with its old lines.
    cluster.dfs.write_file(columnar[0], ["4\t5\t6"])
    assert cluster.dfs.typed_records(columnar[0], None) is None
    rewritten = MultiWayJoinAlgorithm._collect_tuples(cluster, output)
    assert rewritten == {decode_result(line) for line in cluster.dfs.read_dir(output)}


# ----------------------------------------------------------------------
# Staged relations: column bundles, formatted only when read
# ----------------------------------------------------------------------
ALL_ALGORITHMS = ("cascade", "all-rep", "c-rep", "c-rep-l")


def _is_input(path: str) -> bool:
    return path.startswith("input/")


def _byte_volumes(result) -> list:
    """Per job: the DFS byte counters and every map task's input bytes."""
    return [
        (
            job.counters.engine(C.DFS_BYTES_READ),
            job.counters.engine(C.DFS_BYTES_WRITTEN),
            [task.input_bytes for task in job.map_tasks],
        )
        for job in result.workflow.job_results
    ]


@numpy_only
@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_staged_relations_are_never_formatted_or_read_as_rows(monkeypatch, name):
    """An in-memory numpy run stages every relation as a
    :class:`RectFileColumns` bundle: no ``input/*`` file's text is
    formatted and no entry row of one is built — its size is integer
    arithmetic and its map splits are slices — yet the byte counters
    and every map task's input bytes equal those of relations staged
    as text, whose bundles are decoded from (and sized by) the lines."""
    query, datasets = _fixed_workload("chain4")
    formatted = []
    rowed = []
    real_text = dfs_module._BundleText._text
    real_rows = SplitEntries._materialise

    def text(self):
        formatted.append(type(self.records))
        return real_text(self)

    def rows(self):
        if _is_input(self.path):
            rowed.append(self.path)
        return real_rows(self)

    def encode(self, records):
        formatted.append(type(records))
        return real_encode(self, records)

    def bundle_rows(self):
        rowed.append(type(self))
        return real_bundle_rows(self)

    real_encode = type(RECT_CODEC).encode_lines
    real_bundle_rows = RectFileColumns._materialise
    monkeypatch.setattr(dfs_module._BundleText, "_text", text)
    monkeypatch.setattr(type(RECT_CODEC), "encode_lines", encode)
    monkeypatch.setattr(SplitEntries, "_materialise", rows)
    monkeypatch.setattr(RectFileColumns, "_materialise", bundle_rows)
    cluster = Cluster(kernel="numpy")
    algorithm = make_algorithm(name, query=query, d_max=max_diagonal(datasets))
    result = algorithm.run(query, datasets, GRID, cluster)
    assert not formatted
    assert not rowed
    for dataset in query.dataset_keys:
        staged = cluster.dfs.typed_records(f"input/{dataset}", RECT_CODEC)
        assert isinstance(staged, RectFileColumns)
    monkeypatch.undo()

    # The reference stages each relation as its text lines.
    real_write = InMemoryDFS.write_records

    def write_as_text(self, path, records, codec, lines=None):
        if _is_input(path):
            return self.write_file(path, RECT_CODEC.encode_lines(records))
        return real_write(self, path, records, codec, lines)

    monkeypatch.setattr(InMemoryDFS, "write_records", write_as_text)
    text_cluster = Cluster(kernel="numpy")
    reference = algorithm.run(query, datasets, GRID, text_cluster)
    assert reference.tuples == result.tuples
    assert _byte_volumes(result) == _byte_volumes(reference)
    decoded = text_cluster.dfs.typed_records(f"input/{query.dataset_keys[0]}", RECT_CODEC)
    assert isinstance(decoded, RectFileColumns) and decoded.sizes is not None


@numpy_only
def test_a_relation_decoded_from_text_is_sized_by_its_lines():
    """A rectangle file whose float spelling is not ``repr``'s — staged
    by another writer, or read back from disk — decodes to a bundle
    that keeps its lines' sizes: the map input bytes and the read
    charge are the file's, where the ``repr`` arithmetic would count
    other bytes."""
    lines = ["1,1.50,60.0,20.0,20.0", "2,1e1,5E1,0.5000,3", "30,40.,50.25,1,1"]
    on_disk = [len(line) + 1 for line in lines]
    seen = []

    def batch_mapper(split, ctx, batch=None):
        seen.append((split.path, batch.line_sizes().tolist(), split.nbytes))

    cluster = Cluster(kernel="numpy")
    cluster.dfs.write_file("input/A", lines)
    job = MapReduceJob(
        name="sizes",
        input_paths=["input/A"],
        output_path="out",
        mapper=lambda key, record, ctx: None,
        reducer=None,
        num_reducers=1,
        input_codec=RECT_CODEC,
        batch_mapper=batch_mapper,
    )
    result = cluster.run_job(job)
    assert seen == [("input/A", on_disk, sum(on_disk))]
    assert [task.input_bytes for task in result.map_tasks] == [sum(on_disk)]
    assert result.counters.engine(C.DFS_BYTES_READ) == cluster.dfs.file_size("input/A")
    decoded = cluster.dfs.typed_records("input/A", RECT_CODEC)
    assert decoded.line_sizes().tolist() == on_disk
    # The same records re-staged spell every float with repr.
    restaged = RectFileColumns.from_pairs(np, decoded.batch.pairs())
    assert restaged.line_sizes().tolist() != on_disk
    assert restaged.line_sizes().tolist() == [
        len(line) + 1 for line in RECT_CODEC.encode_lines(decoded.batch.pairs())
    ]
