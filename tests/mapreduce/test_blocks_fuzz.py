"""Property-based fuzz suite for block chunking and checksum round-trips.

Hypothesis drives arbitrary file contents (unicode lines, empty files,
ragged block boundaries) through the storage plane and asserts the
invariants the golden tests rely on: chunk/reassemble is the identity,
checksums are content-determined, any single-replica corruption is
survivable, and a plane-served DFS read equals the plain one.
"""

from __future__ import annotations

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.blocks import (
    BlockPlane,
    block_payload,
    chunk_blocks,
)
from repro.mapreduce.dfs import InMemoryDFS
from repro.mapreduce.workers import WorkerPool

# Side files are newline-delimited text, so a line never embeds a line
# separator; surrogates don't encode to UTF-8.
_LINE = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters="\n\r\x85  ",
    ),
    max_size=40,
)
_LINES = st.lists(_LINE, max_size=60)
_BLOCK_RECORDS = st.integers(min_value=1, max_value=16)


def _attached_plane(replication: int = 2, block_records: int = 4) -> BlockPlane:
    dfs = InMemoryDFS()
    plane = BlockPlane(dfs, WorkerPool(4), replication, block_records)
    dfs.block_plane = plane
    return plane


@given(lines=_LINES, block_records=_BLOCK_RECORDS)
def test_chunk_reassemble_is_identity(lines, block_records):
    blocks = chunk_blocks(lines, block_records)
    assert [ln for __, chunk in blocks for ln in chunk] == lines
    assert [start for start, __ in blocks] == list(
        range(0, len(lines), block_records)
    )
    for start, chunk in blocks:
        assert 1 <= len(chunk) <= block_records


@given(lines=_LINES)
def test_payload_checksum_is_content_determined(lines):
    payload = block_payload(lines)
    assert payload.decode("utf-8").split("\n")[:-1] == lines
    assert zlib.crc32(payload) == zlib.crc32(payload)
    if lines:
        # Any single-line change moves the checksum.
        mutated = list(lines)
        mutated[0] = mutated[0] + "x"
        assert zlib.crc32(block_payload(mutated)) != zlib.crc32(payload)


@settings(max_examples=25, deadline=None)
@given(lines=_LINES, block_records=_BLOCK_RECORDS)
def test_dfs_round_trip_through_plane(lines, block_records):
    plane = _attached_plane(block_records=block_records)
    dfs = plane.dfs
    dfs.write_file("in/f", lines)
    served = dfs.read_file("in/f")
    assert served == lines

    plain = InMemoryDFS()
    plain.write_file("in/f", lines)
    assert plain.read_file("in/f") == served
    assert plane.fsck().exit_code == 0


@settings(max_examples=25, deadline=None)
@given(
    lines=st.lists(_LINE, min_size=1, max_size=40),
    block_records=_BLOCK_RECORDS,
    data=st.data(),
)
def test_any_single_corruption_is_survivable(lines, block_records, data):
    plane = _attached_plane(block_records=block_records)
    plane.on_write("f", lines)
    blocks = plane.placement.blocks("f")
    block = data.draw(st.sampled_from(blocks), label="block")
    worker = data.draw(st.sampled_from(block.replicas), label="replica")
    primary = block.replicas[0]
    plane.dfs.write_side_file(
        plane._replica_path(worker, "f", block.index), ["#corrupted"]
    )
    # The read always survives: a corrupt primary fails over on the
    # spot; a corrupt secondary is latent until fsck audits it.
    assert plane.read("f") == lines
    assert plane.report.block_corruptions == (1 if worker == primary else 0)
    # fsck catches either case; repair restores full health.
    assert plane.fsck(repair=True).exit_code == 0
    assert plane.fsck().exit_code == 0
