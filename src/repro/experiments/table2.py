"""Table 2 — query Q2, varying the data-set size (Section 7.8.4).

Paper setting: Q2 = R1 Ov R2 and R2 Ov R3 over three uniform synthetic
relations of nI = 1..5 million rectangles, sides U(0, 100), space
100K x 100K, comparing 2-way Cascade, All-Replicate, C-Rep and C-Rep-L.

Reproduction scaling: nI = 4k..20k inside a 10K x 10K space — the same
per-rectangle join selectivity trajectory (about 0.4..2 expected overlap
partners per rectangle across the sweep) as the paper's 1m..5m in 100K².
All-Replicate is run only on the first ``all_rep_rows`` rows, mirroring
the paper's abandonment of All-Rep beyond 2m (">03:00").

Expected shape: All-Rep communicates orders of magnitude more rectangles
than C-Rep and its time explodes first; Cascade degrades super-linearly
as the intermediate pair count grows; C-Rep-L ≈ C-Rep here because small
rectangles make the replication limit barely bind.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, execute_sweep
from repro.experiments.workloads import synthetic_chain
from repro.query.predicates import Overlap
from repro.query.query import Query

__all__ = ["run", "PAPER_MINUTES", "PAPER_MARKED_M", "PAPER_AFTER_REP_M"]

#: the paper's reported end-to-end times, minutes per row (None = aborted ">03:00")
PAPER_MINUTES = {
    "cascade": [5, 10, 13, 24, 35],
    "all-rep": [32, 82, None, None, None],
    "c-rep": [5, 7, 8, 11, 15],
    "c-rep-l": [5, 7, 9, 11, 13],
}
#: rectangles marked for replication, millions
PAPER_MARKED_M = {
    "all-rep": [3, 6, 9, 12, 15],
    "c-rep": [0.05, 0.1, 0.19, 0.23, 0.31],
    "c-rep-l": [0.05, 0.1, 0.19, 0.23, 0.31],
}
#: rectangles communicated after replication, millions
PAPER_AFTER_REP_M = {
    "all-rep": [64.3, 128.7, None, None, None],
    "c-rep": [3.9, 7.6, 12.5, 15.6, 19.8],
    "c-rep-l": [3.0, 6.1, 9.2, 12.2, 17.9],
}

#: (reproduced nI, paper nI) per row
ROWS = [(4_000, 1e6), (8_000, 2e6), (12_000, 3e6), (16_000, 4e6), (20_000, 5e6)]
#: chosen so the expected overlap partners per rectangle run ~1..5 across
#: the sweep, the paper's trajectory at 1m..5m in a 100K x 100K space
SPACE_SIDE = 6_300.0


def run(
    scale: float = 1.0,
    verify: bool = True,
    all_rep_rows: int = 2,
    seed: int = 11,
    executor: str = "serial",
    num_workers: int | None = None,
    kernel: str = "numpy",
    recorder=None,
    verbose: bool = False,
    ledger=None,
    profiler=None,
) -> ExperimentResult:
    """Regenerate Table 2 at the given workload scale."""
    query = Query.chain(["R1", "R2", "R3"], Overlap())
    entries = []
    side = SPACE_SIDE * scale**0.5  # keep per-row selectivity under scaling
    for i, (n, paper_n) in enumerate(ROWS):
        n_scaled = max(200, int(n * scale))
        workload = synthetic_chain(
            n_scaled, side, paper_n=paper_n, seed=seed + i
        )
        algorithms = ["cascade", "c-rep", "c-rep-l"]
        if i < all_rep_rows:
            algorithms.insert(1, "all-rep")
        entries.append((f"nI={n_scaled} (paper {paper_n:.0e})", query, workload, algorithms))
    return execute_sweep(
        table="Table 2",
        title="Query Q2, varying the dataset size",
        parameters=(
            f"dX,dY,dL,dB=Uniform, space {side:.0f}x{side:.0f}, sides (0,100), "
            f"scale={scale}"
        ),
        entries=entries,
        verify=verify,
        executor=executor,
        num_workers=num_workers,
        kernel=kernel,
        recorder=recorder,
        verbose=verbose,
        ledger=ledger,
        profiler=profiler,
    )
