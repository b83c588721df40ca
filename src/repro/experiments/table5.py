"""Table 5 — query Q3 (range chain), varying the data-set size (Section 8.1).

Paper setting: Q3 = R1 Ra(d) R2 and R2 Ra(d) R3 with d = 100 over three
uniform relations of nI = 1..5 million, sides U(0, 100), space 100K².
Range predicates are far less selective than overlap, so everything is
heavier: Cascade exceeds six hours at 5m, and C-Rep-L's limited
replication (about 30% of C-Rep's communicated rectangles) wins big.

Reproduction scaling: nI = 4k..20k in a 35K x 35K space, d = 100
verbatim: the d-enlarged join window (300 x 300 per pair) then spans the
same fraction of a partition-cell as in the paper, which is what drives
replication volume.

Expected shape: Cascade worst and degrading fastest; C-Rep-L clearly
below C-Rep with an after-replication ratio around 1/3.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, execute_sweep
from repro.experiments.workloads import synthetic_chain
from repro.query.predicates import Range
from repro.query.query import Query

__all__ = ["run", "PAPER_MINUTES", "PAPER_MARKED_M", "PAPER_AFTER_REP_M"]

PAPER_MINUTES = {
    "cascade": [11, 56, 147, 263, None],  # None = aborted ">06:00"
    "c-rep": [10, 27, 72, 103, 157],
    "c-rep-l": [6, 12, 23, 39, 63],
}
PAPER_MARKED_M = {
    "c-rep": [0.36, 0.61, 0.96, 1.3, 1.7],
    "c-rep-l": [0.36, 0.61, 0.96, 1.3, 1.7],
}
PAPER_AFTER_REP_M = {
    "c-rep": [9.1, 16.5, 26.2, 41.6, 58.4],
    "c-rep-l": [3.0, 6.1, 9.7, 12.8, 15.8],
}

ROWS = [(4_000, 1e6), (8_000, 2e6), (12_000, 3e6), (16_000, 4e6), (20_000, 5e6)]
D = 100.0
SPACE_SIDE = 35_000.0


def run(
    scale: float = 1.0,
    verify: bool = True,
    seed: int = 31,
    executor: str = "serial",
    num_workers: int | None = None,
    kernel: str = "numpy",
    recorder=None,
    verbose: bool = False,
    ledger=None,
    profiler=None,
) -> ExperimentResult:
    """Regenerate Table 5 at the given workload scale."""
    query = Query.chain(["R1", "R2", "R3"], Range(D))
    entries = []
    side = SPACE_SIDE * scale**0.5
    for i, (n, paper_n) in enumerate(ROWS):
        n_scaled = max(200, int(n * scale))
        workload = synthetic_chain(n_scaled, side, paper_n=paper_n, seed=seed + i)
        entries.append(
            (
                f"nI={n_scaled} (paper {paper_n:.0e})",
                query,
                workload,
                ["cascade", "c-rep", "c-rep-l"],
            )
        )
    return execute_sweep(
        table="Table 5",
        title="Query Q3, varying the dataset size",
        parameters=(
            f"d={D:.0f}, space {side:.0f}x{side:.0f}, sides (0,100), scale={scale}"
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
