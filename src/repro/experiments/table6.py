"""Table 6 — query Q3, varying the distance parameter d (Section 8.1).

Paper setting: Q3 over three 1-million-rectangle relations, sweeping
d from 100 to 500.  The replication radius of C-Rep-L grows with d much
slower than C-Rep's blanket 4th-quadrant replication, so the gap widens
sharply: the paper's after-replication count grows 9.1m -> 24.8m for
C-Rep but only 3.0m -> 3.5m for C-Rep-L.

Reproduction scaling: nI = 6k in a 60K x 60K space, d sweep verbatim.

Expected shape: both times grow with d; C-Rep-L's after-replication
count grows far slower than C-Rep's and its time advantage widens.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, execute_sweep
from repro.experiments.workloads import synthetic_chain
from repro.query.predicates import Range
from repro.query.query import Query

__all__ = ["run", "PAPER_MINUTES", "PAPER_MARKED_M", "PAPER_AFTER_REP_M"]

PAPER_MINUTES = {
    "c-rep": [10, 18, 42, 76, 100],
    "c-rep-l": [6, 8, 15, 25, 41],
}
PAPER_MARKED_M = {
    "c-rep": [0.36, 0.53, 0.72, 0.94, 1.06],
    "c-rep-l": [0.36, 0.53, 0.72, 0.94, 1.06],
}
PAPER_AFTER_REP_M = {
    "c-rep": [9.1, 13.1, 16.5, 20.3, 24.8],
    "c-rep-l": [3.0, 3.2, 3.3, 3.4, 3.5],
}

D_VALUES = [100.0, 200.0, 300.0, 400.0, 500.0]
N = 6_000
PAPER_N = 1e6
SPACE_SIDE = 60_000.0


def run(
    scale: float = 1.0,
    verify: bool = True,
    seed: int = 43,
    executor: str = "serial",
    num_workers: int | None = None,
    kernel: str = "numpy",
    recorder=None,
    verbose: bool = False,
    ledger=None,
    profiler=None,
) -> ExperimentResult:
    """Regenerate Table 6 at the given workload scale."""
    entries = []
    side = SPACE_SIDE * scale**0.5
    n_scaled = max(200, int(N * scale))
    for i, d in enumerate(D_VALUES):
        query = Query.chain(["R1", "R2", "R3"], Range(d))
        workload = synthetic_chain(n_scaled, side, paper_n=PAPER_N, seed=seed + i)
        entries.append((f"d={d:.0f}", query, workload, ["c-rep", "c-rep-l"]))
    return execute_sweep(
        table="Table 6",
        title="Query Q3, varying distance parameter d",
        parameters=(
            f"nI={n_scaled} (paper 1m), space {side:.0f}x{side:.0f}, "
            f"sides (0,100), scale={scale}"
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
