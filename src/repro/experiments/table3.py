"""Table 3 — query Q2, varying the rectangle dimensions (Section 7.8.5).

Paper setting: Q2 over three relations of nI = 2 million, sweeping
l_max = b_max from 100 to 500 in a 100K x 100K space.  Larger rectangles
overlap more, the output grows sharply, and 2-way Cascade's intermediate
results blow up (00:10 -> 05:14) while C-Rep grows gently and C-Rep-L —
whose replication radius tracks the diagonal bound — wins visibly.

Reproduction scaling: nI = 6k in a 24K x 24K space; the l_max sweep is
kept verbatim, putting the top row at the same "a few partners per
rectangle" selectivity the paper reaches.

Expected shape: Cascade's time grows much faster than C-Rep's along the
sweep; the gap between C-Rep and C-Rep-L (rectangles after replication)
widens with l_max because the limit trims more of the 4th quadrant.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, execute_sweep
from repro.experiments.workloads import synthetic_chain
from repro.query.predicates import Overlap
from repro.query.query import Query

__all__ = ["run", "PAPER_MINUTES", "PAPER_MARKED_M", "PAPER_AFTER_REP_M"]

PAPER_MINUTES = {
    "cascade": [10, 13, 30, 143, 314],
    "c-rep": [7, 9, 16, 28, 59],
    "c-rep-l": [7, 8, 13, 20, 33],
}
PAPER_MARKED_M = {
    "c-rep": [0.11, 0.25, 0.39, 0.53, 0.67],
    "c-rep-l": [0.11, 0.25, 0.39, 0.53, 0.67],
}
PAPER_AFTER_REP_M = {
    "c-rep": [7.6, 10.1, 12.0, 14.5, 16.8],
    "c-rep-l": [6.1, 6.5, 6.8, 7.1, 7.3],
}

L_MAX_VALUES = [100.0, 200.0, 300.0, 400.0, 500.0]
N = 6_000
PAPER_N = 2e6
#: chosen so the l_max sweep spans ~0.2 .. ~4.6 expected overlap
#: partners per rectangle — the same two-orders-of-magnitude output
#: growth that makes the paper's Cascade explode (00:10 -> 05:14)
SPACE_SIDE = 18_000.0


def run(
    scale: float = 1.0,
    verify: bool = True,
    seed: int = 23,
    executor: str = "serial",
    num_workers: int | None = None,
    kernel: str = "numpy",
    recorder=None,
    verbose: bool = False,
    ledger=None,
    profiler=None,
) -> ExperimentResult:
    """Regenerate Table 3 at the given workload scale."""
    query = Query.chain(["R1", "R2", "R3"], Overlap())
    entries = []
    side = SPACE_SIDE * scale**0.5
    n_scaled = max(200, int(N * scale))
    for i, l_max in enumerate(L_MAX_VALUES):
        workload = synthetic_chain(
            n_scaled,
            side,
            l_max=l_max,
            b_max=l_max,
            paper_n=PAPER_N,
            seed=seed + i,
        )
        entries.append(
            (
                f"lmax={l_max:.0f}",
                query,
                workload,
                ["cascade", "c-rep", "c-rep-l"],
            )
        )
    return execute_sweep(
        table="Table 3",
        title="Query Q2, varying rectangle dimensions",
        parameters=(
            f"nI={n_scaled} (paper 2m), space {side:.0f}x{side:.0f}, "
            f"sides (0,lmax), scale={scale}"
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
