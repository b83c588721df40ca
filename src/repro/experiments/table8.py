"""Table 8 — hybrid query Q4, varying the data-set size (Section 9.1).

Paper setting: Q4 = R1 Ov R2 and R2 Ra(200) R3 — one overlap edge, one
range edge — over three uniform relations of nI = 1..5 million.  The
hybrid condition C2 applies the crossing test on the overlap edge and
the near-cell test on the range edge; C-Rep-L derives per-relation
replication bounds from the mixed-weight join graph.

Reproduction scaling: nI = 4k..20k in a 40K x 40K space, d = 200
verbatim.

Expected shape: C-Rep-L consistently below C-Rep, with the
after-replication ratio around 1/3, growing along the sweep.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, execute_sweep
from repro.experiments.workloads import synthetic_chain
from repro.query.predicates import Overlap, Range
from repro.query.query import Query

__all__ = ["run", "PAPER_MINUTES", "PAPER_MARKED_M", "PAPER_AFTER_REP_M"]

PAPER_MINUTES = {
    "c-rep": [7, 16, 39, 68, 117],
    "c-rep-l": [6, 12, 23, 44, 76],
}
PAPER_MARKED_M = {
    "c-rep": [0.27, 0.57, 0.94, 1.22, 1.54],
    "c-rep-l": [0.27, 0.57, 0.94, 1.22, 1.54],
}
PAPER_AFTER_REP_M = {
    "c-rep": [8.0, 15.8, 26.5, 33.0, 46.3],
    "c-rep-l": [3.1, 6.3, 9.6, 12.7, 16.1],
}

ROWS = [(4_000, 1e6), (8_000, 2e6), (12_000, 3e6), (16_000, 4e6), (20_000, 5e6)]
D = 200.0
SPACE_SIDE = 40_000.0


def run(
    scale: float = 1.0,
    verify: bool = True,
    seed: int = 53,
    executor: str = "serial",
    num_workers: int | None = None,
    kernel: str = "numpy",
    recorder=None,
    verbose: bool = False,
    ledger=None,
    profiler=None,
) -> ExperimentResult:
    """Regenerate Table 8 at the given workload scale."""
    query = Query.chain(["R1", "R2", "R3"], [Overlap(), Range(D)])
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
                ["c-rep", "c-rep-l"],
            )
        )
    return execute_sweep(
        table="Table 8",
        title="Query Q4, varying the dataset size",
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
