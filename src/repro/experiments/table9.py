"""Table 9 — hybrid query Q4s on California road data (Section 9.1).

Paper setting: Q4s = R Ov R and R Ra(d) R over a 1-million-road sample
(probability-0.5 sample of the full data-set), sweeping d from 10 to 40:
road triples (rd1, rd2, rd3) with rd1 overlapping rd2 and rd2 within
distance d of rd3.

Reproduction scaling: 6k calibrated synthetic roads at original
coordinates, d sweep verbatim.

Expected shape: times grow with d; C-Rep-L consistently out-performs
C-Rep with a widening after-replication gap.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, execute_sweep
from repro.experiments.workloads import california_self
from repro.query.predicates import Overlap, Range
from repro.query.query import Query

__all__ = ["run", "PAPER_MINUTES", "PAPER_MARKED_M", "PAPER_AFTER_REP_M"]

PAPER_MINUTES = {
    "c-rep": [28, 39, 51, 63],
    "c-rep-l": [26, 30, 41, 48],
}
PAPER_MARKED_M = {
    "c-rep": [0.08, 0.11, 0.14, 0.18],
    "c-rep-l": [0.08, 0.11, 0.14, 0.18],
}
PAPER_AFTER_REP_M = {
    "c-rep": [5.0, 5.9, 6.7, 7.5],
    "c-rep-l": [3.6, 3.8, 3.9, 4.1],
}

D_VALUES = [10.0, 20.0, 30.0, 40.0]
N = 6_000
PAPER_N = 1e6
COMPRESS = 1.0


def run(
    scale: float = 1.0,
    verify: bool = True,
    seed: int = 7,
    executor: str = "serial",
    num_workers: int | None = None,
    kernel: str = "numpy",
    recorder=None,
    verbose: bool = False,
    ledger=None,
    profiler=None,
) -> ExperimentResult:
    """Regenerate Table 9 at the given workload scale."""
    entries = []
    n_scaled = max(500, int(N * scale))
    compress = COMPRESS
    for d in D_VALUES:
        slots = [f"roads#{i}" for i in (1, 2, 3)]
        query = Query.chain(
            slots,
            [Overlap(), Range(d)],
            datasets={s: "roads" for s in slots},
        )
        workload = california_self(
            n_scaled, compress=compress, paper_n=PAPER_N, seed=seed
        )
        entries.append((f"d={d:.0f}", query, workload, ["c-rep", "c-rep-l"]))
    return execute_sweep(
        table="Table 9",
        title="Query Q4s, California road data",
        parameters=(
            f"nI={n_scaled} roads (paper 1m sample), compressed {compress:.1f}x, "
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
