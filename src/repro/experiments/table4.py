"""Table 4 — query Q2s on California road data (Section 7.8.6).

Paper setting: the star self-join Q2s = R Ov R and R Ov R (road triples
(rd1, rd2, rd3) with rd1 overlapping rd2 and rd2 overlapping rd3) over
the 2.09M-road California data-set, each row enlarging every MBB by
factor k ∈ {1.0, 1.25, 1.5, 1.75, 2.0} to raise the overlap density.

Reproduction scaling: a 6k-road calibrated synthetic California sample
at original coordinates — the chain-structured generator matches the
full data-set's per-segment overlap degree at any sample size (see
``repro.data.california`` and DESIGN.md); the enlargement sweep is
verbatim.

Expected shape: all times grow with k; Cascade degrades fastest;
C-Rep-L's improvement over C-Rep is small because road MBBs are tiny
relative to cells, so the limit trims little — but the trim grows
with k.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, execute_sweep
from repro.experiments.workloads import california_self
from repro.query.predicates import Overlap
from repro.query.query import Query

__all__ = ["run", "PAPER_MINUTES", "PAPER_MARKED_M", "PAPER_AFTER_REP_M"]

PAPER_MINUTES = {
    "cascade": [19, 27, 43, 64, 95],
    "c-rep": [15, 24, 25, 46, 57],
    "c-rep-l": [14, 21, 24, 42, 53],
}
PAPER_MARKED_M = {
    "c-rep": [0.08, 0.12, 0.18, 0.23, 0.32],
    "c-rep-l": [0.08, 0.12, 0.18, 0.23, 0.32],
}
PAPER_AFTER_REP_M = {
    "c-rep": [0.8, 0.9, 1.0, 1.14, 1.33],
    "c-rep-l": [0.64, 0.65, 0.66, 0.67, 0.68],
}

ENLARGE_FACTORS = [1.0, 1.25, 1.5, 1.75, 2.0]
N = 6_000
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
    """Regenerate Table 4 at the given workload scale."""
    query = Query.self_chain("roads", 3, Overlap())
    entries = []
    n_scaled = max(500, int(N * scale))
    compress = COMPRESS
    for k in ENLARGE_FACTORS:
        workload = california_self(
            n_scaled, compress=compress, enlarge=k, seed=seed
        )
        entries.append(
            (f"k={k}", query, workload, ["cascade", "c-rep", "c-rep-l"])
        )
    return execute_sweep(
        table="Table 4",
        title="Query Q2s, California road data",
        parameters=(
            f"nI={n_scaled} roads (paper 2.09m), space compressed {compress:.1f}x, "
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
