"""The four fixed workloads of the benchmark suite.

Every workload is a 3-way chain over relations ``R1,R2,R3`` drawn by the
paper's uniform generator (``synthetic_chain``, sides up to 100) on a
64-cell grid.  They differ in the one property the algorithms' relative
cost depends on — how many join partners a rectangle has — and in the
executor, so that each stresses different layers (see ``README.md`` for
the reasons and the layer each is expected to load).

Generation is a pure function of ``(spec, seed)``; the program under
test only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from repro import parse_query
from repro.experiments.common import derive_grid
from repro.experiments.workloads import synthetic_chain

__all__ = ["WorkloadSpec", "Inputs", "WORKLOADS", "by_name", "build", "dataset_digest"]

GRID_CELLS = 64
#: the small twin of a workload (warm-up, oracle leg, ``--quick``) is
#: this many times fewer rectangles at the same density
SMALL_FACTOR = 10


@dataclass(frozen=True)
class WorkloadSpec:
    """One named input shape plus the cluster it runs on."""

    name: str
    n: int
    side: float
    query: str
    executor: str = "serial"
    num_workers: int | None = None

    def small(self) -> "WorkloadSpec":
        """Same shape and density at ``n / SMALL_FACTOR`` rectangles."""
        return replace(
            self,
            n=self.n // SMALL_FACTOR,
            side=self.side / math.sqrt(SMALL_FACTOR),
        )

    def cluster_kwargs(self, nproc: int) -> dict:
        """``Cluster(...)`` arguments; never more workers than CPUs."""
        if self.executor == "serial":
            return {}
        return {
            "executor": self.executor,
            "num_workers": min(self.num_workers or nproc, nproc),
        }


# Quarter-scale versions of the shapes ISSUE 11 sized on a 40k reference
# (n / 4, side / 2, so density and the per-rectangle partner count are
# the ISSUE's): one driver run must fit setup + >= 3 passes of all four
# algorithms in about 30 s.
WORKLOADS: tuple[WorkloadSpec, ...] = (
    WorkloadSpec("chain3-overlap-10k", 10_000, 9_961.0, "R1 Ov R2 and R2 Ov R3"),
    WorkloadSpec(
        "chain3-hybrid-7500", 7_500, 24_500.0, "R1 Ov R2 and R2 Ra(200) R3"
    ),
    WorkloadSpec("chain3-dense-3k", 3_000, 2_449.5, "R1 Ov R2 and R2 Ov R3"),
    WorkloadSpec(
        "chain3-sparse-12500-proc2",
        12_500,
        35_355.5,
        "R1 Ov R2 and R2 Ov R3",
        executor="process",
        num_workers=2,
    ),
)


def by_name(name: str) -> WorkloadSpec:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(
        f"unknown workload {name!r}; choose from {[s.name for s in WORKLOADS]}"
    )


@dataclass
class Inputs:
    """What one ``algorithm.run`` call receives."""

    query: object
    datasets: dict
    grid: object
    d_max: float


def build(spec: WorkloadSpec, seed: int) -> Inputs:
    workload = synthetic_chain(spec.n, spec.side, l_max=100.0, b_max=100.0, seed=seed)
    return Inputs(
        query=parse_query(spec.query),
        datasets=workload.datasets,
        grid=derive_grid(workload.datasets, GRID_CELLS),
        d_max=workload.d_max,
    )


def dataset_digest(datasets: dict) -> str:
    """Hex digest of every rectangle's exact coordinates, in order."""
    h = hashlib.sha256()
    for name in sorted(datasets):
        h.update(name.encode())
        for rid, rect in datasets[name]:
            h.update(
                f"{rid},{rect.x.hex()},{rect.y.hex()},{rect.l.hex()},{rect.b.hex()};".encode()
            )
    return h.hexdigest()[:16]
