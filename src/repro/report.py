"""Paper-vs-measured reporting.

Every experiment module embeds the numbers its paper table reports
(times in minutes, rectangles marked / communicated in millions).  This
module renders a measured run side by side with those numbers and the
derived *shape* indicators the reproduction is judged on:

* normalised growth along the sweep (first row = 1.0) per algorithm —
  absolute times are testbed-specific, trajectories are not;
* who-wins per row, paper vs reproduction;
* replication ratios (C-Rep-L / C-Rep communicated rectangles).

``python -m repro report`` regenerates EXPERIMENTS.md from scratch.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.common import ExperimentResult, format_hms

__all__ = ["paper_comparison", "render_experiments_markdown"]

_ALGO_TITLES = {
    "cascade": "2-way Cascade",
    "all-rep": "All-Replicate",
    "c-rep": "C-Rep",
    "c-rep-l": "C-Rep-L",
}


def _normalised(series: Sequence[float]) -> list[float]:
    if not series or series[0] == 0:
        return [0.0 for __ in series]
    return [v / series[0] for v in series]


def _fmt_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"


def _winner(times: dict[str, float | None]) -> str:
    """The fastest algorithm's key, or ``"tie"`` when within 5%."""
    live = {k: v for k, v in times.items() if v is not None}
    if not live:
        return "-"
    best = min(live, key=lambda k: live[k])
    near = [k for k, v in live.items() if v <= live[best] * 1.05]
    return best if len(near) == 1 else "tie"


def paper_comparison(module, result: ExperimentResult) -> str:
    """Markdown section comparing one measured table against the paper.

    ``module`` is the experiment module (``repro.experiments.tableN``),
    which carries ``PAPER_MINUTES`` / ``PAPER_MARKED_M`` /
    ``PAPER_AFTER_REP_M``.
    """
    paper_minutes: dict[str, list] = module.PAPER_MINUTES
    algorithms = [a for a in _ALGO_TITLES if a in result.algorithms]
    lines: list[str] = []
    lines.append(f"### {result.table}: {result.title}")
    lines.append("")
    lines.append(f"*Query:* `{result.query}` — *workload:* {result.parameters}")
    lines.append("")
    kernels = sorted({m.kernel for row in result.rows for m in row.metrics.values()})
    if kernels:
        lines.append("*Compute kernel:* " + ", ".join(f"`{k}`" for k in kernels))
        lines.append("")

    # ---- absolute side-by-side table ---------------------------------
    header = ["row"]
    for a in algorithms:
        header += [f"{_ALGO_TITLES[a]} (paper min)", f"{_ALGO_TITLES[a]} (sim)"]
    header += ["winner (paper)", "winner (repro)"]
    rows: list[list[str]] = []
    for i, row in enumerate(result.rows):
        cells = [row.label]
        paper_row_times: dict[str, float | None] = {}
        repro_row_times: dict[str, float | None] = {}
        for a in algorithms:
            paper_vals = paper_minutes.get(a)
            paper_v = (
                paper_vals[i]
                if paper_vals is not None and i < len(paper_vals)
                else None
            )
            paper_row_times[a] = paper_v
            cells.append("aborted" if paper_v is None and paper_vals else str(paper_v))
            m = row.metrics.get(a)
            repro_row_times[a] = m.simulated_seconds if m else None
            cells.append(format_hms(m.simulated_seconds) if m else "-")
        cells.append(_ALGO_TITLES.get(_winner(paper_row_times), _winner(paper_row_times)))
        cells.append(_ALGO_TITLES.get(_winner(repro_row_times), _winner(repro_row_times)))
        rows.append(cells)
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))
    ]
    lines.append(_fmt_row(header, widths))
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        lines.append(_fmt_row(r, widths))
    lines.append("")

    # ---- growth trajectories ------------------------------------------
    lines.append("Growth along the sweep (first row = 1.0):")
    lines.append("")
    for a in algorithms:
        measured = _normalised(result.column(a, "simulated_seconds"))
        paper_vals = [v for v in paper_minutes.get(a, []) if v is not None]
        paper_norm = _normalised(paper_vals)
        lines.append(
            f"* {_ALGO_TITLES[a]}: paper "
            + " / ".join(f"{v:.1f}x" for v in paper_norm)
            + " — measured "
            + " / ".join(f"{v:.1f}x" for v in measured)
        )
    lines.append("")

    # ---- replication ratio (C-Rep-L vs C-Rep) -------------------------
    if "c-rep" in algorithms and "c-rep-l" in algorithms:
        paper_rep = module.PAPER_AFTER_REP_M
        ratios_paper = [
            (l / c) if (c and l is not None and c is not None) else None
            for c, l in zip(paper_rep.get("c-rep", []), paper_rep.get("c-rep-l", []))
        ]
        crep = result.column("c-rep", "rectangles_after_replication")
        crepl = result.column("c-rep-l", "rectangles_after_replication")
        ratios_measured = [
            (l / c) if c else None for c, l in zip(crep, crepl)
        ]
        lines.append(
            "Rectangles communicated after replication, C-Rep-L / C-Rep: paper "
            + " / ".join(
                f"{r:.2f}" if r is not None else "-" for r in ratios_paper
            )
            + " — measured "
            + " / ".join(
                f"{r:.2f}" if r is not None else "-" for r in ratios_measured
            )
        )
        lines.append("")
    # ---- reducer skew (obs layer) -------------------------------------
    skews = {a: result.column(a, "reduce_skew") for a in algorithms}
    skew_cells = [
        f"{_ALGO_TITLES[a]} {vals[-1]:.2f}x"
        for a, vals in skews.items()
        if vals and vals[-1] > 0
    ]
    if skew_cells:
        lines.append(
            "Reducer skew (hottest cell / mean reduce input, last row): "
            + " — ".join(skew_cells)
        )
        lines.append("")
    consistent = all(row.consistent for row in result.rows)
    lines.append(
        "All algorithms produced identical output tuples on every row: "
        + ("**yes**" if consistent else "**NO — INVESTIGATE**")
    )
    lines.append("")
    return "\n".join(lines)


def render_experiments_markdown(
    scale: float = 1.0,
    verify: bool = True,
    preamble: str | None = None,
    executor: str = "serial",
    num_workers: int | None = None,
    kernel: str = "numpy",
) -> str:
    """Regenerate the full EXPERIMENTS.md body by running every table."""
    from repro.experiments import TABLES

    sections = [
        preamble
        or (
            "# EXPERIMENTS — paper vs. reproduction\n\n"
            f"Generated by `python -m repro report --scale {scale}`.\n"
        )
    ]
    for name in sorted(TABLES):
        module = TABLES[name]
        result = module.run(
            scale=scale,
            verify=verify,
            executor=executor,
            num_workers=num_workers,
            kernel=kernel,
        )
        sections.append(paper_comparison(module, result))
    return "\n".join(sections)
