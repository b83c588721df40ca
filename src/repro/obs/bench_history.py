"""Trend analysis over recorded benchmark JSON files.

This module reads a series of pytest-benchmark ``--benchmark-json``
files, prints a per-benchmark trend table of mean times ordered by each
file's ``datetime`` stamp, and gates on regressions: any benchmark whose
mean grew by more than the threshold (default 10%) between the two
newest files is reported and the CLI (``python -m repro bench-history``)
exits nonzero.

Files that share no benchmarks compare trivially clean — the gate only
bites on successive recordings of the *same* suite.  (The suite that
gates PRs is ``bench/``, which has its own ``compare.py``.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import ExperimentError

__all__ = [
    "BenchFile",
    "Regression",
    "load_bench_file",
    "load_series",
    "find_regressions",
    "render_history",
]

#: default relative regression bound (0.10 = newest mean >10% above previous)
DEFAULT_THRESHOLD = 0.10


def _fmt_s(seconds: float) -> str:
    """Human duration: µs/ms/s picked by magnitude."""
    if seconds <= 0:
        return "0"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


@dataclass(frozen=True)
class BenchFile:
    """One pytest-benchmark JSON recording, reduced to what trends need."""

    path: str
    label: str
    datetime: str
    #: benchmark fullname -> mean seconds
    means: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Regression:
    """One benchmark that slowed past the threshold between recordings."""

    name: str
    before_s: float
    after_s: float

    @property
    def ratio(self) -> float:
        return self.after_s / self.before_s if self.before_s > 0 else float("inf")


def load_bench_file(path: str) -> BenchFile:
    """Parse one pytest-benchmark JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ExperimentError(f"cannot read benchmark file {path!r}: {exc}") from exc
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise ExperimentError(
            f"{path!r} is not a pytest-benchmark JSON file "
            "(missing 'benchmarks' list)"
        )
    means: dict[str, float] = {}
    for bench in benchmarks:
        name = bench.get("fullname") or bench.get("name")
        stats = bench.get("stats") or {}
        if name and "mean" in stats:
            means[name] = stats["mean"]
    label = path.replace("\\", "/").rsplit("/", 1)[-1]
    return BenchFile(
        path=path,
        label=label,
        datetime=str(data.get("datetime", "")),
        means=means,
    )


def load_series(paths: list[str]) -> list[BenchFile]:
    """Load and order recordings oldest-first by their datetime stamp."""
    files = [load_bench_file(p) for p in paths]
    return sorted(files, key=lambda f: (f.datetime, f.label))


def find_regressions(
    older: BenchFile, newer: BenchFile, threshold: float = DEFAULT_THRESHOLD
) -> list[Regression]:
    """Shared benchmarks whose mean grew by more than ``threshold``."""
    out = []
    for name in sorted(older.means.keys() & newer.means.keys()):
        before, after = older.means[name], newer.means[name]
        if before > 0 and (after - before) / before > threshold:
            out.append(Regression(name=name, before_s=before, after_s=after))
    return out


def _short(name: str) -> str:
    """Trim the path prefix of a pytest fullname for table display."""
    return name.split("::", 1)[1] if "::" in name else name


def render_history(
    series: list[BenchFile], threshold: float = DEFAULT_THRESHOLD
) -> tuple[str, list[Regression]]:
    """The trend table plus the newest-pair regressions.

    One row per benchmark (first-appearance order), one column per
    recording; a final ``Δ`` column compares the two newest files where
    both measured the benchmark.
    """
    if not series:
        return "(no benchmark files)", []
    names: list[str] = []
    seen: set[str] = set()
    for f in series:
        for name in f.means:
            if name not in seen:
                seen.add(name)
                names.append(name)
    regressions = (
        find_regressions(series[-2], series[-1], threshold)
        if len(series) >= 2
        else []
    )
    regressed = {r.name for r in regressions}
    name_w = max([len(_short(n)) for n in names] + [len("benchmark")])
    col_w = max([len(f.label) for f in series] + [9])
    header = (
        "benchmark".ljust(name_w)
        + "  "
        + "  ".join(f.label.rjust(col_w) for f in series)
        + "  " + "Δ newest".rjust(9)
    )
    lines = [header, "-" * len(header)]
    for name in names:
        cells = []
        for f in series:
            mean = f.means.get(name)
            cells.append((_fmt_s(mean) if mean is not None else "-").rjust(col_w))
        delta = ""
        if len(series) >= 2:
            before = series[-2].means.get(name)
            after = series[-1].means.get(name)
            if before and after:
                delta = f"{100.0 * (after - before) / before:+.1f}%"
                if name in regressed:
                    delta += " !!"
        lines.append(
            _short(name).ljust(name_w) + "  " + "  ".join(cells)
            + "  " + delta.rjust(9)
        )
    if regressions:
        lines.append("")
        lines.append(
            f"REGRESSIONS (> {threshold * 100:.0f}% between "
            f"{series[-2].label} and {series[-1].label}):"
        )
        for r in regressions:
            lines.append(
                f"  {_short(r.name)}: {_fmt_s(r.before_s)} -> "
                f"{_fmt_s(r.after_s)} ({r.ratio:.2f}x)"
            )
    else:
        lines.append("")
        lines.append(
            f"no regressions > {threshold * 100:.0f}%"
            + (
                f" between {series[-2].label} and {series[-1].label}"
                if len(series) >= 2
                else " (need at least two recordings to compare)"
            )
        )
    return "\n".join(lines), regressions
