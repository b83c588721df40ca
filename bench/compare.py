"""Compare two recordings of the suite (``run.py --out``): A is the parent, B the change.

    python3 bench/compare.py A.json B.json

For each workload and end-to-end metric prints both values, the
relative difference, the regression bound of ``BENCHMARK.json`` and a
verdict:

``WORSE``       B is worse than A by more than the bound (exit 1)
``unresolved``  within the bound, but the samples of A or B spread
                (inter-quartile range / median) wider than the bound, so
                "no regression" cannot be claimed either
``better``      B is better by more than the bound, or the spread is wider
                than the bound but every sample of B beats every one of A
``unchanged``   within the bound, and so is the spread of both sides

Exit 1 as well when the share of failed operations rose; exit 2 when the
two files were not recorded with the same seed, sizes, settings and
``quick`` flag and so cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: recording settings / workload fields that must match between A and B
_SAME_SETTINGS = ("seed", "seconds", "trace", "quick")
_SAME_INPUTS = ("n", "side", "query", "executor", "workers", "digest")


def spread(samples: list[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 samples)."""
    if len(samples) < 2:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    return (q[2] - q[0]) / statistics.median(samples)


def incomparable(a: dict, b: dict) -> list[str]:
    """Reasons the two recordings cannot be compared (empty when they can)."""
    reasons = [
        f"{key}: {a['environment'].get(key)!r} vs {b['environment'].get(key)!r}"
        for key in _SAME_SETTINGS
        if a["environment"].get(key) != b["environment"].get(key)
    ]
    if a["environment"].get("quick") or b["environment"].get("quick"):
        reasons.append("--quick recordings are smoke runs, not measurements")
    wa = {w["workload"]: w for w in a["workloads"]}
    wb = {w["workload"]: w for w in b["workloads"]}
    if set(wa) != set(wb):
        reasons.append(f"workloads: {sorted(wa)} vs {sorted(wb)}")
    for name in sorted(set(wa) & set(wb)):
        reasons += [
            f"{name} {key}: {wa[name].get(key)!r} vs {wb[name].get(key)!r}"
            for key in _SAME_INPUTS
            if wa[name].get(key) != wb[name].get(key)
        ]
    return reasons


def verdict(a: float, b: float, sa: list[float], sb: list[float], bound: float) -> str:
    """Lower is better for every end-to-end metric of this suite."""
    rel = (b - a) / a
    if rel > bound:
        return "WORSE"
    if rel < -bound:
        return "better"
    if max(spread(sa), spread(sb)) > bound:
        # too noisy to call it unchanged -- unless B won every time
        return "better" if max(sb) < min(sa) else "unresolved"
    return "unchanged"


def compare(a: dict, b: dict, manifest: dict, out=print) -> int:
    reasons = incomparable(a, b)
    if reasons:
        out("cannot compare:")
        for reason in reasons:
            out(f"  {reason}")
        return 2
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    wb = {w["workload"]: w for w in b["workloads"]}
    status = 0
    for rec_a in a["workloads"]:
        rec_b = wb[rec_a["workload"]]
        out(f"{rec_a['workload']}  (passes {rec_a.get('passes')} vs {rec_b.get('passes')})")
        for name, bound in bounds.items():
            va, vb = rec_a["e2e"].get(name), rec_b["e2e"].get(name)
            if va is None or vb is None:
                out(f"  {name:<18} missing in {'A' if va is None else 'B'}  WORSE")
                status = 1
                continue
            sa = rec_a["samples"].get(name, [va])
            sb = rec_b["samples"].get(name, [vb])
            word = verdict(va, vb, sa, sb, bound)
            status = max(status, word == "WORSE")
            out(
                f"  {name:<18} {va:>10.4f} -> {vb:>10.4f}  {(vb - va) / va:>+7.1%}"
                f"  bound {bound:.0%}  spread {spread(sa):.1%}/{spread(sb):.1%}  {word}"
            )
        fa, fb = rec_a["failed_share"], rec_b["failed_share"]
        rose = fb > fa
        status = max(status, rose)
        out(f"  {'failed_share':<18} {fa:>10.4f} -> {fb:>10.4f}  {'ROSE' if rose else 'ok'}")
    return int(status)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    return compare(a, b, json.loads(MANIFEST.read_text()))


if __name__ == "__main__":
    sys.exit(main())
