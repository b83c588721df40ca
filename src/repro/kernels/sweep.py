"""Batched plane-sweep: the columnar twin of :func:`repro.joins.sweep.sweep_pairs`.

The scalar sweep merges the two x-sorted event lists and, at each event,
scans the opposite side's active list: a partner survives the scan iff
``partner.x_max >= event.x_min - d`` (the pruning threshold), and the
pair is emitted iff it also passes the exact y-window test.  This kernel
reproduces the same pair *multiset in the same order* without any
per-event Python loop:

* For a pair ``(i, j)`` the scan that can emit it is the one at the
  *later* of the two events, and — because pruning thresholds are
  non-decreasing along the sweep — the pair is emitted iff
  ``earlier.x_max >= fl(later.x_min - d)``.  ``fl(x_min - d)`` is
  computed elementwise over the sorted ``x_min`` arrays; IEEE rounding
  is monotone, so the shifted arrays stay sorted and both endpoints of
  each candidate range are *exact* ``searchsorted`` lookups (no slack,
  no repair pass).
* Candidates therefore form one contiguous index range per event, which
  is expanded with ``repeat``/``cumsum`` — output-sensitive, never
  ``O(n_l * n_r)``.
* The scalar emission order (by event position in the merged sequence,
  then by the partner's arrival position) is restored with one
  ``lexsort`` over the merged-sequence ranks.

The y-window test is the scalar expression verbatim:
``later.y_min - d <= earlier.y_max and earlier.y_min - d <= later.y_max``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import JoinError
from repro.kernels.batch import RectBatch

__all__ = ["sweep_pairs_batch"]


def _expand_ranges(np, lo, hi):
    """Expand per-source index ranges ``[lo[k], hi[k])`` into flat
    ``(source, target)`` index arrays, sources in order."""
    cnt = hi - lo
    np.maximum(cnt, 0, out=cnt)
    total = int(cnt.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    src = np.repeat(np.arange(len(lo), dtype=np.int64), cnt)
    starts = np.cumsum(cnt) - cnt
    tgt = np.arange(total, dtype=np.int64) - np.repeat(starts - lo, cnt)
    return src, tgt


def sweep_pairs_batch(left, right, d: float = 0.0):
    """All ``(left_id, right_id)`` pairs within distance ``d``, in the
    exact order :func:`repro.joins.sweep.sweep_pairs` yields them.

    ``left`` and ``right`` are sequences of ``(rid, Rect)`` pairs.
    Returns a list.
    """
    if d < 0:
        raise JoinError(f"distance must be non-negative, got {d}")
    left = list(left)
    right = list(right)
    if not left or not right:
        return []

    lb = RectBatch.from_pairs(np, left)
    rb = RectBatch.from_pairs(np, right)
    lorder = np.argsort(lb.x_min, kind="stable")
    rorder = np.argsort(rb.x_min, kind="stable")
    lx_min = lb.x_min[lorder]
    lx_max = lb.x_max[lorder]
    ly_max = lb.y_max[lorder]
    rx_min = rb.x_min[rorder]
    rx_max = rb.x_max[rorder]
    ry_max = rb.y_max[rorder]
    # Event-side y-window low edge (``y_min - d``), precomputed
    # elementwise: the same fl() value the scalar code derives per event.
    ly_lo = lb.y_min[lorder] - d
    ry_lo = rb.y_min[rorder] - d
    # Pruning thresholds ``fl(x_min - d)``; monotone rounding keeps
    # these sorted, which is what makes the searchsorted bounds exact.
    lshift = lx_min - d
    rshift = rx_min - d

    nl = len(left)
    nr = len(right)
    # Rank of each event in the merged sequence (ties: left first, as in
    # the scalar merge's ``ls[i][1] <= rs[j][1]`` tie-break).
    seq_l = np.arange(nl, dtype=np.int64) + np.searchsorted(rx_min, lx_min, side="left")
    seq_r = np.arange(nr, dtype=np.int64) + np.searchsorted(lx_min, rx_min, side="right")

    # Group A: left i is the earlier event, the pair is emitted at right
    # event j.  j ranges over rights at-or-after i in the merge
    # (``rx_min[j] >= lx_min[i]``) whose threshold keeps i
    # (``rshift[j] <= lx_max[i]``).
    a_lo = np.searchsorted(rx_min, lx_min, side="left")
    a_hi = np.searchsorted(rshift, lx_max, side="right")
    li_a, rj_a = _expand_ranges(np, a_lo, a_hi)
    # Group B: right j is strictly earlier, the pair is emitted at left
    # event i (``lx_min[i] > rx_min[j]`` and ``lshift[i] <= rx_max[j]``).
    b_lo = np.searchsorted(lx_min, rx_min, side="right")
    b_hi = np.searchsorted(lshift, rx_max, side="right")
    rj_b, li_b = _expand_ranges(np, b_lo, b_hi)

    # Exact y-window (symmetric in the two groups).
    mask_a = (ry_lo[rj_a] <= ly_max[li_a]) & (ly_lo[li_a] <= ry_max[rj_a])
    mask_b = (ry_lo[rj_b] <= ly_max[li_b]) & (ly_lo[li_b] <= ry_max[rj_b])
    li_a, rj_a = li_a[mask_a], rj_a[mask_a]
    li_b, rj_b = li_b[mask_b], rj_b[mask_b]

    li = np.concatenate([li_a, li_b])
    rj = np.concatenate([rj_a, rj_b])
    event = np.concatenate([seq_r[rj_a], seq_l[li_b]])
    partner = np.concatenate([seq_l[li_a], seq_r[rj_b]])
    order = np.lexsort((partner, event))

    # Map emitted rows (not whole sides) back to the original ids.
    li_orig = lorder[li[order]].tolist()
    rj_orig = rorder[rj[order]].tolist()
    return [(left[i][0], right[j][0]) for i, j in zip(li_orig, rj_orig)]
