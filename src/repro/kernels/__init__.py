"""Columnar (numpy) kernels for the hot join paths.

Every algorithm in this package exists twice: a scalar, object-at-a-time
reference implementation (the ``python`` kernel — the code the rest of
the repository is written against) and a columnar ``numpy`` twin that
performs the same float comparisons over parallel arrays.  The two are
**byte-identical** by construction: the vectorized code evaluates the
exact floating-point expressions of the scalar code (never an
algebraically rearranged form — see DESIGN.md §6), preserves candidate
and emission *order*, and charges the same canonical counters
(``probes``, ``checks``, ``compute_ops``), so part files, counters and
simulated seconds do not depend on the kernel.

Kernel selection
----------------
``Cluster(kernel=...)`` / ``--kernel`` accept ``"numpy"`` (default) or
``"python"``; the ``REPRO_KERNEL`` environment variable overrides
either.  numpy is a hard dependency, so the choice is never forced by
the installation: ``"python"`` is the reference the equivalence suites
compare against.  An unknown kernel name is an error.
"""

from __future__ import annotations

import os

from repro.errors import JobError

__all__ = ["KERNELS", "check_kernel", "resolve_kernel"]

#: Accepted values for ``Cluster.kernel`` / ``--kernel`` / ``REPRO_KERNEL``.
KERNELS = ("numpy", "python")


def check_kernel(name: str) -> str:
    """``name`` when it is one of :data:`KERNELS`; :class:`JobError` otherwise."""
    if name not in KERNELS:
        raise JobError(
            f"unknown kernel {name!r}; expected one of {', '.join(KERNELS)}"
        )
    return name


def resolve_kernel(requested: str = "numpy") -> str:
    """Resolve a kernel request to the concrete kernel to run.

    Returns ``"numpy"`` or ``"python"``.  ``REPRO_KERNEL`` (when set and
    non-empty) takes precedence over ``requested``.
    """
    return check_kernel(os.environ.get("REPRO_KERNEL") or requested)
