"""The worker count a run records, and an in-order map.

Every subcommand runs in one process.  `--workers` is still accepted and
resolved here, only so that the manifest can record it; outputs never
depend on it.
"""

from __future__ import annotations

import os


def resolve_workers(requested: int | None = None) -> int:
    if requested is not None and requested >= 1:
        return int(requested)
    return min(os.cpu_count() or 1, 8)


def pmap(fn, items):
    """`fn` over `items`, in order, in this process."""
    return [fn(it) for it in items]
