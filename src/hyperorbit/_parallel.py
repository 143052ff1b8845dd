"""An in-order map, kept under its name because the bench tracer wraps it.

Every subcommand runs in one process, and `--workers` is accepted and
ignored.
"""

from __future__ import annotations


def pmap(fn, items):
    """`fn` over `items`, in order, in this process."""
    return [fn(it) for it in items]
