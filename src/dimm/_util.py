"""Small internal helpers shared across modules."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

WORKERS_ENV = "DIMM_WORKERS"


def default_worker_count() -> int:
    """Worker count from the DIMM_WORKERS env var, else the CPU count."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            msg = f"{WORKERS_ENV} must be an integer, got {raw!r}"
            raise ValueError(msg) from None
        if value < 1:
            msg = f"{WORKERS_ENV} must be >= 1, got {value}"
            raise ValueError(msg)
        return value
    return os.cpu_count() or 1


def parallel_map(fn: Callable, items: Iterable, workers: int | None = None) -> list:
    """Map ``fn`` over ``items``, preserving input order in the result.

    With ``workers`` <= 1 (or a single item) this runs serially in the
    caller's process. Otherwise a process pool is used; results are
    collected in submission order, so the output is identical to the
    serial path whatever the worker count.
    """
    items = list(items)
    if workers is None:
        workers = default_worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))

