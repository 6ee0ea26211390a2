"""Small internal helpers shared across modules."""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from dimm.errors import ConfigError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

WORKERS_ENV = "DIMM_WORKERS"


def default_worker_count() -> int:
    """Worker count from the DIMM_WORKERS env var, else the CPU count.

    Raises
    ------
    ConfigError
        If DIMM_WORKERS is set but is not an integer >= 1.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            msg = f"{WORKERS_ENV} must be an integer, got {raw!r}"
            raise ConfigError(msg) from None
        if value < 1:
            msg = f"{WORKERS_ENV} must be >= 1, got {value}"
            raise ConfigError(msg)
        return value
    return os.cpu_count() or 1


def spd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``mat @ x = rhs`` for a symmetric positive definite ``mat``.

    The Cholesky factor L of ``mat`` (from its lower triangle) is the
    positive-definiteness test; the inverse is then applied as ``Li' (Li
    rhs)`` with ``Li = inv(L)``. numpy has no triangular solve, and on a
    wide ``rhs`` this is faster than ``np.linalg.solve`` while agreeing
    with a Cholesky solve to roundoff.

    Raises
    ------
    np.linalg.LinAlgError
        If ``mat`` holds a non-finite value or is not positive definite;
        callers turn it into their own typed error.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if not np.isfinite(mat).all():
        msg = "matrix holds non-finite values"
        raise np.linalg.LinAlgError(msg)
    inv_factor = np.linalg.inv(np.linalg.cholesky(mat))
    return inv_factor.T @ (inv_factor @ rhs)


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
    # Imported here: the pool machinery costs about 20 ms to import, and
    # most processes (``dimm fit``, ``dimm simulate --workers 1``) never
    # start a pool.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
