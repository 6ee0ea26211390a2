"""Small internal helpers shared across modules, among them the one
positive-definiteness rule (:func:`cholesky`) and the one read-only
rule (:func:`frozen`).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from dimm.errors import ConfigError, DimmError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Sequence

WORKERS_ENV = "DIMM_WORKERS"
# A residual mean square below this fraction of the response mean square
# is an exact fit: the residual moments cannot resolve it.
EXACT_FIT = 1e-12


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


def subgroup(
    names: Sequence[str], wanted: Sequence[str], error: type[DimmError], label: str
) -> list[int]:
    """Positions in ``names`` of the sub-group ``wanted``, in ``names`` order.

    The one sub-group rule, applied by the fit config and by
    :func:`dimm.integrate.weight_matrix`: an empty sub-group, a repeated
    name or an unknown one raises ``error``, its message led by ``label``.
    """
    wanted = list(wanted)
    repeated = sorted({w for w in wanted if wanted.count(w) > 1})
    missing = [w for w in wanted if w not in names]
    if not wanted:
        msg = f"{label}: a sub-group must name at least one block"
        raise error(msg)
    if repeated:
        msg = f"{label}: sub-group names contain duplicates: {repeated}"
        raise error(msg)
    if missing:
        msg = f"{label}: sub-group names {missing} not found among the blocks {list(names)}"
        raise error(msg)
    return [j for j, name in enumerate(names) if name in wanted]


def frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` as float64 behind a view that can never be made writeable again.

    numpy unlocks an array that owns its memory, or whose owner (a view's
    ``base``) is writeable, so both are locked. ``arr`` is not copied: its
    caller hands it over, and what is cached from it cannot go stale.
    """
    arr = np.asarray(arr, dtype=np.float64)
    (arr if arr.base is None else arr.base).setflags(write=False)
    arr.setflags(write=False)
    return arr.view()


def cholesky(mat: np.ndarray, what: str, error: type[DimmError]) -> np.ndarray:
    """Lower Cholesky factor of ``mat``, symmetrised (bit-exact if already symmetric).

    The one positive-definiteness rule: a non-finite entry, which
    ``np.linalg.cholesky`` passes, or a failed factorization raises
    ``error(f"{what} is not positive definite")``.
    """
    mat = np.asarray(mat, dtype=np.float64)
    mat = mat + mat.T
    mat /= 2.0
    if np.isfinite(mat).all():
        try:
            return np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            pass
    msg = f"{what} is not positive definite"
    raise error(msg)


def inv_cholesky(mat: np.ndarray, what: str, error: type[DimmError]) -> np.ndarray:
    """``Li = inv(L)`` for L from :func:`cholesky`; it whitens, ``mat^-1 = Li' Li``.

    Subnormal entries, which stall a GEMM by Li, are set to 0.
    """
    inv_factor = np.linalg.inv(cholesky(mat, what, error))
    inv_factor[np.abs(inv_factor) < np.finfo(np.float64).tiny] = 0.0
    return inv_factor


def spd_solve(mat: np.ndarray, rhs: np.ndarray, what: str, error: type[DimmError]) -> np.ndarray:
    """Solve ``mat @ x = rhs`` as ``Li' (Li rhs)``, ``Li`` from :func:`inv_cholesky`.

    numpy has no triangular solve, and on a wide ``rhs`` this is faster
    than ``np.linalg.solve`` while agreeing with a Cholesky solve to
    roundoff.
    """
    inv_factor = inv_cholesky(mat, what, error)
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
