"""Small internal helpers shared across modules: the one
positive-definiteness rule (:func:`cholesky`) and the one symmetry rule
beside it (:func:`check_symmetric`), the one read-only rule
(:func:`frozen`) and the one JSON codec (:class:`Report`), which sits
below :mod:`dimm.model` so that its :class:`~dimm.model.Block` records
read from JSON too.

Every JSON file — the fit config (:class:`dimm.io.FitConfig`), the
simulation scenario (:class:`dimm.simulate.SimScenario`) and the reports
(:class:`dimm.io.FitReport`, :class:`dimm.io.GofReport` and the
simulation reports) — is read and written by one codec, :class:`Report`,
derived from the record's dataclass fields: the field name is the JSON
key, arrays and tuples become lists, a nested record becomes an object,
and reports are written with sorted keys. Floats round-trip losslessly
through Python's shortest-repr float encoding. Loading is strict: a bool
is only ``true``/``false``, an integer field takes no float or bool, a
number field no string or bool, and a fixed family such as
``"ar1"``/``"cs"`` only its listed values; arrays load as read-only
float64 copies (:func:`frozen`) and sequences as tuples. An unknown,
missing or mistyped field raises the record's typed error naming the
JSON path (``config.blocks[1].size``) after the ``Class.field:`` chain
that led to it; checks of meaning (the block layout in
:class:`~dimm.model.BlockPartition`, methods, covariance assembly) stay
in each record's ``__post_init__``. Configs and scenarios may omit
``schema_version``; reports must carry theirs. ``timing`` is the only
non-deterministic report key.
"""

from __future__ import annotations

import functools
import json
import os
import types
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, ClassVar, Literal, get_args, get_origin, get_type_hints

import numpy as np

from dimm.errors import ConfigError, DimmError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Sequence
    from typing import Self, TextIO

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


def frozen(arr: np.ndarray, dtype: type = np.float64) -> np.ndarray:
    """``arr`` as ``dtype`` behind a view that can never be made writeable again.

    numpy unlocks an array that owns its memory, or whose owner (the end of
    its chain of ``base`` arrays) is writeable, so both are locked. ``arr``
    is not copied: its caller hands it over, and what is cached from it
    cannot go stale. Memory that no ndarray owns, such as a ``bytes`` or
    ``bytearray`` buffer, cannot be locked that way, so it is copied.
    """
    arr = owner = np.asarray(arr, dtype=dtype)
    while isinstance(owner, np.ndarray) and owner.base is not None:
        owner = owner.base
    if not isinstance(owner, np.ndarray):
        arr = owner = arr.copy()
    owner.setflags(write=False)
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


def check_symmetric(mat: np.ndarray, what: str, error: type[DimmError]) -> None:
    """The one symmetry rule, free of scale: ``error(f"{what} must be symmetric")``
    if ``mat`` departs from its transpose by over 1e-10 of its largest |entry|.
    A non-finite entry passes, for :func:`cholesky` to name."""
    mat = np.asarray(mat, dtype=np.float64)
    scale = np.max(np.abs(mat), initial=0.0)
    if np.isfinite(scale) and np.max(np.abs(mat - mat.T), initial=0.0) > 1e-10 * scale:
        msg = f"{what} must be symmetric"
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
    serial path whatever the worker count. ``fn``, with whatever it binds
    (a ``functools.partial`` of a scenario, say), reaches each worker once,
    through the pool's initializer, and each task carries only its item.
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

    with ProcessPoolExecutor(min(workers, len(items)), initializer=_set_task, initargs=(fn,)) as pool:
        return list(pool.map(_run_task, items))


_TASK: list[Callable] = []  # the function a pool worker maps, set by its initializer


def _set_task(fn: Callable) -> None:
    _TASK[:] = [fn]


def _run_task(item: Any) -> Any:
    return _TASK[0](item)


def _open_for_writing(path: str | Path, what: str, mode: str = "w", **kwargs: Any) -> TextIO:
    """``path`` opened for writing text; a path that cannot be opened raises
    :class:`ConfigError` naming ``what`` and the path."""
    try:
        return Path(path).open(mode, encoding="utf-8", **kwargs)
    except OSError as exc:
        msg = f"cannot write {what} file {path}: {exc.strerror}"
        raise ConfigError(msg) from None


def _refuse_unwritable(path: str | Path, what: str) -> None:
    """Raise :func:`_open_for_writing`'s :class:`ConfigError` now if ``path``
    cannot be written, before anything is; an existing file is left as it
    is, and a new one is not left behind."""
    created = not os.path.lexists(path)
    _open_for_writing(path, what, "a").close()
    if created:
        os.remove(path)


class Report:
    """Base of the JSON records: one codec derived from the dataclass fields.

    Subclasses are frozen dataclasses. ``ERROR`` is the typed error a
    malformed record raises and ``PATH`` names a file's top object in
    error messages. A record with a ``SCHEMA_VERSION`` checks the
    ``schema_version`` key on load: a report carries it as a required
    field, an input as a key that may be left out.
    """

    SCHEMA_VERSION: ClassVar[int | None] = None
    ERROR: ClassVar[type[DimmError]]
    PATH: ClassVar[str] = "report"

    def __post_init__(self) -> None:
        cls = type(self)
        for name, (kind, _) in _fields(cls).items():
            value = _decode_field(cls, name, kind, getattr(self, name), name)
            object.__setattr__(self, name, value)

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Unpickling locks each array again (:func:`frozen`), keeping its dtype."""
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value = frozen(value, value.dtype)
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict[str, Any]:
        return encode(self)

    @classmethod
    def _checked(cls, entry: Any, path: str) -> dict[str, Any]:
        """``entry`` as an object of this version with no unknown keys."""
        if not isinstance(entry, dict):
            msg = f"{path} must be a JSON object, got {type(entry).__name__}"
            raise cls.ERROR(msg)
        specs = _fields(cls)
        if cls.SCHEMA_VERSION is not None:
            # A report's version is a required field; an input's an optional key, dropped here.
            is_field = "schema_version" in specs
            version = entry.get("schema_version", None if is_field else cls.SCHEMA_VERSION)
            if version != cls.SCHEMA_VERSION:
                msg = f"unsupported {path} schema_version {version!r} (this build reads {cls.SCHEMA_VERSION})"
                raise cls.ERROR(msg)
            entry = entry if is_field else {k: v for k, v in entry.items() if k != "schema_version"}
        unknown = sorted(set(entry) - specs.keys())
        if unknown:
            msg = f"unknown {path} fields: {unknown}"
            raise cls.ERROR(msg)
        return entry

    @classmethod
    def from_dict(cls, entry: Any, path: str | None = None) -> Self:
        """Build the record from JSON data; errors name the JSON ``path``."""
        path = cls.PATH if path is None else path
        entry = cls._checked(entry, path)
        specs = _fields(cls)
        values = {}  # decoded here to name the path; the constructor freezes them again
        for name, (kind, required) in specs.items():
            if name in entry:
                values[name] = _decode_field(cls, name, kind, entry[name], f"{path}.{name}")
            elif required:
                msg = f"{path}.{name}: missing required field {name!r}"
                raise cls.ERROR(msg)
        return cls(**values)

    def save(self, path: str | Path) -> None:
        with _open_for_writing(path, self.PATH) as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> Self:
        try:
            with Path(path).open(encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError as exc:
            msg = f"cannot read {cls.PATH} file {path}: {exc.strerror}"
            raise cls.ERROR(msg) from None
        except ValueError as exc:
            msg = f"{cls.PATH} file {path} is not valid JSON: {exc}"
            raise cls.ERROR(msg) from None
        return cls.from_dict(entry)


def encode(value: Any) -> Any:
    """Plain JSON data of a record: fields by name, arrays and tuples as lists.

    Fields set at construction are written, except an optional one left
    at its default None.
    """
    if is_dataclass(value):
        out = {}
        for f in fields(value):
            item = getattr(value, f.name)
            if f.init and not (item is None and f.default is None):
                out[f.name] = encode(item)
        return out
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {key: encode(v) for key, v in value.items()}
    return value


@functools.cache
def _fields(cls: type) -> dict[str, tuple[Any, bool]]:
    """Each field set at construction: its annotated type, and whether JSON must give it."""
    hints = get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
        if f.init
    }


def _decode_field(cls: type[Report], name: str, kind: Any, value: Any, path: str) -> Any:
    try:
        return _decode(kind, value, path)
    except (TypeError, ValueError, DimmError) as exc:
        msg = f"{cls.__name__}.{name}: {exc}"
        raise cls.ERROR(msg) from None


# The accepted Python types of each scalar annotation; a bool is only a bool.
_SCALARS: dict[type, tuple[tuple[type, ...], str]] = {
    bool: ((bool,), "true or false"),
    int: ((int, np.integer), "an integer"),
    float: ((int, float, np.integer, np.floating), "a number"),
    str: ((str,), "a string"),
}


def _decode(kind: Any, value: Any, path: str) -> Any:
    """``value`` as the annotated ``kind``, strictly typed and frozen.

    Arrays become read-only float64 copies (:func:`frozen`)
    and sequences tuples; a mistyped value raises an error naming ``path``.
    """
    origin, args = get_origin(kind), get_args(kind)
    if origin is types.UnionType:  # T | None
        return None if value is None else _decode(args[0], value, path)
    if origin is Literal:
        if not (isinstance(value, str) and value in args):
            msg = f"{path} must be one of {args}, got {value!r}"
            raise ValueError(msg)
        return value
    if origin is tuple:
        if not isinstance(value, (list, tuple, np.ndarray)):
            msg = f"{path} must be a JSON list, got {type(value).__name__}"
            raise TypeError(msg)
        return tuple(_decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            msg = f"{path} must be a JSON object, got {type(value).__name__}"
            raise TypeError(msg)
        return {key: _decode(args[1], v, f"{path}.{key}") for key, v in value.items()}
    if kind is np.ndarray:
        try:
            arr = np.array(value, copy=True)
        except ValueError:
            msg = f"{path} must be a rectangular array of numbers"
            raise ValueError(msg) from None
        if arr.dtype.kind not in "fiu":
            msg = f"{path} must be an array of numbers, got {arr.dtype} values"
            raise TypeError(msg)
        return frozen(arr)
    if isinstance(kind, type) and issubclass(kind, Report):
        return value if isinstance(value, kind) else kind.from_dict(value, path)
    accepted, noun = _SCALARS[kind]
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        msg = f"{path} must be {noun}, got {type(value).__name__}"
        raise TypeError(msg)
    return kind(value)
