"""The read-only rule: no array the package returns or caches can be unlocked.

:func:`dimm._util.frozen` locks an array and the ndarray that owns its
memory. numpy makes an array that owns its memory writeable again on
request, and a view too while its owner is writeable; a cached array
that could be unlocked could go stale under the fits that read it.
"""

from __future__ import annotations

import pickle
from dataclasses import fields, is_dataclass, replace
from typing import Any

import numpy as np
import pytest

from dimm import baselines, pairwise
from dimm._util import frozen
from dimm.baselines import gee_fit, gls_oracle
from dimm.integrate import integrate_fits, weight_matrix
from dimm.pairwise import fit_blocks
from dimm.simulate import bundled_scenario, generate_replicate, report_fingerprint, run_scenario


def _record_arrays(label: str, value: Any) -> dict[str, np.ndarray]:
    """Every ndarray in a record, nested records and tuples included, by path."""
    if isinstance(value, np.ndarray):
        return {label: value}
    if is_dataclass(value):
        items = [(f"{label}.{f.name}", getattr(value, f.name)) for f in fields(value)]
    elif isinstance(value, (tuple, list)):
        items = [(f"{label}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {}
    out: dict[str, np.ndarray] = {}
    for name, item in items:
        out.update(_record_arrays(name, item))
    return out


@pytest.fixture(scope="module")
def handed_out() -> dict[str, np.ndarray]:
    scn = bundled_scenario("micro")
    data = generate_replicate(scn, 0)
    part = scn.partition_for("dimm")
    fits = fit_blocks(data, part)
    combined = integrate_fits(fits)
    arrays = {
        **_record_arrays("panel", data),
        **_record_arrays("scenario", scn),
        **_record_arrays("fit", fits[0]),
        **_record_arrays("moments", weight_matrix(fits)),
        **_record_arrays("integrated", combined),
        **_record_arrays("gls", gls_oracle(data, scn.covariance_matrix)),
        **_record_arrays("gee_independence", gee_fit(data, "independence")),
        **_record_arrays("gee_exchangeable", gee_fit(data, "exchangeable")),
        **_record_arrays("pooled_start", baselines._pooled_start(data)),
        **_record_arrays("sim_report", run_scenario(replace(scn, n_replicates=2), workers=1)),
    }
    first = part.slices[0]
    block = pairwise._moments_for(data, first.start, first.stop)
    arrays["block_moments.stacked"] = block.stacked
    for label, split in (("panel.split", data.split), ("block_moments.split", block.split)):
        for name in ("a", "u", "s", "c"):
            arrays[f"{label}.{name}"] = getattr(split, name)
    whitening = baselines._whitening(scn.covariance_matrix.tobytes(), scn.covariance_matrix.shape[0])
    for name, arr in zip(("inv_factor", "ones"), whitening):
        arrays[f"whitening.{name}"] = arr
    return arrays


def test_no_array_handed_out_or_cached_can_be_made_writeable(handed_out) -> None:
    # Panel 3 (responses, subject-level mask, design Gram), scenario 4,
    # block fit 4, moments 8, integrated fit 3, the three comparator fits 2
    # each, pooled start 4, block moments 1, the four arrays of the panel's
    # column split and the four of a block's, and the oracle's two
    # per-covariance arrays; and the 42 arrays the codec decodes into a
    # micro simulation report.
    assert len(handed_out) == 85
    unlocked = []
    for name, arr in handed_out.items():
        try:
            arr.setflags(write=True)
        except ValueError:
            continue
        unlocked.append(name)
    assert not unlocked, f"can be made writeable: {unlocked}"


def test_frozen_locks_a_view_at_the_memory_that_owns_it() -> None:
    owner = np.arange(6.0)
    view = owner.reshape(2, 3)[0]
    locked = frozen(view)
    assert np.shares_memory(locked, owner)  # handed over, not copied
    assert not owner.flags.writeable  # an owner may be unlocked; a view of it may not
    for arr in (locked, view):
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    assert frozen(np.arange(3)).dtype == np.float64


@pytest.mark.parametrize("buffer", [bytes, bytearray])
def test_frozen_copies_memory_that_no_ndarray_owns(buffer: type) -> None:
    # np.frombuffer leaves the array on the buffer; a view of such an array
    # has an ndarray base that owns nothing either.
    data = buffer(np.arange(4.0).tobytes())
    for arr in (np.frombuffer(data), np.frombuffer(data)[1:]):
        locked = frozen(arr)
        with pytest.raises(ValueError):
            locked.setflags(write=True)
        assert not np.shares_memory(locked, arr)
    if buffer is bytearray:
        np.frombuffer(data)[:] = -1.0  # the buffer stays writeable; the copy does not see it
    np.testing.assert_array_equal(locked, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("protocol", [pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
def test_records_stay_read_only_through_a_pickle_round_trip(protocol: int) -> None:
    # A pool worker unpickles its scenario with every replicate.
    scn = bundled_scenario("table1_scaled")
    report = run_scenario(replace(bundled_scenario("micro"), n_replicates=2), workers=1)
    for label, record in (("scenario", scn), ("sim_report", report)):
        before = _record_arrays(label, record)
        after = _record_arrays(label, pickle.loads(pickle.dumps(record, protocol=protocol)))
        assert after.keys() == before.keys()
        assert len(after) >= 4
        for name, arr in after.items():
            assert arr.dtype == before[name].dtype
            np.testing.assert_array_equal(arr, before[name])
            with pytest.raises(ValueError):
                arr.setflags(write=True)
    again = pickle.loads(pickle.dumps(report, protocol=protocol))
    assert report_fingerprint(again) == report_fingerprint(report)
