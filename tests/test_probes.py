"""Every name the benchmark's tracer probes must exist in the package.

``perfbench/tracing.py`` rebinds names such as ``dimm.cli:load_fit_config``
to record spans; a probe whose target is gone is reported as absent and
blanks the metrics it feeds. The tracer module is read here, never
changed, so a refactor that deletes a probed name fails this test.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _probe_targets() -> list[str]:
    name = "_perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return [target for target, _, _ in module.PROBES]


@pytest.mark.parametrize("target", _probe_targets())
def test_probe_target_resolves(target: str) -> None:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{target}: {part!r} is missing"
        owner = getattr(owner, part)
    assert callable(owner)
