"""Every name a ``dimm`` module imports is used by that module, and every
name the package exports resolves.

The scan parses each module's source: a name bound by an ``import``
counts as used when the module reads it anywhere (annotations included),
or lists it in ``__all__``. The one exemption is an import whose own line
carries ``# noqa: F401``, kept on purpose for a caller outside the module.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "dimm"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = [(line, name) for name, line in imported.items() if name not in used]
    return [f"line {line}: {name}" for line, name in sorted(unused)]


@pytest.mark.parametrize("module", sorted(p.name for p in _SRC.glob("*.py")))
def test_module_imports_are_used(module: str) -> None:
    unused = _unused_imports((_SRC / module).read_text(encoding="utf-8"))
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_scan_flags_an_unused_import() -> None:
    source = (
        "from typing import TYPE_CHECKING\n"
        "import os\n"
        "import math  # noqa: F401  (kept for callers)\n"
        "from json import dumps as to_json\n"
        "__all__ = ['to_json']\n"
        "if TYPE_CHECKING:\n"
        "    from collections.abc import Sequence\n"
    )
    assert _unused_imports(source) == ["line 2: os", "line 7: Sequence"]


def test_every_exported_name_resolves() -> None:
    import dimm
    import dimm.baselines
    import dimm.simulate

    for name in dimm.__all__:
        assert getattr(dimm, name) is not None, name
    assert dimm.run_scenario is dimm.simulate.run_scenario
    assert dimm.gee_fit is dimm.baselines.gee_fit
    assert dimm.bundled_scenario_names is dimm.simulate.bundled_scenario_names
    assert set(dimm.__all__) <= set(dir(dimm))
    star: dict[str, object] = {}
    exec("from dimm import *", star)  # noqa: S102
    assert set(dimm.__all__) <= set(star)
    with pytest.raises(AttributeError, match="no_such_name"):
        dimm.no_such_name  # noqa: B018


def test_import_dimm_defers_the_simulation_code() -> None:
    # An unknown name raises AttributeError, so ``from dimm import simulate``
    # still finds the submodule; a lazy name loads it on first access.
    code = (
        "import sys, dimm\n"
        "print(sorted(m for m in ('dimm.simulate', 'dimm.baselines') if m in sys.modules))\n"
        "from dimm import simulate\n"
        "print(dimm.run_scenario is simulate.run_scenario, 'dimm.baselines' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True"]


def test_import_dimm_model_loads_only_the_modules_below_it() -> None:
    # The JSON codec lives in dimm._util, below the model, so the model's
    # records read from JSON without dimm.io. The package's __init__ loads
    # the whole fitting path, so it is bypassed: an empty package stands
    # in for it, and only what dimm.model itself imports is loaded.
    code = (
        "import importlib.util, sys, types\n"
        "pkg = types.ModuleType('dimm')\n"
        "pkg.__path__ = importlib.util.find_spec('dimm').submodule_search_locations\n"
        "sys.modules['dimm'] = pkg\n"
        "import dimm.model\n"
        "print(dimm.model.Block.from_dict({'name': 'a', 'size': 2, 'structure': 'cs'}))\n"
        "print(sorted(m for m in sys.modules if m.startswith('dimm.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "Block(name='a', size=2, structure='cs')",
        "['dimm._util', 'dimm.errors', 'dimm.model']",
    ]
