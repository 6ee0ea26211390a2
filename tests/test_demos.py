"""Smoke test: every script under ``demos/`` runs to completion on numpy alone."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The test extras; the runtime needs numpy only.
TEST_EXTRAS = ("scipy", "mpmath", "hypothesis")


def _numpy_only_env(tmp_path: Path) -> dict[str, str]:
    """An environment whose interpreters cannot import the test extras.

    A ``sitecustomize`` first on ``PYTHONPATH`` maps each to None in
    ``sys.modules``; child processes (the CLI, pool workers) inherit the
    path, so they are held to it too. ``TMPDIR``: demo 06 writes its
    files under a temporary directory, which must be gone when it ends.
    """
    blocker = tmp_path / "numpy_only"
    blocker.mkdir()
    (blocker / "sitecustomize.py").write_text(
        f"import sys\n\nfor name in {TEST_EXTRAS!r}:\n    sys.modules[name] = None\n"
    )
    path = os.pathsep.join([str(blocker), str(ROOT / "src")])
    return dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))


def _run(args: list[str], tmp_path: Path) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=_numpy_only_env(tmp_path),
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_the_demo_environment_hides_the_test_extras_from_grandchildren(tmp_path: Path) -> None:
    child = (
        "import subprocess, sys\n"
        "sys.exit(subprocess.run([sys.executable, '-c', 'import scipy']).returncode)"
    )
    result = _run(["-c", child], tmp_path)
    assert result.returncode != 0
    assert "import of scipy halted" in result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo: Path, tmp_path: Path) -> None:
    result = _run([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr
    assert not list(tmp_path.glob("dimm_demo_*"))
