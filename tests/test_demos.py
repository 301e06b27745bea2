"""Every demo runs to completion: exit 0, some output, nothing on stderr, no
temporary file left behind, and the same output on every run."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    outputs = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(demo)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(tmp_path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip()
        assert done.stderr == ""
        assert list(tmp_path.iterdir()) == []
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
