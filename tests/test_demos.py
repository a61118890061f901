"""The demos run end to end from a copy, and demo 02 writes the committed DOT file."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    if demo.name.startswith("02_"):
        written = (tmp_path / "fan_jsj.dot").read_bytes()
        assert written == (ROOT / "demos" / "fan_jsj.dot").read_bytes()
