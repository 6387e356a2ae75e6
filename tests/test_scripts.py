"""Smoke test of the experiment scripts: each runs to exit 0 on tiny input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "args",
    [
        ["inscribe_demo.py", "cube"],
        ["random_polytope_batch.py", "--count", "1", "--facets", "6"],
        ["special_region_map.py", "--resolution", "4"],
    ],
    ids=lambda args: args[0],
)
def test_script_runs(args, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
