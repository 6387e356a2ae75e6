"""Smoke test of the experiment scripts: each runs to exit 0 on tiny input;
the inscription survey writes and compares its records, and exits nonzero
when a body is not certified."""

import importlib.util
import json
import math
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
        ["special_region_map.py", "--resolution", "4"],
    ],
    ids=lambda args: args[0],
)
def test_script_runs(args, tmp_path):
    proc = _run(args, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_survey_without_a_certified_body_fails(monkeypatch, capsys):
    # A certification tolerance of 0 certifies nothing: the cube's residuals
    # are about 1e-13.
    path = ROOT / "scripts" / "inscription_survey.py"
    spec = importlib.util.spec_from_file_location("inscription_survey", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    monkeypatch.setattr(survey, "CERTIFY_TOL_REL", 0.0)
    monkeypatch.setattr(sys, "argv", ["inscription_survey.py", "--families", "stock", "--limit", "1"])
    with pytest.raises(SystemExit) as exc:
        survey.main()
    assert exc.value.code and "stock/cube" in str(exc.value.code)
    assert "stock: 0/1 certified" in capsys.readouterr().out


def test_survey_writes_and_compares_its_records(tmp_path):
    out = tmp_path / "survey.json"
    subset = ["inscription_survey.py", "--families", "stock", "criterion3", "--limit", "1"]
    first = _run([*subset, "--out", str(out)], tmp_path)
    assert first.returncode == 0, first.stderr
    records = json.loads(out.read_text())
    assert list(records) == ["stock/cube", "criterion3/0"]
    for r in records.values():
        assert r["certified"] and r["evaluations"] > 0 and r["ladder_steps"] >= 1
        assert 0 <= r["unconverged_evaluations"] < r["evaluations"]
        assert set(r["pose"]) == {"center", "rotation", "scale"}
    again = _run([*subset, "--compare", str(out)], tmp_path)
    assert again.returncode == 0, again.stderr
    assert again.stdout.count("changed: 0 searches, 0 ladders, 0 flags; largest pose shift 0.00e+00") == 2
    assert again.stdout.count("1 of 1 records identical") == 2
    assert "stock: residual evaluations 5 -> 5 (converged solves 5 -> 5, others 0 -> 0);" in again.stdout
    # A change in the evaluation count alone is listed, breaks bit identity
    # and exits 0.
    cube = records["stock/cube"]
    cube["evaluations"] += 1
    out.write_text(json.dumps(records))
    saved = _run([*subset, "--compare", str(out)], tmp_path)
    assert saved.returncode == 0, saved.stderr
    assert "  stock/cube: evaluations changed;" in saved.stdout
    assert saved.stdout.count("0 of 1 records identical") == 1
    # A drift in the pose's last bit as well, with the same search, ladder
    # and flags, is listed and exits 2.
    cube["pose"]["center"][0] = math.nextafter(cube["pose"]["center"][0], math.inf)
    out.write_text(json.dumps(records))
    drift = _run([*subset, "--compare", str(out)], tmp_path)
    assert drift.returncode == 2, drift.stderr
    assert "  stock/cube: evaluations, pose changed;" in drift.stdout
    assert "0 searches, 0 ladders, 0 flags" in drift.stdout
    assert drift.stdout.count("0 of 1 records identical") == 1
    assert drift.stdout.count("1 of 1 records identical") == 1


def _run(args, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
