import json
import math

import numpy as np
import pytest

from octainscribe.cli import main
from octainscribe.io import write_polytope_json
from octainscribe.polytope import cube, regular_octahedron

CUBE_OFF = """OFF
8 6 12
-1 -1 -1
-1 -1 1
-1 1 -1
-1 1 1
1 -1 -1
1 -1 1
1 1 -1
1 1 1
4 0 1 3 2
4 4 6 7 5
4 0 4 5 1
4 2 3 7 6
4 0 2 6 4
4 1 5 7 3
"""


@pytest.fixture
def cube_off(tmp_path):
    f = tmp_path / "cube.off"
    f.write_text(CUBE_OFF)
    return str(f)


def write_angle(tmp_path, edges, name="angle.json"):
    f = tmp_path / name
    f.write_text(json.dumps({"apex": [0, 0, 0], "edges": edges}))
    return str(f)


def test_classify_cube_corner_exit_1(tmp_path, capsys):
    f = write_angle(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code = main(["classify", f])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["tag"] == "NON_SPECIAL"
    assert out["schema"] == "octa-inscribe/1"
    assert np.allclose(out["facet_angles"], math.pi / 2)


def test_classify_small_angle_exit_0(tmp_path, capsys):
    c = math.cos(0.3)
    s = math.sin(0.3)
    edges = [[0, 0, 1], [s, 0, c], [s * math.cos(1.0), s * math.sin(1.0), c]]
    f = write_angle(tmp_path, edges)
    code = main(["classify", f])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tag"] == "SPECIAL"
    assert out["certificate"] is not None


def test_classify_polytope_vertex(cube_off, capsys):
    code = main(["classify", "--polytope", cube_off, "--vertex", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["kind"] == "TRIHEDRAL"


def test_classify_missing_file_exit_64(capsys):
    code = main(["classify", "/nonexistent/angle.json"])
    capsys.readouterr()
    assert code == 64


def test_classify_malformed_json_exit_64(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code = main(["classify", str(f)])
    capsys.readouterr()
    assert code == 64


def test_inscribe_cube(cube_off, tmp_path, capsys):
    pose_file = str(tmp_path / "pose.json")
    obj_file = str(tmp_path / "octa.obj")
    code = main(["inscribe", cube_off, "--json", pose_file, "--obj", obj_file])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(open(pose_file).read())
    assert doc["certified"] is True
    assert doc["schema"] == "octa-inscribe/1"
    assert "diameter_history" in doc["trace"]
    assert open(obj_file).read().count("\nf ") == 8


def test_inscribe_then_certify_roundtrip(cube_off, tmp_path, capsys):
    pose_file = str(tmp_path / "pose.json")
    assert main(["inscribe", cube_off, "--json", pose_file]) == 0
    capsys.readouterr()
    cert_file = str(tmp_path / "cert.json")
    code = main(["certify", cube_off, pose_file, "--out", cert_file])
    assert code == 0
    cert = json.loads(open(cert_file).read())
    inscribed = json.loads(open(pose_file).read())
    assert cert["certified"] == inscribed["certified"] is True
    a = np.array(cert["residuals"])
    b = np.array(inscribed["certification"]["residuals"])
    assert np.abs(a - b).max() <= 1e-12


def test_inscribe_nonsimple_warns_but_runs(tmp_path, capsys):
    f = tmp_path / "octa.json"
    write_polytope_json(f, regular_octahedron())
    pose_file = str(tmp_path / "pose.json")
    code = main(["inscribe", str(f), "--json", pose_file])
    err = capsys.readouterr().err
    assert "not simple" in err
    assert code in (0, 3)
    if code == 0:
        assert json.loads(open(pose_file).read())["certified"] is True


def test_certify_rejects_shifted_pose(cube_off, tmp_path, capsys):
    pose_file = tmp_path / "pose.json"
    pose_file.write_text(
        json.dumps(
            {
                "schema": "octa-inscribe/1",
                "center": [3.0, 0.0, 0.0],
                "rotation": [1.0, 0.0, 0.0, 0.0],
                "scale": 1.0,
            }
        )
    )
    code = main(["certify", cube_off, str(pose_file)])
    capsys.readouterr()
    assert code == 3


def test_path_single_step(capsys):
    code = main(["path", "1.2", "1.0", "0.8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["steps"]) == 1


def test_path_shrunk_T0(capsys):
    code = main(["path", str(math.pi / 3), str(math.pi / 3), str(math.pi / 3 - 0.01), "--steps", "50"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["steps"]) == 50
    assert all(s["tag"] == "NON_SPECIAL" for s in out["steps"])
    assert max(out["steps"][-1]["sides"]) > math.pi / 3 + 0.01


def test_path_special_exit_1(capsys):
    code = main(["path", "0.3", "0.3", "0.3"])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [["classify", "--bogus"], [], ["path", "a", "b", "c"], ["inscribe", "cube.off", "--seed", "0"]],
    ids=["unknown-option", "no-subcommand", "non-numeric-sides", "removed-seed-flag"],
)
def test_usage_error_exit_64(argv, capsys):
    code = main(argv)
    assert "usage:" in capsys.readouterr().err
    assert code == 64


def test_help_exit_0(capsys):
    code = main(["--help"])
    assert "usage:" in capsys.readouterr().out
    assert code == 0
