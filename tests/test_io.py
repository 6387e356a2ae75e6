import json

import numpy as np
import pytest

from octainscribe.cli import main
from octainscribe.io import parse_off, read_polytope, write_obj_octahedron
from octainscribe.polytope import Degenerate, cube
from octainscribe.pose import OctahedronPose

IDENTITY = (1.0, 0.0, 0.0, 0.0)

CUBE_OFF = """OFF
# a cube with comments and blank lines

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


def test_parse_off():
    verts = parse_off(CUBE_OFF)
    assert verts.shape == (8, 3)
    assert np.abs(verts).max() == 1.0


def test_parse_off_rejects_garbage():
    with pytest.raises(Degenerate):
        parse_off("PLY\n3 1 0\n")
    with pytest.raises(Degenerate):
        parse_off("OFF\n8 6 12\n0 0\n")


def test_read_polytope_off(tmp_path):
    f = tmp_path / "cube.off"
    f.write_text(CUBE_OFF)
    p = read_polytope(f)
    assert len(p.vertices) == 8
    assert len(p.normals) == 6


def test_read_polytope_json_roundtrip(tmp_path):
    c = cube()
    f = tmp_path / "cube.json"
    f.write_text(json.dumps({"vertices": c.vertices.tolist()}))
    p = read_polytope(f)
    assert np.allclose(p.vertices, c.vertices)

    halfspaces = [{"normal": n.tolist(), "offset": float(d)} for n, d in zip(c.normals, c.offsets)]
    f2 = tmp_path / "halfspaces.json"
    f2.write_text(json.dumps({"halfspaces": halfspaces}))
    p2 = read_polytope(f2)
    assert np.allclose(p2.vertices, c.vertices)


def test_pose_json_roundtrip():
    pose = OctahedronPose([0.1, -0.2, 0.3], [0.5, 0.5, 0.5, 0.5], 1.25)
    back = OctahedronPose.from_dict(pose.to_dict())
    assert np.allclose(back.center, pose.center)
    assert np.allclose(back.rotation, pose.rotation)
    assert back.scale == pose.scale

    # Through JSON, with the other keys of an inscribe document beside it.
    doc = json.loads(json.dumps({"schema": "octa-inscribe/1", **pose.to_dict(), "certified": True}))
    again = OctahedronPose.from_dict(doc)
    assert np.allclose(again.vertices(), pose.vertices(), atol=1e-15)


def test_obj_export(tmp_path):
    pose = OctahedronPose(np.zeros(3), IDENTITY, 1.0)
    f = tmp_path / "octa.obj"
    write_obj_octahedron(f, pose)
    lines = f.read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 6
    assert len(fs) == 8
    V = np.array([[float(x) for x in l.split()[1:]] for l in vs])
    for l in fs:
        i, j, k = (int(t) - 1 for t in l.split()[1:])
        a, b, c = V[i], V[j], V[k]
        normal = np.cross(b - a, c - a)
        assert np.dot(normal, (a + b + c) / 3) > 0  # outward winding


@pytest.mark.parametrize("field, value", [("center", [0.0, "nan", 0.0]), ("rotation", [1.0, 0.0, "inf", 0.0])])
def test_read_pose_rejects_non_finite(tmp_path, capsys, field, value):
    doc = OctahedronPose(np.zeros(3), IDENTITY, 1.0).to_dict()
    doc[field] = [float(x) for x in value]
    path = tmp_path / "pose.json"
    path.write_text(json.dumps(doc))
    cube_off = tmp_path / "cube.off"
    cube_off.write_text(CUBE_OFF)
    assert main(["certify", str(cube_off), str(path)]) == 64
    assert "finite" in capsys.readouterr().err
