import json
import math

import numpy as np
import pytest

import octainscribe.inscriber as inscriber
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


@pytest.mark.parametrize(
    "command, doc",
    [
        ("inscribe", "42"),
        ("inscribe", '{"halfspaces": [1, 2, 3, 4]}'),
        ("certify", '{"center": [0, 0, 0], "rotation": [1, 0, 0, 0], "scale": null}'),
        ("classify", "[1, 2]"),
        ("classify --polytope", "42"),
    ],
)
def test_wrongly_shaped_json_exit_64(cube_off, tmp_path, command, doc, capsys):
    # JSON that parses but is not the documented document is malformed
    # input, not an internal error.
    f = tmp_path / "doc.json"
    f.write_text(doc)
    argv = {
        "inscribe": ["inscribe", str(f)],
        "certify": ["certify", cube_off, str(f)],
        "classify": ["classify", str(f)],
        "classify --polytope": ["classify", "--polytope", str(f), "--vertex", "0"],
    }[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert not captured.out
    assert "error:" in captured.err and "internal" not in captured.err
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
    assert doc["trace"]["initial_search"]["seeds"] >= 1
    assert open(obj_file).read().count("\nf ") == 8


def test_inscribe_eps0_sets_first_smoothing(cube_off, tmp_path, capsys):
    pose_file = str(tmp_path / "pose.json")
    assert main(["inscribe", cube_off, "--eps0", "0.1", "--json", pose_file]) == 0
    capsys.readouterr()
    doc = json.loads(open(pose_file).read())
    assert doc["certified"] is True
    assert doc["trace"]["steps"][0]["epsilon"] == 0.1


def test_inscribe_seeds_sets_rotation_count(cube_off, tmp_path, capsys, monkeypatch):
    counts = []
    real = inscriber._seed_poses

    def recorded(s, n_rotations):
        counts.append(n_rotations)
        return real(s, n_rotations)

    monkeypatch.setattr(inscriber, "_seed_poses", recorded)
    pose_file = str(tmp_path / "pose.json")
    assert main(["inscribe", cube_off, "--seeds", "1", "--json", pose_file]) == 0
    capsys.readouterr()
    doc = json.loads(open(pose_file).read())
    assert doc["certified"] is True
    # one rotation x (center + 8 vertex centers) x 4 scales
    assert 1 <= doc["trace"]["initial_search"]["seeds"] <= 36
    assert counts and set(counts) == {1}


@pytest.mark.parametrize(
    "option",
    [
        ["--seeds", "0"],
        ["--seeds", "-5"],
        ["--eps0", "5"],
        ["--tol", "-1"],
        ["--tol", "nan"],
        ["--tol", "inf"],
    ],
    ids=["zero-seeds", "negative-seeds", "eps0-beyond-inradius", "negative-tol", "nan-tol", "inf-tol"],
)
def test_inscribe_rejects_out_of_range_option(cube_off, option, capsys):
    code = main(["inscribe", cube_off, *option])
    assert "error:" in capsys.readouterr().err
    assert code == 64


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-0.0001"])
@pytest.mark.parametrize("command", ["classify", "certify"])
def test_classify_and_certify_reject_out_of_range_tol(cube_off, tmp_path, command, tol, capsys):
    args = {
        "classify": ["classify", "--polytope", cube_off, "--vertex", "0"],
        "certify": ["certify", cube_off, str(tmp_path / "pose.json")],
    }[command]
    code = main([*args, "--tol", tol])
    assert "error:" in capsys.readouterr().err
    assert code == 64


def test_zero_tol_is_allowed(cube_off, capsys):
    # The cube corner is NON_SPECIAL at any band.
    assert main(["classify", "--polytope", cube_off, "--vertex", "0", "--tol", "0"]) == 1


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


def test_inscribe_survives_degenerate_inner_body(
    spiky_body, tmp_path, capsys, monkeypatch, inner_bodies_fail_below
):
    # With the flat-contact exit off, the ladder reaches an epsilon whose
    # inner body cannot be built (below 0.01 * inradius); the valid
    # polytope still inscribes instead of exiting as malformed input.
    monkeypatch.setattr(inscriber, "_on_facets", lambda s, pose: False)
    inner_bodies_fail_below(0.01 * spiky_body.inradius)
    f = tmp_path / "spiky.json"
    write_polytope_json(f, spiky_body)
    pose_file = tmp_path / "pose.json"
    assert main(["inscribe", str(f), "--json", str(pose_file), "--quiet"]) == 0
    doc = json.loads(pose_file.read_text())
    assert doc["certified"] is True
    assert [flag.split(" at ")[0] for flag in doc["trace"]["flags"]] == ["INNER_BODY_DEGENERATE"]


def test_inscribe_cube_reports_flat_contact(cube_off, tmp_path, capsys):
    # Every contact of the start pose is facet-interior: the ladder ends at
    # its first step, and the JSON trace says so.
    pose_file = tmp_path / "pose.json"
    assert main(["inscribe", cube_off, "--json", str(pose_file)]) == 0
    capsys.readouterr()
    doc = json.loads(pose_file.read_text())
    assert doc["certified"] is True
    assert doc["trace"]["flags"] == ["FLAT_CONTACT at epsilon=0.2"]
    assert len(doc["trace"]["steps"]) == 1


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


def test_certify_rejects_collapsed_pose(cube_off, tmp_path, capsys):
    # A pose of scale 1e-9 diameters at a cube corner: every vertex lies
    # within tol of the boundary, and the octahedron has collapsed.
    pose_file = tmp_path / "pose.json"
    scale = 1e-9 * 2 * math.sqrt(3)
    pose_file.write_text(
        json.dumps(
            {
                "schema": "octa-inscribe/1",
                "center": [1.0, 1.0, 1.0],
                "rotation": [1.0, 0.0, 0.0, 0.0],
                "scale": scale,
            }
        )
    )
    code = main(["certify", cube_off, str(pose_file)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is False
    assert max(doc["residuals"]) <= 1e-8 * 2 * math.sqrt(3)
    assert doc["diameter_ratio"] == pytest.approx(2e-9)
    assert code == 3


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["edge", "apex"])
def test_classify_rejects_non_finite_angle(tmp_path, where, bad, capsys):
    # NaN used to pass every validation check and print "margin": NaN.
    apex, edge = ("0", bad) if where == "edge" else (bad, "0")
    f = tmp_path / "angle.json"
    f.write_text(f'{{"apex": [0, {apex}, 0], "edges": [[1, 0, 0], [0, 1, {edge}], [0, 0, 1]]}}')
    code = main(["classify", str(f)])
    assert "finite" in capsys.readouterr().err
    assert code == 64


def test_certify_rejects_non_finite_pose(cube_off, tmp_path, capsys):
    pose_file = tmp_path / "pose.json"
    pose_file.write_text(
        '{"schema": "octa-inscribe/1", "center": [NaN, 0, 0], "rotation": [1, 0, 0, 0], "scale": 1}'
    )
    code = main(["certify", cube_off, str(pose_file)])
    assert "finite" in capsys.readouterr().err
    assert code == 64


def test_certify_rejects_non_finite_rotation(cube_off, tmp_path, capsys):
    # A NaN in the rotation exits 64, as one in the centre does.
    pose_file = tmp_path / "pose.json"
    pose_file.write_text(
        '{"schema": "octa-inscribe/1", "center": [0, 0, 0], "rotation": [1, NaN, 0, 0], "scale": 1}'
    )
    code = main(["certify", cube_off, str(pose_file)])
    assert "finite" in capsys.readouterr().err
    assert code == 64


@pytest.mark.parametrize("scale", ["Infinity", "NaN"])
def test_certify_rejects_non_finite_scale(cube_off, tmp_path, scale, capsys):
    # json reads Infinity, and an infinite scale used to pass as positive.
    pose_file = tmp_path / "pose.json"
    pose_file.write_text(
        f'{{"schema": "octa-inscribe/1", "center": [0, 0, 0], "rotation": [1, 0, 0, 0], "scale": {scale}}}'
    )
    code = main(["certify", cube_off, str(pose_file)])
    captured = capsys.readouterr()
    assert not captured.out
    assert "error:" in captured.err
    assert code == 64


@pytest.mark.parametrize("vertex", ["8", "100", "-1"])
def test_classify_rejects_out_of_range_vertex(cube_off, vertex, capsys):
    code = main(["classify", "--polytope", cube_off, "--vertex", vertex])
    assert "out of range [0, 8)" in capsys.readouterr().err
    assert code == 64


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
