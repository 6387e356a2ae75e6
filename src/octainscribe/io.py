"""File interfaces: OFF and JSON polytope input, JSON reports, and OBJ
export of octahedra.  All JSON documents carry a schema tag so recorded
traces stay identifiable as the format evolves."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .polytope import ConvexPolytope, Degenerate, build_from_halfspaces, build_from_vertices
from .pose import OCTA_FACES, OctahedronPose

SCHEMA = "octa-inscribe/1"

__all__ = [
    "SCHEMA",
    "read_polytope",
    "polytope_from_dict",
    "parse_off",
    "write_obj_octahedron",
]


def parse_off(text: str) -> np.ndarray:
    """Vertex array of an ASCII OFF file.  Faces are not trusted: the
    polytope is rebuilt as the convex hull of the vertices, which is the
    intended use for convex input."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens or tokens[0].upper() != "OFF":
        raise Degenerate("not an OFF file (missing OFF header)")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        coords = [float(t) for t in tokens[4 : 4 + 3 * nv]]
    except (IndexError, ValueError) as exc:
        raise Degenerate(f"malformed OFF header or vertex section: {exc}") from exc
    if len(coords) != 3 * nv:
        raise Degenerate("OFF vertex section is truncated")
    del nf
    return np.array(coords).reshape(nv, 3)


def polytope_from_dict(d: dict) -> ConvexPolytope:
    """Degenerate unless d is an object and its halfspaces a list of objects."""
    if not isinstance(d, dict):
        raise Degenerate("polytope JSON must be an object")
    if "vertices" in d:
        return build_from_vertices(d["vertices"])
    if "halfspaces" in d:
        hs = d["halfspaces"]
        if not (isinstance(hs, list) and all(isinstance(h, dict) for h in hs)):
            raise Degenerate("'halfspaces' must be a list of {normal, offset} objects")
        return build_from_halfspaces([h["normal"] for h in hs], [h["offset"] for h in hs])
    raise Degenerate("polytope JSON needs a 'vertices' or 'halfspaces' key")


def read_polytope(path) -> ConvexPolytope:
    """Read a polytope from an .off file or the JSON schema
    {"vertices": [[x,y,z],...]} / {"halfspaces": [{"normal":..,"offset":..},...]}."""
    p = Path(path)
    text = p.read_text()
    if p.suffix.lower() == ".off" or text.lstrip()[:3].upper() == "OFF":
        return build_from_vertices(parse_off(text))
    return polytope_from_dict(json.loads(text))


def write_obj_octahedron(path, pose: OctahedronPose) -> None:
    """Wavefront OBJ: the six vertices and eight triangular faces with
    outward winding."""
    lines = ["# regular octahedron (6 vertices, 8 faces)"]
    for v in pose.vertices():
        lines.append(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    for f in OCTA_FACES:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    Path(path).write_text("\n".join(lines) + "\n")
