"""Command-line interface.

Subcommands: classify a solid angle, inscribe an octahedron into a
polytope, generate a deformation path through the non-special set, and
re-certify a stored pose against a polytope.

Exit codes are a stable contract:
  0  SPECIAL / NOT_IN_A0 / certified
  1  NON_SPECIAL / IN_A0 / non-pathable input
  2  INDETERMINATE
  3  inscription or certification failure
  64 malformed input, command-line usage errors included
  70 internal error
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import io as oio
from .angles import (
    AngleClass,
    ClassTag,
    GeneralKind,
    NotNonSpecial,
    SolidAngle,
    classify_general,
    deformation_path,
    placement_test,
    triangle_from_sides,
)
from .inscriber import InscriptionFailed, certify, continue_to_surface
from .polytope import solid_angle_at
from .pose import OctahedronPose
from .sphere import GeometryError

EX_OK = 0
EX_NEGATIVE = 1
EX_INDETERMINATE = 2
EX_FAILED = 3
EX_USAGE = 64
EX_SOFTWARE = 70


def _tolerance(text: str) -> float:
    """argparse type of every --tol: a finite, non-negative float."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return value


def _emit(doc: dict, out_path):
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_angle(args) -> SolidAngle:
    if args.polytope is not None:
        if args.vertex is None:
            raise GeometryError("--polytope requires --vertex INDEX")
        poly = oio.read_polytope(args.polytope)
        return solid_angle_at(poly, args.vertex)
    if args.angle is None:
        raise GeometryError("provide an angle JSON file or --polytope/--vertex")
    with open(args.angle) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise GeometryError("angle JSON must be an object {apex: [...], edges: [[...], ...]}")
    return SolidAngle(doc["apex"], doc["edges"])


def _certificate_dict(cls: AngleClass):
    if cls.certificate is None:
        return None
    cert = cls.certificate
    return {
        "labeling": list(cert.labeling),
        "mirrored": bool(cert.mirrored),
        "placed_vertices": cert.placed_triangle.matrix.tolist(),
        "margins": [float(m) for m in cert.margins],
    }


def cmd_classify(args) -> int:
    angle = _load_angle(args)
    result = classify_general(angle)
    doc = {
        "schema": oio.SCHEMA,
        "kind": result.kind.value,
        "facet_angles": [float(a) for a in angle.facet_angles()],
    }
    if result.kind is GeneralKind.TRIHEDRAL:
        cls = result.trihedral
        doc["tag"] = cls.tag.value
        doc["margin"] = float(cls.margin)
        doc["certificate"] = _certificate_dict(cls)
        code = {
            ClassTag.SPECIAL: EX_OK,
            ClassTag.NON_SPECIAL: EX_NEGATIVE,
            ClassTag.INDETERMINATE: EX_INDETERMINATE,
        }[cls.tag]
    else:
        doc["tag"] = result.kind.value
        doc["margin"] = float(result.fit.margin) if result.fit else None
        doc["note"] = result.note
        code = {
            GeneralKind.NOT_IN_A0: EX_OK,
            GeneralKind.IN_A0: EX_NEGATIVE,
            GeneralKind.INDETERMINATE: EX_INDETERMINATE,
        }[result.kind]
    _emit(doc, args.out)
    return code


def cmd_inscribe(args) -> int:
    # Output paths are checked before the search, which may take long.
    for out in map(Path, filter(None, (args.obj, args.json))):
        if out.is_dir() or not out.parent.is_dir():
            raise OSError(f"cannot write {out}: it is a directory or its directory does not exist")
    poly = oio.read_polytope(args.polytope)
    try:
        trace, final = continue_to_surface(poly)
    except InscriptionFailed as exc:
        print(f"inscription failed: {exc}", file=sys.stderr)
        return EX_FAILED
    if not args.quiet:
        for w in trace.warnings:
            print(f"warning: {w}", file=sys.stderr)
    tol_abs = args.tol * poly.diameter
    report = certify(poly, final.pose, tol_abs)
    doc = {
        "schema": oio.SCHEMA,
        **final.pose.to_dict(),
        "certified": report.ok,
        "certification": report.to_dict(),
        "final_report": final.to_dict(),
        "trace": trace.to_dict(),
    }
    # The JSON goes last, so a failed OBJ write leaves no success record.
    if args.obj:
        oio.write_obj_octahedron(args.obj, final.pose)
    _emit(doc, args.json)
    return EX_OK if report.ok else EX_FAILED


def cmd_path(args) -> int:
    tri = triangle_from_sides(args.sides[0], args.sides[1], args.sides[2])
    try:
        path = deformation_path(tri, steps=args.steps)
    except NotNonSpecial as exc:
        print(f"not pathable: {exc}", file=sys.stderr)
        return EX_NEGATIVE
    steps = []
    for t in path:
        cls = placement_test(t)
        steps.append(
            {
                "sides": [float(s) for s in t.sides],
                "tag": cls.tag.value,
                "margin": float(cls.margin),
            }
        )
    _emit({"schema": oio.SCHEMA, "steps": steps}, args.out)
    return EX_OK


def cmd_certify(args) -> int:
    poly = oio.read_polytope(args.polytope)
    pose = OctahedronPose.from_dict(json.loads(Path(args.pose).read_text()))
    report = certify(poly, pose, args.tol * poly.diameter)
    doc = {"schema": oio.SCHEMA, "certified": report.ok, **report.to_dict()}
    _emit(doc, args.out)
    return EX_OK if report.ok else EX_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octainscribe",
        description="Classify solid angles and inscribe regular octahedra into convex polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="classify a solid angle")
    pc.add_argument("angle", nargs="?", help="angle JSON file: {apex: [...], edges: [[...], ...]}")
    pc.add_argument("--polytope", help="polytope file (OFF or JSON); classify one of its vertices")
    pc.add_argument("--vertex", type=int, help="vertex index used with --polytope")
    pc.add_argument("--out", help="write the JSON report here instead of stdout")
    pc.set_defaults(func=cmd_classify)

    # No prefix matching: a removed flag stays a usage error (exit 64).
    pi = sub.add_parser("inscribe", help="find an inscribed regular octahedron", allow_abbrev=False)
    pi.add_argument("polytope", help="polytope file (OFF or JSON)")
    pi.add_argument("--tol", type=_tolerance, default=1e-8, help="certification tolerance, relative to diameter")
    pi.add_argument("--json", help="write the pose/trace JSON here instead of stdout")
    pi.add_argument("--obj", help="also export the octahedron as OBJ")
    pi.add_argument("--quiet", action="store_true")
    pi.set_defaults(func=cmd_inscribe)

    pp = sub.add_parser("path", help="deformation path of a non-special triangle")
    pp.add_argument("sides", nargs=3, type=float, help="spherical triangle side lengths (rad)")
    pp.add_argument("--steps", type=int, default=60, help="path length (2 to 10000)")
    pp.add_argument("--out", help="write the path JSON here instead of stdout")
    pp.set_defaults(func=cmd_path)

    pv = sub.add_parser("certify", help="re-certify a stored pose against a polytope")
    pv.add_argument("polytope")
    pv.add_argument("pose", help="pose JSON written by inscribe")
    pv.add_argument("--tol", type=_tolerance, default=1e-8, help="tolerance, relative to diameter")
    pv.add_argument("--out", help="write the JSON report here instead of stdout")
    pv.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as INDETERMINATE.
        return EX_USAGE if exc.code else EX_OK
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
