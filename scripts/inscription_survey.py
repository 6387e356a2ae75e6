#!/usr/bin/env python3
"""Survey of the inscriber on fixed body families: inscribe and certify
every body, and record what the search did.

Families:
  criterion3  the 20 random simple polytopes of acceptance criterion 3
              (random_simple_polytope, default_rng(2024));
  tangent     bodies of F = 8, 16, 32 and 64 halfspaces tangent to the unit
              sphere (tangent_polytope, default_rng(2024));
  stock       the cube, the regular tetrahedron and the regular octahedron;
  spiky       the 200 spiky point clouds (random_spiky_cloud, default_rng(5)).

Per body it records: certified at 1e-7 * diameter or not, residual
evaluations (calls of inscriber.residual) and how many of them were spent
by solves that did not converge, the initial search counts, the ladder
steps, the flags and the final pose.  Each family's summary and --compare
line split the evaluations between the solves that converged and the
others, the search cost that found nothing.  --out writes the records as
JSON; --compare OLD lists every body whose record differs from OLD's in
any field (search, ladder, flags, evaluations, pose, ...), with the pose
shift pose_distance / diameter, and counts per family the records that are
identical to the bit.  Exits 1 when a body is not certified; otherwise,
with --compare, exits 2 when any record changed in a field other than the
two evaluation counts (search, ladder, flags, pose, certification, error,
...), so a change meant to save work only can be checked by the exit code
alone.  To survey an older version of the package, run this script with
PYTHONPATH pointing to that version's src.

    PYTHONPATH=src python3 scripts/inscription_survey.py --out survey.json
    PYTHONPATH=src python3 scripts/inscription_survey.py --compare survey.json
"""

import argparse
import json
import sys
import time

import numpy as np

from octainscribe import inscriber
from octainscribe.generators import random_simple_polytope, random_spiky_cloud, tangent_polytope
from octainscribe.inscriber import InscriptionFailed, certify, continue_to_surface
from octainscribe.polytope import build_from_vertices, cube, regular_octahedron, regular_tetrahedron
from octainscribe.pose import OctahedronPose, pose_distance

CERTIFY_TOL_REL = 1e-7
EVALUATION_FIELDS = ("evaluations", "unconverged_evaluations")


def criterion3():
    rng = np.random.default_rng(2024)
    for k in range(20):
        yield f"criterion3/{k}", random_simple_polytope(rng)


def tangent():
    rng = np.random.default_rng(2024)
    for f in (8, 16, 32, 64):
        yield f"tangent/{f}", tangent_polytope(rng, f)


def stock():
    yield "stock/cube", cube()
    yield "stock/tetrahedron", regular_tetrahedron()
    yield "stock/octahedron", regular_octahedron()


def spiky():
    rng = np.random.default_rng(5)
    for k in range(200):
        yield f"spiky/{k}", build_from_vertices(random_spiky_cloud(rng))


FAMILIES = {"criterion3": criterion3, "tangent": tangent, "stock": stock, "spiky": spiky}


def survey_body(body, counter):
    """One body's record; counter[0] counts residual evaluations and
    counter[1] those of solves that did not converge."""
    counter[:] = [0, 0]
    record = {"diameter": body.diameter}
    try:
        trace, final = continue_to_surface(body)
    except InscriptionFailed as exc:
        trace, final = exc.trace, None
        record["error"] = str(exc)
    record["evaluations"], record["unconverged_evaluations"] = counter
    record["initial_search"] = dict(trace.initial_search) if trace else {}
    record["ladder_steps"] = len(trace.steps) if trace else 0
    record["flags"] = list(trace.flags) if trace else []
    record["certified"] = False
    if final is not None:
        cert = certify(body, final.pose, CERTIFY_TOL_REL * body.diameter)
        record["certified"] = cert.ok
        record["diameter_ratio"] = cert.diameter_ratio
        record["pose"] = final.pose.to_dict()
    return record


def run(families, limit):
    counter = [0, 0]
    real, real_solve = inscriber.residual, inscriber.solve_at_epsilon

    def counted(body, pose):
        counter[0] += 1
        return real(body, pose)

    def attributed(*args, **kwargs):
        before = counter[0]
        rep = real_solve(*args, **kwargs)
        if not rep.converged:
            counter[1] += counter[0] - before
        return rep

    inscriber.residual, inscriber.solve_at_epsilon = counted, attributed
    records = {}
    try:
        for family in families:
            t0 = time.perf_counter()
            names = []
            for name, body in FAMILIES[family]():
                if limit is not None and len(names) >= limit:
                    break
                records[name] = survey_body(body, counter)
                names.append(name)
            _summary(family, [records[n] for n in names], time.perf_counter() - t0)
    finally:
        inscriber.residual, inscriber.solve_at_epsilon = real, real_solve
    return records


def _split(recs):
    """The residual evaluations of converged solves and of the others."""
    others = sum(r["unconverged_evaluations"] for r in recs)
    return sum(r["evaluations"] for r in recs) - others, others


def _summary(family, recs, elapsed):
    ratios = [r["diameter_ratio"] for r in recs if "diameter_ratio" in r]
    converged, others = _split(recs)
    print(
        f"{family}: {sum(r['certified'] for r in recs)}/{len(recs)} certified, "
        f"{sum(r['evaluations'] for r in recs)} residual evaluations "
        f"({converged} in converged solves, {others} in the others), "
        f"{sum(r['ladder_steps'] for r in recs)} ladder steps, "
        f"smallest diameter ratio {min(ratios, default=float('nan')):.4f}, {elapsed:.1f}s"
    )


def compare(old, new):
    """Print every body of both surveys whose record changed in any field,
    with its pose shift; then per family the evaluation totals, the changed
    searches, ladders and flags, the largest pose shift of any body and the
    records identical to the bit.  Fields compare as JSON text, so every
    float by its repr, which tells any two different floats apart.  Returns
    whether any record changed in a field other than the evaluation counts."""
    labels = {"initial_search": "search", "ladder_steps": "ladder"}
    moved = False
    for family in FAMILIES:
        names = [n for n in new if n.startswith(family + "/") and n in old]
        if not names:
            continue
        changed = dict.fromkeys(["search", "ladder", "flags"], 0)
        identical = 0
        largest = 0.0
        for name in names:
            a, b = old[name], new[name]
            what = [
                labels.get(k, k)
                for k in dict.fromkeys([*a, *b])
                if json.dumps(a.get(k), sort_keys=True) != json.dumps(b.get(k), sort_keys=True)
            ]
            shift = float("nan")
            if "pose" in a and "pose" in b:
                pa, pb = (OctahedronPose.from_dict(r["pose"]) for r in (a, b))
                shift = pose_distance(pa, pb) / b["diameter"]
                largest = max(largest, shift)
            for label in changed:
                changed[label] += label in what
            identical += not what
            moved |= any(label not in EVALUATION_FIELDS for label in what)
            if what:
                print(
                    f"  {name}: {', '.join(what)} changed; ladder {a['ladder_steps']} -> "
                    f"{b['ladder_steps']}, evaluations {a['evaluations']} -> {b['evaluations']}, "
                    f"shift {shift:.2e}"
                )
        before = sum(old[n]["evaluations"] for n in names)
        after = sum(new[n]["evaluations"] for n in names)
        (c0, u0), (c1, u1) = (_split([recs[n] for n in names]) for recs in (old, new))
        print(
            f"{family}: residual evaluations {before} -> {after} "
            f"(converged solves {c0} -> {c1}, others {u0} -> {u1}); changed: "
            f"{changed['search']} searches, {changed['ladder']} ladders, {changed['flags']} flags; "
            f"largest pose shift {largest:.2e}; {identical} of {len(names)} records identical"
        )
    return moved


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--families", nargs="+", choices=list(FAMILIES), default=list(FAMILIES))
    ap.add_argument("--limit", type=int, default=None, help="survey only the first N bodies of each family")
    ap.add_argument("--out", help="write the per-body records to this JSON file")
    ap.add_argument("--compare", metavar="OLD", help="list the bodies that changed against this survey")
    args = ap.parse_args()

    records = run(args.families, args.limit)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1)
    moved = False
    if args.compare:
        with open(args.compare) as fh:
            moved = compare(json.load(fh), records)
    failed = [name for name, r in records.items() if not r["certified"]]
    if failed:
        sys.exit(f"{len(failed)} of {len(records)} bodies not certified: {', '.join(failed)}")
    if moved:
        sys.exit(2)


if __name__ == "__main__":
    main()
