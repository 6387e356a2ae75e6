#!/usr/bin/env python3
"""Batch experiment: inscribe octahedra into random simple polytopes and
summarize residuals, sizes, and restart statistics."""

import argparse
import time

import numpy as np

from octainscribe.cli import _tolerance
from octainscribe.generators import random_simple_polytope
from octainscribe.inscriber import InscriptionFailed, certify, continue_to_surface


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--facets", type=int, default=None, help="fix the halfspace count (default 6-12)")
    ap.add_argument("--tol", type=_tolerance, default=1e-7, help="certification tolerance, relative")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    residuals, sizes, times = [], [], []
    collapses = failures = 0
    for k in range(args.count):
        body = random_simple_polytope(rng, n_facets=args.facets)
        t0 = time.time()
        try:
            trace, final = continue_to_surface(body)
        except InscriptionFailed as exc:
            failures += 1
            print(f"[{k:3d}] FAILED: {exc}")
            continue
        dt = time.time() - t0
        cert = certify(body, final.pose, args.tol * body.diameter)
        collapses += sum("VERTEX_COLLAPSE" in f for f in trace.flags)
        residuals.append(cert.residuals.max() / body.diameter)
        sizes.append(final.pose.diameter() / body.diameter)
        times.append(dt)
        print(
            f"[{k:3d}] V={len(body.vertices):2d} F={len(body.normals):2d} "
            f"certified={cert.ok} rel_residual={residuals[-1]:.2e} "
            f"rel_diameter={sizes[-1]:.3f} steps={len(trace.steps)} {dt:.1f}s"
        )
        failures += not cert.ok
    if residuals:
        print(
            f"\n{args.count - failures}/{args.count} certified; worst relative residual "
            f"{max(residuals):.2e}; octahedron/body diameter ratio "
            f"{min(sizes):.3f}..{max(sizes):.3f}; {collapses} collapse restarts; "
            f"median time {np.median(times):.2f}s"
        )
    if failures:
        raise SystemExit(f"{failures} of {args.count} bodies not certified")


if __name__ == "__main__":
    main()
