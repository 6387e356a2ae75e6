#!/usr/bin/env python3
"""Inscribe octahedra into the stock bodies and print the continuation
traces: smoothing parameter, tracked octahedron diameter, residual."""

import argparse
import time

import numpy as np

from octainscribe.inscriber import certify, continue_to_surface
from octainscribe.polytope import cube, regular_octahedron, regular_tetrahedron

BODIES = {
    "cube": cube,
    "tetrahedron": regular_tetrahedron,
    "octahedron": regular_octahedron,
}


def run(name, body):
    print(f"== {name}: {body}")
    t0 = time.time()
    trace, final = continue_to_surface(body)
    elapsed = time.time() - t0
    for w in trace.warnings:
        print(f"   warning: {w}")
    for rep, diam in zip(trace.steps, trace.diameter_history):
        print(f"   eps={rep.epsilon:10.3e}  diameter={diam:.6f}  residual={rep.max_residual():.2e}")
    cert = certify(body, final.pose, 1e-8 * body.diameter)
    V = np.round(final.pose.vertices(), 6)
    print(f"   final pose: center={np.round(final.pose.center, 6).tolist()} "
          f"scale={final.pose.scale:.9f}")
    print(f"   vertices:\n{V}")
    print(f"   certified={cert.ok} max residual={cert.residuals.max():.2e} ({elapsed:.2f}s)\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bodies", nargs="*", default=list(BODIES), choices=list(BODIES))
    args = ap.parse_args()
    for name in args.bodies or BODIES:
        run(name, BODIES[name]())


if __name__ == "__main__":
    main()
