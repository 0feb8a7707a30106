"""route_gap of one finished run: the largest relative gap in |u| between
the elliptic route `ringlab verify` uses (solve_stream_elliptic with
quadrature edge values, then velocity_from_stream) and direct Biot-Savart
quadrature (velocity_direct), at fixed probe points on the last snapshot.

    PYTHONPATH=src python3 perfbench/route_gap.py MANIFEST OUT.json PROBES

PROBES is a JSON list of (r, z) pairs; each is moved to the nearest grid
node so that the elliptic route needs no interpolation.
"""

import json
import os
import sys

import numpy as np

from ringlab import biot_savart as bs
from ringlab import fields


def route_gap(eta, probes):
    g = eta.grid
    omega = fields.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
    u = bs.velocity_from_stream(bs.solve_stream_elliptic(omega, method="fft"))
    nodes = [(int(round(r / g.dr)), int(round((z - g.z_min) / g.dz)))
             for r, z in probes]
    points = np.array([(i * g.dr, g.z_min + j * g.dz) for i, j in nodes])
    direct = bs.velocity_direct(omega, points)
    direct_mag = np.hypot(direct[:, 0], direct[:, 1])
    elliptic_mag = np.array([np.hypot(u.ur[i, j], u.uz[i, j])
                             for i, j in nodes])
    return float(np.max(np.abs(elliptic_mag - direct_mag) / direct_mag))


def main(manifest_path, out_path, probes_json):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    last = manifest["snapshots"][-1]["path"]
    eta = fields.load_field(os.path.join(os.path.dirname(manifest_path), last))
    gap = route_gap(eta, json.loads(probes_json))
    with open(out_path, "w") as fh:
        json.dump({"route_gap": gap, "snapshot": last}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
