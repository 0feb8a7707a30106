#!/usr/bin/env python3
"""Regenerate data/calibration.json from the published calibration family.

The family is the cartesian set kappa in {1/2, 1, 2} x eps in {0.2, 0.1,
0.05} of single rings at r0 = 1 (initial data ratios), plus one evolved
reference trajectory (kappa = 1, eps = 0.1, t <= 0.5) for the time-dependent
ratios, the Nash envelope and the attainment diagonal.  Constants are frozen
with a 1.5x headroom over the observed maxima; the suites assert stability
against these, not a universal value.

Run from the repository root:  python3 scripts/calibrate.py
"""

import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ringlab import estimates as est
from ringlab import evolve as ev
from ringlab import fields as fl
from ringlab.biot_savart import solve_stream_elliptic, velocity_from_stream
from ringlab.cli import standard_test_field

KAPPAS = (0.5, 1.0, 2.0)
EPSS = (0.2, 0.1, 0.05)
R0 = 1.0


def grid_for(eps):
    dr = eps / 4.0
    nr = int(round(5.0 / dr))
    nz = int(round(8.0 / dr))
    return fl.GridSpec(nr, nz, 5.0, -4.0, 4.0)


def velocity_of(eta):
    g = eta.grid
    omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
    return velocity_from_stream(solve_stream_elliptic(omega))


def main():
    t0 = time.time()
    ratios_lq = {2.0: [], 4.0: [], 6.0: []}
    ratios_sup = []
    ratios_scalar = []

    for eps in EPSS:
        g = grid_for(eps)
        for kappa in KAPPAS:
            eta = fl.make_mollified_ring(g, [fl.RingSpec(kappa, R0, 0.0, eps)])
            u = velocity_of(eta)
            *lq, sup = est.velocity_reports(eta, u, tuple(ratios_lq))
            for q, rep in zip(ratios_lq, lq):
                ratios_lq[q].append(rep.ratio)
            ratios_sup.append(sup.ratio)
        print(f"eps={eps}: initial-data ratios done ({time.time()-t0:.0f}s)")

    # analytic scalar family for the sup inequality
    for width in (0.6, 0.8, 1.0):
        g = fl.GridSpec(192, 384, 6.0, -6.0, 6.0)
        r = g.r_nodes()[:, None]
        z = g.z_nodes()[None, :]
        f = fl.ScalarFieldRZ(g, r**2 * np.exp(-(r**2 + z**2) / width**2))
        ratios_scalar.append(est.check_scalar_sup(f).ratio)

    # evolved reference trajectory
    g = grid_for(0.1)
    snaps = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.07, 0.1, 0.15, 0.2, 0.3,
             0.4, 0.5)
    envelopes = {}
    diag_fractions = []
    for kappa in KAPPAS:
        cfg = ev.SimConfig(grid=g, rings=(fl.RingSpec(kappa, R0, 0.0, 0.1),),
                           t_end=0.5, velocity_refresh=8,
                           snapshot_times=snaps, record_every=25)
        res = ev.run(cfg)
        light = res.light_series
        env = est.decay_envelope(light, "eta_linf",
                                 est.nash_window(light.times))
        envelopes[kappa] = env
        print(f"kappa={kappa}: envelope {env:.4f} "
              f"({time.time()-t0:.0f}s)")
        if kappa == 1.0:
            for t, eta in res.snapshots[1:]:
                u = velocity_of(eta)
                *lq, sup = est.velocity_reports(eta, u, tuple(ratios_lq))
                for q, rep in zip(ratios_lq, lq):
                    ratios_lq[q].append(rep.ratio)
                ratios_sup.append(sup.ratio)
                try:
                    ratios_scalar.append(est.check_scalar_sup(eta).ratio)
                except ValueError:
                    pass
            phi = standard_test_field(cfg.rings)
            att = est.check_initial_attainment(
                {0.1: res.snapshots}, cfg.rings, phi)
            diag_fractions.append(
                att["diagonal"][0.1] / (2.0 * np.pi * kappa * R0))

    for eps in (0.2, 0.05):
        cfg = ev.SimConfig(grid=grid_for(eps),
                           rings=(fl.RingSpec(1.0, R0, 0.0, eps),),
                           t_end=0.1, velocity_refresh=8,
                           snapshot_times=(eps * eps, 0.1), record_every=25)
        res = ev.run(cfg)
        phi = standard_test_field(cfg.rings)
        att = est.check_initial_attainment(
            {eps: res.snapshots}, cfg.rings, phi)
        diag_fractions.append(att["diagonal"][eps] / (2.0 * np.pi * R0))
        print(f"eps={eps}: attainment diagonal done ({time.time()-t0:.0f}s)")

    cal = {
        "provenance": (
            "frozen by scripts/calibrate.py over the published family "
            "kappa in {1/2,1,2}, eps in {0.2,0.1,0.05}, r0=1 (initial data) "
            "plus the kappa sweep of evolved trajectories at eps=0.1, "
            "t<=0.5, dr=eps/4; headroom 1.5x over observed maxima"
        ),
        "family": {"kappa": list(KAPPAS), "eps": list(EPSS), "r0": R0},
        "velocity_lq_constant": {
            str(int(q)): round(1.5 * max(v), 6) for q, v in ratios_lq.items()
        },
        "velocity_sup_constant": round(1.5 * max(ratios_sup), 6),
        "scalar_sup_constant": round(1.5 * max(ratios_scalar), 6),
        "nash_envelope_per_kappa": round(
            1.5 * max(env / k for k, env in envelopes.items()), 6),
        "attainment_diagonal_fraction": round(
            1.5 * max(diag_fractions), 6),
        "observed": {
            "velocity_lq_max": {str(int(q)): round(max(v), 6)
                                 for q, v in ratios_lq.items()},
            "velocity_sup_max": round(max(ratios_sup), 6),
            "velocity_sup_min": round(min(ratios_sup), 6),
            "scalar_sup_max": round(max(ratios_scalar), 6),
            "nash_envelope_by_kappa": {str(k): round(v, 6)
                                        for k, v in envelopes.items()},
            "attainment_diagonal_fractions": [round(x, 6)
                                               for x in diag_fractions],
        },
    }
    out = os.path.join(os.path.dirname(__file__), "..", "src", "ringlab",
                       "data", "calibration.json")
    with open(out, "w") as fh:
        json.dump(cal, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out} ({time.time()-t0:.0f}s total)")


if __name__ == "__main__":
    main()
