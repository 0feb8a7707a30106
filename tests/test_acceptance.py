"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy shared simulations (baseline, halved-grid, eps sweep, kappa
sweep, drift-free controls) are module-scoped fixtures, so the whole suite
costs a handful of desk-scale runs.  Run with `pytest tests/test_acceptance.py -v -s`
to watch the per-criterion lines.
"""

import math

import numpy as np
import pytest

from ringlab import biot_savart as bs
from ringlab import estimates as est
from ringlab import evolve as ev
from ringlab import fields as fl
from ringlab import kernel as kn
from ringlab.cli import standard_test_field

from dilation import dilate_field

SNAPSHOT_TIMES = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.07, 0.1, 0.15, 0.2,
                  0.3, 0.4, 0.5)


def ring_config(kappa, eps, refine=1, refresh=8):
    dr = eps / 4.0 / refine
    g = fl.GridSpec(int(round(5.0 / dr)), int(round(8.0 / dr)),
                    5.0, -4.0, 4.0)
    return ev.SimConfig(
        grid=g,
        rings=(fl.RingSpec(kappa, 1.0, 0.0, eps),),
        t_end=0.5,
        velocity_refresh=refresh,
        snapshot_times=SNAPSHOT_TIMES,
        record_every=25,
    )


@pytest.fixture(scope="module")
def baseline_run():
    return ev.run(ring_config(1.0, 0.1))


@pytest.fixture(scope="module")
def halved_run():
    # half the mesh width; the refresh interval is kept at the same
    # physical cadence (dt scales with h^2)
    return ev.run(ring_config(1.0, 0.1, refine=2, refresh=32))


@pytest.fixture(scope="module")
def eps_runs(baseline_run):
    runs = {0.1: baseline_run}
    runs[0.2] = ev.run(ring_config(1.0, 0.2))
    runs[0.05] = ev.run(ring_config(1.0, 0.05, refresh=32))
    return runs


@pytest.fixture(scope="module")
def kappa_runs(baseline_run):
    runs = {1.0: baseline_run}
    runs[0.5] = ev.run(ring_config(0.5, 0.1))
    runs[2.0] = ev.run(ring_config(2.0, 0.1))
    return runs


def drift_free_series(grid, eta0, t_end, record_every=25):
    """Diffusion-only integration recording (t, sup) and the final field."""
    op = ev.StepOperator(grid, bs.VelocityFieldRZ(
        grid, np.zeros(grid.shape), np.zeros(grid.shape)))
    h2 = min(grid.dr**2, grid.dz**2)
    d_eff = (4.0 / grid.dr**2 + 1.0 / grid.dz**2) * h2
    dt = min(0.45 * h2 / d_eff, 1.0 / op.max_rate)
    eta = eta0.copy()
    t = 0.0
    ts, sups = [], []
    work = np.empty_like(eta)
    n = 0
    while t < t_end - 1e-14:
        d = min(dt, t_end - t)
        eta, work = op.apply(eta, d, out=work), eta
        t += d
        n += 1
        if n % record_every == 0:
            ts.append(t)
            sups.append(float(np.max(eta)))
    return np.array(ts), np.array(sups), eta


def gaussian5(grid, tau):
    r = grid.r_nodes()[:, None]
    z = grid.z_nodes()[None, :]
    return (4 * np.pi * tau) ** -2.5 * np.exp(-(r**2 + z**2) / (4 * tau))


@pytest.fixture(scope="module")
def control_gaussian():
    g = fl.GridSpec(120, 240, 6.0, -6.0, 6.0)
    tau0 = 0.02
    ts, sups, eta_end = drift_free_series(g, gaussian5(g, tau0), 2.0)
    exact = gaussian5(g, tau0 + 2.0)
    err = float(np.max(np.abs(eta_end - exact)) / np.max(exact))
    # refined run for the error-order statement of the oracle check
    g2 = fl.GridSpec(240, 480, 6.0, -6.0, 6.0)
    _, _, eta2 = drift_free_series(g2, gaussian5(g2, tau0), 0.25)
    exact2 = gaussian5(g2, tau0 + 0.25)
    err2 = float(np.max(np.abs(eta2 - exact2)) / np.max(exact2))
    g1 = fl.GridSpec(120, 240, 6.0, -6.0, 6.0)
    _, _, eta1 = drift_free_series(g1, gaussian5(g1, tau0), 0.25)
    exact1 = gaussian5(g1, tau0 + 0.25)
    err1 = float(np.max(np.abs(eta1 - exact1)) / np.max(exact1))
    return {"t": ts, "sup": sups, "tau0": tau0, "err": err,
            "err_coarse": err1, "err_fine": err2}


@pytest.fixture(scope="module")
def control_ring_early():
    g = fl.GridSpec(200, 256, 2.5, -1.6, 1.6)
    eta0 = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.05)])
    ts, sups, _ = drift_free_series(g, eta0.values, 0.1, record_every=10)
    return {"t": ts, "sup": sups}


def loglog_slope(t, q, window):
    sel = (t >= window[0]) & (t <= window[1]) & (q > 0)
    tt, qq = t[sel], q[sel]
    ntrim = max(1, len(tt) // 10)
    tt, qq = tt[ntrim:-ntrim], qq[ntrim:-ntrim]
    return float(np.polyfit(np.log(tt), np.log(qq), 1)[0])


def test_criterion_1_kernel_fidelity():
    from scipy.integrate import quad
    import mpmath as mp

    s_grid = np.geomspace(1e-4, 1e4, 200)
    F = kn.f_eval(s_grid)
    worst = 0.0
    mp.mp.dps = 25
    for sv, Fv in zip(s_grid, F):
        if sv <= 100.0:
            oracle, _ = quad(
                lambda p: math.cos(p)
                * (4.0 * math.sin(0.5 * p) ** 2 + sv) ** -0.5,
                0.0, math.pi, epsabs=1e-14, epsrel=1e-13, limit=400,
            )
        else:
            sm = mp.mpf(float(sv))
            oracle = float(mp.quad(
                lambda p: mp.cos(p) / mp.sqrt(4 * mp.sin(p / 2) ** 2 + sm),
                [0, mp.pi]))
        worst = max(worst, abs(Fv / oracle - 1.0))
    assert worst <= 1e-9, worst

    for s in (1e-3, 3e-4, 1e-4):
        two_term = 0.5 * math.log(1.0 / s) + math.log(8.0) - 2.0
        assert abs(kn.f_eval(s) - two_term) <= 2.0 * s * math.log(1.0 / s)

    ratio = 1e4**1.5 * kn.f_eval(1e4) / (math.pi / 2.0)
    assert abs(ratio - 1.0) <= 0.01
    print(f"\nACCEPTANCE 1 PASS kernel fidelity: oracle rel err {worst:.2e}, "
          f"asymptotic ratio {ratio:.5f}")


def test_criterion_2_route_equivalence():
    g = fl.GridSpec(160, 256, 4.0, -3.2, 3.2)
    eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.1)])
    omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
    u = bs.velocity_from_stream(bs.solve_stream_elliptic(omega))

    rng = np.random.default_rng(4)
    pts, idx = [], []
    while len(pts) < 100:
        i = int(rng.integers(8, g.nr - 8))
        j = int(rng.integers(8, g.nz - 8))
        rb, zb = i * g.dr, g.z_min + j * g.dz
        if (rb - 1.0) ** 2 + zb**2 < (5 * 0.1) ** 2:
            continue
        pts.append((rb, zb))
        idx.append((i, j))
    direct = bs.velocity_direct(omega, pts)
    scale = float(np.max(np.hypot(direct[:, 0], direct[:, 1])))
    worst = max(
        max(abs(u.ur[i, j] - d[0]), abs(u.uz[i, j] - d[1]))
        for (i, j), d in zip(idx, direct)
    ) / scale
    assert worst <= 1e-3, worst

    # manufactured-solution convergence of the elliptic solve
    errs = []
    for n in (48, 96):
        gg = fl.GridSpec(n, n, 3.0, -3.0, 3.0)
        r = gg.r_nodes()[:, None]
        z = gg.z_nodes()[None, :]
        gauss = np.exp(-(r**2) - z**2)
        psi_exact = r**2 * gauss
        om = fl.ScalarFieldRZ(gg,
                              -2.0 * r * (2 * r**2 + 2 * z**2 - 5.0) * gauss)
        sol = bs.solve_stream_elliptic(om, boundary=psi_exact)
        errs.append(np.max(np.abs(sol.psi - psi_exact)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.9, order
    print(f"\nACCEPTANCE 2 PASS route equivalence: worst probe diff "
          f"{worst:.2e}, MMS order {order:.2f}")


def test_criterion_3_initial_data_brackets():
    rows = []
    for eps in (0.2, 0.1, 0.05):
        dr = eps / 8.0
        g = fl.GridSpec(int(3.0 / dr), int(4.0 / dr), 3.0, -2.0, 2.0)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, eps)])
        l1 = fl.norm_lp_3d(eta, 1)
        m2 = fl.weighted_moment(eta, 2)
        slack = 1e-6
        assert math.pi * (1 - slack) <= l1 <= 3 * math.pi * (1 + slack)
        assert (math.pi / 4) * (1 - slack) <= m2 <= (27 * math.pi / 4) * (1 + slack)
        assert abs(l1 - 2 * math.pi) <= 2 * math.pi * eps
        assert abs(m2 - 2 * math.pi) <= 2 * math.pi * eps
        rows.append((eps, abs(l1 - 2 * math.pi), abs(m2 - 2 * math.pi)))
    # first-order approach: errors shrink with eps
    assert rows[0][2] > rows[1][2] > rows[2][2]
    print("\nACCEPTANCE 3 PASS initial-data brackets: "
          + ", ".join(f"eps={e}: dL1={a:.1e}, dM2={b:.1e}"
                      for e, a, b in rows))


def test_criterion_4_structure_preservation(baseline_run, halved_run):
    assert baseline_run.audits["min_eta"] >= 0.0
    assert baseline_run.audits["l1_monotone"]
    l1 = baseline_run.diagnostics.column("eta_l1")
    assert np.all(np.diff(l1) <= l1[:-1] * 1e-12)

    mom = baseline_run.diagnostics.column("momentum_z")
    drift = float(np.max(np.abs(mom / mom[0] - 1.0)))
    assert drift <= 0.01, drift

    assert halved_run.audits["min_eta"] >= 0.0
    mom_h = halved_run.diagnostics.column("momentum_z")
    drift_h = float(np.max(np.abs(mom_h / mom_h[0] - 1.0)))
    assert drift_h <= 0.005, drift_h
    print(f"\nACCEPTANCE 4 PASS structure: min eta "
          f"{baseline_run.audits['min_eta']:.1e}, momentum drift "
          f"{drift:.2e} (baseline) / {drift_h:.2e} (halved)")


def test_criterion_5_interpolation_constant_one(baseline_run):
    worst = 0.0
    for t, eta in baseline_run.snapshots:
        for rep in est.interpolation_reports(eta, (1.0, 4.0 / 3.0, 2.0)):
            worst = max(worst, rep.ratio)
    assert worst <= 1.0 + 1e-6, worst
    print(f"\nACCEPTANCE 5 PASS interpolation: max ratio {worst:.9f}")


def test_criterion_6_nash_envelope(eps_runs, kappa_runs, control_gaussian,
                                   control_ring_early):
    envs = {}
    for eps, run in eps_runs.items():
        light = run.light_series
        envs[eps] = est.decay_envelope(light, "eta_linf",
                                       est.nash_window(light.times))
    spread = est.envelope_spread(envs.values())
    assert spread <= 1.5, envs

    # p = 2 and p = 4 envelopes are finite and eps-uniform as well
    for col in ("eta_l2", "eta_l4"):
        ep = {}
        for eps, run in eps_runs.items():
            diag = run.diagnostics
            ep[eps] = est.decay_envelope(diag, col,
                                         est.nash_window(diag.times))
        assert np.all(np.isfinite(list(ep.values())))
        assert est.envelope_spread(ep.values()) <= 1.5, (col, ep)

    kenvs = {}
    for kappa, run in kappa_runs.items():
        light = run.light_series
        kenvs[kappa] = est.decay_envelope(light, "eta_linf",
                                          est.nash_window(light.times))
    ks = sorted(kenvs)
    slope = est.envelope_kappa_slope(ks, [kenvs[k] for k in ks])
    assert abs(slope - 1.0) <= 0.1, kenvs
    # linear fit C(kappa) = a kappa explains the variance (R^2 >= 0.99)
    kv = np.array(ks)
    cv = np.array([kenvs[k] for k in ks])
    a = float(np.sum(kv * cv) / np.sum(kv * kv))
    ss_res = float(np.sum((cv - a * kv) ** 2))
    ss_tot = float(np.sum((cv - cv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert r2 >= 0.99, (a, r2)

    assert control_gaussian["err"] <= 0.02, control_gaussian["err"]
    late = loglog_slope(control_gaussian["t"], control_gaussian["sup"],
                        (0.5, 2.0))
    assert abs(late - (-2.5)) <= 0.15, late
    early = loglog_slope(control_ring_early["t"], control_ring_early["sup"],
                         (0.01, 0.04))
    assert abs(early - (-1.0)) <= 0.1, early
    print(f"\nACCEPTANCE 6 PASS nash envelope: eps spread {spread:.3f}, "
          f"kappa slope {slope:.3f}, heat oracle err "
          f"{control_gaussian['err']:.2e}, slopes {early:.3f}/{late:.3f}")


def test_criterion_7_velocity_bounds(baseline_run):
    # dilation invariance at machine precision
    t, eta = baseline_run.snapshots[6]
    g = eta.grid
    omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
    u = bs.velocity_from_stream(bs.solve_stream_elliptic(omega))
    eta_d = dilate_field(eta, 2.0, scale_power=3)
    gd = eta_d.grid
    omega_d = fl.ScalarFieldRZ(gd, gd.r_nodes()[:, None] * eta_d.values)
    u_d = bs.velocity_from_stream(bs.solve_stream_elliptic(omega_d))
    # the velocity_lq reports at q = 2, 4, 6, then the velocity_sup report
    worst_inv = max(
        abs(rep_d.ratio / rep.ratio - 1.0) for rep, rep_d in zip(
            est.velocity_reports(eta, u, (2.0, 4.0, 6.0)),
            est.velocity_reports(eta_d, u_d, (2.0, 4.0, 6.0))))
    assert worst_inv <= 1e-10, worst_inv

    # refinement stability of the sup ratio on initial data
    ratios = []
    for refine in (1, 2):
        dr = 0.05 / refine
        gg = fl.GridSpec(int(5.0 / dr), int(8.0 / dr), 5.0, -4.0, 4.0)
        e0 = fl.make_mollified_ring(gg, [fl.RingSpec(1.0, 1.0, 0.0, 0.2)])
        om = fl.ScalarFieldRZ(gg, gg.r_nodes()[:, None] * e0.values)
        uu = bs.velocity_from_stream(bs.solve_stream_elliptic(om))
        ratios.append(est.velocity_reports(e0, uu, ())[0].ratio)
    stab = abs(ratios[1] / ratios[0] - 1.0)
    assert stab <= 0.10, ratios

    # far-field probes against the decay bound, slack 1e-3
    reports = est.direct_velocity_reports(eta, [20.0, 30.0], ())
    assert all(r.passed for r in reports)
    print(f"\nACCEPTANCE 7 PASS velocity bounds: dilation invariance "
          f"{worst_inv:.1e}, refinement drift {stab:.2%}, far-field margin "
          f"{max(r.ratio for r in reports):.3f}")


def test_criterion_8_weak_attainment(eps_runs):
    rings = (fl.RingSpec(1.0, 1.0, 0.0, 0.1),)
    phi = standard_test_field(rings)
    series = {}
    for eps, run in eps_runs.items():
        ring = (fl.RingSpec(1.0, 1.0, 0.0, eps),)
        series[eps] = run.snapshots
    res = est.check_initial_attainment(series, rings, phi)
    diag = res["diagonal"]
    assert diag[0.2] > diag[0.1] > diag[0.05], diag

    A, B = res["envelopes"][0.1]
    T = np.array(sorted(t for t, _ in eps_runs[0.1].snapshots if t > 0))
    E = np.array([res["table"][0.1][float(t)] for t in T])
    assert np.all(A * np.sqrt(T) + B * T**0.75 >= E * (1 - 1e-12))
    assert np.isfinite(A) and np.isfinite(B) and A >= 0 and B >= 0
    assert A + B <= 20.0 * res["target"]
    print(f"\nACCEPTANCE 8 PASS weak attainment: diagonal "
          f"{diag[0.2]:.3f} > {diag[0.1]:.3f} > {diag[0.05]:.4f}, "
          f"envelope A={A:.2f}, B={B:.2f}")
