import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringlab import biot_savart as bs
from ringlab import estimates as est
from ringlab import evolve as ev
from ringlab import fields as fl

from dilation import dilate_field


@pytest.fixture(scope="module")
def ring_pair():
    """A synchronized (eta, u) pair on a moderate grid."""
    g = fl.GridSpec(120, 192, 5.0, -4.0, 4.0)
    eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.2)])
    omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
    psi = bs.solve_stream_elliptic(omega)
    return eta, bs.velocity_from_stream(psi)


def dilated_pair(eta, lam=2.0):
    eta_d = dilate_field(eta, lam, scale_power=3)
    g = eta_d.grid
    omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta_d.values)
    psi = bs.solve_stream_elliptic(omega)
    return eta_d, bs.velocity_from_stream(psi)


class TestInterpolation:
    def test_p1_cauchy_schwarz(self, ring_pair):
        eta, _ = ring_pair
        rep = est.check_interpolation(eta, 1.0)
        assert rep.passed
        assert rep.ratio <= 1.0 + 1e-12

    def test_thin_ring_ratio_near_one(self):
        # both sides approach 2 pi |kappa| as eps -> 0, so the ratio -> 1
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            dr = eps / 8.0
            g = fl.GridSpec(int(3.0 / dr), int(3.0 / dr), 3.0, -1.5, 1.5)
            eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, eps)])
            ratios.append(est.check_interpolation(eta, 1.0).ratio)
        assert ratios[0] < ratios[1] < ratios[2] <= 1.0 + 1e-12
        assert ratios[2] > 0.995

    def test_zero_field_passes(self):
        g = fl.GridSpec(32, 32, 2.0, -1.0, 1.0)
        rep = est.check_interpolation(
            fl.ScalarFieldRZ(g, np.zeros(g.shape)), 1.5)
        assert rep.ratio == 0.0
        assert rep.passed

    def test_p_range_enforced(self, ring_pair):
        eta, _ = ring_pair
        for bad in (0.5, 2.5, 3.0):
            with pytest.raises(ValueError):
                est.check_interpolation(eta, bad)

    def test_all_p_pass_on_snapshots(self, ring_pair):
        eta, _ = ring_pair
        for p in (1.0, 4.0 / 3.0, 2.0):
            assert est.check_interpolation(eta, p).passed


class TestVelocityLq:
    def test_ratios_within_calibration(self, ring_pair):
        eta, u = ring_pair
        for q in (2.0, 4.0, 6.0):
            rep = est.check_velocity_lq(eta, u, q)
            assert rep.passed, (q, rep.ratio, rep.threshold)

    def test_family_spread_bounded(self):
        # q = 2 ratio varies by less than 3x over the calibration family
        ratios = []
        for kappa in (0.5, 1.0, 2.0):
            for eps in (0.2, 0.1):
                dr = eps / 4.0
                g = fl.GridSpec(int(5.0 / dr), int(8.0 / dr), 5.0, -4.0, 4.0)
                eta = fl.make_mollified_ring(
                    g, [fl.RingSpec(kappa, 1.0, 0.0, eps)])
                omega = fl.ScalarFieldRZ(
                    g, g.r_nodes()[:, None] * eta.values)
                u = bs.velocity_from_stream(
                    bs.solve_stream_elliptic(omega))
                ratios.append(est.check_velocity_lq(eta, u, 2.0).ratio)
        assert max(ratios) / min(ratios) <= 3.0

    def test_dilation_invariance(self, ring_pair):
        eta, u = ring_pair
        eta_d, u_d = dilated_pair(eta)
        for q in (2.0, 4.0, 6.0):
            r0 = est.check_velocity_lq(eta, u, q).ratio
            r1 = est.check_velocity_lq(eta_d, u_d, q).ratio
            assert r1 == pytest.approx(r0, rel=1e-10)

    def test_zero_field(self):
        g = fl.GridSpec(32, 32, 2.0, -1.0, 1.0)
        eta = fl.ScalarFieldRZ(g, np.zeros(g.shape))
        zero = np.zeros(g.shape)
        u = bs.VelocityFieldRZ(g, zero, zero.copy())
        rep = est.check_velocity_lq(eta, u, 2.0)
        assert rep.ratio == 0.0 and rep.passed

    def test_q_range(self, ring_pair):
        eta, u = ring_pair
        for bad in (1.5, 1.0, 6.5):
            with pytest.raises(ValueError):
                est.check_velocity_lq(eta, u, bad)


class TestVelocitySup:
    def test_within_calibration(self, ring_pair):
        eta, u = ring_pair
        rep = est.check_velocity_sup(eta, u)
        assert rep.passed
        assert "ur_sup" in rep.context and "uz_sup" in rep.context

    def test_dilation_invariance(self, ring_pair):
        eta, u = ring_pair
        eta_d, u_d = dilated_pair(eta)
        r0 = est.check_velocity_sup(eta, u).ratio
        r1 = est.check_velocity_sup(eta_d, u_d).ratio
        assert r1 == pytest.approx(r0, rel=1e-10)

    def test_refinement_stability(self):
        # the ratio drifts by <= 10% per grid halving
        ratios = []
        for dr in (0.05, 0.025):
            g = fl.GridSpec(int(5.0 / dr), int(8.0 / dr), 5.0, -4.0, 4.0)
            eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.2)])
            omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
            u = bs.velocity_from_stream(
                bs.solve_stream_elliptic(omega))
            ratios.append(est.check_velocity_sup(eta, u).ratio)
        assert abs(ratios[1] / ratios[0] - 1.0) <= 0.10

    def test_zero_field(self):
        g = fl.GridSpec(32, 32, 2.0, -1.0, 1.0)
        eta = fl.ScalarFieldRZ(g, np.zeros(g.shape))
        zero = np.zeros(g.shape)
        rep = est.check_velocity_sup(
            eta, bs.VelocityFieldRZ(g, zero, zero.copy()))
        assert rep.ratio == 0.0


class TestScalarSup:
    def analytic_field(self, width=1.0, n=160):
        g = fl.GridSpec(n, 2 * n, 6.0, -6.0, 6.0)
        r = g.r_nodes()[:, None]
        z = g.z_nodes()[None, :]
        vals = r**2 * np.exp(-(r**2 + z**2) / width**2)
        fr = (2 * r - 2 * r**3 / width**2) * np.exp(-(r**2 + z**2) / width**2)
        fz = -2 * z / width**2 * vals
        return fl.ScalarFieldRZ(g, vals), (fr, fz)

    def test_analytic_gradients(self):
        f, grad = self.analytic_field()
        rep = est.check_scalar_sup(f, grad)
        assert rep.passed
        assert rep.ratio > 0.0

    def test_centered_gradient_close_to_analytic(self):
        f, grad = self.analytic_field()
        rep_a = est.check_scalar_sup(f, grad)
        rep_c = est.check_scalar_sup(f)
        assert rep_c.ratio == pytest.approx(rep_a.ratio, rel=0.01)

    def test_refinement_stability(self):
        r1 = est.check_scalar_sup(*self.analytic_field(n=120)).ratio
        r2 = est.check_scalar_sup(*self.analytic_field(n=240)).ratio
        assert abs(r2 / r1 - 1.0) <= 0.10

    def test_dilation_invariance(self):
        f, _ = self.analytic_field()
        d = dilate_field(f, 2.0, scale_power=0)
        r0 = est.check_scalar_sup(f).ratio
        r1 = est.check_scalar_sup(d).ratio
        assert r1 == pytest.approx(r0, rel=1e-6)

    def test_zero_field(self):
        g = fl.GridSpec(32, 32, 2.0, -1.0, 1.0)
        rep = est.check_scalar_sup(fl.ScalarFieldRZ(g, np.zeros(g.shape)))
        assert rep.ratio == 0.0

    def test_undecayed_field_rejected(self):
        g = fl.GridSpec(32, 32, 2.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            est.check_scalar_sup(fl.ScalarFieldRZ(g, np.ones(g.shape)))


class TestFitDecay:
    def synthetic(self, power, n=40):
        t = np.geomspace(0.01, 1.0, n)
        q = 3.0 * t**power
        return {"t": t, "eta_linf": q}

    def test_recovers_power(self):
        for power in (-1.0, -1.5, -2.5):
            slope, env = est.fit_decay(self.synthetic(power), "eta_linf",
                                       (0.01, 1.0))
            assert slope == pytest.approx(power, abs=1e-9)

    def test_envelope_value(self):
        slope, env = est.fit_decay(self.synthetic(-1.5), "eta_linf",
                                   (0.01, 1.0))
        assert env == pytest.approx(3.0, rel=1e-12)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            est.fit_decay(self.synthetic(-1.0, n=5), "eta_linf", (0.01, 1.0))

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            est.fit_decay(self.synthetic(-1.0), "centroid_z", (0.01, 1.0))

    def test_decay_envelope_matches_fit_and_needs_one_sample(self):
        series = self.synthetic(-1.2)
        window = (0.02, 0.5)
        _, env = est.fit_decay(series, "eta_linf", window)
        assert est.decay_envelope(series, "eta_linf", window) == env
        few = self.synthetic(-1.2, n=5)
        with pytest.raises(ValueError):
            est.fit_decay(few, "eta_linf", (0.01, 1.0))
        # t^1.5 * 3 t^-1.2 grows in t: the last sample sets the envelope
        assert est.decay_envelope(few, "eta_linf", (0.01, 1.0)) == (
            pytest.approx(3.0, rel=1e-12))
        with pytest.raises(ValueError):
            est.decay_envelope(few, "eta_linf", (2.0, 3.0))


class TestNashEnvelopeFits:
    def test_kappa_slope_recovers_power(self):
        kappas = [0.5, 1.0, 2.0, 4.0]
        for power in (1.0, 0.8):
            envs = [0.05 * k**power for k in kappas]
            assert est.envelope_kappa_slope(kappas, envs) == pytest.approx(
                power, abs=1e-12)

    def test_spread_is_max_over_min(self):
        assert est.envelope_spread({0.1: 2.0, 0.2: 3.0, 0.05: 2.5}.values()) \
            == 1.5
        assert est.envelope_spread([0.7]) == 1.0


class TestEnvelopeFit:
    def test_covers_and_is_tight(self):
        T = np.array([0.01, 0.05, 0.1, 0.3, 0.5])
        E = 2.0 * np.sqrt(T) + 0.5 * T**0.75
        A, B = est.envelope_fit(T, E)
        assert np.all(A * np.sqrt(T) + B * T**0.75 >= E * (1 - 1e-12))
        assert A == pytest.approx(2.0, abs=1e-9)
        assert B == pytest.approx(0.5, abs=1e-9)

    def test_pure_power(self):
        T = np.array([0.1, 0.2, 0.4])
        E = 1.7 * T**0.75
        A, B = est.envelope_fit(T, E)
        assert A * np.sqrt(T[0]) + B * T[0] ** 0.75 >= E[0] * (1 - 1e-12)
        assert A + B > 0


class TestAttainment:
    def test_t0_pairing_linear_in_eps(self):
        rings = (fl.RingSpec(1.0, 1.0, 0.0, 0.1),)
        from ringlab.cli import standard_test_field

        phi = standard_test_field(rings)
        target = est.ring_pairing_target(rings, phi)
        errs = []
        for eps in (0.2, 0.1, 0.05):
            dr = eps / 8.0
            g = fl.GridSpec(int(3.0 / dr), int(4.0 / dr), 3.0, -2.0, 2.0)
            eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, eps)])
            errs.append(abs(est.pairing_against_ring(eta, phi) - target))
        for err, eps in zip(errs, (0.2, 0.1, 0.05)):
            assert err <= target * eps
        assert errs[0] > errs[1] > errs[2]

    def test_far_test_field_gives_zero_target(self):
        # phi supported away from the ring pairs to ~0
        rings = (fl.RingSpec(1.0, 1.0, 0.0, 0.1),)
        g = fl.GridSpec(160, 160, 4.0, -2.0, 2.0)
        eta = fl.make_mollified_ring(g, rings)

        def phi_far(r, z):
            q = ((r - 3.0) ** 2 + z**2) / 0.25
            out = np.zeros(np.broadcast_shapes(np.shape(r), np.shape(z)))
            inside = q < 1.0
            if np.any(inside):
                out[inside] = (np.broadcast_to(r, out.shape)[inside]
                               * np.exp(-1.0 / (1.0 - q[inside])))
            return out

        assert est.ring_pairing_target(rings, phi_far) == 0.0
        assert abs(est.pairing_against_ring(eta, phi_far)) < 1e-12

    def test_table_structure(self, small_attainment):
        res = small_attainment
        assert set(res["table"].keys()) == {0.2}
        assert 0.2 in res["diagonal"]
        A, B = res["envelopes"][0.2]
        assert A >= 0.0 and B >= 0.0


@pytest.fixture(scope="module")
def small_attainment():
    g = fl.GridSpec(100, 160, 5.0, -4.0, 4.0)
    rings = (fl.RingSpec(1.0, 1.0, 0.0, 0.2),)
    cfg = ev.SimConfig(grid=g, rings=rings, t_end=0.08, velocity_refresh=8,
                       snapshot_times=(0.02, 0.04, 0.08), record_every=20)
    res = ev.run(cfg)
    from ringlab.cli import standard_test_field

    phi = standard_test_field(rings)
    return est.check_initial_attainment({0.2: res.snapshots}, rings, phi)


class TestFarField:
    def test_probe_inside_support_rejected(self, ):
        g = fl.GridSpec(100, 160, 5.0, -4.0, 4.0)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.2)])
        with pytest.raises(ValueError):
            est.check_far_field(eta, [0.5])

    def test_zero_field(self):
        g = fl.GridSpec(32, 32, 2.0, -1.0, 1.0)
        eta = fl.ScalarFieldRZ(g, np.zeros(g.shape))
        reports = est.check_far_field(eta, [5.0])
        assert all(r.lhs == 0.0 and r.passed for r in reports)


class TestRDecay:
    def test_one_call_is_three_per_radius_calls(self):
        # a ring with a diffused tail, so that the quadrature drops sources;
        # two radii inside the grid, one beyond it
        g = fl.GridSpec(100, 160, 5.0, -4.0, 4.0)
        r = g.r_nodes()[:, None]
        z = g.z_nodes()[None, :]
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.2)])
        eta = fl.ScalarFieldRZ(g, eta.values + 1e-25 * np.exp(-r**2 - z**2))
        omega = fl.ScalarFieldRZ(g, r * eta.values)
        kept = len(bs._source_arrays(omega)[4])
        assert kept < np.count_nonzero(omega.values)
        radii = [2.0, 4.0 + 0.3 * g.dr, 8.0]
        rows = est.r_decay_report(eta, radii)
        assert [row.context for row in rows] == [{"r": rho} for rho in radii]
        for rho, row in zip(radii, rows):
            uv = bs.velocity_direct(omega,
                                    [(rho, zz) for zz in (-0.5, 0.0, 0.5)])
            umax = float(np.max(np.sqrt(uv[:, 0] ** 2 + uv[:, 1] ** 2)))
            assert row.lhs == umax * math.sqrt(rho)
        assert est.r_decay_report(eta, []) == []


@st.composite
def cored_field(draw):
    """eta on a 24x40 grid: one to three Gaussian cores of either sign."""
    g = fl.GridSpec(24, 40, 3.0, -2.5, 2.5)
    r = g.r_nodes()[:, None]
    z = g.z_nodes()[None, :]
    vals = np.zeros(g.shape)
    for _ in range(draw(st.integers(1, 3))):
        rc, zc = draw(st.floats(0.3, 2.7)), draw(st.floats(-2.0, 2.0))
        width = draw(st.floats(0.05, 0.5))
        vals += draw(st.floats(-2.0, 2.0)) * np.exp(
            -((r - rc) ** 2 + (z - zc) ** 2) / width**2)
    return fl.ScalarFieldRZ(g, vals)


def plain_interpolation(eta, p):
    """(lhs, rhs) of interpolation_lp, every sum taken for this p alone."""
    w = 2.0 * np.pi * fl.quadrature_weights(eta.grid)
    r = eta.grid.r_nodes()[:, None]
    f = r * np.abs(eta.values)
    lhs = float(np.sum(w * f**p) ** (1.0 / p))
    rhs = (float(np.sum(w * r * f)) ** 0.5
           * float(np.sum(w * np.abs(eta.values))) ** (1.0 / p - 0.5)
           * float(np.max(np.abs(eta.values))) ** (1.0 - 1.0 / p))
    return lhs, rhs


def plain_velocity_lq(eta, u, q):
    """(lhs, rhs) of velocity_lq, every sum taken for this q alone."""
    w = fl.quadrature_weights(u.grid)
    mag = np.sqrt(u.ur**2 + u.uz**2)
    lhs = float((2.0 * np.pi * np.sum(w * mag**q)) ** (1.0 / q))
    rhs = (fl.weighted_moment(eta, 2) ** 0.5
           * fl.weighted_moment(eta, 0) ** (1.0 / q - 1.0 / 6.0)
           * fl.norm_lp_3d(eta, np.inf) ** (2.0 / 3.0 - 1.0 / q))
    return lhs, rhs


def plain_velocity_sup(eta, u):
    """(lhs, rhs) of velocity_sup."""
    rhs = ((fl.weighted_moment(eta, 2) / (2.0 * np.pi)) ** 0.25
           * (fl.weighted_moment(eta, 0) / (2.0 * np.pi)) ** 0.25
           * fl.norm_lp_3d(eta, np.inf) ** 0.5)
    return bs.velocity_sup(u), rhs


def plain_speeds(eta, points):
    """max |u| over each consecutive three of the points, one
    velocity_direct call per three."""
    omega = fl.ScalarFieldRZ(eta.grid, eta.grid.r_nodes()[:, None]
                             * eta.values)
    out = []
    for k in range(0, len(points), 3):
        uv = bs.velocity_direct(omega, points[k:k + 3])
        out.append(float(np.max(np.sqrt(uv[:, 0] ** 2 + uv[:, 1] ** 2))))
    return out


def dicts(reports):
    return [rep.to_dict() for rep in reports]


class TestSharedSums:
    @settings(max_examples=30)
    @given(eta=cored_field())
    def test_shared_reports_are_the_single_ones(self, eta):
        g = eta.grid
        omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
        u = bs.velocity_from_stream(bs.solve_stream_elliptic(omega))
        ctx = {"t": 0.5}

        ps = (1.0, 4.0 / 3.0, 2.0)
        shared = est.interpolation_reports(eta, ps, context=ctx)
        assert dicts(shared) == dicts(
            [est.check_interpolation(eta, p, context=ctx) for p in ps])
        for p, rep in zip(ps, shared):
            assert (rep.lhs, rep.rhs) == plain_interpolation(eta, p)

        qs = (2.0, 4.0, 6.0)
        shared = est.velocity_reports(eta, u, qs, context=ctx)
        assert dicts(shared) == dicts(
            [est.check_velocity_lq(eta, u, q, context=ctx) for q in qs]
            + [est.check_velocity_sup(eta, u, context=ctx)])
        for q, rep in zip(qs, shared):
            assert (rep.lhs, rep.rhs) == plain_velocity_lq(eta, u, q)
        assert (shared[-1].lhs, shared[-1].rhs) == plain_velocity_sup(eta, u)
        assert shared[-1].context == {
            "t": 0.5, "ur_sup": float(np.max(np.abs(u.ur))),
            "uz_sup": float(np.max(np.abs(u.uz)))}

        probes = [2.5 * est.support_radius(eta) + 1.0]
        radii = [2.0, 4.0, 8.0]
        shared = est.direct_velocity_reports(eta, probes, radii, context=ctx)
        assert dicts(shared) == dicts(
            est.check_far_field(eta, probes, context=ctx)
            + est.r_decay_report(eta, radii))
        points = ([(rho * math.cos(a), rho * math.sin(a))
                   for rho in probes for a in (0.3, 0.785398163, 1.2)]
                  + [(r, z) for r in radii for z in (-0.5, 0.0, 0.5)])
        speeds = plain_speeds(eta, points)
        assert [rep.lhs for rep in shared] == speeds[:1] + [
            umax * math.sqrt(r) for r, umax in zip(radii, speeds[1:])]


class TestReports:
    def test_pass_iff_ratio_below_threshold(self):
        ok = est.EstimateReport("x", 1.0, 2.0, 1.0, {})
        assert ok.ratio == 0.5 and ok.passed
        bad = est.EstimateReport("x", 3.0, 2.0, 1.0, {})
        assert bad.ratio == 1.5 and not bad.passed

    def test_jsonl_roundtrip(self):
        reps = [est.EstimateReport("a", 1.0, 2.0, 1.0, {"t": 0.1}),
                est.EstimateReport("b", 0.0, 1.0, 2.0, {})]
        buf = io.StringIO()
        est.reports_to_jsonl(reps, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 2
        d = json.loads(lines[0])
        assert d["name"] == "a" and d["pass"] is True

    def test_summary_table(self):
        reps = [est.EstimateReport("a", 1.0, 2.0, 1.0, {})]
        txt = est.summary_table(reps)
        assert "a" in txt and "ok" in txt


class TestDiagnosticsSeries:
    def test_record_and_csv_roundtrip(self, tmp_path):
        g = fl.GridSpec(48, 48, 3.0, -1.5, 1.5)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.25)])
        zero = np.zeros(g.shape)
        u = bs.VelocityFieldRZ(g, zero, zero.copy())
        d = est.DiagnosticsSeries()
        d.record(0.0, eta, u, dt=1e-4, n_steps=0)
        d.record(0.5, eta, u, dt=1e-4, n_steps=100)
        path = tmp_path / "diag.csv"
        d.to_csv(path)
        back = est.DiagnosticsSeries.from_csv(path)
        assert back.rows == d.rows

    def test_times_strictly_increasing(self):
        g = fl.GridSpec(48, 48, 3.0, -1.5, 1.5)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.25)])
        zero = np.zeros(g.shape)
        u = bs.VelocityFieldRZ(g, zero, zero.copy())
        d = est.DiagnosticsSeries()
        d.record(0.1, eta, u)
        with pytest.raises(ValueError):
            d.record(0.1, eta, u)


class TestPairingSupport:
    def test_oversized_test_field_rejected(self):
        g = fl.GridSpec(64, 64, 2.0, -1.0, 1.0)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.15)])

        def phi_wide(r, z):
            return np.broadcast_to(r, np.broadcast_shapes(
                np.shape(r), np.shape(z))).astype(float)

        with pytest.raises(fl.ConfigurationError):
            est.pairing_against_ring(eta, phi_wide)

    def test_uncalibrated_q_uses_fallback_constant(self, ring_pair):
        eta, u = ring_pair
        rep = est.check_velocity_lq(eta, u, 2.5)
        cal = est.calibration()["velocity_lq_constant"]
        assert rep.threshold == max(cal.values())
