import ctypes
import math
import platform
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ringlab import biot_savart as bs
from ringlab import evolve as ev
from ringlab import fields as fl


def gaussian5(grid, tau, z0=0.0):
    """Exact solution of the drift-free equation: 5d heat kernel, radial in
    the four transverse coordinates."""
    r = grid.r_nodes()[:, None]
    z = grid.z_nodes()[None, :]
    vals = (4 * np.pi * tau) ** -2.5 * np.exp(-(r**2 + (z - z0) ** 2)
                                              / (4 * tau))
    return fl.ScalarFieldRZ(grid, vals)


def zero_velocity(grid):
    return bs.VelocityFieldRZ(grid, np.zeros(grid.shape), np.zeros(grid.shape))


def diffuse(grid, eta0_values, t_end, cfl=0.45):
    """Drift-free reference integration with the public operator."""
    op = ev.StepOperator(grid, zero_velocity(grid))
    h2 = min(grid.dr**2, grid.dz**2)
    d_eff = (4.0 / grid.dr**2 + 1.0 / grid.dz**2) * h2
    dt = min(cfl * h2 / d_eff, 0.9 / op.max_rate)
    eta = eta0_values.copy()
    t = 0.0
    work = np.empty_like(eta)
    while t < t_end - 1e-14:
        d = min(dt, t_end - t)
        eta, work = op.apply(eta, d, out=work), eta
        t += d
    return eta


def plain_coefficients(grid, u):
    """(AW, AE, AN, AS, OUT) of StepOperator by the plain formulas: face
    velocities on all faces, coefficients accumulated from zero."""
    nr, nz, dr, dz = grid.nr, grid.nz, grid.dr, grid.dz
    r = grid.r_nodes()
    ur_face = 0.5 * (u.ur[:-1, :] + u.ur[1:, :])
    r_face = (r[:-1] + 0.5 * dr)[:, None]
    Tp = r_face * np.maximum(ur_face, 0.0)
    Tm = r_face * np.maximum(-ur_face, 0.0)
    uz_face = 0.5 * (u.uz[:, :-1] + u.uz[:, 1:])
    Sp = np.maximum(uz_face, 0.0)
    Sm = np.maximum(-uz_face, 0.0)
    C = grid.r_cell_measure()[:-1][:, None]
    cols = slice(1, nz)
    aW = np.zeros((nr, nz - 1))
    aE = np.zeros((nr, nz - 1))
    out = np.zeros((nr, nz - 1))
    out += Tp[:, cols] / C
    out[1:] += Tm[:-1, cols] / C[1:]
    aW[1:] = Tp[:-1, cols] / C[1:]
    aE += Tm[:, cols] / C
    out += (Sp[:-1, 1:] + Sm[:-1, :-1]) / dz
    aN = Sm[:-1, 1:] / dz
    aS = Sp[:-1, :-1] / dz
    sg = ev._step_grid(grid)
    aW += sg.dW[:, None]
    aE += sg.dE[:, None]
    aN += sg.dz2
    aS += sg.dz2
    out += sg.diff_rate[:, None]
    return aW, aE, aN, aS, out


def plain_step(coeffs, eta, dt):
    """StepOperator.apply by 2-D passes over the update block, with the
    coefficients of plain_coefficients: the reference for the flat,
    blocked step."""
    aW, aE, aN, aS, out_rate = coeffs
    center = np.maximum(1.0 - out_rate * dt, 0.0)
    inflow = np.empty_like(out_rate)
    inflow[0] = 0.0
    inflow[1:] = aW[1:] * eta[:-2, 1:-1]
    inflow += aE * eta[1:, 1:-1]
    inflow += aN * eta[:-1, 2:]
    inflow += aS * eta[:-1, :-2]
    inflow *= dt
    new = np.zeros_like(eta)
    new[:-1, 1:-1] = center * eta[:-1, 1:-1] + inflow
    return new


class TestCflDt:
    def test_zero_velocity_diffusive_bound(self):
        # d_eff = (4/dr^2 + 1/dz^2) min(dr,dz)^2 = 5 for square cells (the
        # z direction contributes; the radial coefficient alone is the 5d
        # axis value 4)
        g = fl.GridSpec(32, 32, 1.0, -0.5, 0.5)
        h = g.dr
        assert g.dz == h
        dt, term = ev.cfl_dt(ev.StepOperator(g, zero_velocity(g)))
        assert dt == pytest.approx(ev.CFL_DIFFUSE * h**2 / 5, rel=1e-12)
        assert term == "diffuse"

    def test_advective_bound_halves_with_resolution(self):
        dts = []
        for n in (32, 64):
            g = fl.GridSpec(n, n, 1.0, -0.5, 0.5)
            ur = np.zeros(g.shape)
            uz = np.full(g.shape, 1e4)  # advection dominates every bound
            op = ev.StepOperator(g, bs.VelocityFieldRZ(g, ur, uz))
            dt, term = ev.cfl_dt(op)
            assert term == "advect"
            dts.append(dt)
        assert dts[0] == pytest.approx(2 * dts[1], rel=1e-12)

    def test_large_velocity_forces_small_dt(self):
        g = fl.GridSpec(32, 32, 1.0, -0.5, 0.5)
        dts = []
        for mag in (1e3, 1e6):
            u = bs.VelocityFieldRZ(g, np.zeros(g.shape),
                                   np.full(g.shape, mag))
            dts.append(ev.cfl_dt(ev.StepOperator(g, u))[0])
        assert dts[1] < dts[0] / 500

    def test_nonfinite_velocity_rejected(self):
        g = fl.GridSpec(32, 32, 1.0, -0.5, 0.5)
        u = np.zeros(g.shape)
        u[3, 3] = np.inf
        with pytest.raises(ValueError):
            ev.StepOperator(g, bs.VelocityFieldRZ(g, u, np.zeros(g.shape)))

    @pytest.mark.parametrize("component,value", [
        ("ur", np.nan), ("ur", -np.inf),
        ("uz", np.nan), ("uz", np.inf), ("uz", -np.inf)])
    def test_nonfinite_component_rejected(self, component, value):
        g = fl.GridSpec(32, 32, 1.0, -0.5, 0.5)
        parts = {"ur": np.zeros(g.shape), "uz": np.ones(g.shape)}
        parts[component][5, 7] = value
        with pytest.raises(ValueError, match="non-finite"):
            ev.StepOperator(g, bs.VelocityFieldRZ(g, **parts))

    def test_overflowing_sup_of_finite_velocity_accepted(self):
        # |u|^2 overflows to inf, but every component is finite
        g = fl.GridSpec(32, 32, 1.0, -0.5, 0.5)
        uz = np.zeros(g.shape)
        uz[5, 7] = 1e200
        with np.errstate(over="ignore"):
            op = ev.StepOperator(g, bs.VelocityFieldRZ(g, np.zeros(g.shape),
                                                       uz))
        assert op.u_sup == math.inf


@st.composite
def step_case(draw):
    """A small grid, a nonnegative field that vanishes on the three
    Dirichlet edges, and an arbitrary finite velocity field."""
    g = fl.GridSpec(draw(st.integers(8, 12)), draw(st.integers(8, 12)),
                    draw(st.floats(0.5, 4.0)), -1.0, draw(st.floats(0.0, 2.0)))
    eta = draw(hnp.arrays(float, g.shape, elements=st.floats(0.0, 1e6)))
    eta[-1, :] = 0.0
    eta[:, 0] = 0.0
    eta[:, -1] = 0.0
    vel = st.floats(-1e6, 1e6)
    ur = draw(hnp.arrays(float, g.shape, elements=vel))
    uz = draw(hnp.arrays(float, g.shape, elements=vel))
    return g, eta, bs.VelocityFieldRZ(g, ur, uz)


class TestStep:
    def test_zero_stays_zero(self):
        g = fl.GridSpec(24, 24, 1.0, -0.5, 0.5)
        op = ev.StepOperator(g, zero_velocity(g))
        out = op.apply(np.zeros(g.shape), 1e-4)
        assert np.all(out == 0.0)

    def test_cfl_violation_rejected(self):
        g = fl.GridSpec(24, 24, 1.0, -0.5, 0.5)
        with pytest.raises(ev.CFLViolation):
            ev.StepOperator(g, zero_velocity(g)).apply(np.ones(g.shape), 1.0)

    def test_heat_kernel_oracle(self):
        # drift-free evolution of the exact 5d Gaussian stays the Gaussian
        errs = []
        for n in (60, 120):
            g = fl.GridSpec(n, 2 * n, 6.0, -6.0, 6.0)
            eta0 = gaussian5(g, 0.05)
            out = diffuse(g, eta0.values, 0.25)
            exact = gaussian5(g, 0.30)
            errs.append(np.max(np.abs(out - exact.values))
                        / np.max(exact.values))
        assert errs[-1] < 0.02
        assert errs[0] / errs[1] > 3.0  # second order in h (dt ~ h^2)

    def test_positivity_after_thousand_steps(self):
        g = fl.GridSpec(64, 64, 3.0, -1.5, 1.5)
        eta0 = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.2)])
        op = ev.StepOperator(g, zero_velocity(g))
        dt = 0.9 / op.max_rate
        eta = eta0.values.copy()
        work = np.empty_like(eta)
        for _ in range(1000):
            eta, work = op.apply(eta, dt, out=work), eta
        assert float(np.min(eta)) >= 0.0

    def test_apply_reuse_is_bitwise(self):
        # one operator stepping at dt1, dt2, dt1 (its cached center and
        # scratch reused) matches a fresh operator at each dt, bit for bit
        g = fl.GridSpec(24, 32, 2.0, -1.0, 1.0)
        rng = np.random.default_rng(3)
        eta = rng.uniform(0.0, 1.0, g.shape)
        u = bs.VelocityFieldRZ(g, rng.uniform(-5.0, 5.0, g.shape),
                               rng.uniform(-5.0, 5.0, g.shape))
        op = ev.StepOperator(g, u)
        dt1, dt2 = 0.5 / op.max_rate, 0.9 / op.max_rate
        buf = np.empty_like(eta)
        for dt in (dt1, dt2, dt1):
            fresh = ev.StepOperator(g, u).apply(eta, dt)
            np.testing.assert_array_equal(op.apply(eta, dt), fresh)
            assert op.apply(eta, dt, out=buf) is buf
            np.testing.assert_array_equal(buf, fresh)
        assert not np.array_equal(ev.StepOperator(g, u).apply(eta, dt1),
                                  ev.StepOperator(g, u).apply(eta, dt2))

    def test_build_matches_plain_formulas_bitwise(self):
        # the in-place build rounds every coefficient as the plain formulas
        # over all faces do, on a ring's velocity and on a random field
        # with exact and signed zeros
        g = fl.GridSpec(40, 64, 2.5, -1.6, 1.6)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.25)])
        omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
        ring_u = bs.velocity_from_stream(bs.solve_stream_elliptic(omega))
        rng = np.random.default_rng(11)
        ur, uz = rng.uniform(-3.0, 3.0, (2,) + g.shape)
        ur[rng.random(g.shape) < 0.2] = 0.0
        uz[rng.random(g.shape) < 0.2] = -0.0
        zero = np.zeros((g.nr, 2)).tobytes()
        for u in (ring_u, bs.VelocityFieldRZ(g, ur, uz)):
            op = ev.StepOperator(g, u)
            for got, want in zip(
                    (op._AW, op._AE, op._AN, op._AS, op.out_rate),
                    plain_coefficients(g, u)):
                rows = got.reshape(g.nr, g.nz + 1)
                assert rows[:, 1:-1].tobytes() == want.tobytes()
                assert rows[:, [0, -1]].tobytes() == zero

    @settings(max_examples=100)
    @given(case=step_case(), frac=st.floats(0.0, 1.0))
    def test_apply_is_the_plain_step_bitwise(self, case, frac):
        g, eta, u = case
        op = ev.StepOperator(g, u)
        dt = frac / op.max_rate
        want = plain_step(plain_coefficients(g, u), eta, dt)
        assert op.apply(eta, dt).tobytes() == want.tobytes()

    @pytest.mark.parametrize("nodes", [1, 7 * 41, 10**9])
    def test_block_size_changes_no_bit(self, nodes, monkeypatch):
        # one row per block, blocks of 7 rows ending in a partial one, a
        # single block
        g = fl.GridSpec(30, 40, 2.0, -1.5, 1.5)
        assert g.nr % 7 != 0
        rng = np.random.default_rng(5)
        eta = rng.uniform(0.0, 1.0, g.shape)
        u = bs.VelocityFieldRZ(g, rng.uniform(-5.0, 5.0, g.shape),
                               rng.uniform(-5.0, 5.0, g.shape))
        monkeypatch.setattr(ev, "_BLOCK_NODES", nodes)
        op = ev.StepOperator(g, u)
        dt = 0.9 / op.max_rate
        want = plain_step(plain_coefficients(g, u), eta, dt)
        assert op.apply(eta, dt).tobytes() == want.tobytes()

    def test_bad_arrays_rejected(self):
        g = fl.GridSpec(24, 24, 1.0, -0.5, 0.5)
        op = ev.StepOperator(g, zero_velocity(g))
        eta = np.zeros(g.shape)
        for out in (eta, np.zeros(g.shape, order="F"),
                    np.zeros((g.nr + 2, g.nz + 1))):
            with pytest.raises(ValueError):
                op.apply(eta, 1e-4, out=out)
        with pytest.raises(ValueError):
            op.apply(np.zeros((g.nr + 2, g.nz + 1)), 1e-4)

    @settings(max_examples=100)
    @given(case=step_case())
    def test_random_velocity_keeps_sign_and_l1(self, case):
        # at the convexity limit dt = 1/max_rate the update stays a convex
        # combination: exact nonnegativity, and L1 within the run audit's
        # 1e-12 relative slack
        g, eta, u = case
        op = ev.StepOperator(g, u)
        new = op.apply(eta, 1.0 / op.max_rate)
        assert np.min(new) >= 0.0
        l1 = fl.norm_lp_3d(fl.ScalarFieldRZ(g, eta), 1)
        assert fl.norm_lp_3d(fl.ScalarFieldRZ(g, new), 1) <= l1 * (1.0 + 1e-12)

    def test_l1_dissipation_identity(self):
        # d/dt ||eta||_1 = -4 pi int eta(0, z) dz once mass reaches the axis
        for n, tol in ((80, 0.05), (160, 0.02)):
            g = fl.GridSpec(n, n, 4.0, -2.0, 2.0)
            eta = gaussian5(g, 0.08)
            op = ev.StepOperator(g, zero_velocity(g))
            dt = 0.5 / op.max_rate
            before = fl.norm_lp_3d(eta, 1)
            after_vals = op.apply(eta.values, dt)
            after = fl.norm_lp_3d(fl.ScalarFieldRZ(g, after_vals), 1)
            rate = (after - before) / dt
            axis_flux = -4.0 * np.pi * np.sum(eta.values[0, :]) * g.dz
            assert rate == pytest.approx(axis_flux, rel=tol)


@pytest.fixture(scope="module")
def small_run():
    g = fl.GridSpec(100, 160, 5.0, -4.0, 4.0)
    cfg = ev.SimConfig(grid=g, rings=(fl.RingSpec(1.0, 1.0, 0.0, 0.2),),
                       t_end=0.1, velocity_refresh=8,
                       snapshot_times=(0.01, 0.02, 0.04, 0.07, 0.1),
                       record_every=20)
    return ev.run(cfg)


class TestRun:
    def test_audit_flags(self, small_run):
        assert small_run.audits["min_eta"] >= 0.0
        assert small_run.audits["l1_monotone"]

    def test_momentum_drift_within_one_percent(self, small_run):
        mom = small_run.diagnostics.column("momentum_z")
        assert np.max(np.abs(mom / mom[0] - 1.0)) <= 0.01

    def test_l1_nonincreasing_across_snapshots(self, small_run):
        l1 = small_run.diagnostics.column("eta_l1")
        assert np.all(np.diff(l1) <= l1[:-1] * 1e-12)

    def test_ring_rises_and_decelerates(self, small_run):
        t = small_run.light_series["t"]
        zc = small_run.light_series["centroid"]
        sel = t > 0
        assert np.all(np.diff(zc[sel]) > 0)
        # rise speed decreases in t (log-fattening of the core)
        speeds = np.diff(zc) / np.diff(t)
        third = len(speeds) // 3
        assert np.mean(speeds[:third]) > np.mean(speeds[-third:])

    def test_run_counters(self, small_run):
        c = small_run.counters
        assert c.steps == small_run.audits["steps"] > 0
        assert c.refreshes >= c.steps / 8
        assert c.edge_recomputes == math.ceil(
            c.refreshes / ev.BOUNDARY_REFRESH)
        assert c.solves == c.refreshes + c.edge_recomputes
        assert sum(c.dt_limiter.values()) == c.refreshes
        assert 0.0 < c.dt_min <= c.dt_max
        assert 0.0 < c.worst_residual <= bs.RESIDUAL_GATE
        assert 0.0 < c.worst_edge_residual <= bs.RESIDUAL_GATE
        assert min(c.apply_s, c.refresh_s, c.record_s) > 0.0

    def test_snapshot_times_hit_exactly(self, small_run):
        ts = [t for t, _ in small_run.snapshots]
        assert ts == [0.0, 0.01, 0.02, 0.04, 0.07, 0.1]

    def test_zero_t_end(self):
        g = fl.GridSpec(64, 64, 4.0, -2.0, 2.0)
        cfg = ev.SimConfig(grid=g, rings=(fl.RingSpec(1.0, 1.0, 0.0, 0.25),),
                           t_end=0.0)
        res = ev.run(cfg)
        assert len(res.snapshots) == 1
        assert res.snapshots[0][0] == 0.0

    def test_landing_on_the_cadence_refreshes_once(self, monkeypatch):
        # dt is diffusion-limited and constant here, so the landings at
        # 0.0025 and 0.005 fall on steps 8 and 16, multiples of the refresh
        # interval 4; each refresh must see a new eta
        builds = []

        class SpyOperator(ev.StepOperator):
            def __init__(self, grid, u):
                builds.append(u.uz.copy())
                super().__init__(grid, u)

        monkeypatch.setattr(ev, "StepOperator", SpyOperator)
        g = fl.GridSpec(64, 96, 4.0, -3.0, 3.0)
        cfg = ev.SimConfig(grid=g, rings=(fl.RingSpec(1.0, 1.0, 0.0, 0.25),),
                           t_end=0.02, velocity_refresh=4,
                           snapshot_times=(0.0025, 0.005, 0.01, 0.015, 0.02))
        res = ev.run(cfg)
        steps = [row["n_steps"] for row in res.diagnostics.rows]
        assert any(n % 4 == 0 for n in steps[1:-1])
        assert len(builds) == res.counters.refreshes
        assert not any(np.array_equal(a, b)
                       for a, b in zip(builds, builds[1:]))

    def test_one_step_operator_alive_at_a_time(self, monkeypatch):
        # the cadence refreshes and the landings on 0.005 and 0.01 each
        # build an operator; the one they replace must be gone by then
        alive = weakref.WeakSet()
        counts = []
        init = ev.StepOperator.__init__

        def counting_init(self, grid, u):
            init(self, grid, u)
            alive.add(self)
            counts.append(len(alive))

        monkeypatch.setattr(ev.StepOperator, "__init__", counting_init)
        g = fl.GridSpec(50, 80, 5.0, -4.0, 4.0)
        cfg = ev.SimConfig(grid=g, rings=(fl.RingSpec(1.0, 1.0, 0.0, 0.4),),
                           t_end=0.01, velocity_refresh=4,
                           snapshot_times=(0.005, 0.01))
        res = ev.run(cfg)
        assert "error" not in res.audits
        assert len(counts) == res.counters.refreshes >= 5
        assert max(counts) == 1

    def test_memory_does_not_grow_with_snapshot_count(self):
        # a sink that keeps nothing: 38 more landings must not raise the
        # peak by one grid array (the default collector keeps 38 more)
        g = fl.GridSpec(50, 80, 5.0, -4.0, 4.0)
        grid_array = 8 * (g.nr + 1) * (g.nz + 1)
        ev.run(ev.SimConfig(grid=g, rings=(fl.RingSpec(1.0, 1.0, 0.0, 0.4),),
                            t_end=0.001))       # caches and imports first
        peaks = []
        for count in (2, 40):
            cfg = ev.SimConfig(
                grid=g, rings=(fl.RingSpec(1.0, 1.0, 0.0, 0.4),), t_end=0.04,
                velocity_refresh=4,
                snapshot_times=[0.04 * (k + 1) / count for k in range(count)])
            tracemalloc.start()
            try:
                res = ev.run(cfg, on_snapshot=lambda t, f, steps: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert "error" not in res.audits
            assert len(res.diagnostics.rows) == count + 1
            assert res.snapshots == []
        assert abs(peaks[1] - peaks[0]) < grid_array

    def test_memory_counters_zero_without_resource(self, monkeypatch):
        monkeypatch.setattr(ev, "resource", None)
        g = fl.GridSpec(50, 80, 5.0, -4.0, 4.0)
        cfg = ev.SimConfig(grid=g, rings=(fl.RingSpec(1.0, 1.0, 0.0, 0.4),),
                           t_end=0.0)
        c = ev.run(cfg).counters
        assert (c.minor_faults, c.max_rss_mib) == (0, 0.0)

    def test_determinism(self):
        g = fl.GridSpec(64, 96, 4.0, -3.0, 3.0)
        cfg = ev.SimConfig(grid=g, rings=(fl.RingSpec(1.0, 1.0, 0.0, 0.25),),
                           t_end=0.02, velocity_refresh=4,
                           snapshot_times=(0.01, 0.02))
        a = ev.run(cfg)
        b = ev.run(cfg)
        for ra, rb in zip(a.diagnostics.rows, b.diagnostics.rows):
            assert ra == rb
        np.testing.assert_array_equal(a.snapshots[-1][1].values,
                                      b.snapshots[-1][1].values)


@pytest.fixture
def fresh_heap_policy():
    ev._set_heap_policy.cache_clear()
    yield
    ev._set_heap_policy.cache_clear()


def fake_libc(calls, result=1):
    """A libc stand-in whose mallopt records its calls and returns result."""
    def mallopt(param, value):
        calls.append((param, value))
        return result
    return types.SimpleNamespace(mallopt=mallopt)


@pytest.mark.usefixtures("fresh_heap_policy")
class TestHeapPolicy:
    def test_applied_once_per_process(self, monkeypatch):
        calls = []
        lib = fake_libc(calls)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
        assert ev._set_heap_policy() is True
        assert ev._set_heap_policy() is True
        assert calls == list(ev._HEAP_POLICY)
        assert lib.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert lib.mallopt.restype is ctypes.c_int

    def test_trim_threshold_not_set_alone(self, monkeypatch):
        # a libc that rejects the mmap threshold keeps its dynamic one
        calls = []
        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: fake_libc(calls, result=0))
        assert ev._set_heap_policy() is False
        assert calls == [ev._HEAP_POLICY[0]]

    def test_no_libc(self, monkeypatch):
        def missing(name):
            raise OSError("no libc")

        monkeypatch.setattr(ctypes, "CDLL", missing)
        assert ev._set_heap_policy() is False

    def test_libc_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: types.SimpleNamespace())
        assert ev._set_heap_policy() is False

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the policy is glibc's")
    def test_glibc_accepts_the_policy(self):
        assert ev._set_heap_policy() is True


class TestConfigValidation:
    def test_snapshot_times_sorted(self):
        g = fl.GridSpec(32, 32, 2.0, -1.0, 1.0)
        with pytest.raises(fl.ConfigurationError):
            ev.SimConfig(grid=g, rings=(fl.RingSpec(1, 0.5, 0, 0.2),),
                         t_end=1.0, snapshot_times=(0.5, 0.2))
        with pytest.raises(fl.ConfigurationError):
            ev.SimConfig(grid=g, rings=(fl.RingSpec(1, 0.5, 0, 0.2),),
                         t_end=1.0, snapshot_times=(2.0,))

    def test_velocity_refresh_at_least_one(self):
        g = fl.GridSpec(32, 32, 2.0, -1.0, 1.0)
        with pytest.raises(fl.ConfigurationError):
            ev.SimConfig(grid=g, rings=(fl.RingSpec(1, 0.5, 0, 0.2),),
                         t_end=1.0, velocity_refresh=0)

    def test_record_every_at_least_one(self):
        g = fl.GridSpec(32, 32, 2.0, -1.0, 1.0)
        with pytest.raises(fl.ConfigurationError):
            ev.SimConfig(grid=g, rings=(fl.RingSpec(1, 0.5, 0, 0.2),),
                         t_end=1.0, record_every=0)


class TestAbortHandling:
    def test_solver_failure_keeps_last_snapshot(self, monkeypatch):
        from ringlab import biot_savart as bsm

        calls = {"n": 0}
        orig = bsm.solve_stream_elliptic

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise bsm.SolverError("synthetic failure", 1.0)
            return orig(*args, **kwargs)

        monkeypatch.setattr(ev.bs, "solve_stream_elliptic", flaky)
        g = fl.GridSpec(64, 96, 4.0, -3.0, 3.0)
        cfg = ev.SimConfig(grid=g, rings=(fl.RingSpec(1.0, 1.0, 0.0, 0.25),),
                           t_end=0.05, velocity_refresh=2,
                           snapshot_times=(0.02, 0.05))
        res = ev.run(cfg)
        assert "error" in res.audits
        assert "synthetic failure" in res.audits["error"]
        # a last-valid-state snapshot was appended beyond t = 0
        assert res.snapshots[-1][0] > 0.0
        assert np.all(np.isfinite(res.snapshots[-1][1].values))

    def test_sink_sees_the_collected_snapshots(self, monkeypatch):
        # the same aborting run with the default collector and with a sink:
        # the sink gets each landing and the abort state, from run's own
        # two buffers, and with the step counts of the diagnostics rows
        orig = ev.bs.solve_stream_elliptic
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            # solve 9 is the landing on 0.004; abort a few steps later
            if len(calls) >= 13:
                raise ev.bs.SolverError("synthetic failure", 1.0)
            return orig(*args, **kwargs)

        monkeypatch.setattr(ev.bs, "solve_stream_elliptic", flaky)
        g = fl.GridSpec(64, 96, 4.0, -3.0, 3.0)
        cfg = ev.SimConfig(grid=g, rings=(fl.RingSpec(1.0, 1.0, 0.0, 0.25),),
                           t_end=0.05, velocity_refresh=2,
                           snapshot_times=(0.002, 0.004, 0.05))
        collected = ev.run(cfg)
        calls.clear()
        seen, buffers = [], set()

        def sink(t, f, steps):
            buffers.add(f.values.ctypes.data)
            seen.append((t, f.values.copy(), steps))

        streamed = ev.run(cfg, on_snapshot=sink)
        assert "synthetic failure" in streamed.audits["error"]
        assert streamed.snapshots == []
        assert len(seen) == len(collected.snapshots) == 4
        assert [t for t, _, _ in seen][:3] == [0.0, 0.002, 0.004]
        assert seen[-1][0] > 0.004
        for (t, values, _), (t_ref, f_ref) in zip(seen,
                                                  collected.snapshots):
            assert t == t_ref
            assert np.array_equal(values, f_ref.values)
        rows = streamed.diagnostics.rows
        assert [steps for _, _, steps in seen[:3]] == [
            row["n_steps"] for row in rows]
        assert seen[-1][2] == streamed.counters.steps
        assert len(buffers) <= 2
