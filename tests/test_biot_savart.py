import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ringlab import biot_savart as bs
from ringlab import evolve as ev
from ringlab import fields as fl
from ringlab import kernel as kn

from dilation import dilate_field


@pytest.fixture(scope="module")
def ring_omega():
    g = fl.GridSpec(160, 256, 4.0, -3.2, 3.2)
    eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.1)])
    return fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)


@pytest.fixture(scope="module")
def thin_ring_omega():
    # eps/r0 = 0.02 needs dr <= eps/4 = 0.005 near the core
    g = fl.GridSpec(320, 320, 1.6, -0.8, 0.8)
    eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.02)])
    return fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)


def divergence_rz(u):
    """Wide-centered discrete divergence (r u_r)_r + (r u_z)_z, interior."""
    g = u.grid
    r = g.r_nodes()[:, None]
    rur = r * u.ur
    ruz = r * u.uz
    div = ((rur[2:, 1:-1] - rur[:-2, 1:-1]) / (2.0 * g.dr)
           + (ruz[1:-1, 2:] - ruz[1:-1, :-2]) / (2.0 * g.dz))
    return div


def mms_setup(n, L=3.0):
    g = fl.GridSpec(n, n, L, -L, L)
    r = g.r_nodes()[:, None]
    z = g.z_nodes()[None, :]
    gauss = np.exp(-(r**2) - z**2)
    psi_exact = r**2 * gauss
    omega = fl.ScalarFieldRZ(g, -2.0 * r * (2 * r**2 + 2 * z**2 - 5.0) * gauss)
    return g, omega, psi_exact


class TestStreamDirect:
    def test_thin_ring_matches_point_kernel(self, thin_ring_omega):
        pts = [(1.3, 0.2), (0.7, -0.4), (1.0, 0.6)]
        psi = bs.stream_direct(thin_ring_omega, pts)
        for (rb, zb), val in zip(pts, psi):
            assert val == pytest.approx(kn.kernel_g(rb, zb, 1.0, 0.0),
                                        rel=0.02)

    def test_axis_value_zero(self, ring_omega):
        psi = bs.stream_direct(ring_omega, [(0.0, 0.3), (0.0, -1.0)])
        assert np.all(psi == 0.0)

    def test_mirror_symmetry(self, ring_omega):
        up = bs.stream_direct(ring_omega, [(1.4, 0.9)])[0]
        dn = bs.stream_direct(ring_omega, [(1.4, -0.9)])[0]
        assert up == pytest.approx(dn, rel=1e-12)

    def test_on_node_evaluation_no_crash(self, ring_omega):
        # evaluation exactly on a source node uses the excluded-cell rule
        g = ring_omega.grid
        pt = (40 * g.dr, 0.0)
        val = bs.stream_direct(ring_omega, [pt])[0]
        assert np.isfinite(val)
        # on the nodes within eps of the core the log integral over the
        # left-out cell brings the quadrature to the elliptic psi: 9.6e-3
        # of max |psi| with it, 8.2e-2 without
        psi = bs.solve_stream_elliptic(ring_omega).psi
        r = g.r_nodes()[:, None]
        z = g.z_nodes()[None, :]
        ii, jj = np.nonzero((r - 1.0) ** 2 + z**2 < 0.1**2)
        pts = np.column_stack([g.r_nodes()[ii], g.z_nodes()[jj]])
        direct = bs.stream_direct(ring_omega, pts)
        gap = np.max(np.abs(direct - psi[ii, jj]))
        assert gap <= 2e-2 * np.max(np.abs(psi)), gap


class TestVelocityDirect:
    def test_symmetric_data_ur_zero_on_midplane(self, ring_omega):
        uv = bs.velocity_direct(ring_omega, [(1.6, 0.0), (0.5, 0.0)])
        assert np.all(np.abs(uv[:, 0]) < 1e-13 * np.max(np.abs(uv)))

    def test_far_field_decay_bound(self, ring_omega):
        # |u| <= sqrt(m2 m0) / (2 (|x|-R)^2) outside the support ball
        from ringlab.estimates import direct_velocity_reports

        eta = fl.ScalarFieldRZ(
            ring_omega.grid,
            np.divide(ring_omega.values,
                      ring_omega.grid.r_nodes()[:, None],
                      out=np.zeros_like(ring_omega.values),
                      where=ring_omega.grid.r_nodes()[:, None] > 0))
        reports = direct_velocity_reports(eta, [20.0], ())
        assert all(r.passed for r in reports)

    def test_monotone_decay_along_ray(self, ring_omega):
        radii = [10.0, 14.0, 20.0, 28.0, 40.0]
        pts = [(rho / math.sqrt(2), rho / math.sqrt(2)) for rho in radii]
        uv = bs.velocity_direct(ring_omega, pts)
        mags = np.sqrt(uv[:, 0] ** 2 + uv[:, 1] ** 2)
        assert np.all(np.diff(mags) < 0)

    def test_ur_from_stream_fd_oracle(self, ring_omega):
        # u_r = -(1/rb) d(psi)/d(zb) by centered differences of stream_direct
        h = 1e-4
        for rb, zb in ((1.5, 0.4), (0.8, -0.6)):
            psi_p = bs.stream_direct(ring_omega, [(rb, zb + h)])[0]
            psi_m = bs.stream_direct(ring_omega, [(rb, zb - h)])[0]
            fd = -(psi_p - psi_m) / (2 * h * rb)
            ur = bs.velocity_direct(ring_omega, [(rb, zb)])[0, 0]
            assert ur == pytest.approx(fd, rel=1e-3)

    def test_axis_point_rejected(self, ring_omega):
        with pytest.raises(ValueError):
            bs.velocity_direct(ring_omega, [(0.0, 0.5)])


class TestPointLists:
    @pytest.mark.parametrize("points", [[], np.empty((0, 2))],
                             ids=["list", "array"])
    def test_no_points(self, ring_omega, points):
        assert bs.stream_direct(ring_omega, points).shape == (0,)
        assert bs.velocity_direct(ring_omega, points).shape == (0, 2)

    def test_one_pair_is_one_point(self, ring_omega):
        pt = (1.3, 0.4)
        psi = bs.stream_direct(ring_omega, pt)
        uv = bs.velocity_direct(ring_omega, pt)
        assert psi.shape == (1,) and uv.shape == (1, 2)
        np.testing.assert_array_equal(psi, bs.stream_direct(ring_omega, [pt]))
        np.testing.assert_array_equal(uv,
                                      bs.velocity_direct(ring_omega, [pt]))


def all_sources(omega_theta):
    """Every nonzero node off the axis with its trapezoid weight, in
    row-major order: the sources of a quadrature that drops none."""
    g = omega_theta.grid
    wr = np.full(g.nr + 1, g.dr)
    wr[0] = wr[-1] = 0.5 * g.dr
    ii, jj = np.nonzero(omega_theta.values[1:])
    ii += 1
    w = omega_theta.values[ii, jj] * wr[ii] * g.z_weights()[jj]
    return ii, jj, g.r_nodes()[ii], g.z_nodes()[jj], w


def plain_direct(omega_theta, points, kernel, log_weight, log_c,
                 sources=bs._source_arrays):
    """The direct quadrature with one kernel call per point over all its
    sources: the reference for the blocked _direct_quadrature.  A point's
    cell is left out when its node is one of the sources."""
    g = omega_theta.grid
    ii, jj, r, z, w = sources(omega_theta)
    flat = (ii * (g.nz + 1) + jj).tolist()
    rows = []
    for rb, zb in points:
        cell = bs._self_cell((rb, zb), g)
        if cell is None or cell[0] * (g.nz + 1) + cell[1] not in flat:
            rows.append(np.asarray(kernel(rb, zb, r, z)) @ w)
            continue
        k = flat.index(cell[0] * (g.nz + 1) + cell[1])
        rs, zs, ws = (np.delete(a, k) for a in (r, z, w))
        rows.append(np.asarray(kernel(rb, zb, rs, zs)) @ ws
                    + omega_theta.values[cell] * log_weight(rb)
                    * bs._cell_log_integral((rb, zb), g, cell, log_c))
    return np.array(rows)


class TestDirectBlocks:
    @pytest.fixture(scope="class")
    def case(self):
        # about 800 sources, so 500 makes a partial second block
        g = fl.GridSpec(160, 160, 2.0, -1.0, 1.0)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.2)])
        omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
        inside = (1.0 + 0.3 * g.dr, 0.1 + 0.2 * g.dz)
        cell = bs._self_cell(inside, g)
        assert cell is not None and omega.values[cell] != 0.0
        off_node = (1.6, 0.71)      # in a cell where omega = 0
        cell = bs._self_cell(off_node, g)
        assert cell is not None and omega.values[cell] == 0.0
        outside = (2.5, 0.3)        # beyond r_max
        assert bs._self_cell(outside, g) is None
        on_node = (84 * g.dr, g.z_min + 76 * g.dz)
        assert omega.values[84, 76] != 0.0
        # 16 nodes at the rim of the support are too light to be sources
        kept = set(zip(*bs._source_arrays(omega)[:2]))
        dropped = sorted(set(zip(*all_sources(omega)[:2])) - kept)
        assert len(dropped) == 16
        i, j = dropped[0]
        in_dropped = (i * g.dr + 0.3 * g.dr, g.z_min + (j - 0.2) * g.dz)
        return omega, [outside, off_node, inside, on_node, in_dropped]

    @pytest.mark.parametrize("pairs", [1, 500, 10**9])
    def test_blocks_change_no_bit(self, case, pairs, monkeypatch):
        omega, pts = case
        assert 500 < len(bs._source_arrays(omega)[2]) < 1000
        want_psi = plain_direct(omega, pts, kn.kernel_g,
                                lambda rb: rb / (2.0 * np.pi), 2.0)
        want_u = plain_direct(
            omega, pts, kn.kernel_velocity,
            lambda rb: np.array([0.0, 1.0 / (4.0 * np.pi * rb)]), 1.0)
        monkeypatch.setattr(bs, "_BLOCK_PAIRS", pairs)
        assert np.array_equal(bs.stream_direct(omega, pts), want_psi)
        assert np.array_equal(bs.velocity_direct(omega, pts), want_u)


U = 2.0 ** -53       # unit roundoff of a double

# (route, kernel, log_weight, log_c) of the two direct quadratures
STREAM = (bs.stream_direct, kn.kernel_g, lambda rb: rb / (2.0 * np.pi), 2.0)
VELOCITY = (bs.velocity_direct, kn.kernel_velocity,
            lambda rb: np.array([0.0, 1.0 / (4.0 * np.pi * rb)]), 1.0)


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): a sum of n products is within
    gamma_n sum |w_j K_j| of its exact value, in any order."""
    return n * U / (1.0 - n * U)


def kernel_terms(omega_theta, point, kernel, log_weight, log_c):
    """(K, w) over every nonzero source for one point, one row of K per
    kernel component.  In the point's own cell K holds the self-cell log
    integral divided by that node's weight, the cell's term in the sum."""
    g = omega_theta.grid
    ii, jj, r, z, w = all_sources(omega_theta)
    K = np.empty(np.shape(log_weight(1.0)) + (len(w),))
    others = np.ones(len(w), dtype=bool)
    cell = bs._self_cell(point, g)
    if cell is not None:
        others = (ii != cell[0]) | (jj != cell[1])
    K[..., others] = kernel(*point, r[others], z[others])
    if not others.all():
        term = (omega_theta.values[cell] * log_weight(point[0])
                * bs._cell_log_integral(point, g, cell, log_c))
        K[..., ~others] = np.asarray(term / w[~others][0])[..., None]
    return K, w


@st.composite
def diffused_omega(draw):
    """omega on a 24x40 grid: one to three Gaussian cores plus a tail of
    random sign whose magnitudes spread log-uniformly over [1e-300, 1],
    with up to half of the tail nodes exactly zero.  The cores are narrow
    enough to fall below 1e-40 somewhere on the grid, so some nodes are
    always too light to be sources.  Values below 1e-300 are set to zero,
    so that every nonzero node has a nonzero weight (underflowed weights
    have a test of their own)."""
    g = fl.GridSpec(24, 40, 3.0, -2.5, 2.5)
    r = g.r_nodes()[:, None]
    z = g.z_nodes()[None, :]
    vals = np.zeros(g.shape)
    for _ in range(draw(st.integers(1, 3))):
        rc, zc = draw(st.floats(0.3, 2.7)), draw(st.floats(-2.0, 2.0))
        width = draw(st.floats(0.05, 0.2))
        vals += draw(st.floats(-2.0, 2.0)) * np.exp(
            -((r - rc) ** 2 + (z - zc) ** 2) / width**2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tail = (rng.choice([-1.0, 1.0], g.shape)
            * 10.0 ** rng.uniform(-300.0, 0.0, g.shape))
    tail[rng.random(g.shape) < draw(st.floats(0.0, 0.5))] = 0.0
    vals += tail
    vals[np.abs(vals) < 1e-300] = 0.0
    return fl.ScalarFieldRZ(g, vals)


class TestDroppedSources:
    @settings(max_examples=60)
    @given(omega=diffused_omega(), data=st.data())
    def test_within_rounding_of_all_sources(self, omega, data):
        g = omega.grid
        ii, jj, _, _, w = bs._source_arrays(omega)
        every = all_sources(omega)
        assert np.max(np.abs(w)) == np.max(np.abs(every[4]))
        kept = list(zip(ii.tolist(), jj.tolist()))
        dropped = sorted(set(zip(every[0].tolist(), every[1].tolist()))
                         - set(kept))
        assert dropped

        def node(cell):
            return cell[0] * g.dr, g.z_min + cell[1] * g.dz

        def in_cell(cell):
            off = st.floats(-0.45, 0.45)
            return ((cell[0] + data.draw(off)) * g.dr,
                    g.z_min + (cell[1] + data.draw(off)) * g.dz)

        pts = [node(data.draw(st.sampled_from(kept))),
               node(data.draw(st.sampled_from(dropped))),
               in_cell(data.draw(st.sampled_from(kept))),
               in_cell(data.draw(st.sampled_from(dropped))),
               (g.r_max + 2.0 * g.dr, data.draw(st.floats(-3.0, 3.0))),
               (data.draw(st.floats(0.1, 3.5)), g.z_max + 2.0 * g.dz)]
        for route, kernel, log_weight, log_c in (STREAM, VELOCITY):
            got = route(omega, pts)
            want = plain_direct(omega, pts, kernel, log_weight, log_c,
                                sources=all_sources)
            for point, a, b in zip(pts, got, want):
                K, w = kernel_terms(omega, point, kernel, log_weight, log_c)
                n = len(w)
                # the dropped weights sum to at most u S, up to the
                # rounding of S and of the threshold u S / n
                dropped_part = (U * np.sum(np.abs(w)) * (1.0 + 2.0 * gamma(n))
                                * np.max(np.abs(K), axis=-1))
                rounding = 2.0 * gamma(n + 2) * np.sum(np.abs(w * K), axis=-1)
                assert np.all(np.abs(a - b) <= dropped_part + rounding), (
                    point, a, b, dropped_part, rounding)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e308],
                             ids=["nan", "inf", "minus_inf", "sum_overflows"])
    def test_nonfinite_weights_keep_every_source(self, value):
        # dr = dz = 1, so an interior node's weight is its omega; the tail
        # of the Gaussian reaches 1e-59 at the corners
        g = fl.GridSpec(24, 40, 24.0, -20.0, 20.0)
        r = g.r_nodes()[:, None]
        z = g.z_nodes()[None, :]
        omega = fl.ScalarFieldRZ(g, np.exp(-((r - 12.0) ** 2 + z**2) / 4.0))
        assert len(bs._source_arrays(omega)[4]) < len(all_sources(omega)[4])
        # written past the field's own finiteness check; 1e308 on two
        # nodes gives finite weights whose sum overflows
        omega.values[5, 10] = omega.values[6, 10] = value
        keep = bs._source_arrays(omega)
        for a, b in zip(keep, all_sources(omega)):
            np.testing.assert_array_equal(a, b)
        pts = [(5.0, -10.0), (5.2, -9.7), (1.3, 0.4), (12.0, 0.0),
               (30.0, 3.0), (4.0, 25.0)]
        with np.errstate(all="ignore"):
            for route, kernel, log_weight, log_c in (STREAM, VELOCITY):
                np.testing.assert_array_equal(
                    route(omega, pts),
                    plain_direct(omega, pts, kernel, log_weight, log_c,
                                 sources=all_sources))

    def test_underflowed_weights_keep_every_source(self):
        # omega = 2^-1074 times dr dz = 1/64 rounds to zero weights, S = 0
        g = fl.GridSpec(24, 40, 3.0, -2.5, 2.5)
        omega = fl.ScalarFieldRZ(g, np.full(g.shape, 5e-324))
        keep = bs._source_arrays(omega)
        assert not np.any(keep[4])
        for a, b in zip(keep, all_sources(omega)):
            np.testing.assert_array_equal(a, b)
        pts = [(1.0, 0.5), (1.05, 0.52), (4.0, 0.0)]
        for route, kernel, log_weight, log_c in (STREAM, VELOCITY):
            np.testing.assert_array_equal(
                route(omega, pts),
                plain_direct(omega, pts, kernel, log_weight, log_c,
                             sources=all_sources))


def plain_operator(grid, psi):
    """The discrete elliptic operator by 2-D passes over the interior
    block: the reference for the flat passes of _apply_operator."""
    r = grid.r_nodes()
    dr = grid.dr
    i = np.arange(1, grid.nr)
    aW = r[i] / ((r[i] - 0.5 * dr) * dr * dr)
    aE = r[i] / ((r[i] + 0.5 * dr) * dr * dr)
    return (
        aW[:, None] * psi[:-2, 1:-1]
        + aE[:, None] * psi[2:, 1:-1]
        - (aW + aE)[:, None] * psi[1:-1, 1:-1]
        + (psi[1:-1, 2:] - 2.0 * psi[1:-1, 1:-1] + psi[1:-1, :-2])
        / grid.dz ** 2
    )


class TestSolveStreamElliptic:
    def test_mms_convergence_order(self):
        errs = []
        for n in (48, 96, 192):
            g, omega, psi_exact = mms_setup(n)
            sol = bs.solve_stream_elliptic(omega, boundary=psi_exact)
            errs.append(np.max(np.abs(sol.psi - psi_exact)))
        order = math.log2(errs[0] / errs[1])
        assert order > 1.9

    def test_direct_residual_at_roundoff(self):
        # the direct solve inverts exactly the operator _apply_operator applies
        g, omega, psi_exact = mms_setup(64)
        sol = bs.solve_stream_elliptic(omega, boundary=psi_exact)
        rhs_norm, res = bs._residual_norms(g, sol.psi, omega.values)
        assert rhs_norm == bs._norm(bs._assemble_rhs(g, omega.values))
        assert res <= 1e-12 * rhs_norm
        assert sol.residual == res / rhs_norm

    @pytest.mark.parametrize("nr,nz", [(8, 8), (13, 9), (64, 96)])
    def test_flat_operator_is_the_plain_one(self, nr, nz):
        g = fl.GridSpec(nr, nz, 2.0, -1.0, 1.5)
        rng = np.random.default_rng(nr)
        for psi in (rng.normal(size=g.shape),
                    rng.uniform(-1e3, 1e3, g.shape)):
            psi[rng.random(g.shape) < 0.2] = -0.0
            got = bs._apply_operator(g, psi)
            assert got.shape == (nr - 1, nz - 1)
            assert np.array_equal(got, plain_operator(g, psi))
            omega = rng.normal(size=g.shape)
            rhs = bs._assemble_rhs(g, omega)
            assert bs._residual_norms(g, psi, omega) == (
                bs._norm(rhs), bs._norm(plain_operator(g, psi) - rhs))

    def test_zero_omega_zero_boundary(self):
        g = fl.GridSpec(32, 32, 2.0, -2.0, 2.0)
        omega = fl.ScalarFieldRZ(g, np.zeros(g.shape))
        sol = bs.solve_stream_elliptic(omega, boundary=np.zeros(g.shape))
        assert np.all(sol.psi == 0.0)

    @settings(max_examples=50)
    @given(fill=hnp.arrays(float, (17, 17), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    def test_boundary_axis_and_interior_ignored(self, fill):
        g, omega, psi_exact = mms_setup(16)
        want = bs.solve_stream_elliptic(omega, boundary=psi_exact).psi
        boundary = psi_exact.copy()
        boundary[0] = fill[0]
        boundary[1:-1, 1:-1] = fill[1:-1, 1:-1]
        got = bs.solve_stream_elliptic(omega, boundary=boundary).psi
        assert got.tobytes() == want.tobytes()

    def test_boundary_shape_checked(self):
        g, omega, psi_exact = mms_setup(16)
        with pytest.raises(fl.ConfigurationError):
            bs.solve_stream_elliptic(omega, boundary=psi_exact[:, 1:])

    def test_route_cross_validation(self, ring_omega):
        # interior psi matches the direct quadrature to relative 1e-3
        sol = bs.solve_stream_elliptic(ring_omega)
        g = ring_omega.grid
        rng = np.random.default_rng(7)
        count = 0
        scale = np.max(np.abs(sol.psi))
        while count < 100:
            i = int(rng.integers(8, g.nr - 8))
            j = int(rng.integers(8, g.nz - 8))
            rb, zb = i * g.dr, g.z_min + j * g.dz
            if (rb - 1.0) ** 2 + zb**2 < 0.25:
                continue
            direct = bs.stream_direct(ring_omega, [(rb, zb)])[0]
            assert sol.psi[i, j] == pytest.approx(direct, abs=1e-3 * scale)
            count += 1

    def test_nonconvergence_raises(self, monkeypatch):
        g, omega, psi_exact = mms_setup(48)
        monkeypatch.setattr(bs, "RESIDUAL_GATE", 0.0)
        with pytest.raises(bs.SolverError):
            bs.solve_stream_elliptic(omega, boundary=psi_exact)

    def test_nonfinite_residual_fails_gate(self, monkeypatch):
        # NaN > gate is False: the gate must not let a NaN solve through
        g, omega, psi_exact = mms_setup(48)
        real = bs._solve_fft

        def nan_solve(grid, rhs_eff, out):
            real(grid, rhs_eff, out)
            out[3, 4] = np.nan

        monkeypatch.setattr(bs, "_solve_fft", nan_solve)
        with pytest.raises(bs.SolverError, match="nan"):
            bs.solve_stream_elliptic(omega, boundary=psi_exact)

    def test_norm_is_the_two_norm(self):
        # the 2-norm to rounding, also where the sum of squares overflows,
        # and inf or NaN where an entry is
        x = np.random.default_rng(3).normal(size=(199, 319))
        assert bs._norm(x) == pytest.approx(np.linalg.norm(x), rel=1e-14)
        assert bs._norm(2.0**1000 * x) == pytest.approx(
            2.0**1000 * bs._norm(x), rel=1e-14)
        assert bs._norm(np.zeros((3, 4))) == 0.0
        for bad in (np.inf, -np.inf, np.nan):
            y = x.copy()
            y[5, 7] = bad
            assert np.array_equal(bs._norm(y), abs(bad), equal_nan=True)

    def test_overflowing_norms_are_scaled(self):
        # rhs entries near 1e306: the unscaled sums of squares overflow,
        # the scaled norms do not, and no step of the solve warns
        g = fl.GridSpec(24, 40, 2.0, -1.0, 1.5)
        values = np.zeros(g.shape)
        values[8:13, 15:25] = 1e306
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = bs.solve_stream_elliptic(fl.ScalarFieldRZ(g, values),
                                           boundary=np.zeros(g.shape))
        assert np.all(np.isfinite(sol.psi))
        assert 0.0 < sol.residual <= bs.RESIDUAL_GATE
        # a power of two scales every step of the solve exactly, so only
        # the two ways of taking the norms tell the residuals apart
        small = bs.solve_stream_elliptic(
            fl.ScalarFieldRZ(g, values * 2.0**-1000),
            boundary=np.zeros(g.shape))
        assert np.array_equal(small.psi * 2.0**1000, sol.psi)
        assert sol.residual == pytest.approx(small.residual, rel=1e-12)

    def test_infinite_rhs_fails_gate(self):
        g = fl.GridSpec(24, 40, 2.0, -1.0, 1.5)
        omega = fl.ScalarFieldRZ(g, np.zeros(g.shape))
        omega.values[10, 20] = np.inf      # past ScalarFieldRZ's own check
        with np.errstate(all="ignore"), pytest.raises(bs.SolverError):
            bs.solve_stream_elliptic(omega, boundary=np.zeros(g.shape))

    def test_nonfinite_boundary_rejected(self):
        # zero omega skips the residual gate, so the edges are checked
        g = fl.GridSpec(24, 40, 2.0, -1.0, 1.5)
        omega = fl.ScalarFieldRZ(g, np.zeros(g.shape))
        for edge in ((5, -1), (-1, 7), (5, 0)):
            boundary = np.zeros(g.shape)
            boundary[edge] = np.nan
            with pytest.raises(fl.ConfigurationError, match="non-finite"):
                bs.solve_stream_elliptic(omega, boundary=boundary)
        # the axis row and the interior are not read
        boundary = np.zeros(g.shape)
        boundary[0, 7] = boundary[5, 7] = np.inf
        assert np.all(bs.solve_stream_elliptic(omega,
                                               boundary=boundary).psi == 0)

    def test_retired_method_rejected(self):
        g, omega, psi_exact = mms_setup(16)
        with pytest.raises(ValueError):
            bs.solve_stream_elliptic(omega, boundary=psi_exact, method="sor")


def plain_solve(grid, rhs_eff):
    """The direct solve with the Thomas sweeps written row by row, on fresh
    arrays: the reference for _solve_fft."""
    f = bs._grid_factors(grid)

    def neg_dst1(x):
        n = x.shape[1]
        ext = np.zeros((len(x), 2 * (n + 1)))
        ext[:, 1:n + 1] = x
        ext[:, n + 2:] = -x[:, ::-1]
        return np.fft.rfft(ext, axis=1).imag[:, 1:n + 1]

    x = neg_dst1(rhs_eff)
    x[0] /= f.denom[0]
    for i in range(1, len(x)):
        x[i] -= f.aW[i] * x[i - 1]
        x[i] /= f.denom[i]
    for i in range(len(x) - 2, -1, -1):
        x[i] -= f.cp[i] * x[i + 1]
    return neg_dst1(x) / (2.0 * grid.nz)


class TestGridCaches:
    def test_solve_after_other_grid_is_bitwise(self):
        # grid A from a cold cache, then grid B, then A from the warm cache
        bs._grid_factors.cache_clear()
        a = mms_setup(48)
        b = mms_setup(64)
        first = bs.solve_stream_elliptic(a[1], boundary=a[2]).psi
        bs.solve_stream_elliptic(b[1], boundary=b[2])
        again = bs.solve_stream_elliptic(a[1], boundary=a[2]).psi
        np.testing.assert_array_equal(first, again)

    def test_dst_scratch_alternating_grids_is_bitwise(self):
        # each solve from a cold scratch cache, then the three grids in
        # turn, so that every solve finds the scratch of another shape in
        # the cache, or none (maxsize 2)
        cases = [mms_setup(n) for n in (48, 64, 40)]
        cold = []
        for g, omega, psi_exact in cases:
            bs._dst_scratch.cache_clear()
            cold.append(
                bs.solve_stream_elliptic(omega, boundary=psi_exact).psi)
        for k in (0, 1, 0, 1, 2, 0, 2, 1):
            _, omega, psi_exact = cases[k]
            np.testing.assert_array_equal(
                bs.solve_stream_elliptic(omega, boundary=psi_exact).psi,
                cold[k])

    def test_solve_fft_is_the_plain_sweep_alternating_grids(self):
        # three shapes through the two-entry scratch cache, so that each
        # call after the first two finds its scratch evicted or another's
        cases = []
        for nr, nz in ((24, 40), (33, 20), (16, 57)):
            g = fl.GridSpec(nr, nz, 2.0, -1.0, 1.5)
            rhs = np.random.default_rng(nr).normal(size=(nr - 1, nz - 1))
            cases.append((g, rhs, plain_solve(g, rhs)))
        bs._dst_scratch.cache_clear()
        for k in (0, 1, 0, 1, 2, 0, 2, 1, 1):
            g, rhs, want = cases[k]
            out = np.full(rhs.shape, np.nan)
            bs._solve_fft(g, rhs, out)
            assert out.tobytes() == want.tobytes()

    def test_operator_in_spectrum_scratch_alternating_grids(self):
        # _apply_operator forms its blocks in the spectrum of the grid's
        # solve: after solves on another grid and on its own, it stays the
        # plain operator, and the solves stay what they were
        cases = []
        for n in (48, 40):
            g, omega, psi_exact = mms_setup(n)
            rng = np.random.default_rng(n)
            cases.append((g, omega, psi_exact, rng.normal(size=g.shape),
                          rng.normal(size=g.shape),
                          bs.solve_stream_elliptic(
                              omega, boundary=psi_exact).psi))
        bs._dst_scratch.cache_clear()
        for k in (0, 1, 0, 1, 1, 0):
            g, omega, psi_exact, psi, other, want = cases[k]
            assert bs.solve_stream_elliptic(
                omega, boundary=psi_exact).psi.tobytes() == want.tobytes()
            got = bs._apply_operator(g, psi)
            assert np.shares_memory(
                got, bs._dst_scratch(g.nr - 1, g.nz - 1).spec)
            assert got.tobytes() == plain_operator(g, psi).tobytes()
            rhs = bs._assemble_rhs(g, other)
            assert bs._residual_norms(g, psi, other) == (
                bs._norm(rhs), bs._norm(plain_operator(g, psi) - rhs))
        assert not hasattr(bs, "_operator_scratch")

    def test_cached_arrays_read_only(self):
        g = fl.GridSpec(16, 24, 2.0, -1.0, 1.0)
        f = bs._grid_factors(g)
        s = ev._step_grid(g)
        arrays = [f.aW, f.aE, f.cp, f.denom,
                  s.dW, s.dE, s.diff_rate, s.r_face, s.C]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(TypeError):
            f.aW_rows[0] = 1.0


@st.composite
def dst_block(draw):
    rows = draw(st.integers(1, 12))
    n = draw(st.integers(1, 80))
    scale = 10.0 ** draw(st.integers(-150, 150))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).standard_normal((rows, n)) * scale


class TestDst:
    @settings(max_examples=200)
    @given(x=dst_block())
    def test_matches_scipy_dst1_bitwise(self, x):
        sc = bs._dst_scratch(*x.shape)
        sc.x[...] = x
        got = bs._neg_dst1(sc)
        want = scipy.fft.dst(x, type=1, axis=1)
        # the helper returns -DST-I; negation is exact
        assert np.negative(got).tobytes() == want.tobytes()
        n = x.shape[1]
        assert not sc.ext[:, 0].any() and not sc.ext[:, n + 1].any()


class TestVelocityFromStream:
    def test_manufactured_velocity_order_two(self):
        errs = []
        for n in (48, 96):
            g, omega, psi_exact = mms_setup(n)
            sol = bs.solve_stream_elliptic(omega, boundary=psi_exact)
            u = bs.velocity_from_stream(sol)
            r = g.r_nodes()[:, None]
            z = g.z_nodes()[None, :]
            gauss = np.exp(-(r**2) - z**2)
            ur_ex = 2.0 * z * r * gauss
            uz_ex = (2.0 - 2.0 * r**2) * gauss
            errs.append(max(np.max(np.abs(u.ur - ur_ex)),
                            np.max(np.abs(u.uz - uz_ex))))
        assert math.log2(errs[0] / errs[1]) > 1.9

    def test_axis_regularity(self):
        g, omega, psi_exact = mms_setup(96)
        sol = bs.solve_stream_elliptic(omega, boundary=psi_exact)
        u = bs.velocity_from_stream(sol)
        assert np.all(u.ur[0, :] == 0.0)
        # u_z(0, z) = 2 psi(dr, z)/dr^2 approximates 2 exp(-z^2)
        z = g.z_nodes()
        np.testing.assert_allclose(u.uz[0, :], 2.0 * np.exp(-(z**2)),
                                   atol=5e-3)

    def test_discrete_divergence_vanishes(self, ring_omega):
        sol = bs.solve_stream_elliptic(ring_omega)
        u = bs.velocity_from_stream(sol)
        div = divergence_rz(u)
        scale = bs.velocity_sup(u) / min(ring_omega.grid.dr,
                                         ring_omega.grid.dz)
        assert np.max(np.abs(div)) < 1e-12 * scale

    def test_ring_rises(self, ring_omega):
        sol = bs.solve_stream_elliptic(ring_omega)
        u = bs.velocity_from_stream(sol)
        g = ring_omega.grid
        i0 = int(round(1.0 / g.dr))
        j0 = int(round(-g.z_min / g.dz))
        assert u.uz[i0, j0] > 0.0


class TestInPlace:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_out_paths_are_the_allocating_ones(self, data):
        # BoundaryOperator.apply, solve_stream_elliptic (into an array of
        # its own and into boundary itself) and velocity_from_stream write
        # into NaN-filled out arrays what they return without one, bit for
        # bit, and return out
        g = fl.GridSpec(data.draw(st.integers(8, 20)),
                        data.draw(st.integers(8, 20)),
                        data.draw(st.floats(1.0, 4.0)), -1.0,
                        data.draw(st.floats(0.0, 2.0)))
        omega = fl.ScalarFieldRZ(g, data.draw(hnp.arrays(
            float, g.shape, elements=st.floats(-1e3, 1e3))))

        def dirty():
            return np.full(g.shape, np.nan)

        op = bs.BoundaryOperator(g)
        edges = op.apply(omega)
        residual = op.residual
        out = dirty()
        assert op.apply(omega, out=out) is out
        assert out.tobytes() == edges.tobytes()
        assert op.residual == residual

        want = bs.solve_stream_elliptic(omega, boundary=edges)
        out = dirty()
        got = bs.solve_stream_elliptic(omega, boundary=edges, out=out)
        assert got.psi is out and out.tobytes() == want.psi.tobytes()
        assert got.residual == want.residual
        shared = edges.copy()
        shared[0] = np.nan
        shared[1:-1, 1:-1] = np.nan
        got = bs.solve_stream_elliptic(omega, boundary=shared, out=shared)
        assert got.psi is shared and shared.tobytes() == want.psi.tobytes()

        u = bs.velocity_from_stream(want)
        out = bs.VelocityFieldRZ(g, dirty(), dirty())
        assert bs.velocity_from_stream(want, out=out) is out
        assert out.ur.tobytes() == u.ur.tobytes()
        assert out.uz.tobytes() == u.uz.tobytes()

    @pytest.mark.parametrize("pairs", [1, 7, 10**9])
    def test_velocity_sup_blocks_change_no_bit(self, pairs, monkeypatch):
        # one node per block, blocks ending in a partial one, one block; a
        # NaN in any block is the sup
        g = fl.GridSpec(10, 12, 1.0, -0.5, 0.5)
        rng = np.random.default_rng(pairs)
        u = bs.VelocityFieldRZ(g, rng.normal(size=g.shape),
                               rng.normal(size=g.shape))
        want = float(np.sqrt(np.max(u.ur**2 + u.uz**2)))
        monkeypatch.setattr(bs, "_BLOCK_PAIRS", pairs)
        assert bs.velocity_sup(u) == want
        u.uz[7, 3] = np.nan
        assert math.isnan(bs.velocity_sup(u))


class TestRouteEquivalence:
    def test_velocity_routes_agree(self, ring_omega):
        sol = bs.solve_stream_elliptic(ring_omega)
        u = bs.velocity_from_stream(sol)
        g = ring_omega.grid
        rng = np.random.default_rng(21)
        pts, idx = [], []
        while len(pts) < 100:
            i = int(rng.integers(8, g.nr - 8))
            j = int(rng.integers(8, g.nz - 8))
            rb, zb = i * g.dr, g.z_min + j * g.dz
            if (rb - 1.0) ** 2 + zb**2 < 0.25:   # keep 5 eps off the core
                continue
            pts.append((rb, zb))
            idx.append((i, j))
        direct = bs.velocity_direct(ring_omega, pts)
        scale = float(np.max(np.sqrt(direct[:, 0] ** 2 + direct[:, 1] ** 2)))
        for (i, j), (ur_d, uz_d) in zip(idx, direct):
            assert u.ur[i, j] == pytest.approx(ur_d, abs=1e-3 * scale)
            assert u.uz[i, j] == pytest.approx(uz_d, abs=1e-3 * scale)

    def test_discrete_dilation_covariance_exact(self):
        # eta -> lam^3 eta(lam .) on the co-dilated grid gives u -> lam u
        g = fl.GridSpec(64, 64, 3.0, -1.5, 1.5)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.2)])
        omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
        lam = 2.0
        eta_d = dilate_field(eta, lam, scale_power=3)
        gd = eta_d.grid
        omega_d = fl.ScalarFieldRZ(gd, gd.r_nodes()[:, None] * eta_d.values)
        pts = [(1.3, 0.4), (0.7, -0.3)]
        pts_d = [(r / lam, z / lam) for r, z in pts]
        u = bs.velocity_direct(omega, pts)
        u_d = bs.velocity_direct(omega_d, pts_d)
        np.testing.assert_allclose(u_d, lam * u, rtol=1e-13,
                                   atol=1e-16 * np.max(np.abs(u)))


def plain_matrix(grid, z_difference="index"):
    """BoundaryOperator's matrix filled one edge row at a time, one kernel_g
    call per row: the reference for the blocked build.  z_difference
    "index" takes each pair's z difference from the node indices, as the
    build does, G(r_b, 0, r', (j' - j) dz); "coordinate" takes it from the
    node coordinates, G(r_b, z_j, r', z_j'), a second reference that
    differs from the first by rounding only."""
    g = grid
    s = g.nz + 1
    i = np.arange(1, g.nr + 1)
    j = np.arange(1, g.nz)
    rows = np.concatenate([i * s, i * s + g.nz, g.nr * s + j])
    cols = np.concatenate([i[:-1] * s, i[:-1] * s + g.nz, g.nr * s + j])
    h = np.concatenate([np.full(2 * (g.nr - 1), g.dr),
                        np.full(g.nz - 1, g.dz)])
    r = g.r_nodes()
    z = g.z_nodes()
    rs, zs, js = r[cols // s], z[cols % s], cols % s
    matrix = np.empty((len(rows), len(cols)))
    for row, node in zip(matrix, rows):
        rb, zb, jb = r[node // s], z[node % s], node % s
        on = cols == node
        off = ~on
        if z_difference == "index":
            g_off = kn.kernel_g(rb, 0.0, rs[off], (js[off] - jb) * g.dz)
        else:
            g_off = kn.kernel_g(rb, zb, rs[off], zs[off])
        row[off] = h[off] / rs[off] * g_off
        row[on] = h[on] / (2.0 * np.pi) * (
            np.log(8.0 * rb) - 2.0 - np.log(h[on] / (2.0 * np.pi)))
    return matrix


def edge_error(omega):
    """Worst relative error per edge (bottom, top, right) of
    BoundaryOperator against the direct quadrature at the edge nodes."""
    g = omega.grid
    boundary = bs.BoundaryOperator(g).apply(omega)
    r, z = np.meshgrid(g.r_nodes(), g.z_nodes(), indexing="ij")
    err = []
    for edge in (np.s_[:, 0], np.s_[:, -1], np.s_[-1, 1:-1]):
        oracle = bs.stream_direct(omega, np.column_stack([r[edge], z[edge]]))
        err.append(np.max(np.abs(boundary[edge] - oracle))
                   / np.max(np.abs(oracle)))
    return err


MATRIX_GRIDS = pytest.mark.parametrize("nr,nz,z_min,z_max", [
    (8, 12, -3.0, 3.0), (24, 40, -3.0, 3.0), (33, 57, -2.3, 1.7),
    (64, 96, -3.0, 3.0), (200, 320, -3.0, 3.0)],
    ids=["8-12", "24-40", "33-57", "64-96", "200-320"])


def assembled_matrix(op):
    """The dense edge matrix of BoundaryOperator op, assembled from its
    stored blocks by the symmetries its docstring lists: one row per edge
    node off the axis (bottom i = 1..nr, top i = 1..nr, right j =
    1..nz-1), one column per density node (bottom and top i = 1..nr-1,
    right j = 1..nz-1).  Each entry is one rounding of its scale times its
    raw G, as in plain_matrix."""
    nb, m = op._bb.shape
    n = op._br.shape[1]
    right = (op._br * op._dz_r, np.lib.stride_tricks.sliding_window_view(
        op._lags, n)[::-1])
    bottom = np.hstack([op._bb, op._bt, right[0]])
    top = np.hstack([op._bt, op._bb, right[0][:, ::-1]])
    cross = (op._br[:m] * op._dr_r[:, None]).T
    return np.vstack([bottom, top,
                      np.hstack([cross, cross[::-1], right[1]])])


def matrix_blocks(grid):
    """(bottom rows, top rows, right rows) against the right columns of
    BoundaryOperator's assembled matrix."""
    m = assembled_matrix(bs.BoundaryOperator(grid))
    nb, right = grid.nr, 2 * (grid.nr - 1)
    return m[:nb, right:], m[nb:2 * nb, right:], m[2 * nb:, right:]


class TestBoundaryOperator:
    @MATRIX_GRIDS
    def test_blocked_matrix_is_the_plain_one(self, nr, nz, z_min, z_max):
        g = fl.GridSpec(nr, nz, 4.0, z_min, z_max)
        assert np.array_equal(assembled_matrix(bs.BoundaryOperator(g)),
                              plain_matrix(g))

    @MATRIX_GRIDS
    def test_right_right_block_is_toeplitz(self, nr, nz, z_min, z_max):
        block = matrix_blocks(fl.GridSpec(nr, nz, 4.0, z_min, z_max))[2]
        for d in range(-(nz - 2), nz - 1):
            diagonal = np.diagonal(block, d)
            assert np.all(diagonal == diagonal[0]), d
        # and symmetric: lag j' - j and lag j - j' are one value
        assert np.array_equal(block, block.T)

    @MATRIX_GRIDS
    def test_top_right_block_is_bottom_right_reversed(self, nr, nz, z_min,
                                                      z_max):
        bottom, top, _ = matrix_blocks(fl.GridSpec(nr, nz, 4.0, z_min, z_max))
        assert np.array_equal(top, bottom[:, ::-1])

    @MATRIX_GRIDS
    def test_within_rounding_of_coordinate_differences(self, nr, nz, z_min,
                                                       z_max):
        g = fl.GridSpec(nr, nz, 4.0, z_min, z_max)
        got = assembled_matrix(bs.BoundaryOperator(g))
        want = plain_matrix(g, "coordinate")
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_kernel_pairs_from_the_symmetries(self, monkeypatch):
        # 104,117 kernel pairs fill the 719 x 717 = 515,523 entries
        sizes = []
        kernel_g = kn.kernel_g

        def spy(rb, zb, r, z):
            sizes.append(np.size(r))
            return kernel_g(rb, zb, r, z)

        monkeypatch.setattr(kn, "kernel_g", spy)
        op = bs.BoundaryOperator(fl.GridSpec(200, 320, 4.0, -3.0, 3.0))
        assert assembled_matrix(op).shape == (719, 717)
        assert sum(sizes) == 104117
        assert max(sizes) <= bs._BLOCK_PAIRS

    def test_build_keeps_the_blocks_only(self):
        # at 200x320 the blocks take 1.10 MiB; the dense 719 x 717 matrix
        # took 3.93 MiB
        g = fl.GridSpec(200, 320, 4.0, -3.0, 3.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op = bs.BoundaryOperator(g)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 1.25 * 2**20, (kept, op.grid)

    @pytest.mark.parametrize("pairs", [1, 500, 10**9])
    def test_block_size_changes_no_bit(self, pairs, monkeypatch):
        # one row per block, several blocks, a single block
        g = fl.GridSpec(24, 40, 2.0, -1.5, 1.5)
        monkeypatch.setattr(bs, "_BLOCK_PAIRS", pairs)
        assert np.array_equal(assembled_matrix(bs.BoundaryOperator(g)),
                              plain_matrix(g))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_apply_is_the_plain_matrix_product(self, data):
        # the edge values formed from the blocks are plain_matrix(g) @ q,
        # q the one-sided normal derivative of the zero-edge solve, to
        # rounding: the blocks sum the same products in another order.
        # omega's nonzero values are at least 1e-3 in size, so that no
        # edge value is subnormal, where relative rounding is coarser
        g = fl.GridSpec(data.draw(st.integers(8, 30)),
                        data.draw(st.integers(8, 40)),
                        data.draw(st.floats(1.0, 4.0)), -1.0,
                        data.draw(st.floats(0.0, 2.0)))
        omega = fl.ScalarFieldRZ(g, data.draw(hnp.arrays(
            float, g.shape, elements=st.integers(-10**6, 10**6))) / 1e3)
        psi = bs.solve_stream_elliptic(omega,
                                       boundary=np.zeros(g.shape)).psi
        q = np.concatenate([
            (4.0 * psi[1:-1, 1] - psi[1:-1, 2]) / (2.0 * g.dz),
            (4.0 * psi[1:-1, -2] - psi[1:-1, -3]) / (2.0 * g.dz),
            (4.0 * psi[-2, 1:-1] - psi[-3, 1:-1]) / (2.0 * g.dr)])
        edges = plain_matrix(g) @ q
        want = np.zeros(g.shape)
        want[1:, 0], want[1:, -1], want[-1, 1:-1] = np.split(
            edges, [g.nr, 2 * g.nr])
        got = bs.BoundaryOperator(g).apply(omega)
        assert np.all(got[:-1, 1:-1] == 0.0) and np.all(got[0] == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(edges))

    def test_matches_full_quadrature(self, ring_omega):
        err = edge_error(ring_omega)
        assert max(err) <= 5e-4, err

    def test_edge_error_second_order(self):
        worst = []
        for n in (64, 128):
            g = fl.GridSpec(n, n * 3 // 2, 4.0, -3.0, 3.0)
            eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.25)])
            omega = fl.ScalarFieldRZ(g, g.r_nodes()[:, None] * eta.values)
            worst.append(max(edge_error(omega)))
        order = math.log2(worst[0] / worst[1])
        assert order >= 1.8, (worst, order)

    def test_zero_vorticity_zero_boundary(self):
        g = fl.GridSpec(32, 48, 2.0, -1.5, 1.5)
        boundary = bs.BoundaryOperator(g).apply(
            fl.ScalarFieldRZ(g, np.zeros(g.shape)))
        assert boundary.shape == g.shape
        assert np.all(boundary == 0.0)
