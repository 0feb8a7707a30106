import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from ringlab import fields as fl

from dilation import dilate_field


def box_field(nr=96, nz=96):
    g = fl.GridSpec(nr, nz, 3.0, -1.0, 2.0)
    r = g.r_nodes()[:, None]
    z = g.z_nodes()[None, :]
    vals = ((r >= 1.0) & (r <= 2.0) & (z >= 0.0) & (z <= 1.0)).astype(float)
    return fl.ScalarFieldRZ(g, vals)


def smooth_field(nr=80, nz=120):
    g = fl.GridSpec(nr, nz, 4.0, -3.0, 3.0)
    r = g.r_nodes()[:, None]
    z = g.z_nodes()[None, :]
    return fl.ScalarFieldRZ(g, r**2 * np.exp(-(r**2 + z**2)))


class TestGridSpec:
    def test_nodes_and_spacing(self):
        g = fl.GridSpec(10, 20, 2.0, -1.0, 3.0)
        assert g.dr == 0.2
        assert g.dz == 0.2
        assert g.r_nodes()[0] == 0.0
        assert g.r_nodes()[-1] == 2.0
        assert g.z_nodes()[0] == -1.0
        assert g.shape == (11, 21)

    def test_validation(self):
        with pytest.raises(fl.ConfigurationError):
            fl.GridSpec(4, 20, 1.0, -1.0, 1.0)
        with pytest.raises(fl.ConfigurationError):
            fl.GridSpec(10, 20, 1.0, 2.0, 1.0)
        with pytest.raises(fl.ConfigurationError):
            fl.GridSpec(10, 20, -1.0, -1.0, 1.0)


class TestRingSpec:
    def test_eps_bound(self):
        fl.RingSpec(1.0, 1.0, 0.0, 0.49)
        with pytest.raises(fl.ConfigurationError):
            fl.RingSpec(1.0, 1.0, 0.0, 0.5)
        with pytest.raises(fl.ConfigurationError):
            fl.RingSpec(1.0, -1.0, 0.0, 0.1)


class TestMollifier:
    def test_unit_mass(self):
        # radial substitution u = |y|^2: mass = pi * c * int_0^1 e^{-1/(1-u)}
        mass, _ = quad(lambda u: np.exp(-1.0 / (1.0 - u)), 0.0, 1.0,
                       epsabs=1e-14, epsrel=1e-13)
        assert np.pi * fl.MOLLIFIER_NORM * mass == pytest.approx(1.0,
                                                                 abs=1e-10)

    def test_norm_is_the_exp1_formula_bitwise(self):
        assert fl.MOLLIFIER_NORM == float(
            1.0 / (np.pi * (np.exp(-1.0) - exp1(1.0))))

    def test_support(self):
        y = np.linspace(-2, 2, 41)
        vals = fl.mollifier_profile(y[:, None], y[None, :])
        q = y[:, None] ** 2 + y[None, :] ** 2
        assert np.all(vals[q >= 1.0] == 0.0)
        assert np.all(vals >= 0.0)
        assert vals.max() == pytest.approx(fl.MOLLIFIER_NORM * math.exp(-1))


class TestMollifiedRing:
    def test_initial_data_brackets(self):
        # pi|k| <= ||eta0||_1 <= 3 pi |k|; (pi/4)|k|r0^2 <= ||r^2 eta0||_1
        # <= (27 pi/4)|k| r0^2
        for eps_frac in (0.2, 0.1, 0.05):
            eps = eps_frac * 1.0
            dr = eps / 8.0
            g = fl.GridSpec(int(3.0 / dr), int(4.0 / dr), 3.0, -2.0, 2.0)
            eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, eps)])
            l1 = fl.norm_lp_3d(eta, 1)
            m2 = fl.weighted_moment(eta, 2)
            slack = 1e-6
            assert math.pi * (1 - slack) <= l1 <= 3 * math.pi * (1 + slack)
            assert math.pi / 4 * (1 - slack) <= m2 <= 27 * math.pi / 4 * (1 + slack)

    def test_eps_refinement_first_order(self):
        # both integrals approach 2 pi |kappa| (r0^2) at first order in eps
        errs_l1, errs_m2 = [], []
        for eps in (0.2, 0.1, 0.05):
            dr = eps / 8.0
            g = fl.GridSpec(int(3.0 / dr), int(4.0 / dr), 3.0, -2.0, 2.0)
            eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, eps)])
            errs_l1.append(abs(fl.norm_lp_3d(eta, 1) - 2 * math.pi))
            errs_m2.append(abs(fl.weighted_moment(eta, 2) - 2 * math.pi))
        for err, eps in zip(errs_l1, (0.2, 0.1, 0.05)):
            assert err <= 2 * math.pi * eps
        for err, eps in zip(errs_m2, (0.2, 0.1, 0.05)):
            assert err <= 2 * math.pi * eps
        assert errs_m2[0] > errs_m2[1] > errs_m2[2]

    def test_zero_circulation(self):
        g = fl.GridSpec(64, 64, 3.0, -2.0, 2.0)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(0.0, 1.0, 0.0, 0.3)])
        assert np.all(eta.values == 0.0)

    def test_mixed_signs_rejected(self):
        g = fl.GridSpec(64, 64, 4.0, -2.0, 2.0)
        rings = [fl.RingSpec(1.0, 1.0, -0.5, 0.25),
                 fl.RingSpec(-1.0, 1.5, 0.5, 0.25)]
        with pytest.raises(fl.ConfigurationError):
            fl.make_mollified_ring(g, rings)

    def test_multi_ring_same_sign(self):
        g = fl.GridSpec(128, 128, 4.0, -2.0, 2.0)
        rings = [fl.RingSpec(1.0, 1.0, -0.5, 0.2),
                 fl.RingSpec(0.5, 1.5, 0.5, 0.2)]
        eta = fl.make_mollified_ring(g, rings)
        assert fl.norm_lp_3d(eta, 1) == pytest.approx(2 * math.pi * 1.5,
                                                      rel=0.02)

    def test_support_overflow_rejected(self):
        g = fl.GridSpec(64, 64, 1.8, -2.0, 2.0)
        with pytest.raises(fl.ConfigurationError):
            fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.2)])

    def test_under_resolved_rejected(self):
        g = fl.GridSpec(16, 16, 4.0, -2.0, 2.0)  # dr = 0.25 > eps/4
        with pytest.raises(fl.ConfigurationError):
            fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.3)])

    @pytest.mark.parametrize("eps_over_h", [4, 8, 16])
    def test_discrete_circulation_is_kappa(self, eps_over_h):
        # the sampled bump alone carries 1.002814, 0.999702 and 1.000005
        # kappa at these eps/h
        eps = 0.2
        g = fl.GridSpec(int(3.0 * eps_over_h / eps),
                        int(4.0 * eps_over_h / eps), 3.0, -2.0, 2.0)
        w = fl.quadrature_weights(g)
        for kappa in (1.0, -2.5, 1e-3):
            eta = fl.make_mollified_ring(g, [fl.RingSpec(kappa, 1.0, 0.0,
                                                         eps)])
            assert np.sum(w * eta.values) == pytest.approx(kappa, rel=1e-14)

    def test_each_ring_scaled_on_its_own(self):
        g = fl.GridSpec(96, 96, 4.0, -2.0, 2.0)
        rings = [fl.RingSpec(1.0, 1.0, -0.5, 0.2),
                 fl.RingSpec(0.5, 1.5, 0.5, 0.25)]
        both = fl.make_mollified_ring(g, rings).values
        alone = [fl.make_mollified_ring(g, [rg]).values for rg in rings]
        np.testing.assert_array_equal(both, (0.0 + alone[0]) + alone[1])
        w = fl.quadrature_weights(g)
        for rg, vals in zip(rings, alone):
            assert np.sum(w * vals) == pytest.approx(rg.kappa, rel=1e-14)

    def test_overflowing_circulation_left_unscaled(self):
        # a finite bump whose discrete circulation, 1.0028 kappa at eps =
        # 4h, overflows: returned as sampled, with no warning
        g = fl.GridSpec(40, 50, 240.0, -150.0, 150.0)
        rg = fl.RingSpec(1.795e308, 100.0, 0.0, 24.0)
        r = g.r_nodes()[:, None]
        z = g.z_nodes()[None, :]
        raw = (rg.kappa / rg.r0) * rg.eps**-2 * fl.mollifier_profile(
            (r - rg.r0) / rg.eps, (z - rg.z0) / rg.eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta = fl.make_mollified_ring(g, [rg])
        with np.errstate(over="ignore"):
            assert np.sum(fl.quadrature_weights(g) * raw) == np.inf
        np.testing.assert_array_equal(eta.values, raw)

    def test_nonfinite_circulation_left_unscaled(self):
        # the bump overflows: it is left as sampled, so the field's own
        # finiteness check reports it, with the warnings of the sampling
        # and no other
        g = fl.GridSpec(64, 64, 3.0, -2.0, 2.0)
        rg = fl.RingSpec(1e308, 1.0, 0.0, 0.3)
        r = g.r_nodes()[:, None]
        z = g.z_nodes()[None, :]
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            raw = (rg.kappa / rg.r0) * rg.eps**-2 * fl.mollifier_profile(
                (r - rg.r0) / rg.eps, (z - rg.z0) / rg.eps)
        assert not np.all(np.isfinite(raw))
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            with pytest.raises(fl.ConfigurationError, match="non-finite"):
                fl.make_mollified_ring(g, [rg])
        assert ([str(w.message) for w in got]
                == [str(w.message) for w in want])


class TestNorms:
    def test_zero_field(self):
        g = fl.GridSpec(16, 16, 1.0, -1.0, 1.0)
        f = fl.ScalarFieldRZ(g, np.zeros(g.shape))
        for p in (1, 1.5, 2, np.inf):
            assert fl.norm_lp_3d(f, p) == 0.0

    def test_box_l1(self):
        # exact integral 2 pi int_1^2 int_0^1 r dz dr = 3 pi
        errs = []
        for n in (96, 192):
            f = box_field(n, n)
            err = abs(fl.norm_lp_3d(f, 1) - 3 * math.pi)
            h = f.grid.dr + f.grid.dz
            assert err <= 12.0 * h
            errs.append(err)
        assert errs[1] < errs[0]

    def test_p_below_one_rejected(self):
        f = box_field()
        with pytest.raises(ValueError):
            fl.norm_lp_3d(f, 0.5)

    def test_log_convexity(self):
        rng = np.random.default_rng(5)
        g = fl.GridSpec(32, 32, 2.0, -1.0, 1.0)
        for _ in range(5):
            f = fl.ScalarFieldRZ(g, rng.uniform(0, 1, g.shape))
            lhs = fl.norm_lp_3d(f, 1.5)
            rhs = fl.norm_lp_3d(f, 1) ** (1 / 3) * fl.norm_lp_3d(f, 2) ** (2 / 3)
            assert lhs <= rhs * (1 + 1e-12)

    def test_quadrature_second_order_on_smooth_fields(self):
        # norms converge at second order under simultaneous (dr,dz) halving
        vals = []
        for n in (40, 80, 160):
            f = smooth_field(n, int(1.5 * n))
            vals.append(fl.norm_lp_3d(f, 1))
        e1 = abs(vals[0] - vals[2])
        e2 = abs(vals[1] - vals[2])
        assert e1 / e2 > 3.0  # ~4 for second order


class TestMoments:
    def test_alpha_zero_is_l1(self):
        f = smooth_field()
        assert fl.weighted_moment(f, 0) == fl.norm_lp_3d(f, 1)

    def test_ring_momentum_moment(self):
        g = fl.GridSpec(200, 200, 3.0, -1.5, 1.5)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.1)])
        m2 = fl.weighted_moment(eta, 2)
        assert m2 == pytest.approx(2 * math.pi, rel=0.05)
        assert math.pi / 4 <= m2 <= 27 * math.pi / 4

    def test_unsupported_alpha(self):
        with pytest.raises(ValueError):
            fl.weighted_moment(smooth_field(), -2)

    def test_dilation_scaling_exact(self):
        # lam power of two: node values map one-to-one, ratios exact
        f = smooth_field()
        lam = 2.0
        d = dilate_field(f, lam, scale_power=2)
        for alpha in (-1, 0, 1, 2):
            got = fl.weighted_moment(d, alpha)
            want = lam ** (2 - 1 - alpha - 2) * fl.weighted_moment(f, alpha)
            assert got == want  # bitwise


class TestMomentum:
    def test_nonnegative_field_equals_moment(self):
        g = fl.GridSpec(160, 160, 3.0, -1.5, 1.5)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.1)])
        assert fl.signed_momentum_z(eta) == pytest.approx(
            fl.weighted_moment(eta, 2), rel=1e-14)

    def test_odd_perturbation_invisible(self):
        g = fl.GridSpec(160, 160, 3.0, -1.5, 1.5)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.1)])
        base = fl.signed_momentum_z(eta)
        z = g.z_nodes()[None, :]
        r = g.r_nodes()[:, None]
        odd = 0.3 * z * np.exp(-((r - 1.2) ** 2 + z**2) / 0.1)
        pert = fl.ScalarFieldRZ(g, eta.values + odd)
        # the odd part integrates to zero against the z-independent weight
        assert fl.signed_momentum_z(pert) == pytest.approx(base, abs=1e-10)

    def test_single_ring_value(self):
        g = fl.GridSpec(240, 240, 3.0, -1.5, 1.5)
        eta = fl.make_mollified_ring(g, [fl.RingSpec(1.0, 1.0, 0.0, 0.1)])
        assert fl.signed_momentum_z(eta) == pytest.approx(2 * math.pi,
                                                          rel=0.05)


class TestInterpolationInvariant:
    def test_prop_constant_one_on_random_fields(self):
        # discrete weighted interpolation with constant exactly 1 (plus
        # rounding slack) for fields vanishing on the axis row
        from ringlab.estimates import check_interpolation

        rng = np.random.default_rng(17)
        g = fl.GridSpec(48, 48, 3.0, -2.0, 2.0)
        for _ in range(8):
            vals = rng.uniform(0, 1, g.shape) * rng.uniform(
                0, 1, g.shape).round()
            vals[0, :] = 0.0
            vals[-1, :] = 0.0
            vals[:, 0] = 0.0
            vals[:, -1] = 0.0
            f = fl.ScalarFieldRZ(g, vals)
            for p in (1.0, 4.0 / 3.0, 1.5, 2.0):
                rep = check_interpolation(f, p)
                assert rep.ratio <= 1.0 + 1e-6


@st.composite
def snapshot_bytes(draw):
    """Raw bytes, or the header of a small grid followed by raw bytes or by
    float64 values (NaN and infinities included) of the expected count."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=100))
    nr, nz = draw(st.integers(8, 9)), draw(st.integers(8, 9))
    floats = st.floats(allow_nan=True, allow_infinity=True)
    extent = draw(st.one_of(st.just((1.0, -1.0, 1.0)),
                            st.tuples(floats, floats, floats)))
    n = (nr + 1) * (nz + 1)
    body = draw(st.one_of(
        st.binary(max_size=8 * n + 16),
        st.lists(floats, min_size=n, max_size=n).map(
            lambda v: struct.pack(f"<{n}d", *v))))
    return struct.pack("<qqddd", nr, nz, *extent) + body


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        f = smooth_field()
        path = tmp_path / "snap.bin"
        fl.save_field(f, path)
        back = fl.load_field(path)
        assert back.grid == f.grid
        np.testing.assert_array_equal(back.values, f.values)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(fl.SnapshotFormatError):
            fl.load_field(path)

    def test_corrupt_payload(self, tmp_path):
        f = smooth_field()
        path = tmp_path / "snap.bin"
        fl.save_field(f, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(fl.SnapshotFormatError):
            fl.load_field(path)

    @pytest.mark.parametrize("edit,size", [
        (lambda data: data[:-1], 17 * 17 * 8 - 1),
        (lambda data: data + b"\x00", 17 * 17 * 8 + 1)],
        ids=["one_byte_short", "one_byte_long"])
    def test_payload_length_off_by_one(self, tmp_path, edit, size):
        path = tmp_path / "snap.bin"
        fl.save_field(smooth_field(16, 16), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(fl.SnapshotFormatError,
                           match=f"payload is {size} bytes, expected 2312"):
            fl.load_field(path)

    def test_read_allocates_one_grid_array(self, tmp_path):
        f = smooth_field(200, 320)
        path = tmp_path / "snap.bin"
        fl.save_field(f, path)
        fl.load_field(path)     # warm caches
        tracemalloc.start()
        try:
            back = fl.load_field(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.values, f.values)
        assert peak <= 1.1 * f.values.nbytes, peak / f.values.nbytes

    def test_implausible_header(self, tmp_path):
        path = tmp_path / "bad2.bin"
        path.write_bytes(struct.pack("<qqddd", -3, 20, 1.0, -1.0, 1.0))
        with pytest.raises(fl.SnapshotFormatError):
            fl.load_field(path)

    def test_nonfinite_payload(self, tmp_path):
        f = smooth_field(16, 16)
        path = tmp_path / "snap.bin"
        fl.save_field(f, path)
        data = bytearray(path.read_bytes())
        data[-8:] = struct.pack("<d", math.nan)
        path.write_bytes(bytes(data))
        with pytest.raises(fl.SnapshotFormatError, match="snap.bin"):
            fl.load_field(path)

    @settings(max_examples=200)
    @given(data=snapshot_bytes())
    def test_arbitrary_bytes_raise_only_format_error(self, tmp_path_factory,
                                                     data):
        path = tmp_path_factory.getbasetemp() / "fuzz.bin"
        path.write_bytes(data)
        try:
            f = fl.load_field(path)
        except fl.SnapshotFormatError:
            return
        assert np.all(np.isfinite(f.values))

    def test_nonfinite_rejected(self):
        g = fl.GridSpec(16, 16, 1.0, -1.0, 1.0)
        vals = np.zeros(g.shape)
        vals[3, 3] = np.nan
        with pytest.raises(fl.ConfigurationError):
            fl.ScalarFieldRZ(g, vals)
