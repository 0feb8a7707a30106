import json
import math
from importlib import resources

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ringlab import kernel as kn


@pytest.fixture(scope="module")
def golden():
    with resources.files("ringlab.data").joinpath(
        "kernel_golden.json"
    ).open() as fh:
        return json.load(fh)


class TestFEval:
    def test_golden_values(self, golden):
        for s_txt, val in golden["F"].items():
            got = kn.f_eval(float(s_txt))
            assert got == pytest.approx(val, rel=1e-11), s_txt

    def test_small_s_two_term_series(self):
        for s in (1e-3, 3e-4, 1e-4, 1e-5):
            two_term = 0.5 * math.log(1.0 / s) + math.log(8.0) - 2.0
            assert abs(kn.f_eval(s) - two_term) <= 2.0 * s * math.log(1.0 / s)

    def test_large_s_asymptotic(self):
        s = 1e4
        assert s**1.5 * kn.f_eval(s) == pytest.approx(math.pi / 2.0, rel=0.01)

    def test_vectorized_matches_scalar(self):
        s = np.geomspace(1e-3, 1e3, 17)
        batch = kn.f_eval(s)
        singles = np.array([kn.f_eval(float(v)) for v in s])
        np.testing.assert_array_equal(batch, singles)

    def test_scipy_quad_oracle(self):
        from scipy.integrate import quad

        for s in np.geomspace(1e-4, 1e2, 25):
            oracle, _ = quad(
                lambda p: np.cos(p) * (4.0 * np.sin(p / 2) ** 2 + s) ** -0.5,
                0.0, np.pi, epsabs=1e-14, epsrel=1e-13, limit=400,
            )
            assert kn.f_eval(float(s)) == pytest.approx(oracle, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kn.f_eval(0.0)
        with pytest.raises(ValueError):
            kn.f_eval(-1.0)
        with pytest.raises(ValueError):
            kn.f_eval(np.array([1.0, -2.0]))

    def test_ultra_small_s_uses_series(self):
        s = 1e-16
        val = kn.f_eval(np.array([s]))[0]
        assert val == pytest.approx(0.5 * math.log(1 / s) + math.log(8) - 2,
                                    rel=1e-12)


class TestFDeriv:
    def test_golden_first(self, golden):
        for s_txt, val in golden["F1"].items():
            assert kn.f_deriv(float(s_txt)) == pytest.approx(val, rel=1e-11)

    def test_finite_difference_consistency(self):
        for s in (0.01, 0.3, 2.0, 40.0):
            h = 1e-6 * s
            fd = (kn.f_eval(s + h) - kn.f_eval(s - h)) / (2 * h)
            assert kn.f_deriv(s) == pytest.approx(fd, rel=1e-6)

    def test_uniform_bound_s32(self):
        # |F'(s)| s^{3/2} bounded on a log grid spanning both asymptotics
        s = np.geomspace(1e-4, 1e4, 81)
        vals = np.abs(kn.f_deriv(s)) * s**1.5
        assert np.all(np.isfinite(vals))
        assert vals.max() < 2.0


def _legendre_oracle(s):
    """(F, F') at s from mpmath's Legendre functions Q_{1/2} and Q_{-1/2}
    at chi = 1 + s/2: (chi^2 - 1) Q'_nu = nu (chi Q_nu - Q_{nu-1}) gives
    the derivative; d/ds = (1/2) d/dchi.
    30 digits absorb the cancellation of the derivative identity at large s.
    """
    with mpmath.workdps(30):
        chi = 1 + mpmath.mpf(s) / 2
        q = mpmath.legenq(0.5, 0, chi, type=3).real
        q_lower = mpmath.legenq(-0.5, 0, chi, type=3).real
        q1 = (chi * q - q_lower) / (2 * (chi * chi - 1))
        return float(q), float(q1 / 2)


# s log-uniform over [1e-10, 1e10], both branches and both asymptotic ends
log_s = st.floats(min_value=-10.0, max_value=10.0)


class TestClosedForm:
    @settings(max_examples=60)
    @given(log_s)
    def test_matches_legendre_oracle(self, x):
        s = 10.0**x
        for k, want in enumerate(_legendre_oracle(s)):
            got = kn.f_eval(s) if k == 0 else kn.f_deriv(s)
            assert got == pytest.approx(want, rel=kn.REL_TOL, abs=0.0), (s, k)

    def test_f_without_cancellation_below_split(self):
        # F = 2 K t1 / k has no cancellation as s -> S_SPLIT, where the
        # difference (2-m) K - 2E lost digits
        s = np.linspace(9.0, kn.S_SPLIT, 100, endpoint=False)
        want = np.array([_legendre_oracle(x)[0] for x in s])
        np.testing.assert_allclose(kn.f_eval(s), want, rtol=5e-15, atol=0.0)

    @settings(max_examples=60)
    @given(log_s)
    def test_derivatives_match_central_differences(self, x):
        s = 10.0**x
        h = 1e-4 * s
        fd1 = (kn.f_eval(s + h) - kn.f_eval(s - h)) / (2 * h)
        assert kn.f_deriv(s) == pytest.approx(fd1, rel=1e-6)

    @settings(max_examples=60)
    @given(st.floats(min_value=0.9, max_value=1.1))
    def test_branches_agree_around_split(self, frac):
        s = np.array([kn.S_SPLIT, frac * kn.S_SPLIT])
        for k in (0, 1):
            np.testing.assert_allclose(kn._elliptic(s, k)[0],
                                       kn._hypergeometric(s, k),
                                       rtol=kn.REL_TOL, atol=0.0)


class TestAgm:
    @pytest.mark.parametrize("p", [
        2.5e-11, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6,
        1.0 - 1e-9, 1.0])
    def test_k_and_e_match_mpmath(self, p):
        # p = 1 - m: m near 1 (the s -> 0 end of the kernel) and near 0
        m = 1.0 - p
        K, E, _ = kn._agm_ke(np.array([m]), np.array([p]))
        with mpmath.workdps(30):
            mm = 1 - mpmath.mpf(p)
            want_k = float(mpmath.ellipk(mm))
            want_e = float(mpmath.ellipe(mm))
        assert K[0] == pytest.approx(want_k, rel=kn.REL_TOL, abs=0.0)
        assert E[0] == pytest.approx(want_e, rel=kn.REL_TOL, abs=0.0)

    def test_empty_input(self):
        K, E, t1 = kn._agm_ke(np.array([]), np.array([]))
        assert K.shape == E.shape == t1.shape == (0,)


class TestEnvelopes:
    def test_f_envelope(self):
        s = np.geomspace(1e-4, 1e4, 200)
        F = kn.f_eval(s)
        env = F * np.minimum.reduce([s**0.5, s**1.5, s**0.25])
        assert np.all(np.isfinite(env))
        assert env.max() < 3.0

    def test_fprime_envelope(self):
        s = np.geomspace(1e-4, 1e4, 200)
        Fp = np.abs(kn.f_deriv(s))
        env = Fp * np.minimum.reduce([s, s**1.5, s**2.5])
        assert env.max() < 3.0

    def test_sign_structure(self):
        for s in np.geomspace(1e-6, 0.05, 12):
            assert kn.f_eval(float(s)) > 0.0
        for s in np.geomspace(50.0, 1e6, 12):
            assert kn.f_eval(float(s)) > 0.0


class TestConfig:
    """The split between the elliptic and the hypergeometric branch."""

    def test_regime_continuity_at_switch_points(self):
        s0 = kn.S_SPLIT
        lo = kn.f_eval(s0 * (1 - 1e-6))
        hi = kn.f_eval(s0 * (1 + 1e-6))
        # the hypergeometric branch at s0, the elliptic one just below
        mid = kn.f_eval(s0)
        assert abs(lo - mid) < abs(kn.f_deriv(s0)) * s0 * 2e-6 * 1.1
        assert abs(hi - mid) < abs(kn.f_deriv(s0)) * s0 * 2e-6 * 1.1


class TestKernels:
    def test_g_golden(self, golden):
        got = kn.kernel_g(1.0, 0.0, 1.0, 1.0)
        assert got == pytest.approx(golden["kernel_g_1_0_1_1"], rel=1e-11)

    def test_g_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a, c = rng.uniform(0.2, 3.0, 2)
            b, d = rng.uniform(-2.0, 2.0, 2)
            assert kn.kernel_g(a, b, c, d) == pytest.approx(
                kn.kernel_g(c, d, a, b), rel=1e-12)

    def test_g_scaling(self):
        lam = 2.0
        base = kn.kernel_g(1.3, 0.4, 0.7, -0.2)
        assert kn.kernel_g(lam * 1.3, lam * 0.4, lam * 0.7, lam * -0.2) == \
            pytest.approx(lam * base, rel=1e-12)

    def test_ur_golden(self, golden):
        got = kn.kernel_velocity(1.0, 0.0, 2.0, 1.0)[0]
        assert got == pytest.approx(golden["kernel_ur_1_0_2_1"], rel=1e-11)

    def test_ur_vanishes_on_plane(self):
        assert kn.kernel_velocity(1.5, 0.7, 0.9, 0.7)[0] == 0.0

    def test_ur_antisymmetry(self):
        for r, z in ((1.5, 0.8), (0.7, 2.0)):
            assert kn.kernel_velocity(1.0, 0.0, r, z)[0] == pytest.approx(
                -kn.kernel_velocity(1.0, 0.0, r, -z)[0], rel=1e-12)

    def test_uz_golden(self, golden):
        got = kn.kernel_velocity(1.0, 0.0, 2.0, 1.0)[1]
        assert got == pytest.approx(golden["kernel_uz_1_0_2_1"], rel=1e-11)

    def test_uz_explicit_two_term_form(self):
        # at (rb, zb) = (1, 0) the kernel reduces to the explicit expression
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = rng.uniform(0.2, 3.0)
            z = rng.uniform(-2.0, 2.0)
            xi2 = ((r - 1.0) ** 2 + z**2) / r
            explicit = ((1.0 - r) / (np.pi * np.sqrt(r)) * kn.f_deriv(xi2)
                        + np.sqrt(r) / (4.0 * np.pi)
                        * (kn.f_eval(xi2) - 2.0 * xi2 * kn.f_deriv(xi2)))
            assert kn.kernel_velocity(1.0, 0.0, r, z)[1] == pytest.approx(
                explicit, rel=1e-12)

    def test_uz_is_radial_derivative_of_g(self):
        # K_z = (1/rb) dG/drb by centered finite differences
        h = 1e-5
        for rb, zb, r, z in ((1.0, 0.0, 1.7, 0.4), (1.4, -0.3, 0.8, 0.9)):
            fd = (kn.kernel_g(rb + h, zb, r, z)
                  - kn.kernel_g(rb - h, zb, r, z)) / (2 * h * rb)
            assert kn.kernel_velocity(rb, zb, r, z)[1] == pytest.approx(
                fd, rel=1e-5)

    def test_ur_is_z_derivative_of_g(self):
        # K_r = -(1/rb) dG/dzb by centered finite differences
        h = 1e-5
        for rb, zb, r, z in ((1.0, 0.0, 1.7, 0.4), (1.4, -0.3, 0.8, 0.9)):
            fd = -(kn.kernel_g(rb, zb + h, r, z)
                   - kn.kernel_g(rb, zb - h, r, z)) / (2 * h * rb)
            assert kn.kernel_velocity(rb, zb, r, z)[0] == pytest.approx(
                fd, rel=1e-5)

    @settings(max_examples=200)
    @given(st.floats(0.05, 5.0), st.floats(-4.0, 4.0),
           st.floats(0.05, 5.0), st.floats(-4.0, 4.0))
    @example(1.0, 0.0, 1.7, 0.4)
    @example(1.4, -0.3, 0.8, 0.9)
    def test_velocity_is_derivative_of_g(self, rb, zb, r, z):
        # K_z = (1/rb) dG/drb and K_r = -(1/rb) dG/dzb, by centered
        # differences with h = 1e-5 rb, away from the log singularity
        assume(((r - rb) ** 2 + (z - zb) ** 2) / (rb * r) >= 1e-2)
        h = 1e-5 * rb
        k_r, k_z = kn.kernel_velocity(rb, zb, r, z)
        fd_z = (kn.kernel_g(rb + h, zb, r, z)
                - kn.kernel_g(rb - h, zb, r, z)) / (2 * h * rb)
        fd_r = -(kn.kernel_g(rb, zb + h, r, z)
                 - kn.kernel_g(rb, zb - h, r, z)) / (2 * h * rb)
        tol = 1e-6 * (abs(k_r) + abs(k_z))
        assert abs(fd_z - k_z) <= tol
        assert abs(fd_r - k_r) <= tol

    def test_uz_far_field_envelope(self):
        # |K_z(1,0,r,0)| d^3 / r^2 stays bounded as r grows
        r = np.linspace(4.0, 100.0, 25)
        vals = np.abs(kn.kernel_velocity(1.0, 0.0, r, np.zeros_like(r))[1])
        env = vals * np.abs(r - 1.0) ** 3 / r**2
        assert env.max() < 1.0

    def test_smoothness_second_order_fd(self):
        # off-diagonal the kernel is smooth: centered differences converge
        # at second order
        rb, zb, r, z = 1.2, 0.1, 0.8, 0.5
        exact = kn.kernel_velocity(rb, zb, r, z)[1] * rb  # dG/drb
        errs = []
        for h in (1e-2, 5e-3):
            fd = (kn.kernel_g(rb + h, zb, r, z)
                  - kn.kernel_g(rb - h, zb, r, z)) / (2 * h)
            errs.append(abs(fd - exact))
        order = math.log2(errs[0] / errs[1])
        assert order > 1.8

    def test_coincident_point_error(self):
        with pytest.raises(kn.SingularPointError):
            kn.kernel_g(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            kn.kernel_g(1.0, 0.0, -1.0, 0.5)

    @pytest.mark.parametrize("kernel", [kn.kernel_g, kn.kernel_velocity])
    def test_array_point_checks(self, kernel):
        # an array of evaluation points is checked as a scalar one is
        r = np.array([0.5, 1.0, 1.5])
        z = np.array([0.2, 0.0, -0.3])
        for rb in ([1.0, 0.0, 1.0], [1.0, -2.0, 1.0]):
            with pytest.raises(ValueError, match="r_bar > 0"):
                kernel(np.array(rb), 0.1, r, z)
        with pytest.raises(kn.SingularPointError):
            kernel(np.array([0.7, 1.0, 0.9]), np.zeros(3), r, z)
        with pytest.raises(ValueError, match="r_bar > 0"):
            kernel(np.array([0.7, 1.0, 0.9]), np.zeros(3), -r, z)

    def test_array_points_broadcast(self):
        # a block of evaluation points against the sources, one per row,
        # gives each row of the one-point calls
        rb = np.array([0.4, 1.0, 2.5])
        zb = np.array([-1.0, 0.3, 2.0])
        r = np.geomspace(0.05, 6.0, 50)
        z = np.linspace(-7.0, 7.0, 50)
        got_g = kn.kernel_g(rb[:, None], zb[:, None], r, z)
        got_v = kn.kernel_velocity(rb[:, None], zb[:, None], r, z)
        for n in range(len(rb)):
            assert np.array_equal(got_g[n], kn.kernel_g(rb[n], zb[n], r, z))
            for got, want in zip(got_v,
                                 kn.kernel_velocity(rb[n], zb[n], r, z)):
                assert np.array_equal(got[n], want)

    @settings(max_examples=200)
    @given(st.floats(0.05, 5.0), st.floats(-4.0, 4.0),
           st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-6.0, 6.0)),
                    max_size=40))
    def test_velocity_is_the_formula_of_f_and_fprime(self, rb, zb, sources):
        # sources at relative radius 1 + u and xi2 near 10^e; the two
        # fixed ones put xi2 on both sides of S_SPLIT
        u, e = np.array([(0.0, 0.0), (0.0, 2.0)] + sources).T
        r = rb * (1.0 + u)
        z = zb + np.sqrt(np.maximum(10.0**e * rb * r - (r - rb) ** 2, 0.0))
        s = ((r - rb) ** 2 + (z - zb) ** 2) / (rb * r)
        assume(np.all(s > 0.0))
        assert s.min() < kn.S_SPLIT <= s.max()
        F = kn.f_eval(s)
        Fp = kn.f_deriv(s)
        denom = np.pi * rb**1.5 * np.sqrt(r)
        k_r = (z - zb) / denom * Fp
        k_z = ((rb - r) / denom * Fp
               + (F - 2.0 * s * Fp) * np.sqrt(r) / (4.0 * np.pi * rb**1.5))
        got_r, got_z = kn.kernel_velocity(rb, zb, r, z)
        assert np.array_equal(got_r, k_r)
        assert np.array_equal(got_z, k_z)


class TestTabulate:
    def test_monotone_and_tagged(self):
        rows = kn.tabulate(1e-4, 1e4, 60)
        assert len(rows) == 60
        F = [r[1] for r in rows]
        assert all(a > b for a, b in zip(F, F[1:]))
        tags = {r[3] for r in rows}
        assert tags == {"elliptic", "hypergeometric"}
        assert all(r[4] == kn.REL_TOL * abs(r[1]) for r in rows)

    def test_single_row(self):
        rows = kn.tabulate(0.5, 17.0, 1)
        assert len(rows) == 1
        assert rows[0][0] == 0.5

    def test_bad_range(self):
        for lo, hi, count in ((-1.0, 1.0, 10), (1.0, 0.5, 10), (1.0, 2.0, 0),
                              (math.nan, 1.0, 10), (1.0, math.inf, 3),
                              (math.inf, math.inf, 1)):
            with pytest.raises(ValueError, match="finite bounds"):
                kn.tabulate(lo, hi, count)
