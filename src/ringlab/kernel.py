"""Evaluation of the axisymmetric stream-function kernel F and its derivatives.

F(s) = int_0^pi cos(phi) * (2(1-cos phi) + s)^(-1/2) dphi,   s > 0

together with the ring kernels built from it, the only place in ringlab
that writes them out:

    G(rb, zb, r, z)   = sqrt(rb*r)/(2 pi) * F(xi2)          kernel_g
    K_r(rb, zb, r, z) = (z-zb)/(pi rb^{3/2} sqrt(r)) F'(xi2)  kernel_velocity
    K_z(rb, zb, r, z) = (rb-r)/(pi rb^{3/2} sqrt(r)) F'(xi2)
                        + (F(xi2) - 2 xi2 F'(xi2)) sqrt(r)/(4 pi rb^{3/2})

with xi2 = ((r-rb)^2 + (z-zb)^2) / (rb*r).  G is the stream function at
(rb, zb) of a unit ring through (r, z); K_z = (1/rb) dG/drb and
K_r = -(1/rb) dG/dzb are its velocity.

F is the classical vortex-ring stream function.  With chi = 1 + s/2 the
integrand is cos(phi) / sqrt(2 (chi - cos phi)), so Heine's integral gives

    F(s) = Q_{1/2}(1 + s/2),

the Legendre function of the second kind (Lamb, Hydrodynamics, 6th ed.,
§161; DLMF §14.3).  It is evaluated in closed form, in two branches:

  * s < S_SPLIT: complete elliptic integrals (DLMF §19.2),

        F = (2/k - k) K(m) - (2/k) E(m),   m = k^2 = 4/(s+4),

    with the complementary parameter p = 1 - m = s/(s+4) formed from s,
    not from m, so that its digits survive as m -> 1 (s -> 0).  F' follows
    from dK/dm = (E - (1-m) K) / (2m(1-m)) and dE/dm = (E - K)/(2m).
    K and E come from the arithmetic-geometric mean (DLMF §19.8.1,
    §19.8.6): with a_0 = 1, b_0 = sqrt(p), c_0 = k and

        a_{n+1} = (a_n + b_n)/2,  b_{n+1} = sqrt(a_n b_n),
        c_{n+1} = (a_n - b_n)/2,

    K = pi / (2 a_N) and E = K (1 - (m/2 + t1)), t1 = sum_{n>=1}
    2^{n-1} c_n^2.  Then (2-m) K - 2E = 2 K t1, so F is formed as

        F = 2 K t1 / k,

    a product of positive terms with no cancellation; the difference form
    above loses digits as s -> S_SPLIT (against mpmath, 2.8e-14 relative
    near s = 9.9, where 2 K t1 / k stays within 1.8e-15).  The iteration
    stops once every c_n <= 1e-9, after applying that step.  This is safe:
    the convergence is quadratic, c_{n+1} = c_n^2 / (4 a_{n+1}), and
    a_n > pi / (2 K) > 0.1 for s >= 1e-10, so one more step would move a_N
    by less than 3e-17 relative (below one ulp) and add less than 1e-33
    to the sum.  A stricter stop (c_n = 0, or 1e-17) may never come,
    because a_n - b_n stalls at one ulp of a_n.  b_0 = sqrt(p) never needs
    1 - m, so K keeps its digits as m -> 1.
  * s >= S_SPLIT: the hypergeometric form of Q_{1/2} (DLMF §14.3),

        F = pi 2^{-5/2} chi^{-3/2} 2F1(5/4, 3/4; 2; chi^{-2}),

    summed as a fixed Horner polynomial in chi^{-2} <= 1/36 (DLMF §15.2),
    whose coefficients come from the term ratio of the series.  The
    elliptic form of F' cancels there: (2-m) E - 2pK = O(m^2).

F and F' carry at most REL_TOL relative error; the tests check this
against mpmath's Legendre functions over 1e-10 <= s <= 1e10.  All entry
points are pure functions and accept scalars or arrays.  The kernels take
both the evaluation point (rb, zb) and the source (r, z) as scalars or
arrays that broadcast against each other, so a caller can hand over a whole
block of pairs in one call.  kernel_velocity runs one AGM per point for F
and F' together.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "SingularPointError",
    "S_SPLIT",
    "REL_TOL",
    "f_eval",
    "f_deriv",
    "kernel_g",
    "kernel_velocity",
    "tabulate",
]

S_SPLIT = 10.0      # elliptic below, hypergeometric at and above
REL_TOL = 1e-13     # relative error bound of F and F'
_N_TERMS = 12       # chi^{-2} <= 1/36: the first dropped term is < 3e-18
                    # of the leading one, for k = 0, 1
_AGM_STOP = 1e-9    # the AGM stops after the step that brings every c_n here


class SingularPointError(ValueError):
    """Kernel requested at a coincident source/evaluation point."""


def _series_coefficients(n_terms):
    """Horner coefficients (highest power first) of the k-th s-derivative
    series, k = 0, 1:  F^(k)(s) = (-1/2)^k pi 2^{-5/2} chi^{-3/2-k}
    sum_n a_n (3/2 + 2n)_k chi^{-2n}, with a_n the 2F1(5/4, 3/4; 2; .)
    coefficients and (x)_k the rising factorial."""
    a = [Fraction(1)]
    for n in range(n_terms - 1):
        a.append(a[-1] * (Fraction(5, 4) + n) * (Fraction(3, 4) + n)
                 / ((2 + n) * (1 + n)))
    coefs = []
    for k in range(2):
        row = []
        for n, an in enumerate(a):
            c = an
            for i in range(k):
                c *= Fraction(3, 2) + 2 * n + i
            row.append(float(c))
        coefs.append(np.array(row[::-1]))
    return coefs


_HORNER = _series_coefficients(_N_TERMS)
_PREFACTOR = math.pi * 2.0 ** -2.5


def _hypergeometric(s, k):
    chi = 1.0 + 0.5 * s
    z = 1.0 / (chi * chi)
    coefs = _HORNER[k]
    acc = coefs[0] * z + coefs[1]
    for c in coefs[2:]:
        acc *= z
        acc += c
    return ((-0.5) ** k * _PREFACTOR) * chi ** (-1.5 - k) * acc


def _agm_ke(m, p):
    """Complete elliptic integrals (K(m), E(m)) of arrays m and p = 1 - m,
    by the arithmetic-geometric mean (DLMF §19.8), and the AGM sum
    t1 = sum_{n>=1} 2^{n-1} c_n^2, so that E = K (1 - (m/2 + t1))."""
    a = np.ones_like(m)
    b = np.sqrt(p)
    t1 = np.zeros_like(m)
    weight = 0.5
    while True:
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        weight *= 2.0
        t1 += weight * (c * c)
        # np.any: the arrays are empty when every s >= S_SPLIT
        if not np.any(c > _AGM_STOP):
            break
    K = np.pi / (2.0 * a)
    return K, K * (1.0 - (0.5 * m + t1)), t1


def _elliptic(s, *orders):
    """[F^(k)(s) for k in orders] below S_SPLIT, from one AGM."""
    d = 1.0 / (s + 4.0)
    m = 4.0 * d         # k^2
    p = s * d           # 1 - m, exact for small s
    K, E, t1 = _agm_ke(m, p)
    rk = np.sqrt(m)
    out = []
    for k in orders:
        if k == 0:
            out.append(2.0 * K * t1 / rk)
        else:
            out.append(-rk * ((2.0 - m) * E - 2.0 * p * K) / (8.0 * p))
    return out


def _f_any(s, *orders):
    """[F^(k)(s) for k in orders], each of s's shape (a float for a scalar
    s); one AGM serves every order."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    flat = np.atleast_1d(s).ravel()
    # min() propagates NaN, so one comparison rejects NaN, inf and s <= 0
    if flat.size and not (flat.min() > 0.0 and flat.max() < math.inf):
        raise ValueError("F and its derivatives require finite s > 0")
    small = flat < S_SPLIT
    large = ~small
    outs = []
    for k, below in zip(orders, _elliptic(flat[small], *orders)):
        out = np.empty_like(flat)
        out[small] = below
        out[large] = _hypergeometric(flat[large], k)
        outs.append(float(out[0]) if scalar else out.reshape(s.shape))
    return outs


def f_eval(s):
    """F(s) for s > 0 (scalar or array)."""
    return _f_any(s, 0)[0]


def f_deriv(s):
    """F'(s) for s > 0 (scalar or array)."""
    return _f_any(s, 1)[0]


def _xi2(r_bar, z_bar, r, z):
    """(xi2, r, z) with r and z as float arrays; rejects r_bar <= 0, r <= 0
    and the coincident point, where every kernel is singular."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(r_bar <= 0.0) or np.any(r <= 0.0):
        raise ValueError("kernels require r > 0 and r_bar > 0")
    s = ((r - r_bar) ** 2 + (z - z_bar) ** 2) / (r_bar * r)
    if np.any(s == 0.0):
        raise SingularPointError(
            "kernel evaluated at a coincident point; desingularize upstream"
        )
    return s, r, z


def kernel_g(r_bar, z_bar, r, z):
    """Stream-function kernel G."""
    s, r, _ = _xi2(r_bar, z_bar, r, z)
    return np.sqrt(r_bar * r) / (2.0 * np.pi) * f_eval(s)


def kernel_velocity(r_bar, z_bar, r, z):
    """Velocity kernels (K_r, K_z); F and F' share one AGM per point."""
    s, r, z = _xi2(r_bar, z_bar, r, z)
    F, Fp = _f_any(s, 0, 1)
    denom = np.pi * r_bar**1.5 * np.sqrt(r)
    k_r = (z - z_bar) / denom * Fp
    k_z = ((r_bar - r) / denom * Fp
           + (F - 2.0 * s * Fp) * np.sqrt(r) / (4.0 * np.pi * r_bar**1.5))
    return k_r, k_z


def tabulate(s_min, s_max, count):
    """Rows (s, F, F', branch, REL_TOL * |F|) on a log-spaced grid, for the
    CLI.  The branch tag is 'elliptic' or 'hypergeometric'."""
    # NaN fails every comparison, so this also rejects non-finite bounds
    if not (0.0 < s_min <= s_max < math.inf) or count < 1:
        raise ValueError("need finite bounds 0 < lo <= hi and count >= 1")
    if count == 1:
        s = np.array([s_min])
    else:
        s = np.geomspace(s_min, s_max, count)
    F = f_eval(s)
    F1 = f_deriv(s)
    return [
        (float(si), float(fi), float(f1i),
         "elliptic" if si < S_SPLIT else "hypergeometric",
         REL_TOL * abs(float(fi)))
        for si, fi, f1i in zip(s, F, F1)
    ]
