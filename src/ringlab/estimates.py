"""Numerical verification of the a-priori inequalities and conservation laws.

Every check produces an EstimateReport with the measured left/right sides,
their ratio and a pass flag.  Two kinds of thresholds appear:

  * structural constants that the theory pins exactly (the weighted
    interpolation inequality holds with constant 1, and its discrete form
    is an exact consequence of Cauchy-Schwarz/Hoelder on the shared
    quadrature weights, so the threshold is 1 + 1e-6 of rounding slack);

  * empirical constants for bounds whose absolute constants are
    existence-only.  Those are calibrated once over a fixed family of ring
    configurations and frozen in data/calibration.json; the suites assert
    stability against the frozen values, not a universal constant.

All checks are pure functions of persisted snapshots and are re-run by the
CLI verify command independently of the in-loop accounting.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import biot_savart as bs
from .fields import ConfigurationError, ScalarFieldRZ, norm_lp_3d, \
    quadrature_weights, signed_momentum_z, weighted_centroid_z, \
    weighted_moment

__all__ = [
    "EstimateReport",
    "DiagnosticsSeries",
    "interpolation_reports",
    "check_interpolation",
    "velocity_reports",
    "check_velocity_lq",
    "check_velocity_sup",
    "check_scalar_sup",
    "fit_decay",
    "envelope_fit",
    "envelope_kappa_slope",
    "envelope_spread",
    "pairing_against_ring",
    "check_initial_attainment",
    "direct_velocity_reports",
    "check_far_field",
    "r_decay_report",
    "centered_gradient",
    "calibration",
    "reports_to_jsonl",
    "summary_table",
]


@dataclass
class EstimateReport:
    name: str
    lhs: float
    rhs: float
    threshold: float
    context: dict = field(default_factory=dict)

    @property
    def ratio(self):
        if self.lhs == 0.0:
            return 0.0
        if self.rhs == 0.0:
            return math.inf
        return self.lhs / self.rhs

    @property
    def passed(self):
        return self.ratio <= self.threshold

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "threshold": self.threshold,
            "pass": bool(self.passed),
            "context": self.context,
        }


_CAL = None


def calibration():
    """Frozen empirical constants (see data/calibration.json)."""
    global _CAL
    if _CAL is None:
        with resources.files("ringlab.data").joinpath(
            "calibration.json"
        ).open() as fh:
            _CAL = json.load(fh)
    return _CAL


# ---------------------------------------------------------------------------
# diagnostics time series

_DIAG_COLUMNS = [
    "t", "eta_l1", "eta_l2", "eta_l4", "eta_linf",
    "mom_m1", "mom_0", "mom_1", "mom_2",
    "momentum_z", "centroid_z",
    "u_l2", "u_l4", "u_l6", "u_linf", "ur_sup", "uz_sup",
    "edge_mass_fraction", "dt", "n_steps",
]


def _edge_mass_fraction(eta):
    w = quadrature_weights(eta.grid)
    total = float(np.sum(w * np.abs(eta.values)))
    if total == 0.0:
        return 0.0
    edge = (float(np.sum(w[-3:, :] * np.abs(eta.values[-3:, :])))
            + float(np.sum(w[:-3, :3] * np.abs(eta.values[:-3, :3])))
            + float(np.sum(w[:-3, -3:] * np.abs(eta.values[:-3, -3:]))))
    return edge / total


def _velocity_norm_lq(w, u, q):
    """||u||_q from the quadrature weights w, with |u| = sqrt(u_r^2 +
    u_z^2) at the nodes, its power and the weights formed in one array
    (u_z^2 is added a row at a time)."""
    a = np.square(u.ur)
    for row, uz in zip(a, u.uz):
        row += np.square(uz)
    np.sqrt(a, out=a)
    a **= q
    a *= w
    return float((2.0 * np.pi * np.sum(a)) ** (1.0 / q))


# one diagnostics row: its columns as doubles, n_steps too (exact below
# 2^53), in _DIAG_COLUMNS order
_ROW = struct.Struct(f"<{len(_DIAG_COLUMNS)}d")


class DiagnosticsSeries:
    """Per-snapshot norms, moments, velocity norms and audit columns.

    Each row is held packed (_ROW): a bytes object of 193 bytes, where a
    dict of Python floats takes about 950."""

    def __init__(self):
        self._packed = []

    @property
    def rows(self):
        """The rows as dicts of column name to value, n_steps an int."""
        out = []
        for packed in self._packed:
            row = dict(zip(_DIAG_COLUMNS, _ROW.unpack(packed)))
            row["n_steps"] = int(row["n_steps"])
            out.append(row)
        return out

    @property
    def times(self):
        return self.column("t")

    def column(self, name):
        table = np.frombuffer(b"".join(self._packed), dtype="<f8")
        return table.reshape(-1, len(_DIAG_COLUMNS))[
            :, _DIAG_COLUMNS.index(name)].copy()

    def _append(self, row):
        self._packed.append(_ROW.pack(*(row[c] for c in _DIAG_COLUMNS)))

    def record(self, t, eta, u, *, dt=float("nan"), n_steps=0):
        # |u| is formed again for each column, so that the row holds one
        # grid array at a time: holding it across the row raised simulate's
        # peak RSS by 0.4 MiB on the benchmark's ring-evolve input
        w = quadrature_weights(u.grid)
        row = {
            "t": float(t),
            "eta_l1": norm_lp_3d(eta, 1),
            "eta_l2": norm_lp_3d(eta, 2),
            "eta_l4": norm_lp_3d(eta, 4),
            "eta_linf": norm_lp_3d(eta, np.inf),
            "mom_m1": weighted_moment(eta, -1),
            "mom_0": weighted_moment(eta, 0),
            "mom_1": weighted_moment(eta, 1),
            "mom_2": weighted_moment(eta, 2),
            "momentum_z": signed_momentum_z(eta),
            "centroid_z": weighted_centroid_z(eta),
            "u_l2": _velocity_norm_lq(w, u, 2),
            "u_l4": _velocity_norm_lq(w, u, 4),
            "u_l6": _velocity_norm_lq(w, u, 6),
            "u_linf": bs.velocity_sup(u),
            "ur_sup": float(np.max(np.abs(u.ur))),
            "uz_sup": float(np.max(np.abs(u.uz))),
            "edge_mass_fraction": _edge_mass_fraction(eta),
            "dt": float(dt),
            "n_steps": int(n_steps),
        }
        # t is the first column
        if self._packed and row["t"] <= _ROW.unpack(self._packed[-1])[0]:
            raise ValueError("diagnostic times must be strictly increasing")
        self._append(row)
        return row

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(_DIAG_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join(f"{row[c]:.17g}" for c in _DIAG_COLUMNS)
                         + "\n")

    @classmethod
    def from_csv(cls, path):
        out = cls()
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header != _DIAG_COLUMNS:
                raise IOError(f"{path}: unexpected diagnostics columns")
            for lineno, line in enumerate(fh, start=2):
                toks = line.strip().split(",")
                try:
                    row = dict(zip(_DIAG_COLUMNS, map(float, toks),
                                   strict=True))
                    row["n_steps"] = int(row["n_steps"])
                except (ValueError, OverflowError) as exc:
                    raise IOError(f"{path}, line {lineno}: {exc}") from exc
                out._append(row)
        if not out._packed:
            raise IOError(f"{path}: no diagnostics rows")
        return out


# ---------------------------------------------------------------------------
# weighted interpolation (constant exactly 1)

def interpolation_reports(eta, ps, *, context=None):
    """One interpolation_lp report per p in ps (see check_interpolation),
    in order.  The sums that do not depend on p are taken once."""
    for p in ps:
        if not (1.0 <= p <= 2.0):
            raise ValueError(
                "the interpolation inequality requires p in [1, 2]")
    g = eta.grid
    w = 2.0 * np.pi * quadrature_weights(g)
    r = g.r_nodes()[:, None]
    a = np.abs(eta.values)
    f = r * a
    rf_l1 = float(np.sum(w * r * f))
    fr_l1 = float(np.sum(w * a))
    fr_inf = float(np.max(a))
    reports = []
    for p in ps:
        lhs = float(np.sum(w * f**p) ** (1.0 / p))
        rhs = (rf_l1**0.5 * fr_l1 ** (1.0 / p - 0.5)
               * fr_inf ** (1.0 - 1.0 / p))
        ctx = dict(context or {})
        ctx["p"] = p
        reports.append(
            EstimateReport("interpolation_lp", lhs, rhs, 1.0 + 1e-6, ctx))
    return reports


def check_interpolation(eta, p, *, context=None):
    """|| f ||_p <= ||r f||_1^(1/2) ||f/r||_1^(1/p-1/2) ||f/r||_inf^(1-1/p)
    for f = r eta, with the exact constant 1.

    All four quantities are evaluated with one shared set of quadrature
    weights and pointwise powers of the node radius, which makes the
    discrete inequality an identity-level consequence of Cauchy-Schwarz
    and Hoelder on finite sums; f/r at the axis is eta itself.
    """
    return interpolation_reports(eta, (p,), context=context)[0]


def velocity_reports(eta, u, qs, *, context=None):
    """One velocity_lq report per q in qs (see check_velocity_lq), in order,
    then the velocity_sup report (see check_velocity_sup).  The quadrature
    weights and eta's moments and sup are taken once.  sup |u| is
    biot_savart.velocity_sup(u), which is max sqrt(u_r^2 + u_z^2) bit for
    bit, sqrt being monotone and correctly rounded."""
    for q in qs:
        if not (1.5 < q <= 6.0):
            raise ValueError("velocity L^q control requires q in (3/2, 6]")
    w = quadrature_weights(u.grid)
    m2 = weighted_moment(eta, 2)     # ||r omega||_L1(R3)
    m0 = weighted_moment(eta, 0)     # ||omega/r||_L1(R3)
    sup = norm_lp_3d(eta, np.inf)    # ||omega/r||_Linf
    constants = calibration()["velocity_lq_constant"]
    reports = []
    for q in qs:
        lhs = _velocity_norm_lq(w, u, q)
        rhs = (m2**0.5 * m0 ** (1.0 / q - 1.0 / 6.0)
               * sup ** (2.0 / 3.0 - 1.0 / q))
        key = str(int(q)) if q == int(q) else f"{q}"
        # only q in {2, 4, 6} are calibrated; other exponents borrow the
        # most generous frozen constant
        thr = constants.get(key, max(constants.values()))
        ctx = dict(context or {})
        ctx["q"] = q
        reports.append(EstimateReport("velocity_lq", lhs, rhs, thr, ctx))
    # the plane norms: ||r^2 omega||_L1(plane) and ||omega||_L1(plane)
    rhs = ((m2 / (2.0 * np.pi)) ** 0.25 * (m0 / (2.0 * np.pi)) ** 0.25
           * sup**0.5)
    ctx = dict(context or {})
    ctx["ur_sup"] = float(np.max(np.abs(u.ur)))
    ctx["uz_sup"] = float(np.max(np.abs(u.uz)))
    reports.append(EstimateReport(
        "velocity_sup", bs.velocity_sup(u), rhs,
        calibration()["velocity_sup_constant"], ctx))
    return reports


def check_velocity_lq(eta, u, q, *, context=None):
    """||u||_q against the momentum/flux/sup control, q in (3/2, 6]."""
    return velocity_reports(eta, u, (q,), context=context)[0]


def check_velocity_sup(eta, u, *, context=None):
    """sup |u| against the plane-norm product of the three a-priori bounds."""
    return velocity_reports(eta, u, (), context=context)[0]


def centered_gradient(f):
    """(f_r, f_z) by centered differences, one-sided at the edges."""
    g = f.grid
    v = f.values
    fr = np.gradient(v, g.dr, axis=0, edge_order=2)
    fz = np.gradient(v, g.dz, axis=1, edge_order=2)
    return fr, fz


def check_scalar_sup(f, grad=None, *, context=None):
    """sup |f| against the weighted gradient product (axisymmetric scalars).

    Requires f to have decayed at the outer boundary.  The /r quantities
    are integrated over the off-axis rows (the axis cell carries O(dr^2)
    measure) and their sup excludes the axis row.
    """
    g = f.grid
    v = f.values
    sup_f = float(np.max(np.abs(v)))
    edge = max(np.max(np.abs(v[-1, :])), np.max(np.abs(v[:, 0])),
               np.max(np.abs(v[:, -1])))
    if sup_f > 0.0 and edge > 1e-8 * sup_f:
        raise ValueError("field has not decayed at the outer boundary")
    fr, fz = grad if grad is not None else centered_gradient(f)
    mag = np.sqrt(fr**2 + fz**2)
    w = 2.0 * np.pi * quadrature_weights(g)
    r = g.r_nodes()[:, None]
    r_grad_l1 = float(np.sum(w * r * mag))
    grad_over_r_l1 = float(np.sum(w[1:, :] * mag[1:, :] / r[1:, :]))
    grad_over_r_sup = float(np.max(mag[1:, :] / r[1:, :]))
    rhs = r_grad_l1**0.25 * grad_over_r_l1**0.25 * grad_over_r_sup**0.5
    thr = calibration()["scalar_sup_constant"]
    return EstimateReport("scalar_sup", sup_f, rhs, thr, dict(context or {}))


# ---------------------------------------------------------------------------
# decay fitting

_DECAY_EXPONENT = {"eta_l2": 0.75, "eta_l4": 1.125, "eta_linf": 1.5}


def _window_samples(series, quantity, window):
    """(t, q) of a diagnostics column (a DiagnosticsSeries or a dict of
    arrays) at the samples with t in the window and t, q > 0."""
    if quantity not in _DECAY_EXPONENT:
        raise ValueError(f"no decay exponent known for {quantity!r}")
    t = series.times if isinstance(series, DiagnosticsSeries) else np.asarray(
        series["t"])
    q = (series.column(quantity) if isinstance(series, DiagnosticsSeries)
         else np.asarray(series[quantity]))
    t_a, t_b = window
    sel = (t >= t_a) & (t <= t_b) & (t > 0) & (q > 0)
    return t[sel], q[sel]


def fit_decay(series, quantity, window):
    """(slope, envelope_max) of a diagnostics column over a time window.

    slope: least-squares d log(q)/d log(t) with the first and last 10% of
    the window samples trimmed (requires at least 8 samples); envelope_max:
    max of t^e * q over the whole window with the norm exponent
    e = (3/2)(1 - 1/p).
    """
    tt, qq = _window_samples(series, quantity, window)
    if len(tt) < 8:
        raise ValueError("need at least 8 samples inside the window")
    ntrim = max(1, len(tt) // 10)
    ti, qi = tt[ntrim:-ntrim], qq[ntrim:-ntrim]
    slope = float(np.polyfit(np.log(ti), np.log(qi), 1)[0])
    env = float(np.max(tt ** _DECAY_EXPONENT[quantity] * qq))
    return slope, env


def nash_window(times):
    """The time window of the Nash sup-norm envelope of a run: from its
    first sample after t = 0, but not before t = 0.01, to its last."""
    return (max(0.01, float(times[1]) if len(times) > 1 else 0.01),
            float(times[-1]))


def decay_envelope(series, quantity, window):
    """max of t^e * quantity over the window (no sample-count requirement)."""
    tt, qq = _window_samples(series, quantity, window)
    if not len(tt):
        raise ValueError("no samples inside the window")
    return float(np.max(tt ** _DECAY_EXPONENT[quantity] * qq))


def envelope_kappa_slope(kappas, envelopes):
    """Slope of the least-squares line through (ln kappa, ln envelope) of
    Nash envelopes at several kappa: 1 when the envelope is linear in
    kappa."""
    return float(np.polyfit(np.log(kappas), np.log(envelopes), 1)[0])


def envelope_spread(envelopes):
    """max / min of Nash envelopes at several eps: 1 when the envelope does
    not depend on the core size."""
    return max(envelopes) / min(envelopes)


def envelope_fit(T, E):
    """Minimal-coefficient envelope A T^(1/2) + B T^(3/4) >= E, A, B >= 0.

    Two-variable LP solved by enumerating candidate active sets; returns
    (A, B).  Always feasible.
    """
    T = np.asarray(T, dtype=float)
    E = np.asarray(E, dtype=float)
    p1 = T ** 0.5
    p2 = T ** 0.75
    c1, c2 = float(np.sum(p1)), float(np.sum(p2))
    cands = []
    with np.errstate(divide="ignore", invalid="ignore"):
        a_only = np.max(np.where(p1 > 0, E / p1, 0.0))
        b_only = np.max(np.where(p2 > 0, E / p2, 0.0))
    cands.append((a_only, 0.0))
    cands.append((0.0, b_only))
    n = len(T)
    for i in range(n):
        for j in range(i + 1, n):
            det = p1[i] * p2[j] - p1[j] * p2[i]
            if abs(det) < 1e-300:
                continue
            A = (E[i] * p2[j] - E[j] * p2[i]) / det
            B = (p1[i] * E[j] - p1[j] * E[i]) / det
            if A >= 0.0 and B >= 0.0:
                cands.append((A, B))
    best = None
    for A, B in cands:
        if np.all(A * p1 + B * p2 >= E * (1.0 - 1e-12)):
            cost = A * c1 + B * c2
            if best is None or cost < best[0]:
                best = (cost, A, B)
    return best[1], best[2]


# ---------------------------------------------------------------------------
# weak attainment of the singular initial ring

def pairing_against_ring(eta, phi_theta):
    """2 pi int omega_theta(t) phi_theta r dr dz for a test field phi.

    phi_theta: callable of (r, z) giving the e_theta component of a smooth
    compactly supported 3d vector field (must vanish linearly at r = 0 and
    its support must fit inside the grid, or ConfigurationError).
    """
    g = eta.grid
    r = g.r_nodes()[:, None]
    z = g.z_nodes()[None, :]
    w = quadrature_weights(g)
    phi = phi_theta(r, z)
    if (np.any(phi[-1, :] != 0.0) or np.any(phi[:, 0] != 0.0)
            or np.any(phi[:, -1] != 0.0)):
        raise ConfigurationError(
            "test field support extends beyond the grid")
    return float(2.0 * np.pi * np.sum(w * r * eta.values * phi))


def ring_pairing_target(rings, phi_theta):
    return float(sum(2.0 * np.pi * rg.kappa * rg.r0
                     * float(phi_theta(np.asarray(rg.r0), np.asarray(rg.z0)))
                     for rg in rings))


def check_initial_attainment(snapshot_series, rings, phi_theta):
    """Pairing error table over (eps, t) plus the eps -> 0 diagonal.

    snapshot_series: dict eps -> list of (t, eta) snapshots (t = 0 allowed).
    Returns dict with the error table, the E(eps, t ~ eps^2) diagonal and
    the (A, B) envelope of E(T) for each eps.
    """
    target = ring_pairing_target(rings, phi_theta)
    table = {}
    diagonal = {}
    envelopes = {}
    for eps, snaps in snapshot_series.items():
        errs = {}
        for t, eta in snaps:
            errs[t] = abs(pairing_against_ring(eta, phi_theta) - target)
        table[eps] = errs
        ts = np.array(sorted(errs))
        want = eps * eps
        t_near = float(ts[np.argmin(np.abs(ts - want))])
        diagonal[eps] = errs[t_near]
        pos = ts[ts > 0]
        if len(pos) >= 2:
            E = np.array([errs[float(t)] for t in pos])
            envelopes[eps] = envelope_fit(pos, E)
    return {"target": target, "table": table, "diagonal": diagonal,
            "envelopes": envelopes}


# ---------------------------------------------------------------------------
# far field decay

def support_radius(eta):
    """Radius of the bounding ball (in |x|) of the numerically nonzero part,
    the nodes above 1e-12 of the sup."""
    g = eta.grid
    a = np.abs(eta.values)
    mask = a > 1e-12 * np.max(a) if np.max(a) > 0 else a > 0
    if not np.any(mask):
        return 0.0
    r = g.r_nodes()[:, None]
    z = g.z_nodes()[None, :]
    return float(np.sqrt(np.max((r**2 + z**2)[mask])))


_FAR_FIELD_ANGLES = (0.3, 0.785398163, 1.2)   # polar angles of the probes
_DECAY_Z = (-0.5, 0.0, 0.5)                     # heights of the r samples


def direct_velocity_reports(eta, probe_radii, decay_radii, *,
                            context=None, support=None):
    """The far_field reports at probe_radii (see check_far_field), then the
    r_decay_sample reports at decay_radii (see r_decay_report), from one
    velocity_direct call on one omega = r eta, so the quadrature's sources
    are picked once.  context goes into the far_field reports only.
    support: support_radius(eta), computed here when None."""
    R = support_radius(eta) if support is None else support
    for rho in probe_radii:
        if rho <= R:
            raise ValueError(f"probe |x|={rho} lies inside the support R={R}")
    omega = ScalarFieldRZ(eta.grid,
                          eta.grid.r_nodes()[:, None] * eta.values)
    pts = ([(rho * math.cos(a), rho * math.sin(a))
            for rho in probe_radii for a in _FAR_FIELD_ANGLES]
           + [(r, z) for r in decay_radii for z in _DECAY_Z])
    uv = bs.velocity_direct(omega, pts)
    # the largest |u| of each radius's three points
    umax = np.max(np.sqrt(uv[:, 0] ** 2 + uv[:, 1] ** 2).reshape(-1, 3),
                  axis=1).tolist()
    m2 = weighted_moment(eta, 2) / (2.0 * np.pi)
    m0 = weighted_moment(eta, 0) / (2.0 * np.pi)
    reports = []
    for rho, u_rho in zip(probe_radii, umax):
        bound = math.sqrt(m2 * m0) / (2.0 * (rho - R) ** 2)
        ctx = dict(context or {})
        ctx["probe_radius"] = rho
        ctx["support_radius"] = R
        reports.append(EstimateReport("far_field", u_rho, bound,
                                      1.0 + 1e-3, ctx))
    for r, u_r in zip(decay_radii, umax[len(probe_radii):]):
        reports.append(EstimateReport("r_decay_sample", u_r * math.sqrt(r),
                                      1.0, math.inf, {"r": r}))
    return reports


def check_far_field(eta, probe_radii, *, context=None):
    """Velocity decay bound at |x| = probe radii (outside the support)."""
    return direct_velocity_reports(eta, probe_radii, (), context=context)


def r_decay_report(eta, radii):
    """Report-only |u| r^{1/2} samples along the r direction (no pass/fail:
    the sharp decay power in r is an open question)."""
    return direct_velocity_reports(eta, (), radii)


# ---------------------------------------------------------------------------
# report output

def reports_to_jsonl(reports, path_or_buf):
    buf = (path_or_buf if hasattr(path_or_buf, "write")
           else open(path_or_buf, "w"))
    own = buf is not path_or_buf
    try:
        for rep in reports:
            buf.write(json.dumps(rep.to_dict(), sort_keys=True) + "\n")
    finally:
        if own:
            buf.close()


def summary_table(reports):
    lines = [f"{'name':24s} {'lhs':>12s} {'rhs':>12s} {'ratio':>10s} "
             f"{'thr':>8s} {'pass':>5s}"]
    for rep in reports:
        lines.append(
            f"{rep.name:24s} {rep.lhs:12.5g} {rep.rhs:12.5g} "
            f"{rep.ratio:10.4g} {rep.threshold:8.3g} "
            f"{'ok' if rep.passed else 'FAIL':>5s}"
        )
    return "\n".join(lines)
