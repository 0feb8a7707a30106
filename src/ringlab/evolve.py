"""Time integration of eta_t + u.grad(eta) = eta_rr + (3/r) eta_r + eta_zz.

The scheme is forward Euler on a finite-volume form chosen so that the
structural properties the estimates audit are discrete identities, not
approximations:

  * positivity: every update is assembled as a convex combination
    eta_new = (1 - dt*OUT)*eta + dt*(AW eta_W + AE eta_E + AN eta_N + AS eta_S)
    with all coefficient arrays nonnegative under the CFL bound, so
    nonnegative data stays exactly nonnegative in floating point;

  * L1 monotonicity: advection is flux-form upwind on the radial cell
    measure (axis cell dr^2/8), which telescopes exactly, and the radial
    diffusion uses the flux (r eta_r + [2 eta at the face]), whose weighted
    column sums reduce to -(3/2) eta_1 - (1/2) eta_0 - outflow <= 0.  The
    face value of the 2*eta drift flux is taken from the axis side at the
    two innermost faces (which costs only O(dr^2) there since eta is even
    across the axis) and centered elsewhere, keeping second-order
    consistency;

  * the axis row evolves by the even-extension limit 8(eta_1 - eta_0)/dr^2
    of the five-dimensional radial Laplacian plus z diffusion.

Dirichlet eta = 0 on the three outer edges.  run() sets the velocity, the
StepOperator and dt in one place, its refresh: at t = 0, every
`velocity_refresh` (>= 1) steps and on landing at each snapshot time.  A
refresh solves the stream function (biot_savart.solve_stream_elliptic, the
direct DST method) with the free-space edge values of psi from
biot_savart.BoundaryOperator (James's method, the same route `verify` uses)
as Dirichlet data; those are recomputed every BOUNDARY_REFRESH-th refresh
and reused in between.  cfl_dt reads |u| and the largest outflow rate off
the StepOperator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import biot_savart as bs
from .fields import (
    ConfigurationError,
    GridSpec,
    ScalarFieldRZ,
    make_mollified_ring,
    norm_lp_3d,
    signed_momentum_z,
    weighted_centroid_z,
)

__all__ = [
    "SimConfig",
    "CFLViolation",
    "StepOperator",
    "cfl_dt",
    "run",
    "RunResult",
]

U_FLOOR = 1e-12
# velocity refreshes per recomputation of the free-space edge values of psi
BOUNDARY_REFRESH = 4


class CFLViolation(RuntimeError):
    """Requested dt exceeds the stability bound of the current operator."""


@dataclass(frozen=True)
class SimConfig:
    grid: GridSpec
    rings: tuple
    t_end: float
    cfl_advect: float = 0.8
    cfl_diffuse: float = 0.45
    velocity_refresh: int = 1
    snapshot_times: tuple = ()
    record_every: int = 25

    def __post_init__(self):
        object.__setattr__(self, "rings", tuple(self.rings))
        object.__setattr__(self, "snapshot_times",
                           tuple(float(t) for t in self.snapshot_times))
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ConfigurationError("t_end must be finite and nonnegative")
        if not (0.0 < self.cfl_advect <= 1.0):
            raise ConfigurationError("cfl_advect must lie in (0, 1]")
        if not (0.0 < self.cfl_diffuse <= 0.5):
            raise ConfigurationError("cfl_diffuse must lie in (0, 1/2]")
        if self.velocity_refresh < 1:
            raise ConfigurationError("velocity_refresh must be at least 1")
        ts = self.snapshot_times
        if list(ts) != sorted(ts) or any(
            not (0.0 < t <= self.t_end) for t in ts
        ):
            raise ConfigurationError(
                "snapshot_times must be sorted and lie in (0, t_end]"
            )


class StepOperator:
    """Precomputed convex-combination coefficients for one velocity field
    (zero velocity when u is None)."""

    def __init__(self, grid, u=None):
        self.grid = grid
        nr = grid.nr
        dr, dz = grid.dr, grid.dz
        r = grid.r_nodes()

        # --- diffusion (velocity independent) -------------------------------
        i = np.arange(1, nr)
        r_hi = r[i] + 0.5 * dr
        r_lo = r[i] - 0.5 * dr
        b_hi = np.where(i <= 1, 2.0, 1.0)   # face value weight of eta_{i+1}
        a_lo = np.where(i <= 2, 0.0, 1.0)   # face value weight of eta_{i-1}
        cE = (r_hi / dr + b_hi) / (r[i] * dr)
        cW = (r_lo / dr - a_lo) / (r[i] * dr)
        self._dW = np.zeros(nr)
        self._dE = np.zeros(nr)
        self._dW[1:] = cW
        self._dE[1:] = cE
        self._dE[0] = 8.0 / dr**2
        self._dz2 = 1.0 / dz**2
        self.diff_rate = self._dW + self._dE + 2.0 * self._dz2

        # --- advection (rebuilt per refresh) --------------------------------
        if u is None:
            zero = np.zeros(grid.shape)
            u = bs.VelocityFieldRZ(grid, zero, zero)
        self._build_advection(u)

        dWn = self._dW[:, None]
        dEn = self._dE[:, None]
        self._AW = self._aW + dWn
        self._AE = self._aE + dEn
        self._AN = self._aN + self._dz2
        self._AS = self._aS + self._dz2
        self.out_rate = self.adv_rate + self.diff_rate[:, None]
        self.max_rate = float(np.max(self.out_rate))

    def _build_advection(self, u):
        g = self.grid
        nr, nz = g.nr, g.nz
        dr, dz = g.dr, g.dz
        r = g.r_nodes()
        if not (np.all(np.isfinite(u.ur)) and np.all(np.isfinite(u.uz))):
            raise ValueError("velocity field contains non-finite values")
        self.u_sup = bs.velocity_sup(u)

        # radial faces between rows i and i+1, i = 0..nr-1, all columns
        r_face = (r[:-1] + 0.5 * dr)[:, None]
        ur_face = 0.5 * (u.ur[:-1, :] + u.ur[1:, :])
        Tp = r_face * np.maximum(ur_face, 0.0)     # carries eta_i
        Tm = r_face * np.maximum(-ur_face, 0.0)    # carries eta_{i+1}

        # z faces between columns j and j+1, j = 0..nz-1, all rows
        uz_face = 0.5 * (u.uz[:, :-1] + u.uz[:, 1:])
        Sp = np.maximum(uz_face, 0.0)
        Sm = np.maximum(-uz_face, 0.0)

        # update-block cell measures C_i = int_cell r dr (axis cell dr^2/8)
        C = g.r_cell_measure()[:-1][:, None]
        cols = slice(1, nz)

        aW = np.zeros((nr, nz - 1))
        aE = np.zeros((nr, nz - 1))
        out = np.zeros((nr, nz - 1))
        # radial: cell i outflow through hi face (Tp[i]) and lo face (Tm[i-1])
        out += Tp[:, cols] / C
        out[1:] += Tm[:-1, cols] / C[1:]
        # radial inflows
        aW[1:] = Tp[:-1, cols] / C[1:]
        aE += Tm[:, cols] / C
        # z: cell (i, j) outflow through faces j (hi) and j-1 (lo)
        out += (Sp[:-1, 1:] + Sm[:-1, :-1]) / dz
        aN = Sm[:-1, 1:] / dz
        aS = Sp[:-1, :-1] / dz
        self._aW, self._aE, self._aN, self._aS = aW, aE, aN, aS
        self.adv_rate = out

    def apply(self, eta_values, dt, out=None):
        """One convex-combination Euler update; returns a new array."""
        if dt * self.max_rate > 1.0 + 1e-9:
            raise CFLViolation(
                f"dt={dt:.3e} exceeds the stability bound "
                f"{1.0 / self.max_rate:.3e}"
            )
        e = eta_values
        new = np.empty_like(e) if out is None else out
        blk = e[:-1, 1:-1]
        west = np.empty_like(blk)
        west[0, :] = 0.0
        west[1:, :] = e[:-2, 1:-1]
        inflow = (self._AW * west + self._AE * e[1:, 1:-1]
                  + self._AN * e[:-1, 2:] + self._AS * e[:-1, :-2])
        # the center coefficient can dip below zero by rounding dust when dt
        # sits exactly on the convexity limit; clamping keeps the update a
        # convex combination so nonnegativity is structural
        center = np.maximum(1.0 - dt * self.out_rate, 0.0)
        new[:-1, 1:-1] = center * blk + dt * inflow
        new[-1, :] = 0.0
        new[:, 0] = 0.0
        new[:, -1] = 0.0
        return new


def cfl_dt(op, config):
    """Stable step size for the StepOperator `op`.

    min( cfl_advect * min(dr,dz) / max(|u|, floor),
         cfl_diffuse * min(dr^2,dz^2) / d_eff,
         1 / max nodal outflow rate )

    d_eff = (4/dr^2 + 1/dz^2) * min(dr^2, dz^2) accounts for the
    axis-enhanced radial diffusion (coefficient 4 from the 5d Laplacian
    limit) together with the z direction, so the diffusive bound alone
    keeps the update a convex combination; the third term does the same
    for the combined advection-diffusion operator.
    """
    g = op.grid
    u_sup = max(op.u_sup, U_FLOOR)
    h = min(g.dr, g.dz)
    h2 = min(g.dr**2, g.dz**2)
    d_eff = (4.0 / g.dr**2 + 1.0 / g.dz**2) * h2
    dt = min(config.cfl_advect * h / u_sup,
             config.cfl_diffuse * h2 / d_eff)
    return float(min(dt, 1.0 / op.max_rate))


@dataclass
class RunResult:
    config: SimConfig
    diagnostics: "object"
    snapshots: list
    audits: dict
    light_series: dict = field(default_factory=dict)


def run(config):
    """Integrate the ring initial data to t_end, auditing as we go."""
    from .estimates import DiagnosticsSeries

    g = config.grid
    eta = make_mollified_ring(g, config.rings).values.copy()
    boundary_op = bs.BoundaryOperator(g)
    edges = None
    n_refresh = 0

    def refresh(eta_values):
        """Velocity of eta_values, its StepOperator and stable dt; the edge
        values of psi are recomputed every BOUNDARY_REFRESH-th call."""
        nonlocal edges, n_refresh
        omega = ScalarFieldRZ(g, g.r_nodes()[:, None] * eta_values)
        if n_refresh % BOUNDARY_REFRESH == 0:
            edges = boundary_op.apply(omega)
        n_refresh += 1
        u = bs.velocity_from_stream(
            bs.solve_stream_elliptic(omega, boundary=edges))
        op = StepOperator(g, u)
        return u, op, cfl_dt(op, config)

    light = {"t": [], "l1": [], "linf": [], "momentum": [], "centroid": []}

    def record_light(t, f):
        light["t"].append(t)
        light["l1"].append(norm_lp_3d(f, 1))
        light["linf"].append(norm_lp_3d(f, np.inf))
        light["momentum"].append(signed_momentum_z(f))
        light["centroid"].append(weighted_centroid_z(f))
        return light["l1"][-1]

    u, op, dt = refresh(eta)
    diag = DiagnosticsSeries()
    snapshots = [(0.0, ScalarFieldRZ(g, eta.copy()))]
    row = diag.record(0.0, snapshots[0][1], u, dt=dt, n_steps=0)
    # centroid_z is nan for zero data; any other non-finite column means the
    # initial data overflow the norms
    for name, value in row.items():
        if name != "centroid_z" and not np.isfinite(value):
            raise ConfigurationError(
                f"initial data overflow: diagnostics column {name} is "
                f"non-finite at t = 0")
    l1_prev = record_light(0.0, snapshots[0][1])
    audits = {
        "min_eta": float(np.min(eta)),
        "l1_monotone": True,
        "l1_max_uptick": 0.0,
        "steps": 0,
    }

    targets = list(config.snapshot_times)
    if config.t_end > 0.0 and (
        not targets or targets[-1] < config.t_end
    ):
        targets.append(config.t_end)

    t = 0.0
    nstep = 0
    work = np.empty_like(eta)
    try:
        for target in targets:
            while t < target - 1e-14 * max(target, 1.0):
                if nstep > 0 and nstep % config.velocity_refresh == 0:
                    u, op, dt = refresh(eta)
                dt_step = min(dt, target - t)
                eta, work = op.apply(eta, dt_step, out=work), eta
                t += dt_step
                nstep += 1
                audits["min_eta"] = min(audits["min_eta"], float(np.min(eta)))
                if nstep % config.record_every == 0 or t >= target - 1e-14:
                    if not np.all(np.isfinite(eta)):
                        raise FloatingPointError(
                            f"state became non-finite at t={t:.6g}")
                    l1 = record_light(t, ScalarFieldRZ(g, eta))
                    uptick = l1 - l1_prev * (1.0 + 1e-12)
                    if uptick > 0.0:
                        audits["l1_monotone"] = False
                        audits["l1_max_uptick"] = max(
                            audits["l1_max_uptick"],
                            float(uptick / max(l1_prev, 1e-300)))
                    l1_prev = l1

            # land exactly on the target: refresh u to synchronize the pair
            u, op, dt = refresh(eta)
            snap = ScalarFieldRZ(g, eta.copy())
            snapshots.append((t, snap))
            diag.record(t, snap, u, dt=dt, n_steps=nstep)
    except (bs.SolverError, CFLViolation, FloatingPointError) as exc:
        # abort with the last valid state preserved as a final snapshot
        if np.all(np.isfinite(eta)) and t > snapshots[-1][0]:
            snapshots.append((t, ScalarFieldRZ(g, eta.copy())))
        audits["error"] = str(exc)

    audits["steps"] = nstep
    light = {k: np.asarray(v) for k, v in light.items()}
    return RunResult(config, diag, snapshots, audits, light)
