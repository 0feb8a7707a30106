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

Dirichlet eta = 0 on the three outer edges.  run()'s loop keeps its grid
state in one _Level, whose refresh() sets the velocity, the StepOperator
and dt in one place: at t = 0, every `velocity_refresh` (>= 1) steps and
on landing at each snapshot time; a landing on a step of that cadence
refreshes once.  A refresh solves the stream function
(biot_savart.solve_stream_elliptic, the direct DST method) with the
free-space edge values of psi from biot_savart.BoundaryOperator (James's
method, the same route `verify` uses) as Dirichlet data; those are
recomputed every BOUNDARY_REFRESH-th refresh and reused in between.  The
step-size policy lives here alone: cfl_dt reads |u| and the largest
outflow rate off the StepOperator and applies the fixed CFL numbers
CFL_ADVECT and CFL_DIFFUSE; the level counts its work in RunCounters.

What depends only on the grid is computed once per GridSpec (the last two
grids are cached) and kept read-only: the radial and z diffusion
coefficients, the diffusion rate, the radial face radii and the cell
measures of the advection, the per-row ones as columns.  A StepOperator
owns its coefficients, which rebuild(u) rewrites in place, adding the
diffusion to the advection; the scratch block of apply(); and the center
coefficient of the last dt it stepped with.

StepOperator holds its coefficients in one flat layout: the first
nr (nz + 1) nodes of eta.ravel(), rows 0..nr-1 by all columns, with exact
zeros in the edge columns 0 and nz.  The four neighbours of a node are
then at the flat offsets -(nz + 1), +(nz + 1), +1 and -1, and each pass of
apply() is a contiguous 1-D operation.  apply() runs its passes over
blocks of whole rows of about _BLOCK_NODES nodes, so that a block's
operands stay in cache.  Every update value is formed by the same
operations in the same order as in the 2-D form of the same formulas, and
so is the same bit for bit.

What lives for how long: run()'s _Level allocates each grid-sized array
of the loop once (see _Level).  Snapshots are handed off, not kept: at
t = 0, on each landing and at an abort's last valid state, run() passes a
field that wraps eta itself to its on_snapshot sink, which must copy what
it keeps (the CLI's sink writes the file from that buffer; the default
sink copies into RunResult.snapshots).  So with a sink that keeps nothing,
the run's memory does not grow with the number of snapshots; the
diagnostics rows and the light series, a few numbers per record, are all
it accumulates.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

try:
    import resource
except ImportError:     # not on every platform
    resource = None

import numpy as np

from . import biot_savart as bs
from .estimates import LIGHT_COLUMNS, DiagnosticsSeries
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
    "landing_times",
    "RunResult",
    "RunCounters",
]

U_FLOOR = 1e-12
# the CFL numbers of cfl_dt's advective and diffusive bounds
CFL_ADVECT = 0.8
CFL_DIFFUSE = 0.45
# the three bounds of cfl_dt, in its order
CFL_TERMS = ("advect", "diffuse", "convex")
# velocity refreshes per recomputation of the free-space edge values of psi
BOUNDARY_REFRESH = 4
# nodes per block of StepOperator.apply's passes, rounded down to whole
# rows.  The operands a block reuses (its block of the output, its scratch
# block and its window of eta) take about 0.8 MB, inside a core's 2 MiB L2.
# Measured at 200x320 and 400x640: 32768 beat 8192, 16384, 24576 and 49152
# nodes, and one block over the whole grid was the slowest.
_BLOCK_NODES = 32768


def _rusage():
    """(minor page faults so far, peak RSS in MiB) of this process, from
    getrusage (ru_maxrss is in KiB on Linux); (0, 0.0) without the resource
    module."""
    if resource is None:
        return 0, 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt, usage.ru_maxrss / 1024.0


def _landing_tolerance(t):
    """How far short of a landing time t run() may stop and still land on
    it: 1e-14 max(t, 1), the rounding that a sum of steps can carry."""
    return 1e-14 * max(t, 1.0)


def _steps_toward(t, target):
    """Whether run(), landed at t, takes at least one step toward target:
    t, even one ulp past where it landed, is short of the landing tolerance
    of target."""
    return np.nextafter(t, math.inf) < target - _landing_tolerance(target)


def landing_times(config):
    """The times after t = 0 at which run() lands and hands a snapshot on:
    config.snapshot_times, then t_end when the last of them (or t = 0)
    does not already land on it."""
    times = config.snapshot_times
    if _steps_toward(times[-1] if times else 0.0, config.t_end):
        times += (config.t_end,)
    return times


class CFLViolation(RuntimeError):
    """Requested dt exceeds the stability bound of the current operator."""


@dataclass(frozen=True)
class SimConfig:
    grid: GridSpec
    rings: tuple
    t_end: float
    velocity_refresh: int = 1
    snapshot_times: tuple = ()
    record_every: int = 25

    def __post_init__(self):
        object.__setattr__(self, "rings", tuple(self.rings))
        object.__setattr__(self, "snapshot_times",
                           tuple(float(t) for t in self.snapshot_times))
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ConfigurationError("t_end must be finite and nonnegative")
        if self.velocity_refresh < 1:
            raise ConfigurationError("velocity_refresh must be at least 1")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be at least 1")
        ts = self.snapshot_times
        if list(ts) != sorted(ts) or any(
            not (0.0 < t <= self.t_end) for t in ts
        ):
            raise ConfigurationError(
                "snapshot_times must be sorted and lie in (0, t_end]"
            )
        # run() lands on a time only after at least one step from the last
        if not all(map(_steps_toward, (0.0,) + ts, ts)):
            raise ConfigurationError(
                "snapshot_times must be separated from t = 0 and from each "
                "other by more than the landing tolerance 1e-14 max(t, 1)"
            )


class _StepGrid(NamedTuple):
    dW: np.ndarray          # radial diffusion, west and east, per row
    dE: np.ndarray
    dz2: float              # z diffusion 1/dz^2
    diff_rate: np.ndarray   # dW + dE + 2 dz2
    r_face: np.ndarray      # radii of the faces between rows i and i+1
    C: np.ndarray           # update-block cell measures int_cell r dr


@functools.lru_cache(maxsize=2)
def _step_grid(grid):
    """The velocity-independent part of StepOperator on one grid: the
    diffusion coefficients and the advection geometry, as read-only
    arrays (r_face and C as columns)."""
    nr = grid.nr
    dr, dz = grid.dr, grid.dz
    r = grid.r_nodes()
    i = np.arange(1, nr)
    r_hi = r[i] + 0.5 * dr
    r_lo = r[i] - 0.5 * dr
    b_hi = np.where(i <= 1, 2.0, 1.0)   # face value weight of eta_{i+1}
    a_lo = np.where(i <= 2, 0.0, 1.0)   # face value weight of eta_{i-1}
    dW = np.zeros(nr)
    dE = np.zeros(nr)
    dW[1:] = (r_lo / dr - a_lo) / (r[i] * dr)
    dE[1:] = (r_hi / dr + b_hi) / (r[i] * dr)
    dE[0] = 8.0 / dr**2
    dz2 = 1.0 / dz**2
    diff_rate = dW + dE + 2.0 * dz2
    r_face = (r[:-1] + 0.5 * dr)[:, None]
    C = grid.r_cell_measure()[:-1][:, None]
    for a in (dW, dE, diff_rate, r_face, C):
        a.flags.writeable = False
    return _StepGrid(dW, dE, dz2, diff_rate, r_face, C)


class StepOperator:
    """Precomputed convex-combination coefficients for one velocity field.

    The coefficients live in one flat layout: rows 0..nr-1 by all nz + 1
    columns, i.e. the first nr (nz + 1) nodes of eta.ravel(), so every pass
    of apply() is a contiguous 1-D operation on eta.ravel() at the offsets
    -(nz + 1), +(nz + 1), +1 and -1 of the four neighbours.  Columns 0 and
    nz are no update nodes: they hold exact zeros, which leaves max_rate
    unchanged.  apply() runs its passes over blocks of whole rows of about
    _BLOCK_NODES nodes.
    """

    def __init__(self, grid, u):
        self.grid = grid
        s = grid.nz + 1
        n = grid.nr * s
        # the coefficients (AS one node up in a buffer of n + 1, see
        # rebuild), apply()'s center coefficient, kept for one dt, and its
        # scratch block
        self._AW, self._AE, self._AN, self.out_rate, self._center = (
            np.empty((5, n)))
        self._AS_up = np.empty(n + 1)
        self._AS = self._AS_up[:n]
        self._term = np.empty(max(1, _BLOCK_NODES // s) * s)
        self.rebuild(u)

    def rebuild(self, u):
        """Set every coefficient for the velocity u, in place."""
        g, sg = self.grid, _step_grid(self.grid)
        s, dz = g.nz + 1, g.dz
        n = g.nr * s        # rows 0..nr-1, all columns
        # the sup already reads every node: its max propagates NaN and an
        # inf stays inf, so a finite sup proves u finite; only a square that
        # overflows needs the full scan
        self.u_sup = bs.velocity_sup(u)
        if not math.isfinite(self.u_sup) and not (
                np.all(np.isfinite(u.ur)) and np.all(np.isfinite(u.uz))):
            raise ValueError("velocity field contains non-finite values")

        # Each quotient is written into its coefficient array; every update
        # value is rounded as in the plain formulas out = Tp/C + Tm[i-1]/C
        # + (Sp + Sm)/dz, etc.  aE, AN and AS are written over the face
        # fluxes they are quotients of, once those are spent, and Tp is
        # formed in the center coefficient's array, which the next dt
        # recomputes.  The edge columns collect values that the diffusion
        # below overwrites with zeros.
        C = sg.C            # cell measures int_cell r dr, as a column
        ur, uz = u.ur.ravel(), u.uz.ravel()

        # radial faces between rows i and i+1, i = 0..nr-1
        face = np.add(ur[:n], ur[s:n + s], out=self._AE).reshape(-1, s)
        face *= 0.5
        Tp = np.maximum(face, 0.0, out=self._center.reshape(-1, s))
        Tp *= sg.r_face                                 # carries eta_i
        Tm = np.maximum(np.negative(face, out=face), 0.0, out=face)
        Tm *= sg.r_face                                 # carries eta_{i+1}

        # radial: cell i outflow through hi face (Tp[i]) and lo face
        # (Tm[i-1]); inflows from the west (Tp[i-1]) and the east (Tm[i])
        out = np.divide(Tp, C, out=self.out_rate.reshape(-1, s))
        aW = self._AW.reshape(-1, s)
        aW[0] = 0.0
        np.divide(Tp[:-1], C[1:], out=aW[1:])
        lo = np.divide(Tm[:-1], C[1:], out=Tp[1:])      # Tp is spent
        out[1:] += lo
        np.divide(Tm, C, out=Tm)                        # aE; Tm is spent

        # z faces between flat nodes k and k+1: node k's hi face is k, its
        # lo face k-1.  Sp is held one node up in AS's buffer of n + 1, so
        # that AS[k] = Sp[k - 1] / dz is formed in place at node k.
        zface = np.add(uz[:n], uz[1:n + 1], out=self._AN)
        zface *= 0.5
        Sp = np.maximum(zface, 0.0, out=self._AS_up[1:])
        Sm = np.maximum(np.negative(zface, out=zface), 0.0, out=zface)
        # z: node k's outflow through faces k (hi) and k-1 (lo)
        zout = Tp.reshape(-1)
        zout[0] = 0.0
        np.add(Sp[1:], Sm[:-1], out=zout[1:])
        zout /= dz
        self.out_rate += zout
        np.divide(Sm, dz, out=Sm)                       # AN; Sm is spent
        self._AS[0] = 0.0                               # Sp is spent
        np.divide(self._AS[1:], dz, out=self._AS[1:])

        # diffusion on top of the advection coefficients, in place, then
        # the exact zeros of the edge columns
        for a, d in ((self._AW, sg.dW[:, None]), (self._AE, sg.dE[:, None]),
                     (self._AN, sg.dz2), (self._AS, sg.dz2),
                     (self.out_rate, sg.diff_rate[:, None])):
            rows = a.reshape(-1, s)
            rows += d
            rows[:, 0] = 0.0
            rows[:, -1] = 0.0
        self.max_rate = float(np.max(self.out_rate))
        self._center_dt = None

    def apply(self, eta_values, dt, out=None):
        """One convex-combination Euler update of eta_values by dt.

        Writes the result into `out` and returns it when `out` is given,
        else returns a new array; `out` must be C-contiguous and must not
        overlap eta_values.  Each block's inflow is summed in `out` itself
        and its products are formed in one scratch block the operator owns,
        so one operator must not be shared across threads.
        """
        if dt * self.max_rate > 1.0 + 1e-9:
            raise CFLViolation(
                f"dt={dt:.3e} exceeds the stability bound "
                f"{1.0 / self.max_rate:.3e}"
            )
        shape = self.grid.shape
        new = np.empty(shape) if out is None else out
        if np.shape(eta_values) != shape or new.shape != shape:
            raise ValueError("eta_values and out must have the grid's shape")
        if not new.flags.c_contiguous or np.may_share_memory(new,
                                                             eta_values):
            raise ValueError("out must be C-contiguous and apart from "
                             "eta_values")
        e, flat = np.ravel(eta_values), new.reshape(-1)
        s = self.grid.nz + 1
        n = len(self.out_rate)
        AW, AE, AN, AS = self._AW, self._AE, self._AN, self._AS
        center = self._center_for(dt)
        block = len(self._term)
        for start in range(0, n, block):
            stop = min(start + block, n)
            # node 0, a corner, has no south neighbour and the axis row no
            # west one; ((AW W + AE E) + AN N) + AS S
            lo, west = max(start, 1), max(start, s)
            inflow, term = flat[lo:stop], self._term[:stop - lo]
            inflow[:west - lo] = 0.0
            np.multiply(AW[west:stop], e[west - s:stop - s],
                        out=inflow[west - lo:])
            np.multiply(AE[lo:stop], e[lo + s:stop + s], out=term)
            inflow += term
            np.multiply(AN[lo:stop], e[lo + 1:stop + 1], out=term)
            inflow += term
            np.multiply(AS[lo:stop], e[lo - 1:stop - 1], out=term)
            inflow += term
            inflow *= dt
            np.multiply(center[lo:stop], e[lo:stop], out=term)
            np.add(term, inflow, out=inflow)
        new[-1, :] = 0.0
        new[:, 0] = 0.0
        new[:, -1] = 0.0
        return new

    def _center_for(self, dt):
        """max(1 - dt * out_rate, 0), recomputed only when dt changes."""
        if dt != self._center_dt:
            # the center coefficient can dip below zero by rounding dust
            # when dt sits exactly on the convexity limit; clamping keeps
            # the update a convex combination so nonnegativity is
            # structural
            c = self._center
            np.multiply(self.out_rate, dt, out=c)
            np.subtract(1.0, c, out=c)
            np.maximum(c, 0.0, out=c)
            self._center_dt = dt
        return self._center


def cfl_dt(op):
    """Stable step size for the StepOperator `op` and the CFL_TERMS name of
    the bound that set it:

    min( CFL_ADVECT * min(dr,dz) / max(|u|, floor),
         CFL_DIFFUSE * min(dr^2,dz^2) / d_eff,
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
    bounds = (CFL_ADVECT * h / u_sup,
              CFL_DIFFUSE * h2 / d_eff,
              1.0 / op.max_rate)
    dt = min(bounds)
    return float(dt), CFL_TERMS[bounds.index(dt)]


@dataclass
class RunCounters:
    """What one run did and where its time went; the CLI writes it to the
    manifest as `run_counters`, never to diagnostics.csv or the snapshots.

    solves counts the velocity solves and the zero-edge solves of the edge
    recomputes; worst_residual is the largest relative residual of the
    velocity solves, worst_edge_residual that of the zero-edge solves.
    dt_min, dt_max and dt_limiter (how often each CFL_TERMS bound was the
    smallest) cover the step sizes cfl_dt set at the refreshes, not the
    shortened steps that land on a snapshot time.
    The *_s fields are perf_counter totals of the _Level's Euler steps and
    refreshes and of run()'s light-series and diagnostics records.
    minor_faults is the change in the process's minor page faults over the
    run and max_rss_mib the process's peak resident set at its end, both
    from getrusage; both stay 0 where the resource module is missing.
    """

    steps: int = 0
    refreshes: int = 0
    solves: int = 0
    edge_recomputes: int = 0
    worst_residual: float = 0.0
    worst_edge_residual: float = 0.0
    dt_min: float = math.inf
    dt_max: float = 0.0
    dt_limiter: dict = field(
        default_factory=lambda: dict.fromkeys(CFL_TERMS, 0))
    apply_s: float = 0.0
    refresh_s: float = 0.0
    record_s: float = 0.0
    minor_faults: int = 0
    max_rss_mib: float = 0.0


@dataclass
class RunResult:
    config: SimConfig
    diagnostics: DiagnosticsSeries
    light_series: DiagnosticsSeries
    snapshots: list
    audits: dict
    counters: RunCounters = field(default_factory=RunCounters)


class _Level:
    """run()'s loop state on one grid: its BoundaryOperator and each
    grid-sized array of the loop, allocated once.  eta and work swap at
    every step(dt).  refresh() writes omega into work, the edge values into
    psi every BOUNDARY_REFRESH-th call, solves psi in place (the solve reads
    those edges alone and keeps them), writes u, rebuilds the StepOperator
    in place and returns a stable dt; its first call allocates psi, u and
    the operator.  Both methods count what they do in counters."""

    def __init__(self, grid, eta, counters):
        self.grid, self.counters = grid, counters
        self.eta, self.work = eta, np.empty_like(eta)
        self.boundary = bs.BoundaryOperator(grid)
        self.psi = self.u = self.op = None

    def refresh(self):
        g, counters = self.grid, self.counters
        started = time.perf_counter()
        omega = ScalarFieldRZ(g, np.multiply(g.r_nodes()[:, None],
                                             self.eta, out=self.work))
        if counters.refreshes % BOUNDARY_REFRESH == 0:
            self.psi = self.boundary.apply(omega, out=self.psi)
            counters.edge_recomputes += 1
            counters.solves += 1
            counters.worst_edge_residual = max(
                counters.worst_edge_residual, self.boundary.residual)
        counters.refreshes += 1
        psi = bs.solve_stream_elliptic(omega, boundary=self.psi, out=self.psi)
        counters.solves += 1
        counters.worst_residual = max(counters.worst_residual, psi.residual)
        self.u = bs.velocity_from_stream(psi, out=self.u)
        if self.op is None:
            self.op = StepOperator(g, self.u)
        else:
            self.op.rebuild(self.u)
        dt, term = cfl_dt(self.op)
        counters.dt_min = min(counters.dt_min, dt)
        counters.dt_max = max(counters.dt_max, dt)
        counters.dt_limiter[term] += 1
        counters.refresh_s += time.perf_counter() - started
        return dt

    def step(self, dt):
        started = time.perf_counter()
        self.eta, self.work = (self.op.apply(self.eta, dt, out=self.work),
                               self.eta)
        self.counters.apply_s += time.perf_counter() - started
        self.counters.steps += 1


def run(config, on_snapshot=None):
    """Integrate the ring initial data to t_end, auditing as we go.

    on_snapshot(t, field, steps) is called at t = 0, on landing at each
    snapshot time and, when the run aborts, at its last valid state; steps
    is the Euler step count so far.  field wraps run's own eta buffer and is
    valid only during the call: a sink that keeps it must copy it.  Without
    a sink, the snapshots are copied into RunResult.snapshots; with one,
    that list stays empty.  An exception the sink raises ends the run and
    propagates to the caller.
    """
    snapshots = []
    if on_snapshot is None:
        def on_snapshot(t, f, steps):
            snapshots.append((t, ScalarFieldRZ(f.grid, f.values.copy())))
    faults_before, _ = _rusage()
    g = config.grid
    counters = RunCounters()
    level = _Level(g, make_mollified_ring(g, config.rings).values, counters)

    light = DiagnosticsSeries(LIGHT_COLUMNS)

    def record_light(t, f):
        started = time.perf_counter()
        l1 = norm_lp_3d(f, 1)
        light.append({"t": t, "eta_l1": l1,
                      "eta_linf": norm_lp_3d(f, np.inf),
                      "momentum_z": signed_momentum_z(f),
                      "centroid_z": weighted_centroid_z(f)})
        counters.record_s += time.perf_counter() - started
        return l1

    diag = DiagnosticsSeries()

    def land(t):
        dt = level.refresh()
        f = ScalarFieldRZ(g, level.eta)
        started = time.perf_counter()
        row = diag.record(t, f, level.u, dt=dt, n_steps=counters.steps)
        counters.record_s += time.perf_counter() - started
        return dt, f, row

    dt, f, row = land(0.0)
    # centroid_z is nan for zero data; any other non-finite column means the
    # initial data overflow the norms
    for name, value in row.items():
        if name != "centroid_z" and not np.isfinite(value):
            raise ConfigurationError(
                f"initial data overflow: diagnostics column {name} is "
                f"non-finite at t = 0")
    l1_prev = record_light(0.0, f)
    on_snapshot(0.0, f, 0)
    landed = 0.0        # the time of the latest snapshot
    audits = {
        "min_eta": float(np.min(level.eta)),
        "l1_monotone": True,
        "l1_max_uptick": 0.0,
    }

    t = 0.0
    try:
        for target in landing_times(config):
            end = target - _landing_tolerance(target)
            while t < end:
                dt_step = min(dt, target - t)
                level.step(dt_step)
                t += dt_step
                audits["min_eta"] = min(audits["min_eta"],
                                        float(np.min(level.eta)))
                if counters.steps % config.record_every == 0 or t >= end:
                    if not np.all(np.isfinite(level.eta)):
                        raise FloatingPointError(
                            f"state became non-finite at t={t:.6g}")
                    l1 = record_light(t, ScalarFieldRZ(g, level.eta))
                    uptick = l1 - l1_prev * (1.0 + 1e-12)
                    if uptick > 0.0:
                        audits["l1_monotone"] = False
                        audits["l1_max_uptick"] = max(
                            audits["l1_max_uptick"],
                            float(uptick / max(l1_prev, 1e-300)))
                    l1_prev = l1
                # the cadence, unless this step lands: land() refreshes then
                if counters.steps % config.velocity_refresh == 0 and t < end:
                    dt = level.refresh()

            # land exactly on the target: refresh u to synchronize the pair
            dt, f, _ = land(t)
            on_snapshot(t, f, counters.steps)
            landed = t
    except (bs.SolverError, CFLViolation, FloatingPointError) as exc:
        # abort with the last valid state preserved as a final snapshot
        if np.all(np.isfinite(level.eta)) and t > landed:
            on_snapshot(t, ScalarFieldRZ(g, level.eta), counters.steps)
        audits["error"] = str(exc)

    faults_after, counters.max_rss_mib = _rusage()
    counters.minor_faults = faults_after - faults_before
    return RunResult(config, diag, light, snapshots, audits, counters)
