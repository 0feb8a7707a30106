"""Grids, scalar fields on the (r, z) half-plane, ring initial data, norms.

The state variable throughout is eta = omega_theta / r sampled on the nodes
of a uniform (r, z) rectangle that always contains the symmetry axis r = 0.

Integrals over R^3 of an axisymmetric quantity q(r, z) are computed as

    2 pi * sum_ij  c_i * w_j * q_ij

where w_j is the trapezoid weight in z and c_i is the radial cell measure:
the exact finite-volume measure int_cell r dr, which for the axis cell
[0, dr/2] equals dr^2/8.  Keeping the axis cell in the measure (rather than
dropping the r = 0 row) is what lets the advective and diffusive mass
accounting of the evolution telescope exactly, so the L1 monotonicity audit
holds to summation precision.  np.sum uses pairwise summation, so all
reductions here are deterministic.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "RingSpec",
    "ScalarFieldRZ",
    "ConfigurationError",
    "MOLLIFIER_NORM",
    "mollifier_profile",
    "make_mollified_ring",
    "quadrature_weights",
    "norm_lp_3d",
    "weighted_moment",
    "signed_momentum_z",
    "weighted_centroid_z",
    "save_field",
    "load_field",
    "SnapshotFormatError",
]


class ConfigurationError(ValueError):
    """Invalid grid / ring / run configuration."""


class SnapshotFormatError(IOError):
    """Snapshot file is malformed or truncated."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform node grid {(i*dr, z_min + j*dz)}, i = 0..nr, j = 0..nz."""

    nr: int
    nz: int
    r_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.r_max, self.z_min, self.z_max))):
            raise ConfigurationError("r_max, z_min and z_max must be finite")
        if self.nr < 8 or self.nz < 8:
            raise ConfigurationError("need nr >= 8 and nz >= 8")
        if not (self.z_min < self.z_max):
            raise ConfigurationError("need z_min < z_max")
        if self.r_max <= 0.0:
            raise ConfigurationError("need r_max > 0")

    @property
    def dr(self):
        return self.r_max / self.nr

    @property
    def dz(self):
        return (self.z_max - self.z_min) / self.nz

    @property
    def shape(self):
        return (self.nr + 1, self.nz + 1)

    def r_nodes(self):
        return self.dr * np.arange(self.nr + 1)

    def z_nodes(self):
        return self.z_min + self.dz * np.arange(self.nz + 1)

    def r_cell_measure(self):
        """c_i = int_cell r dr per radial node (axis cell [0, dr/2])."""
        dr = self.dr
        r = self.r_nodes()
        c = r * dr
        c[0] = dr * dr / 8.0
        c[-1] = 0.5 * dr * (self.r_max - 0.25 * dr)
        return c

    def r_cell_measure_alpha(self, alpha):
        """int_cell r^(1+alpha) dr, needed for the weighted moments."""
        if alpha == 0:
            return self.r_cell_measure()
        dr = self.dr
        r = self.r_nodes()
        c = np.empty_like(r)
        c[1:] = r[1:] ** (1 + alpha) * dr
        c[0] = (0.5 * dr) ** (2 + alpha) / (2 + alpha)
        lo = self.r_max - 0.5 * dr
        c[-1] = (self.r_max ** (2 + alpha) - lo ** (2 + alpha)) / (2 + alpha)
        return c

    def z_weights(self):
        w = np.full(self.nz + 1, self.dz)
        w[0] = w[-1] = 0.5 * self.dz
        return w

    def header_bytes(self):
        return struct.pack("<qqddd", self.nr, self.nz,
                          self.r_max, self.z_min, self.z_max)


@dataclass(frozen=True)
class RingSpec:
    """One mollified vortex ring: circulation kappa at (r0, z0), width eps."""

    kappa: float
    r0: float
    z0: float
    eps: float

    def __post_init__(self):
        if not np.all(np.isfinite((self.kappa, self.r0, self.z0, self.eps))):
            raise ConfigurationError("kappa, r0, z0 and eps must be finite")
        if self.r0 <= 0.0:
            raise ConfigurationError("ring radius r0 must be positive")
        if not (0.0 < self.eps < 0.5 * self.r0):
            raise ConfigurationError("need 0 < eps < r0/2")


def _all_finite(a):
    """Whether every entry of a is finite, with no temporary of a's size:
    min and max propagate a NaN, and an inf is one of them."""
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


@dataclass
class ScalarFieldRZ:
    """Node values of an axisymmetric scalar (eta, omega_theta or psi)."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConfigurationError(
                f"values shape {self.values.shape} does not match grid "
                f"{self.grid.shape}"
            )
        if not _all_finite(self.values):
            raise ConfigurationError("field contains non-finite values")

    def copy(self):
        return ScalarFieldRZ(self.grid, self.values.copy())


# bump normalisation: profile = c * exp(-1/(1-|y|^2)) on |y| < 1 with unit
# 2d mass; the plane integral is pi * int_0^1 e^{-1/x} dx = pi (e^-1 - E1(1)),
# with the exponential integral E1(1) = 0.21938393439552027... (DLMF §6.2)
# rounded to the nearest double
_E1_AT_1 = 0.2193839343955205
MOLLIFIER_NORM = float(1.0 / (np.pi * (np.exp(-1.0) - _E1_AT_1)))


def mollifier_profile(y1, y2):
    """Standard smooth bump on the unit disk, unit mass, vectorized."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    q = y1 * y1 + y2 * y2
    out = np.zeros(np.broadcast_shapes(y1.shape, y2.shape))
    inside = q < 1.0
    out[inside] = MOLLIFIER_NORM * np.exp(-1.0 / (1.0 - q[inside]))
    return out


def make_mollified_ring(grid, rings):
    """Initial eta_0 for a list of mollified rings, sampled at the nodes.

    eta_0 = sum_m (kappa_m / r0_m) eps_m^-2 profile((r-r0_m)/eps_m, (z-z0_m)/eps_m)

    Each ring's sampled bump is scaled so that its discrete circulation,
    sum(quadrature_weights(grid) * bump), is kappa.

    Every ring must satisfy eps < r0/2, fit inside the grid with a margin of
    4 eps to the outer boundaries, be resolved (eps >= 4 max(dr, dz)) and all
    circulations must share one sign.
    """
    rings = list(rings)
    if not rings:
        raise ConfigurationError("at least one ring is required")
    signs = {np.sign(rg.kappa) for rg in rings if rg.kappa != 0.0}
    if len(signs) > 1:
        raise ConfigurationError("ring circulations must all share one sign")
    h = max(grid.dr, grid.dz)
    for rg in rings:
        if rg.kappa != 0.0 and rg.eps < 4.0 * h:
            raise ConfigurationError(
                f"ring eps={rg.eps} under-resolved: need eps >= 4*max(dr,dz)={4*h}"
            )
        if (rg.r0 + 5.0 * rg.eps > grid.r_max
                or rg.z0 - 5.0 * rg.eps < grid.z_min
                or rg.z0 + 5.0 * rg.eps > grid.z_max):
            raise ConfigurationError(
                f"ring at (r0={rg.r0}, z0={rg.z0}) with eps={rg.eps} does not "
                "fit in the grid with a 4*eps margin"
            )
    r = grid.r_nodes()[:, None]
    z = grid.z_nodes()[None, :]
    w = quadrature_weights(grid)
    vals = np.zeros(grid.shape)
    for rg in rings:
        if rg.kappa == 0.0:
            continue
        bump = (rg.kappa / rg.r0) * rg.eps**-2 * mollifier_profile(
            (r - rg.r0) / rg.eps, (z - rg.z0) / rg.eps
        )
        # sampled at the nodes, the bump carries kappa times a factor set
        # by eps/h alone (1.0028 at eps = 4h), which no refinement at fixed
        # eps/h removes: scale it to circulation kappa.  A sum that is not
        # finite is left to the run's overflow checks.
        with np.errstate(over="ignore"):
            circulation = float(np.sum(w * bump))
        if np.isfinite(circulation) and circulation != 0.0:
            bump *= rg.kappa / circulation
        vals += bump
    return ScalarFieldRZ(grid, vals)


def quadrature_weights(grid, alpha=0):
    """int_cell r^(1+alpha) dr times the z trapezoid weight, per node: the
    weights of every norm, moment and pairing over the grid."""
    return (grid.r_cell_measure_alpha(alpha)[:, None]
            * grid.z_weights()[None, :])


def norm_lp_3d(f, p):
    """L^p norm over R^3 of the axisymmetric scalar f (p in [1, inf])."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError("norm_lp_3d requires p >= 1")
    w = quadrature_weights(f.grid)
    total = 2.0 * np.pi * np.sum(w * np.abs(f.values) ** p)
    return float(total ** (1.0 / p))


def weighted_moment(f, alpha):
    """2 pi int |f| r^alpha r dr dz, for alpha in {-1, 0, 1, 2}.

    The axis cell uses the exact cell integral of r^(1+alpha), so alpha = 0
    coincides with norm_lp_3d(f, 1) identically.
    """
    if alpha not in (-1, 0, 1, 2):
        raise ValueError("weighted_moment supports alpha in {-1, 0, 1, 2}")
    w = quadrature_weights(f.grid, alpha)
    return float(2.0 * np.pi * np.sum(w * np.abs(f.values)))


def signed_momentum_z(eta):
    """z-momentum 2 pi int eta r^2 r dr dz (signed)."""
    w = quadrature_weights(eta.grid, 2)
    return float(2.0 * np.pi * np.sum(w * eta.values))


def weighted_centroid_z(eta):
    """Momentum-weighted height: int z r^2 eta dmu / int r^2 eta dmu."""
    w = quadrature_weights(eta.grid, 2)
    den = np.sum(w * eta.values)
    if den == 0.0:
        return float("nan")
    num = np.sum(w * eta.values * eta.grid.z_nodes()[None, :])
    return float(num / den)


_HEADER_SIZE = 8 + 8 + 3 * 8


def save_field(f, path):
    """Write the flat binary snapshot layout (little-endian header + values).
    On a little-endian host the values are written from f's own buffer,
    without a copy."""
    with open(path, "wb") as fh:
        fh.write(f.grid.header_bytes())
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").data)


def load_field(path):
    """Read a snapshot written by save_field, straight into the array the
    field keeps."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_SIZE)
        if len(head) != _HEADER_SIZE:
            raise SnapshotFormatError(f"{path}: truncated header")
        nr, nz, r_max, z_min, z_max = struct.unpack("<qqddd", head)
        if not (8 <= nr <= 10**6 and 8 <= nz <= 10**6) or not np.isfinite(
            [r_max, z_min, z_max]
        ).all() or r_max <= 0 or z_min >= z_max:
            raise SnapshotFormatError(f"{path}: implausible header fields")
        expect = (nr + 1) * (nz + 1) * 8
        # the file's size first, so that a damaged header allocates nothing
        size = os.fstat(fh.fileno()).st_size - _HEADER_SIZE
        if size == expect:
            vals = np.empty((nr + 1, nz + 1), dtype="<f8")
            # past a full payload the file must be at its end
            size = fh.readinto(vals) + len(fh.read())
    if size != expect:
        raise SnapshotFormatError(
            f"{path}: payload is {size} bytes, expected {expect}"
        )
    if not _all_finite(vals):
        raise SnapshotFormatError(f"{path}: payload has non-finite values")
    grid = GridSpec(nr, nz, r_max, z_min, z_max)
    return ScalarFieldRZ(grid, vals)
