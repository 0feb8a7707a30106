"""Velocity recovery u = (u_r, u_z) from omega_theta = r * eta.

Two independent routes:

  * direct kernel quadrature (oracle, pointwise): stream_direct and
    velocity_direct share one loop over the points, which sums
    kernel.kernel_g or kernel.kernel_velocity against the trapezoid
    weights w_j of the sources, the kernel evaluated over them in blocks
    of _BLOCK_PAIRS into one reused array and summed by one dot product
    per point.  Of the n nonzero nodes off the axis, with S = sum |w_j|,
    the sources are those with |w_j| > u S / n, u = 2^-53 (_source_arrays):
    the dropped weights sum to at most u S, so no point's sum moves by
    more than u S max_j |K(x, x_j)|, inside the rounding bound the full
    dot product already carries (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, sec. 3.1).  Under explicit
    diffusion every node is nonzero, and at small t most of them carry
    weights far below that.  When S is not finite (a NaN or inf weight,
    or a sum that overflows) every nonzero node is a source, so
    non-finite data reach the sums unchanged; so too when S is zero
    because every weight underflowed.  The largest weight is always a
    source.  When the cell containing the point holds a source, that
    source is left out and replaced by the exact integral of the kernel's
    log singularity over the cell; a cell whose node was dropped
    contributes neither;
  * an elliptic solve of the stream function,

        L psi = psi_rr - (1/r) psi_r + psi_zz = -r omega_theta,

    written in the flux form r d/dr((1/r) dpsi/dr) + psi_zz so the system is
    symmetrizable, with psi = 0 on the axis and the free-space values of psi
    as Dirichlet data on the three outer edges, followed by

        u_r = -psi_z / r,   u_z = psi_r / r.

The edge values come from James's method (J. Comput. Phys. 25:71-93,
1977).  Divided by r the operator is self-adjoint,

    (1/r) L psi = d_r((1/r) psi_r) + d_z((1/r) psi_z),

and the ring kernel G(x, x') = sqrt(r r') F(s) / (2 pi) obeys
L_x G(x, x') = -r delta(x - x').  Let psi0 solve the same problem with
psi0 = 0 on the edges, extended by zero outside the box.  Its normal
derivative jumps across the edges, so psi_free - psi0 is the field of a
ring sheet of strength -(1/r') d_n psi0 on the edges, and Green's second
identity gives on the edges (where psi0 = 0)

    psi_free(x_b) = -oint (1/r') G(x_b, x') d_n psi0(x') ds'.

The axis contributes nothing: psi0 and G both vanish like r'^2 there.  The
discrete version (BoundaryOperator) is one zero-edge solve, a one-sided
second-order normal derivative on the edge nodes and an edge-by-edge
matrix held as its distinct blocks.  Its z differences come from node
indices, one rounding of (j' - j) dz per pair, so the symmetries of G on
the edges hold bit for bit and all of them are used: G(x, x') = G(x', x),
top-top = bottom-bottom and top-bottom = bottom-top, the top rows against
the right column are the bottom ones reversed in j (the mirror fold), and
the right-right block is Toeplitz in |j - j'| (the Toeplitz fold).  Each
distinct kernel value is computed once, 104,117 kernel pairs at 200x320,
and kept once: the bottom rows against the bottom, top and right columns
and the right-right lags.  apply() forms the other blocks' products from
these by the same symmetries (see BoundaryOperator).  The Dirichlet data
have one layout, an array of the grid's shape: BoundaryOperator.apply
returns it (zero off the outer edges and on the axis), and
solve_stream_elliptic reads only its outer edges.

The elliptic system is solved by one direct method: a DST-I in z
diagonalizes the z second difference, and each z mode leaves a tridiagonal
system in r, solved by Thomas sweeps (Buzbee, Golub & Nielson, SIAM J.
Numer. Anal. 7:627-656, 1970).  The radial coefficients and the Thomas
elimination factors of every mode depend only on the grid: they are
computed once per GridSpec (the last two grids are cached) and kept
read-only.

The DST-I of a row x of length n, DST-I(x)_k = 2 sum_j x_j
sin(pi (j+1)(k+1) / (n+1)), is an rfft of its odd extension
[0, x, 0, -x[::-1]] (length 2(n+1)): the imaginary part of bins 1..n is
-DST-I(x).  The solve never flips that sign back.  It is linear, and each
of its steps is sign-symmetric in IEEE arithmetic, so the two transforms
cancel the two signs exactly.  A solve's scratch is cached per block shape
(the last two shapes): the extension block, where the right-hand side with
its edge terms starts and the sweeps run between the transforms on row
views in the same cache entry; and the complex spectrum.  The spectrum,
2 (nr - 1)(nz + 1) doubles, is dead outside the transforms, so it stages
-x[::-1] for each rfft (numpy buffers a negation from ext into ext: about
400 more page faults per ring-evolve run) and holds the residual check's
two blocks, formed by contiguous passes at the flat offsets of the
neighbours, then the right-hand side, formed again from omega at the tail
of the spent block, and the residual in its place.  A solve into its
caller's array thus allocates no grid-sized array, only numpy's ufunc
buffers (at most 8192 doubles per operand).  All this scratch is shared by
every solve on the grid, so a solve must not be shared across threads, as
StepOperator.apply must not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fields import ConfigurationError, GridSpec
from . import kernel as _kernel

__all__ = [
    "StreamField",
    "VelocityFieldRZ",
    "SolverError",
    "stream_direct",
    "velocity_direct",
    "BoundaryOperator",
    "solve_stream_elliptic",
    "velocity_from_stream",
    "velocity_sup",
]


# (point, source) pairs per kernel call, where BoundaryOperator fills its
# blocks and where the direct quadrature sums over the sources.  Measured
# on first builds at 200x320 and 400x640: larger blocks spend more on fresh
# memory for the kernel's temporaries, smaller ones more on its fixed cost
# per call.
_BLOCK_PAIRS = 8192

# u = 2^-53, the unit roundoff of a double: the direct quadrature drops the
# sources whose weights together are below what its sum can resolve
_UNIT_ROUNDOFF = 2.0 ** -53

# largest relative residual ||L psi - rhs|| / ||rhs|| a stream solve may
# return; the direct solve stays below 1e-12 on the test grids
RESIDUAL_GATE = 1e-8


class SolverError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(f"{message} (relative residual {residual:.3e})")
        self.residual = residual


@dataclass
class StreamField:
    """psi on the grid; residual is the solve's relative residual
    ||L psi - rhs|| / ||rhs|| (0 when rhs is zero)."""

    grid: GridSpec
    psi: np.ndarray = field(repr=False)
    residual: float = 0.0

    def __post_init__(self):
        self.psi = np.ascontiguousarray(self.psi, dtype=float)
        if self.psi.shape != self.grid.shape:
            raise ConfigurationError("psi shape does not match grid")


@dataclass
class VelocityFieldRZ:
    grid: GridSpec
    ur: np.ndarray = field(repr=False)
    uz: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.ur = np.ascontiguousarray(self.ur, dtype=float)
        self.uz = np.ascontiguousarray(self.uz, dtype=float)
        if self.ur.shape != self.grid.shape or self.uz.shape != self.grid.shape:
            raise ConfigurationError("velocity shape does not match grid")


def _source_arrays(omega):
    """Source nodes of the direct quadrature with their trapezoid dr*dz
    weights w, in row-major order: of the n nonzero nodes off the axis,
    those with |w| > u S / n, S = sum |w|, u = 2^-53; all n when S is not
    finite, or zero because every weight underflowed."""
    g = omega.grid
    wz = g.z_weights()
    wr = np.full(g.nr + 1, g.dr)
    wr[0] = wr[-1] = 0.5 * g.dr
    ii, jj = np.nonzero(omega.values)
    keep = ii > 0  # omega = r eta vanishes on the axis column
    ii, jj = ii[keep], jj[keep]
    w = omega.values[ii, jj] * wr[ii] * wz[jj]
    a = np.abs(w)
    with np.errstate(over="ignore"):
        total = a.sum()
    if 0.0 < total < np.inf:
        keep = a > _UNIT_ROUNDOFF * total / len(w)
        ii, jj, w = ii[keep], jj[keep], w[keep]
    r = g.r_nodes()[ii]
    z = g.z_nodes()[jj]
    return ii, jj, r, z, w


def _log_rect_integral(x0, x1, y0, y1):
    """int of ln sqrt(x^2+y^2) over [x0,x1] x [y0,y1] (origin allowed inside).

    Uses the primitive P with d2P/dxdy = ln(x^2 + y^2):
    P = xy (ln(x^2+y^2) - 3) + x^2 atan(y/x) + y^2 atan(x/y).
    """

    def P(x, y):
        if x == 0.0 or y == 0.0:
            return 0.0
        q = x * x + y * y
        return (x * y * (np.log(q) - 3.0) + x * x * np.arctan(y / x)
                + y * y * np.arctan(x / y))

    return 0.5 * (P(x1, y1) - P(x0, y1) - P(x1, y0) + P(x0, y0))


def _self_cell(point, grid):
    """Index of the grid node whose cell contains the point, or None."""
    rb, zb = point
    i = int(round(rb / grid.dr))
    j = int(round((zb - grid.z_min) / grid.dz))
    if 1 <= i <= grid.nr and 0 <= j <= grid.nz:
        ri = i * grid.dr
        zj = grid.z_min + j * grid.dz
        if abs(rb - ri) <= 0.5 * grid.dr and abs(zb - zj) <= 0.5 * grid.dz:
            return i, j
    return None


def _cell_log_integral(point, grid, cell, c):
    """int of ln(8 rb / d) - c over the cell of the grid node cell = (i, j),
    with d the distance to the point (rb, zb)."""
    rb, zb = point
    ri = cell[0] * grid.dr
    zj = grid.z_min + cell[1] * grid.dz
    x0 = ri - 0.5 * grid.dr - rb
    x1 = ri + 0.5 * grid.dr - rb
    y0 = zj - 0.5 * grid.dz - zb
    y1 = zj + 0.5 * grid.dz - zb
    area = grid.dr * grid.dz
    return (area * (np.log(rb) + np.log(8.0) - c)
            - _log_rect_integral(x0, x1, y0, y1))


def _kernel_into(out, kernel, rb, zb, r, z):
    """kernel(rb, zb, r, z) into out, whose last axis runs over the
    sources, at most _BLOCK_PAIRS sources per kernel call.  The kernel is
    called at least once, so that it checks the point even without
    sources."""
    for start in range(0, max(len(r), 1), _BLOCK_PAIRS):
        stop = start + _BLOCK_PAIRS
        out[..., start:stop] = kernel(rb, zb, r[start:stop], z[start:stop])


def _direct_quadrature(omega_theta, points, kernel, log_weight, log_c):
    """Trapezoid sums of kernel(rb, zb, r', z') omega_theta(r', z') at
    each point (rb > 0), one row per point; log_weight(rb) has one entry
    per kernel component.

    At distance d from the point the kernel is log_weight(rb) (ln(8 rb / d)
    - log_c) plus terms odd across a cell.  So the source cell that contains
    the point is left out of the sum, and the integral of that log part
    over the cell is added in its place.  The kernel is evaluated in blocks
    into one reused array per call, and summed by one dot product per point.
    """
    g = omega_theta.grid
    ii, jj, r, z, w = _source_arrays(omega_theta)
    flat = ii * (g.nz + 1) + jj     # ascending: np.nonzero is row-major
    shape = np.shape(log_weight(1.0))
    size = int(np.prod(shape))
    buf = np.empty(size * len(r))
    out = np.empty((len(points),) + shape)
    for p, (rb, zb) in enumerate(points):
        cell = _self_cell((rb, zb), g)
        key = -1 if cell is None else cell[0] * (g.nz + 1) + cell[1]
        k = np.searchsorted(flat, key)
        # the cell is left out only when its node is one of the sources
        if k == len(flat) or flat[k] != key:
            vals = buf.reshape(shape + (len(r),))
            _kernel_into(vals, kernel, rb, zb, r, z)
            out[p] = vals @ w
            continue
        vals = buf[:size * (len(r) - 1)].reshape(shape + (len(r) - 1,))
        _kernel_into(vals[..., :k], kernel, rb, zb, r[:k], z[:k])
        _kernel_into(vals[..., k:], kernel, rb, zb, r[k + 1:], z[k + 1:])
        out[p] = (vals @ np.delete(w, k)
                  + omega_theta.values[cell] * log_weight(rb)
                  * _cell_log_integral((rb, zb), g, cell, log_c))
    return out


def _points(points):
    """The (r, z) points as an (n, 2) float array; one pair is one point,
    and an empty list no point."""
    return np.reshape(np.asarray(points, dtype=float), (-1, 2))


def stream_direct(omega_theta, points):
    """psi at the given (r, z) points by direct quadrature of the G kernel;
    psi = 0 on the axis.  G ~ (rb / 2 pi)(ln(8 rb / d) - 2) at the point.
    Returns shape (n,) for n points."""
    pts = _points(points)
    out = np.zeros(len(pts))
    off = pts[:, 0] != 0.0
    out[off] = _direct_quadrature(omega_theta, pts[off], _kernel.kernel_g,
                                  lambda rb: rb / (2.0 * np.pi), 2.0)
    return out


def velocity_direct(omega_theta, points):
    """(u_r, u_z) at the given points by direct kernel quadrature.

    K_r and the first K_z term are odd across the self cell; the even part
    of K_z is (F + 1)/(4 pi rb) ~ (ln(8 rb / d) - 1)/(4 pi rb), since
    F - 2 xi2 F' -> F + 1 as xi2 -> 0.  Returns shape (n, 2) for n points.
    """
    pts = _points(points)
    if np.any(pts[:, 0] <= 0.0):
        raise ValueError("velocity_direct needs r > 0 evaluation points")
    return _direct_quadrature(
        omega_theta, pts, _kernel.kernel_velocity,
        lambda rb: np.array([0.0, 1.0 / (4.0 * np.pi * rb)]), 1.0)


def _fill_g(block, counts, rb, r, z):
    """Raw G(x_b, x'_c) into block[b, c] for c < counts[b]: row b is the
    bottom-edge point (rb[b], 0), column c the source (r[c], z[c]), where
    z[c] = j' dz is one rounding of the source's z index times dz.  The
    pairs go in row order, at most _BLOCK_PAIRS of them per kernel_g
    call."""
    begins = np.cumsum(counts) - counts
    total = int(np.sum(counts))
    flat = block.ravel()
    for start in range(0, total, _BLOCK_PAIRS):
        stop = min(start + _BLOCK_PAIRS, total)
        # columns lo .. hi - 1 of row b fall in this block
        lo = np.clip(start - begins, 0, counts)
        hi = np.clip(stop - begins, 0, counts)
        b = np.flatnonzero(hi > lo)
        width = hi[b] - lo[b]
        c = np.arange(stop - start) + np.repeat(
            lo[b] - (np.cumsum(width) - width), width)
        b = np.repeat(b, width)
        flat[b * block.shape[1] + c] = _kernel.kernel_g(rb[b], 0.0, r[c],
                                                        z[c])


class BoundaryOperator:
    """Free-space psi on the outer edges by James's method.

    The screening density q = -d_n psi0 lives on the edge nodes that are
    neither corners nor on the axis: the bottom and top rows at
    i = 1..nr-1 (line weight dr) and the right column at j = 1..nz-1 (line
    weight dz).  Its one-sided second-order normal derivative reads the
    first and second inward neighbours of each of those nodes.  The edge
    matrix has one row per edge node off the axis; row b holds
    h (1/r') G(x_b, x') over the density nodes, i.e. the punctured
    trapezoid rule; at x' = x_b the log singularity of G is integrated by
    the zeta correction, which gives the weight
    (r_b/2pi) h [ln(8 r_b) - 2 - ln(h/(2pi))] before the 1/r'.

    z is measured from the bottom edge in whole steps: every pair's z
    difference is one rounding of (j' - j) dz, from the node indices, as
    G(r_b, 0, r', (j' - j) dz).  G depends on it only through its square,
    so four symmetries are exact in IEEE arithmetic:
      * G(x, x') = G(x', x): in xi2 the squared differences, the sum and
        the product r_b r' do not depend on the order of the two points,
        and neither does sqrt(r_b r');
      * the top rows against the bottom and top columns repeat the bottom
        rows against the top and bottom columns: the index differences of
        bottom-bottom and top-top pairs are 0, those of bottom-top and
        top-bottom pairs +-nz;
      * the top rows against the right column are the bottom rows against
        it reversed in j: top row against j' and bottom row against nz - j'
        have index differences j' - nz and nz - j';
      * the right-right block is Toeplitz: r_b = r' = r_nr and the z
        difference depends on |j - j'| alone, so it takes one G per lag.
    So the operator keeps only the matrix's distinct blocks.  Their rows
    are the bottom edge nodes i = 1..nr (the corner last), and the columns
    of _bb and _bt the bottom and top density nodes i' = 1..nr-1:
      * _bb, bottom rows against bottom columns, scaled by dr/r' (_dr_r)
        with the zeta self-weights on the diagonal;
      * _bt, bottom rows against top columns, scaled by dr/r';
      * _br, the raw G of the bottom rows against the right column, whose
        common scale dz/r_nr is the one number _dz_r;
      * _lags, the right-right block's 2nz - 3 values by lag j' - j from
        -(nz - 2), scaled by dz/r_nr, the right column's zeta at lag 0.
    That is 1.10 MiB at 200x320, against 3.93 MiB for the dense 719 x 717
    matrix.  The build calls kernel_g only for the pairs whose G is not
    already known bit for bit, at most _BLOCK_PAIRS pairs per call (so its
    fixed cost is paid once per block, not once per row): 104,117 pairs for
    the 515,523 entries at 200x320.  The raw G fills _bb below the diagonal,
    _bt on and below it, _br in full and the lags; the upper triangles of
    the squares of _bb and _bt are transposed copies.  Against z
    differences taken from node coordinates, G(r_b, z_j, r', z_j'), 12% of
    the entries move at 200x320 (r_max 4, z in [-3, 3]), by at most 7.0e-15
    relative.

    apply() is one zero-edge solve and one gather for q, then the edge
    values from the blocks, written into the grid-shaped array: with
    Q = [q_b q_t] the bottom and top densities as two columns, _bb Q and
    _bt Q give the bottom and top rows against them; _br [c q_r, c q_r
    reversed], c = dz/r_nr, their rows against the right column (the
    mirror fold); the right rows against Q are the two columns of
    _br[:nr-1]^T (dr/r') Q, the second reversed in j; and the right-right
    block is one np.convolve of the lags with q_r (the Toeplitz fold).
    The products sum in another order than one dense matvec, so the edge
    values differ from it by rounding only.
    """

    def __init__(self, grid):
        self.grid = g = grid
        self.residual = None
        s = g.nz + 1                    # node (i, j) has flat index i s + j
        m, n = g.nr - 1, g.nz - 1
        i = np.arange(1, g.nr + 1)
        j = np.arange(1, g.nz)
        # the density columns: bottom 0..m-1, top m..2m-1, right 2m..
        cols = np.concatenate([i[:-1] * s, i[:-1] * s + g.nz, g.nr * s + j])
        step = np.concatenate([np.full(m, 1), np.full(m, -1), np.full(n, -s)])
        self._inward = np.stack([cols + step, cols + 2 * step])
        self._two_hn = np.concatenate([np.full(2 * m, 2.0 * g.dz),
                                       np.full(n, 2.0 * g.dr)])
        h = np.concatenate([np.full(2 * m, g.dr), np.full(n, g.dz)])
        r = g.r_nodes()
        rs, zs = r[cols // s], (cols % s) * g.dz
        scale = h / rs
        self._dr_r, self._dz_r = scale[:m], scale[2 * m]
        h_2pi = h / (2.0 * np.pi)
        zeta = h_2pi * (np.log(8.0 * rs) - 2.0 - np.log(h_2pi))
        # the bottom rows i = 1..nr, all at j = 0: raw G, each value
        # computed once, against the bottom columns below the diagonal,
        # against the top ones on and below it and against the right column
        nb = g.nr
        rb, k = r[i], np.arange(nb)
        bb = self._bb = np.zeros((nb, m))
        bt = self._bt = np.zeros((nb, m))
        br = self._br = np.empty((nb, n))
        _fill_g(bb, k, rb, rs[:m], zs[:m])
        _fill_g(bt, np.minimum(k + 1, m), rb, rs[m:2 * m], zs[m:2 * m])
        _fill_g(br, np.full(nb, n), rb, rs[2 * m:], zs[2 * m:])
        # G(x, x') = G(x', x) bit for bit: the upper triangles of the two
        # squares are their lower ones transposed
        upper = np.triu_indices(m, 1)
        for square in (bb[:m], bt[:m]):
            square[upper] = square.T[upper]
        bb *= self._dr_r
        bt *= self._dr_r
        np.fill_diagonal(bb, zeta[:m])
        # the right-right block from one G per lag 1..n-1, scaled, with the
        # right column's zeta at lag 0
        lags = self._lags = np.empty(2 * n - 1)
        r_edge = r[g.nr]
        _kernel_into(lags[n:], _kernel.kernel_g, r_edge, 0.0,
                     np.full(n - 1, r_edge), np.arange(1, n) * g.dz)
        lags[n:] *= self._dz_r
        lags[n - 1] = zeta[2 * m]
        lags[:n - 1] = lags[n:][::-1]

    def apply(self, omega_theta, out=None):
        """psi's Dirichlet data in out (see solve_stream_elliptic) or a new
        array: the free-space psi on the outer edges, zero elsewhere.  Its
        zero-edge solve runs in that array, and the solve's relative
        residual is kept as self.residual (None before the first call)."""
        out = np.empty(self.grid.shape) if out is None else out
        out.fill(0.0)
        self.residual = solve_stream_elliptic(omega_theta, boundary=out,
                                              out=out).residual
        first, second = out.ravel()[self._inward]
        q = (4.0 * first - second) / self._two_hn
        m = len(self._dr_r)
        qbt = q[:2 * m].reshape(2, m).T         # columns q_b, q_t
        qr = q[2 * m:]
        bb = self._bb @ qbt
        bt = self._bt @ qbt
        cqr = self._dz_r * qr
        fold = self._br @ np.stack([cqr, cqr[::-1]], axis=1)
        cross = self._br[:m].T @ (self._dr_r[:, None] * qbt)
        out.fill(0.0)
        out[1:, 0] = bb[:, 0] + bt[:, 1] + fold[:, 0]
        out[1:, -1] = bt[:, 0] + bb[:, 1] + fold[:, 1]
        out[-1, 1:-1] = (cross[:, 0] + cross[::-1, 1]
                         + np.convolve(self._lags, qr, "valid"))
        return out


@functools.lru_cache(maxsize=2)
def _default_boundary(grid):
    return BoundaryOperator(grid)


class _GridFactors(NamedTuple):
    aW: np.ndarray          # radial coefficients of rows i = 1..nr-1
    aE: np.ndarray
    aW_rows: tuple          # aW as Python floats, for the row loop
    cp: np.ndarray          # Thomas factors, rows i, columns DST modes
    denom: np.ndarray
    cp_rows: tuple          # the rows of cp and denom as views
    denom_rows: tuple


@functools.lru_cache(maxsize=2)
def _grid_factors(grid):
    """The grid-only part of the elliptic system: the radial coefficients
    and the Thomas elimination factors of every DST mode, which the forward
    sweep would otherwise recompute at each solve.  Arrays are read-only."""
    r = grid.r_nodes()
    dr = grid.dr
    i = np.arange(1, grid.nr)
    aW = r[i] / ((r[i] - 0.5 * dr) * dr * dr)
    aE = r[i] / ((r[i] + 0.5 * dr) * dr * dr)
    k = np.arange(1, grid.nz)
    lam = (2.0 * np.cos(np.pi * k / grid.nz) - 2.0) / grid.dz**2
    diag = -(aW + aE)[:, None] + lam[None, :]
    cp = np.empty_like(diag)
    denom = np.empty_like(diag)
    denom[0] = diag[0]
    cp[0] = aE[0] / diag[0]
    for i in range(1, len(aW)):
        denom[i] = diag[i] - aW[i] * cp[i - 1]
        cp[i] = aE[i] / denom[i]
    for a in (aW, aE, cp, denom):
        a.flags.writeable = False
    return _GridFactors(aW, aE, tuple(aW.tolist()), cp, denom, tuple(cp),
                        tuple(denom))


def _apply_operator(grid, psi):
    """The discrete elliptic operator on the interior block, as a view into
    scratch that the next call or solve on the grid overwrites.  It is
    formed by contiguous passes over rows 1..nr-1 and all columns of
    psi.ravel(), at the offsets -(nz + 1), +(nz + 1), +1 and -1 of the
    neighbours; the edge columns of that range are dropped.  Its two blocks
    of (nr - 1) (nz + 1) doubles are the memory of the grid's DST spectrum,
    which holds exactly that many, dead between solves."""
    s = grid.nz + 1
    n = (grid.nr - 1) * s
    f = _grid_factors(grid)
    p = psi.ravel()

    def rows(start):
        return p[start:start + n].reshape(-1, s)

    blocks = _dst_scratch(grid.nr - 1, grid.nz - 1).spec.view(float)
    interior, term = blocks.reshape(2, -1, s)
    mid = rows(s)
    # ((aW W + aE E) - (aW + aE) P) + ((N - 2 P) + S) / dz^2
    np.multiply(f.aW[:, None], rows(0), out=interior)
    np.multiply(f.aE[:, None], rows(2 * s), out=term)
    interior += term
    np.multiply((f.aW + f.aE)[:, None], mid, out=term)
    interior -= term
    lap = np.multiply(2.0, mid, out=term)
    np.subtract(rows(s + 1), lap, out=lap)
    lap += rows(s - 1)
    lap /= grid.dz ** 2
    interior += lap
    return interior[:, 1:-1]


def _assemble_rhs(grid, omega_values, out=None):
    r = grid.r_nodes()
    rhs = np.multiply(r[1:-1, None], omega_values[1:-1, 1:-1], out=out)
    return np.negative(rhs, out=rhs)


def _residual_norms(grid, psi, omega_values):
    """(||rhs||, ||_apply_operator(grid, psi) - rhs||) by _norm, for rhs =
    -r omega.  Once the operator is applied, its second block is spent: rhs
    is formed contiguous at its end and the residual then overwrites it, so
    both live there until the next call or solve on the grid."""
    applied = _apply_operator(grid, psi)
    spent = _dst_scratch(grid.nr - 1, grid.nz - 1).spec.view(float).ravel()
    rhs = _assemble_rhs(grid, omega_values, out=spent[
        spent.size - applied.size:].reshape(applied.shape))
    rhs_norm = _norm(rhs)
    return rhs_norm, _norm(np.subtract(applied, rhs, out=rhs))


def _norm(x):
    """The 2-norm of the 2-D array x, its sum of squares in einsum's loops,
    which no BLAS thread count changes; max|x| ||x / max|x||| where that
    sum overflows (entries past about 1e154), max|x| if that is inf or NaN."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(np.einsum("ij,ij->", x, x)))
    if math.isfinite(norm):
        return norm
    top = float(np.max(np.abs(x)))
    return top * _norm(x / top) if math.isfinite(top) else top


class _DstScratch(NamedTuple):
    ext: np.ndarray         # rows [0, x, 0, -x[::-1]], the odd extension
    spec: np.ndarray        # rfft of ext along rows
    rows: tuple             # the rows of x as views, for the Thomas sweeps
    row: np.ndarray         # one row of scratch for the sweeps

    @property
    def x(self):
        """The block x inside ext, columns 1..n."""
        return self.ext[:, 1:self.spec.shape[1] - 1]


@functools.lru_cache(maxsize=2)
def _dst_scratch(rows, n):
    """Writable scratch of _neg_dst1 and the sweeps for a (rows, n) block.
    Columns 0 and n + 1 of ext are zero and are never written; the row
    views live in the same cache entry as the block they view."""
    ext = np.zeros((rows, 2 * (n + 1)))
    return _DstScratch(ext, np.empty((rows, n + 2), dtype=complex),
                       tuple(ext[:, 1:n + 1]), np.empty(n))


def _neg_dst1(scratch):
    """-DST-I along the rows of scratch.x, as a view into scratch.spec: the
    imaginary part of bins 1..n of the rfft of the odd extension."""
    n = scratch.spec.shape[1] - 2
    ext = scratch.ext
    staged = scratch.spec.view(float).reshape(-1)[:ext.size // 2 - len(ext)]
    ext[:, n + 2:] = np.negative(ext[:, n:0:-1], out=staged.reshape(-1, n))
    np.fft.rfft(ext, axis=1, out=scratch.spec)
    return scratch.spec.imag[:, 1:n + 1]


def _solve_fft(grid, rhs_eff, out):
    """Direct solve into out: DST-I in z, then Thomas sweeps in r with the
    cached factors, vectorized over modes and in place on the transform,
    one ufunc call per row and step.  Both transforms return -DST-I; the
    signs cancel exactly."""
    f = _grid_factors(grid)
    sc = _dst_scratch(*rhs_eff.shape)
    x, t = sc.rows, sc.row
    sc.x[...] = rhs_eff
    sc.x[...] = _neg_dst1(sc)
    np.divide(x[0], f.denom_rows[0], out=x[0])
    for xi, prev, a, d in zip(x[1:], x, f.aW_rows[1:], f.denom_rows[1:]):
        np.multiply(a, prev, out=t)
        np.subtract(xi, t, out=xi)
        np.divide(xi, d, out=xi)
    for xi, following, c in zip(x[-2::-1], x[:0:-1], f.cp_rows[-2::-1]):
        np.multiply(c, following, out=t)
        np.subtract(xi, t, out=xi)
    np.divide(_neg_dst1(sc), 2.0 * grid.nz, out=out)


def solve_stream_elliptic(omega_theta, *, boundary=None, method="fft",
                          out=None):
    """Stream function for a compactly supported omega_theta, by the direct
    method (DST-I in z, Thomas sweeps in r).

    boundary: psi's Dirichlet data as an array of the grid's shape, of
    which only the three outer edges are read; its axis row and interior
    are ignored (psi = 0 on the axis).  None takes the free-space edge
    values from BoundaryOperator.  out: a C-contiguous float array of the
    grid's shape that psi is solved into, boundary itself allowed but not
    omega_theta's values, which the residual check reads after the solve;
    None solves into a new one.  method: "fft" is the only accepted value;
    the keyword stays because perfbench/route_gap.py passes it.  Raises
    ConfigurationError when an outer edge of boundary is not finite, and
    SolverError when the norm of the right-hand side is not finite or the
    relative residual exceeds RESIDUAL_GATE or is not finite.  Each norm
    is taken unscaled, and again scaled by its largest entry only when it
    overflows (_norm).
    """
    if method != "fft":
        raise ValueError(f"unknown method {method!r}")
    g = omega_theta.grid
    if boundary is None:
        boundary = _default_boundary(g).apply(omega_theta)
    elif np.shape(boundary) != g.shape:
        raise ConfigurationError("boundary shape does not match grid")

    if out is not None and np.may_share_memory(out, omega_theta.values):
        raise ValueError("out must be apart from omega_theta's values")
    psi = np.empty(g.shape) if out is None else out
    psi[0] = 0.0
    psi[1:, 0] = boundary[1:, 0]
    psi[1:, -1] = boundary[1:, -1]
    psi[-1, 1:-1] = boundary[-1, 1:-1]
    if not all(np.all(np.isfinite(edge))
               for edge in (psi[1:, 0], psi[1:, -1], psi[-1, 1:-1])):
        raise ConfigurationError("boundary has non-finite values on the "
                                 "outer edges")

    # the right-hand side -r omega is formed twice from omega, which the
    # solve leaves intact: here, into the extension block, where the edge
    # terms join it, and after the solve by _residual_norms
    rhs_eff = _assemble_rhs(g, omega_theta.values,
                            out=_dst_scratch(g.nr - 1, g.nz - 1).x)
    rhs_eff[:, 0] -= psi[1:-1, 0] / g.dz**2
    rhs_eff[:, -1] -= psi[1:-1, -1] / g.dz**2
    rhs_eff[-1, :] -= _grid_factors(g).aE[-1] * psi[-1, 1:-1]
    _solve_fft(g, rhs_eff, psi[1:-1, 1:-1])
    rhs_norm, res = _residual_norms(g, psi, omega_theta.values)
    # negated, so that a residual or rhs norm that is NaN fails the gate too,
    # and an rhs norm that is inf fails it whatever the residual
    if not math.isfinite(rhs_norm) or (
            rhs_norm != 0.0 and not (res <= RESIDUAL_GATE * rhs_norm)):
        raise SolverError("direct stream solve residual too large",
                          res / rhs_norm)
    return StreamField(g, psi, res / rhs_norm if rhs_norm > 0.0 else 0.0)


def velocity_from_stream(psi_field, out=None):
    """Centered differences of psi; at the axis u_r = 0 and u_z from the
    psi ~ (1/2) u_z(0, z) r^2 limit: u_z(0, z) = 2 psi(dr, z)/dr^2.
    Written into the VelocityFieldRZ out when given, else a new one."""
    g = psi_field.grid
    psi = psi_field.psi
    r = g.r_nodes()
    if out is None:
        out = VelocityFieldRZ(g, np.empty(g.shape), np.empty(g.shape))
    ur, uz = out.ur, out.uz

    # u_r = -psi_z / r, as (a - b) / (-c): IEEE division is sign-symmetric
    d = np.subtract(psi[1:, 2:], psi[1:, :-2], out=ur[1:, 1:-1])
    np.divide(d, -2.0 * g.dz * r[1:, None], out=d)
    ur[1:, 0] = -(-3.0 * psi[1:, 0] + 4.0 * psi[1:, 1] - psi[1:, 2]) / (
        2.0 * g.dz * r[1:])
    ur[1:, -1] = -(3.0 * psi[1:, -1] - 4.0 * psi[1:, -2] + psi[1:, -3]) / (
        2.0 * g.dz * r[1:])
    ur[0, :] = 0.0

    # u_z = psi_r / r
    d = np.subtract(psi[2:, :], psi[:-2, :], out=uz[1:-1, :])
    np.divide(d, 2.0 * g.dr * r[1:-1, None], out=d)
    uz[0, :] = 2.0 * psi[1, :] / g.dr**2
    uz[-1, :] = (3.0 * psi[-1, :] - 4.0 * psi[-2, :] + psi[-3, :]) / (
        2.0 * g.dr * g.r_max)
    return out


def velocity_sup(u):
    """sup of |u| = sqrt(u_r^2 + u_z^2) over the nodes, the squares formed
    in blocks of _BLOCK_PAIRS nodes; np.max propagates a NaN."""
    ur, uz, b = u.ur.ravel(), u.uz.ravel(), _BLOCK_PAIRS
    return float(np.sqrt(np.max([
        np.max(np.square(ur[k:k + b]) + np.square(uz[k:k + b]))
        for k in range(0, ur.size, b)])))
