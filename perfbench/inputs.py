"""Seeded INI inputs for the benchmark workloads.

The template is a verbatim copy of docs/baseline.ini, so that the
benchmark's inputs do not move when the docs change.  Seed 0 reproduces it
line for line except for `t_end` and `snapshot_times`.  Any other seed
perturbs the ring's kappa, r0 and z0 by a few percent, well inside what
make_mollified_ring accepts: eps < r0/2, eps >= 4 max(dr, dz), and a 5 eps
margin to the outer edges.
"""

import hashlib
import random

BASELINE = """\
# reference single-ring run: circulation 1, radius 1, mollification 0.1
[grid]
nr = {nr}
nz = {nz}
r_max = 5.0
z_min = -4.0
z_max = 4.0

[rings]
ring1 = kappa={kappa} r0={r0} z0={z0} eps={eps}

[time]
t_end = {t_end}
cfl_advect = 0.8
cfl_diffuse = 0.45
snapshot_times = {snapshot_times}

[solver]
velocity_refresh = 8
method = fft
boundary_bin = auto
boundary_refresh = 4
record_every = 25
"""

# Grid and mollification at full size and at the self-test's tiny size.
# The tiny grid is the coarsest on which eps = 0.4 is resolved (eps >= 4 h)
# and still below r0/2.
FULL = {"nr": 200, "nz": 320, "eps": 0.1}
TINY = {"nr": 50, "nz": 80, "eps": 0.4}


def _fmt(x):
    """Shortest decimal that reads back as x (1.0 stays '1.0')."""
    return repr(float(x))


def _times(ts):
    return " ".join(_fmt(t) for t in ts)


def ring_params(seed):
    """(kappa, r0, z0) of the baseline ring; seed 0 is the docs ring."""
    if seed == 0:
        return 1.0, 1.0, 0.0
    rng = random.Random(seed)
    kappa = round(1.0 + rng.uniform(-0.03, 0.03), 4)
    r0 = round(1.0 + rng.uniform(-0.03, 0.03), 4)
    z0 = round(rng.uniform(-0.05, 0.05), 4)
    return kappa, r0, z0


def baseline_ini(seed, t_end, snapshot_times, tiny=False):
    shape = TINY if tiny else FULL
    kappa, r0, z0 = ring_params(seed)
    return BASELINE.format(
        nr=shape["nr"], nz=shape["nz"], eps=_fmt(shape["eps"]),
        kappa=_fmt(kappa), r0=_fmt(r0), z0=_fmt(z0),
        t_end=_fmt(t_end), snapshot_times=_times(snapshot_times))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()
