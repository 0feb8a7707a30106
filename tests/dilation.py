"""The co-dilation of a field, for the scaling tests: no ringlab code path
dilates a field, so it lives with the tests."""

from dataclasses import replace

from ringlab import fields as fl


def dilate_field(f, lam, scale_power=3):
    """Co-dilated copy: grid shrunk by lam, values scaled by lam^scale_power.

    Node values map one-to-one, so discrete scaling identities are exact in
    floating point when lam is a power of two.  scale_power=3 is the
    eta-scaling of the Navier-Stokes dilation u -> lam u(lam x).
    """
    g = f.grid
    g2 = replace(g, r_max=g.r_max / lam, z_min=g.z_min / lam,
                 z_max=g.z_max / lam)
    return fl.ScalarFieldRZ(g2, lam**scale_power * f.values)
