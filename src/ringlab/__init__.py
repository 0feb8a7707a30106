"""ringlab: numerical laboratory for axisymmetric swirl-free vortex-ring flows."""

from .fields import GridSpec, RingSpec, ScalarFieldRZ
from .biot_savart import StreamField, VelocityFieldRZ
from .evolve import SimConfig

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "RingSpec",
    "ScalarFieldRZ",
    "StreamField",
    "VelocityFieldRZ",
    "SimConfig",
    "__version__",
]
