"""Broad-UNet nowcasting mini-framework.

A small, dependency-light deep learning stack built around multi-scale
feature convolutional blocks, factorized (asymmetric) 3D convolutions and
an atrous spatial pyramid pooling bottleneck, together with the data
pipelines, training loop and metrics needed to run nowcasting experiments
at desk scale.
"""

import os as _os

# Cap internal (BLAS) parallelism before numpy loads its thread pools.
_threads = _os.environ.get("BRUNET_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .archive import FormatError
from .datapipe import DataError

__version__ = "0.1.0"

__all__ = ["FormatError", "DataError", "__version__"]
