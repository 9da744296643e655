"""Progressive video summarization with multimodal self-supervised pretraining."""

import os

# One BLAS thread, set before this package first imports numpy (it has no
# effect if the caller imported numpy already).  The matrices here are small,
# and OpenBLAS's spinning worker threads halve throughput as soon as another
# process competes for the CPUs.  A caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import (  # noqa: E402
    dataprep, encoders, metrics, pretrain, progressive, segmentation, tensorkit,
)
from .errors import SpvsError  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "SpvsError",
    "dataprep",
    "encoders",
    "metrics",
    "pretrain",
    "progressive",
    "segmentation",
    "tensorkit",
]
