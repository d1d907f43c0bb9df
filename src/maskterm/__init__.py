"""Adaptive attention-masking toolkit for standalone ABSA tasks.

Importing the package fixes one allocator policy for the whole process,
before any submodule loads. On glibc it sets, through ``mallopt``:

- ``M_MMAP_THRESHOLD`` to 32 MiB, the largest value glibc accepts on 64-bit,
  so every block below it comes from the heap and not from a fresh ``mmap``;
- ``M_TRIM_THRESHOLD`` to 1 GiB, so the heap keeps freed memory at its top.

Without it, glibc's dynamic thresholds hand a training step's row-sized and
attention-sized arrays back to the kernel when the step's graph is freed,
and the next step page-faults the same amount in again. With it, memory the
process frees stays with the process, up to 1 GiB, and later steps reuse it.
That is acceptable here because a run's peak resident set is about 50-85 MB.
The policy applies on glibc only: where the C library has no ``mallopt``
(macOS, Windows) or rejects the setting (musl), nothing is changed.
"""

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 1024 * 1024 * 1024


def _keep_freed_memory() -> bool:
    """Apply the allocator policy above; return whether the C library took it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):   # TypeError: no CDLL(None) on Windows
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )


_keep_freed_memory()

from . import autodiff, corpus, encoder, masking, tasks, training  # noqa: E402
from .autodiff import ParamStore, Tensor  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "corpus",
    "encoder",
    "masking",
    "tasks",
    "training",
    "ParamStore",
    "Tensor",
    "__version__",
]
