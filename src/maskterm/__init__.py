"""Adaptive attention-masking toolkit for standalone ABSA tasks.

Importing the package fixes two policies for the whole process, before any
submodule loads: one for the allocator and one for BLAS.

The allocator policy applies on glibc, where it sets, through ``mallopt``:

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

The BLAS policy pins OpenBLAS to one thread, through the first of
``openblas_set_num_threads``, with and without the ``scipy_`` prefix and the
``64_`` suffix, that NumPy's extension module resolves: the names of NumPy's
bundled OpenBLAS builds. It overrides ``OPENBLAS_NUM_THREADS``. The package
runs work on two threads, the caller's and one worker of its own
(``autodiff.streams``): training cuts long batches and walks a loss's parts,
and evaluation streams its chunks. A float32 weight gradient ``X.T @ G``
over 450 or more rows gives other bits at another BLAS thread count.
Pinned, a seed gives the same bits whatever the thread count of the
environment. Where NumPy runs on a BLAS without these symbols (MKL,
Accelerate), nothing is changed: BLAS keeps its own threads, and bits may
then depend on their count.
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


# The thread-count setters of NumPy's bundled OpenBLAS builds, tried in order.
_BLAS_SETTERS = tuple(f"{prefix}openblas_set_num_threads{suffix}"
                      for prefix in ("scipy_", "") for suffix in ("64_", ""))


def _one_blas_thread() -> str | None:
    """Apply the BLAS policy above; return the setter it called, or None."""
    try:
        from numpy._core import _multiarray_umath as extension   # NumPy 2
    except ImportError:
        from numpy.core import _multiarray_umath as extension    # NumPy 1
    try:
        lib = ctypes.CDLL(extension.__file__)
    except (AttributeError, OSError, TypeError):
        return None
    for name in _BLAS_SETTERS:
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes = (ctypes.c_int,)
            setter.restype = None
            setter(1)
            return name
    return None


_keep_freed_memory()
_one_blas_thread()

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
