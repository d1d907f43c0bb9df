"""The allocator policy that `import maskterm` sets (package docstring)."""

import ctypes
import importlib
import platform
import types

import pytest

import maskterm
from fixtures import run_python

# Eight float32 arrays of 4 MiB, written and freed together, ten rounds: the
# shape of a training step's temporaries, and above glibc's default mmap
# threshold of 128 KiB.
ROUNDS_SCRIPT = """
import resource

import maskterm
import numpy as np


def one_round():
    arrays = [np.full(1 << 20, 1.0, dtype=np.float32) for _ in range(8)]
    del arrays


one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(9):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy applies on glibc only")
def test_freed_step_arrays_are_reused_without_page_faults():
    # Mapped afresh each round, the nine rounds fault in tens of thousands of pages.
    assert int(run_python(ROUNDS_SCRIPT)) < 100


def _rejecting_mallopt(calls):
    def mallopt(param, value):
        calls.append((param, value))
        return 0
    return mallopt


@pytest.mark.parametrize("has_mallopt", [False, True], ids=["no-mallopt", "mallopt-returns-0"])
def test_import_succeeds_and_sets_nothing_without_a_working_mallopt(monkeypatch, has_mallopt):
    calls = []
    libc = types.SimpleNamespace()
    if has_mallopt:
        libc.mallopt = _rejecting_mallopt(calls)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert maskterm._keep_freed_memory() is False
    # A refused first setting stops the helper before the second.
    refused = [(-3, 32 * 1024 * 1024)] if has_mallopt else []
    assert calls == refused
    calls.clear()
    importlib.reload(maskterm)   # the import itself still succeeds
    assert calls == refused
