"""The BLAS policy that `import maskterm` sets (package docstring), and what
it buys: a seed trains to the same bits whatever the BLAS thread count of
the environment."""

import ctypes
import importlib
import os
import types

import pytest

import maskterm
from fixtures import run_python

# The thread count OpenBLAS reports after `import maskterm`, through the
# getter that matches the setter the package found, or "none" without one.
BLAS_THREADS_SCRIPT = """
import ctypes

from numpy._core import _multiarray_umath

import maskterm

lib = ctypes.CDLL(_multiarray_umath.__file__)
found = [name for name in maskterm._BLAS_SETTERS if hasattr(lib, name)]
print(getattr(lib, found[0].replace("_set_", "_get_"))() if found else "none")
"""

# Two epochs of ASC `none`, 96 instances a batch: each full batch packs about
# 1,300 rows, past the 450 from which a float32 weight gradient depends on the
# BLAS thread count and past SPLIT_ROWS. Prints the forwards that split, the
# last train_loss as float hex and a digest of the checkpoint's bytes.
TRAIN_SCRIPT = """
import hashlib
import os
import tempfile

from maskterm import corpus, masking, tasks, training

splits = []
join = tasks.AbsaModel._join
tasks.AbsaModel._join = lambda self, *halves: splits.append(1) or join(self, *halves)
config = training.TrainConfig(task="asc", epochs=2, batch_size=96, learning_rate=1e-3, seed=3,
                              mask=masking.MaskConfig(strategy="none"))
model, log = training.train(config, corpus.synth_corpus(0, 200), corpus.synth_corpus(1, 10))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.ckpt")
    training.save_model(path, model)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
print(len(splits), float(log.records[-1]["train_loss"]).hex(), digest)
"""

# One epoch of ASC AMOM, 32 instances a batch: a full batch packs about 1,300
# rows over its three rounds, so its rounds backward on two threads, while no
# one forward reaches SPLIT_ROWS. Prints the losses whose rounds joined
# concurrently, the last train_loss as float hex and a digest of the
# checkpoint's bytes.
AMOM_SCRIPT = """
import hashlib
import os
import tempfile

from maskterm import autodiff, corpus, masking, tasks, training

concurrent_rounds = []
join = autodiff.join

def counting_join(data, parts, seeds, leaves, concurrent):
    if concurrent and data.ndim == 0:   # a loss: AMOM's rounds
        concurrent_rounds.append(1)
    return join(data, parts, seeds, leaves, concurrent)

autodiff.join = counting_join
config = training.TrainConfig(task="asc", epochs=1, batch_size=32, learning_rate=1e-3, seed=3,
                              mask=masking.MaskConfig(strategy="amom"))
model, log = training.train(config, corpus.synth_corpus(0, 60), corpus.synth_corpus(1, 10))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.ckpt")
    training.save_model(path, model)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
print(len(concurrent_rounds), float(log.records[-1]["train_loss"]).hex(), digest)
"""

# A split in the parent, then one in a forked child, which must not wait on
# the parent's worker thread: the child exits 0, or -14 if SIGALRM ends it stuck.
FORK_SCRIPT = """
import os
import signal

from maskterm import corpus, tasks, training
from maskterm import encoder as enc
from maskterm import masking as mk

data = corpus.synth_corpus(0, 6)
vocab = enc.Vocab.build(data)
model = tasks.AbsaModel("asc", enc.EncoderConfig(vocab_size=len(vocab.words)),
                        mk.MaskConfig(strategy="none"), vocab, 0)
tasks.SPLIT_ROWS = 2
model.forward(training.asc_instances(data))
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    model.forward(training.asc_instances(data))
    os._exit(0)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_splits_on_a_worker_of_its_own():
    assert run_python(FORK_SCRIPT).strip() == "0"


def test_same_seed_trains_to_the_same_bits_at_one_and_two_blas_threads():
    one = run_python(TRAIN_SCRIPT, OPENBLAS_NUM_THREADS="1").split()
    two = run_python(TRAIN_SCRIPT, OPENBLAS_NUM_THREADS="2").split()
    assert int(one[0]) > 0   # some batches ran as two halves
    assert one == two


def test_amom_rounds_backward_to_the_same_bits_at_one_and_two_blas_threads():
    one = run_python(AMOM_SCRIPT, OPENBLAS_NUM_THREADS="1").split()
    two = run_python(AMOM_SCRIPT, OPENBLAS_NUM_THREADS="2").split()
    assert int(one[0]) > 0   # some rounds ran their backwards on two threads
    assert one == two


def test_import_pins_openblas_to_one_thread():
    threads = run_python(BLAS_THREADS_SCRIPT, OPENBLAS_NUM_THREADS="2").strip()
    if threads == "none":
        pytest.skip("NumPy's BLAS has no OpenBLAS thread setter")
    assert threads == "1"


def _recording(calls, name):
    return lambda *args: calls.append((name, args))


@pytest.mark.parametrize("names,called", [
    ((), None),
    (("openblas_get_num_threads",), None),
    (("openblas_set_num_threads", "openblas_set_num_threads64_"), "openblas_set_num_threads64_"),
], ids=["no-symbols", "getter-only", "plain-openblas"])
def test_import_takes_the_first_setter_and_succeeds_without_one(monkeypatch, names, called):
    calls = []
    lib = types.SimpleNamespace(**{name: _recording(calls, name) for name in names})
    monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
    assert maskterm._one_blas_thread() == called
    expected = [] if called is None else [(called, (1,))]
    assert calls == expected
    calls.clear()
    importlib.reload(maskterm)   # the import itself still succeeds
    assert calls == expected
