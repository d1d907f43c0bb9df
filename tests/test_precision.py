"""Models run in float32: no constant, scale or table widens a float32 graph
to float64, and float64 stays the reference precision of the checks."""

from dataclasses import replace

import numpy as np
import pytest

import gradcheck as gc
from maskterm import autodiff as ad
from maskterm import corpus
from maskterm import encoder as enc
from maskterm import masking as mk
from maskterm import tasks
from maskterm import training

SMALL = enc.EncoderConfig(d_w=8, d_p=2, hidden=16, n_layers=2, n_heads=2, d_ff=24,
                          dropout_rate=0.1)
# Every strategy, and ACTM once more with its weights held as constants.
CASES = [(strategy, True) for strategy in mk.MaskConfig.STRATEGIES] + [("actm", False)]


@pytest.fixture(scope="module")
def examples():
    return corpus.synth_corpus(seed=21, size=6)


def build(task, strategy, learnable, examples, dtype=np.float32):
    mask = mk.MaskConfig(strategy=strategy, learnable=learnable)
    vocab = enc.Vocab.build(examples)
    return tasks.AbsaModel(task, replace(SMALL, vocab_size=len(vocab.words)), mask, vocab, 3,
                           dtype)


@pytest.mark.parametrize("strategy,learnable", CASES)
@pytest.mark.parametrize("task", ["ate", "asc"])
def test_training_step_and_prediction_stay_float32(monkeypatch, examples, task, strategy,
                                                   learnable):
    """Every Tensor made, every gradient contribution, parameter, gradient and
    Adam moment of a float32 training step and prediction is float32."""
    created, contributions = [], []
    init, accumulate = ad.Tensor.__init__, ad._accumulate

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self.data.dtype)

    def recording_accumulate(t, g):
        contributions.append(g.dtype)
        accumulate(t, g)

    monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
    monkeypatch.setattr(ad, "_accumulate", recording_accumulate)
    model = build(task, strategy, learnable, examples)
    config = training.TrainConfig(task=task, mask=model.mask_cfg, encoder=model.enc_cfg)
    items = examples if task == "ate" else training.asc_instances(examples)
    ad.backward(training.batch_loss(model, config, items, train=True,
                                    rng=np.random.default_rng(0)))
    optimizer = training.Adam(model.params, 1e-3, l2=0.01)
    optimizer.step()
    (model.predict_bio if task == "ate" else model.predict_polarity)(items)

    float32 = np.dtype(np.float32)
    assert created and set(created) == {float32}
    assert contributions and set(contributions) == {float32}
    for name, t in model.params.items():
        assert (t.data.dtype, t.grad.dtype, optimizer.m[name].dtype,
                optimizer.v[name].dtype) == (float32,) * 4, name
    assert all(w.data.dtype == float32 for w in model.actm_weights.values())


@pytest.mark.parametrize("task", ["ate", "asc"])
def test_float32_init_is_the_float64_init_rounded(examples, task):
    wide = build(task, "actm", True, examples, np.float64)
    narrow = build(task, "actm", True, examples)
    assert narrow.params.names() == wide.params.names()
    for name, t in wide.params.items():
        assert np.array_equal(narrow.params[name].data, t.data.astype(np.float32)), name


def test_logged_sums_are_float64_sums(examples):
    """`l2_sum` and `param_norm` sum float32 values in float64."""
    config = training.TrainConfig(task="asc", epochs=1, mask=mk.MaskConfig(strategy="none"),
                                  encoder=SMALL)
    trained, log = training.train(config, examples, examples)
    wide = [t.data.astype(np.float64) for t in trained.params.tensors()]
    squares = sum((w * w).sum() for w in wide)
    assert trained.params.l2_sum() == squares
    assert log.records[0]["param_norm"] == float(np.sqrt(squares))


def test_gradcheck_models_are_float64(monkeypatch):
    """Every model the gradient checks build, and every objective they
    differentiate, is float64."""
    dtypes = []
    init = tasks.AbsaModel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        dtypes.append(self.params.dtype)

    monkeypatch.setattr(tasks.AbsaModel, "__init__", recording_init)
    for case in gc.CASES:
        model, objective = gc.build(*case)
        assert objective().data.dtype == np.float64, case
    assert len(dtypes) == len(gc.CASES) and set(dtypes) == {np.dtype(np.float64)}
