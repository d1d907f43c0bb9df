"""A forward of at least `tasks.SPLIT_ROWS` packed rows runs as two
concurrent halves (`tasks` docstring) and gives what the whole batch gives.
The tests lower SPLIT_ROWS so that small batches split."""

import sys
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from maskterm import autodiff as ad
from maskterm import corpus
from maskterm import encoder as enc
from maskterm import masking as mk
from maskterm import tasks
from maskterm import training
from maskterm.exceptions import ContractError

SMALL = enc.EncoderConfig(d_w=8, d_p=2, hidden=16, n_layers=2, n_heads=2, d_ff=24,
                          dropout_rate=0.1)
CASES = [(task, strategy) for task in tasks.TASKS for strategy in mk.MaskConfig.STRATEGIES]
MODES = pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])


def make_model(task, strategy, dtype):
    """A model over seven synthetic sentences whose heads and scoring weights
    are drawn, so that no path is trivial, and its instances."""
    data = corpus.synth_corpus(seed=41, size=7)
    vocab = enc.Vocab.build(data)
    model = tasks.AbsaModel(task, replace(SMALL, vocab_size=len(vocab.words)),
                            mk.MaskConfig(strategy=strategy), vocab, 3, dtype)
    rng = np.random.default_rng(5)
    for name in model.params.names():
        if name.startswith("head.") or name == "mask.w_a":
            t = model.params[name]
            t.data = rng.normal(0.0, 0.5, size=t.data.shape).astype(dtype)
    return model, data if task == "ate" else training.asc_instances(data)


def in_worker() -> bool:
    return threading.current_thread() is not threading.main_thread()


def count_splits(monkeypatch) -> list:
    """One entry per run of two halves, forward or backward, from now on."""
    both, runs = tasks._both, []
    monkeypatch.setattr(tasks, "_both", lambda *halves: runs.append(None) or both(*halves))
    return runs


def record_dropout(monkeypatch, model):
    """Each sequence's dropout keep-masks, in batch order per forward and in
    forward order; a forward's halves are put back in order."""
    calls, forwards = [], [0]
    forward, masks = model.forward, enc._dropout_masks

    def counting_forward(*args, **kwargs):
        forwards[0] += 1
        return forward(*args, **kwargs)

    def recording_masks(cfg, seg, *args):
        attn, out, ffn = masks(cfg, seg, *args)
        calls.append(((forwards[0], in_worker()), [
            (attn[:, :n, b, :, :n], out[:, lo:lo + n], ffn[:, lo:lo + n])
            for b, (lo, n) in enumerate(zip(seg.offsets.tolist(), seg.lengths.tolist()))]))
        return attn, out, ffn

    monkeypatch.setattr(model, "forward", counting_forward)
    monkeypatch.setattr(enc, "_dropout_masks", recording_masks)
    return lambda: [seq for _, seqs in sorted(calls, key=lambda c: c[0]) for seq in seqs]


def run_batch(model, items, train):
    """(probabilities per instance, output) of a strategy's forward, or for
    AMOM (probabilities per instance, masked sets per round), from one fixed
    generator."""
    rng = np.random.default_rng(17)
    if model.mask_cfg.strategy == "amom":
        probs, _, history = model.amom(items, train=train, rng=rng)
        return probs, history
    out = model.forward(items, train=train, rng=rng)
    return np.split(out.probs.data, out.rows.offsets[1:]), out


def assert_same_layout(split, whole):
    """The joined output describes the batch as the whole forward does."""
    if isinstance(whole, list):   # AMOM's masked sets
        assert split == whole
        return
    assert np.array_equal(split.rows.lengths, whole.rows.lengths)
    for f in fields(enc.ModelInput):
        a, b = getattr(split.inp, f.name), getattr(whole.inp, f.name)
        assert (a is None and b is None) or np.array_equal(a, b), f.name
    assert (split.decision is None) == (whole.decision is None)
    if whole.decision is not None:
        assert np.array_equal(split.decision.kept, whole.decision.kept)


@MODES
@pytest.mark.parametrize("task,strategy", CASES)
def test_split_forward_keeps_the_dropout_masks_and_the_probabilities(monkeypatch, task, strategy,
                                                                     train):
    """Every sequence keeps its dropout keep-masks, bit for bit, and in
    float64 every probability agrees to 1e-12 relative. They need not share
    their bits: BLAS may round a row of a product by its place among the
    product's rows, and a half's rows sit elsewhere (OpenBLAS does so for
    the heads' few-column products). In float32 the predictions agree."""
    model, items = make_model(task, strategy, np.float64)
    masks = record_dropout(monkeypatch, model)
    whole, whole_out = run_batch(model, items, train)
    whole_masks = masks()
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    split_masks, splits = record_dropout(monkeypatch, model), count_splits(monkeypatch)
    split, split_out = run_batch(model, items, train)
    assert splits
    assert_same_layout(split_out, whole_out)
    for a, b in zip(split, whole, strict=True):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
    assert bool(whole_masks) == train
    for a, b in zip(split_masks(), whole_masks, strict=True):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    model, items = make_model(task, strategy, np.float32)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 10**9)
    whole_ids = [p.tolist() for p in model.predict_ids(items)]
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    assert [p.tolist() for p in model.predict_ids(items)] == whole_ids


def loss_and_grads(model, items, train):
    model.params.zero_grad()
    loss = model.loss(items, train=train, rng=np.random.default_rng(9))
    ad.backward(loss)
    return float(loss.data), {n: t.grad for n, t in model.params.items() if t.grad is not None}


@MODES
@pytest.mark.parametrize("task,strategy", CASES)
def test_split_loss_and_gradients_agree(monkeypatch, task, strategy, train):
    """In float64 the loss and every gradient agree to 1e-12 relative, and a
    parameter neither half reaches stays without a gradient."""
    model, items = make_model(task, strategy, np.float64)
    whole, whole_grads = loss_and_grads(model, items, train)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    splits = count_splits(monkeypatch)
    split, grads = loss_and_grads(model, items, train)
    assert splits
    assert abs(split - whole) <= 1e-12 * abs(whole)
    assert grads.keys() == whole_grads.keys()
    for name, g in whole_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


@pytest.mark.parametrize("task", tasks.TASKS)
def test_split_under_no_grad_records_no_node_in_either_thread(monkeypatch, task):
    model, items = make_model(task, "actm", np.float32)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    halves = []
    name = "forward_ate" if task == "ate" else "forward_asc"
    run = getattr(model, name)

    def recording(*args, **kwargs):
        out = run(*args, **kwargs)
        halves.append((in_worker(), out.probs))
        return out

    monkeypatch.setattr(model, name, recording)
    recorded = model.forward(items).probs
    assert sorted(w for w, _ in halves) == [False, True]
    assert recorded._backward is not None and all(p._backward is not None for _, p in halves)
    halves.clear()
    with ad.no_grad():
        out = model.forward(items).probs
    assert sorted(w for w, _ in halves) == [False, True]
    for probs in [out] + [p for _, p in halves]:
        assert probs._backward is None and not probs.requires_grad and not probs._parents


@pytest.mark.parametrize("failing", [0, 1], ids=["half-0", "half-1"])
def test_a_half_s_error_reaches_the_caller_after_both_halves(monkeypatch, failing):
    model, items = make_model("asc", "none", np.float32)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    split = model.forward(items).probs.data
    planted = ContractError("planted")
    finished = []
    run = model.forward_asc

    def half(*args, **kwargs):
        if int(in_worker()) == failing:
            raise planted
        time.sleep(0.05)   # the failing half is long done by now
        out = run(*args, **kwargs)
        finished.append(in_worker())
        return out

    monkeypatch.setattr(model, "forward_asc", half)
    with pytest.raises(ContractError) as caught:
        model.forward(items)
    assert caught.value is planted
    assert finished == [not failing]
    monkeypatch.setattr(model, "forward_asc", run)
    assert np.array_equal(model.forward(items).probs.data, split)


@pytest.mark.parametrize("task", tasks.TASKS)
def test_a_half_at_or_above_split_rows_does_not_split_again(monkeypatch, task):
    model, items = make_model(task, "none", np.float32)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    runs = count_splits(monkeypatch)
    out = model.forward(items, train=True, rng=np.random.default_rng(0))
    assert len(runs) == 1 and out.rows.count == len(items) >= 4
    loss = tasks.nll(out.probs, np.concatenate(model.gold_ids(items)), 1.0)
    ad.backward(loss)
    assert len(runs) == 2   # one more for the two halves' backwards


def test_the_split_starts_at_split_rows(monkeypatch):
    model, items = make_model("asc", "none", np.float32)
    rows = sum(enc.packed_length(ex, i) for ex, i in items)
    assert rows == len(model.forward(items).inp)
    runs = count_splits(monkeypatch)
    for threshold, splits in ((rows + 1, 0), (rows, 1)):
        monkeypatch.setattr(tasks, "SPLIT_ROWS", threshold)
        runs.clear()
        model.forward(items)
        assert len(runs) == splits


def test_split_backwards_from_many_threads_keep_their_gradients(monkeypatch):
    """Four callers, more than the cores, split forwards and backwards of
    their own models through the one worker at a short switch interval; each
    gets the gradients it gets alone."""
    cases = [make_model(task, "actm", np.float64) for task in tasks.TASKS for _ in range(2)]
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    alone = [loss_and_grads(model, items, True) for model, items in cases]
    results = [None] * len(cases)

    def run(i):
        model, items = cases[i]
        results[i] = [loss_and_grads(model, items, True) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (loss, grads), runs in zip(alone, results, strict=True):
        for run_loss, run_grads in runs:
            assert run_loss == loss and run_grads.keys() == grads.keys()
            assert all(np.array_equal(run_grads[n], g) for n, g in grads.items())
