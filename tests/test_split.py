"""A forward of at least `tasks.SPLIT_ROWS` packed rows runs as two
concurrent halves (`tasks` docstring) and gives what the whole batch gives.
The tests lower SPLIT_ROWS so that small batches split."""

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from fixtures import finishes, packed_input
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


def make_model(task, strategy, dtype, size=7):
    """A model over `size` synthetic sentences whose heads and scoring
    weights are drawn, so that no path is trivial, and its instances."""
    data = corpus.synth_corpus(seed=41, size=size)
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
    """One entry per `autodiff.both` call from now on: a split forward, or a
    concurrent join's backward (two halves, or AMOM's rounds)."""
    both, runs = ad.both, []
    monkeypatch.setattr(ad, "both", lambda *halves: runs.append(None) or both(*halves))
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
    AMOM (probabilities per instance, masked sets per round), in train mode
    from one fixed generator."""
    rng = np.random.default_rng(17) if train else None
    if model.mask_cfg.strategy == "amom":
        probs, _, history = model.amom(items, rng)
        return probs, history
    out = model.forward(items, rng=rng)
    return np.split(out.probs.data, out.rows.offsets[1:]), out


def assert_same_layout(split, whole):
    """The joined output lays out the batch's rows as the whole forward
    does; AMOM's rounds hide the same sets."""
    if isinstance(whole, list):   # AMOM's masked sets
        assert split == whole
    else:
        assert np.array_equal(split.rows.lengths, whole.rows.lengths)


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
    loss = model.loss(items, np.random.default_rng(9) if train else None)
    grads = ad.backward(loss)
    return float(loss.data), {n: grads[t] for n, t in model.params.items() if t in grads}


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
def test_amom_rounds_backward_concurrently_to_the_serial_bits(monkeypatch, task):
    """With the cut at the rounds' total rows, above any one forward's, the
    rounds' backwards run on two threads and no forward splits; the loss and
    every gradient keep the bits of the serial walk, which adds each
    parameter's gradients in round order."""
    model, items = make_model(task, "amom", np.float32, size=32)
    items = items[:32]
    rows = model._packed_rows(items)
    total = sum(r * n for r, n in zip(model.amom(items, losses=[])[1], rows))
    assert len(items) == 32 and sum(rows) < total
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 10**9)
    serial, serial_grads = loss_and_grads(model, items, True)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", total)
    runs = count_splits(monkeypatch)
    joined, grads = loss_and_grads(model, items, True)
    assert len(runs) == 1   # the rounds' backward, and no half
    assert joined == serial and grads.keys() == serial_grads.keys()
    for name, g in serial_grads.items():
        assert np.array_equal(grads[name], g), name


@pytest.mark.parametrize("task", tasks.TASKS)
def test_split_rounds_backward_on_the_worker_without_waiting_on_it(monkeypatch, task):
    """Round 1's backward runs on the worker, and its split forward's join
    calls `both` there: it runs both halves inline and does not wait on the
    worker it runs on. A helper thread runs the step, so that a hang fails."""
    model, items = make_model(task, "amom", np.float32)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    results = []
    assert finishes(lambda: results.append(loss_and_grads(model, items, True)))
    assert len(results) == 1


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
    out = model.forward(items, rng=np.random.default_rng(0))
    assert len(runs) == 1 and out.rows.count == len(items) >= 4
    loss = tasks.nll(out.probs, np.concatenate(model.gold_ids(items)), 1.0)
    ad.backward(loss)
    assert len(runs) == 2   # one more for the two halves' backwards


def test_the_split_starts_at_split_rows(monkeypatch):
    model, items = make_model("asc", "none", np.float32)
    rows = sum(enc.packed_length(ex, i) for ex, i in items)
    assert rows == len(packed_input(model, items))
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


@pytest.mark.parametrize("sets", [4, 5])
@pytest.mark.parametrize("task", tasks.TASKS)
def test_masked_content_must_cover_every_instance_split_or_whole(monkeypatch, task, sets):
    """`forward` counts the masked-content sets against the whole batch
    before it splits. Counted per half, 4 sets for 8 ATE sentences once
    passed (half 1 got none and ran unmasked), and 5 failed as "1 sets for
    4 sequences"."""
    model, items = make_model(task, "none", np.float32, size=8)
    items = items[:8]
    assert len(items) == 8
    for split_rows in (10**9, 2):
        monkeypatch.setattr(tasks, "SPLIT_ROWS", split_rows)
        with pytest.raises(ContractError, match=f"^{sets} masked-content sets for 8 instances$"):
            model.forward(items, masked_content=[frozenset({0})] * sets)
        out = model.forward(items, masked_content=[frozenset({0})] * 8)
        assert out.rows.count == 8
    run = model.forward_ate if task == "ate" else model.forward_asc
    with pytest.raises(ContractError, match="^4 masked-content sets for 8 sequences$"):
        run(items, masked_content=[frozenset()] * 4)   # empty sets are counted too


@pytest.mark.parametrize("task", tasks.TASKS)
def test_a_forward_draws_the_same_words_split_or_whole(monkeypatch, task):
    """A forward leaves its generator in one state whether the batch split
    or ran whole, and without dropout it draws nothing."""
    model, items = make_model(task, "actm", np.float32)
    fresh = np.random.default_rng(17).bit_generator.state
    for rate, drawn in ((SMALL.dropout_rate, True), (0.0, False)):
        model.enc_cfg = replace(model.enc_cfg, dropout_rate=rate)
        states = []
        for split_rows in (10**9, 2):
            monkeypatch.setattr(tasks, "SPLIT_ROWS", split_rows)
            rng = np.random.default_rng(17)
            model.forward(items, rng=rng)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]
        assert (states[0] != fresh) == drawn
