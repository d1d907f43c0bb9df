"""Only training cuts a batch: a training loss whose forward packs at least
`tasks.SPLIT_ROWS` rows runs it as two concurrent halves, each with its own
`nll` node (`tasks` docstring), and gives what the whole batch gives, while
`AbsaModel.forward` always runs one packed graph. Evaluation streams its
chunks, however long, and they give what they give one after another. The
tests lower SPLIT_ROWS so that small batches split."""

import functools
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from fixtures import finishes, packed_input, record_joins, serial_backward
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
    """One entry per `autodiff.streams` call of two items or more from now
    on, the calls that run work on the worker: a loss's split forward, a
    join's backward, or evaluation's streams."""
    streams, runs = ad.streams, []

    def counting(fn, items):
        items = list(items)
        if len(items) > 1:
            runs.append(None)
        return streams(fn, items)

    monkeypatch.setattr(ad, "streams", counting)
    return runs


def packed_rows(task, items) -> list[int]:
    """The rows `encoder.pack_inputs` gives each instance."""
    if task == "ate":
        return [enc.packed_length(ex) for ex in items]
    return [enc.packed_length(ex, i) for ex, i in items]


def forward_name(model) -> str:
    return "forward_ate" if model.task == "ate" else "forward_asc"


def record_loss(monkeypatch, model):
    """Records each sequence's dropout keep-masks and each instance's
    (masked-content set, probabilities) of every training forward a loss
    runs. Returns a function that gives them as two lists, in forward order,
    a forward's halves put back in order."""
    forwards, calls = [0], []
    forwards_of, masks = model._forwards, enc._dropout_masks
    name = forward_name(model)
    run = getattr(model, name)

    def counting_forwards(*args, **kwargs):
        forwards[0] += 1
        return forwards_of(*args, **kwargs)

    def recording_masks(cfg, seg, *args):
        attn, out, ffn = masks(cfg, seg, *args)
        calls.append(((forwards[0], in_worker()), "masks", [
            (attn[:, :n, b, :, :n], out[:, lo:lo + n], ffn[:, lo:lo + n])
            for b, (lo, n) in enumerate(zip(seg.offsets.tolist(), seg.lengths.tolist()))]))
        return attn, out, ffn

    def recording_run(items, *args, **kwargs):
        out = run(items, *args, **kwargs)
        masked = kwargs.get("masked_content") or [None] * len(items)
        calls.append(((forwards[0], in_worker()), "probs", list(zip(masked, out.split()))))
        return out

    monkeypatch.setattr(model, "_forwards", counting_forwards)
    monkeypatch.setattr(model, name, recording_run)
    monkeypatch.setattr(enc, "_dropout_masks", recording_masks)

    def recorded(kind):
        return [x for _, k, xs in sorted(calls, key=lambda c: c[0]) if k == kind for x in xs]

    return lambda: (recorded("masks"), recorded("probs"))


def loss_and_grads(model, items, train):
    loss = model.loss(items, np.random.default_rng(9) if train else None)
    grads = ad.backward(loss)
    return float(loss.data), {n: grads[t] for n, t in model.params.items() if t in grads}


@MODES
@pytest.mark.parametrize("task,strategy", CASES)
def test_split_forward_keeps_the_dropout_masks_and_the_probabilities(monkeypatch, task, strategy,
                                                                     train):
    """A loss's split forwards keep every sequence's dropout keep-masks, bit
    for bit, and AMOM's rounds hide the same sets; in float64 every
    probability agrees to 1e-12 relative. They need not share their bits:
    BLAS may round a row of a product by its place among the product's rows,
    and a half's rows sit elsewhere (OpenBLAS does so for the heads'
    few-column products)."""
    model, items = make_model(task, strategy, np.float64)
    recorded = record_loss(monkeypatch, model)
    loss_and_grads(model, items, train)
    whole_masks, whole = recorded()
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    recorded, splits = record_loss(monkeypatch, model), count_splits(monkeypatch)
    loss_and_grads(model, items, train)
    split_masks, split = recorded()
    assert splits
    for (a_set, a), (b_set, b) in zip(split, whole, strict=True):
        assert a_set == b_set
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
    assert bool(whole_masks) == train
    for a, b in zip(split_masks, whole_masks, strict=True):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


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
    """No forward of 32 short instances reaches SPLIT_ROWS, and the rounds'
    backwards run on two threads; the loss and every gradient keep the bits
    of each round's own backward, walked on this thread, with each
    parameter's gradients added in round order."""
    model, items = make_model(task, "amom", np.float32, size=32)
    items = items[:32]
    assert len(items) == 32 and sum(packed_rows(task, items)) < tasks.SPLIT_ROWS
    joins, runs = record_joins(monkeypatch), count_splits(monkeypatch)
    joined, grads = loss_and_grads(model, items, True)
    assert len(runs) == 1   # the rounds' backward, and no half
    [rounds] = joins
    assert len(rounds) == 1 + model.mask_cfg.amom_iterations
    assert joined == float(functools.reduce(np.add, [r.data for r in rounds]))
    serial = serial_backward(rounds)
    assert grads.keys() == {n for n, t in model.params.items() if t in serial}
    for name, g in grads.items():
        assert np.array_equal(g, serial[model.params[name]]), name


@pytest.mark.parametrize("task", tasks.TASKS)
def test_split_rounds_backward_on_the_worker_without_waiting_on_it(monkeypatch, task):
    """Every round of two instances or more splits, and one join over the
    parameters sums every round's halves' nodes, flat: the odd-indexed ones
    walk on the worker, whose own `streams` calls run inline. A helper
    thread runs the step, so that a hang fails."""
    model, items = make_model(task, "amom", np.float32)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    assert len(model.loss(items)._parents) == len(model.params)
    results = []
    assert finishes(lambda: results.append(loss_and_grads(model, items, True)))
    assert len(results) == 1


def record_halves(monkeypatch, model) -> list:
    """(on the worker, probabilities) of each part a forward runs."""
    halves, name = [], forward_name(model)
    run = getattr(model, name)

    def recording(*args, **kwargs):
        out = run(*args, **kwargs)
        halves.append((in_worker(), out.probs))
        return out

    monkeypatch.setattr(model, name, recording)
    return halves


@pytest.mark.parametrize("task", tasks.TASKS)
def test_split_under_no_grad_records_no_node_in_either_thread(monkeypatch, task):
    model, items = make_model(task, "actm", np.float32)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    halves = record_halves(monkeypatch, model)
    recorded = model.loss(items)
    assert sorted(w for w, _ in halves) == [False, True]
    assert recorded._backward is not None and all(p._backward is not None for _, p in halves)
    halves.clear()
    with ad.no_grad():
        loss = model.loss(items)
    assert sorted(w for w, _ in halves) == [False, True]
    for node in [loss] + [p for _, p in halves]:
        assert node._backward is None and not node.requires_grad and not node._parents


@pytest.mark.parametrize("task,strategy", CASES)
def test_forward_never_calls_both(monkeypatch, task, strategy):
    """`forward` runs one packed graph on the calling thread, with dropout
    and without, recording or under `no_grad`, however many rows the batch
    packs; so do AMOM's prediction rounds. Nothing runs on the worker."""
    model, items = make_model(task, strategy, np.float32)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    halves, runs = record_halves(monkeypatch, model), count_splits(monkeypatch)
    for rng in (None, np.random.default_rng(3)):
        assert model.forward(items, rng=rng).probs._backward is not None
        with ad.no_grad():
            assert model.forward(items, rng=rng).rows.count == len(items)
    model.predict_ids(items)
    assert not runs and halves and not any(worker for worker, _ in halves)


@pytest.mark.parametrize("failing", [0, 1], ids=["half-0", "half-1"])
def test_a_half_s_error_reaches_the_caller_after_both_halves(monkeypatch, failing):
    model, items = make_model("asc", "none", np.float32)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    split = float(model.loss(items).data)
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
        model.loss(items)
    assert caught.value is planted
    assert finished == [not failing]
    monkeypatch.setattr(model, "forward_asc", run)
    assert float(model.loss(items).data) == split


@pytest.mark.parametrize("task", tasks.TASKS)
def test_a_half_at_or_above_split_rows_does_not_split_again(monkeypatch, task):
    model, items = make_model(task, "none", np.float32)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 2)
    runs = count_splits(monkeypatch)
    halves = record_halves(monkeypatch, model)
    loss = model.loss(items, rng=np.random.default_rng(0))
    assert len(runs) == 1 and len(halves) == 2 and len(items) >= 4
    assert sum(probs.data.shape[0] for _, probs in halves) == \
        (len(packed_input(model, items).content_positions) if task == "ate" else len(items))
    assert len(loss._parents) == len(model.params)   # the join over the parameters
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
        model.loss(items)
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
    """A training forward counts the masked-content sets against the whole
    batch before it cuts, and `forward` counts them too. Counted per half, 4
    sets for 8 ATE sentences once passed (half 1 got none and ran
    unmasked), and 5 failed as "1 sets for 4 sequences"."""
    model, items = make_model(task, "none", np.float32, size=8)
    items = items[:8]
    gold = model.gold_ids(items)
    assert len(items) == 8
    message = f"^{sets} masked-content sets for 8 instances$"
    with pytest.raises(ContractError, match=message):
        model.forward(items, masked_content=[frozenset({0})] * sets)
    for split_rows, parts in ((10**9, 1), (2, 2)):
        monkeypatch.setattr(tasks, "SPLIT_ROWS", split_rows)
        with pytest.raises(ContractError, match=message):
            model._forwards(items, None, [frozenset({0})] * sets, gold, 1.0)
        scored = model._forwards(items, None, [frozenset({0})] * 8, gold, 1.0)
        assert len(scored) == parts and sum(out.rows.count for _, out in scored) == 8
    run = model.forward_ate if task == "ate" else model.forward_asc
    with pytest.raises(ContractError, match="^4 masked-content sets for 8 sequences$"):
        run(items, masked_content=[frozenset()] * 4)   # empty sets are counted too


@pytest.mark.parametrize("task", tasks.TASKS)
def test_a_forward_draws_the_same_words_split_or_whole(monkeypatch, task):
    """A loss leaves its generator in one state whether its forward split or
    ran whole, and so does `forward`; without dropout neither draws."""
    model, items = make_model(task, "actm", np.float32)
    fresh = np.random.default_rng(17).bit_generator.state
    for rate, drawn in ((SMALL.dropout_rate, True), (0.0, False)):
        model.enc_cfg = replace(model.enc_cfg, dropout_rate=rate)
        states = []
        for split_rows in (10**9, 2):
            monkeypatch.setattr(tasks, "SPLIT_ROWS", split_rows)
            for run in (model.loss, model.forward):
                rng = np.random.default_rng(17)
                run(items, rng=rng)
                states.append(rng.bit_generator.state)
        assert states == [states[0]] * 4
        assert (states[0] != fresh) == drawn


# -- evaluation streams ---------------------------------------------------------------
# evaluate() runs its chunks as two streams, the even-indexed chunks here and
# the odd-indexed ones on the worker (`training._predict_by_length`), and
# never cuts a chunk, however many rows it packs.


PREDICT = {"ate": "predict_bio", "asc": "predict_polarity"}   # the method evaluate() calls


def evaluation_model(task, strategy, size=70):
    """A float32 model and an evaluation set of `size` sentences, which
    cut into three chunks or more."""
    model, _ = make_model(task, strategy, np.float32, size)
    return model, corpus.synth_corpus(seed=41, size=size)


def instance_key(item):
    return id(item) if isinstance(item, corpus.TokenizedExample) else (id(item[0]), item[1])


def recorded_evaluate(model, data):
    """(report, {instance: prediction}, [(on the worker, instances) per
    predicted chunk]) of one evaluate() of `data`."""
    name = PREDICT[model.task]
    predict, predictions, chunks = getattr(model, name), {}, []

    def recording(batch):
        out = predict(batch)
        keys = [instance_key(item) for item in batch]
        predictions.update(zip(keys, out))
        chunks.append((in_worker(), keys))
        return out

    setattr(model, name, recording)
    try:
        report = training.evaluate(model, data, model.task)
    finally:
        delattr(model, name)
    return report, predictions, chunks


def serial_streams(fn, items):
    return [fn(x) for x in items]


@pytest.mark.parametrize("task,strategy", CASES)
def test_streamed_evaluate_predicts_what_serial_chunks_do(monkeypatch, task, strategy):
    """One `streams` runs the chunks, and every instance gets the
    prediction, and the report the counts, that the chunks give one after
    another on one thread. A set of one chunk runs nothing on the worker."""
    model, data = evaluation_model(task, strategy)
    runs = count_splits(monkeypatch)
    training.evaluate(model, data[:1], task)
    assert not runs
    report, predictions, chunks = recorded_evaluate(model, data)
    assert len(runs) == 1 and len(chunks) >= 3
    assert sorted(worker for worker, _ in chunks) == [False] * ((len(chunks) + 1) // 2) + \
        [True] * (len(chunks) // 2)
    monkeypatch.setattr(ad, "streams", serial_streams)
    serial_report, serial_predictions, serial_chunks = recorded_evaluate(model, data)
    assert not any(worker for worker, _ in serial_chunks)
    assert report == serial_report and report.per_class == serial_report.per_class
    assert predictions == serial_predictions


@pytest.mark.parametrize("task", tasks.TASKS)
def test_evaluate_streams_a_chunk_of_split_rows_or_more_with_the_others(monkeypatch, task):
    """With SPLIT_ROWS at the longest chunk's rows, one `streams` still runs
    every chunk, alternating between this thread and the worker in length
    order, and no chunk is cut: each instance gets what serial chunks give."""
    model, data = evaluation_model(task, "actm", size=100)
    items, rows = training._instances(data, task, model.enc_cfg.max_len, "evaluation")
    order = sorted(range(len(items)), key=rows.__getitem__)
    cut = [order[lo:lo + training.EVAL_CHUNK] for lo in range(0, len(order), training.EVAL_CHUNK)]
    totals = [sum(rows[i] for i in chunk) for chunk in cut]
    keys = [[instance_key(items[i]) for i in chunk] for chunk in cut]
    assert len(cut) >= 3 and max(totals) > min(totals)
    monkeypatch.setattr(tasks, "SPLIT_ROWS", max(totals))
    runs = count_splits(monkeypatch)
    report, predictions, chunks = recorded_evaluate(model, data)
    assert len(runs) == 1   # the streams, and no half
    assert sorted(chunks) == sorted((n % 2 == 1, k) for n, k in enumerate(keys))
    monkeypatch.setattr(ad, "streams", serial_streams)
    assert recorded_evaluate(model, data)[:2] == (report, predictions)


@pytest.mark.parametrize("task", tasks.TASKS)
def test_an_error_in_the_worker_s_stream_reaches_the_caller(monkeypatch, task):
    """A chunk that fails on the worker raises its error, unchanged, once the
    calling thread's stream has run all its chunks; the next evaluate()
    completes and reports what it did before."""
    model, data = evaluation_model(task, "none")
    report = training.evaluate(model, data, task)
    name = PREDICT[task]
    predict, planted, done = getattr(model, name), ContractError("planted"), []

    def failing(batch):
        if in_worker():
            raise planted
        out = predict(batch)
        done.append(len(batch))
        return out

    monkeypatch.setattr(model, name, failing)
    with pytest.raises(ContractError) as caught:
        training.evaluate(model, data, task)
    assert caught.value is planted
    instances = len(data) if task == "ate" else len(training.asc_instances(data))
    chunks = -(-instances // training.EVAL_CHUNK)
    assert chunks >= 3 and len(done) == (chunks + 1) // 2   # the even-indexed chunks
    monkeypatch.setattr(model, name, predict)
    assert training.evaluate(model, data, task) == report


def test_evaluates_from_many_threads_keep_their_predictions(monkeypatch):
    """Four callers, more than the cores, stream their evaluations through
    the one worker at a short switch interval; each gets the report and
    the predictions it gets alone."""
    cases = [evaluation_model(task, "actm") for task in tasks.TASKS for _ in range(2)]
    alone = [recorded_evaluate(model, data)[:2] for model, data in cases]
    results = [None] * len(cases)

    def run(i):
        results[i] = [recorded_evaluate(*cases[i])[:2] for _ in range(3)]

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
    for expected, runs in zip(alone, results, strict=True):
        assert runs == [expected] * 3
