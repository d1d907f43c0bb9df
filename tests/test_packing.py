"""A packed batch gives what its instances give when run as batches of one."""

import dataclasses
import hashlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import aam_oracle as oracle
import gradcheck as gc
from fixtures import packed_input
from maskterm import autodiff as ad
from maskterm import corpus
from maskterm import encoder as enc
from maskterm import masking as mk
from maskterm import tasks
from maskterm import training
from maskterm.corpus import AspectAnnotation
from maskterm.exceptions import ContractError, DimensionError

SMALL = enc.EncoderConfig(d_w=8, d_p=2, hidden=16, n_layers=2, n_heads=2, d_ff=24,
                          dropout_rate=0.1)
STRATEGIES = [("none", "mean"), ("fixed", "mean"), ("actm", "mean"), ("actm", "median"),
              ("actm", "sd"), ("aam", "mean")]


def batch_examples():
    """A one-token sentence, a two-aspect sentence with aspects of different
    lengths, and synthetic sentences; every one a different length."""
    one = corpus.make_example("steak", [AspectAnnotation("steak", 0, 5, "positive")])
    two = corpus.make_example("the wine list was great but the service was slow",
                              [AspectAnnotation("wine list", 4, 13, "positive"),
                               AspectAnnotation("service", 32, 39, "negative")])
    synth = corpus.synth_corpus(seed=31, size=12)
    examples = [one, two]
    for ex in synth:
        if len(ex) not in {len(e) for e in examples}:
            examples.append(ex)
    return examples[:5]


def make_model(task, strategy, aggregator, examples, dtype=np.float64):
    """A model in `dtype`; float64 by default, since the bounds and pins
    below are of float64 arithmetic."""
    mask = mk.MaskConfig(strategy=strategy, aggregator=aggregator)
    config = training.TrainConfig(task=task, seed=3, mask=mask, encoder=SMALL)
    vocab = enc.Vocab.build(examples)
    model = tasks.AbsaModel(task, replace(SMALL, vocab_size=len(vocab.words)), mask, vocab, 3,
                            dtype)
    # Zero heads and scoring weights would make every path trivial.
    rng = np.random.default_rng(5)
    for name in model.params.names():
        if name.startswith("head.") or name == "mask.w_a":
            t = model.params[name]
            t.data = rng.normal(0.0, 0.5, size=t.data.shape).astype(dtype)
    return model, config


def items_for(task, examples):
    return examples if task == "ate" else training.asc_instances(examples)


def loss_and_grads(model, config, batches, train, seed):
    """Mean batch_loss over `batches` (one shared generator in train mode)
    and its gradients."""
    rng = np.random.default_rng(seed) if train else None
    total, grads = 0.0, {}
    for batch in batches:
        loss = gc.scale(training.batch_loss(model, config, batch, rng),
                        1.0 / len(batches))
        for t, g in ad.backward(loss).items():
            grads[t] = grads[t] + g if t in grads else g
        total += float(loss.data)
    return total, {name: grads[t] for name, t in model.params.items() if t in grads}


def record_decisions(monkeypatch, model) -> list:
    """The mask decision of each forward from now on, read from `encode_and_mask`."""
    inner, decisions = model.encode_and_mask, []

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        decisions.append(out[2])
        return out

    monkeypatch.setattr(model, "encode_and_mask", recording)
    return decisions


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("strategy,aggregator", STRATEGIES)
@pytest.mark.parametrize("task", ["ate", "asc"])
def test_packed_batch_matches_batches_of_one(monkeypatch, task, strategy, aggregator, train):
    examples = batch_examples()
    model, config = make_model(task, strategy, aggregator, examples)
    items = items_for(task, examples)
    assert len(items) >= 4
    decisions = record_decisions(monkeypatch, model)

    packed = model.forward(items, rng=np.random.default_rng(17) if train else None)
    rng = np.random.default_rng(17) if train else None
    singles = [model.forward([item], rng=rng) for item in items]
    assert np.abs(packed.probs.data - np.concatenate([s.probs.data for s in singles])).max() <= 1e-10
    if decisions[0] is not None:
        assert np.array_equal(decisions[0].kept, np.concatenate([d.kept for d in decisions[1:]]))

    loss, grads = loss_and_grads(model, config, [items], train, seed=23)
    loss_1, grads_1 = loss_and_grads(model, config, [[item] for item in items], train, seed=23)
    assert abs(loss - loss_1) <= 1e-10
    assert grads.keys() == grads_1.keys()
    for name, g in grads_1.items():
        scale = max(np.abs(g).max(), 1e-12)
        assert np.abs(grads[name] - g).max() <= 1e-9 * scale, name


@pytest.mark.parametrize("strategy,aggregator", STRATEGIES + [("amom", "mean")])
@pytest.mark.parametrize("task", ["ate", "asc"])
def test_float32_packed_batch_matches_batches_of_one(task, strategy, aggregator):
    """In float32 a packed batch predicts what its instances predict alone,
    as the benchmark checks, with probabilities equal to rtol 1e-5. Below
    1e-8 a probability's relative error is its logit's absolute one, so
    those are held to 1e-8 absolute. `rows` splits a forward's
    probabilities by instance, and the predicted ids are each part's argmax."""
    examples = batch_examples()
    model, _ = make_model(task, strategy, aggregator, examples, np.float32)
    items = items_for(task, examples)
    if strategy == "amom":
        def parts(batch):
            return model.amom(batch)[0]
    else:
        def parts(batch):
            out = model.forward(batch)
            return np.split(out.probs.data, out.rows.offsets[1:])
    packed = np.concatenate(parts(items))
    assert packed.dtype == np.float32
    np.testing.assert_allclose(packed, np.concatenate([p for item in items for p in parts([item])]),
                               rtol=1e-5, atol=1e-8)
    ids = [p.tolist() for p in model.predict_ids(items)]
    assert ids == [p.tolist() for item in items for p in model.predict_ids([item])]
    assert ids == [p.argmax(axis=1).tolist() for p in parts(items)]

    out = model.forward(items)
    rows = [len(ex) for ex in items] if task == "ate" else [1] * len(items)
    assert out.rows.lengths.tolist() == rows and out.rows.total == out.probs.data.shape[0]


@pytest.mark.parametrize("task", ["ate", "asc"])
def test_packed_instances_differ_in_length(task):
    examples = batch_examples()
    assert min(len(ex) for ex in examples) == 1
    model, _ = make_model(task, "none", "mean", examples)
    lengths = packed_input(model, items_for(task, examples)).lengths
    assert len(set(lengths)) == len(lengths) >= 4


# Every field of the packed input of batch_examples(), recorded from the
# builders that wrote one input per instance and concatenated them.
PACKED_LAYOUT = {
    "ate": {
        "token_ids": [1, 15, 2, 1, 16, 20, 11, 19, 9, 6, 16, 13, 19, 14, 2, 1, 16, 7, 19, 9, 3,
                      2, 1, 16, 7, 19, 12, 4, 3, 2, 1, 16, 5, 10, 19, 17, 21, 6, 16, 18, 19, 8,
                      3, 2],
        "pos_ids": [0, 7, 0, 0, 0, 7, 7, 4, 5, 2, 0, 7, 4, 5, 0, 0, 0, 7, 4, 5, 9, 0, 0, 0, 7,
                    4, 6, 5, 9, 0, 0, 0, 7, 7, 4, 6, 5, 2, 0, 7, 4, 5, 9, 0],
        "special": [0, 2, 3, 14, 15, 21, 22, 29, 30, 43],   # as row indices
        "content_positions": [1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20, 23, 24,
                              25, 26, 27, 28, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42],
        "protected": [0, 2, 3, 14, 15, 21, 22, 29, 30, 43],
        "lengths": [3, 12, 7, 8, 14],
        "aspect_spans": None,
    },
    "asc": {
        "token_ids": [1, 15, 2, 15, 2, 1, 16, 20, 11, 19, 9, 6, 16, 13, 19, 14, 2, 20, 11, 2, 1,
                      16, 20, 11, 19, 9, 6, 16, 13, 19, 14, 2, 13, 2, 1, 16, 7, 19, 9, 3, 2, 7, 2,
                      1, 16, 7, 19, 12, 4, 3, 2, 7, 2, 1, 16, 5, 10, 19, 17, 21, 6, 16, 18, 19, 8,
                      3, 2, 5, 10, 2, 1, 16, 5, 10, 19, 17, 21, 6, 16, 18, 19, 8, 3, 2, 18, 2],
        "pos_ids": [0, 7, 0, 7, 0, 0, 0, 7, 7, 4, 5, 2, 0, 7, 4, 5, 0, 7, 7, 0, 0, 0, 7, 7, 4, 5,
                    2, 0, 7, 4, 5, 0, 7, 0, 0, 0, 7, 4, 5, 9, 0, 7, 0, 0, 0, 7, 4, 6, 5, 9, 0, 7,
                    0, 0, 0, 7, 7, 4, 6, 5, 2, 0, 7, 4, 5, 9, 0, 7, 7, 0, 0, 0, 7, 7, 4, 6, 5, 2,
                    0, 7, 4, 5, 9, 0, 7, 0],
        "special": [0, 2, 4, 5, 16, 19, 20, 31, 33, 34, 40, 42, 43, 50, 52, 53, 66, 69, 70, 83,
                    85],
        "content_positions": [1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 21, 22, 23, 24, 25, 26, 27,
                              28, 29, 30, 35, 36, 37, 38, 39, 44, 45, 46, 47, 48, 49, 54, 55,
                              56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 71, 72, 73, 74, 75, 76,
                              77, 78, 79, 80, 81, 82],
        "protected": [0, 1, 2, 3, 4, 5, 7, 8, 16, 17, 18, 19, 20, 28, 31, 32, 33, 34, 36, 40,
                      41, 42, 43, 45, 50, 51, 52, 53, 55, 56, 66, 67, 68, 69, 70, 79, 83, 84, 85],
        "lengths": [5, 15, 14, 9, 10, 17, 16],
        "aspect_spans": [[1, 1], [7, 8], [28, 28], [36, 36], [45, 45], [55, 56], [79, 79]],
    },
}


@pytest.mark.parametrize("task", list(PACKED_LAYOUT))
def test_packed_layout_unchanged(task):
    """The one-token all-aspect sentence and the two-aspect sentence included."""
    examples = batch_examples()
    vocab = enc.Vocab.build(examples)
    if task == "ate":
        inp = enc.pack_inputs(vocab, examples)
    else:
        instances = training.asc_instances(examples)
        inp = enc.pack_inputs(vocab, [ex for ex, _ in instances], [i for _, i in instances])
    pin = PACKED_LAYOUT[task]
    for name in ("token_ids", "pos_ids", "content_positions", "protected"):
        assert getattr(inp, name).dtype == np.int64 and getattr(inp, name).tolist() == pin[name]
    assert inp.special.dtype == bool and np.flatnonzero(inp.special).tolist() == pin["special"]
    assert inp.lengths == tuple(pin["lengths"])
    if pin["aspect_spans"] is None:
        assert inp.aspect_spans is None
    else:
        assert inp.aspect_spans.dtype == np.int64
        assert inp.aspect_spans.tolist() == pin["aspect_spans"]


@pytest.mark.parametrize("task", tasks.TASKS)
def test_pack_inputs_records_the_hidden_rows(task):
    """`hidden` holds the rows of exactly the tokens the sets name, each in
    its own sequence, and is None when no set names a token; the rest of
    the layout is the unmasked one."""
    examples = batch_examples()
    vocab = enc.Vocab.build(examples)
    items = items_for(task, examples)
    batch = items if task == "ate" else [ex for ex, _ in items]
    aspects = None if task == "ate" else [i for _, i in items]
    sets = [frozenset(range(b % 2, len(ex), 2)) for b, ex in enumerate(batch)]
    plain, inp = (enc.pack_inputs(vocab, batch, aspects, s) for s in (None, sets))
    offsets = inp.content_segments.offsets
    want = [inp.content_positions[offsets[b] + c] for b, s in enumerate(sets) for c in s]
    assert sorted(inp.hidden.tolist()) == sorted(want) and len(want) > len(batch)
    assert inp.lengths == plain.lengths
    for name in ("token_ids", "pos_ids", "special", "content_positions", "protected"):
        assert np.array_equal(getattr(inp, name), getattr(plain, name))
    assert plain.hidden is None
    assert enc.pack_inputs(vocab, batch, aspects, [frozenset()] * len(batch)).hidden is None


@pytest.mark.parametrize("strategy", ["none", "fixed", "actm", "aam"])
@pytest.mark.parametrize("task", tasks.TASKS)
def test_every_other_strategy_runs_one_unmasked_amom_pass(monkeypatch, task, strategy):
    """`loss` and `predict_ids` run every strategy through `amom`: outside
    AMOM nothing is maskable, so each makes one `amom_regenerate` call that
    runs its first pass alone and hides nothing."""
    examples = batch_examples()
    model, _ = make_model(task, strategy, "mean", examples)
    items = items_for(task, examples)
    inner, calls = mk.amom_regenerate, []

    def recording(*args, **kwargs):
        calls.append(inner(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(mk, "amom_regenerate", recording)
    model.loss(items, np.random.default_rng(0))
    model.predict_ids(items)
    assert [(rounds, history) for _, rounds, history in calls] == [([1] * len(items), [])] * 2


def test_asc_refuses_an_aspect_without_token_span():
    examples = batch_examples()
    model, _ = make_model("asc", "amom", "mean", examples)
    unprojected = replace(examples[1], aspects=[replace(examples[1].aspects[0], token_span=None)])
    items = training.asc_instances(examples[:1]) + [(unprojected, 0)]
    with pytest.raises(ContractError, match="no token-span projection"):
        model.forward_asc(items)
    for scored in (False, True):
        with pytest.raises(ContractError, match="no token-span projection"):
            model.amom(items, losses=[] if scored else None)


def test_actm_masks_inside_the_packed_batch():
    """The equivalence above is only telling if the cut really drops tokens."""
    examples = batch_examples()
    model, _ = make_model("asc", "actm", "mean", examples)
    _, _, decision = model.encode_and_mask(packed_input(model, training.asc_instances(examples)))
    assert not decision.kept.all()


def digest(a) -> str:
    """The first 16 hex digits of the sha256 of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()[:16]


# The threshold stage's forward on batch_examples() with make_model's
# weights: digests of attn, relevance (ASC ACTM only), tau, kept and the
# masked states, then the kept count. Recorded when the stage was built from
# generic autodiff ops, one node per step; the fused kernels give the same bits.
THRESHOLD_PINS = {
    ("ate", "actm", "mean", "float64"):
        ("a1d9783808020887", None, "ba2db947c6b7aa45",
         "c19f82fb97375d2d", "849cf999152cc13f", 25),
    ("ate", "actm", "median", "float64"):
        ("a1d9783808020887", None, "5da4bb7b7d0fa860",
         "4eb88d322205494f", "7a995a341522c5e8", 34),
    ("ate", "actm", "sd", "float64"):
        ("a1d9783808020887", None, "111c4d00af3bf5d9",
         "e952b73e44432e6f", "368450ae351e9023", 20),
    ("ate", "fixed", "mean", "float64"):
        ("a1d9783808020887", None, "bb7e4a6acbfce5a5",
         "3947b28dcbe9a4f3", "5e7225516151c69e", 23),
    ("asc", "actm", "mean", "float64"):
        ("d6b278d5d9babda4", "b8e285e06959c0fc", "3e1bb97aace62222",
         "2bf400be695b7f84", "78338afa3f9e0128", 50),
    ("asc", "actm", "median", "float64"):
        ("d6b278d5d9babda4", "b8e285e06959c0fc", "2b0a4975b0d9e6e6",
         "7eb4dfcf79ff4994", "17b3773f675f79e4", 65),
    ("asc", "actm", "sd", "float64"):
        ("d6b278d5d9babda4", "b8e285e06959c0fc", "0ae3f611b4a49ed1",
         "ddd7a104c7eec8c9", "efe7f230e7862d45", 46),
    ("asc", "fixed", "mean", "float64"):
        ("d6b278d5d9babda4", None, "7610b0ca684161f7",
         "4affea306f36eefe", "291d4a86a4397418", 52),
    ("ate", "actm", "mean", "float32"):
        ("6a1e012d07fa3525", None, "4498e24ee678de09",
         "c19f82fb97375d2d", "4893e894b60b7362", 25),
    ("ate", "actm", "median", "float32"):
        ("6a1e012d07fa3525", None, "2c51029267f9a70e",
         "4eb88d322205494f", "0f43a233a4d3d04b", 34),
    ("ate", "actm", "sd", "float32"):
        ("6a1e012d07fa3525", None, "dcd286e945410cb4",
         "e952b73e44432e6f", "ce35645f730a3929", 20),
    ("ate", "fixed", "mean", "float32"):
        ("6a1e012d07fa3525", None, "945e8c1b71d8e9ca",
         "3947b28dcbe9a4f3", "0372d1327d990284", 23),
    ("asc", "actm", "mean", "float32"):
        ("4894b3a4f20dabd2", "9d1535c1e982a7b5", "3bd18f7f4a80949a",
         "2bf400be695b7f84", "98a42043fcf920de", 50),
    ("asc", "actm", "median", "float32"):
        ("4894b3a4f20dabd2", "9d1535c1e982a7b5", "a4265b8330f27ca6",
         "7eb4dfcf79ff4994", "1a9654a22f6b60b1", 65),
    ("asc", "actm", "sd", "float32"):
        ("4894b3a4f20dabd2", "9d1535c1e982a7b5", "9bddccad6895d864",
         "ddd7a104c7eec8c9", "54165ecd383495fc", 46),
    ("asc", "fixed", "mean", "float32"):
        ("4894b3a4f20dabd2", None, "7d4381822469d16a",
         "4affea306f36eefe", "a507a46c5add65ab", 52),
}


@pytest.mark.parametrize("key", list(THRESHOLD_PINS), ids="-".join)
def test_threshold_forward_unchanged(key, monkeypatch):
    task, strategy, aggregator, dtype = key
    examples = batch_examples()
    model, _ = make_model(task, strategy, aggregator, examples, np.dtype(dtype))
    relevance = []
    inner = mk.aspect_relevance

    def spy(*args, **kwargs):
        out = inner(*args, **kwargs)
        relevance.append(out[0])
        return out

    monkeypatch.setattr(mk, "aspect_relevance", spy)
    _, _, d = model.encode_and_mask(packed_input(model, items_for(task, examples)))
    got = (digest(d.attn), digest(relevance[0]) if relevance else None, digest(d.tau),
           digest(d.kept), digest(d.masked_states), int(d.kept.sum()))
    assert got == THRESHOLD_PINS[key]


# The AAM stage on batch_examples() with make_model's weights: the digest of
# its output states, the packed batch_loss in eval mode and in train mode
# (dropout drawn from seed 9), then the digests of the train-mode gradients of
# mask.z and enc.in_proj.W. Recorded when the remix was an autodiff op behind
# a separate clamp node on z; the masking kernel in one fused node gives the
# same bits. The ASC pins were re-recorded when the ASC stage began to remix
# only the aspect-span rows: its output is those rows alone, and in float32
# the mask.z gradient, summed over fewer terms, moved by ulps.
AAM_PINS = {
    ("ate", "float64"): ("acf79ad57539adb4", 27.807451822576862, 23.605219122891295,
                         "782661f5c00094d2", "f26cd7795d0b4065"),
    ("ate", "float32"): ("c4dd40e615c9dd26", 27.807449340820312, 23.6052188873291,
                         "07e5ef6f389df3fd", "15d501a6e66da7c1"),
    ("asc", "float64"): ("af06c3b653de86a8", 16.032040018906997, 17.690860578549973,
                         "2db4a66b81b7e19e", "ceda0010b9b85c9e"),
    ("asc", "float32"): ("a936bf1dbaf563c3", 16.032041549682617, 17.69085693359375,
                         "99f31d9b93cf31cf", "6a797f037a7262dd"),
}


@pytest.mark.parametrize("key", list(AAM_PINS), ids="-".join)
def test_aam_stage_unchanged(key, monkeypatch):
    task, dtype = key
    examples = batch_examples()
    model, config = make_model(task, "aam", "mean", examples, np.dtype(dtype))
    items = items_for(task, examples)
    states = []
    inner = mk.stage

    def spy(*args, **kwargs):
        out = inner(*args, **kwargs)
        states.append(out[0].data.copy())
        return out

    monkeypatch.setattr(mk, "stage", spy)
    eval_loss = training.batch_loss(model, config, items)
    train_loss = training.batch_loss(model, config, items, np.random.default_rng(9))
    grads = ad.backward(train_loss)
    got = (digest(states[0]), float(eval_loss.data), float(train_loss.data),
           digest(grads[model.params["mask.z"]]), digest(grads[model.params["enc.in_proj.W"]]))
    assert got == AAM_PINS[key]


@pytest.mark.parametrize("task", ["ate", "asc"])
def test_aam_span_outside_its_range_is_clipped_and_gets_no_gradient(task):
    """mask.z below 0 or above max_len acts as the nearer bound, and its
    gradient is exactly 0 while the encoder's is not. At or below -ramp,
    where `aam_remix` itself refuses the span, the model still runs."""
    examples = batch_examples()
    model, config = make_model(task, "aam", "mean", examples)
    items = items_for(task, examples)
    z = model.params["mask.z"]
    for outside, bound in ((-0.5, 0.0), (-model.mask_cfg.aam_ramp - 3.0, 0.0),
                           (model.enc_cfg.max_len + 3.0, model.enc_cfg.max_len)):
        z.data = np.array(bound)
        at_bound = float(training.batch_loss(model, config, items).data)
        z.data = np.array(outside)
        loss = training.batch_loss(model, config, items)
        grads = ad.backward(loss)
        assert float(loss.data) == at_bound
        assert grads[z] == 0.0 and grads[model.params["enc.in_proj.W"]].any()


def test_ate_actm_keeps_every_token_at_default_init():
    """`mask.w_a` starts at 0, so attention is uniform and tau, alpha times
    its mean, sits under every score: ATE ACTM masks nothing at init."""
    examples = batch_examples()
    vocab = enc.Vocab.build(examples)
    model = tasks.AbsaModel("ate", replace(SMALL, vocab_size=len(vocab.words)),
                            mk.MaskConfig(strategy="actm"), vocab, 3)
    inp = enc.pack_inputs(model.vocab, examples)
    _, _, decision = model.encode_and_mask(inp)
    assert not model.params["mask.w_a"].data.any()
    assert decision.kept.all() and decision.kept.size == len(inp)


def one_instance_sets(task, examples):
    if task == "ate":
        return [[ex] for ex in examples]
    return [[dataclasses.replace(ex, aspects=[a])] for ex in examples for a in ex.aspects]


def count_table(report):
    return Counter({(cls, key): counts[key] for cls, counts in report.per_class.items()
                    for key in ("tp", "fp", "fn")})


@pytest.mark.parametrize("strategy", ["actm", "aam"])
@pytest.mark.parametrize("task", ["ate", "asc"])
def test_evaluate_counts_equal_sum_of_one_instance_calls(task, strategy, monkeypatch):
    heldout = corpus.synth_corpus(seed=41, size=40)
    model, _ = make_model(task, strategy, "mean", heldout)
    _, rows = training._instances(heldout, task, model.enc_cfg.max_len, "evaluation")
    monkeypatch.setattr(training, "EVAL_ROWS", sum(rows) // 3)   # four chunks
    full = training.evaluate(model, heldout, task)
    summed = Counter()
    for dataset in one_instance_sets(task, heldout):
        summed.update(count_table(training.evaluate(model, dataset, task)))
    assert +summed == +count_table(full)
    assert sum(rows) > training.EVAL_ROWS


def mixed_lengths():
    """Short synthetic sentences, each followed by itself behind a long preamble."""
    preamble = "after a long wait at the crowded bar we finally sat down by the window and "
    out = []
    for ex in corpus.synth_corpus(seed=43, size=24):
        shift = len(preamble)
        out += [ex, corpus.make_example(preamble + ex.text, [
            AspectAnnotation(a.term, a.char_from + shift, a.char_to + shift, a.polarity)
            for a in ex.aspects])]
    return out


@pytest.mark.parametrize("strategy", ["actm", "amom"])
@pytest.mark.parametrize("task", ["ate", "asc"])
def test_evaluate_chunks_by_length_and_keeps_input_order(task, strategy, monkeypatch):
    data = mixed_lengths()
    model, _ = make_model(task, strategy, "mean", data)
    _, rows = training._instances(data, task, model.enc_cfg.max_len, "evaluation")
    monkeypatch.setattr(training, "EVAL_ROWS", sum(rows) // 5)   # six chunks
    full = training.evaluate(model, data, task)
    summed = Counter()
    for dataset in one_instance_sets(task, data):
        summed.update(count_table(training.evaluate(model, dataset, task)))
    assert +summed == +count_table(full)

    # Labels that name their instance come back to it. The chunks cut the
    # length-sorted order into an even number of runs of about equal packed
    # rows; they may run in any order, on either thread.
    batches = []
    if task == "ate":
        def oracle(self, batch):
            batches.append([enc.packed_length(ex) for ex in batch])
            return [list(ex.bio_tags) for ex in batch]
        monkeypatch.setattr(tasks.AbsaModel, "predict_bio", oracle)
        assert training.evaluate(model, data, task).ate == {"p": 1.0, "r": 1.0, "f1": 1.0}
    else:
        def oracle(self, batch):
            batches.append([enc.packed_length(ex, i) for ex, i in batch])
            return [ex.aspects[i].polarity for ex, i in batch]
        monkeypatch.setattr(tasks.AbsaModel, "predict_polarity", oracle)
        assert training.evaluate(model, data, task).asc["acc"] == 1.0
    lengths = [n for batch in sorted(batches) for n in batch]
    assert len(batches) == 2 * -(-sum(rows) // (2 * training.EVAL_ROWS)) == 6
    assert all(abs(sum(batch) - sum(rows) / 6) <= max(rows) for batch in batches)
    assert lengths == sorted(rows)


# batch_loss of AMOM: (task, train mode) -> loss. First recorded before
# packing, when AMOM training ran every instance on its own; re-recorded when
# the 24 always-zero dependency input columns were dropped, which changes the
# init of SMALL. The code before that change gives the same losses from these
# parameters with 24 zero rows appended to in_proj.W; so do the evaluation pins
# below. The ASC entries were re-recorded again when AMOM ASC lost its scoring
# weight mask.w_a (make_model then draws other head weights) and its loss lost
# the L2 term: the code before that change, given these parameters and
# mask.w_a = 0, gives these losses plus (l2_lambda / 2) * ||theta||^2, and the
# same evaluation pins.
# The train-mode entries were re-recorded when AMOM training packed the batch
# into one loop (ATE 22.938112896773923, ASC 23.429867885544176 before): the
# dropout draws now run round by round, not instance by instance. The mean of
# batch_loss over batches of one, sharing one generator, still gave the old
# values (AMOM_LOSSES_ALONE, test_amom_training_draws_instance_by_instance_when_alone).
# The train-mode entries here and in AMOM_LOSSES_ALONE were re-recorded when
# dropout came to draw 16-bit lanes and attention went keys-outer (before:
# ATE 23.5674124088784 packed and 22.938112896773923 alone, ASC
# 23.265537540332392 and 23.429867885544176); the attention kernel before that
# change, given the same lane masks in its own layout, gives them to 2e-16
# relative.
AMOM_LOSSES = {
    ("ate", False): 18.424291944816655,
    ("ate", True): 23.79435385022424,
    ("asc", False): 23.521206388192226,
    ("asc", True): 21.986991593666687,
}
# The train-mode losses of batches of one, which draw as AMOM did before packing.
AMOM_LOSSES_ALONE = {"ate": 20.449071025411317, "asc": 22.321957397063976}


@pytest.mark.parametrize("task,train", list(AMOM_LOSSES))
def test_amom_batch_loss_unchanged(task, train):
    data = corpus.synth_corpus(seed=21, size=6)
    model, config = make_model(task, "amom", "mean", data)
    loss = training.batch_loss(model, config, items_for(task, data),
                               np.random.default_rng(9) if train else None)
    assert abs(float(loss.data) - AMOM_LOSSES[(task, train)]) <= 1e-10


@pytest.mark.parametrize("task", list(AMOM_LOSSES_ALONE))
def test_amom_training_draws_instance_by_instance_when_alone(task):
    data = corpus.synth_corpus(seed=21, size=6)
    model, config = make_model(task, "amom", "mean", data)
    rng = np.random.default_rng(9)
    losses = [float(training.batch_loss(model, config, [item], rng).data)
              for item in items_for(task, data)]
    assert abs(np.mean(losses) - AMOM_LOSSES_ALONE[task]) <= 1e-10


@pytest.mark.parametrize("task", ["ate", "asc"])
def test_amom_packed_loss_matches_batches_of_one(task):
    """With dropout off, the packed scored loss and every gradient equal the
    mean over batches of one; the batch holds an ASC instance with nothing
    to mask, which contributes its first-pass loss alone."""
    examples = batch_examples()
    model, config = make_model(task, "amom", "mean", examples)
    items = items_for(task, examples)
    loss, grads = loss_and_grads(model, config, [items], False, seed=23)
    loss_1, grads_1 = loss_and_grads(model, config, [[item] for item in items], False, seed=23)
    assert abs(loss - loss_1) <= 1e-10
    assert grads.keys() == grads_1.keys() == set(model.params.names())
    for name, g in grads_1.items():
        assert np.abs(grads[name] - g).max() <= 1e-10, name
    if task == "asc":
        rounds = model.amom(items, losses=[])[1]
        assert len(examples[0]) == 1 and rounds[0] == 1
        assert rounds[1:] == [1 + model.mask_cfg.amom_iterations] * (len(items) - 1)


@pytest.mark.parametrize("task", ["ate", "asc"])
def test_amom_training_forwards_once_per_round(task, monkeypatch):
    """A training batch_loss makes one packed forward per round, every one
    recording a graph: no extra no-grad pass."""
    examples = batch_examples()
    model, config = make_model(task, "amom", "mean", examples)
    items = items_for(task, examples)
    name = f"forward_{task}"
    inner = getattr(model, name)
    calls = []

    def logged(batch, *args, **kwargs):
        calls.append((len(batch), ad.grad_enabled()))
        return inner(batch, *args, **kwargs)

    monkeypatch.setattr(model, name, logged)
    training.batch_loss(model, config, items, np.random.default_rng(9))
    assert len(calls) == 1 + model.mask_cfg.amom_iterations
    assert calls[0] == (len(items), True) and all(grad for _, grad in calls)


# evaluate() of AMOM, first recorded when it refined every instance on its own
# and re-recorded with AMOM_LOSSES: the per-class counts, and for each instance
# in turn the content indices each of its forwards hid.
AMOM_EVAL_COUNTS = {
    "ate": {"B": {"fn": 5, "fp": 2, "tp": 2}, "I": {"fn": 2, "fp": 1, "tp": 1},
            "O": {"fn": 3, "fp": 7, "tp": 28}},
    "asc": {"negative": {"f1": 0.0, "fn": 6, "fp": 0, "tp": 0},
            "neutral": {"f1": 0.25, "fn": 0, "fp": 6, "tp": 1}},
}
AMOM_EVAL_HIDDEN = {
    "ate": [[], [0], [0], [], [3], [1], [], [1, 8], [1, 8], [], [0], [0], [], [0], [0], [],
            [4], [4]],
    "asc": [[], [0], [0], [], [0], [0], [], [0], [0], [], [0], [0], [], [0], [0], [],
            [0], [0], [], [0], [0]],
}


@pytest.mark.parametrize("task", list(AMOM_EVAL_COUNTS))
def test_amom_evaluate_unchanged(task, monkeypatch):
    """Evaluation now packs a chunk's instances into one forward per round,
    in an order of its choosing; the log regroups each call's hidden sets by
    instance, instances in input order."""
    data = corpus.synth_corpus(seed=21, size=6)
    model, _ = make_model(task, "amom", "mean", data)
    name = f"forward_{task}"
    inner = getattr(model, name)

    def key(item):   # ASC instances are (example, aspect index) tuples made per call
        return (id(item[0]), item[1]) if task == "asc" else id(item)

    hidden = {key(item): [] for item in items_for(task, data)}
    calls = []

    def logged(items, *args, masked_content=None, **kwargs):
        calls.append(len(items))
        for k, item in enumerate(items):
            hidden[key(item)].append(sorted(masked_content[k]) if masked_content else [])
        return inner(items, *args, masked_content=masked_content, **kwargs)

    monkeypatch.setattr(model, name, logged)
    assert training.evaluate(model, data, task).per_class == AMOM_EVAL_COUNTS[task]
    assert [sets for per_item in hidden.values() for sets in per_item] == AMOM_EVAL_HIDDEN[task]
    assert len(calls) == 1 + model.mask_cfg.amom_iterations and calls[0] == len(hidden)


@pytest.mark.parametrize("task", ["ate", "asc"])
def test_amom_packed_evaluation_matches_batches_of_one(task, monkeypatch):
    examples = batch_examples()
    model, _ = make_model(task, "amom", "mean", examples)
    items = items_for(task, examples)
    with ad.no_grad():
        probs, _, history = model.amom(items)
        singles = [model.amom([item]) for item in items]
    for b, (probs_1, _, _) in enumerate(singles):
        assert np.abs(probs[b] - probs_1[0]).max() <= 1e-10
    active = [b for b, single in enumerate(singles) if single[2]]
    if task == "asc":   # the one-token sentence is all aspect: nothing to mask
        assert len(examples[0]) == 1 and 0 not in active
    regrouped = {b: history[k::len(active)] for k, b in enumerate(active)}
    assert [regrouped.get(b, []) for b in range(len(items))] == [h for _, _, h in singles]

    packed = training.evaluate(model, examples, task).per_class
    monkeypatch.setattr(training, "EVAL_ROWS", 1)   # one chunk per instance
    assert training.evaluate(model, examples, task).per_class == packed


@pytest.mark.parametrize("scored", [False, True], ids=["predict", "loss"])
def test_amom_asc_hides_leftmost_tokens_outside_the_aspect(scored, monkeypatch):
    """AMOM ASC has no weight that ranks tokens: each round hides the first
    sentence tokens outside the instance's aspect span, never an aspect token."""
    examples = mixed_lengths()[:8]
    model, _ = make_model("asc", "amom", "mean", examples)
    items = training.asc_instances(examples)
    hidden = []
    inner = model.forward_asc

    def logged(batch, *args, masked_content=None, **kwargs):
        if masked_content is not None:
            hidden.extend(zip(batch, masked_content))
        return inner(batch, *args, masked_content=masked_content, **kwargs)

    monkeypatch.setattr(model, "forward_asc", logged)
    model.amom(items, losses=[] if scored else None)
    assert any(len(h) > 1 for _, h in hidden)
    for (ex, i), h in hidden:
        start, end = ex.aspects[i].token_span
        outside = [c for c in range(len(ex)) if not start <= c <= end]
        assert h == frozenset(outside[:len(h)])


@pytest.mark.parametrize("index", ["past-the-end", "negative"])
def test_masked_content_index_outside_its_instance_rejected(index):
    """A hidden index is a sentence-token index of its own instance. Unchecked,
    index len(sentence 0) on instance 0 hid token 0 of instance 1 (bit-equal
    states), and -1 wrapped to the last row of the last instance."""
    examples = batch_examples()[1:3]
    model, _ = make_model("ate", "none", "mean", examples)
    bad = len(examples[0]) if index == "past-the-end" else -1
    with pytest.raises(ContractError, match=f"index {bad} of instance 0 is outside its "
                                            f"{len(examples[0])} sentence tokens"):
        model.forward_ate(examples, masked_content=[frozenset({bad}), frozenset()])
    legal = model.forward_ate(examples, masked_content=[frozenset(), frozenset({0})])
    assert legal.probs.data.shape == (sum(len(ex) for ex in examples), 3)


class TestAamRemix:
    def test_matches_per_row_attention(self):
        rng = np.random.default_rng(2)
        states = rng.normal(size=(7, 4))
        z, ramp, d_k = 1.4, 2.0, 4
        unit = states / np.linalg.norm(states, axis=1, keepdims=True)
        logits = unit @ unit.T * np.sqrt(d_k)
        rows = np.stack([oracle.aam_attention(p, logits[p], z, ramp) for p in range(7)])
        got, _ = mk.aam_remix(states, z, ramp, d_k)
        assert np.abs(got - rows @ states).max() <= 1e-12

    def test_empty_support_refused(self):
        """At z <= -ramp no row keeps its own key; the model clips z to >= 0."""
        states = np.random.default_rng(3).normal(size=(4, 3))
        with pytest.raises(ContractError, match="must exceed -ramp"):
            mk.aam_remix(states, -5.0, 2.0, 3)

    def test_packed_rows_stay_in_their_sequence(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 3))
        packed, _ = mk.aam_remix(np.vstack([a, b]), 3.0, 2.0, 3, ad.Segments([5, 3]))
        alone = np.vstack([mk.aam_remix(a, 3.0, 2.0, 3)[0], mk.aam_remix(b, 3.0, 2.0, 3)[0]])
        assert np.abs(packed - alone).max() <= 1e-12

    @staticmethod
    def span_batch():
        """ASC instances of unequal lengths whose aspect spans take 1-3
        tokens, on the first sentence token, the last, both and neither."""
        def example(text, term, polarity="positive"):
            start = text.index(term)
            return corpus.make_example(text, [AspectAnnotation(term, start, start + len(term),
                                                               polarity)])

        examples = [example("steak", "steak"),
                    example("battery life was far too short", "battery life", "negative"),
                    example("we loved the goat cheese salad", "goat cheese salad"),
                    example("the wine list was great but the service was slow", "wine list")]
        return examples + [corpus.make_example(
            "the wine list was great but the service was slow",
            [AspectAnnotation("service", 32, 39, "negative")])]

    def test_aspect_rows_match_the_oracle(self):
        """The ASC stage remixes the aspect-span rows alone, one row per
        span token, each the oracle's row for that query over its own
        sequence; in float32 it agrees with float64 to about 1e-6."""
        examples = self.span_batch()
        items = training.asc_instances(examples)
        spans = [ex.aspects[i].token_span for ex, i in items]
        assert {e - s + 1 for s, e in spans} == {1, 2, 3}
        assert any(s == 0 for s, _ in spans) and any(e == len(ex) - 1
                                                     for (ex, _), (_, e) in zip(items, spans))
        model, _ = make_model("asc", "aam", "mean", examples)
        inp = packed_input(model, items)
        encoded, states, _ = model.encode_and_mask(inp)
        x, got = encoded.data, states.data
        assert got.shape == (sum(e - s + 1 for s, e in spans), x.shape[1])
        z, ramp = float(model.params["mask.z"].data), model.mask_cfg.aam_ramp
        want = []
        for b, (s, e) in enumerate(spans):
            rows = x[inp.segments.offsets[b]:][:inp.segments.lengths[b]]
            unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            logits = unit @ unit.T * np.sqrt(model.enc_cfg.hidden)
            want += [oracle.aam_attention(p, logits[p], z, ramp) @ rows
                     for p in range(s + 1, e + 2)]
        assert np.abs(got - np.stack(want)).max() <= 1e-12
        out32, _ = mk.aam_remix(x.astype(np.float32), np.float32(z), ramp, model.enc_cfg.hidden,
                                inp.segments, inp.aspect_rows)
        assert out32.dtype == np.float32
        assert np.abs(out32 - got).max() <= 1e-6 * np.abs(got).max()

    def test_a_query_outside_its_sequence_is_refused(self):
        states = np.random.default_rng(5).normal(size=(8, 3))
        seg = ad.Segments([5, 3])   # rows 0..4 and 5..7
        for rows, bad, b in (([5, 6], 5, 0), ([1, 4], 4, 1), ([0, 8], 8, 1)):
            with pytest.raises(ContractError, match=f"query row {bad} is outside sequence {b}"):
                mk.aam_remix(states, 3.0, 2.0, 3, seg, (np.array(rows), ad.Segments([1, 1])))
        with pytest.raises(DimensionError):
            mk.aam_remix(states, 3.0, 2.0, 3, seg, (np.array([1, 5]), ad.Segments([2])))


class TestSegments:
    def test_layout(self):
        seg = ad.Segments([2, 3, 1])
        assert seg.offsets.tolist() == [0, 2, 5]
        assert seg.ids.tolist() == [0, 0, 1, 1, 1, 2]
        assert seg.positions.tolist() == [0, 1, 0, 1, 2, 0]
        x = np.arange(6.0)
        assert np.array_equal(seg.unpad(seg.pad(x)), x)
        assert seg.sum(x).tolist() == [1.0, 9.0, 5.0]

    def test_empty_segment_rejected(self):
        with pytest.raises(DimensionError):
            ad.Segments([2, 0])

    def test_segment_aggregates(self):
        """Each segment's aggregate, as ACTM's threshold at alpha 1 spreads it
        over the segment's tokens."""
        seg = ad.Segments([3, 4])
        v = np.array([1.0, 3.0, 2.0, 4.0, 1.0, 3.0, 2.0])

        def pooled(kind):
            return mk.actm_threshold(v, 1.0, kind, segments=seg)[0][seg.offsets]

        assert pooled("median").tolist() == [2.0, 2.5]
        assert pooled("mean").tolist() == [2.0, 2.5]
        assert np.allclose(pooled("sd"), [np.std([1, 3, 2]), np.std([4, 1, 3, 2])])
