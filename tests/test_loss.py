"""`AbsaModel.loss`, one fused negative-log-likelihood node per packed
forward, against the per-instance loss graph of `loss_oracle`."""

import functools
from dataclasses import replace

import numpy as np
import pytest

import loss_oracle as oracle
from maskterm import autodiff as ad
from maskterm import corpus
from maskterm import encoder as enc
from maskterm import masking as mk
from maskterm import tasks
from maskterm import training
from maskterm.autodiff import Tensor
from maskterm.corpus import AspectAnnotation
from maskterm.exceptions import DimensionError

SMALL = enc.EncoderConfig(d_w=8, d_p=2, hidden=16, n_layers=2, n_heads=2, d_ff=24,
                          dropout_rate=0.1)


def examples(size):
    """A one-token sentence that is all aspect, so its ASC instance has
    nothing to mask, then synthetic sentences."""
    steak = corpus.make_example("steak", [AspectAnnotation("steak", 0, 5, "positive")])
    return [steak] + corpus.synth_corpus(seed=29, size=size)


def make_model(task, strategy, data, dtype=np.float64, enc_cfg=SMALL):
    """A model whose heads and scoring weights are drawn, so no path is trivial."""
    vocab = enc.Vocab.build(data)
    model = tasks.AbsaModel(task, replace(enc_cfg, vocab_size=len(vocab.words)),
                            mk.MaskConfig(strategy=strategy), vocab, 3, dtype)
    rng = np.random.default_rng(5)
    for name in model.params.names():
        if name.startswith("head.") or name == "mask.w_a":
            t = model.params[name]
            t.data = rng.normal(0.0, 0.5, size=t.data.shape).astype(dtype)
    return model


def items_for(task, data):
    return data if task == "ate" else training.asc_instances(data)


def loss_and_grads(model, loss_fn):
    loss = loss_fn()
    grads = ad.backward(loss)
    return float(loss.data), {n: grads[t] for n, t in model.params.items() if t in grads}


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("strategy", mk.MaskConfig.STRATEGIES)
@pytest.mark.parametrize("task", tasks.TASKS)
def test_loss_matches_per_instance_oracle(task, strategy, train):
    """In float64 the loss and every parameter gradient equal the oracle's to
    1e-12 relative; the ASC batch holds an instance with nothing to mask,
    which AMOM scores on its first pass alone."""
    data = examples(6)
    model = make_model(task, strategy, data)
    items = items_for(task, data)
    loss, grads = loss_and_grads(
        model, lambda: model.loss(items, np.random.default_rng(9) if train else None))
    want, want_grads = loss_and_grads(
        model, lambda: oracle.batch_loss(model, items, np.random.default_rng(9) if train else None))
    assert abs(loss - want) <= 1e-12 * abs(want)
    assert grads.keys() == want_grads.keys()
    for name, g in want_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    if strategy == "amom":
        rounds = model.amom(items)[1]
        nothing_to_mask = 1 if task == "asc" else 1 + model.mask_cfg.amom_iterations
        assert rounds[0] == nothing_to_mask


def graph_nodes(loss: Tensor, leaves: bool = True) -> int:
    """Nodes `autodiff.backward` visits: the loss and every recorded ancestor,
    or without `leaves` the loss and every op node behind it."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen and (parent._parents or leaves and parent.requires_grad):
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_amom_training_batch_graph_stays_small(monkeypatch):
    """A 32-instance ASC AMOM training batch records one loss node per
    forward, not one cross-entropy per instance and round (675 nodes on this
    batch when it did); each instance runs 1 + amom_iterations rounds, or 1
    with nothing to mask. The rounds' sum is a plain node here: with the
    default SPLIT_ROWS it is a concurrent join over the parameters, which
    would hide the rounds' graphs from the count."""
    monkeypatch.setattr(tasks, "SPLIT_ROWS", 10**9)
    data = examples(30)
    model = make_model("asc", "amom", data, np.float32, enc.EncoderConfig())
    items = training.asc_instances(data)[:32]
    assert len(items) == 32
    loss = model.loss(items, np.random.default_rng(9))
    assert graph_nodes(loss) < 100
    rounds = model.amom(items, losses=[])[1]
    iterations = model.mask_cfg.amom_iterations
    assert rounds == [1] + [1 + iterations] * 31


# Non-leaf nodes of a 32-instance float32 training loss (two encoder layers,
# as the default encoder has). Per packed forward: the embedding with the
# input projection, one node per layer, the masking stage but for `none` and
# AMOM, the head and the loss; AMOM sums its three rounds' loss nodes in one
# more, a plain node below SPLIT_ROWS. Before, in the order none, fixed, actm,
# aam, amom:
# - with the input projection, ASC ACTM's pooled aspect vector (three nodes)
#   and AMOM's round sum (two adds) as generic nodes: ATE 6, 7, 7, 7, 20 and
#   ASC 6, 7, 10, 7, 20;
# - before that, when the embedding and the heads were not one node each:
#   ATE 12, 13, 13, 13, 40 and ASC 16, 17, 20, 17, 52.
NON_LEAF_NODES = {
    "ate": {"none": 5, "fixed": 6, "actm": 6, "aam": 6, "amom": 16},
    "asc": {"none": 5, "fixed": 6, "actm": 6, "aam": 6, "amom": 16},
}


@pytest.mark.parametrize("strategy", mk.MaskConfig.STRATEGIES)
@pytest.mark.parametrize("task", tasks.TASKS)
def test_training_graph_has_one_node_per_forward_stage(monkeypatch, task, strategy):
    """Counted with the rounds' sum a plain node; at the default SPLIT_ROWS,
    which these AMOM batches reach over their rounds, the loss is one node
    over the parameters."""
    data = examples(31)
    items = items_for(task, data)[:32]
    assert len(items) == 32
    model = make_model(task, strategy, data, np.float32)
    if strategy == "amom":
        loss = model.loss(items, np.random.default_rng(9))
        assert loss._parents == tuple(model.params.tensors())
        monkeypatch.setattr(tasks, "SPLIT_ROWS", 10**9)
    loss = model.loss(items, np.random.default_rng(9))
    assert graph_nodes(loss, leaves=False) == NON_LEAF_NODES[task][strategy]


def test_amom_rounds_sum_in_one_node():
    """AMOM's loss is one node over its forwards' `nll` nodes: their sum,
    whose backward hands each the same gradient."""
    data = examples(6)
    model = make_model("ate", "amom", data)
    loss = model.loss(data)
    rounds = loss._parents
    assert len(rounds) == 1 + model.mask_cfg.amom_iterations
    assert float(loss.data) == float(functools.reduce(np.add, [r.data for r in rounds]))
    assert all(r._parents[0]._parents for r in rounds)   # each over its forward's probabilities


@pytest.mark.parametrize("task", tasks.TASKS)
def test_threshold_node_pools_the_aspect_itself(task):
    """ACTM's threshold node has the encoder's states and the strategy's
    weights for parents; on ASC the pooled aspect vector stays inside it."""
    data = examples(6)
    model = make_model(task, "actm", data)
    head = model.forward(items_for(task, data)[:3]).probs
    threshold = head._parents[1] if task == "asc" else head._parents[0]
    weights = ["mask.w_a", "mask.alpha"] + (["mask.gamma", "mask.beta"] if task == "asc" else [])
    assert threshold._parents[1:] == tuple(model.params[w] for w in weights)
    if task == "asc":   # the head reads the encoder's states for [CLS] as well
        assert threshold._parents[0] is head._parents[0]


class TestNll:
    def test_value_and_gradient(self):
        probs = Tensor(np.array([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]]), requires_grad=True)
        weight = np.array([2.0, 0.5])
        loss = tasks.nll(probs, np.array([0, 2]), weight)
        assert loss.item() == pytest.approx(-(2.0 * np.log(0.5) + 0.5 * np.log(0.8)), abs=1e-15)
        assert ad.backward(loss)[probs].tolist() == [[-4.0, 0.0, 0.0], [0.0, 0.0, -0.625]]

    def test_scalar_weight_applies_after_the_sum(self):
        probs = Tensor(np.full((3, 3), 1.0 / 3.0), requires_grad=True)
        loss = tasks.nll(probs, np.array([0, 1, 2]), 0.25)
        assert loss.item() == pytest.approx(0.75 * np.log(3.0), abs=1e-15)
        assert np.allclose(ad.backward(loss)[probs], np.eye(3) * -0.75)

    def test_clamped_rows_get_no_gradient(self):
        probs = Tensor(np.array([[0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]), requires_grad=True)
        loss = tasks.nll(probs, np.array([0, 1]), 1.0)
        assert loss.item() == pytest.approx(-np.log(tasks.LOG_CLAMP) - np.log(0.5), abs=1e-12)
        assert ad.backward(loss)[probs].tolist() == [[0.0, 0.0, 0.0], [0.0, -2.0, 0.0]]

    def test_float32_stays_float32(self):
        probs = Tensor(np.full((2, 3), 1.0 / 3.0, dtype=np.float32), requires_grad=True)
        loss = tasks.nll(probs, np.array([0, 1]), np.array([0.5, 0.5], dtype=np.float32))
        assert loss.data.dtype == ad.backward(loss)[probs].dtype == np.float32

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            tasks.nll(Tensor(np.full((2, 3), 1.0 / 3.0)), np.array([0]), 1.0)
