"""Task heads for aspect term extraction (BIO tagging) and aspect sentiment
classification, with their losses, metrics, and the model that binds the
encoder and a masking strategy together.

A packed forward records one graph node per stage: the embedding with the
input projection, each encoder layer, the masking stage (none for `none`
and AMOM) and the task head, `ate_head` or `asc_head`; a training loss adds
one `nll` node per forward, and AMOM one node that sums its rounds."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import masking as mk
from .autodiff import ParamStore, Tensor
from .corpus import TokenizedExample
from .exceptions import ContractError, DimensionError

TASKS = ("ate", "asc")
BIO_CLASSES = ("B", "I", "O")
BIO_INDEX = {c: i for i, c in enumerate(BIO_CLASSES)}
ASC_CLASSES = ("positive", "negative", "neutral")
ASC_INDEX = {c: i for i, c in enumerate(ASC_CLASSES)}
# ACTM's weights per task, in parameter order, with the initial value each
# takes where MaskConfig leaves its `<name>_init` None. ATE starts permissive
# (alpha 0.5); ASC starts clause-selective, the threshold cut at mean
# relevance (alpha = 1 + |gamma|).
ACTM_WEIGHTS = {"ate": {"alpha": 0.5}, "asc": {"alpha": 1.5, "gamma": -0.5, "beta": 4.0}}
LOG_CLAMP = 1e-12   # the loss takes log(max(p, LOG_CLAMP))


# -- span decoding and span-level F1 ------------------------------------------


def decode_bio_spans(tags: list[str]) -> list[tuple[int, int]]:
    """Inclusive (start, end) spans; a leading I (start or after O) is repaired
    to B so imperfect predictions still yield measurable spans."""
    spans: list[tuple[int, int]] = []
    start = None
    for i, tag in enumerate(tags):
        if tag == "B":
            if start is not None:
                spans.append((start, i - 1))
            start = i
        elif tag == "I":
            if start is None:
                start = i
        else:
            if start is not None:
                spans.append((start, i - 1))
                start = None
    if start is not None:
        spans.append((start, len(tags) - 1))
    return spans


def ate_span_f1(pred, gold) -> tuple[float, float, float]:
    """Exact-match span precision/recall/F1, micro-averaged over whatever
    the spans are keyed by (evaluation pairs each span with its example).

    Empty prediction yields precision 1, empty gold yields recall 1, and F1
    is 0 whenever precision + recall is 0.
    """
    pred, gold = list(pred), list(gold)
    tp = len(set(pred) & set(gold))
    precision = tp / len(pred) if pred else 1.0
    recall = tp / len(gold) if gold else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


# -- losses ----------------------------------------------------------------------


def nll(probs: Tensor, gold: np.ndarray, weight) -> Tensor:
    """-sum(weight * log p) over the gold entries p of (m, C) probabilities,
    one gold class id per row, p clamped below at LOG_CLAMP (no gradient
    there). `weight` is a Python float, applied after the sum, or one weight
    per row. One fused node; its backward writes the gold entries alone."""
    p = probs.data
    if len(gold) != p.shape[0]:
        raise DimensionError(f"probabilities {p.shape} vs {len(gold)} gold ids")
    if not len(gold):
        raise ContractError("the loss needs a non-empty batch")
    rows = np.arange(len(gold))
    picked = p[rows, gold]
    safe = np.maximum(picked, LOG_CLAMP)
    logs = np.log(safe)
    w = np.asarray(weight, dtype=p.dtype)
    data = -(logs.sum() * w) if w.ndim == 0 else -(logs * w).sum()

    def backward(g):
        full = np.zeros_like(p)
        full[rows, gold] = -(g * w) * (picked > LOG_CLAMP) / safe
        return (full,)

    return ad.fused(data, (probs,), backward)


def ate_loss(probs: Tensor, gold_tags: list[str]) -> Tensor:
    """BIO cross-entropy summed (not averaged) over the sentence tokens."""
    if probs.data.shape != (len(gold_tags), len(BIO_CLASSES)):
        raise DimensionError(f"probabilities {probs.data.shape} vs {len(gold_tags)} gold tags")
    sums = probs.data.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ContractError("probability rows must sum to 1")
    return nll(probs, np.array([BIO_INDEX[t] for t in gold_tags]), 1.0)


# -- heads -------------------------------------------------------------------------


def ate_head(states: Tensor, content_rows: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """BIO probabilities of the `content_rows` of `states` as one graph node:
    the affine head over every row, as one matrix product rounds them, then
    the content rows' softmax."""
    x = states.data
    logits = x @ w.data + b.data
    probs, softmax_backward = ad.softmax_kernel(logits[content_rows])

    def backward(g):
        dlogits = np.zeros_like(logits)
        np.add.at(dlogits, content_rows, softmax_backward(g))
        return dlogits @ w.data.T, x.T @ dlogits, dlogits.sum(axis=0)

    return ad.fused(probs, (states, w, b), backward)


def asc_head(encoded: Tensor, states: Tensor, cls_rows: np.ndarray, pool_rows: np.ndarray,
             pool_segments: ad.Segments, divisor: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """Polarity probabilities, one row per instance, as one graph node: the
    instance's [CLS] row of `encoded` next to its `pool_rows` of `states`
    (one segment of `pool_segments` each) summed and divided by its
    `divisor`, then the affine head and a softmax. `states` may be `encoded`
    itself, which then takes both gradients."""
    hidden = encoded.data.shape[1]
    scale = (1.0 / divisor)[:, None].astype(states.data.dtype)
    feats = np.concatenate([encoded.data[cls_rows],
                            pool_segments.sum(states.data[pool_rows]) * scale], axis=1)
    probs, softmax_backward = ad.softmax_kernel(feats @ w.data + b.data)

    def backward(g):
        dlogits = softmax_backward(g)
        dfeats = dlogits @ w.data.T
        dencoded, dstates = np.zeros_like(encoded.data), np.zeros_like(states.data)
        np.add.at(dencoded, cls_rows, dfeats[:, :hidden])
        np.add.at(dstates, pool_rows, (dfeats[:, hidden:] * scale)[pool_segments.ids])
        return dencoded, dstates, feats.T @ dlogits, dlogits.sum(axis=0)

    return ad.fused(probs, (encoded, states, w, b), backward)


# -- metrics -----------------------------------------------------------------------


def asc_metrics(preds: list[str], golds: list[str]):
    """Accuracy and macro-F1 over the three polarity classes; classes absent
    from both sides are left out of the macro mean."""
    if not preds or len(preds) != len(golds):
        raise ContractError("need non-empty, aligned prediction/gold lists")
    accuracy = sum(p == g for p, g in zip(preds, golds)) / len(golds)
    per_class: dict[str, dict[str, float]] = {}
    f1s = []
    for cls in ASC_CLASSES:
        tp = sum(1 for p, g in zip(preds, golds) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(preds, golds) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(preds, golds) if p != cls and g == cls)
        if tp + fp + fn == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class[cls] = {"tp": tp, "fp": fp, "fn": fn, "f1": f1}
        f1s.append(f1)
    macro = sum(f1s) / len(f1s) if f1s else 0.0
    return accuracy, macro, per_class


@dataclass
class EvalReport:
    ate: dict | None = None          # {"p", "r", "f1"}
    asc: dict | None = None          # {"acc", "macro_f1"}
    per_class: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "ate": self.ate,
            "asc": self.asc,
            "per_class": self.per_class,
        }
        return json.dumps(payload, sort_keys=True)


# -- model -------------------------------------------------------------------------


@dataclass
class TaskOutput:
    probs: Tensor                    # (sum of sentence lengths, 3) for ATE, (B, 3) for ASC
    decision: mk.MaskDecision | None
    inp: enc.ModelInput              # the packed batch
    rows: ad.Segments                # rows of `probs` per instance: its tokens (ATE), one (ASC)


class AbsaModel:
    """Encoder + one masking strategy + one task head, parameters included.

    The model computes in `dtype`: float32 by default, as training and
    loaded checkpoints use it, or float64, the reference precision of the
    gradient checks. Parameters take the same init draws whatever the dtype,
    rounded to it, and every constant the model builds takes it too.
    """

    def __init__(self, task: str, enc_cfg: enc.EncoderConfig, mask_cfg: mk.MaskConfig,
                 vocab: enc.Vocab, seed: int, dtype=np.float32):
        if task not in TASKS:
            raise ContractError(f"unknown task {task!r}")
        self.task = task
        self.enc_cfg = enc_cfg
        self.mask_cfg = mask_cfg
        self.vocab = vocab
        self.seed = seed
        self.params = ParamStore(dtype)
        self.actm_weights: dict[str, Tensor] = {}   # parameters, or constants if not learnable
        rng = np.random.default_rng(seed)
        enc.init_encoder_params(self.params, enc_cfg, rng)
        self._init_mask_params()
        self._init_head(rng)

    def _init_mask_params(self) -> None:
        cfg = self.mask_cfg
        if cfg.strategy in ("actm", "fixed"):
            self.params.add("mask.w_a", np.zeros(self.enc_cfg.hidden))
        if cfg.strategy == "actm":
            for w, default in ACTM_WEIGHTS[self.task].items():
                init = getattr(cfg, f"{w}_init")
                self.actm_weights[w] = (
                    self.params.add(f"mask.{w}", default if init is None else init)
                    if cfg.learnable else Tensor(np.ones((), self.params.dtype)))
        elif cfg.strategy == "aam":
            self.params.add("mask.z", cfg.aam_span_init)

    def _init_head(self, rng: np.random.Generator) -> None:
        hidden = self.enc_cfg.hidden
        if self.task == "ate":
            self.params.add("head.ate.W", np.zeros((hidden, len(BIO_CLASSES))))
            self.params.add("head.ate.b", np.zeros(len(BIO_CLASSES)))
        else:
            self.params.add("head.asc.W", np.zeros((2 * hidden, len(ASC_CLASSES))))
            self.params.add("head.asc.b", np.zeros(len(ASC_CLASSES)))

    # -- shared plumbing ------------------------------------------------------

    def _encode_input(self, inp: enc.ModelInput, train: bool,
                      rng: np.random.Generator | None,
                      masked_content: list[frozenset[int]] | None) -> Tensor:
        emb = enc.embed_tokens(self.params, self.enc_cfg, inp, masked_content)
        return enc.encode(self.params, self.enc_cfg, emb, train_mode=train, rng=rng,
                          segments=inp.segments)

    def _mask_states(self, states: Tensor, inp: enc.ModelInput, surrogate: bool):
        """Strategy dispatch: returns (states for the head, decision).

        Each strategy's kernels of `masking` are chained into one fused node.
        AAM's parents are the states and `mask.z`, clipped to [0, max_len]
        with a clamp's gradient. The threshold node's parents are the states,
        `mask.w_a`, ACTM's alpha, and on ASC input gamma and beta; ASC ACTM
        pools the aspect span's states inside the node and weighs attention
        by relevance to that vector. Alpha, gamma and beta are parameters, or
        constants when not learnable."""
        cfg = self.mask_cfg
        d_k = self.enc_cfg.hidden
        seg = inp.segments
        if cfg.strategy == "none" or cfg.strategy == "amom":
            return states, None
        if cfg.strategy == "aam":
            z, max_len = self.params["mask.z"], float(self.enc_cfg.max_len)
            out, remix_backward = mk.aam_remix(states.data, np.clip(z.data, 0.0, max_len),
                                               cfg.aam_ramp, d_k, seg)
            inside = (z.data > 0.0) & (z.data < max_len)

            def aam_backward(g):
                dx, dz = remix_backward(g)
                return dx, dz * inside

            return ad.fused(out, (states, z), aam_backward), None
        w_a = self.params["mask.w_a"]
        x = states.data
        attn, attn_backward = mk.token_attention(x, w_a.data, d_k, seg)
        parents, tau_backward, relevance_backward = (states, w_a), None, None
        if cfg.strategy == "fixed":
            tau = mk.fixed_threshold(attn, cfg.fixed_tau)
        else:
            w = self.actm_weights
            parents += (w["alpha"],)
            relevance = gamma = None
            if inp.aspect_spans is not None:
                aspect_vec, pool_backward = enc.pool_aspect(x, inp.aspect_spans)
                relevance, relevance_backward = mk.aspect_relevance(
                    x, attn, aspect_vec, w["beta"].data, seg)
                gamma = w["gamma"].data
                parents += (w["gamma"], w["beta"])
            tau, tau_backward = mk.actm_threshold(attn, w["alpha"].data, cfg.aggregator,
                                                  relevance, gamma, seg)
        decision = mk.apply_mask(attn, tau, x, protected=inp.protected,
                                 surrogate=surrogate, segments=seg)

        def backward(g):   # gradients in the order of `parents`
            dattn, dtau, dx = decision.backward(g)
            weights, daspect = [], None
            if tau_backward is not None:
                dattn_tau, dalpha, drelevance, dgamma = tau_backward(dtau)
                dattn, weights = dattn + dattn_tau, [dalpha]
                if relevance_backward is not None:
                    dx_rel, dattn_rel, daspect, dbeta = relevance_backward(drelevance)
                    dx, dattn = dx + dx_rel, dattn + dattn_rel
                    weights += [dgamma, dbeta]
            dx_attn, dw_a = attn_backward(dattn)
            dx = dx + dx_attn
            if daspect is not None:   # added last, the summation order the pins hold to
                dx = dx + pool_backward(daspect)
            return [dx, dw_a] + weights

        return ad.fused(decision.masked_states, parents, backward), decision

    # -- task forwards ------------------------------------------------------------
    # Each forward runs a whole batch as one packed graph; a single example is
    # a batch of one. `masked_content`, when given, holds one set per instance
    # of sentence-token indices whose input rows are zeroed.

    def forward_ate(self, examples: list[TokenizedExample], train: bool = False,
                    surrogate: bool = False, rng: np.random.Generator | None = None,
                    masked_content: list[frozenset[int]] | None = None) -> TaskOutput:
        """BIO probabilities of every sentence token, sentence after sentence."""
        inp = enc.pack_inputs(self.vocab, examples)
        encoded = self._encode_input(inp, train, rng, masked_content)
        states, decision = self._mask_states(encoded, inp, surrogate)
        probs = ate_head(states, inp.content_positions,
                         self.params["head.ate.W"], self.params["head.ate.b"])
        return TaskOutput(probs, decision, inp, inp.content_segments)

    def forward_asc(self, instances: list[tuple[TokenizedExample, int]], train: bool = False,
                    surrogate: bool = False, rng: np.random.Generator | None = None,
                    masked_content: list[frozenset[int]] | None = None) -> TaskOutput:
        """Polarity probabilities, one row per (example, aspect index) instance."""
        inp = enc.pack_inputs(self.vocab, [ex for ex, _ in instances], [i for _, i in instances])
        encoded = self._encode_input(inp, train, rng, masked_content)
        states, decision = self._mask_states(encoded, inp, surrogate)
        if self.mask_cfg.strategy == "aam":   # the aspect span's mean
            rows, pool_seg = enc.aspect_rows(inp.aspect_spans, len(inp))
            divisor = pool_seg.lengths
        else:   # the content mean, over the kept tokens when a mask decided
            rows, pool_seg = inp.content_positions, inp.content_segments
            if decision is not None and not surrogate:
                kept = decision.kept[rows].astype(np.intp)
                divisor = np.maximum(1, pool_seg.sum(kept))
            else:
                # surrogate mode needs a perturbation-stable constant divisor
                divisor = pool_seg.lengths
        probs = asc_head(encoded, states, inp.segments.offsets, rows, pool_seg, divisor,
                         self.params["head.asc.W"], self.params["head.asc.b"])
        return TaskOutput(probs, decision, inp, ad.Segments([1] * len(instances)))

    def forward(self, items: list, **kwargs) -> TaskOutput:
        """`forward_ate` on examples or `forward_asc` on (example, aspect
        index) instances, whichever the model's task is."""
        return (self.forward_ate if self.task == "ate" else self.forward_asc)(items, **kwargs)

    def loss(self, items: list, train: bool = False,
             rng: np.random.Generator | None = None) -> Tensor:
        """The batch's training loss: each instance's cross-entropy, summed
        over its prediction rows, averaged over the batch, as one `nll` node
        over the packed rows of each forward. ASC's L2 term is not in it
        (Adam adds its gradient, `training.train` its value to the logged
        loss). AMOM averages each instance's rounds first: `amom` weighs
        every row of instance b by 1/(B * R_b) in each of its R_b rounds, and
        one node sums the rounds' nodes."""
        if self.mask_cfg.strategy == "amom":
            rounds: list[Tensor] = []
            self.amom(items, train=train, rng=rng, losses=rounds)
            return ad.fused(functools.reduce(np.add, [r.data for r in rounds]), tuple(rounds),
                            lambda g: (g,) * len(rounds))
        out = self.forward(items, train=train, rng=rng)
        return nll(out.probs, np.concatenate(self.gold_ids(items)), 1.0 / len(items))

    # -- AMOM -------------------------------------------------------------------------
    # One adapter around masking.amom_regenerate for both tasks, for the loss
    # (remask by gold, one loss node per round) and for prediction (remask by
    # confidence, no losses). Only the maskable content indices and the gold
    # class ids of each instance depend on the task.

    def gold_ids(self, items: list) -> list[np.ndarray]:
        """The gold class id of each instance's prediction rows."""
        if self.task == "ate":
            return [np.array([BIO_INDEX[t] for t in ex.bio_tags]) for ex in items]
        return [np.array([ASC_INDEX[ex.aspects[i].polarity]]) for ex, i in items]

    def _maskable(self, items: list) -> list:
        """The content indices each instance may hide. ATE: every sentence
        token. ASC: the sentence tokens outside its aspect span, the content
        rows `enc.pack_inputs` does not protect; an aspect with no token span
        lists none, and the first forward refuses it."""
        if self.task == "ate":
            return [range(len(ex)) for ex in items]
        maskable = []
        for ex, i in items:
            span = ex.aspects[i].token_span
            maskable.append([] if span is None else
                            [c for c in range(len(ex)) if not span[0] <= c <= span[1]])
        return maskable

    def amom(self, items: list, train: bool = False, rng: np.random.Generator | None = None,
             losses: list[Tensor] | None = None):
        """amom_regenerate's (probs per instance, rounds per instance, masked
        sets) for a batch of the model's instances; the first round is an
        ordinary forward that hides nothing.

        Given a list `losses`, the rounds remask by gold and each forward
        appends one `nll` node over its packed rows, each row of instance b
        weighed 1/(B * R_b): B is the batch size and R_b the instance's round
        count, known before the first forward (1 + amom_iterations, or 1 with
        nothing to mask). The nodes sum to the batch mean of each instance's
        mean loss over its rounds."""
        gold = None if losses is None else self.gold_ids(items)
        maskable = self._maskable(items)
        if losses is not None:   # 1/B and 1/R_b each rounded to the dtype, as scaling twice rounds them
            dtype = self.params.dtype
            rounds = np.array([1 + self.mask_cfg.amom_iterations if len(m) else 1
                               for m in maskable])
            weight = np.asarray(1.0 / len(items), dtype) * (1.0 / rounds).astype(dtype)

        def forward(masked: dict[int, set[int]]):
            out = self.forward([items[b] for b in masked], train=train, rng=rng,
                               masked_content=[frozenset(m) for m in masked.values()])
            if losses is not None:
                batch = list(masked)
                losses.append(nll(out.probs, np.concatenate([gold[b] for b in batch]),
                                  np.repeat(weight[batch], out.rows.lengths)))
            return np.split(out.probs.data, out.rows.offsets[1:])

        return mk.amom_regenerate(forward, self.mask_cfg, maskable, gold)

    # -- prediction -----------------------------------------------------------------

    def predict_ids(self, items: list) -> list[np.ndarray]:
        """The argmax class id of each instance's prediction rows. AMOM
        predicts from its last regeneration round."""
        with ad.no_grad():
            if self.mask_cfg.strategy == "amom":
                probs = self.amom(items)[0]
            else:
                out = self.forward(items)
                probs = np.split(out.probs.data, out.rows.offsets[1:])
        return [p.argmax(axis=1) for p in probs]

    def predict_bio(self, examples: list[TokenizedExample]) -> list[list[str]]:
        """BIO tags of each example's tokens."""
        return [[BIO_CLASSES[i] for i in ids] for ids in self.predict_ids(examples)]

    def predict_polarity(self, instances: list[tuple[TokenizedExample, int]]) -> list[str]:
        """Polarity label of each (example, aspect index) instance."""
        return [ASC_CLASSES[ids[0]] for ids in self.predict_ids(instances)]
