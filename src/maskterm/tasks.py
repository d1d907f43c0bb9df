"""Task heads for aspect term extraction (BIO tagging) and aspect sentiment
classification, with their losses, metrics, and the model that binds the
encoder and a masking strategy together.

A packed forward records one graph node per stage: the embedding with the
input projection, each encoder layer, `masking.stage` (none for `none` and
AMOM) and the task head, `ate_head` or `asc_head`. Every batch, in training
and in prediction, runs through `AbsaModel.amom`, AMOM's rounds around that
forward; under any other strategy nothing is maskable, so one round runs.
The model tests the strategy only there and for AAM's pooled rows: ASC AAM's
stage returns the remixed aspect-span rows alone, which `asc_head` pools
whole.

One runner, `AbsaModel._forwards`, runs every forward, scored or not. Only
training cuts a batch: a training forward of at least SPLIT_ROWS packed
rows, a plain batch's or an AMOM round's, runs as two halves, the first
ceil(B/2) instances and the rest, half 1 on the worker (`autodiff.streams`),
each with an `nll` node of its own; any other forward is one packed graph.
Evaluation counts a set's packed rows, or `training.EVAL_LONG_ROWS` an
instance where its instances average more; it runs a set that counts fewer
than `training.EVAL_ROWS` as one chunk on the calling thread, and streams a
larger one as an even number of chunks of about equal rows
(`training.evaluate`). Given a generator (training), the runner draws each
part's dropout words on the calling thread, part by part and before any row
is computed (`encoder.dropout_words`); without one (evaluation) nothing is
dropped. One `autodiff.join` sums a loss's nodes in order and walks their
backwards through `autodiff.streams`, adding each parameter's gradients in
node order. The cut counts rows alone, never the host's cores, so a seed
gives the same bits on every machine."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

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
LOG_CLAMP = 1e-12   # the loss takes log(max(p, LOG_CLAMP))
# Packed rows from which a training forward runs as two concurrent halves;
# evaluation never cuts a chunk. On a 2-vCPU x86-64 host at one BLAS thread,
# a loss and backward in halves broke even with the whole batch at about 500
# rows (0.85x at 349, 1.16x at 676, 1.66x at 1,789); the cut sits at twice
# the break-even.
SPLIT_ROWS = 1024


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
    logits = x @ w.data
    logits += b.data
    probs, softmax_backward = ad.softmax_kernel(logits[content_rows])

    def backward(g):
        dlogits = np.zeros_like(logits)
        dlogits[content_rows] = softmax_backward(g)   # the content rows are distinct
        return dlogits @ w.data.T, x.T @ dlogits, dlogits.sum(axis=0)

    return ad.fused(probs, (states, w, b), backward)


def asc_head(encoded: Tensor, states: Tensor, cls_rows: np.ndarray, pool_rows: np.ndarray,
             pool_segments: ad.Segments, divisor: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """Polarity probabilities, one row per instance, as one graph node: the
    instance's [CLS] row of `encoded` next to its `pool_rows` of `states`
    (one segment of `pool_segments` each) summed and divided by its
    `divisor` (`encoder.pool_rows`), then the affine head and a softmax.
    `states` may be `encoded` itself, which then takes both gradients."""
    hidden = encoded.data.shape[1]
    pooled, pool_backward = enc.pool_rows(states.data, pool_rows, pool_segments, divisor)
    feats = np.concatenate([encoded.data[cls_rows], pooled], axis=1)
    logits = feats @ w.data
    logits += b.data
    probs, softmax_backward = ad.softmax_kernel(logits)

    def backward(g):
        dlogits = softmax_backward(g)
        dfeats = dlogits @ w.data.T
        dencoded = np.zeros_like(encoded.data)
        dencoded[cls_rows] = dfeats[:, :hidden]   # one [CLS] row per instance
        return dencoded, pool_backward(dfeats[:, hidden:]), feats.T @ dlogits, dlogits.sum(axis=0)

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
        return json.dumps(asdict(self), sort_keys=True)


# -- model -------------------------------------------------------------------------


@dataclass
class TaskOutput:
    probs: Tensor                    # (sum of sentence lengths, 3) for ATE, (B, 3) for ASC
    rows: ad.Segments                # rows of `probs` per instance: its tokens (ATE), one (ASC)

    def split(self) -> list[np.ndarray]:
        """Each instance's rows of the probabilities, as views."""
        data, rows = self.probs.data, self.rows
        return [data[o:o + n] for o, n in zip(rows.offsets.tolist(), rows.lengths.tolist())]


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
        rng = np.random.default_rng(seed)
        enc.init_encoder_params(self.params, enc_cfg, rng)
        self.actm_weights = mk.init_params(self.params, mask_cfg, task, enc_cfg.hidden)
        self._init_head(rng)

    def _init_head(self, rng: np.random.Generator) -> None:
        hidden = self.enc_cfg.hidden
        if self.task == "ate":
            self.params.add("head.ate.W", np.zeros((hidden, len(BIO_CLASSES))))
            self.params.add("head.ate.b", np.zeros(len(BIO_CLASSES)))
        else:
            self.params.add("head.asc.W", np.zeros((2 * hidden, len(ASC_CLASSES))))
            self.params.add("head.asc.b", np.zeros(len(ASC_CLASSES)))

    # -- shared plumbing ------------------------------------------------------

    def encode_and_mask(self, inp: enc.ModelInput, surrogate: bool = False,
                        words: np.ndarray | None = None):
        """(encoded states, states for the head, mask decision) of a packed
        batch; the decision is None for `none` and AMOM."""
        emb = enc.embed_tokens(self.params, self.enc_cfg, inp)
        encoded = enc.encode(self.params, self.enc_cfg, emb, inp.segments, words)
        return encoded, *mk.stage(encoded, inp, self.params, self.actm_weights, self.mask_cfg,
                                  self.enc_cfg, surrogate)

    # -- task forwards ------------------------------------------------------------
    # Each forward runs a whole batch as one packed graph; a single example is
    # a batch of one. `masked_content`, when given, holds one set per instance
    # of sentence-token indices whose input rows are zeroed (`enc.pack_inputs`
    # packs them as `hidden`); `words`, the batch's dropout words from
    # `encoder.dropout_words`, switch dropout on.

    def forward_ate(self, examples: list[TokenizedExample], surrogate: bool = False,
                    masked_content: list[frozenset[int]] | None = None,
                    words: np.ndarray | None = None) -> TaskOutput:
        """BIO probabilities of every sentence token, sentence after sentence."""
        inp = enc.pack_inputs(self.vocab, examples, None, masked_content)
        _, states, _ = self.encode_and_mask(inp, surrogate, words)
        probs = ate_head(states, inp.content_positions,
                         self.params["head.ate.W"], self.params["head.ate.b"])
        return TaskOutput(probs, inp.content_segments)

    def forward_asc(self, instances: list[tuple[TokenizedExample, int]], surrogate: bool = False,
                    masked_content: list[frozenset[int]] | None = None,
                    words: np.ndarray | None = None) -> TaskOutput:
        """Polarity probabilities, one row per (example, aspect index) instance."""
        inp = enc.pack_inputs(self.vocab, [ex for ex, _ in instances], [i for _, i in instances],
                              masked_content)
        encoded, states, decision = self.encode_and_mask(inp, surrogate, words)
        if self.mask_cfg.strategy == "aam":   # the span's mean: `states` are its remixed rows
            pool_seg = inp.aspect_rows[1]
            rows, divisor = np.arange(pool_seg.total), pool_seg.lengths
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
        return TaskOutput(probs, ad.Segments([1] * len(instances)))

    def forward(self, items: list, surrogate: bool = False, rng: np.random.Generator | None = None,
                masked_content: list[frozenset[int]] | None = None) -> TaskOutput:
        """`forward_ate` on examples or `forward_asc` on (example, aspect
        index) instances, whichever the model's task is, as one packed
        graph: `_forwards` unscored, so never cut; given `rng`, units drop
        (module docstring)."""
        return self._forwards(items, rng, masked_content, surrogate=surrogate)[0][1]

    def _forwards(self, items: list, rng: np.random.Generator | None,
                  masked_content: list[frozenset[int]] | None, gold: list[np.ndarray] | None = None,
                  weight=None, surrogate: bool = False) -> list[tuple[Tensor | None, TaskOutput]]:
        """(`nll` node or None, output) of each part of one forward: the
        whole batch, or given `gold` (training) from SPLIT_ROWS packed rows
        on its two halves, half 1 on the worker. Each part's dropout words
        are drawn from `rng`, when given, here on the calling thread and in
        part order (module docstring). `weight` is one float for every row
        or an array of one per instance."""
        if masked_content is not None and len(masked_content) != len(items):
            raise ContractError(f"{len(masked_content)} masked-content sets for "
                                f"{len(items)} instances")
        drop = rng is not None and self.enc_cfg.dropout_cut > 0
        parts = [slice(None)]
        if drop or gold is not None:
            rows = ([enc.packed_length(ex) for ex in items] if self.task == "ate"
                    else [enc.packed_length(ex, i) for ex, i in items])
            if gold is not None and len(items) > 1 and sum(rows) >= SPLIT_ROWS:
                k = (len(items) + 1) // 2
                parts = [slice(None, k), slice(k, None)]
        words = [enc.dropout_words(self.enc_cfg, rows[part], rng) if drop else None
                 for part in parts]
        run = self.forward_ate if self.task == "ate" else self.forward_asc

        def run_part(h: int):
            part = parts[h]
            out = run(items[part], surrogate=surrogate, words=words[h],
                      masked_content=None if masked_content is None else masked_content[part])
            if gold is None:
                return None, out
            w = weight if np.ndim(weight) == 0 else np.repeat(weight[part], out.rows.lengths)
            return nll(out.probs, np.concatenate(gold[part]), w), out

        return ad.streams(run_part, range(len(parts)))

    def loss(self, items: list, rng: np.random.Generator | None = None) -> Tensor:
        """The batch's training loss: each instance's cross-entropy, summed
        over its prediction rows, averaged over the batch (AMOM averages each
        instance's rounds first), as one `join` of the nodes `amom` records.
        ASC's L2 term is not in it: Adam adds its gradient, `train` its
        logged value."""
        losses: list[Tensor] = []
        self.amom(items, rng, losses=losses)
        return ad.join(losses, tuple(self.params.tensors()))

    # -- AMOM -------------------------------------------------------------------------
    # One adapter around masking.amom_regenerate for both tasks and every
    # strategy, for the loss (remask by gold, loss nodes per round) and for
    # prediction (remask by confidence, no losses). Only the maskable content
    # indices and the gold class ids of each instance depend on the task.

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

    def amom(self, items: list, rng: np.random.Generator | None = None,
             losses: list[Tensor] | None = None):
        """amom_regenerate's (probs per instance, rounds per instance, masked
        sets) for a batch of the model's instances: the one way a batch runs,
        whatever the strategy. The first round is an ordinary forward that
        hides nothing; only AMOM has anything to mask after it, so any other
        strategy runs that round alone.

        Every round is one `_forwards` call, scored or not. Given a list
        `losses`, the rounds remask by gold and append the `nll` node of each
        of their parts. Under AMOM each row of instance b is weighed
        1/(B * R_b): B is the batch size and R_b the instance's round count,
        known before the first forward (1 + amom_iterations, or 1 with
        nothing to mask); under any other strategy, by the float 1/B. The
        nodes sum to the batch mean of each instance's mean loss over its
        rounds."""
        gold = None if losses is None else self.gold_ids(items)
        if self.mask_cfg.strategy == "amom":
            maskable = self._maskable(items)
            rounds = np.array([1 + self.mask_cfg.amom_iterations if len(m) else 1
                               for m in maskable])
            dtype = self.params.dtype   # 1/B and 1/R_b each rounded, as scaling twice rounds them
            weight = np.asarray(1.0 / len(items), dtype) * (1.0 / rounds).astype(dtype)
        else:
            maskable, weight = [()] * len(items), 1.0 / len(items)

        def forward(masked: dict[int, set[int]]):
            w = weight if np.ndim(weight) == 0 else weight[list(masked)]
            scored = self._forwards([items[b] for b in masked], rng,
                                    [frozenset(m) for m in masked.values()],
                                    None if gold is None else [gold[b] for b in masked], w)
            if losses is not None:
                losses.extend(node for node, _ in scored)
            return [p for _, out in scored for p in out.split()]

        return mk.amom_regenerate(forward, self.mask_cfg, maskable, gold)

    # -- prediction -----------------------------------------------------------------

    def predict_ids(self, items: list) -> list[np.ndarray]:
        """The argmax class id of each instance's prediction rows, from the
        last round `amom` runs: AMOM's last regeneration round, any other
        strategy's one forward."""
        with ad.no_grad():
            probs = self.amom(items)[0]
        return [p.argmax(axis=1) for p in probs]

    def predict_bio(self, examples: list[TokenizedExample]) -> list[list[str]]:
        """BIO tags of each example's tokens."""
        return [[BIO_CLASSES[i] for i in ids] for ids in self.predict_ids(examples)]

    def predict_polarity(self, instances: list[tuple[TokenizedExample, int]]) -> list[str]:
        """Polarity label of each (example, aspect index) instance."""
        return [ASC_CLASSES[ids[0]] for ids in self.predict_ids(instances)]
