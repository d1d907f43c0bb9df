"""Adaptive masking strategies over encoded token states.

Three adaptive families plus a fixed-threshold baseline:
  - ACTM: mask tokens whose attention score falls under a learnable,
    context-aggregated threshold (plus an aspect-relevance term for ASC).
    `actm_threshold` takes the weights alpha and gamma as tensors: the
    model's parameters, or constants in constant-weight mode and in
    `mask-demo`. `apply_mask` returns a MaskDecision: the attention,
    thresholds and verdicts that traces print, and the masked states the
    head reads.
  - AAM: soft distance ramp with a learnable span that reshapes attention
    around every position.
  - AMOM: remask a number of content tokens set by how good the last
    prediction was, and regenerate predictions for a fixed number of rounds.
    One loop, amom_regenerate, serves training and inference: it decides for
    each instance of a batch from that instance's rows and runs each round as
    one packed forward over the instances that still have tokens to mask.
    Training rates a round by its correctness ratio against gold and remasks
    wrong tokens first, then those of lowest gold probability; inference,
    without gold, rates it by mean max-probability and remasks the least
    confident tokens. An ASC instance may hide the sentence tokens outside
    its aspect and hides them from left to right in both: its one prediction
    row cannot rank them, and no learned weight ranks them.

The threshold cut is a step function, so training uses a straight-through
gate: the forward pass applies the hard rule, while gradients flow through
kept scores and through the margin max(0, attn - tau). Gradient checks run
with surrogate=True, where that margin path is the forward value as well,
making the objective genuinely differentiable.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .exceptions import ContractError, DimensionError


@dataclass
class MaskConfig:
    """Strategy selection plus every strategy's hyper-parameters."""

    strategy: str = "actm"            # actm | aam | amom | fixed | none
    aggregator: str = "mean"          # mean | median | sd
    learnable: bool = True            # False: alpha = gamma = beta = 1 as constants, not parameters
    # None -> per-task defaults: ATE starts permissive (alpha 0.5); ASC starts
    # clause-selective with the threshold cut at mean relevance (alpha = 1 + |gamma|).
    alpha_init: float | None = None
    gamma_init: float | None = None
    beta_init: float | None = None
    fixed_tau: float = 0.05
    aam_ramp: float = 2.0
    aam_span_init: float = 2.0
    amom_mu_min: float = 0.1
    amom_mu_max: float = 0.5
    amom_iterations: int = 2

    ATE_DEFAULTS = {"alpha_init": 0.5}   # an ATE model has no gamma or beta
    ASC_DEFAULTS = {"alpha_init": 1.5, "gamma_init": -0.5, "beta_init": 4.0}

    def resolved_init(self, name: str, task: str) -> float:
        value = getattr(self, name)
        if value is not None:
            return float(value)
        defaults = self.ASC_DEFAULTS if task == "asc" else self.ATE_DEFAULTS
        return defaults[name]

    STRATEGIES = ("actm", "aam", "amom", "fixed", "none")

    def __post_init__(self):
        if self.strategy not in self.STRATEGIES:
            raise ContractError(f"unknown masking strategy {self.strategy!r}")
        if self.aggregator not in ad.AGGREGATOR_KINDS:
            raise ContractError(f"unknown aggregator {self.aggregator!r}")
        if self.aam_ramp <= 0.0:
            raise ContractError("AAM ramp length must be positive")
        if not (0.0 < self.amom_mu_min <= self.amom_mu_max <= 1.0):
            raise ContractError("need 0 < mu_min <= mu_max <= 1")
        if self.amom_iterations < 1:
            raise ContractError("AMOM needs at least one regeneration round")


@dataclass
class MaskDecision:
    """Per-token verdicts of one threshold pass, hard semantics throughout."""

    attn: np.ndarray                  # (n,) attention scores
    tau: np.ndarray                   # (n,) thresholds
    kept: np.ndarray                  # (n,) bool
    masked_states: Tensor             # (n, hidden), masked rows zeroed


# -- ACTM --------------------------------------------------------------------


def token_attention(states: Tensor, w_a: Tensor, d_k: int,
                    segments: ad.Segments | None = None) -> Tensor:
    """Per-token scalar scores from the scoring vector, softmax-normalized
    within each sequence."""
    n, hidden = states.data.shape
    if w_a.data.shape != (hidden,):
        raise DimensionError(
            f"scoring weights shape {w_a.data.shape} does not match state width {hidden}"
        )
    scores = ad.reshape(ad.matmul(states, ad.reshape(w_a, (hidden, 1))), (n,))
    return ad.segment_softmax(ad.mul(scores, 1.0 / math.sqrt(d_k)), segments)


def aspect_relevance(states: Tensor, attn: Tensor, aspect_vec: Tensor, beta,
                     segments: ad.Segments | None = None) -> Tensor:
    """Softmax over each sequence's tokens of scaled cosine between weighted
    token vectors and that sequence's aspect representation (one row of
    `aspect_vec` per sequence); uniform where the aspect vector is null."""
    n, hidden = states.data.shape
    seg = ad.segments_of(n, segments)
    vecs = ad.reshape(aspect_vec, (-1, hidden))
    weighted = ad.mul(states, ad.reshape(attn, (n, 1)))
    dots = ad.tsum(ad.mul(weighted, ad.take(vecs, seg.ids)), axis=1)
    row_norms = ad.sqrt(ad.tsum(ad.square(weighted), axis=1))
    vec_norms = ad.sqrt(ad.tsum(ad.square(vecs), axis=1))
    denom = ad.clamp(ad.mul(row_norms, ad.take(vec_norms, seg.ids)), lo=ad.NORM_EPS)
    cos = ad.div(dots, denom)
    cos = ad.mul(cos, row_norms.data > ad.NORM_EPS)   # 0 where the weighted row is null
    rel = ad.segment_softmax(ad.mul(cos, beta), seg)
    null = (vec_norms.data <= ad.NORM_EPS)[seg.ids]
    if null.any():
        uniform = 1.0 / seg.lengths[seg.ids]
        rel = ad.add(ad.mul(rel, ~null), np.where(null, uniform, 0.0))
    return rel


def actm_threshold(attn: Tensor, alpha: Tensor, aggregator: str, relevance: Tensor | None = None,
                   gamma: Tensor | None = None, segments: ad.Segments | None = None) -> Tensor:
    """Threshold vector alpha * aggregate(attn) (+ gamma * relevance per
    token, given both), the aggregate taken over each sequence."""
    seg = ad.segments_of(attn.data.shape[0], segments)
    pooled = ad.aggregate(attn, aggregator, seg)
    tau = ad.take(ad.mul(alpha, pooled), seg.ids)
    if relevance is not None:
        tau = ad.add(tau, ad.mul(relevance, gamma))
    return tau


def apply_mask(
    attn: Tensor,
    tau: Tensor,
    states: Tensor,
    protected=None,
    surrogate: bool = False,
    segments: ad.Segments | None = None,
) -> MaskDecision:
    """Zero the state rows whose attention falls under the threshold.

    Ties are kept. Protected positions (row indices) are always kept. If
    every unprotected token of a sequence would be masked, its
    highest-attention one survives so downstream heads never see an all-zero
    context.
    """
    n = attn.data.shape[0]
    if tau.data.shape != (n,) or states.data.shape[0] != n:
        raise DimensionError(
            f"attn {attn.data.shape}, tau {tau.data.shape}, states {states.data.shape} misaligned"
        )
    seg = ad.segments_of(n, segments)
    prot = np.fromiter(() if protected is None else protected, dtype=np.intp)
    outside = (prot < 0) | (prot >= n)
    if outside.any():
        raise ContractError(f"protected index {prot[outside][0]} outside 0..{n - 1}")
    prot_mask = np.zeros(n, dtype=bool)
    prot_mask[prot] = True
    kept = (attn.data >= tau.data) | prot_mask
    free = ~prot_mask
    starved = (np.logical_or.reduceat(free, seg.offsets)
               & ~np.logical_or.reduceat(kept & free, seg.offsets))
    for b in np.flatnonzero(starved):
        rows = slice(seg.offsets[b], seg.offsets[b] + seg.lengths[b])
        scores = np.where(free[rows], attn.data[rows], -np.inf)
        kept[seg.offsets[b] + int(np.argmax(scores))] = True

    margin = ad.relu(ad.sub(attn, tau))
    if surrogate:
        gate = ad.add(margin, prot_mask)
    else:
        gate = ad.straight_through(margin, kept)
    return MaskDecision(
        attn=attn.data.copy(),
        tau=tau.data.copy(),
        kept=kept,
        masked_states=ad.mul(states, ad.reshape(gate, (n, 1))),
    )


def fixed_threshold(attn: Tensor, tau_value: float) -> Tensor:
    """Constant threshold vector for the non-adaptive baseline."""
    return Tensor(np.full(attn.data.shape[0], tau_value, dtype=attn.data.dtype))


# -- AAM ----------------------------------------------------------------------


def aam_remix(states: Tensor, z: Tensor, ramp: float, d_k: int,
              segments: ad.Segments | None = None) -> Tensor:
    """Re-aggregate every position from its learnable span: row p becomes a
    mix of nearby states of its own sequence, weighted by a softmax whose
    logits the soft span mask min[max[(R + z - |p - j|)/R, 0], 1] and its
    mean modulate and whose support it bounds; every row of every sequence
    in one fused node.

    Content logits use row-normalized states so the softmax temperature does
    not depend on the state norm."""
    if ramp <= 0.0:
        raise ContractError(f"ramp length must be positive, got {ramp}")
    z_t = z if isinstance(z, Tensor) else Tensor(np.asarray(z, dtype=states.data.dtype))
    return ad.soft_span_remix(states, z_t, ramp, math.sqrt(d_k), segments)


# -- AMOM --------------------------------------------------------------------------


def amom_correctness_ratio(pred, gold) -> float:
    """Fraction of positions where prediction equals gold."""
    pred = list(pred)
    gold = list(gold)
    if len(pred) != len(gold):
        raise ContractError(f"length mismatch: {len(pred)} predictions vs {len(gold)} gold labels")
    if not gold:
        raise ContractError("correctness ratio of empty sequences")
    return sum(p == g for p, g in zip(pred, gold)) / len(gold)


def amom_mask_count(ratio: float, length: int, cfg: MaskConfig) -> tuple[float, int]:
    """Masking ratio mu = mu_max - (mu_max - mu_min) * R (linear, decreasing)
    and the resulting count, half-up rounded and clamped into [1, length]."""
    if length < 1:
        raise ContractError(f"label length must be >= 1, got {length}")
    mu = cfg.amom_mu_max - (cfg.amom_mu_max - cfg.amom_mu_min) * float(ratio)
    n_mask = int(math.floor(mu * length + 0.5))
    return mu, max(1, min(n_mask, length))


def amom_select_positions(gold_probs: np.ndarray, correct: np.ndarray, n_mask: int) -> list[int]:
    """Positions to remask: incorrect ones first, then lowest-confidence correct
    ones, index-ordered within ties."""
    gold_probs = np.asarray(gold_probs, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if gold_probs.shape != correct.shape:
        raise DimensionError("gold_probs and correct flags misaligned")
    order = np.lexsort((np.arange(gold_probs.size), gold_probs, correct.astype(np.int64)))
    return [int(i) for i in order[:n_mask]]


def _amom_remask(probs: np.ndarray, maskable: Sequence[int], cfg: MaskConfig,
                 gold=None) -> set[int]:
    """One instance's content indices to hide next round, from its own rows
    alone. One prediction row ranks nothing: the first maskable indices go."""
    if gold is None:
        confidence = probs.max(axis=1)
        ratio = float(confidence.mean())
    else:
        pred = probs.argmax(axis=-1)
        ratio = amom_correctness_ratio(pred.tolist(), gold.tolist())
    _, n_mask = amom_mask_count(ratio, len(maskable), cfg)
    if probs.shape[0] == 1:
        return set(maskable[:n_mask])
    rows = np.asarray(maskable, dtype=np.intp)
    if gold is not None:
        chosen = amom_select_positions(probs[rows, gold[rows]], pred[rows] == gold[rows], n_mask)
    else:
        chosen = amom_select_positions(confidence[rows], np.ones(rows.size, dtype=bool), n_mask)
    return {int(rows[i]) for i in chosen}


def amom_regenerate(forward, cfg: MaskConfig, maskable: list[Sequence[int]], gold=None):
    """Iterative remask-and-regenerate loop over a batch of instances, for
    training and inference alike; `maskable[b]` lists the content indices
    instance b may hide.

    `forward(masked)` takes a dict from instance index to the set of that
    instance's content indices to hide, runs those instances as one packed
    pass and returns, in the dict's order, one probability array (m, C) per
    instance and one loss Tensor per instance, or None for the losses.

    Every decision is made per instance from its own rows. Each of the
    `cfg.amom_iterations` rounds after the unmasked first pass hides
    amom_mask_count(R) of its maskable indices, where R is the correctness
    ratio against its `gold` class ids (one array per instance, one id per
    row), or without gold its mean max-probability. An instance with one
    prediction row hides its first maskable indices; any other ranks them by
    its rows, one row per content index: with gold, the wrong ones first and
    then by gold probability, without gold the least confident ones. An
    instance with nothing to mask keeps its first-pass result. Returns
    (final probs per instance, losses per instance, masked sets): each
    instance's losses are one list, its first pass first and then one entry
    per round it ran (only the first pass if it had nothing to mask); the
    masked sets are flat, one per (round, instance) pair in call order.
    """
    count = len(maskable)
    first, first_losses = forward({b: set() for b in range(count)})
    probs = list(first)
    losses = [[loss] for loss in first_losses or [None] * count]
    masked_history: list[set[int]] = []
    active = [b for b in range(count) if len(maskable[b])]
    for _ in range(cfg.amom_iterations if active else 0):
        masked = {b: _amom_remask(probs[b], maskable[b], cfg, None if gold is None else gold[b])
                  for b in active}
        masked_history.extend(masked.values())
        round_probs, round_losses = forward(masked)
        for b, p, loss in zip(active, round_probs, round_losses or [None] * len(active)):
            probs[b] = p
            losses[b].append(loss)
    return probs, losses, masked_history


# -- trace output -------------------------------------------------------------------


def format_mask_trace(tokens: list[str], decision: MaskDecision) -> str:
    """TSV trace: token, attention, threshold, kept, with total and mean rows."""
    lines = ["token\tattn\ttau\tkept"]
    for tok, a, t, k in zip(tokens, decision.attn, decision.tau, decision.kept):
        lines.append(f"{tok}\t{a:.6f}\t{t:.6f}\t{'yes' if k else 'no'}")
    total = float(decision.attn.sum())
    lines.append(f"total\t{total:.6f}")
    lines.append(f"mean\t{total / len(decision.attn):.6f}")
    return "\n".join(lines) + "\n"
