"""Adaptive masking strategies over encoded token states.

Three adaptive families plus a fixed-threshold baseline:
  - ACTM: mask tokens whose attention score falls under a learnable,
    context-aggregated threshold (plus an aspect-relevance term for ASC).
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
    confident tokens. One adapter, `tasks.AbsaModel.amom`, serves ATE and ASC
    alike: only the content indices an instance may hide and its gold ids
    differ by task. An instance with one prediction row (ASC, which may hide
    the sentence tokens outside its aspect) hides them from left to right in
    both modes: its one row cannot rank them, and no learned weight does.

`init_params` registers a strategy's parameters, ACTM's with the task's
defaults in ACTM_WEIGHTS, and `stage` runs it between encoder and head: it
chains the strategy's kernels into one fused node, calling each through its
module-level name, which perfbench wraps. The kernels of ACTM, the baseline
and AAM work on plain arrays, as the encoder's do, and return their output
with a `backward(g)` closure; `apply_mask` returns a MaskDecision that
carries it. `mask-demo` calls the threshold kernels to recut a trace.

The threshold cut is a step function, so `apply_mask` uses a straight-through
gate (Bengio et al. 2013, arXiv:1308.3432): the forward pass applies the hard
rule, while gradients flow through kept scores and through the margin
max(0, attn - tau). Gradient checks run with surrogate=True, where that
margin path is the forward value as well, making the objective genuinely
differentiable.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from .exceptions import ContractError, DimensionError


AGGREGATOR_KINDS = ("mean", "median", "sd")
NORM_EPS = 1e-12
NEG_INF_LOGIT = -1e9   # added to barred logits; exp() of it underflows to 0
# ACTM's weights per task, in parameter order, with the initial value each
# takes where MaskConfig leaves its `<name>_init` None. ATE starts permissive
# (alpha 0.5); ASC starts clause-selective, the threshold cut at mean
# relevance (alpha = 1 + |gamma|).
ACTM_WEIGHTS = {"ate": {"alpha": 0.5}, "asc": {"alpha": 1.5, "gamma": -0.5, "beta": 4.0}}


@dataclass
class MaskConfig:
    """Strategy selection plus every strategy's hyper-parameters."""

    strategy: str = "actm"            # actm | aam | amom | fixed | none
    aggregator: str = "mean"          # mean | median | sd
    learnable: bool = True            # False: alpha = gamma = beta = 1 as constants, not parameters
    # None -> the task's default in ACTM_WEIGHTS; an ATE model has no gamma or beta.
    alpha_init: float | None = None
    gamma_init: float | None = None
    beta_init: float | None = None
    fixed_tau: float = 0.05
    aam_ramp: float = 2.0
    aam_span_init: float = 2.0
    amom_mu_min: float = 0.1
    amom_mu_max: float = 0.5
    amom_iterations: int = 2

    STRATEGIES = ("actm", "aam", "amom", "fixed", "none")

    def __post_init__(self):
        if self.strategy not in self.STRATEGIES:
            raise ContractError(f"unknown masking strategy {self.strategy!r}")
        if self.aggregator not in AGGREGATOR_KINDS:
            raise ContractError(f"unknown aggregator {self.aggregator!r}")
        if self.aam_ramp <= 0.0:
            raise ContractError("AAM ramp length must be positive")
        if not (0.0 < self.amom_mu_min <= self.amom_mu_max <= 1.0):
            raise ContractError("need 0 < mu_min <= mu_max <= 1")
        if self.amom_iterations < 1:
            raise ContractError("AMOM needs at least one regeneration round")
        names = ("alpha_init", "gamma_init", "beta_init", "aam_span_init", "fixed_tau", "aam_ramp")
        ad.check_float32(ContractError, {name: getattr(self, name) for name in names}
                         | {"1 / aam_ramp": 1.0 / self.aam_ramp})


@dataclass
class MaskDecision:
    """Per-token verdicts of one threshold pass, hard semantics throughout."""

    attn: np.ndarray                  # (n,) attention scores
    tau: np.ndarray                   # (n,) thresholds
    kept: np.ndarray                  # (n,) bool
    masked_states: np.ndarray | None = None   # (n, hidden), masked rows zeroed
    backward: Callable | None = field(default=None, repr=False)   # g -> (dattn, dtau, dstates)


# -- ACTM --------------------------------------------------------------------


def _segment_softmax(v: np.ndarray, seg: ad.Segments):
    """Max-subtracted softmax of a vector within each segment, and its backward."""
    e = np.exp(v - np.maximum.reduceat(v, seg.offsets)[seg.ids])
    out = e / seg.sum(e)[seg.ids]
    return out, lambda g: out * (g - seg.sum(g * out)[seg.ids])


def token_attention(states: np.ndarray, w_a: np.ndarray, d_k: int,
                    segments: ad.Segments | None = None):
    """Per-token scalar scores from the scoring vector, softmax-normalized
    within each sequence. Returns (attn, backward), backward(g) ->
    (dstates, dw_a)."""
    n, hidden = states.shape
    if w_a.shape != (hidden,):
        raise DimensionError(f"scoring weights shape {w_a.shape} does not match state width {hidden}")
    scale = 1.0 / math.sqrt(d_k)
    scores = (states @ w_a.reshape(hidden, 1)).reshape(n)
    attn, softmax_backward = _segment_softmax(scores * scale, ad.segments_of(n, segments))

    def backward(g):
        dscores = softmax_backward(g) * scale
        return np.outer(dscores, w_a), dscores @ states

    return attn, backward


def aspect_relevance(states: np.ndarray, attn: np.ndarray, aspect_vec: np.ndarray, beta,
                     segments: ad.Segments | None = None):
    """Softmax over each sequence's tokens of scaled cosine between weighted
    token vectors and that sequence's aspect representation (one row of
    `aspect_vec` per sequence); uniform where the aspect vector is null.
    Returns (relevance, backward), backward(g) -> (dstates, dattn,
    daspect_vec, dbeta)."""
    n, hidden = states.shape
    seg = ad.segments_of(n, segments)
    vecs = aspect_vec.reshape(-1, hidden)
    weighted = states * attn.reshape(n, 1)
    paired = vecs[seg.ids]
    dots = (weighted * paired).sum(axis=1)
    row_norms = np.sqrt(np.maximum((weighted * weighted).sum(axis=1), 0.0))
    vec_norms = np.sqrt(np.maximum((vecs * vecs).sum(axis=1), 0.0))
    norms = row_norms * vec_norms[seg.ids]
    denom = np.clip(norms, NORM_EPS, None)
    cos = dots / denom
    live = row_norms > NORM_EPS
    cos_live = cos * live   # 0 where the weighted row is null
    rel, softmax_backward = _segment_softmax(cos_live * beta, seg)
    null = (vec_norms <= NORM_EPS)[seg.ids]
    if null.any():
        rel = rel * ~null + np.where(null, 1.0 / seg.lengths[seg.ids], 0.0).astype(rel.dtype)

    def backward(g):
        dlogits = softmax_backward(g * ~null if null.any() else g)
        ddots = dlogits * beta * live / denom
        dnorms = -(ddots * cos) * (norms > NORM_EPS)
        drow = dnorms * vec_norms[seg.ids] / np.maximum(row_norms, NORM_EPS)
        dvec = seg.sum(dnorms * row_norms) / np.maximum(vec_norms, NORM_EPS)
        dweighted = ddots[:, None] * paired + drow[:, None] * weighted
        dvecs = seg.sum(ddots[:, None] * weighted) + dvec[:, None] * vecs
        return (dweighted * attn.reshape(n, 1), (dweighted * states).sum(axis=1),
                dvecs.reshape(aspect_vec.shape), (dlogits * cos_live).sum())

    return rel, backward


def _aggregate(scores: np.ndarray, kind: str, seg: ad.Segments):
    """Per-segment mean, median or population SD of a score vector; an even
    segment's median is the mean of its two middle values, ties in index
    order. Returns (pooled, backward), backward(g) -> dscores."""
    inv = (1.0 / seg.lengths).astype(scores.dtype)
    if kind == "mean":
        return seg.sum(scores) * inv, lambda g: (g * inv)[seg.ids]
    if kind == "median":
        order = np.argsort(seg.pad(scores, np.inf), axis=1, kind="stable")
        rows = np.arange(seg.count)
        half = seg.lengths // 2
        hi = seg.offsets + order[rows, half]
        lo = seg.offsets + order[rows, half - 1 + seg.lengths % 2]

        def median_backward(g):   # one lo and one hi per segment: no index repeats
            d = np.zeros_like(scores)
            d[lo] += 0.5 * g
            d[hi] += 0.5 * g
            return d

        return (scores[lo] + scores[hi]) * 0.5, median_backward
    if kind == "sd":
        centered = scores - (seg.sum(scores) * inv)[seg.ids]
        sd = np.sqrt(np.maximum(seg.sum(centered * centered) * inv, 0.0))

        # The centering's own gradient drops out: each segment's centered scores sum to 0.
        return sd, lambda g: centered * (g * inv / np.maximum(sd, NORM_EPS))[seg.ids]
    raise ContractError(f"unknown aggregator {kind!r}; expected one of {AGGREGATOR_KINDS}")


def actm_threshold(attn: np.ndarray, alpha, aggregator: str, relevance: np.ndarray | None = None,
                   gamma=None, segments: ad.Segments | None = None):
    """Threshold vector alpha * aggregate(attn) (+ gamma * relevance per
    token, given both), the aggregate taken over each sequence. Returns
    (tau, backward), backward(g) -> (dattn, dalpha, drelevance, dgamma), the
    last two None without relevance."""
    seg = ad.segments_of(attn.shape[0], segments)
    pooled, pool_backward = _aggregate(attn, aggregator, seg)
    tau = (alpha * pooled)[seg.ids]
    if relevance is not None:
        tau = tau + relevance * gamma

    def backward(g):
        dpooled = seg.sum(g)
        dattn, dalpha = pool_backward(dpooled * alpha), (dpooled * pooled).sum()
        if relevance is None:
            return dattn, dalpha, None, None
        return dattn, dalpha, g * gamma, (g * relevance).sum()

    return tau, backward


def apply_mask(attn: np.ndarray, tau: np.ndarray, states: np.ndarray | None = None,
               protected=None, surrogate: bool = False,
               segments: ad.Segments | None = None) -> MaskDecision:
    """Zero the state rows whose attention falls under the threshold.

    Ties are kept. Protected positions (row indices) are always kept. If
    every unprotected token of a sequence would be masked, its
    highest-attention one survives so downstream heads never see an all-zero
    context. Without states, only the verdicts are decided.

    A row's gate is its verdict, or with `surrogate` the margin plus 1 where
    protected; in both, the gate's gradient is the margin's, g * (attn > tau).
    """
    n = attn.shape[0]
    if tau.shape != (n,) or (states is not None and states.shape[0] != n):
        raise DimensionError(f"attn {attn.shape}, tau {tau.shape}, "
                             f"states {getattr(states, 'shape', None)} misaligned")
    seg = ad.segments_of(n, segments)
    prot = np.fromiter(() if protected is None else protected, dtype=np.intp)
    outside = (prot < 0) | (prot >= n)
    if outside.any():
        raise ContractError(f"protected index {prot[outside][0]} outside 0..{n - 1}")
    prot_mask = np.zeros(n, dtype=bool)
    prot_mask[prot] = True
    kept = (attn >= tau) | prot_mask
    free = ~prot_mask
    starved = (np.logical_or.reduceat(free, seg.offsets)
               & ~np.logical_or.reduceat(kept & free, seg.offsets))
    for b in np.flatnonzero(starved):
        rows = slice(seg.offsets[b], seg.offsets[b] + seg.lengths[b])
        scores = np.where(free[rows], attn[rows], -np.inf)
        kept[seg.offsets[b] + int(np.argmax(scores))] = True
    decision = MaskDecision(attn=attn.copy(), tau=tau.copy(), kept=kept)
    if states is None:
        return decision

    margin = np.maximum(attn - tau, 0.0)
    gate = (margin + prot_mask if surrogate else kept.astype(margin.dtype)).reshape(n, 1)

    def backward(g):
        dmargin = (g * states).sum(axis=1) * (attn > tau)
        return dmargin, -dmargin, g * gate

    decision.masked_states = states * gate
    decision.backward = backward
    return decision


def fixed_threshold(attn: np.ndarray, tau_value: float) -> np.ndarray:
    """Constant threshold vector for the non-adaptive baseline."""
    return np.full(attn.shape[0], tau_value, dtype=attn.dtype)


# -- AAM ----------------------------------------------------------------------


def aam_remix(states: np.ndarray, z, ramp: float, d_k: int,
              segments: ad.Segments | None = None):
    """Re-aggregate every position from its learnable span: row p of a
    sequence becomes the softmax-weighted mix of that sequence's rows.

    Logits are cosines between rows times sqrt(d_k), so the softmax
    temperature does not depend on the state norm. They are multiplied by
    the soft span mask m = min[max[(R + z - |p - j|)/R, 0], 1] and by the
    mean of m over the sequence; keys where m is 0 get NEG_INF_LOGIT
    instead. z must exceed -R, which keeps each row's own key in its
    support; the model clips z to >= 0. Works on padded (segments, n_max,
    n_max) arrays. Returns (out, backward), backward(g) -> (dstates, dz)."""
    if ramp <= 0.0:
        raise ContractError(f"ramp length must be positive, got {ramp}")
    if z <= -ramp:
        raise ContractError(f"span z = {float(z)} must exceed -ramp = {-ramp}, "
                            "or no row keeps its own key")
    scale = math.sqrt(d_k)
    seg = ad.segments_of(states.shape[0], segments)
    s = seg.pad(states)
    valid = seg.valid()[:, None, :]
    root = np.sqrt(np.maximum((s * s).sum(axis=-1, keepdims=True), 0.0))
    norms = np.maximum(root, NORM_EPS)
    unit = s / norms
    logits = (unit @ unit.transpose(0, 2, 1)) * scale
    idx = np.arange(seg.n_max)
    distance = np.abs(idx[:, None] - idx[None, :]).astype(s.dtype)
    pre = ((z + ramp) - distance) * (1.0 / ramp)
    m = np.where(valid, np.clip(pre, 0.0, 1.0), 0.0)
    inv_len = (1.0 / seg.lengths).astype(s.dtype)[:, None, None]
    ratio = m.sum(axis=-1, keepdims=True) * inv_len
    support = m > 0.0
    t = logits * m
    attn, softmax_backward = ad.softmax_kernel(np.where(support, t * ratio, NEG_INF_LOGIT),
                                               axis=-1)

    def backward(g):
        go = seg.pad(g)
        ds = attn.transpose(0, 2, 1) @ go
        da = go @ s.transpose(0, 2, 1)
        dmod = softmax_backward(da)
        dt = dmod * ratio
        dratio = (dmod * t).sum(axis=-1, keepdims=True)
        dm = (dt * logits + dratio * inv_len) * valid
        inside = (pre > 0.0) & (pre < 1.0)
        dz = np.asarray((dm * inside).sum() * (1.0 / ramp))
        dp = dt * m * scale
        dunit = dp @ unit + dp.transpose(0, 2, 1) @ unit
        ds += dunit / norms
        dnorms = -(dunit * s / (norms * norms)).sum(axis=-1, keepdims=True)
        dsq = dnorms * (root > NORM_EPS) * 0.5 / np.maximum(root, NORM_EPS)
        ds += 2.0 * s * dsq
        return seg.unpad(ds), dz

    return seg.unpad(attn @ s), backward


# -- the mask stage -------------------------------------------------------------


def init_params(params: ad.ParamStore, cfg: MaskConfig, task: str, hidden: int) -> dict:
    """Register the strategy's parameters in `params`: `mask.w_a` for ACTM
    and the baseline, then ACTM's weights of `task` in ACTM_WEIGHTS order;
    `mask.z` for AAM. Returns ACTM's weights by name: parameters, or
    constants 1 when not learnable; none for the other strategies."""
    weights: dict[str, ad.Tensor] = {}
    if cfg.strategy in ("actm", "fixed"):
        params.add("mask.w_a", np.zeros(hidden))
    if cfg.strategy == "actm":
        for w, default in ACTM_WEIGHTS[task].items():
            init = getattr(cfg, f"{w}_init")
            weights[w] = (params.add(f"mask.{w}", default if init is None else init)
                          if cfg.learnable else ad.Tensor(np.ones((), params.dtype)))
    elif cfg.strategy == "aam":
        params.add("mask.z", cfg.aam_span_init)
    return weights


def stage(states: ad.Tensor, inp: enc.ModelInput, params: ad.ParamStore, weights: dict,
          cfg: MaskConfig, enc_cfg: enc.EncoderConfig, surrogate: bool):
    """The strategy run on a packed batch's encoded states: returns (states
    for the head, decision); `none` and AMOM pass the states through.

    Each strategy's kernels are chained into one fused node. AAM's parents
    are the states and `mask.z`, clipped to [0, max_len] with a clamp's
    gradient. The threshold node's parents are the states, `mask.w_a`, ACTM's
    alpha, and on ASC input gamma and beta; ASC ACTM pools the aspect span's
    states inside the node and weighs attention by relevance to that vector."""
    d_k = enc_cfg.hidden
    seg = inp.segments
    if cfg.strategy == "none" or cfg.strategy == "amom":
        return states, None
    if cfg.strategy == "aam":
        z, max_len = params["mask.z"], float(enc_cfg.max_len)
        out, remix_backward = aam_remix(states.data, np.clip(z.data, 0.0, max_len),
                                        cfg.aam_ramp, d_k, seg)
        inside = (z.data > 0.0) & (z.data < max_len)

        def aam_backward(g):
            dx, dz = remix_backward(g)
            return dx, dz * inside

        return ad.fused(out, (states, z), aam_backward), None
    w_a = params["mask.w_a"]
    x = states.data
    attn, attn_backward = token_attention(x, w_a.data, d_k, seg)
    parents, tau_backward, relevance_backward = (states, w_a), None, None
    if cfg.strategy == "fixed":
        tau = fixed_threshold(attn, cfg.fixed_tau)
    else:
        parents += (weights["alpha"],)
        relevance = gamma = None
        if inp.aspect_spans is not None:
            rows, pool_seg = enc.aspect_rows(inp.aspect_spans, x.shape[0])
            aspect_vec, pool_backward = enc.pool_rows(x, rows, pool_seg, pool_seg.lengths)
            relevance, relevance_backward = aspect_relevance(
                x, attn, aspect_vec, weights["beta"].data, seg)
            gamma = weights["gamma"].data
            parents += (weights["gamma"], weights["beta"])
        tau, tau_backward = actm_threshold(attn, weights["alpha"].data, cfg.aggregator,
                                           relevance, gamma, seg)
    decision = apply_mask(attn, tau, x, protected=inp.protected,
                          surrogate=surrogate, segments=seg)

    def backward(g):   # gradients in the order of `parents`
        dattn, dtau, dx = decision.backward(g)
        dweights, daspect = [], None
        if tau_backward is not None:
            dattn_tau, dalpha, drelevance, dgamma = tau_backward(dtau)
            dattn, dweights = dattn + dattn_tau, [dalpha]
            if relevance_backward is not None:
                dx_rel, dattn_rel, daspect, dbeta = relevance_backward(drelevance)
                dx, dattn = dx + dx_rel, dattn + dattn_rel
                dweights += [dgamma, dbeta]
        dx_attn, dw_a = attn_backward(dattn)
        dx = dx + dx_attn
        if daspect is not None:   # added last, the summation order the pins hold to
            dx = dx + pool_backward(daspect)
        return [dx, dw_a] + dweights

    return ad.fused(decision.masked_states, parents, backward), decision


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
        ratio = float(np.add.reduce(confidence) / confidence.size)   # mean() without its wrapper
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
    instance b may hide. `tasks.AbsaModel.amom` calls it for either task.

    `forward(masked)` takes a dict from instance index to the set of that
    instance's content indices to hide, runs those instances as one packed
    pass and returns, in the dict's order, one probability array (m, C) per
    instance. Whatever it records (`AbsaModel.amom` its loss nodes) stays
    with the caller.

    Every decision is made per instance from its own rows. Each of the
    `cfg.amom_iterations` rounds after the unmasked first pass hides
    amom_mask_count(R) of its maskable indices, where R is the correctness
    ratio against its `gold` class ids (one array per instance, one id per
    row), or without gold its mean max-probability. An instance with one
    prediction row hides its first maskable indices; any other ranks them by
    its rows, one row per content index: with gold, the wrong ones first and
    then by gold probability, without gold the least confident ones. An
    instance with nothing to mask keeps its first-pass result. Returns
    (final probs per instance, rounds per instance, masked sets): an
    instance's rounds count the forwards it ran in, 1 + `cfg.amom_iterations`
    or 1 if it had nothing to mask; the masked sets are flat, one per
    (round, instance) pair in call order.
    """
    count = len(maskable)
    probs = list(forward({b: set() for b in range(count)}))
    rounds = [1] * count
    masked_history: list[set[int]] = []
    active = [b for b in range(count) if len(maskable[b])]
    for _ in range(cfg.amom_iterations if active else 0):
        masked = {b: _amom_remask(probs[b], maskable[b], cfg, None if gold is None else gold[b])
                  for b in active}
        masked_history.extend(masked.values())
        for b, p in zip(active, forward(masked)):
            probs[b] = p
            rounds[b] += 1
    return probs, rounds, masked_history


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
