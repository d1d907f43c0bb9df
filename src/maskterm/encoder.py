"""Trainable self-attention encoder producing contextual token states.

Input rows concatenate a word embedding, carrying the position signal, and a
POS embedding; [CLS]/[SEP] use reserved vocabulary ids with a zeroed POS
part. `encode` returns the final states, one Tensor. The
input projection is one graph node and each layer another: `_block` runs the
layer on plain arrays through the autodiff kernels and hands its gradients
back in one hand-written backward; the attention probabilities stay inside
that node, for its backward only. In training, dropout masks are boolean
keep-masks (one byte an entry) applied with the scale 1 / (1 - rate), which
gives the same bits as multiplying by a float mask.

The encoder computes in the dtype of its parameters: float32 in a model,
float64 in the gradient checks. Every constant it builds, such as the
position table, takes that dtype.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .corpus import POS_TAGS, TokenizedExample
from .exceptions import ConfigError, ContractError, LengthError

UNK_ID = 0
CLS_ID = 1
SEP_ID = 2
RESERVED = 3


@dataclass
class EncoderConfig:
    vocab_size: int = 0          # content words; reserved ids come on top
    d_w: int = 32
    d_p: int = 8
    hidden: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128
    dropout_rate: float = 0.1
    layernorm_eps: float = 1e-12
    max_len: int = 128

    def __post_init__(self):
        if min(self.d_w, self.d_p, self.hidden, self.n_layers, self.n_heads, self.d_ff,
               self.max_len) < 1:
            raise ConfigError("encoder sizes must be >= 1")
        if self.vocab_size < 0:
            raise ConfigError(f"vocab_size must be >= 0, got {self.vocab_size}")
        if self.hidden % self.n_heads != 0:
            raise ConfigError(f"hidden ({self.hidden}) must be divisible by n_heads ({self.n_heads})")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.layernorm_eps <= 0.0:
            raise ConfigError("layernorm_eps must be positive")

    @property
    def d_k(self) -> int:
        return self.hidden // self.n_heads

    @property
    def d_in(self) -> int:
        return self.d_w + self.d_p


class Vocab:
    """Deterministic word-id map with UNK/CLS/SEP reserved up front."""

    def __init__(self, words: list[str]):
        self.words = list(words)
        self._ids = {w: i + RESERVED for i, w in enumerate(self.words)}

    @classmethod
    def build(cls, examples: list[TokenizedExample]) -> "Vocab":
        seen = sorted({tok for ex in examples for tok in ex.tokens})
        return cls(seen)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def __len__(self) -> int:
        return len(self.words) + RESERVED


@dataclass
class ModelInput:
    """Word and POS ids of one or more sequences packed end to end, one row
    each, plus bookkeeping for masking and losses. Positions are packed row
    indices, grouped by sequence."""

    token_ids: np.ndarray            # (N,) int
    pos_ids: np.ndarray              # (N,) int; ignored where special
    special: np.ndarray              # (N,) bool, True at [CLS]/[SEP]
    content_positions: np.ndarray    # rows of the sentence tokens
    protected: np.ndarray            # rows the masking must keep
    lengths: tuple[int, ...]         # rows of each sequence
    aspect_spans: np.ndarray | None = None   # (B, 2) inclusive in-sentence aspect rows (ASC)

    def __len__(self) -> int:
        return len(self.token_ids)

    @functools.cached_property
    def segments(self) -> ad.Segments:
        return ad.Segments(self.lengths)

    @functools.cached_property
    def content_segments(self) -> ad.Segments:
        return self.segments.of_rows(self.content_positions)


def ate_input(example: TokenizedExample, vocab: Vocab) -> ModelInput:
    """[CLS] + sentence + [SEP]."""
    n = len(example.tokens)
    ids = np.array([CLS_ID] + [vocab.id_of(t) for t in example.tokens] + [SEP_ID])
    pos = np.array([0] + example.pos_ids + [0])
    special = np.zeros(n + 2, dtype=bool)
    special[0] = special[-1] = True
    return ModelInput(
        token_ids=ids,
        pos_ids=pos,
        special=special,
        content_positions=np.arange(1, n + 1),
        protected=np.array([0, n + 1]),
        lengths=(n + 2,),
    )


def asc_input(example: TokenizedExample, aspect_idx: int, vocab: Vocab) -> ModelInput:
    """[CLS] + sentence + [SEP] + aspect tokens + [SEP]."""
    aspect = example.aspects[aspect_idx]
    if aspect.token_span is None:
        raise ContractError(f"aspect {aspect.term!r} has no token-span projection")
    s, e = aspect.token_span
    n = len(example.tokens)
    asp_tokens = example.tokens[s:e + 1]
    asp_pos = example.pos_ids[s:e + 1]
    ids = np.array(
        [CLS_ID] + [vocab.id_of(t) for t in example.tokens] + [SEP_ID]
        + [vocab.id_of(t) for t in asp_tokens] + [SEP_ID]
    )
    pos = np.array([0] + example.pos_ids + [0] + asp_pos + [0])
    total = len(ids)
    special = np.zeros(total, dtype=bool)
    special[0] = special[n + 1] = special[total - 1] = True
    # specials, the in-sentence aspect span and the appended aspect copy
    protected = np.concatenate(([0], np.arange(s + 1, e + 2), np.arange(n + 1, total)))
    return ModelInput(
        token_ids=ids,
        pos_ids=pos,
        special=special,
        content_positions=np.arange(1, n + 1),
        protected=protected,
        lengths=(total,),
        aspect_spans=np.array([[s + 1, e + 1]]),
    )


def pack_inputs(inputs: list[ModelInput]) -> ModelInput:
    """One ModelInput holding every sequence of `inputs` end to end."""
    if not inputs:
        raise ContractError("cannot pack an empty batch")
    if len(inputs) == 1:
        return inputs[0]
    starts = np.cumsum([0] + [len(i) for i in inputs[:-1]])

    def rows(name):
        return np.concatenate([getattr(i, name) + start for i, start in zip(inputs, starts)])

    return ModelInput(
        token_ids=np.concatenate([i.token_ids for i in inputs]),
        pos_ids=np.concatenate([i.pos_ids for i in inputs]),
        special=np.concatenate([i.special for i in inputs]),
        content_positions=rows("content_positions"),
        protected=rows("protected"),
        lengths=tuple(len(i) for i in inputs),
        aspect_spans=rows("aspect_spans") if inputs[0].aspect_spans is not None else None,
    )


def sinusoidal_encoding(n: int, dim: int) -> np.ndarray:
    pe = np.zeros((n, dim))
    position = np.arange(n)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    pe[:, 0::2] = np.sin(position * div)
    pe[:, 1::2] = np.cos(position * div[: dim // 2])
    return pe


# Output-gain initialization: task heads start at zero and move at most
# lr * steps in absolute terms, so their logits only reach useful magnitude
# within a short small-LR run when the final states carry a large norm.
FINAL_GAIN_INIT = 6.0


def init_encoder_params(params: ParamStore, cfg: EncoderConfig, rng: np.random.Generator) -> None:
    """Register embedding, projection, and layer weights.

    The input projection is orthogonal (keeps lexical feature geometry), and
    the last layer-norm gain starts high so zero-initialized heads see
    large-norm features.
    """
    params.add("emb.word", rng.normal(0.0, 1.0, size=(len_with_reserved(cfg), cfg.d_w)))
    params.add("emb.pos", rng.normal(0.0, 1.0, size=(len(POS_TAGS), cfg.d_p)))
    side = max(cfg.d_in, cfg.hidden)
    ortho, _ = np.linalg.qr(rng.normal(size=(side, side)))
    params.add("enc.in_proj.W", ortho[:cfg.d_in, :cfg.hidden].copy())
    params.add("enc.in_proj.b", np.zeros(cfg.hidden))
    attn_scale = 1.0 / np.sqrt(cfg.hidden)
    for layer in range(cfg.n_layers):
        p = f"enc.L{layer}"
        params.add(f"{p}.Wq", rng.normal(0.0, attn_scale, size=(cfg.hidden, cfg.hidden)))
        params.add(f"{p}.Wk", rng.normal(0.0, attn_scale, size=(cfg.hidden, cfg.hidden)))
        params.add(f"{p}.Wv", rng.normal(0.0, attn_scale, size=(cfg.hidden, cfg.hidden)))
        params.add(f"{p}.Wo", rng.normal(0.0, attn_scale, size=(cfg.hidden, cfg.hidden)))
        params.add(f"{p}.bo", np.zeros(cfg.hidden))
        params.add(f"{p}.ln1.g", np.ones(cfg.hidden))
        params.add(f"{p}.ln1.b", np.zeros(cfg.hidden))
        params.add(f"{p}.ffn.W1", rng.normal(0.0, attn_scale, size=(cfg.hidden, cfg.d_ff)))
        params.add(f"{p}.ffn.b1", np.zeros(cfg.d_ff))
        params.add(f"{p}.ffn.W2", rng.normal(0.0, 1.0 / np.sqrt(cfg.d_ff), size=(cfg.d_ff, cfg.hidden)))
        params.add(f"{p}.ffn.b2", np.zeros(cfg.hidden))
        last = layer == cfg.n_layers - 1
        params.add(f"{p}.ln2.g", np.full(cfg.hidden, FINAL_GAIN_INIT if last else 1.0))
        params.add(f"{p}.ln2.b", np.zeros(cfg.hidden))


def param_count(cfg: EncoderConfig) -> int:
    """Values `init_encoder_params` registers for `cfg`, counted without allocating any."""
    h, f = cfg.hidden, cfg.d_ff
    return (len_with_reserved(cfg) * cfg.d_w + len(POS_TAGS) * cfg.d_p + (cfg.d_in + 1) * h
            + cfg.n_layers * (4 * h * h + 2 * h * f + f + 6 * h))


def sizes(cfg: EncoderConfig) -> str:
    return f"d_w {cfg.d_w}, d_p {cfg.d_p}, hidden {cfg.hidden}, d_ff {cfg.d_ff}, n_layers {cfg.n_layers}"


def len_with_reserved(cfg: EncoderConfig) -> int:
    return cfg.vocab_size + RESERVED


def embed_tokens(params: ParamStore, cfg: EncoderConfig, inp: ModelInput) -> Tensor:
    """Input rows (N, d_w + d_p): the word embedding plus the sinusoidal
    position signal, which restarts at every packed sequence, then the POS
    embedding, zero at [CLS]/[SEP]."""
    seg = inp.segments
    if seg.n_max > cfg.max_len:
        raise LengthError(f"sequence length {seg.n_max} exceeds max_len {cfg.max_len}")
    word = ad.take(params["emb.word"], inp.token_ids)
    word = ad.add(word, sinusoidal_encoding(seg.n_max, cfg.d_w)[seg.positions])
    pos = ad.mul(ad.take(params["emb.pos"], inp.pos_ids), (~inp.special)[:, None])
    return ad.concat([word, pos], axis=1)


layer_norm = ad.layer_norm


def _dropout_masks(cfg: EncoderConfig, seg: ad.Segments, rng: np.random.Generator):
    """Boolean keep-masks of every layer: attention probabilities
    (layers, B, heads, n_max, n_max), False in the padding, attention output
    (layers, N, hidden) and FFN hidden units (layers, N, d_ff). `_block`
    applies each as `x *= keep; x *= 1 / (1 - rate)` (inverted dropout).

    Drawn sequence by sequence, each in the order a lone sequence uses them
    (per layer: each head, the attention output, the FFN), so a packed batch
    replays exactly the draws of its sequences run one at a time."""
    rate, heads, hidden, d_ff = cfg.dropout_rate, cfg.n_heads, cfg.hidden, cfg.d_ff
    layers, m = cfg.n_layers, seg.n_max
    attn = np.zeros((layers, seg.count, heads, m, m), dtype=bool)
    out_rows = np.empty((layers, seg.total, hidden), dtype=bool)
    ffn_rows = np.empty((layers, seg.total, d_ff), dtype=bool)
    for b, (lo, n) in enumerate(zip(seg.offsets, seg.lengths)):
        sizes = (heads * n * n, n * hidden, n * d_ff)
        draws = rng.random(layers * sum(sizes)) >= rate
        at = 0
        for layer in range(layers):
            attn[layer, b, :, :n, :n] = draws[at:at + sizes[0]].reshape(heads, n, n)
            at += sizes[0]
            out_rows[layer, lo:lo + n] = draws[at:at + sizes[1]].reshape(n, hidden)
            at += sizes[1]
            ffn_rows[layer, lo:lo + n] = draws[at:at + sizes[2]].reshape(n, d_ff)
            at += sizes[2]
    return attn, out_rows, ffn_rows


# The parameters of one encoder layer, in the order `_block` takes them.
_LAYER_PARAMS = ("Wq", "Wk", "Wv", "Wo", "bo", "ln1.g", "ln1.b",
                "ffn.W1", "ffn.b1", "ffn.W2", "ffn.b2", "ln2.g", "ln2.b")


def _block(x: Tensor, layer_params: tuple[Tensor, ...], cfg: EncoderConfig, seg: ad.Segments,
           drops: tuple[np.ndarray, np.ndarray, np.ndarray] | None) -> Tensor:
    """One encoder layer as one graph node: Q/K/V projections, segment-masked
    attention, Wo and dropout, residual and LN1, the GELU FFN and dropout,
    residual and LN2. `drops` holds the layer's attention, attention-output
    and FFN boolean keep-masks, or None."""
    wq, wk, wv, wo, bo, g1, c1, w1, b1, w2, b2, g2, c2 = (p.data for p in layer_params)
    keep_attn, keep_out, keep_ffn = drops if drops is not None else (None, None, None)
    keep_scale = 1.0 / (1.0 - cfg.dropout_rate)
    xd = x.data
    merged, attention_back = ad.multi_head_attention(
        xd @ wq, xd @ wk, xd @ wv, cfg.n_heads, 1.0 / math.sqrt(cfg.d_k), keep_attn, keep_scale, seg)
    attn_out = merged @ wo + bo
    if keep_out is not None:
        ad.dropout_(attn_out, keep_out, keep_scale)
    x1, ln1_back = layer_norm(xd + attn_out, g1, c1, cfg.layernorm_eps)
    act, gelu_back = ad.gelu(x1 @ w1 + b1)
    if keep_ffn is not None:
        ad.dropout_(act, keep_ffn, keep_scale)
    out, ln2_back = layer_norm(x1 + (act @ w2 + b2), g2, c2, cfg.layernorm_eps)

    def backward(g):
        ds2, dg2, dc2 = ln2_back(g)
        dw2, db2 = act.T @ ds2, ds2.sum(axis=0)
        dh = ds2 @ w2.T
        if keep_ffn is not None:
            ad.dropout_(dh, keep_ffn, keep_scale)
        dh = gelu_back(dh)
        dw1, db1 = x1.T @ dh, dh.sum(axis=0)
        ds1, dg1, dc1 = ln1_back(ds2 + dh @ w1.T)
        del ds2, dh   # row-sized gradients go as soon as they are used
        da = ds1 * keep_out * keep_scale if keep_out is not None else ds1
        dwo, dbo = merged.T @ da, da.sum(axis=0)
        dq, dk, dv = attention_back(da @ wo.T)
        del da
        dx = ds1 + dq @ wq.T
        dx += dk @ wk.T
        dx += dv @ wv.T
        return (dx, xd.T @ dq, xd.T @ dk, xd.T @ dv, dwo, dbo, dg1, dc1,
                dw1, db1, dw2, db2, dg2, dc2)

    return ad.fused(out, (x,) + layer_params, backward)


def encode(
    params: ParamStore,
    cfg: EncoderConfig,
    embedded: Tensor,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    segments: ad.Segments | None = None,
) -> Tensor:
    """Contextual states (rows, hidden) from a stack of self-attention blocks
    over packed sequences (`segments`, one sequence of all rows when None);
    attention stays inside each sequence. Deterministic whenever train_mode
    is off."""
    dropping = train_mode and cfg.dropout_rate > 0.0
    if dropping and rng is None:
        raise ContractError("train_mode with dropout needs a random generator")
    seg = ad.segments_of(embedded.data.shape[0], segments)
    masks = _dropout_masks(cfg, seg, rng) if dropping else None

    x = ad.affine(embedded, params["enc.in_proj.W"], params["enc.in_proj.b"])
    for layer in range(cfg.n_layers):
        x = _block(x, tuple(params[f"enc.L{layer}.{name}"] for name in _LAYER_PARAMS),
                   cfg, seg, tuple(m[layer] for m in masks) if dropping else None)
    return x


def pool_aspect(states: Tensor, spans) -> Tensor:
    """Mean of the state rows covering each inclusive (start, end) span, one
    output row per span."""
    spans = np.asarray(spans, dtype=np.intp).reshape(-1, 2)
    starts, ends = spans[:, 0], spans[:, 1]
    n = states.data.shape[0]
    bad = (starts > ends) | (starts < 0) | (ends >= n)
    if bad.any():
        s, e = spans[np.flatnonzero(bad)[0]]
        raise ContractError(f"aspect span ({s}, {e}) is empty or outside 0..{n - 1}")
    seg = ad.Segments(ends - starts + 1)
    rows = starts[seg.ids] + seg.positions
    return ad.segment_mean(ad.take(states, rows), seg)

