"""Trainable self-attention encoder producing contextual token states.

`pack_inputs` writes a whole batch's input rows in one pass, every sequence
end to end: [CLS] + sentence + [SEP], and for ASC the aspect's tokens and a
closing [SEP]; in the same pass it records the rows of the tokens AMOM
hides. Input rows concatenate a word embedding, carrying the position
signal, and a POS embedding; [CLS]/[SEP] use reserved vocabulary ids with a
zeroed POS part. `embed_tokens` builds them and projects them to the hidden
width as one graph node, which also zeroes the hidden rows.
`encode` returns the final states, one Tensor. Each layer is one graph
node: `_block` runs the layer on plain arrays through the autodiff kernels
and hands its gradients back in one hand-written backward; the attention
probabilities stay inside that node, for its backward only. `pool_rows`
is a plain-array kernel too, which ACTM's threshold node and `asc_head` chain in.

Dropout comes in only as a batch's raw 64-bit words, which `dropout_words`
draws from a generator: `encode` drops units when it is given them and is
deterministic when it is not. The words become boolean keep-masks (one byte
an entry): each flag is a 16-bit lane of the words, read little-endian, and
keeps its unit when the lane is >= cut = round(rate * 65536); so the rate is
applied as cut / 65536 and kept units are scaled by 65536 / (65536 - cut).
Every sequence takes whole words, so a packed batch replays its sequences'
draws as if each ran alone, and one draw serves batches run apart (the
halves of a split forward in `tasks`). The attention mask is laid out
keys-outer, like the attention scores (`ad.multi_head_attention`).

The encoder computes in the dtype of its parameters: float32 in a model,
float64 in the gradient checks. Every constant it builds takes that dtype;
what depends on shapes alone, the position table and the layers' parameter
names, is built once per shape.
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
DROPOUT_LANES = 1 << 16   # values of the 16-bit lanes dropout draws


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
        # Dropout draws 16-bit lanes, so the rate is applied as dropout_cut / 65536.
        if self.dropout_cut == DROPOUT_LANES:
            raise ConfigError(f"dropout_rate {self.dropout_rate} rounds to 65536/65536, "
                              "which would drop every unit")
        if self.layernorm_eps <= 0.0:
            raise ConfigError("layernorm_eps must be positive")
        ad.check_float32(ConfigError, {"layernorm_eps": self.layernorm_eps})

    @property
    def dropout_cut(self) -> int:
        """A 16-bit dropout lane keeps its unit when >= this: round(rate * 65536)."""
        return round(self.dropout_rate * DROPOUT_LANES)

    @property
    def keep_scale(self) -> float:
        """The inverted-dropout scale of a kept unit, 1 / (1 - dropout_cut / 65536)."""
        return DROPOUT_LANES / (DROPOUT_LANES - self.dropout_cut)

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


@dataclass
class ModelInput:
    """Word and POS ids of a batch's sequences packed end to end, one row
    each, plus bookkeeping for masking and losses. Positions are packed row
    indices, grouped by sequence."""

    token_ids: np.ndarray            # (N,) int
    pos_ids: np.ndarray              # (N,) int; ignored where special
    special: np.ndarray              # (N,) bool, True at [CLS]/[SEP]
    content_positions: np.ndarray    # rows of the sentence tokens
    protected: np.ndarray            # rows the masking must keep, ascending
    lengths: tuple[int, ...]         # rows of each sequence
    content_lengths: tuple[int, ...]  # sentence tokens of each sequence
    aspect_spans: np.ndarray | None = None   # (B, 2) inclusive in-sentence aspect rows (ASC)
    hidden: np.ndarray | None = None   # rows of the tokens AMOM hides, None if it hides none

    def __len__(self) -> int:
        return len(self.token_ids)

    @functools.cached_property
    def segments(self) -> ad.Segments:
        return ad.Segments(self.lengths)

    @functools.cached_property
    def content_segments(self) -> ad.Segments:
        return ad.Segments(self.content_lengths)


def packed_length(ex: TokenizedExample, aspect: int | None = None) -> int:
    """Rows `pack_inputs` gives one instance: [CLS] + sentence + [SEP], and
    given an aspect index (ASC) that aspect's tokens and a closing [SEP]. An
    aspect without a token span adds its [SEP] alone; packing refuses it."""
    if aspect is None:
        return len(ex.tokens) + 2
    span = ex.aspects[aspect].token_span
    return len(ex.tokens) + 3 + (0 if span is None else span[1] - span[0] + 1)


def pack_inputs(vocab: Vocab, examples: list[TokenizedExample],
                aspects: list[int] | None = None, masked_content: list | None = None) -> ModelInput:
    """A batch's rows in one pass: [CLS] + sentence + [SEP] for each example
    and, given `aspects` (ASC: one aspect index per example), that aspect's
    tokens and a closing [SEP]. Masking keeps the specials and, for ASC, the
    in-sentence aspect span and the appended copy. `masked_content`, one set
    of sentence-token indices per example, names the tokens AMOM hides; their
    rows become `hidden`, which stays None when no set names a token."""
    if not examples:
        raise ContractError("cannot pack an empty batch")
    if masked_content is not None and len(masked_content) != len(examples):
        raise ContractError(f"{len(masked_content)} masked-content sets for "
                            f"{len(examples)} sequences")
    ids, pos, special, content, protected, lengths, spans, hidden = [], [], [], [], [], [], [], []
    for b, ex in enumerate(examples):
        start, n = len(ids), len(ex.tokens)
        words = [vocab.id_of(t) for t in ex.tokens]
        ids += [CLS_ID, *words, SEP_ID]
        pos += [0, *ex.pos_ids, 0]
        special += [True, *[False] * n, True]
        content += range(start + 1, start + n + 1)
        for c in () if masked_content is None else masked_content[b]:
            if not 0 <= c < n:
                raise ContractError(f"masked content index {c} of instance {b} is outside "
                                    f"its {n} sentence tokens")
            hidden.append(start + 1 + c)
        if aspects is None:
            protected += (start, start + n + 1)
        else:
            aspect = ex.aspects[aspects[b]]
            if aspect.token_span is None:
                raise ContractError(f"aspect {aspect.term!r} has no token-span projection")
            s, e = aspect.token_span
            ids += [*words[s:e + 1], SEP_ID]
            pos += [*ex.pos_ids[s:e + 1], 0]
            special += [*[False] * (e - s + 1), True]
            protected.append(start)
            protected += range(start + s + 1, start + e + 2)
            protected += range(start + n + 1, len(ids))
            spans.append((start + s + 1, start + e + 1))
        lengths.append(packed_length(ex, None if aspects is None else aspects[b]))
    return ModelInput(
        token_ids=np.array(ids),
        pos_ids=np.array(pos),
        special=np.array(special),
        content_positions=np.array(content, dtype=int),
        protected=np.array(protected, dtype=int),
        lengths=tuple(lengths),
        content_lengths=tuple(len(ex.tokens) for ex in examples),
        aspect_spans=None if aspects is None else np.array(spans),
        hidden=np.array(hidden, dtype=np.intp) if hidden else None,
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


@functools.cache
def position_table(n: int, dim: int, dtype: np.dtype) -> np.ndarray:
    """`sinusoidal_encoding(n, dim)` in `dtype`, built once per shape and
    shared by every forward, hence read-only; n <= max_len bounds the cache."""
    table = sinusoidal_encoding(n, dim).astype(dtype)
    table.flags.writeable = False
    return table


def embed_tokens(params: ParamStore, cfg: EncoderConfig, inp: ModelInput) -> Tensor:
    """The encoder's input (N, hidden) as one graph node over `emb.word`,
    `emb.pos` and the input projection: each row is the word embedding plus
    the sinusoidal position signal, which restarts at every packed sequence,
    then the POS embedding, zero at [CLS]/[SEP], times `enc.in_proj.W` plus
    `enc.in_proj.b`. The rows in `inp.hidden` (AMOM's hidden tokens) are
    zeroed before the projection."""
    seg = inp.segments
    if seg.n_max > cfg.max_len:
        raise LengthError(f"sequence length {seg.n_max} exceeds max_len {cfg.max_len}")
    word, pos = params["emb.word"], params["emb.pos"]
    proj_w, proj_b = params["enc.in_proj.W"], params["enc.in_proj.b"]
    dtype = word.data.dtype
    not_special = (~inp.special)[:, None].astype(dtype)
    rows = np.concatenate([word.data[inp.token_ids]
                           + position_table(seg.n_max, cfg.d_w, dtype)[seg.positions],
                           pos.data[inp.pos_ids] * not_special], axis=1)
    if inp.hidden is not None:
        rows[inp.hidden] = 0.0

    def backward(g):
        dw, db = rows.T @ g, g.sum(axis=0)
        g = g @ proj_w.data.T
        if inp.hidden is not None:
            g[inp.hidden] = 0.0
        dword, dpos = np.zeros_like(word.data), np.zeros_like(pos.data)
        np.add.at(dword, inp.token_ids, g[:, :cfg.d_w])
        np.add.at(dpos, inp.pos_ids, g[:, cfg.d_w:] * not_special)
        return dword, dpos, dw, db

    out = rows @ proj_w.data
    out += proj_b.data
    return ad.fused(out, (word, pos, proj_w, proj_b), backward)


layer_norm = ad.layer_norm


def _flags(cfg: EncoderConfig, n: int) -> tuple[int, int, int]:
    """Dropout flags a sequence of n rows takes: attention, attention output, FFN."""
    per_layer = cfg.n_layers * n
    return per_layer * cfg.n_heads * n, per_layer * cfg.hidden, per_layer * cfg.d_ff


def _words(cfg: EncoderConfig, n: int) -> int:
    """Whole 64-bit words, 4 lanes each, a sequence of n rows draws."""
    return -(-sum(_flags(cfg, n)) // 4)


def dropout_words(cfg: EncoderConfig, groups, rng: np.random.Generator) -> list[np.ndarray]:
    """The raw 64-bit dropout words of each group of sequences, given as row
    counts, from one `rng.bit_generator.random_raw` call: each sequence's
    words, in group order, are those it draws when its batch runs alone."""
    counts = [sum(_words(cfg, n) for n in lengths) for lengths in groups]
    return np.split(rng.bit_generator.random_raw(sum(counts)), np.cumsum(counts)[:-1])


def _dropout_masks(cfg: EncoderConfig, seg: ad.Segments, words: np.ndarray):
    """Boolean keep-masks of every layer: attention probabilities keys-outer,
    (layers, n_max keys, B, heads, n_max queries), False in the padding,
    attention output (layers, N, hidden) and FFN hidden units (layers, N, d_ff).
    `_block` scales the kept units by `cfg.keep_scale` (inverted dropout).

    The batch's raw 64-bit `words` come from `dropout_words` and are read as
    little-endian 16-bit lanes, low lane first, so the masks do not depend on
    the host's byte order; a lane keeps its unit when it is >= `cfg.dropout_cut`. Each sequence takes whole words,
    in batch order: its attention flags of every layer (layer, key, head,
    query), then its attention-output and FFN flags (layer, row, column), and
    the lanes left in its last word go unused. So a packed batch replays
    exactly the draws of its sequences run one at a time."""
    layers, heads, hidden, d_ff, m = cfg.n_layers, cfg.n_heads, cfg.hidden, cfg.d_ff, seg.n_max
    lengths = seg.lengths.tolist()
    if len(words) != sum(_words(cfg, n) for n in lengths):
        raise ContractError(f"{len(words)} dropout words for sequences of {lengths} rows")
    keep = words.astype("<u8", copy=False).view("<u2") >= cfg.dropout_cut
    attn = np.zeros((layers, m, seg.count, heads, m), dtype=bool)
    out_rows = np.empty((layers, seg.total, hidden), dtype=bool)
    ffn_rows = np.empty((layers, seg.total, d_ff), dtype=bool)
    at = 0
    for b, (lo, n) in enumerate(zip(seg.offsets.tolist(), lengths)):
        a, o, f = _flags(cfg, n)
        attn[:, :n, b, :, :n] = keep[at:at + a].reshape(layers, n, heads, n)
        out_rows[:, lo:lo + n] = keep[at + a:at + a + o].reshape(layers, n, hidden)
        ffn_rows[:, lo:lo + n] = keep[at + a + o:at + a + o + f].reshape(layers, n, d_ff)
        at += 4 * _words(cfg, n)
    return attn, out_rows, ffn_rows


# The parameters of one encoder layer, in the order `_block` takes them.
_LAYER_PARAMS = ("Wq", "Wk", "Wv", "Wo", "bo", "ln1.g", "ln1.b",
                "ffn.W1", "ffn.b1", "ffn.W2", "ffn.b2", "ln2.g", "ln2.b")


@functools.cache
def _layer_names(n_layers: int) -> tuple[tuple[str, ...], ...]:
    """Each layer's full parameter names, in `_LAYER_PARAMS` order."""
    return tuple(tuple(f"enc.L{layer}.{name}" for name in _LAYER_PARAMS)
                 for layer in range(n_layers))


def _block(x: Tensor, layer_params: tuple[Tensor, ...], cfg: EncoderConfig, seg: ad.Segments,
           drops: tuple[np.ndarray, np.ndarray, np.ndarray] | None) -> Tensor:
    """One encoder layer as one graph node: Q/K/V projections, segment-masked
    attention, Wo and dropout, residual and LN1, the GELU FFN and dropout,
    residual and LN2. `drops` holds the layer's attention, attention-output
    and FFN boolean keep-masks, or None."""
    wq, wk, wv, wo, bo, g1, c1, w1, b1, w2, b2, g2, c2 = (p.data for p in layer_params)
    keep_attn, keep_out, keep_ffn = drops if drops is not None else (None, None, None)
    keep_scale = cfg.keep_scale
    xd = x.data
    merged, attention_back = ad.multi_head_attention(
        xd @ wq, xd @ wk, xd @ wv, cfg.n_heads, 1.0 / math.sqrt(cfg.d_k), keep_attn, keep_scale, seg)
    # Biases and residuals are added in place, to the same bits as new sums.
    attn_out = merged @ wo
    attn_out += bo
    if keep_out is not None:
        ad.dropout_(attn_out, keep_out, keep_scale)
    attn_out += xd
    x1, ln1_back = layer_norm(attn_out, g1, c1, cfg.layernorm_eps)
    hidden = x1 @ w1
    hidden += b1
    act, gelu_back = ad.gelu(hidden)
    if keep_ffn is not None:
        ad.dropout_(act, keep_ffn, keep_scale)
    ffn_out = act @ w2
    ffn_out += b2
    ffn_out += x1
    out, ln2_back = layer_norm(ffn_out, g2, c2, cfg.layernorm_eps)

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


def encode(params: ParamStore, cfg: EncoderConfig, embedded: Tensor,
           segments: ad.Segments | None = None, words: np.ndarray | None = None) -> Tensor:
    """Contextual states (rows, hidden) from a stack of self-attention blocks
    over the projected input rows of `embed_tokens`, packed sequences
    (`segments`, one sequence of all rows when None); attention stays inside
    each sequence. Given the batch's dropout `words` (`dropout_words`), each
    layer drops units by them; without, the states are deterministic."""
    seg = ad.segments_of(embedded.data.shape[0], segments)
    masks = None if words is None else _dropout_masks(cfg, seg, words)

    x = embedded
    for layer, names in enumerate(_layer_names(cfg.n_layers)):
        x = _block(x, tuple(params[name] for name in names),
                   cfg, seg, None if masks is None else tuple(m[layer] for m in masks))
    return x


def aspect_rows(spans, n: int) -> tuple[np.ndarray, ad.Segments]:
    """The rows covering each inclusive (start, end) span of n state rows,
    span after span, and their layout, one segment per span."""
    spans = np.asarray(spans, dtype=np.intp).reshape(-1, 2)
    starts, ends = spans[:, 0], spans[:, 1]
    bad = (starts > ends) | (starts < 0) | (ends >= n)
    if bad.any():
        s, e = spans[np.flatnonzero(bad)[0]]
        raise ContractError(f"aspect span ({s}, {e}) is empty or outside 0..{n - 1}")
    seg = ad.Segments(ends - starts + 1)
    return starts[seg.ids] + seg.positions, seg


def pool_rows(states: np.ndarray, rows: np.ndarray, seg: ad.Segments, divisor: np.ndarray):
    """The `rows` of `states`, one segment of `seg` per output row, summed
    and divided by that segment's `divisor`; with `seg.lengths` as divisor,
    each segment's mean. Returns (pooled, backward), backward(g) -> dstates."""
    scale = (1.0 / divisor).astype(states.dtype)[:, None]

    def backward(g):
        dstates = np.zeros_like(states)
        np.add.at(dstates, rows, (g * scale)[seg.ids])
        return dstates

    pooled = seg.sum(states[rows])
    pooled *= scale
    return pooled, backward
