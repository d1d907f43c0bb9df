"""Dense float32 or float64 tensors with reverse-mode differentiation.

Small on purpose: 2-D matrices and vectors, and the handful of ops the
encoder, masking strategies, and task heads need.

A tensor keeps float32 data as float32 and holds anything else as float64;
gradients take their tensor's dtype. Models run in float32, and the tests'
finite-difference checks in float64. A constant operand of an elementwise op
(a Python scale, a mask, a table: anything but a Tensor) takes the dtype of
the Tensor it meets, so constants never widen a float32 graph. Under
NumPy 2 a float64 array, 0-d or not, or an `np.float64` scalar would, so
the kernels take scales as Python floats.

A batch of sequences is packed end to end into one `(sum of lengths, width)`
matrix and described by `Segments`. Tensors stay 2-D at the API: row-wise
ops need no change, segment ops reduce within each sequence, and the ops
that mix rows (attention, the soft-span remix, the median) pad segments
into `(segments, longest, ...)` arrays internally, so a row only ever sees
rows of its own sequence.

`fused` makes one node of hand-written math. The encoder kernels (attention,
layer norm, GELU) work on plain arrays and return their output with a
backward closure; the encoder chains them into one node per layer. Dropout
comes in as boolean keep-masks and a scale (`dropout_`), and a closure keeps
only what its backward cannot cheaply rebuild: attention saves the
probabilities, and its backward rebuilds the dropped ones from them.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from contextlib import contextmanager
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .exceptions import ContractError, DimensionError

LOG_CLAMP = 1e-12
NORM_EPS = 1e-12
NEG_INF_LOGIT = -1e9   # added to barred logits; exp() of it underflows to 0

# Thread-local, so a no_grad block in one thread leaves recording on in the others.
_GRAD_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    prev = _grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = prev


class Tensor:
    """Immutable-by-convention array node in the differentiation record."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_owns_grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._owns_grad = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, idx):
        return take(self, idx)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a constant one takes the other's dtype."""
    if not isinstance(a, Tensor) and isinstance(b, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    elif not isinstance(b, Tensor) and isinstance(a, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    return as_tensor(a), as_tensor(b)


class Segments:
    """Row layout of a packed batch: consecutive runs of rows, one per sequence.

    `offsets[b]` is the first row of segment b and `lengths[b]` its row
    count; `ids[i]` is the segment of row i and `positions[i]` its index
    inside that segment.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.intp)
        sizes = lengths.tolist()
        if lengths.ndim != 1 or not sizes or min(sizes) < 1:
            raise DimensionError(f"segments need one or more positive lengths, got {lengths!r}")
        ends = lengths.cumsum()
        self.lengths = lengths
        self.offsets = ends - lengths
        self.count = len(sizes)
        self.total = int(ends[-1])
        self.n_max = max(sizes)

    @cached_property
    def ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.count), self.lengths)

    @cached_property
    def positions(self) -> np.ndarray:
        return np.arange(self.total) - self.offsets[self.ids]

    def __len__(self) -> int:
        return self.count

    def of_rows(self, rows) -> "Segments":
        """Layout of a subset of rows, given in packed order, that meets every segment."""
        return Segments(np.bincount(self.ids[np.asarray(rows, dtype=np.intp)], minlength=self.count))

    def valid(self) -> np.ndarray:
        """(count, n_max) bool: True where a padded slot holds a real row."""
        return np.arange(self.n_max) < self.lengths[:, None]

    def pad(self, x: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """(total, ...) rows -> (count, n_max, ...), `fill` past each segment's end."""
        if self.count == 1:
            return x[None]
        out = np.full((self.count, self.n_max) + x.shape[1:], fill, dtype=x.dtype)
        out[self.ids, self.positions] = x
        return out

    def unpad(self, xp: np.ndarray) -> np.ndarray:
        """Inverse of `pad`: the real rows of a (count, n_max, ...) array."""
        if self.count == 1:
            return xp[0]
        return xp[self.ids, self.positions]

    def sum(self, x: np.ndarray) -> np.ndarray:
        """Per-segment sum over the rows of `x`: (count, ...)."""
        return np.add.reduceat(x, self.offsets, axis=0)


def segments_of(n: int, segments: Segments | None) -> Segments:
    """`segments`, checked against n rows; one segment of all rows when None."""
    if segments is None:
        return Segments([n])
    if segments.total != n:
        raise DimensionError(f"segments cover {segments.total} rows, tensor has {n}")
    return segments


def _make(data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    out = Tensor(data)
    if _grad_enabled():
        for p in parents:
            if p.requires_grad:
                out._parents = parents
                out._backward = backward
                out.requires_grad = True
                return out
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # The first gradient may be shared with other tensors or be a view into
    # another buffer, so it is never written to. The sum of the first two is
    # t's own array and later gradients add into it in place: a parameter
    # used by many nodes then costs no new array per contribution.
    if t.grad is None:
        t.grad = g if g.base is None and g.dtype == t.data.dtype else g.astype(t.data.dtype)
        t._owns_grad = False
    elif t._owns_grad:
        t.grad += g
    else:
        t.grad = t.grad + g
        t._owns_grad = True


def fused(data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    """One node over hand-written math: `backward(g)` returns a gradient for
    each parent in order; parents outside differentiation drop theirs."""
    def accumulate(g):
        for p, grad in zip(parents, backward(g)):
            if p.requires_grad:
                _accumulate(p, grad)

    return _make(data, parents, accumulate)


# -- elementwise arithmetic --------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), backward)


def square(a) -> Tensor:
    return mul(a, a)


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul expects compatible 2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(data, (a,), backward)


# -- reductions ----------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), backward)


# -- indexing ----------------------------------------------------------------


def take(a: Tensor, idx) -> Tensor:
    a = as_tensor(a)
    data = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return _make(data, (a,), backward)


def segment_sum(x: Tensor, segments: Segments) -> Tensor:
    """Sum of each segment's rows: (total, ...) -> (count, ...)."""
    x = as_tensor(x)
    segments = segments_of(x.data.shape[0], segments)
    data = segments.sum(x.data)

    def backward(g):
        _accumulate(x, g[segments.ids])

    return _make(data, (x,), backward)


def segment_mean(x: Tensor, segments: Segments) -> Tensor:
    """Mean of each segment's rows: (total, ...) -> (count, ...)."""
    inv = 1.0 / segments.lengths
    return mul(segment_sum(x, segments), inv.reshape((-1,) + (1,) * (as_tensor(x).data.ndim - 1)))


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("concat of zero tensors")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accumulate(p, g[tuple(sl)])

    return _make(data, tuple(parts), backward)


# -- nonlinearities -----------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(g):
        _accumulate(a, g * (a.data > 0.0))

    return _make(data, (a,), backward)


def log_clamped(a: Tensor, floor: float = LOG_CLAMP) -> Tensor:
    """log with the argument clamped below at `floor`; flat gradient under the clamp."""
    a = as_tensor(a)
    safe = np.maximum(a.data, floor)
    data = np.log(safe)

    def backward(g):
        _accumulate(a, g * (a.data > floor) / safe)

    return _make(data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(np.maximum(a.data, 0.0))

    def backward(g):
        _accumulate(a, g * 0.5 / np.maximum(data, NORM_EPS))

    return _make(data, (a,), backward)


def clamp(a: Tensor, lo=None, hi=None) -> Tensor:
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)

    def backward(g):
        inside = np.ones_like(a.data, dtype=bool)
        if lo is not None:
            inside &= a.data > lo
        if hi is not None:
            inside &= a.data < hi
        _accumulate(a, g * inside)

    return _make(data, (a,), backward)


def softmax(v: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along `axis`; rows sum to one."""
    v = as_tensor(v)
    if v.data.ndim == 0 or v.data.shape[axis] == 0:
        raise DimensionError(f"softmax over empty axis {axis} of shape {v.data.shape}")
    shifted = v.data - v.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(v, data * (g - dot))

    return _make(data, (v,), backward)


def segment_softmax(v: Tensor, segments: Segments | None = None) -> Tensor:
    """Max-subtracted softmax of a vector within each segment."""
    v = as_tensor(v)
    if v.data.ndim != 1 or v.data.size == 0:
        raise DimensionError(f"segment_softmax expects a non-empty vector, got shape {v.data.shape}")
    seg = segments_of(v.data.size, segments)
    shifted = v.data - np.maximum.reduceat(v.data, seg.offsets)[seg.ids]
    e = np.exp(shifted)
    data = e / seg.sum(e)[seg.ids]

    def backward(g):
        dot = seg.sum(g * data)[seg.ids]
        _accumulate(v, data * (g - dot))

    return _make(data, (v,), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b in one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise DimensionError(
            f"affine expects compatible 2-D operands, got {x.data.shape} and {w.data.shape}"
        )
    data = x.data @ w.data + b.data

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        if w.requires_grad:
            _accumulate(w, x.data.T @ g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    return _make(data, (x, w, b), backward)


def _swap(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def soft_span_remix(states: Tensor, z: Tensor, ramp: float, scale: float,
                    segments: Segments | None = None) -> Tensor:
    """Adaptive-span re-aggregation of every row, fused into one node.

    Row p of a segment becomes the softmax-weighted mix of that segment's
    rows. Logits are cosines between rows times `scale`, multiplied by the
    soft span mask m = clamp((R + z - |p - j|) / R, 0, 1) and by the mean of
    m over the segment; keys where m is 0 get NEG_INF_LOGIT instead. A row
    whose mask is 0 everywhere copies itself. Works on padded (segments,
    n_max, n_max) arrays.
    """
    states, z = as_tensor(states), as_tensor(z)
    seg = segments_of(states.data.shape[0], segments)
    s = seg.pad(states.data)
    valid = seg.valid()[:, None, :]
    root = np.sqrt(np.maximum((s * s).sum(axis=-1, keepdims=True), 0.0))
    norms = np.maximum(root, NORM_EPS)
    unit = s / norms
    logits = (unit @ _swap(unit)) * scale
    idx = np.arange(seg.n_max)
    distance = np.abs(idx[:, None] - idx[None, :]).astype(s.dtype)
    pre = ((z.data + ramp) - distance) * (1.0 / ramp)
    m = np.where(valid, np.clip(pre, 0.0, 1.0), 0.0)
    inv_len = (1.0 / seg.lengths).astype(s.dtype)[:, None, None]
    ratio = m.sum(axis=-1, keepdims=True) * inv_len
    support = m > 0.0
    t = logits * m
    scores = np.where(support, t * ratio, NEG_INF_LOGIT)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    attn = e / e.sum(axis=-1, keepdims=True)
    lonely = ~support.any(axis=-1)
    if lonely.any():
        b, p = np.nonzero(lonely)
        attn[b, p] = 0.0
        attn[b, p, p] = 1.0
    data = seg.unpad(attn @ s)

    def backward(g):
        go = seg.pad(g)
        ds = _swap(attn) @ go
        da = go @ _swap(s)
        dmod = attn * (da - (da * attn).sum(axis=-1, keepdims=True))
        dmod[lonely] = 0.0
        dt = dmod * ratio
        dratio = (dmod * t).sum(axis=-1, keepdims=True)
        dm = (dt * logits + dratio * inv_len) * valid
        if z.requires_grad:
            inside = (pre > 0.0) & (pre < 1.0)
            _accumulate(z, np.asarray((dm * inside).sum() * (1.0 / ramp)))
        if states.requires_grad:
            dp = dt * m * scale
            dunit = dp @ unit + _swap(dp) @ unit
            ds += dunit / norms
            dnorms = -(dunit * s / (norms * norms)).sum(axis=-1, keepdims=True)
            dsq = dnorms * (root > NORM_EPS) * 0.5 / np.maximum(root, NORM_EPS)
            ds += 2.0 * s * dsq
            _accumulate(states, seg.unpad(ds))

    return _make(data, (states, z), backward)


def straight_through(soft: Tensor, hard_values: np.ndarray) -> Tensor:
    """Forward the hard values; route gradients to `soft` unchanged."""
    soft = as_tensor(soft)
    data = np.array(hard_values, dtype=soft.data.dtype)
    if data.shape != soft.data.shape:
        raise DimensionError(
            f"straight_through shapes differ: {data.shape} vs {soft.data.shape}"
        )

    def backward(g):
        _accumulate(soft, g)

    return _make(data, (soft,), backward)


# -- encoder kernels ---------------------------------------------------------------
# Plain-array math of the encoder block. Each kernel returns its output and a
# `backward(g)` closure over what the gradient needs; `encoder._block` chains
# them inside one `fused` node.

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: np.ndarray):
    """Smooth tanh-form gelu; kept smooth so finite-difference checks stay
    tight. Returns (gelu(x), backward), backward(g) -> dx."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)

    return out, backward


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True), the same bits without numpy's Python wrapper."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Normalization of each row of a 2-D array, then gain and bias.
    Returns (out, backward), backward(g) -> (dx, dgain, dbias)."""
    centered = x - _row_mean(x)
    inv_std = 1.0 / np.sqrt(_row_mean(centered * centered) + eps)
    xhat = centered * inv_std
    out = xhat * gain + bias

    def backward(g):
        dxhat = g * gain
        m1 = _row_mean(dxhat)
        m2 = _row_mean(dxhat * xhat)
        return inv_std * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=0), g.sum(axis=0)

    return out, backward


def dropout_(x: np.ndarray, keep: np.ndarray, scale: float) -> np.ndarray:
    """Inverted dropout of `x` in place, `x *= keep; x *= scale` with a boolean
    keep-mask: a kept element becomes x·scale, a dropped one x·0 with its
    sign, bit for bit what multiplying by a float mask of 0s and `scale`s
    gives. Returns `x`."""
    x *= keep
    x *= scale
    return x


def multi_head_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
                         scale: float, keep: np.ndarray | None = None, keep_scale: float = 1.0,
                         segments: Segments | None = None):
    """Scaled dot-product attention over column-partitioned heads of packed
    (rows, hidden) arrays; a query attends only to keys of its own segment.

    Works on padded (segments, heads, n_max, n_max) score arrays; padded keys
    get zero weight. `keep`, a boolean array of that shape, drops attention
    probabilities, and `keep_scale` scales the kept ones (inverted dropout).
    Only the probabilities are saved for backward, which rebuilds the dropped
    ones from them and `keep`. Returns (merged output, backward),
    backward(g) -> (dq, dk, dv).
    """
    n, hidden = q.shape
    if hidden % n_heads != 0:
        raise DimensionError(f"hidden {hidden} not divisible by {n_heads} heads")
    seg = segments_of(n, segments)
    shape = (seg.count, seg.n_max, n_heads, hidden // n_heads)

    def heads(x):   # (total, hidden) -> (count, heads, n_max, d_k)
        return seg.pad(x).reshape(shape).transpose(0, 2, 1, 3)

    def merge(xh):  # inverse of heads
        return seg.unpad(xh.transpose(0, 2, 1, 3).reshape(seg.count, seg.n_max, hidden))

    def dropped():   # probs after dropout, rebuilt wherever it is needed
        if keep is None:
            return probs
        out = probs * keep
        out *= keep_scale
        return out

    qh, kh, vh = heads(q), heads(k), heads(v)
    probs = (qh @ _swap(kh)) * scale    # logits; the softmax runs in place
    if seg.count > 1:
        probs += np.where(seg.valid(), 0.0, -np.inf).astype(probs.dtype)[:, None, None, :]
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def backward(g):
        go = heads(g)
        dv = merge(_swap(dropped()) @ go)
        dp = go @ _swap(vh)
        if keep is not None:
            dropout_(dp, keep, keep_scale)
        dp -= (dp * probs).sum(axis=-1, keepdims=True)
        dp *= probs   # now the gradient of the logits
        return merge((dp @ kh) * scale), merge((_swap(dp) @ qh) * scale), dv

    return merge(dropped() @ vh), backward


# -- aggregation -------------------------------------------------------------------


AGGREGATOR_KINDS = ("mean", "median", "sd")


def _segment_median(scores: Tensor, seg: Segments) -> Tensor:
    """Median of each segment, the mean of the two middle values when even;
    ties keep index order. Gradient goes to the middle values."""
    order = np.argsort(seg.pad(scores.data, np.inf), axis=1, kind="stable")
    rows = np.arange(seg.count)
    half = seg.lengths // 2
    hi = seg.offsets + order[rows, half]
    lo = seg.offsets + order[rows, half - 1 + seg.lengths % 2]
    data = (scores.data[lo] + scores.data[hi]) * 0.5

    def backward(g):
        full = np.zeros_like(scores.data)
        np.add.at(full, lo, 0.5 * g)
        np.add.at(full, hi, 0.5 * g)
        _accumulate(scores, full)

    return _make(data, (scores,), backward)


def aggregate(scores: Tensor, kind: str, segments: Segments | None = None) -> Tensor:
    """Pool a score vector: mean, median, or population SD. A scalar without
    `segments`, else one value per segment."""
    scores = as_tensor(scores)
    if scores.data.ndim != 1 or scores.data.size == 0:
        raise DimensionError(f"aggregate expects a non-empty vector, got shape {scores.data.shape}")
    seg = segments_of(scores.data.size, segments)
    kind = kind.lower()
    if kind == "mean":
        pooled = segment_mean(scores, seg)
    elif kind == "median":
        pooled = _segment_median(scores, seg)
    elif kind == "sd":
        centered = sub(scores, take(segment_mean(scores, seg), seg.ids))
        pooled = sqrt(segment_mean(square(centered), seg))
    else:
        raise ContractError(f"unknown aggregator {kind!r}; expected one of {AGGREGATOR_KINDS}")
    return pooled if segments is not None else reshape(pooled, ())


# -- backward pass ---------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate into the grad buffer of every leaf reachable from a scalar
    loss; intermediate gradients are dropped once propagated."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    loss_grad = np.ones_like(loss.data)
    _accumulate(loss, loss_grad)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None   # only leaves keep their gradient


# -- parameter store ----------------------------------------------------------------


class ParamStore:
    """Ordered name -> Tensor map of trainable parameters, all of one dtype."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._entries: OrderedDict[str, Tensor] = OrderedDict()

    def add(self, name: str, data) -> Tensor:
        """Register `data`, rounded to the store's dtype."""
        if name in self._entries:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=self.dtype), requires_grad=True)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def tensors(self):
        return self._entries.values()

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def l2_sum(self) -> float:
        """Sum of squares over every entry, in entry order and in float64
        whatever the entries' dtype: the L2 term's norm, whose gradient Adam
        adds outside the graph."""
        total = np.float64(0.0)
        for t in self._entries.values():
            total = total + np.square(t.data, dtype=np.float64).sum()
        return float(total)
