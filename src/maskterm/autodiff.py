"""Dense float32 or float64 tensors with reverse-mode differentiation.

Small on purpose: 2-D matrices and vectors, and one way to make a node.
`fused` makes one node of hand-written math, and a packed forward of the
model is a chain of such nodes: the embedding with the input projection, one
per encoder layer, the masking stage, the task head and the loss.

A tensor keeps float32 data as float32 and holds anything else as float64;
gradients take their tensor's dtype. Models run in float32, and the tests'
finite-difference checks in float64. Every constant a kernel builds takes
the dtype of the arrays it meets, so constants never widen a float32 graph.
Under NumPy 2 a float64 array, 0-d or not, or an `np.float64` scalar would,
so the kernels take scales as Python floats.

A batch of sequences is packed end to end into one `(sum of lengths, width)`
matrix and described by `Segments`. Tensors stay 2-D at the API: row-wise
math needs no change, and segment sums reduce within each sequence. Only
attention, the one kernel here that mixes rows, pads segments, so that a row
only ever sees rows of its own sequence. It keeps its scores keys-outer,
`(longest keys, segments, heads, longest queries)`, so that its softmax
reduces over the leading axis.

The kernels (attention, layer norm, GELU, softmax) work on plain arrays and
return their output with a backward closure; the encoder chains them into
one fused node per layer, as `masking.stage` chains a masking strategy's
kernels and `tasks` a task head's into one node. Dropout comes in as boolean
keep-masks and a scale (`dropout_`), and a closure keeps only what its
backward cannot cheaply rebuild: attention saves the probabilities, and its
backward rebuilds the dropped ones from them.

`backward` returns the gradient of every leaf it reaches as a dict and
writes on no tensor. Given the gradient of any node as a seed, it
propagates that through the node's subgraph alone, so two threads can walk
two subgraphs that share leaves (the parameters) at once. `streams` maps a
function over a list as two streams, the even-indexed items on the calling
thread and the odd-indexed ones on one worker thread. `join`, the sum of a
training loss's nodes, walks them through it; so do a training forward's
two halves (`tasks`) and `training.evaluate`'s chunks. A `streams` called on
the worker itself runs every item there, in order, since the one worker
cannot wait on itself.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .exceptions import ContractError, DimensionError

# Thread-local, so a no_grad block in one thread leaves recording on in the
# others.
_GRAD_STATE = threading.local()


def grad_enabled() -> bool:
    """Whether this thread records graph nodes."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextmanager
def grad_mode(enabled: bool):
    """Record graph nodes on this thread inside the block, or not."""
    prev = grad_enabled()
    _GRAD_STATE.enabled = enabled
    try:
        yield
    finally:
        _GRAD_STATE.enabled = prev


def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    return grad_mode(False)


def check_float32(error: type[Exception], values: dict) -> None:
    """Raise `error` for the first of `values`, {label: number or None},
    that is not finite once rounded to float32, the dtype models compute in."""
    with np.errstate(over="ignore"):
        for label, value in values.items():
            if value is not None and not np.isfinite(np.float32(value)):
                raise error(f"{label} {value!r} is not finite in float32")


class Tensor:
    """Immutable-by-convention array node in the differentiation record."""

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        # g -> one gradient per parent, in order, or None where it reaches none
        self._backward: Callable[[np.ndarray], tuple | list] | None = None

    def item(self) -> float:
        return float(self.data)


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


def fused(data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    """One node over hand-written math: `backward(g)` returns a gradient for
    each parent in order, or None for a parent it does not reach; parents
    outside differentiation drop theirs. The node records its parents and
    `backward` only outside `no_grad` and when one of them needs a gradient."""
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out._parents, out._backward, out.requires_grad = parents, backward, True
    return out


# -- kernels -----------------------------------------------------------------------
# Plain-array math of the encoder block and the task heads. Each kernel returns
# its output and a `backward(g)` closure over what the gradient needs;
# `encoder._block` and the heads of `tasks` chain them inside one `fused` node.
# A kernel writes in place only into arrays it made itself, one operation at a
# time in the formula's order, so it gives the formula's bits with fewer
# temporaries; it never writes into its inputs.

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: np.ndarray):
    """Smooth tanh-form gelu; kept smooth so finite-difference checks stay
    tight. Returns (gelu(x), backward), backward(g) -> dx."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    t = np.tanh(t, out=t)   # tanh(C * (x + 0.044715 x^3)) in one buffer
    out = t + 1.0
    out *= 0.5 * x

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner)

    return out, backward


def softmax_kernel(x: np.ndarray, axis: int = -1):
    """Max-subtracted softmax along `axis`. Returns (probs, backward),
    backward(g) -> dx."""
    probs = x - x.max(axis=axis, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=axis, keepdims=True)

    def backward(g):
        return probs * (g - (g * probs).sum(axis=axis, keepdims=True))

    return probs, backward


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True), the same bits without numpy's Python wrapper."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Normalization of each row of a 2-D array, then gain and bias.
    Returns (out, backward), backward(g) -> (dx, dgain, dbias)."""
    xhat = x - _row_mean(x)
    inv_std = _row_mean(xhat * xhat)
    inv_std += eps
    inv_std = np.divide(1.0, np.sqrt(inv_std, out=inv_std), out=inv_std)
    xhat *= inv_std
    out = xhat * gain
    out += bias

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


def _swap(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def multi_head_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
                         scale: float, keep: np.ndarray | None = None, keep_scale: float = 1.0,
                         segments: Segments | None = None):
    """Scaled dot-product attention over column-partitioned heads of packed
    (rows, hidden) arrays; a query attends only to keys of its own segment.

    Scores are padded keys-outer, as (n_max keys, segments, heads, n_max
    queries) arrays, in one layout for every batch size: the softmax reduces
    over axis 0 in contiguous passes, and the batched matmuls write and read
    the scores through transposed views. Padded keys get exactly zero
    probability. The probabilities stay unnormalised, as exponentials and
    each query's reciprocal sum, which scales the small per-query arrays
    instead. `keep`, a boolean array of the score layout, drops attention
    probabilities, and `keep_scale` scales the kept ones (inverted dropout);
    the logit scale rides on q and the dropout scale on v. Backward keeps the
    exponentials, rebuilds the dropped ones from them and `keep`, and reads
    each query's sum over keys of dprobs * probs off the output, which is
    therefore returned read-only. Returns (merged output, backward),
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

    def by_query(p):   # keys-outer -> (count, heads, queries, keys), a view
        return p.transpose(1, 2, 3, 0)

    def by_key(p):     # keys-outer -> (count, heads, keys, queries), a view
        return p.transpose(1, 2, 0, 3)

    def dropped(buffer=None):   # exps times keep, rebuilt wherever needed
        return exps if keep is None else np.multiply(exps, keep, out=buffer)

    if keep is None:
        keep_scale = 1.0
    qh, kh, vh = heads(q * scale), heads(k), heads(v if keep is None else v * keep_scale)
    exps = np.empty((seg.n_max, seg.count, n_heads, seg.n_max), dtype=qh.dtype)
    np.matmul(kh, _swap(qh), out=by_key(exps))   # logits; exponentiated in place
    if seg.count > 1:
        exps[~seg.valid().T] = -np.inf
    exps -= exps.max(axis=0)
    np.exp(exps, out=exps)
    inv = exps.sum(axis=0)
    inv = np.divide(1.0, inv, out=inv)[..., None]   # (count, heads, queries, 1)

    def backward(g):
        go = heads(g)
        dp = np.empty_like(exps)
        dv = merge(by_key(dropped(dp)) @ (go * inv)) * keep_scale
        np.matmul(vh, _swap(go), out=by_key(dp))
        if keep is not None:
            dp *= keep
        # The sum over keys of dp * probs is, per query and head, that of g * out.
        rows = np.einsum("nhd,nhd->nh", g.reshape(n, n_heads, -1), out.reshape(n, n_heads, -1))
        dp -= seg.pad(rows).transpose(0, 2, 1)
        dp *= exps   # now the logits' gradient but for each query's factor inv
        return merge((by_query(dp) @ kh) * inv) * scale, merge(by_key(dp) @ (qh * inv)), dv

    out = by_query(dropped()) @ vh
    out *= inv
    out = merge(out)
    out.flags.writeable = False   # backward reads it
    return out, backward


# -- backward pass ---------------------------------------------------------------


def _accumulate(grads: dict, t: Tensor, g: np.ndarray) -> None:
    """Add `g` to `grads[t]`, in `t`'s dtype. A gradient may be shared with
    other tensors or be a view into another buffer, so none is ever written
    to: the first is kept as it comes and each later one makes a new array."""
    total = grads.get(t)
    if total is None:
        grads[t] = g if g.dtype == t.data.dtype else g.astype(t.data.dtype)
    else:
        grads[t] = total + g


def backward(loss: Tensor, seed: np.ndarray | None = None) -> dict[Tensor, np.ndarray]:
    """The gradient of a scalar loss with respect to every leaf it reaches,
    as {leaf: gradient}; each inner node's gradient is dropped once
    propagated, and no tensor changes.

    Given `seed`, the gradient of `loss` (of its shape, so `loss` need not be
    a scalar), that is propagated in place of ones."""
    if seed is None and loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if seed is not None and seed.shape != loss.data.shape:
        raise DimensionError(f"seed of shape {seed.shape} for a node of shape {loss.data.shape}")
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
    grads: dict[Tensor, np.ndarray] = {}
    _accumulate(grads, loss, np.ones_like(loss.data) if seed is None else seed)
    for node in reversed(topo):
        if node._backward is not None and node in grads:
            for p, g in zip(node._parents, node._backward(grads.pop(node))):
                if p.requires_grad and g is not None:
                    _accumulate(grads, p, g)
    return grads


# -- two streams -----------------------------------------------------------------

_WORKER_STATE = threading.local()   # `here` is set on the worker's thread alone


def _new_worker() -> None:
    """A new pool of one worker thread, which runs the odd-indexed items of
    every `streams`; its thread starts at the first call. A forked child gets
    its own, because the parent's thread does not run in it."""
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="maskterm-worker",
                                 initializer=setattr, initargs=(_WORKER_STATE, "here", True))


_new_worker()
if hasattr(os, "register_at_fork"):   # POSIX
    os.register_at_fork(after_in_child=_new_worker)


def streams(fn, items) -> list:
    """[fn(x) for x in items] as two streams: the even-indexed items on this
    thread and the odd-indexed ones on the worker, each stream in order and
    under the calling thread's grad mode. Both streams finish before an
    error is raised, unchanged; when both fail, this thread's is. With fewer
    than two items, or on the worker itself, which cannot wait on itself,
    every item runs here, in order."""
    items = list(items)
    if len(items) < 2 or getattr(_WORKER_STATE, "here", False):
        return [fn(x) for x in items]
    enabled = grad_enabled()

    def odd() -> list:
        with grad_mode(enabled):
            return [fn(x) for x in items[1::2]]

    future = _WORKER.submit(odd)
    try:
        even = [fn(x) for x in items[::2]]
    finally:
        future.exception()   # waits for the worker's stream, and leaves its error for below
    results = [None] * len(items)
    results[::2], results[1::2] = even, future.result()
    return results


def join(parts, leaves: tuple) -> Tensor:
    """The sum of scalar losses `parts` over independent subgraphs as one
    node over `leaves`, or the one part itself. Its backward walks the parts
    through `streams` and gives each leaf its parts' gradients added in part
    order, or None where no part reaches it."""
    if len(parts) == 1:
        return parts[0]
    data = reduce(np.add, [p.data for p in parts])

    def backward_parts(g):
        found = streams(lambda part: backward(part, g), parts)
        sums = [[grads[leaf] for grads in found if leaf in grads] for leaf in leaves]
        return [reduce(np.add, terms) if terms else None for terms in sums]

    return fused(data, leaves, backward_parts)


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

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def tensors(self):
        return self._entries.values()

    def l2_sum(self) -> float:
        """Sum of squares over every entry, in entry order and in float64
        whatever the entries' dtype: the L2 term's norm, whose gradient Adam
        adds outside the graph."""
        total = np.float64(0.0)
        for t in self._entries.values():
            total = total + np.square(t.data, dtype=np.float64).sum()
        return float(total)
