"""Per-row numpy and autodiff twins of the AAM remix kernel, kept as test
oracles for `masking.aam_remix`."""

import math

import numpy as np

from gradcheck import tsum
from maskterm import autodiff as ad
from maskterm import masking as mk
from maskterm.autodiff import Tensor
from maskterm.exceptions import ContractError, DimensionError


def aam_soft_mask(x, z, ramp: float):
    """Soft span mask min[max[(R + z - x)/R, 0], 1]: 1 inside the span,
    linear ramp of length R, 0 beyond."""
    if ramp <= 0.0:
        raise ContractError(f"ramp length must be positive, got {ramp}")
    value = (ramp + z - np.asarray(x, dtype=np.float64)) / ramp
    return np.clip(value, 0.0, 1.0)


def _soft_mask_tensor(distances: np.ndarray, z: Tensor, ramp: float) -> Tensor:
    """The soft mask as a graph: the clamp to [0, 1] is `scaled` where it lies
    strictly inside, plus the constant 1 where it reaches 1, which gives the
    clamp's value and slope."""
    scaled = ad.mul(ad.add(ad.add(z, ramp), Tensor(-distances)), 1.0 / ramp)
    inside = (scaled.data > 0.0) & (scaled.data < 1.0)
    return ad.add(ad.mul(scaled, inside), scaled.data >= 1.0)


def aam_ratio(mask_values) -> float:
    """Masking ratio: mean of the soft mask over the sequence."""
    values = np.asarray(mask_values, dtype=np.float64)
    if values.size == 0:
        raise DimensionError("masking ratio of an empty vector")
    return float(values.mean())


def aam_span_bounds(p: int, z: float, n: int) -> tuple[int, int]:
    """Integer attention-window bounds around position p, clamped into range."""
    if not 0 <= p < n:
        raise ContractError(f"position {p} outside sequence of length {n}")
    reach = math.ceil(z)
    return max(0, min(p - reach, n - 1)), max(0, min(p + reach, n - 1))


def aam_attention(query_pos: int, scores: Tensor, z, ramp: float) -> Tensor:
    """Attention row for one query: logits modulated by soft-mask * ratio, then
    softmax restricted to the soft mask's support (outside weights exactly 0)."""
    n = scores.data.shape[0]
    if not 0 <= query_pos < n:
        raise ContractError(f"query position {query_pos} outside sequence of length {n}")
    distances = np.abs(np.arange(n) - query_pos).astype(np.float64)
    z_t = z if isinstance(z, Tensor) else Tensor(float(z))
    m = _soft_mask_tensor(distances, z_t, ramp)
    support = m.data > 0.0
    if not support.any():
        one_hot = np.zeros(n)
        one_hot[query_pos] = 1.0
        return Tensor(one_hot)
    ratio = ad.mul(tsum(m), 1.0 / n)
    modulated = ad.mul(ad.mul(scores, m), ratio)
    barrier = np.where(support, 0.0, mk.NEG_INF_LOGIT)
    return ad.softmax(ad.add(modulated, Tensor(barrier)))
