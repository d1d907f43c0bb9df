"""Per-row numpy twins of the AAM remix kernel, kept as test oracles for
`masking.aam_remix`."""

import math

import numpy as np

from maskterm import autodiff as ad
from maskterm import masking as mk
from maskterm.exceptions import ContractError, DimensionError


def aam_soft_mask(x, z, ramp: float):
    """Soft span mask min[max[(R + z - x)/R, 0], 1]: 1 inside the span,
    linear ramp of length R, 0 beyond."""
    if ramp <= 0.0:
        raise ContractError(f"ramp length must be positive, got {ramp}")
    value = (ramp + z - np.asarray(x, dtype=np.float64)) / ramp
    return np.clip(value, 0.0, 1.0)


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


def aam_attention(query_pos: int, scores: np.ndarray, z: float, ramp: float) -> np.ndarray:
    """Attention row for one query: logits modulated by soft-mask * ratio, then
    softmax restricted to the soft mask's support (outside weights exactly 0).
    A span z <= -ramp, which leaves the query's own key out, is refused."""
    n = scores.shape[0]
    if not 0 <= query_pos < n:
        raise ContractError(f"query position {query_pos} outside sequence of length {n}")
    if z <= -ramp:
        raise ContractError(f"span z = {z} must exceed -ramp = {-ramp}")
    m = aam_soft_mask(np.abs(np.arange(n) - query_pos), z, ramp)
    logits = np.where(m > 0.0, scores * m * aam_ratio(m), mk.NEG_INF_LOGIT)
    return ad.softmax_kernel(logits)[0]
