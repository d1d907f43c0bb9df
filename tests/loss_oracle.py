"""The training loss as a graph of one cross-entropy per instance and
forward, built from the test nodes of `gradcheck`, kept as a test oracle for
`AbsaModel.loss`: each instance's cross-entropy summed over its prediction
rows, averaged over the AMOM rounds the instance ran (one round without
AMOM), then over the batch."""

import numpy as np

import gradcheck as gc
from maskterm import autodiff as ad
from maskterm import masking as mk


def cross_entropy(logs: ad.Tensor, rows: slice, gold: np.ndarray) -> ad.Tensor:
    """Cross-entropy summed over `rows` of a forward's clamped log
    probabilities, one gold class id per row."""
    picked = np.zeros_like(logs.data)
    picked[np.arange(rows.start, rows.stop), gold] = 1.0
    return gc.scale(gc.dot(logs, ad.Tensor(picked)), -1.0)


def _mean(parts: list[ad.Tensor]) -> ad.Tensor:
    return gc.scale(gc.tsum(*parts), 1.0 / len(parts))


def batch_loss(model, items: list, rng) -> ad.Tensor:
    """The loss of `model` on a batch, from the same forwards `model.loss`
    makes: AMOM runs the same remask-by-gold loop, `masking.amom_regenerate`."""
    gold = model.gold_ids(items)
    per_instance: list[list[ad.Tensor]] = [[] for _ in items]

    def forward(masked):
        out = model.forward([items[b] for b in masked], rng=rng,
                            masked_content=[frozenset(m) for m in masked.values()])
        logs = gc.log_clamped(out.probs)
        for b, start, n in zip(masked, out.rows.offsets, out.rows.lengths):
            per_instance[b].append(cross_entropy(logs, slice(start, start + n), gold[b]))
        return np.split(out.probs.data, out.rows.offsets[1:])

    if model.mask_cfg.strategy == "amom":
        mk.amom_regenerate(forward, model.mask_cfg, model._maskable(items), gold)
    else:
        forward({b: set() for b in range(len(items))})
    return _mean([_mean(losses) for losses in per_instance])
