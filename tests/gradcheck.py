"""Central finite differences against `backward()`; a few `ad.fused` nodes
that test objectives and oracles build from and the model does not (sums,
a dot product, a scale and a clamped log); and the tiny float64 models on
which the gradient checks run every task × strategy pair, on one instance
and on a packed batch of three."""

import math
from dataclasses import replace

import numpy as np

from maskterm import autodiff as ad
from maskterm import encoder as enc
from maskterm import masking as mk
from maskterm import tasks
from maskterm import training
from maskterm.corpus import AspectAnnotation, make_example
from maskterm.exceptions import NumericError

SEED = 11

# Heads start at zero and `mask.w_a` at zero in training, which would make
# the gradients upstream of them vanish identically; the checks draw them.
# Heads stay small: at sigma 0.4 the ASC softmaxes saturate, the gradients
# fall to about 1e-9 and the central difference's own error dominates.
HEAD_SIGMA = 0.2
W_A_SIGMA = 0.6
# (task, strategy, learnable, packed); ACTM once more with constant weights.
CASES = ([(task, strategy, True, packed) for task in ("ate", "asc")
          for strategy in mk.MaskConfig.STRATEGIES for packed in (False, True)]
         + [("asc", "actm", False, False)])


def tsum(*parts: ad.Tensor) -> ad.Tensor:
    """Sum of every entry of every part, as a graph node: a scalar objective."""
    return ad.fused(sum(a.data.sum() for a in parts), parts,
                    lambda g: tuple(np.full_like(a.data, g) for a in parts))


def dot(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """sum(a * b) as a graph node; `dot(t, t)` is t's sum of squares."""
    return ad.fused((a.data * b.data).sum(), (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: ad.Tensor, s: float) -> ad.Tensor:
    """a * s as a graph node, for a Python float s."""
    return ad.fused(a.data * s, (a,), lambda g: (g * s,))


def log_clamped(a: ad.Tensor) -> ad.Tensor:
    """log(max(a, tasks.LOG_CLAMP)) as a graph node, flat under the clamp."""
    safe = np.maximum(a.data, tasks.LOG_CLAMP)
    return ad.fused(np.log(safe), (a,), lambda g: (g * (a.data > tasks.LOG_CLAMP) / safe,))


def case_id(case) -> str:
    task, strategy, learnable, packed = case
    return "-".join([task, strategy] + ([] if learnable else ["constant"])
                    + ["packed" if packed else "single"])


def finite_difference_check(f, params: ad.ParamStore, h: float = 1e-5,
                            names: list[str] | None = None, return_details: bool = False):
    """Compare backward() gradients of the scalar map `f` against central differences.

    Returns the max over checked coordinates of
    |analytic - central| / max(1e-8, |central|); with return_details, also a
    per-parameter dict of the same statistic.
    """
    check_names = list(names) if names is not None else params.names()
    out = f()
    if not np.isfinite(out.data).all():
        raise NumericError("objective returned a non-finite value")
    grads = ad.backward(out)
    analytic = {name: (grads[params[name]].copy() if params[name] in grads
                       else np.zeros_like(params[name].data))
                for name in check_names}

    def value() -> float:
        with ad.no_grad():
            y = float(f().data)
        if not math.isfinite(y):
            raise NumericError("objective returned a non-finite value during probing")
        return y

    details: dict[str, float] = {}
    for name in check_names:
        flat = params[name].data.reshape(-1)
        ana = analytic[name].reshape(-1)
        err = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = value()
            flat[i] = orig - h
            fm = value()
            flat[i] = orig
            central = (fp - fm) / (2.0 * h)
            err = max(err, abs(ana[i] - central) / max(1e-8, abs(central)))
        details[name] = err
    worst = max(details.values(), default=0.0)
    return (worst, details) if return_details else worst


def tiny_example():
    return make_example("steak was great", [AspectAnnotation("steak", 0, 5, "positive")])


def tiny_batch():
    """Three ASC instances of different lengths for the packed checks."""
    return [
        (tiny_example(), 0),
        (make_example("the wine list was awful", [AspectAnnotation("wine list", 4, 13, "negative")]), 0),
        (make_example("service slow", [AspectAnnotation("service", 0, 7, "neutral")]), 0),
    ]


def tiny_config(task: str, strategy: str, learnable: bool = True) -> training.TrainConfig:
    mask = mk.MaskConfig(strategy=strategy, learnable=learnable, alpha_init=0.9, gamma_init=0.2,
                         beta_init=1.1, aam_span_init=1.3, aam_ramp=2.0)
    encoder_cfg = enc.EncoderConfig(d_w=6, d_p=2, hidden=12, n_layers=1, n_heads=2, d_ff=16,
                                    dropout_rate=0.0, max_len=16)
    return training.TrainConfig(task=task, seed=SEED, mask=mask, encoder=encoder_cfg)


def param_groups(model: tasks.AbsaModel) -> dict[str, list[str]]:
    """Parameter names by group: each `mask.*` weight alone, the head, the encoder."""
    groups: dict[str, list[str]] = {}
    for name in model.params.names():
        if name.startswith("mask."):
            group = name.split(".", 1)[1]
        else:
            group = "head" if name.startswith("head.") else "encoder"
        groups.setdefault(group, []).append(name)
    return groups


def build(task: str, strategy: str, learnable: bool, packed: bool):
    """The case's float64 model, dropout off, with its heads and `mask.w_a`
    drawn, and the scalar objective its check differentiates.

    ACTM and `fixed` differentiate the surrogate forward plus the gold
    cross-entropy summed over the prediction rows: the threshold cut's
    margin path is then the forward value as well, so the objective is
    genuinely differentiable. `none`, AAM and AMOM differentiate what
    training does, `training.batch_loss`; for AMOM that is the scored
    per-round loss through the masked-content path.
    """
    config = tiny_config(task, strategy, learnable)
    instances = tiny_batch() if packed else [(tiny_example(), 0)]
    examples = [ex for ex, _ in instances]
    vocab = enc.Vocab.build(examples)
    enc_cfg = replace(config.encoder, vocab_size=len(vocab.words))
    model = tasks.AbsaModel(task, enc_cfg, config.mask, vocab, config.seed, np.float64)
    spread_rng = np.random.default_rng(SEED + 100)
    if "mask.w_a" in model.params:
        model.params["mask.w_a"].data = spread_rng.normal(0.0, W_A_SIGMA, size=enc_cfg.hidden)
    for name in model.params.names():
        if name.startswith("head."):
            t = model.params[name]
            t.data = spread_rng.normal(0.0, HEAD_SIGMA, size=t.data.shape)

    batch = examples if task == "ate" else instances
    if strategy in ("actm", "fixed"):
        gold = np.concatenate(model.gold_ids(batch))

        def objective():
            return tasks.nll(model.forward(batch, surrogate=True).probs, gold, 1.0)
    else:
        def objective():
            return training.batch_loss(model, config, batch)
    return model, objective
