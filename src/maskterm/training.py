"""Deterministic optimization loop, evaluation, and checkpoints:
`save_model` and `load_model` are the only code that knows their format."""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import encoder as enc
from . import masking as mk
from . import tasks
from .autodiff import Tensor
from .corpus import TokenizedExample
from .exceptions import CompatibilityError, ConfigError, ContractError, LengthError, NumericError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    task: str = "ate"
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 2e-5
    l2_lambda: float = 0.01           # ASC only: ATE trains without L2 decay
    seed: int = 0
    mask: mk.MaskConfig = field(default_factory=mk.MaskConfig)
    encoder: enc.EncoderConfig = field(default_factory=enc.EncoderConfig)

    def __post_init__(self):
        if self.task not in tasks.TASKS:
            raise ContractError(f"unknown task {self.task!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0.0:
            raise ContractError("learning_rate must be positive")
        if self.l2_lambda < 0.0:
            raise ContractError("l2_lambda must be non-negative")
        ad.check_float32(ContractError, {"learning_rate": self.learning_rate,
                                         "l2_lambda": self.l2_lambda})
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


def _cast(key: str, value, default):
    """`value` for `key`, held to the type of the key's default: a bool key
    takes only a JSON boolean, an int key an integer or a whole float, a
    float key a finite number but no boolean (a None default, the per-task
    *_init fields, also takes null), a string key a string."""
    if value is None and default is None:
        return None
    kind = float if default is None else type(default)
    if type(value) is kind and kind is not float:
        return value
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")


def typed_values(name: str, raw, defaults: dict) -> dict:
    """Every key of `defaults`, given a value of its type in the `raw`
    object or its default; unknown keys are rejected. Used for JSON configs
    and checkpoint headers alike."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return {key: _cast(key, raw.get(key, default), default) for key, default in defaults.items()}


@dataclass
class RunLog:
    records: list[dict] = field(default_factory=list)
    final_report: tasks.EvalReport | None = None   # the last epoch's evaluation

    def append(self, **record) -> None:
        self.records.append(record)

    def to_ldjson(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)


class Adam:
    """Adam with bias correction, on each gradient plus `l2` * theta: coupled
    L2 decay, the gradient of (l2/2) * ||theta||^2 kept out of the graph.
    `step` takes the {parameter: gradient} dict `autodiff.backward` returns;
    a parameter with no loss gradient steps on l2 * theta alone."""

    def __init__(self, params: ad.ParamStore, lr: float, l2: float = 0.0):
        self.params = params
        self.lr = lr
        self.l2 = l2
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, tensor in self.params.items():
            g = grads.get(tensor)
            if self.l2:
                g = self.l2 * tensor.data if g is None else g + self.l2 * tensor.data
            if g is None:
                continue
            m, v = self.m[name], self.v[name]   # updated in place, the same bits
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            tensor.data = tensor.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def asc_instances(dataset: list[TokenizedExample]) -> list[tuple[TokenizedExample, int]]:
    return [(ex, i) for ex in dataset for i in range(len(ex.aspects))]


def batch_loss(model: tasks.AbsaModel, config: TrainConfig, batch,
               rng: np.random.Generator | None = None) -> Tensor:
    """One differentiable scalar per batch, the batch run as one packed graph:
    `AbsaModel.loss`, with dropout drawn from `rng` when given. The model
    holds the run's task and mask config."""
    return model.loss(batch, rng)


def train(config: TrainConfig, train_set: list[TokenizedExample],
          eval_set: list[TokenizedExample]):
    """Run the full optimization; returns (model, RunLog). Both sets are
    checked by `_instances` before the first step. An epoch's `train_loss` is
    the cross-entropy plus, for ASC, the L2 term (lambda/2) * ||theta||^2,
    which `l2_term` logs alone. A batch loss that is not finite, or an epoch
    that leaves a parameter not finite, raises NumericError."""
    instances, _ = _instances(train_set, config.task, config.encoder.max_len, "training")
    # evaluate() checks its set too; checked here so that no epoch is spent first
    _instances(eval_set, config.task, config.encoder.max_len, "evaluation")
    vocab = enc.Vocab.build(train_set)
    enc_cfg = replace(config.encoder, vocab_size=len(vocab.words))
    try:
        model = tasks.AbsaModel(config.task, enc_cfg, config.mask, vocab, config.seed)
    except (MemoryError, ValueError) as exc:   # numpy refuses an array this large at once
        raise ConfigError(f"cannot allocate the encoder ({enc.sizes(enc_cfg)}): {exc}") from exc

    data_rng = np.random.default_rng(config.seed)
    dropout_rng = np.random.default_rng(config.seed + 1)
    l2 = config.l2_lambda if config.task == "asc" else 0.0
    optimizer = Adam(model.params, config.learning_rate, l2)
    log = RunLog()
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = data_rng.permutation(len(instances))
        epoch_loss = epoch_l2 = 0.0
        seen = 0
        for lo in range(0, len(instances), config.batch_size):
            batch = [instances[i] for i in order[lo:lo + config.batch_size]]
            loss = batch_loss(model, config, batch, dropout_rng)
            l2_term = model.params.l2_sum() * (l2 / 2.0) if l2 else 0.0
            value = float(loss.data) + l2_term
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch} batch {lo // config.batch_size} "
                    f"(size {len(batch)}): {value!r}"
                )
            grads = ad.backward(loss)
            del loss   # free this batch's graph before the next one is built
            optimizer.step(grads)
            del grads   # and its gradients
            epoch_loss += value * len(batch)
            epoch_l2 += l2_term * len(batch)
            seen += len(batch)
        # Finite exactly when every parameter is: float32 squares cannot overflow float64.
        squares = model.params.l2_sum()
        if not math.isfinite(squares):
            name = next(name for name, t in model.params.items() if not np.isfinite(t.data).all())
            raise NumericError(f"parameter {name} is not finite after epoch {epoch}")
        report = evaluate(model, eval_set, config.task)
        log.append(
            epoch=epoch,
            train_loss=epoch_loss / max(seen, 1),
            l2_term=epoch_l2 / max(seen, 1),
            eval=report_metrics(report, config.task),
            wall_time_s=round(time.perf_counter() - started, 4),
            param_norm=math.sqrt(squares),
        )
    log.final_report = report
    return model, log


def report_metrics(report: tasks.EvalReport, task: str) -> dict:
    return dict(report.ate if task == "ate" else report.asc)


# Packed rows per evaluation chunk. evaluate() counts a set's rows, or
# EVAL_LONG_ROWS an instance where its instances average more, runs a set that
# counts fewer than EVAL_ROWS as one chunk on the calling thread and cuts a
# larger one into an even number of chunks of about equal rows, each counting
# at most about EVAL_ROWS, so that the two streams (_predict_by_length) get
# equal work. Two chunks are in flight at once and their rows set the peak
# resident set (ROADMAP, "Measured, not targets").
EVAL_ROWS = 1024
# So a chunk of long instances holds about EVAL_ROWS / EVAL_LONG_ROWS = 32 of
# them, its rows growing with their mean: on a 2-vCPU x86-64 host, the ~117
# held-out instances of about 58 rows of perfbench's asc-aam-long evaluated
# about 10 % faster as 4 chunks of about 1,700 rows than as 8 of about 880
# (6/6 alternating runs), at the same peak resident set. Both short workloads
# average 10-15 rows an instance and keep their cut.
EVAL_LONG_ROWS = 32


def _cut_by_rows(order: list[int], rows: list[int]) -> list[list[int]]:
    """`order`, every instance once, as consecutive runs of whole
    instances. The set counts its `rows`, or EVAL_LONG_ROWS an instance
    where they average more: one run when that count is under EVAL_ROWS,
    else the smallest even number k of runs that keeps count/k within
    EVAL_ROWS, or one run per instance when there are fewer than k. So a
    set of short instances is cut by its rows, a set of long ones into runs
    of about EVAL_ROWS / EVAL_LONG_ROWS instances. Each cut falls at the
    instance boundary nearest to the row quantile total·j/k of the real
    rows, unless that would leave a run without an instance. A plain loop:
    a one-instance evaluate spends nothing here on NumPy calls."""
    total = sum(rows)
    counted = min(total, EVAL_LONG_ROWS * len(order))
    if counted < EVAL_ROWS:
        return [order]
    k = min(len(order), 2 * -(-counted // (2 * EVAL_ROWS)))
    runs, run, done = [], [], 0
    for p, i in enumerate(order):
        # Run j ends before i when the k - j runs after it need i and the
        # rest, one each, or when the boundary before i is nearer the
        # quantile total·j/k than the boundary after it.
        j = len(runs) + 1
        if run and j < k and (len(order) - p <= k - j
                              or 2 * total * j < k * (2 * done + rows[i])):
            runs.append(run)
            run = []
        run.append(i)
        done += rows[i]
    runs.append(run)
    return runs


def _predict_by_length(predict, items: list, rows: list[int]) -> list:
    """`predict` over chunks taken in order of the items' packed row counts
    `rows`, so a chunk pads little (`_cut_by_rows`); results come back in
    input order. The chunks run whole as two streams (`autodiff.streams`),
    a lone chunk on this thread. A chunk's results depend on its members
    alone, so the streams change no result."""
    order = sorted(range(len(items)), key=rows.__getitem__)
    chunks = _cut_by_rows(order, rows)
    results = [None] * len(items)
    predicted = ad.streams(lambda chunk: predict([items[i] for i in chunk]), chunks)
    for chunk, chunk_results in zip(chunks, predicted):
        for i, result in zip(chunk, chunk_results):
            results[i] = result
    return results


def _instances(dataset: list[TokenizedExample], task: str, max_len: int, role: str):
    """A `role` set's instances, ASC's in `asc_instances` order, and each
    one's packed rows. A set without instances is a ContractError, and an
    instance that packs more than `max_len` rows a LengthError that names
    its example."""
    items, lengths = [], []
    for k, ex in enumerate(dataset):
        for aspect in [None] if task == "ate" else range(len(ex.aspects)):
            items.append(ex if aspect is None else (ex, aspect))
            lengths.append(enc.packed_length(ex, aspect))
            if lengths[-1] > max_len:
                which = "" if aspect is None else f" (aspect {aspect})"
                raise LengthError(f"{role} example {k}{which} packs {lengths[-1]} rows, "
                                  f"more than max_len {max_len}")
    if not items:
        raise ContractError(f"{role} set has no {task.upper()} instances")
    return items, lengths


def evaluate(model: tasks.AbsaModel, dataset: list[TokenizedExample], task: str) -> tasks.EvalReport:
    """Deterministic evaluation with dropout off, in chunks of instances of
    similar length (`_cut_by_rows`): one chunk below EVAL_ROWS packed rows,
    each instance counted at most EVAL_LONG_ROWS on average, else an even
    number of about equal rows, streamed on two threads
    (`_predict_by_length`); a set of long instances thus runs in chunks of
    about 32. AMOM runs one packed forward per regeneration round of a
    chunk. Every instance gets the prediction its chunk gives it alone. An
    empty set, or a task that is not the model's, is a ContractError; an
    instance that packs more than max_len rows is a LengthError before the
    first chunk runs."""
    if task != model.task:
        raise ContractError(f"cannot evaluate a {model.task} model on {task!r}")
    items, lengths = _instances(dataset, task, model.enc_cfg.max_len, "evaluation")
    if task == "ate":
        predictions = _predict_by_length(model.predict_bio, items, lengths)
        pred_spans, gold_spans = [], []
        tag_counts = {c: {"tp": 0, "fp": 0, "fn": 0} for c in tasks.BIO_CLASSES}
        for i, (ex, tags) in enumerate(zip(dataset, predictions)):
            pred_spans += [(i, span) for span in tasks.decode_bio_spans(tags)]
            gold_spans += [(i, span) for span in tasks.decode_bio_spans(ex.bio_tags)]
            for pt, gt in zip(tags, ex.bio_tags):
                if pt == gt:
                    tag_counts[gt]["tp"] += 1
                else:
                    tag_counts[pt]["fp"] += 1
                    tag_counts[gt]["fn"] += 1
        precision, recall, f1 = tasks.ate_span_f1(pred_spans, gold_spans)
        return tasks.EvalReport(ate={"p": precision, "r": recall, "f1": f1},
                                per_class=tag_counts)

    preds = _predict_by_length(model.predict_polarity, items, lengths)
    golds = [ex.aspects[i].polarity for ex, i in items]
    accuracy, macro, per_class = tasks.asc_metrics(preds, golds)
    return tasks.EvalReport(asc={"acc": accuracy, "macro_f1": macro}, per_class=per_class)


# -- checkpoints ----------------------------------------------------------------------

CHECKPOINT_VERSION = "ckpt_v1"


def _manifest(params: ad.ParamStore) -> list[dict]:
    """The name and shape of every parameter, in store order: the order of the blob."""
    return [{"name": name, "shape": list(t.data.shape)} for name, t in params.items()]


def save_model(path: str, model: tasks.AbsaModel) -> None:
    """A JSON header line (version, config, seed, manifest), then every
    parameter as little-endian float64 in manifest order. Widening a float32
    model's values to float64 is exact, so they load back bit for bit."""
    config = {"task": model.task, "mask": asdict(model.mask_cfg),
              "encoder": asdict(model.enc_cfg), "vocab": model.vocab.words}
    header = {"version": CHECKPOINT_VERSION, "config": config, "seed": model.seed,
              "manifest": _manifest(model.params)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for t in model.params.tensors():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def _read_checkpoint(path: str) -> tuple[dict, bytes]:
    """The header object, held to its version and keys and a seed that is a
    non-negative integer, and the blob after it."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # bad UTF-8 or JSON, too long or too deep
        raise CompatibilityError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CompatibilityError("checkpoint header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CompatibilityError(
            f"checkpoint version {header.get('version')!r} != {CHECKPOINT_VERSION!r}")
    missing = [key for key in ("manifest", "config", "seed") if key not in header]
    if missing:
        raise CompatibilityError(f"checkpoint header lacks {', '.join(missing)}")
    if not (type(header["seed"]) is int and header["seed"] >= 0):
        raise CompatibilityError(f"checkpoint seed {header['seed']!r} is not a non-negative integer")
    if not isinstance(header["manifest"], list):
        raise CompatibilityError("checkpoint manifest is not a list")
    return header, blob


def load_model(path: str) -> tasks.AbsaModel:
    """The float32 model a checkpoint holds. The model is built from the
    header's config; the vocabulary must be a list of vocab_size distinct
    strings, the blob must hold at least the encoder's values before any
    parameter is allocated, the manifest must equal the model's own (every
    parameter's name and shape, in order), the blob must hold exactly those
    values, and every value must be finite once rounded to float32: a finite
    float64 beyond float32's range is rejected. The blob is float64 whatever the model's
    dtype. A checkpoint of a float64 model, which every model was before
    models ran in float32, loads rounded to float32, so its predictions can
    differ slightly from those of the model that was saved."""
    header, blob = _read_checkpoint(path)
    config = header["config"]
    try:
        enc_cfg = enc.EncoderConfig(**typed_values(
            "checkpoint encoder config", config["encoder"], asdict(enc.EncoderConfig())))
        mask_cfg = mk.MaskConfig(**typed_values(
            "checkpoint mask config", config["mask"], asdict(mk.MaskConfig())))
        words = config["vocab"]
        task = config["task"]
        if task not in tasks.TASKS:
            raise ContractError(f"unknown task {task!r}")
    except (KeyError, TypeError, ConfigError, ContractError) as exc:
        raise CompatibilityError(f"checkpoint config unusable: {exc}") from exc
    if not (isinstance(words, list) and all(isinstance(w, str) for w in words)
            and len(set(words)) == len(words) == enc_cfg.vocab_size):
        raise CompatibilityError(f"checkpoint vocab is not a list of vocab_size "
                                 f"({enc_cfg.vocab_size}) distinct strings")
    needed = 8 * enc.param_count(enc_cfg)
    if len(blob) < needed:   # checked before any parameter is allocated
        raise CompatibilityError(f"checkpoint blob holds {len(blob)} bytes, fewer than the {needed} "
                                 f"of its config's encoder ({enc.sizes(enc_cfg)})")
    model = tasks.AbsaModel(task, enc_cfg, mask_cfg, enc.Vocab(words), header["seed"])
    got, expected = header["manifest"], _manifest(model.params)
    if got != expected:
        names = model.params.names()
        got_names = [e.get("name") if isinstance(e, dict) else e for e in got]
        missing = next((n for n in names if n not in got_names), None)
        unexpected = next((n for n in got_names if n not in names), None)
        at = next(i for i in range(max(len(got), len(expected)))
                  if got[i:i + 1] != expected[i:i + 1])
        raise CompatibilityError(
            f"checkpoint manifest does not match the parameters of the {task} {mask_cfg.strategy!r} "
            f"model (first missing: {missing}, first unexpected: {unexpected}): "
            f"entry {at} is {got[at:at + 1]}, the model's {expected[at:at + 1]}")
    sizes = [t.data.size for t in model.params.tensors()]
    if len(blob) != 8 * sum(sizes):
        raise CompatibilityError(
            f"checkpoint blob holds {len(blob)} bytes, its manifest {8 * sum(sizes)}")
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below if not finite
        values = np.frombuffer(blob, dtype="<f8").astype(model.params.dtype)
    for (name, tensor), part in zip(model.params.items(), np.split(values, np.cumsum(sizes)[:-1])):
        if not np.isfinite(part).all():
            raise CompatibilityError(f"parameter {name} holds values that are not finite "
                                     f"in {model.params.dtype}")
        tensor.data = part.reshape(tensor.data.shape)
    return model
