"""One benchmark pass, its correctness checks, and the metrics built from it.

A pass drives only the entry points users call, one after another:
`corpus.read_examples` on the train and held-out JSONL, `training.train`
for one epoch, `training.evaluate` on the whole held-out set, then
`training.evaluate` on one instance at a time. Set-up time and the
evaluation that `train()` runs after its epoch are located from two
boundary spans (`training.batch_loss`, `training.evaluate`); a traced
pass wraps every layer instead.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import sys
import time
import traceback
from collections import Counter

from maskterm import autodiff, corpus, encoder, masking, tasks, training

import spans as sp
from hostspeed import HostSpeed
from workloads import Workload, instance_count

LEARNING_RATE = 1e-3  # at the default 2e-5 one epoch leaves ATE F1 at 0.0
BATCH_SIZE = 32

BIO_CLASSES = set(tasks.BIO_CLASSES)
ASC_CLASSES = set(tasks.ASC_CLASSES)


Interval = tuple[float, float]   # perf_counter start and end


@dataclasses.dataclass
class Pass:
    """One pass: the intervals it timed and what its checks found.

    A pass whose read, train or full-set evaluate raised stops there; it is
    incomplete, times nothing and counts the raise as one failed operation."""

    setup: list[Interval]           # reading both files; train() before its first step
    steps: list[Interval]           # each training step, batch_loss to the next one
    full_eval: Interval             # evaluate() on the whole held-out set
    calls: list[Interval]           # evaluate() on one instance, per instance
    work: list[Interval]            # all of the pass's timed work
    train_instances: int
    eval_instances: int
    train_loss: float
    quality_f1: float
    attempted: int
    failed: int
    problems: list[str]
    complete: bool = True

    @classmethod
    def aborted(cls, attempted: int, problem: str) -> "Pass":
        return cls(setup=[], steps=[], full_eval=(0.0, 0.0), calls=[], work=[],
                   train_instances=0, eval_instances=0, train_loss=math.nan,
                   quality_f1=math.nan, attempted=attempted, failed=1,
                   problems=[problem], complete=False)


# -- wrapping -----------------------------------------------------------------


def install_boundary(rec: sp.SpanRecorder, host: HostSpeed) -> None:
    """The two spans the end-to-end numbers need, one per batch or evaluate
    call, and host-speed probes between training steps."""
    rec.wrap(training, "batch_loss", "training.batch_loss", before=lambda *_: host.maybe_probe())
    rec.wrap(training, "evaluate", "training.evaluate")


def _graph_nodes(loss) -> int:
    """Nodes `autodiff.backward` visits: the loss and every recorded ancestor."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen and (parent._parents or parent.requires_grad):
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _count_graph(rec, args):
    rec.counters["graph_nodes"] += _graph_nodes(args[0])


def _count_batch(host: HostSpeed):
    """Counts steps and instances, and probes the host as untraced passes do."""
    def count(rec, args):
        host.maybe_probe()
        rec.counters["steps"] += 1
        rec.counters["train_instances"] += len(args[2])
    return count


def _count_eval(rec, args):
    rec.counters["eval_instances"] += instance_count(args[1], args[2])


def _count_forward(rec, args):
    rec.counters["forward_calls"] += 1
    if rec.inside("training.batch_loss"):
        rec.counters["train_forwards"] += 1
    elif rec.inside("training.evaluate"):
        rec.counters["eval_forwards"] += 1


def _count_rows(key: str, arg: int):
    """Counts the rows of the tensor passed as positional argument `arg`."""
    def count(rec, args):
        rec.counters[key] += args[arg].data.shape[0]
    return count


def _count_kept(rec, decision, args):
    rec.counters["kept"] += int(decision.kept.sum())
    rec.counters["mask_positions"] += int(decision.kept.size)


def _count_amom(rec, result, args):
    history = result[2]
    rec.counters["amom_rounds"] += len(history)
    rec.counters["amom_masked"] += sum(len(m) for m in history)


def install_layers(rec: sp.SpanRecorder, host: HostSpeed) -> None:
    """Spans around the public functions of every package module but `cli`,
    with the same host-speed probes between training steps as
    `install_boundary`, so traced and untraced passes are scaled alike."""
    rec.wrap(corpus, "read_examples", "corpus.read_examples")
    rec.wrap(training, "train", "training.train")
    rec.wrap(training, "batch_loss", "training.batch_loss", before=_count_batch(host))
    rec.wrap(training, "evaluate", "training.evaluate", before=_count_eval)
    rec.wrap(training.Adam, "step", "training.adam_step")
    rec.wrap(autodiff, "backward", "autodiff.backward", before=_count_graph)
    rec.wrap(autodiff.ParamStore, "l2_sum", "autodiff.l2_sum")
    rec.wrap(tasks.AbsaModel, "forward_ate", "tasks.forward", before=_count_forward)
    rec.wrap(tasks.AbsaModel, "forward_asc", "tasks.forward", before=_count_forward)
    rec.wrap(tasks, "ate_loss", "tasks.ate_loss")
    rec.wrap(encoder, "embed_tokens", "encoder.embed_tokens")
    rec.wrap(encoder, "encode", "encoder.encode", before=_count_rows("encoder_rows", 2))
    rec.wrap(autodiff, "multi_head_attention", "encoder.attention")
    rec.wrap(encoder, "layer_norm", "encoder.layer_norm")
    rec.wrap(autodiff, "gelu", "encoder.gelu")
    rec.wrap(masking, "token_attention", "masking.token_attention")
    rec.wrap(masking, "actm_threshold", "masking.threshold")
    rec.wrap(masking, "fixed_threshold", "masking.threshold")
    rec.wrap(masking, "apply_mask", "masking.apply_mask", after=_count_kept)
    rec.wrap(masking, "aam_remix", "masking.aam_remix", before=_count_rows("aam_rows", 0))
    rec.wrap(masking, "amom_regenerate", "masking.amom_regenerate", after=_count_amom)


# -- correctness ----------------------------------------------------------------


def gold_count(examples, task: str) -> int:
    """Gold labels a report must account for: tokens for ATE, aspects for ASC."""
    if task == "ate":
        return sum(len(ex.bio_tags) for ex in examples)
    return instance_count(examples, task)


def count_table(report: tasks.EvalReport) -> Counter:
    """(class, tp|fp|fn) -> count, the part of `per_class` that adds up."""
    table = Counter()
    for cls, counts in report.per_class.items():
        for key in ("tp", "fp", "fn"):
            table[(cls, key)] += counts[key]
    return table


def report_problems(task: str, report: tasks.EvalReport, examples) -> list[str]:
    """Every prediction is a valid label, and there is one per gold label."""
    problems = []
    valid = BIO_CLASSES if task == "ate" else ASC_CLASSES
    if not set(report.per_class) <= valid:
        problems.append(f"labels outside {sorted(valid)}: {sorted(report.per_class)}")
    table = count_table(report)
    golds = sum(n for (_, key), n in table.items() if key in ("tp", "fn"))
    preds = sum(n for (_, key), n in table.items() if key in ("tp", "fp"))
    expected = gold_count(examples, task)
    if not golds == preds == expected:
        problems.append(f"{preds} predictions and {golds} gold labels for {expected} labels")
    quality = quality_of(report, task)
    if not (math.isfinite(quality) and 0.0 <= quality <= 1.0):
        problems.append(f"quality {quality!r} outside [0, 1]")
    return problems


def quality_of(report: tasks.EvalReport, task: str) -> float:
    """Span F1 for ATE, macro-F1 for ASC."""
    return report.ate["f1"] if task == "ate" else report.asc["macro_f1"]


def one_instance_sets(examples, task: str) -> list[list]:
    """One evaluate() input per instance: a sentence for ATE, a sentence
    reduced to one of its aspects for ASC."""
    if task == "ate":
        return [[ex] for ex in examples]
    return [[dataclasses.replace(ex, aspects=[aspect])] for ex in examples for aspect in ex.aspects]


def evaluate_one_by_one(model, datasets, task: str, host: HostSpeed):
    """(report or None when the call raised, interval) per dataset."""
    results = []
    for dataset in datasets:
        host.maybe_probe()
        started = time.perf_counter()
        try:
            report = training.evaluate(model, dataset, task)
        except Exception:  # a failed call is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            report = None
        results.append((report, (started, time.perf_counter())))
    return results


# -- one pass -----------------------------------------------------------------------


def run_pass(wl: Workload, train_path: str, heldout_path: str, rec: sp.SpanRecorder,
             host: HostSpeed) -> Pass:
    """One closed-loop pass over the workload; `rec` must already be installed.
    Host-speed probes run between timed calls and between training steps;
    `host.busy` takes their time out of the intervals that contain them.
    `train()` raises `NumericError` on a non-finite batch loss, so a raise is
    how a non-finite loss shows here."""
    host.probe()
    attempted = 0
    try:
        started = time.perf_counter()
        attempted += 1
        train_set = corpus.read_examples(train_path)
        attempted += 1
        heldout = corpus.read_examples(heldout_path)
        read_end = time.perf_counter()
        config = training.TrainConfig(
            task=wl.task, epochs=1, batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE,
            mask=masking.MaskConfig(strategy=wl.strategy),
        )

        mark = len(rec.spans)
        train_start = time.perf_counter()
        attempted += 1
        model, log = training.train(config, train_set, heldout)
        train_end = time.perf_counter()
        host.probe()

        eval_start = time.perf_counter()
        attempted += 1
        full = training.evaluate(model, heldout, wl.task)
        full_eval = (eval_start, time.perf_counter())
        host.probe()
    except Exception as exc:  # counted as one failed operation; the pass stops
        traceback.print_exc(file=sys.stderr)
        return Pass.aborted(attempted, f"operation {attempted} of the pass raised {exc!r}")

    # A step runs from one batch_loss call to the next, or to the evaluate()
    # that train() runs after the epoch, which is left out of training time.
    marks = [(s[sp.START], s[sp.NAME]) for s in rec.spans[mark:]
             if s[sp.NAME] in ("training.batch_loss", "training.evaluate")]
    steps = [(start, nxt) for (start, name), (nxt, _) in zip(marks, marks[1:])
             if name == "training.batch_loss"]

    singles = one_instance_sets(heldout, wl.task)
    results = evaluate_one_by_one(model, singles, wl.task, host)
    host.probe()

    problems = []
    failed = 0
    full_problems = report_problems(wl.task, full, heldout)
    summed = Counter()
    singles_failed = 0
    for dataset, (report, _) in zip(singles, results):
        single_problems = (report_problems(wl.task, report, dataset) if report is not None
                           else ["evaluate raised"])
        if single_problems:
            singles_failed += 1
            problems.extend(single_problems)
        else:
            summed.update(count_table(report))
    failed += singles_failed
    if not singles_failed and +summed != +count_table(full):
        full_problems.append("one-instance counts do not add up to the full-set counts")
    if full_problems:
        failed += 1
        problems.extend(full_problems)

    calls = [interval for _, interval in results]
    return Pass(
        setup=[(started, read_end), (train_start, marks[0][0])],
        steps=steps,
        full_eval=full_eval,
        calls=calls,
        work=[(started, train_end), full_eval, *calls],
        train_instances=instance_count(train_set, wl.task),
        eval_instances=instance_count(heldout, wl.task),
        train_loss=log.records[-1]["train_loss"],
        quality_f1=quality_of(full, wl.task),
        attempted=4 + len(singles),  # two reads, train, full evaluate, one-instance calls
        failed=failed,
        problems=problems,
    )


def check_repeatable(passes: list[Pass]) -> None:
    """Same seed, same numbers: a complete pass that differs from the first fails."""
    complete = [r for r in passes if r.complete]
    if not complete:
        return
    first = complete[0]
    for pass_ in complete[1:]:
        if (pass_.train_loss, pass_.quality_f1) != (first.train_loss, first.quality_f1):
            pass_.failed += 1
            pass_.problems.append(
                f"train_loss/quality {pass_.train_loss!r}/{pass_.quality_f1!r} differ from the "
                f"first pass's {first.train_loss!r}/{first.quality_f1!r}")


# -- metrics ----------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, q in 1..99, by `statistics.quantiles` (exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes: list[Pass], length, peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics; `length` turns an interval into seconds.

    Every pass repeats the same steps and the same one-instance calls, so each
    step and each call is first reduced to the median of its repeats; latency
    percentiles are taken over instances of those medians."""
    def total(intervals):
        return sum(length(i) for i in intervals)

    train_s = sum(statistics.median(map(length, step)) for step in zip(*(r.steps for r in passes)))
    latencies = [1e3 * statistics.median(map(length, call))
                 for call in zip(*(r.calls for r in passes))]
    return {
        "setup_s": statistics.median(total(r.setup) for r in passes),
        "train_inst_per_s": passes[0].train_instances / train_s,
        "eval_inst_per_s": statistics.median(r.eval_instances / length(r.full_eval) for r in passes),
        "predict_ms_p50": statistics.median(latencies),
        "predict_ms_p90": percentile(latencies, 90),
        "train_loss": passes[0].train_loss,
        "peak_rss_mb": peak_rss_mb,
    }


def step_durations(rec: sp.SpanRecorder) -> list[float]:
    """Seconds from each batch_loss start to the end of the Adam step after it."""
    durations = []
    step_start = None
    for name, start, end, _ in rec.spans:
        if name == "training.batch_loss":
            step_start = start
        elif name == "training.adam_step" and step_start is not None:
            durations.append(end - step_start)
            step_start = None
    return durations


def per_layer(rec: sp.SpanRecorder, wl: Workload, n_passes: int, scale: float,
              overhead: float) -> dict[str, float]:
    """Per-layer self times and exact counts from the traced passes.

    Forward-side layers are divided by every instance that went through a
    forward (training and evaluation), backward and the training loss by
    training instances, optimizer-side work by steps. Times are multiplied
    by `scale`, the traced passes' host-speed scaling.
    """
    inclusive, own = rec.totals()
    c = rec.counters
    train_inst = c["train_instances"]
    eval_inst = c["eval_instances"]
    inst = train_inst + eval_inst
    steps = c["steps"]

    def ms(name: str, per: int) -> float:
        return 1e3 * scale * own.get(name, 0.0) / per if per else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    amom = wl.strategy == "amom"
    step_ms = [1e3 * scale * d for d in step_durations(rec)]
    train_ids = {i for i, s in enumerate(rec.spans) if s[sp.NAME] == "training.train"}
    epoch_eval = sum(s[sp.END] - s[sp.START] for s in rec.named("training.evaluate")
                     if s[sp.PARENT] in train_ids)
    return {
        "autodiff.backward.ms_per_inst": ms("autodiff.backward", train_inst),
        "autodiff.graph_nodes_per_inst": ratio(c["graph_nodes"], train_inst),
        "autodiff.l2_sum.ms_per_step": ms("autodiff.l2_sum", steps),
        "encoder.embed_tokens.ms_per_inst": ms("encoder.embed_tokens", inst),
        "encoder.encode.self_ms_per_inst": ms("encoder.encode", inst),
        "encoder.attention.ms_per_inst": ms("encoder.attention", inst),
        "encoder.layer_norm.ms_per_inst": ms("encoder.layer_norm", inst),
        "encoder.gelu.ms_per_inst": ms("encoder.gelu", inst),
        "encoder.rows_per_inst": ratio(c["encoder_rows"], inst),
        "masking.token_attention.ms_per_inst": ms("masking.token_attention", inst),
        "masking.threshold.ms_per_inst": ms("masking.threshold", inst),
        "masking.apply_mask.ms_per_inst": ms("masking.apply_mask", inst),
        "masking.kept_ratio": ratio(c["kept"], c["mask_positions"]),
        "masking.aam_remix.self_ms_per_inst": ms("masking.aam_remix", inst),
        "masking.aam_rows_per_inst": ratio(c["aam_rows"], inst),
        "masking.amom_regenerate.self_ms_per_inst": ms("masking.amom_regenerate", train_inst),
        "masking.amom_forwards_per_train_inst":
            ratio(c["train_forwards"], train_inst) if amom else 0.0,
        "masking.amom_forwards_per_eval_inst":
            ratio(c["eval_forwards"], eval_inst) if amom else 0.0,
        "masking.amom_masked_per_round": ratio(c["amom_masked"], c["amom_rounds"]),
        "tasks.forward.self_ms_per_call": ms("tasks.forward", c["forward_calls"]),
        "tasks.forward_calls_per_inst": ratio(c["forward_calls"], inst),
        "tasks.ate_loss.ms_per_inst": ms("tasks.ate_loss", train_inst),
        "training.batch_loss.ms_per_step": ms("training.batch_loss", steps),
        "training.adam_step.ms_per_step": ms("training.adam_step", steps),
        "training.step_ms_p50": statistics.median(step_ms),
        "training.step_ms_p90": percentile(step_ms, 90),
        "training.evaluate.ms_per_inst": ms("training.evaluate", eval_inst),
        "training.epoch_eval_share":
            ratio(epoch_eval, inclusive.get("training.train", 0.0)),
        "corpus.read_examples.ms": ms("corpus.read_examples", n_passes),
        "trace_overhead_frac": overhead,
    }
