"""Command-line surface: ingest, synth, train, eval, and mask-demo."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import autodiff as ad, corpus, encoder as enc, masking as mk, tasks, training
from .exceptions import (
    CompatibilityError,
    ConfigError,
    CorpusParseError,
    EmptyInputError,
    MasktermError,
    NumericError,
)

# The flat config keys: every TrainConfig field but the mask and encoder
# records, then every MaskConfig field, `strategy` named `mask_strategy`.
# Unknown keys are rejected; the `encoder` block maps onto EncoderConfig.
_TRAIN_FIELDS = {f.name: f for f in fields(training.TrainConfig)
                 if f.name not in ("mask", "encoder")}
_MASK_FIELDS = {("mask_strategy" if f.name == "strategy" else f.name): f
                for f in fields(mk.MaskConfig)}
CONFIG_DEFAULTS = {key: f.default for key, f in {**_TRAIN_FIELDS, **_MASK_FIELDS}.items()}


def config_from_dict(raw: dict) -> training.TrainConfig:
    """Build a TrainConfig from the JSON document, rejecting unknown keys and
    values of the wrong type."""
    data = dict(raw)
    encoder_raw = data.pop("encoder", {})
    values = training.typed_values("config", data, CONFIG_DEFAULTS)
    if isinstance(encoder_raw, dict) and "vocab_size" in encoder_raw:
        raise ConfigError("encoder.vocab_size is set by training from its vocabulary")
    enc_values = training.typed_values("encoder config", encoder_raw, asdict(enc.EncoderConfig()))
    mask_cfg = mk.MaskConfig(**{f.name: values[key] for key, f in _MASK_FIELDS.items()})
    return training.TrainConfig(**{key: values[key] for key in _TRAIN_FIELDS},
                                mask=mask_cfg, encoder=enc.EncoderConfig(**enc_values))


def load_config(path: str | None) -> training.TrainConfig:
    if path is None:
        return config_from_dict({})
    with open(path, "rb") as fh:
        try:
            raw = json.loads(fh.read())
        except ValueError as exc:   # bad JSON or bad UTF-8
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict(raw)


# -- subcommands -----------------------------------------------------------------


def cmd_ingest(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    entries, summary = corpus.parse_semeval_xml(data, args.schema)
    examples = []
    for text, aspects in entries:
        if not text.strip():
            continue
        examples.append(corpus.make_example(text, aspects))
    corpus.write_examples(args.out, examples)
    print("Reviews\tPositive\tNegative\tNeutral")
    counts = summary.aspect_counts
    print(f"{summary.review_count}\t{counts['positive']}\t{counts['negative']}\t{counts['neutral']}")
    if summary.skipped:
        print(f"skipped\t{summary.skipped}")
    return 0


def cmd_synth(args) -> int:
    examples = corpus.synth_corpus(seed=args.seed, size=args.size)
    corpus.write_examples(args.out, examples)
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    if args.task:
        config = replace(config, task=args.task)
    train_set = corpus.read_examples(args.data)
    eval_set = corpus.read_examples(args.eval) if args.eval else train_set
    model, log = training.train(config, train_set, eval_set)
    if args.ckpt_out:
        training.save_model(args.ckpt_out, model)
    if args.runlog_out:
        with open(args.runlog_out, "w", encoding="utf-8") as fh:
            fh.write(log.to_ldjson())
    print(log.final_report.to_json())
    return 0


def cmd_eval(args) -> int:
    model = training.load_model(args.ckpt)
    if args.task and args.task != model.task:
        raise CompatibilityError(
            f"checkpoint was trained for task {model.task!r}, not {args.task!r}"
        )
    dataset = corpus.read_examples(args.data)
    report = training.evaluate(model, dataset, model.task)
    print(report.to_json())
    return 0


def read_scores_tsv(path: str) -> tuple[list[str], np.ndarray]:
    tokens: list[str] = []
    values: list[float] = []
    for lineno, line in corpus.utf8_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise CorpusParseError(
                f"scores file needs 'token<TAB>value' rows, got {len(cols)} columns",
                line=lineno, column=1)
        try:
            value = float(cols[1])
        except ValueError as exc:
            raise CorpusParseError(f"bad attention value {cols[1]!r}", line=lineno, column=2) from exc
        if not math.isfinite(value):
            raise CorpusParseError(f"attention value {cols[1]!r} is not finite",
                                   line=lineno, column=2)
        values.append(value)
        tokens.append(cols[0])
    if not tokens:
        raise EmptyInputError("scores file contains no rows")
    return tokens, np.asarray(values)


def cmd_mask_demo(args) -> int:
    if args.alpha is not None and not math.isfinite(args.alpha):
        raise ConfigError(f"--alpha must be a finite number, got {args.alpha!r}")
    if args.scores:
        tokens, attn = read_scores_tsv(args.scores)
        protected, decision = None, None
        alpha = args.alpha if args.alpha is not None else 1.0
        aggregator = args.aggregator or mk.MaskConfig.aggregator
    else:
        model = training.load_model(args.ckpt)
        if model.task != "ate":
            raise CompatibilityError(
                f"mask-demo --sentence needs an ATE checkpoint; this one was trained for "
                f"task {model.task!r}")
        example = corpus.make_example(args.sentence, [])
        inp = enc.pack_inputs(model.vocab, [example])
        with ad.no_grad():   # the trace reads only the decision
            _, _, decision = model.encode_and_mask(inp)
        if decision is None:
            raise CompatibilityError(
                f"checkpoint's {model.mask_cfg.strategy!r} strategy produces no threshold trace"
            )
        tokens = ["[CLS]"] + example.tokens + ["[SEP]"]
        attn, protected, alpha = decision.attn, inp.protected, args.alpha
        aggregator = args.aggregator or model.mask_cfg.aggregator
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is refused below
        total = attn.sum()
        if alpha is not None:   # recut with alpha times the aggregate, no relevance term
            # A float64 alpha keeps the recut of a float32 model's attention in float64.
            tau, _ = mk.actm_threshold(attn, np.float64(alpha), aggregator)
    if not np.isfinite(total):
        raise CorpusParseError("the attention scores overflow to a non-finite total")
    if alpha is not None:
        if not np.isfinite(tau).all():
            raise ConfigError(f"alpha {alpha} times the {aggregator} of the attention scores "
                              "overflows to a non-finite threshold")
        decision = mk.apply_mask(attn, tau, protected=protected)
    sys.stdout.write(mk.format_mask_trace(tokens, decision))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskterm",
        description="Adaptive attention-masking toolkit for aspect term extraction "
                    "and aspect sentiment classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse review XML into line-delimited JSON examples")
    p.add_argument("--input", required=True, help="path to the XML file")
    p.add_argument("--schema", required=True, choices=corpus.SCHEMAS,
                   help="sem14: aspectTerm elements; sem16: Opinion targets (2015/16 layout)")
    p.add_argument("--out", required=True, help="output .jsonl path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate the deterministic synthetic corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and report final metrics")
    p.add_argument("--task", choices=tasks.TASKS, help="overrides the config's task")
    p.add_argument("--config", help="JSON config path (defaults apply when omitted)")
    p.add_argument("--data", required=True, help="training examples (.jsonl)")
    p.add_argument("--eval", help="evaluation examples (.jsonl); defaults to --data")
    p.add_argument("--ckpt-out", help="write the final checkpoint here")
    p.add_argument("--runlog-out", help="write the per-epoch run log here (.jsonl)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=tasks.TASKS, help="must match the checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mask-demo", help="print a token/attention/threshold mask trace")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scores", help="TSV of token<TAB>attention rows, used verbatim")
    source.add_argument("--sentence", help="sentence to run through a trained checkpoint")
    p.add_argument("--ckpt", help="checkpoint path (required with --sentence)")
    p.add_argument("--aggregator", choices=mk.AGGREGATOR_KINDS, default=None,
                   help="threshold aggregate (default: mean with --scores, as trained with "
                        "--sentence)")
    p.add_argument("--alpha", type=float, default=None,
                   help="threshold weight (default: 1.0 with --scores, as trained with --sentence)")
    p.set_defaults(func=cmd_mask_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "mask-demo" and args.sentence is not None and not args.ckpt:
        parser.error("--sentence requires --ckpt")
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (MasktermError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
