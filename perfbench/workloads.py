"""Benchmark workloads: what each one runs and how its inputs are made from a seed.

Every input comes from `corpus.synth_corpus`, so the same seed always gives
the same JSONL files. The three workloads stress different layers:

- ate-actm-short: ATE with ACTM thresholding on ~9-token sentences. One
  small autodiff graph per sentence, so per-example graph overhead rules.
- asc-amom-short: ASC with AMOM on the same kind of sentences. Several
  forwards per instance and an L2 graph per step, which ATE bypasses.
- asc-aam-long: ASC with AAM on ~53-token reviews of 6 joined sentences.
  The per-row loop of `aam_remix` rules; per-example overhead is small.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from maskterm import corpus, training
from maskterm.corpus import AspectAnnotation, TokenizedExample


@dataclass(frozen=True)
class Workload:
    name: str
    task: str                       # "ate" | "asc"
    strategy: str                   # masking strategy of the model
    train_size: int                 # training inputs (sentences or reviews)
    heldout_size: int               # held-out inputs
    sentences_per_input: int = 1    # > 1 joins synthetic sentences into reviews


# Passes are kept short (a few seconds) so that a run repeats each one many
# times. Held-out sets give at least 100 single-instance latency samples, so
# the p90 has ten samples beyond it: 256 sentences, ~120 aspect instances of
# 80 sentences, and ~117 aspect instances of 13 reviews.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ate-actm-short", "ate", "actm", train_size=512, heldout_size=256),
        Workload("asc-amom-short", "asc", "amom", train_size=128, heldout_size=80),
        Workload("asc-aam-long", "asc", "aam", train_size=16, heldout_size=13,
                 sentences_per_input=6),
    )
}


def join_review(sentences: list[TokenizedExample]) -> TokenizedExample:
    """One review made of several sentences, aspect offsets shifted to match."""
    parts: list[str] = []
    aspects: list[AspectAnnotation] = []
    cursor = 0
    for sent in sentences:
        if parts:
            cursor += 1  # the joining space
        for a in sent.aspects:
            aspects.append(AspectAnnotation(a.term, a.char_from + cursor, a.char_to + cursor,
                                            a.polarity))
        parts.append(sent.text)
        cursor += len(sent.text)
    return corpus.make_example(" ".join(parts), aspects)


def make_inputs(wl: Workload, seed: int):
    """(train, held-out) examples for one seed."""
    n_train, n_held = wl.train_size, wl.heldout_size
    k = wl.sentences_per_input
    sentences = corpus.synth_corpus(seed, (n_train + n_held) * k)
    if k == 1:
        examples = sentences
    else:
        examples = [join_review(sentences[i:i + k]) for i in range(0, len(sentences), k)]
    return examples[:n_train], examples[n_train:]


def instance_count(examples: list[TokenizedExample], task: str) -> int:
    """Training or evaluation instances: sentences for ATE, aspects for ASC."""
    return len(examples) if task == "ate" else len(training.asc_instances(examples))


def input_properties(wl: Workload, train: list[TokenizedExample],
                     heldout: list[TokenizedExample]) -> dict:
    """Measured properties of one seed's inputs, as recorded with the baseline."""
    everything = train + heldout
    return {
        "mean_tokens_per_input": statistics.fmean(len(ex) for ex in everything),
        "aspects_per_input": statistics.fmean(len(ex.aspects) for ex in everything),
        "train_inputs": len(train),
        "heldout_inputs": len(heldout),
        "train_instances": instance_count(train, wl.task),
        "heldout_instances": instance_count(heldout, wl.task),
    }
