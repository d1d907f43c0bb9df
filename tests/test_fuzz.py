"""Seeded fuzz of every input read from outside: truncated, bit-flipped and
key-dropped variants of a valid file either load a valid object or raise a
MasktermError, which the CLI turns into exit 2 with one `error:` line."""

import json
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from maskterm import cli, corpus, encoder as enc, tasks, training
from maskterm.exceptions import MasktermError

from fixtures import SEM14_FIXTURE, SEM16_FIXTURE

SEED = 1729
CASES = 100   # per format and mutation
TINY = enc.EncoderConfig(d_w=4, d_p=2, hidden=8, n_layers=1, n_heads=2, d_ff=8)


# -- mutations: each takes the valid bytes and a generator ------------------------------


def truncate(data, rng):
    return data[:int(rng.integers(len(data)))]


def flip_bits(data, rng):
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
    return bytes(out)


def flip_high_bits(data, rng):
    """Flips 1-3 bits of the sign and top exponent byte of little-endian
    float64 values, where one flip can turn a value in [1, 2) into inf or NaN."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        out[8 * int(rng.integers(len(out) // 8)) + 7] ^= 1 << int(rng.integers(8))
    return bytes(out)


def drop_json_key(doc, rng):
    """Deletes one key, picked among every object nested in `doc`."""
    holders = []

    def walk(node):
        if isinstance(node, dict):
            holders.extend((node, key) for key in node)
            children = node.values()
        elif isinstance(node, list):
            children = node
        else:
            return
        for child in children:
            walk(child)

    walk(doc)
    holder, key = holders[int(rng.integers(len(holders)))]
    del holder[key]
    return doc


def drop_jsonl_key(data, rng):
    lines = data.decode().splitlines()
    b = int(rng.integers(len(lines)))
    lines[b] = json.dumps(drop_json_key(json.loads(lines[b]), rng))
    return "\n".join(lines).encode() + b"\n"


def drop_tsv_column(data, rng):
    lines = data.decode().split("\n")
    rows = [i for i, line in enumerate(lines) if "\t" in line]
    i = rows[int(rng.integers(len(rows)))]
    cols = lines[i].split("\t")
    del cols[int(rng.integers(len(cols)))]
    lines[i] = "\t".join(cols)
    return "\n".join(lines).encode()


def drop_xml_attribute(data, rng):
    spans = [m.span() for m in re.finditer(rb' \w+="[^"]*"', data)]
    lo, hi = spans[int(rng.integers(len(spans)))]
    return data[:lo] + data[hi:]


def drop_object_key(data, rng):
    return json.dumps(drop_json_key(json.loads(data), rng)).encode()


def on_header(mutate):
    """`mutate` applied to the checkpoint's JSON header line only."""
    def apply(data, rng):
        header, blob = data.split(b"\n", 1)
        return mutate(header, rng) + b"\n" + blob
    return apply


def on_blob(mutate):
    """`mutate` applied to the checkpoint's parameter blob only."""
    def apply(data, rng):
        header, blob = data.split(b"\n", 1)
        return header + b"\n" + mutate(blob, rng)
    return apply


# -- valid inputs and what a valid load is -------------------------------------------


def examples_file():
    path = "examples.jsonl"

    def make(tmp_path):
        corpus.write_examples(str(tmp_path / path), corpus.synth_corpus(seed=3, size=3))
        return (tmp_path / path).read_bytes()

    def check(ex_list):
        assert all(isinstance(ex, corpus.TokenizedExample) for ex in ex_list)
        for ex in ex_list:
            ex.validate()
    return make, corpus.read_examples, check


def config_file():
    doc = {"epochs": 2, "batch_size": 16, "learning_rate": 0.001, "seed": 1,
           "mask_strategy": "amom", "learnable": False, "amom_iterations": 2,
           "alpha_init": 0.5, "encoder": {"d_w": 8, "hidden": 16, "n_heads": 2}}

    def check(cfg):
        defaults = {**cli.CONFIG_DEFAULTS, **asdict(enc.EncoderConfig())}
        values = {**{f.name: getattr(cfg, f.name) for f in fields(cfg)},
                  **{("mask_strategy" if f.name == "strategy" else f.name): getattr(cfg.mask, f.name)
                     for f in fields(cfg.mask)},
                  **asdict(cfg.encoder)}
        for key, default in defaults.items():
            kinds = (float, type(None)) if default is None else (type(default),)
            assert type(values[key]) in kinds, key
    return lambda tmp_path: json.dumps(doc).encode(), cli.load_config, check


def checkpoint_file():
    def make(tmp_path):
        data = corpus.synth_corpus(seed=3, size=2)
        vocab = enc.Vocab.build(data)
        model = tasks.AbsaModel("asc", replace(TINY, vocab_size=len(vocab.words)),
                                training.mk.MaskConfig(), vocab, 0)
        training.save_model(str(tmp_path / "m.ckpt"), model)
        return (tmp_path / "m.ckpt").read_bytes()

    def check(model):
        assert isinstance(model, tasks.AbsaModel)
        assert all(np.isfinite(t.data).all() for t in model.params.tensors())
    return make, training.load_model, check


def scores_file():
    rows = [("the", 0.046), ("steak", 0.1082), ("was", 0.0561), ("tender", 0.0775), (".", 0.0493)]

    def check(result):
        tokens, values = result
        assert len(tokens) == len(values) >= 1 and np.isfinite(values).all()
    return (lambda tmp_path: "".join(f"{t}\t{v}\n" for t, v in rows).encode(),
            cli.read_scores_tsv, check)


def xml_file(fixture, schema):
    def load(path):
        with open(path, "rb") as fh:
            entries, _ = corpus.parse_semeval_xml(fh.read(), schema)
        return [corpus.make_example(text, aspects) for text, aspects in entries if text.strip()]

    def check(examples):
        for ex in examples:
            ex.validate()
    return lambda tmp_path: fixture.encode(), load, check


PLAIN = (truncate, flip_bits)
FORMATS = {
    "jsonl": (examples_file(), PLAIN + (drop_jsonl_key,)),
    "config": (config_file(), PLAIN + (drop_object_key,)),
    "checkpoint": (checkpoint_file(), tuple(map(on_header, PLAIN + (drop_object_key,)))
                   + (on_blob(flip_high_bits),)),
    "scores": (scores_file(), PLAIN + (drop_tsv_column,)),
    "sem14": (xml_file(SEM14_FIXTURE, "sem14"), PLAIN + (drop_xml_attribute,)),
    "sem16": (xml_file(SEM16_FIXTURE, "sem16"), PLAIN + (drop_xml_attribute,)),
}


@pytest.mark.parametrize("name", list(FORMATS))
def test_mutated_input_loads_or_raises_typed_error(name, tmp_path):
    (make, load, check), mutations = FORMATS[name]
    valid = make(tmp_path)
    path = tmp_path / f"fuzzed-{name}"
    path.write_bytes(valid)
    check(load(str(path)))
    rng = np.random.default_rng([SEED, list(FORMATS).index(name)])
    rejected = 0
    for mutate in mutations:
        for _ in range(CASES):
            path.write_bytes(mutate(valid, rng))
            try:
                result = load(str(path))
            except MasktermError:
                rejected += 1
                continue
            check(result)
    assert rejected > 0


def test_cli_turns_a_rejected_input_into_one_error_line(tmp_path, capsys):
    """One mutated file per CLI entry point that reads it."""
    rng = np.random.default_rng(SEED)
    data = tmp_path / "d.jsonl"
    corpus.write_examples(str(data), corpus.synth_corpus(seed=3, size=3))
    valid_ckpt = checkpoint_file()[0](tmp_path)   # also written to m.ckpt
    bad = tmp_path / "bad"
    runs = [
        (examples_file()[0](tmp_path), ["eval", "--ckpt", str(tmp_path / "m.ckpt"), "--data", str(bad)]),
        (valid_ckpt, ["eval", "--ckpt", str(bad), "--data", str(data)]),
        (config_file()[0](tmp_path), ["train", "--config", str(bad), "--data", str(data)]),
        (scores_file()[0](tmp_path), ["mask-demo", "--scores", str(bad)]),
        (SEM14_FIXTURE.encode(), ["ingest", "--input", str(bad), "--schema", "sem14",
                                  "--out", str(tmp_path / "out.jsonl")]),
    ]
    for valid, argv in runs:
        rejected = 0
        while rejected < 3:
            bad.write_bytes(truncate(valid, rng))
            capsys.readouterr()
            code = cli.main(argv)
            err = capsys.readouterr().err
            if code == 0:
                continue
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            rejected += 1
