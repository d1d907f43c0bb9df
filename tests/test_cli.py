import hashlib
import json
import re

import numpy as np
import pytest

from maskterm import autodiff as ad
from maskterm import cli, corpus, tasks, training
from maskterm import encoder as enc
from maskterm import masking as mk
from maskterm.exceptions import CompatibilityError, ConfigError, CorpusParseError, NumericError

from fixtures import SEM14_FIXTURE, SEM16_FIXTURE, MALFORMED_FIXTURE

TABLE_ROWS = [("the", 0.0460), ("steak", 0.1082), ("was", 0.0561), ("incredibly", 0.0867),
              ("tender", 0.0775), ("and", 0.0323), ("flavor", 0.0265), ("ful", 0.0319),
              (",", 0.0275), ("but", 0.0977), ("service", 0.0794), ("quite", 0.0413),
              ("slow", 0.0648), (".", 0.0493)]


@pytest.fixture()
def scores_file(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("".join(f"{t}\t{v}\n" for t, v in TABLE_ROWS), encoding="utf-8")
    return str(path)


def parse_trace(output: str):
    lines = output.strip().split("\n")
    rows = [line.split("\t") for line in lines[1:-2]]
    total = float(lines[-2].split("\t")[1])
    mean = float(lines[-1].split("\t")[1])
    return rows, total, mean


# sha256 prefixes of `mask-demo --scores` output over TABLE_ROWS, per
# aggregator and --alpha (None: the default), recorded when the recut ran on
# autodiff tensors with a dummy state matrix.
DEMO_DIGESTS = {
    ("mean", None): "a4fc88bbd73fbf59",
    ("mean", "0"): "7a9140858a59b4ec",
    ("mean", "2.0"): "13de958b501982f9",
    ("median", None): "92167584d831f454",
    ("median", "0"): "7a9140858a59b4ec",
    ("median", "2.0"): "3d3ba6ca222d26b1",
    ("sd", None): "03b31b5c09c94f0a",
    ("sd", "0"): "7a9140858a59b4ec",
    ("sd", "2.0"): "aa647a27112ef4c1",
}


class TestMaskDemo:
    def test_table_replay(self, scores_file, capsys):
        assert cli.main(["mask-demo", "--scores", scores_file,
                         "--aggregator", "mean", "--alpha", "1.0"]) == 0
        rows, total, mean = parse_trace(capsys.readouterr().out)
        assert total == pytest.approx(0.8252, abs=5e-4)
        assert mean == pytest.approx(0.0590, abs=1e-4)
        kept = {r[0] for r in rows if r[3] == "yes"}
        assert kept == {"steak", "incredibly", "tender", "but", "service", "slow"}

    @pytest.mark.parametrize("aggregator,alpha", list(DEMO_DIGESTS))
    def test_scores_output_unchanged(self, scores_file, capsys, aggregator, alpha):
        argv = ["mask-demo", "--scores", scores_file, "--aggregator", aggregator]
        assert cli.main(argv + ([] if alpha is None else ["--alpha", alpha])) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == DEMO_DIGESTS[(aggregator, alpha)]

    def test_alpha_zero_keeps_all(self, scores_file, capsys):
        assert cli.main(["mask-demo", "--scores", scores_file, "--alpha", "0"]) == 0
        rows, _, _ = parse_trace(capsys.readouterr().out)
        assert all(r[3] == "yes" for r in rows)

    def test_alpha_two_fallback_keeps_steak(self, scores_file, capsys):
        assert cli.main(["mask-demo", "--scores", scores_file, "--alpha", "2.0"]) == 0
        rows, _, _ = parse_trace(capsys.readouterr().out)
        kept = [r[0] for r in rows if r[3] == "yes"]
        assert kept == ["steak"]

    def test_malformed_scores_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("just-one-column\n", encoding="utf-8")
        assert cli.main(["mask-demo", "--scores", str(bad)]) == 2

    @pytest.mark.parametrize("rows,extra", [
        ("a\t1e308\nb\t1e308\n", []),
        ("a\t1e308\nb\t1e308\n", ["--aggregator", "median"]),
        ("a\t2\nb\t2\n", ["--alpha", "1e308"]),
        ("a\t1e200\nb\t-1e200\n", ["--aggregator", "sd"]),
    ], ids=["total", "total-median", "alpha", "sd-threshold"])
    def test_overflowing_total_or_threshold_exit_2(self, tmp_path, capsys, rows, extra):
        """Finite scores or alpha whose total or threshold overflows are
        refused before any row is printed, without a RuntimeWarning (an error
        under pytest). The first file printed `total inf` and kept one of two
        equal scores."""
        path = tmp_path / "big.tsv"
        path.write_text(rows, encoding="utf-8")
        assert cli.main(["mask-demo", "--scores", str(path)] + extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and "non-finite" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_score_rejected(self, tmp_path, value):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"the\t0.1\nfood\t{value}\n", encoding="utf-8")
        with pytest.raises(CorpusParseError) as exc:
            cli.read_scores_tsv(str(bad))
        assert (exc.value.line, exc.value.column) == (2, 2)
        assert cli.main(["mask-demo", "--scores", str(bad)]) == 2

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_alpha_rejected(self, scores_file, capsys, alpha):
        """A non-finite alpha would print nan or inf thresholds for every token."""
        assert cli.main(["mask-demo", "--scores", scores_file, f"--alpha={alpha}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --alpha") and err.count("\n") == 1

    def test_sentence_requires_ckpt(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["mask-demo", "--sentence", "the steak was great."])
        assert exc.value.code == 2

    def test_empty_sentence_requires_ckpt(self, capsys):
        """An empty sentence is refused as any other; it once reached the
        checkpoint reader and ended in a TypeError."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["mask-demo", "--sentence", ""])
        assert exc.value.code == 2
        assert "--sentence requires --ckpt" in capsys.readouterr().err


class TestIngest:
    def test_sem14_fixture(self, tmp_path, capsys):
        src = tmp_path / "reviews.xml"
        src.write_text(SEM14_FIXTURE, encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert cli.main(["ingest", "--input", str(src), "--schema", "sem14",
                         "--out", str(out)]) == 0
        printed = capsys.readouterr().out.strip().split("\n")
        assert printed[0] == "Reviews\tPositive\tNegative\tNeutral"
        assert printed[1] == "2\t2\t1\t0"
        examples = corpus.read_examples(str(out))
        assert len(examples) == 2
        for ex in examples:
            ex.validate()

    def test_sem16_fixture(self, tmp_path, capsys):
        src = tmp_path / "reviews.xml"
        src.write_text(SEM16_FIXTURE, encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert cli.main(["ingest", "--input", str(src), "--schema", "sem16",
                         "--out", str(out)]) == 0
        printed = capsys.readouterr().out.strip().split("\n")
        assert printed[1] == "2\t1\t1\t1"

    def test_malformed_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.xml"
        src.write_text(MALFORMED_FIXTURE, encoding="utf-8")
        assert cli.main(["ingest", "--input", str(src), "--schema", "sem14",
                         "--out", str(tmp_path / "o.jsonl")]) == 2

    @pytest.mark.parametrize("text", ["<text></text>", "<text/>", "<text> </text>"])
    def test_blank_text_is_skipped(self, tmp_path, capsys, text):
        """Empty and whitespace-only sentences are skipped alike; an empty
        <text> once stopped ingest with exit 2."""
        src = tmp_path / "blank.xml"
        src.write_text(f"<sentences><sentence id='1'>{text}</sentence>"
                       "<sentence id='2'><text>the steak was great</text></sentence></sentences>",
                       encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert cli.main(["ingest", "--input", str(src), "--schema", "sem14",
                         "--out", str(out)]) == 0
        assert [ex.text for ex in corpus.read_examples(str(out))] == ["the steak was great"]

    def test_empty_sentences_ok(self, tmp_path, capsys):
        src = tmp_path / "empty.xml"
        src.write_text("<sentences></sentences>", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert cli.main(["ingest", "--input", str(src), "--schema", "sem14",
                         "--out", str(out)]) == 0
        assert corpus.read_examples(str(out)) == []


class TestSynth:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cli.main(["synth", "--seed", "7", "--size", "40", "--out", str(a)]) == 0
        assert cli.main(["synth", "--seed", "7", "--size", "40", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_row_count_and_valid_bio(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        assert cli.main(["synth", "--seed", "1", "--size", "120", "--out", str(out)]) == 0
        examples = corpus.read_examples(str(out))
        assert len(examples) == 120
        for ex in examples:
            ex.validate()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_train")
    data = tmp / "train.jsonl"
    cli.main(["synth", "--seed", "3", "--size", "40", "--out", str(data)])
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({
        "epochs": 2, "batch_size": 16, "seed": 1, "mask_strategy": "actm",
        "encoder": {"d_w": 8, "d_p": 2, "hidden": 16, "n_layers": 1,
                    "n_heads": 2, "d_ff": 24},
    }), encoding="utf-8")
    ckpt = tmp / "model.ckpt"
    runlog = tmp / "runlog.jsonl"
    return data, cfg, ckpt, runlog


class TestTrainEval:
    def test_train_writes_artifacts_and_metrics(self, trained, capsys):
        data, cfg, ckpt, runlog = trained
        assert cli.main(["train", "--task", "ate", "--config", str(cfg),
                         "--data", str(data), "--ckpt-out", str(ckpt),
                         "--runlog-out", str(runlog)]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(report) == {"ate", "asc", "per_class"}
        records = [json.loads(line) for line in runlog.read_text().splitlines()]
        assert [r["epoch"] for r in records] == [0, 1]

    def test_eval_matches_train_output(self, trained, capsys):
        data, cfg, ckpt, _ = trained
        assert cli.main(["train", "--task", "ate", "--config", str(cfg),
                         "--data", str(data), "--ckpt-out", str(ckpt)]) == 0
        train_report = capsys.readouterr().out.strip().splitlines()[-1]
        assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
        eval_report = capsys.readouterr().out.strip()
        assert json.loads(train_report) == json.loads(eval_report)

    def test_train_evaluates_the_final_model_once(self, trained, tmp_path, capsys, monkeypatch):
        """`train` evaluates after its last epoch; the command prints that report."""
        data, cfg, _, _ = trained
        one_epoch = tmp_path / "cfg.json"
        one_epoch.write_text(json.dumps(dict(json.loads(cfg.read_text()), epochs=1)))
        reports = []
        evaluate = training.evaluate

        def counted(*args):
            reports.append(evaluate(*args))
            return reports[-1]

        monkeypatch.setattr(training, "evaluate", counted)
        assert cli.main(["train", "--task", "ate", "--config", str(one_epoch),
                         "--data", str(data)]) == 0
        assert len(reports) == 1
        assert capsys.readouterr().out == reports[0].to_json() + "\n"

    def test_eval_task_mismatch_exit_2(self, trained, capsys):
        data, cfg, ckpt, _ = trained
        cli.main(["train", "--task", "ate", "--config", str(cfg),
                  "--data", str(data), "--ckpt-out", str(ckpt)])
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                         "--task", "asc"]) == 2

    def test_mask_demo_from_checkpoint(self, trained, capsys):
        data, cfg, ckpt, _ = trained
        cli.main(["train", "--task", "ate", "--config", str(cfg),
                  "--data", str(data), "--ckpt-out", str(ckpt)])
        capsys.readouterr()
        assert cli.main(["mask-demo", "--sentence", "the steak was great.",
                         "--ckpt", str(ckpt)]) == 0
        rows, total, _ = parse_trace(capsys.readouterr().out)
        assert rows[0][0] == "[CLS]" and rows[-1][0] == "[SEP]"
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mask_demo_records_no_graph(self, trained, capsys, monkeypatch):
        data, cfg, ckpt, _ = trained
        cli.main(["train", "--task", "ate", "--config", str(cfg),
                  "--data", str(data), "--ckpt-out", str(ckpt)])
        capsys.readouterr()
        recording = []
        inner = tasks.AbsaModel.encode_and_mask

        def logged(self, *args, **kwargs):
            recording.append(ad.grad_enabled())
            return inner(self, *args, **kwargs)

        monkeypatch.setattr(tasks.AbsaModel, "encode_and_mask", logged)
        assert cli.main(["mask-demo", "--sentence", "the steak was great.",
                         "--ckpt", str(ckpt)]) == 0
        assert recording == [False]
        assert parse_trace(capsys.readouterr().out)[0][0][0] == "[CLS]"

    def test_mask_demo_recuts_with_the_checkpoints_aggregator(self, trained, tmp_path, capsys):
        """`--alpha` without `--aggregator` recuts a median checkpoint's
        attention with the median, not the mean."""
        data, cfg, _, _ = trained
        median_cfg = tmp_path / "median.json"
        median_cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), aggregator="median")))
        ckpt = tmp_path / "median.ckpt"
        assert cli.main(["train", "--task", "ate", "--config", str(median_cfg),
                         "--data", str(data), "--ckpt-out", str(ckpt)]) == 0
        capsys.readouterr()
        demo = ["mask-demo", "--sentence", "the steak was great but the service was slow .",
                "--ckpt", str(ckpt), "--alpha", "1.0"]
        traces = {}
        for extra in ([], ["--aggregator", "median"], ["--aggregator", "mean"]):
            assert cli.main(demo + extra) == 0
            traces[tuple(extra)] = capsys.readouterr().out
        assert traces[()] == traces[("--aggregator", "median")]
        kept = {extra: [r[3] for r in parse_trace(out)[0]] for extra, out in traces.items()}
        # the second "the" sits between the two cuts: kept by the median, masked by the mean
        assert kept[()][6] == "yes" and kept[("--aggregator", "mean")][6] == "no"

    def test_same_seed_same_metrics(self, trained, capsys):
        data, cfg, _, _ = trained
        assert cli.main(["train", "--task", "ate", "--config", str(cfg), "--data", str(data)]) == 0
        first = capsys.readouterr().out
        assert cli.main(["train", "--task", "ate", "--config", str(cfg), "--data", str(data)]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"bogus": 1}', encoding="utf-8")
        data = tmp_path / "d.jsonl"
        cli.main(["synth", "--seed", "1", "--size", "4", "--out", str(data)])
        capsys.readouterr()
        assert cli.main(["train", "--task", "ate", "--config", str(cfg),
                         "--data", str(data)]) == 2

    def test_unknown_encoder_key_rejected(self):
        from maskterm.exceptions import ConfigError
        with pytest.raises(ConfigError):
            cli.config_from_dict({"encoder": {"bogus": 3}})

    def test_encoder_vocab_size_rejected(self, tmp_path, capsys):
        """Training sets vocab_size from its vocabulary; a config may not."""
        with pytest.raises(ConfigError, match="vocab_size"):
            cli.config_from_dict({"encoder": {"vocab_size": 99999}})
        cfg = tmp_path / "vocab.json"
        cfg.write_text('{"encoder": {"vocab_size": 99999}}', encoding="utf-8")
        data = tmp_path / "d.jsonl"
        cli.main(["synth", "--seed", "1", "--size", "4", "--out", str(data)])
        capsys.readouterr()
        assert cli.main(["train", "--task", "ate", "--config", str(cfg),
                         "--data", str(data)]) == 2
        assert "vocab_size" in capsys.readouterr().err

    def test_defaults_match_documented_values(self):
        cfg = cli.config_from_dict({})
        assert cfg.epochs == 50
        assert cfg.batch_size == 32
        assert cfg.learning_rate == pytest.approx(2e-5)
        assert cfg.l2_lambda == pytest.approx(0.01)
        assert cfg.mask.aggregator == "mean"
        assert cfg.encoder.dropout_rate == pytest.approx(0.1)
        assert cfg.encoder.layernorm_eps == pytest.approx(1e-12)

    def test_empty_config_gives_the_train_config_defaults(self):
        assert cli.config_from_dict({}) == training.TrainConfig()

    @pytest.mark.parametrize("raw", [
        {"learnable": "false"}, {"learnable": 0},
        {"epochs": 1.9}, {"amom_iterations": 2.7}, {"epochs": True}, {"epochs": "3"},
        {"learning_rate": True}, {"learning_rate": "0.1"}, {"learning_rate": float("nan")},
        {"l2_lambda": 10 ** 400}, {"alpha_init": False},
        {"mask_strategy": 3}, {"encoder": {"hidden": 16.5}}, {"encoder": [1]},
    ], ids=lambda raw: repr(raw)[:40])
    def test_value_of_the_wrong_type_rejected(self, raw):
        with pytest.raises(ConfigError):
            cli.config_from_dict(raw)

    def test_values_of_their_type_accepted(self):
        cfg = cli.config_from_dict({"learnable": False, "epochs": 3.0, "learning_rate": 1,
                                    "alpha_init": None, "beta_init": 2,
                                    "encoder": {"dropout_rate": 0}})
        assert cfg.mask.learnable is False and cfg.mask.alpha_init is None
        assert type(cfg.epochs) is int and cfg.epochs == 3
        assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
        assert type(cfg.mask.beta_init) is float and type(cfg.encoder.dropout_rate) is float

    @pytest.mark.parametrize("encoder", [{"n_heads": 0}, {"hidden": -4}, {"n_layers": 0}])
    def test_encoder_sizes_checked(self, encoder):
        with pytest.raises(ConfigError):
            cli.config_from_dict({"encoder": encoder})

    def test_missing_required_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train"])
        assert exc.value.code == 2

    def test_help_exits_zero_everywhere(self, capsys):
        for argv in (["--help"], ["ingest", "--help"], ["synth", "--help"],
                     ["train", "--help"], ["eval", "--help"], ["mask-demo", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out

    def test_numeric_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "d.jsonl"
        cli.main(["synth", "--seed", "1", "--size", "4", "--out", str(data)])
        capsys.readouterr()

        def boom(*args, **kwargs):
            raise NumericError("synthetic blow-up")

        monkeypatch.setattr(training, "train", boom)
        assert cli.main(["train", "--task", "ate", "--data", str(data)]) == 3


class TestInputErrors:
    """Bad files exit 2 with one `error:` line, never a traceback."""

    @staticmethod
    def exits_2(argv, capsys):
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @staticmethod
    def trained_ate(trained, tmp_path):
        """(data, checkpoint path, header object, blob) of an ATE model trained
        on the `trained` data and config."""
        data, cfg, _, _ = trained
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", "--task", "ate", "--config", str(cfg), "--data", str(data),
                         "--ckpt-out", str(ckpt)]) == 0
        header, _, blob = ckpt.read_bytes().partition(b"\n")
        return data, ckpt, json.loads(header), blob

    @staticmethod
    def blob_offset(doc, name):
        """Byte offset of parameter `name` in a checkpoint blob."""
        offset = 0
        for entry in doc["manifest"]:
            if entry["name"] == name:
                return offset
            offset += 8 * int(np.prod(entry["shape"]))
        raise KeyError(name)

    def test_checkpoint_is_a_directory(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        cli.main(["synth", "--seed", "1", "--size", "4", "--out", str(data)])
        self.exits_2(["eval", "--ckpt", str(tmp_path), "--data", str(data)], capsys)

    def test_too_long_evaluation_example_fails_before_training(self, trained, tmp_path,
                                                                capsys, monkeypatch):
        data, cfg, _, _ = trained
        words = ["good"] * 200
        long = corpus.make_example("steak " + " ".join(words),
                                   [corpus.AspectAnnotation("steak", 0, 5, "positive")])
        evalset = tmp_path / "eval.jsonl"
        corpus.write_examples(str(evalset), corpus.synth_corpus(seed=2, size=4) + [long])
        steps = []
        monkeypatch.setattr(training, "batch_loss", lambda *args, **kwargs: steps.append(1))
        for task in ("ate", "asc"):
            err = self.exits_2(["train", "--task", task, "--config", str(cfg), "--data", str(data),
                                "--eval", str(evalset)], capsys)
            assert "evaluation example 4" in err and "max_len 128" in err
        assert steps == []

    def test_empty_evaluation_set(self, trained, tmp_path, capsys):
        data, cfg, _, _ = trained
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", "--task", "ate", "--config", str(cfg), "--data", str(data),
                         "--ckpt-out", str(ckpt)]) == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(empty)], capsys)

    def test_checkpoint_header_without_manifest(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        cli.main(["synth", "--seed", "1", "--size", "4", "--out", str(data)])
        ckpt = tmp_path / "partial.ckpt"
        ckpt.write_bytes(b'{"version": "ckpt_v1"}\n')
        self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)

    @pytest.mark.parametrize("block,key,value", [
        ("mask", "amom_iterations", 2.5),
        ("mask", "learnable", 1),
        ("mask", "fixed_tau", "0.05"),
        ("encoder", "hidden", 16.5),
        ("encoder", "dropout_rate", None),
    ])
    def test_checkpoint_value_of_the_wrong_type(self, trained, tmp_path, capsys, block, key, value):
        data, cfg, _, _ = trained
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", "--task", "ate", "--config", str(cfg), "--data", str(data),
                         "--ckpt-out", str(ckpt)]) == 0
        header, _, blob = ckpt.read_bytes().partition(b"\n")
        doc = json.loads(header)
        doc["config"][block][key] = value
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
        with pytest.raises(CompatibilityError):
            training.load_model(str(ckpt))
        self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)

    def test_mask_demo_sentence_on_an_asc_checkpoint(self, trained, tmp_path, capsys):
        data, cfg, _, _ = trained
        ckpt = tmp_path / "asc.ckpt"
        assert cli.main(["train", "--task", "asc", "--config", str(cfg), "--data", str(data),
                         "--ckpt-out", str(ckpt)]) == 0
        err = self.exits_2(["mask-demo", "--sentence", "the steak was great.",
                            "--ckpt", str(ckpt)], capsys)
        assert "task 'asc'" in err

    def small_checkpoint(self, tmp_path, task, **config):
        """(data, checkpoint path, header object, blob) of a one-epoch model
        with a small encoder and the given config keys."""
        data = tmp_path / "d.jsonl"
        cli.main(["synth", "--seed", "1", "--size", "8", "--out", str(data)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, **config,
                                   "encoder": {"d_w": 8, "d_p": 2, "hidden": 8, "n_layers": 1,
                                               "n_heads": 2, "d_ff": 8}}), encoding="utf-8")
        ckpt = tmp_path / "model.ckpt"
        assert cli.main(["train", "--task", task, "--config", str(cfg), "--data", str(data),
                         "--ckpt-out", str(ckpt)]) == 0
        header, _, blob = ckpt.read_bytes().partition(b"\n")
        return data, ckpt, json.loads(header), blob

    def with_parameter(self, ckpt, doc, blob, name, before, values):
        """Rewrites the checkpoint with parameter `name` put in front of `before`."""
        offset = self.blob_offset(doc, before)
        k = [entry["name"] for entry in doc["manifest"]].index(before)
        doc["manifest"].insert(k, {"name": name, "shape": list(np.shape(values))})
        blob = blob[:offset] + np.asarray(values, "<f8").tobytes() + blob[offset:]
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)

    def test_frozen_weight_moved_in_the_checkpoint(self, tmp_path, capsys):
        """Constant-weight ACTM holds alpha as the constant 1, not a parameter;
        a checkpoint that carries it, moved to 0.7, is refused by name."""
        data, ckpt, doc, blob = self.small_checkpoint(tmp_path, "ate", mask_strategy="actm",
                                                      learnable=False)
        assert "mask.alpha" not in [entry["name"] for entry in doc["manifest"]]
        self.with_parameter(ckpt, doc, blob, "mask.alpha", "head.ate.W", 0.7)
        with pytest.raises(CompatibilityError, match="first unexpected: mask.alpha"):
            training.load_model(str(ckpt))
        err = self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert "first missing: None, first unexpected: mask.alpha" in err

    def test_checkpoint_with_an_amom_scoring_weight(self, tmp_path, capsys):
        """AMOM ASC checkpoints used to carry a scoring weight mask.w_a that
        never trained; such a checkpoint is refused by name."""
        data, ckpt, doc, blob = self.small_checkpoint(tmp_path, "asc", mask_strategy="amom")
        self.with_parameter(ckpt, doc, blob, "mask.w_a", "head.asc.W", np.zeros(8))
        err = self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert "'amom' model (first missing: None, first unexpected: mask.w_a)" in err

    def test_negative_seed_in_the_config(self, trained, tmp_path, capsys):
        data, _, _, _ = trained
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "seed": -1}), encoding="utf-8")
        err = self.exits_2(["train", "--config", str(cfg), "--data", str(data)], capsys)
        assert "seed" in err

    def test_negative_synth_seed(self, tmp_path, capsys):
        err = self.exits_2(["synth", "--seed", "-1", "--size", "4",
                            "--out", str(tmp_path / "d.jsonl")], capsys)
        assert "seed" in err

    def test_dropout_rate_that_rounds_to_every_lane(self, trained, tmp_path, capsys):
        """Dropout applies the rate as round(rate * 65536) / 65536; this one
        would drop every unit and scale the kept ones by 1 / 0."""
        data, _, _, _ = trained
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "encoder": {"dropout_rate": 0.9999999}}),
                       encoding="utf-8")
        err = self.exits_2(["train", "--task", "ate", "--config", str(cfg), "--data", str(data)],
                           capsys)
        assert "dropout_rate" in err

    @pytest.mark.parametrize("key", ["alpha_init", "gamma_init", "beta_init", "aam_span_init",
                                     "fixed_tau"])
    def test_mask_value_not_finite_in_float32(self, tmp_path, capsys, key):
        """1e300 once trained, with RuntimeWarnings, into a checkpoint that
        `eval` refused for a parameter that is not finite in float32, or
        (fixed_tau) cut at inf. A JSON config and a checkpoint header that
        hold it both exit 2 now, naming the key."""
        data, ckpt, doc, blob = self.small_checkpoint(tmp_path, "asc")
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"epochs": 1, key: 1e300}), encoding="utf-8")
        message = f"{key} 1e+300 is not finite in float32"
        err = self.exits_2(["train", "--task", "asc", "--config", str(cfg), "--data", str(data)],
                           capsys)
        assert message in err
        doc["config"]["mask"][key] = 1e300
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
        assert message in self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert getattr(mk.MaskConfig(**{key: 3.4e38}), key) == 3.4e38   # finite in float32

    @pytest.mark.parametrize("config,label", [
        ({"encoder": {"layernorm_eps": 1e300}}, "layernorm_eps 1e+300"),
        ({"mask_strategy": "aam", "aam_ramp": 1e300}, "aam_ramp 1e+300"),
        ({"mask_strategy": "aam", "aam_ramp": 1e-40}, "1 / aam_ramp 1e+40"),
        ({"learning_rate": 1e300}, "learning_rate 1e+300"),
        ({"l2_lambda": 1e300}, "l2_lambda 1e+300"),
    ], ids=["layernorm_eps", "aam_ramp", "aam_ramp-reciprocal", "learning_rate", "l2_lambda"])
    def test_config_value_that_overflows_float32(self, tmp_path, capsys, config, label):
        """On 20 synthetic ASC sentences these once trained silently or ended
        in exit 3: an eps of 1e300 zeroed every normalised row and exited 0
        with a model that predicts from the layer-norm biases alone, a ramp
        of 1e300 or 1e-40 (whose reciprocal overflows) left a parameter or
        the loss non-finite, and 1e300 as learning rate or L2 weight
        overflowed Adam's step."""
        data = tmp_path / "d.jsonl"
        cli.main(["synth", "--seed", "1", "--size", "4", "--out", str(data)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, **config}), encoding="utf-8")
        err = self.exits_2(["train", "--task", "asc", "--config", str(cfg), "--data", str(data)],
                           capsys)
        assert f"{label} is not finite in float32" in err

    @pytest.mark.parametrize("task", ["xyz", 5, None])
    def test_checkpoint_with_an_unknown_task(self, tmp_path, capsys, task):
        """An unknown task is refused with the rest of the config, as a
        CompatibilityError; it once escaped as the model's ContractError."""
        data, ckpt, doc, blob = self.small_checkpoint(tmp_path, "ate")
        doc["config"]["task"] = task
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
        with pytest.raises(CompatibilityError, match="^" + re.escape(
                f"checkpoint config unusable: unknown task {task!r}") + "$"):
            training.load_model(str(ckpt))
        err = self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert "unknown task" in err

    @pytest.mark.parametrize("block,key,value,label", [
        ("encoder", "layernorm_eps", 1e300, "layernorm_eps 1e+300"),
        ("mask", "aam_ramp", 1e-40, "1 / aam_ramp 1e+40"),
    ], ids=["encoder", "mask"])
    def test_checkpoint_value_that_overflows_float32(self, tmp_path, capsys, block, key, value,
                                                     label):
        data, ckpt, doc, blob = self.small_checkpoint(tmp_path, "asc")
        doc["config"][block][key] = value
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
        with pytest.raises(CompatibilityError,
                           match="^" + re.escape(f"checkpoint config unusable: {label} ")):
            training.load_model(str(ckpt))
        err = self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert f"{label} is not finite in float32" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # the step overflows on purpose
    def test_an_epoch_that_ends_with_a_non_finite_parameter_exit_3(self, tmp_path, capsys):
        """A learning rate finite in float32 can still step a parameter past
        float32's range: at 1e38, a gradient whose square underflows to 0 in
        Adam's second moment takes a step of lr * g / eps. Such an epoch once
        ended with a train that exited 0, printed the broken model's metrics
        and wrote a checkpoint that `eval` refused."""
        data = tmp_path / "d.jsonl"
        cli.main(["synth", "--seed", "1", "--size", "20", "--out", str(data)])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "learning_rate": 1e38,
                                   "encoder": {"d_w": 8, "d_p": 2, "hidden": 8, "n_layers": 1,
                                               "n_heads": 2, "d_ff": 8}}), encoding="utf-8")
        ckpt = tmp_path / "model.ckpt"
        capsys.readouterr()
        assert cli.main(["train", "--task", "ate", "--config", str(cfg), "--data", str(data),
                         "--ckpt-out", str(ckpt)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "numeric failure: parameter head.ate.W is not finite after epoch 0\n"
        assert not captured.out and not ckpt.exists()

    @pytest.mark.parametrize("key", ["d_w", "hidden", "d_ff"])
    def test_encoder_size_too_large_to_allocate(self, trained, tmp_path, capsys, key):
        """numpy refuses these arrays at once."""
        data, _, _, _ = trained
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 1, "encoder": {key: 2**40}}), encoding="utf-8")
        err = self.exits_2(["train", "--task", "ate", "--config", str(cfg), "--data", str(data)],
                           capsys)
        assert f"{key} {2**40}" in err

    @pytest.mark.parametrize("key,value", [("d_w", 2**40), ("hidden", 2**40), ("d_ff", 2**40),
                                           ("n_layers", 10**9)])
    def test_checkpoint_encoder_beyond_its_blob(self, tmp_path, capsys, monkeypatch, key, value):
        """Refused before any parameter is allocated: a billion layers would
        be allocated one after another until memory runs out."""
        data, ckpt, doc, blob = self.small_checkpoint(tmp_path, "ate")
        doc["config"]["encoder"][key] = value
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)

        def no_allocation(*args, **kwargs):
            raise AssertionError("encoder parameters allocated")

        monkeypatch.setattr(enc, "init_encoder_params", no_allocation)
        with pytest.raises(CompatibilityError, match="blob"):
            training.load_model(str(ckpt))
        err = self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert f"{key} {value}" in err

    @pytest.mark.parametrize("seed", [-1, True])
    def test_checkpoint_seed_is_a_non_negative_integer(self, trained, tmp_path, capsys, seed):
        """-1 would fail in the model's random generator and `true` load as 1."""
        data, ckpt, doc, blob = self.trained_ate(trained, tmp_path)
        doc["seed"] = seed
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
        err = self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert "seed" in err

    @pytest.mark.parametrize("case", ["repeated", "swapped", "transposed"])
    def test_checkpoint_manifest_entry_differs_from_the_model(self, tmp_path, capsys, case):
        """A manifest that repeats, swaps or reshapes a parameter is refused,
        and the message names the first entry that differs from the model's.
        The repeated entry comes with its own bytes, all 7.0."""
        data, ckpt, doc, blob = self.small_checkpoint(tmp_path, "ate")
        manifest = doc["manifest"]
        if case == "repeated":
            at = 1
            self.with_parameter(ckpt, doc, blob, "emb.word", "emb.word",
                                np.full(manifest[0]["shape"], 7.0))
        else:
            if case == "swapped":   # enc.L0.Wq and enc.L0.Wk, of one shape
                at = 4
                manifest[4], manifest[5] = manifest[5], manifest[4]
            else:
                at = 0
                manifest[0]["shape"].reverse()
            ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
        err = self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert f"entry {at} is [{manifest[at]}]" in err

    @pytest.mark.parametrize("edit", [
        lambda config: config["encoder"].update(vocab_size=-10),
        lambda config: config["vocab"].extend(f"extra{i}" for i in range(40)),
        lambda config: config["vocab"].__setitem__(1, config["vocab"][0]),
    ], ids=["negative-size", "longer-list", "repeated-word"])
    def test_checkpoint_vocab_is_vocab_size_distinct_words(self, trained, tmp_path, capsys, edit):
        """A negative size would fail in the embedding allocation, a list
        longer than the size would give word ids past the embedding table,
        and a repeated word would silently move a word to another row."""
        data, ckpt, doc, blob = self.trained_ate(trained, tmp_path)
        edit(doc["config"])
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
        with pytest.raises(CompatibilityError, match="vocab"):
            training.load_model(str(ckpt))
        self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)

    def test_non_finite_parameter_in_the_checkpoint(self, trained, tmp_path, capsys):
        """A NaN head bias would tag every token B and still print metrics."""
        data, ckpt, doc, blob = self.trained_ate(trained, tmp_path)
        offset = self.blob_offset(doc, "head.ate.b")
        blob = blob[:offset] + np.array([np.nan], "<f8").tobytes() + blob[offset + 8:]
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
        with pytest.raises(CompatibilityError, match="head.ate.b"):
            training.load_model(str(ckpt))
        self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)

    def test_parameter_beyond_the_float32_range(self, trained, tmp_path, capsys):
        """A finite 1e300 is inf once rounded to float32, the dtype models run in."""
        data, ckpt, doc, blob = self.trained_ate(trained, tmp_path)
        offset = self.blob_offset(doc, "head.ate.b") + 8
        blob = blob[:offset] + np.array([1e300], "<f8").tobytes() + blob[offset + 8:]
        ckpt.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
        with pytest.raises(CompatibilityError, match="head.ate.b"):
            training.load_model(str(ckpt))
        err = self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert "parameter head.ate.b" in err

    def test_checkpoint_with_dependency_columns(self, tmp_path, capsys):
        """Checkpoints written when every input row carried 24 dependency
        columns have `d_D` in the encoder config and a (64, 64) default
        in_proj.W; the version tag did not change, and `d_D` names the cause."""
        data = tmp_path / "d.jsonl"
        cli.main(["synth", "--seed", "1", "--size", "4", "--out", str(data)])
        vocab = enc.Vocab.build(corpus.read_examples(str(data)))
        model = tasks.AbsaModel("ate", enc.EncoderConfig(vocab_size=len(vocab.words)),
                                mk.MaskConfig(), vocab, 0)
        ckpt = tmp_path / "old.ckpt"
        training.save_model(str(ckpt), model)
        header, _, blob = ckpt.read_bytes().partition(b"\n")
        doc = json.loads(header)
        doc["config"]["encoder"]["d_D"] = 24
        entry = next(e for e in doc["manifest"] if e["name"] == "enc.in_proj.W")
        assert entry["shape"] == [40, 64]
        entry["shape"] = [64, 64]
        end = self.blob_offset(doc, "enc.in_proj.W") + 40 * 64 * 8
        blob = blob[:end] + bytes(24 * 64 * 8) + blob[end:]
        ckpt.write_bytes(json.dumps(doc, sort_keys=True).encode("utf-8") + b"\n" + blob)
        assert doc["version"] == training.CHECKPOINT_VERSION == "ckpt_v1"
        err = self.exits_2(["eval", "--ckpt", str(ckpt), "--data", str(data)], capsys)
        assert "d_D" in err

    def test_truncated_data_line(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        cli.main(["synth", "--seed", "1", "--size", "4", "--out", str(data)])
        lines = data.read_text(encoding="utf-8").splitlines()
        data.write_text("\n".join(lines[:-1] + [lines[-1][:40]]) + "\n", encoding="utf-8")
        self.exits_2(["train", "--task", "ate", "--data", str(data)], capsys)
