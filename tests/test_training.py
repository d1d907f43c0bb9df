import dataclasses
import hashlib
import json

import numpy as np
import pytest

import gradcheck as gc
from maskterm import autodiff as ad
from maskterm import corpus
from maskterm import encoder as enc
from maskterm import masking as mk
from maskterm import tasks
from maskterm import training
from maskterm.autodiff import Tensor
from maskterm.exceptions import CompatibilityError, ContractError, LengthError, NumericError

SMALL_ENCODER = enc.EncoderConfig(d_w=8, d_p=2, hidden=16, n_layers=1,
                                  n_heads=2, d_ff=24)


def small_config(task="ate", strategy="actm", epochs=2, seed=5):
    return training.TrainConfig(
        task=task, epochs=epochs, batch_size=16, seed=seed,
        mask=mk.MaskConfig(strategy=strategy), encoder=SMALL_ENCODER,
    )


@pytest.fixture(scope="module")
def data():
    return corpus.synth_corpus(seed=11, size=48), corpus.synth_corpus(seed=12, size=16)


def edit_header(path, edit) -> None:
    """Applies `edit` to the JSON header object of the checkpoint at `path`."""
    header, _, blob = path.read_bytes().partition(b"\n")
    doc = json.loads(header)
    edit(doc)
    path.write_bytes(json.dumps(doc, sort_keys=True).encode("utf-8") + b"\n" + blob)


def strip_wall_time(log: training.RunLog) -> list[dict]:
    return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in log.records]


class TestConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(ContractError):
            training.TrainConfig(epochs=0)

    def test_bad_lr(self):
        with pytest.raises(ContractError):
            training.TrainConfig(learning_rate=0.0)

    def test_bad_task(self):
        with pytest.raises(ContractError):
            training.TrainConfig(task="qa")


class TestTrainLoop:
    def test_empty_dataset_rejected(self, data):
        with pytest.raises(ContractError):
            training.train(small_config(), [], [])

    @pytest.mark.parametrize("task", ["ate", "asc"])
    def test_empty_evaluation_set_rejected_before_training(self, data, task, monkeypatch):
        train_set, _ = data
        monkeypatch.setattr(training, "batch_loss", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ContractError):
            training.train(small_config(task=task), train_set[:8], [])

    def test_asc_requires_aspects(self):
        bare = [corpus.make_example("nothing to see here", [])]
        with pytest.raises(ContractError):
            training.train(small_config(task="asc"), bare, bare)

    def test_runlog_one_record_per_epoch(self, data):
        train_set, eval_set = data
        _, log = training.train(small_config(epochs=3), train_set, eval_set)
        assert [r["epoch"] for r in log.records] == [0, 1, 2]
        for r in log.records:
            assert {"epoch", "train_loss", "eval", "wall_time_s", "param_norm"} <= set(r)

    def test_determinism_same_seed(self, data, tmp_path):
        train_set, eval_set = data
        m1, l1 = training.train(small_config(seed=9), train_set, eval_set)
        m2, l2 = training.train(small_config(seed=9), train_set, eval_set)
        assert m1.params.dtype == np.float32
        for name in m1.params.names():
            assert np.array_equal(m1.params[name].data, m2.params[name].data)
        assert strip_wall_time(l1) == strip_wall_time(l2)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        training.save_model(str(a), m1)
        training.save_model(str(b), m2)
        assert a.read_bytes() == b.read_bytes()

    def test_l2_shrinks_weights(self, data):
        train_set, eval_set = data
        cfg_plain = training.TrainConfig(task="asc", epochs=2, batch_size=16, seed=3,
                                         l2_lambda=0.0, mask=mk.MaskConfig(strategy="none"),
                                         encoder=SMALL_ENCODER)
        cfg_reg = training.TrainConfig(task="asc", epochs=2, batch_size=16, seed=3,
                                       l2_lambda=0.01, mask=mk.MaskConfig(strategy="none"),
                                       encoder=SMALL_ENCODER)
        m_plain, _ = training.train(cfg_plain, train_set, eval_set)
        m_reg, _ = training.train(cfg_reg, train_set, eval_set)
        norm = lambda m: float(sum((t.data ** 2).sum() for t in m.params.tensors()))
        assert norm(m_reg) < norm(m_plain)

    def test_non_finite_loss_aborts(self, data, monkeypatch):
        train_set, eval_set = data
        monkeypatch.setattr(training, "batch_loss",
                            lambda *a, **kw: Tensor(float("nan")))
        with pytest.raises(NumericError, match="epoch 0"):
            training.train(small_config(), train_set, eval_set)

    def test_amom_strategy_trains(self, data):
        train_set, eval_set = data
        cfg = small_config(strategy="amom", epochs=1)
        _, log = training.train(cfg, train_set[:16], eval_set[:8])
        assert len(log.records) == 1

    def test_constant_weight_mode_pins_alpha(self, data):
        """Constant-weight ACTM holds alpha as a constant, not a parameter."""
        train_set, eval_set = data
        cfg = training.TrainConfig(
            task="ate", epochs=2, batch_size=16, seed=4,
            mask=mk.MaskConfig(strategy="actm", learnable=False),
            encoder=SMALL_ENCODER)
        model, _ = training.train(cfg, train_set, eval_set)
        assert "mask.alpha" not in model.params
        assert float(model.actm_weights["alpha"].data) == 1.0

    @pytest.mark.parametrize("task", ["ate", "asc"])
    def test_l2_term_logged_apart(self, data, task, monkeypatch):
        """`l2_term` is the batch-weighted mean of (lambda/2) * ||theta||^2 at
        each batch's parameters, 0 for ATE; `train_loss` includes it."""
        train_set, eval_set = data
        seen = []
        original = training.batch_loss

        def spy(model, config, batch, rng):
            seen.append((len(batch), model.params.l2_sum() * config.l2_lambda / 2.0))
            return original(model, config, batch, rng)

        monkeypatch.setattr(training, "batch_loss", spy)
        _, log = training.train(small_config(task=task, epochs=1), train_set[:20], eval_set[:4])
        record = log.records[0]
        if task == "ate":
            assert record["l2_term"] == 0.0
        else:
            expected = sum(n * term for n, term in seen) / sum(n for n, _ in seen)
            assert len(seen) > 1 and record["l2_term"] == pytest.approx(expected, rel=1e-12)
            assert 0.0 < record["l2_term"] < record["train_loss"]

    @pytest.mark.parametrize("strategy", mk.MaskConfig.STRATEGIES)
    @pytest.mark.parametrize("task", ["ate", "asc"])
    def test_every_parameter_gets_a_loss_gradient(self, data, task, strategy):
        """No parameter sits in the store that the loss does not reach."""
        train_set, _ = data
        config = small_config(task=task, strategy=strategy)
        vocab = enc.Vocab.build(train_set)
        encoder = dataclasses.replace(SMALL_ENCODER, vocab_size=len(vocab.words))
        model = tasks.AbsaModel(task, encoder, config.mask, vocab, config.seed)
        batch = train_set[:4] if task == "ate" else training.asc_instances(train_set[:4])
        grads = ad.backward(training.batch_loss(model, config, batch, np.random.default_rng(0)))
        assert [n for n, t in model.params.items() if t not in grads] == []


class TestAdam:
    def test_l2_gradient_matches_the_graph_l2(self, data):
        """After one step, the gradient Adam used (m / (1 - beta1)) is that of a
        graph of the cross-entropy plus (lambda/2) * ||theta||^2."""
        train_set, _ = data
        config = small_config(task="asc")
        vocab = enc.Vocab.build(train_set)
        encoder = dataclasses.replace(SMALL_ENCODER, vocab_size=len(vocab.words))
        model = tasks.AbsaModel("asc", encoder, config.mask, vocab, config.seed, np.float64)
        batch = training.asc_instances(train_set[:6])
        lam = config.l2_lambda

        loss = training.batch_loss(model, config, batch)
        l2 = [gc.scale(gc.dot(t, t), lam / 2.0) for t in model.params.tensors()]
        grads = ad.backward(gc.tsum(loss, *l2))
        expected = {name: grads[t] for name, t in model.params.items()}

        grads = ad.backward(training.batch_loss(model, config, batch))
        optimizer = training.Adam(model.params, 1e-3, lam)
        optimizer.step(grads)
        for name, grad in expected.items():
            used = optimizer.m[name] / (1.0 - training.ADAM_BETA1)
            assert np.abs(used - grad).max() <= 1e-12 * np.abs(grad).max(), name

    def test_moments_are_updated_in_place(self):
        params = ad.ParamStore(np.float32)
        theta = params.add("theta", [3.0, -2.0])
        optimizer = training.Adam(params, 0.1)
        m, v = optimizer.m["theta"], optimizer.v["theta"]
        for g in ([0.5, -0.25], [0.125, 1.0]):
            g = np.array(g, dtype=np.float32)
            want_m = training.ADAM_BETA1 * m + (1 - training.ADAM_BETA1) * g
            want_v = training.ADAM_BETA2 * v + (1 - training.ADAM_BETA2) * g * g
            optimizer.step({theta: g})
            assert optimizer.m["theta"] is m and optimizer.v["theta"] is v
            assert m.tobytes() == want_m.tobytes() and v.tobytes() == want_v.tobytes()

    def test_parameter_without_loss_gradient_decays_alone(self):
        params = ad.ParamStore()
        theta = params.add("theta", [3.0, -2.0])
        training.Adam(params, 0.1).step({})
        assert theta.data.tolist() == [3.0, -2.0]
        training.Adam(params, 0.1, l2=0.01).step({})
        assert np.allclose(theta.data, [2.9, -1.9], atol=1e-6)


class TestEvaluate:
    def test_deterministic(self, data):
        train_set, eval_set = data
        model, _ = training.train(small_config(), train_set, eval_set)
        a = training.evaluate(model, eval_set, "ate")
        b = training.evaluate(model, eval_set, "ate")
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("task", ["ate", "asc"])
    def test_empty_evaluation_set_rejected(self, data, task):
        train_set, eval_set = data
        model, _ = training.train(small_config(task=task, epochs=1), train_set[:8], eval_set[:8])
        with pytest.raises(ContractError):
            training.evaluate(model, [], task)

    @pytest.mark.parametrize("task,other", [("ate", "asc"), ("asc", "ate")])
    def test_other_task_rejected(self, data, task, other):
        train_set, eval_set = data
        model, _ = training.train(small_config(task=task, strategy="aam", epochs=1),
                                  train_set[:8], eval_set[:8])
        with pytest.raises(ContractError, match=f"{task} model"):
            training.evaluate(model, eval_set, other)

    def test_oracle_predictions_score_one(self, data, monkeypatch):
        train_set, eval_set = data
        model, _ = training.train(small_config(epochs=1), train_set[:8], eval_set[:8])
        gold = {id(ex): ex.bio_tags for ex in eval_set}
        monkeypatch.setattr(tasks.AbsaModel, "predict_bio",
                            lambda self, batch: [list(ex.bio_tags) for ex in batch])
        report = training.evaluate(model, eval_set, "ate")
        assert report.ate == {"p": 1.0, "r": 1.0, "f1": 1.0}

    def test_majority_stub_accuracy_matches_histogram(self, data, monkeypatch):
        train_set, _ = data
        # 50/25/25 polarity split, majority-class stub -> accuracy 0.5
        examples = []
        for i, pol in enumerate(["positive", "positive", "negative", "neutral"] * 5):
            noun = corpus.ASPECT_NOUNS[i % len(corpus.ASPECT_NOUNS)]
            text = f"the {noun} was fine"
            examples.append(corpus.make_example(
                text, [corpus.AspectAnnotation(noun, 4, 4 + len(noun), pol)]))
        model, _ = training.train(small_config(task="asc", epochs=1), train_set[:8], examples)
        monkeypatch.setattr(tasks.AbsaModel, "predict_polarity",
                            lambda self, batch: ["positive"] * len(batch))
        report = training.evaluate(model, examples, "asc")
        assert report.asc["acc"] == pytest.approx(0.5)


def long_example(tokens: int) -> corpus.TokenizedExample:
    """A sentence of `tokens` tokens whose one aspect is its first token."""
    return corpus.make_example("steak " + " ".join(["good"] * (tokens - 1)),
                               [corpus.AspectAnnotation("steak", 0, 5, "positive")])


class TestLengthsCheckedFirst:
    """An instance that packs more than max_len rows fails `train` before its
    first step and `evaluate` before its first chunk, wherever it sits. ASC
    appends the aspect and a [SEP] to the sentence, so a sentence 3 tokens
    short of max_len with a one-token aspect is too long for ASC alone."""

    MAX_LEN = 24
    CASES = [("ate", "sentence"), ("asc", "sentence"), ("asc", "aspect")]

    def planted(self, task, cause):
        """Synthetic data that fits, with the too-long example last."""
        data = corpus.synth_corpus(seed=4, size=8)
        ex = long_example(self.MAX_LEN - (1 if cause == "sentence" else 3))
        if cause == "sentence":
            assert enc.packed_length(ex) == self.MAX_LEN + 1
        else:
            assert enc.packed_length(ex) < self.MAX_LEN < enc.packed_length(ex, 0)
        return data, data + [ex]

    def config(self, task):
        encoder = dataclasses.replace(SMALL_ENCODER, max_len=self.MAX_LEN)
        return dataclasses.replace(small_config(task), encoder=encoder)

    @pytest.mark.parametrize("role", ["training", "evaluation"])
    @pytest.mark.parametrize("task,cause", CASES)
    def test_train_fails_before_the_first_step(self, task, cause, role, monkeypatch):
        fits, planted = self.planted(task, cause)
        steps = []
        monkeypatch.setattr(training, "batch_loss", lambda *args, **kwargs: steps.append(1))
        train_set, eval_set = (planted, fits) if role == "training" else (fits, planted)
        with pytest.raises(LengthError, match=f"^{role} example {len(fits)}\\b"):
            training.train(self.config(task), train_set, eval_set)
        assert steps == []

    @pytest.mark.parametrize("task,cause", CASES)
    def test_evaluate_fails_before_the_first_chunk(self, task, cause, monkeypatch):
        fits, planted = self.planted(task, cause)
        config = self.config(task)
        vocab = enc.Vocab.build(fits)
        model = tasks.AbsaModel(task, dataclasses.replace(config.encoder,
                                                          vocab_size=len(vocab.words)),
                                config.mask, vocab, 0)
        chunks = []
        for name in ("predict_bio", "predict_polarity"):
            monkeypatch.setattr(model, name, lambda items: chunks.append(items))
        with pytest.raises(LengthError, match=f"^evaluation example {len(fits)}\\b"):
            training.evaluate(model, planted, task)
        assert chunks == []

    @pytest.mark.parametrize("aspect", [None, 0, 1])
    def test_packed_length_is_the_packed_layout(self, aspect):
        ex = next(ex for ex in corpus.synth_corpus(seed=4, size=8) if len(ex.aspects) >= 2)
        vocab = enc.Vocab.build([ex])
        inp = enc.pack_inputs(vocab, [ex], None if aspect is None else [aspect])
        assert enc.packed_length(ex, aspect) == len(inp.token_ids) == inp.lengths[0]


class TestCheckpointRoundTrip:
    def test_save_load_evaluate_bit_exact(self, data, tmp_path):
        train_set, eval_set = data
        model, _ = training.train(small_config(epochs=1), train_set, eval_set)
        before = training.evaluate(model, eval_set, "ate").to_json()
        path = tmp_path / "model.ckpt"
        training.save_model(str(path), model)
        loaded = training.load_model(str(path))
        for name in model.params.names():
            assert np.array_equal(loaded.params[name].data, model.params[name].data)
        after = training.evaluate(loaded, eval_set, "ate").to_json()
        assert before == after

    def test_checkpoint_with_a_dropout_seed_loads(self, data, tmp_path):
        """Checkpoints used to carry an unread `dropout_seed` in their config."""
        train_set, eval_set = data
        model, _ = training.train(small_config(epochs=1), train_set[:8], eval_set[:4])
        path = tmp_path / "model.ckpt"
        training.save_model(str(path), model)
        edit_header(path, lambda doc: doc["config"].update(dropout_seed=model.seed + 1))
        loaded = training.load_model(str(path))
        for name in model.params.names():
            assert np.array_equal(loaded.params[name].data, model.params[name].data)

    def test_manifest_mismatch_rejected(self, data, tmp_path):
        train_set, eval_set = data
        ate_model, _ = training.train(small_config(epochs=1), train_set, eval_set)
        path = tmp_path / "model.ckpt"
        training.save_model(str(path), ate_model)
        edit_header(path, lambda doc: doc["config"].update(task="asc"))
        with pytest.raises(CompatibilityError,
                           match="first missing: mask.gamma, first unexpected: head.ate.W"):
            training.load_model(str(path))

    def test_bytes_are_pinned(self, tmp_path):
        """The sha256 of a tiny ASC model whose parameters are set to
        0.00, 0.01, 0.02, ... in each array: the format's bytes cannot drift."""
        model = tasks.AbsaModel("asc", enc.EncoderConfig(vocab_size=2, d_w=4, d_p=2, hidden=4,
                                                         n_layers=1, n_heads=2, d_ff=4),
                                mk.MaskConfig(), enc.Vocab(["steak", "great"]), 7)
        for t in model.params.tensors():
            t.data = (np.arange(t.data.size) * 0.01).reshape(t.data.shape)
        path = tmp_path / "pinned.ckpt"
        training.save_model(str(path), model)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "647f35c63bb992e5bf7dc9ecf235a03a4d8320fcf3b95281455aceb0d8e9e2c4")
