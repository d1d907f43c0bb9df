import itertools
import math
import re

import numpy as np
import pytest

import gradcheck as gc
from fixtures import packed_input
from maskterm import autodiff as ad
from maskterm import corpus
from maskterm import encoder as enc
from maskterm import masking as mk
from maskterm import tasks
from maskterm.autodiff import ParamStore, Tensor
from maskterm.exceptions import ContractError, DimensionError


def reference_decode(tags):
    """Regex oracle: spans are B-runs or leading-I runs (I not preceded by B/I)."""
    text = "".join(tags)
    return [(m.start(), m.end() - 1) for m in re.finditer(r"BI*|(?<![BI])I+", text)]


class TestDecodeBio:
    def test_textbook(self):
        assert tasks.decode_bio_spans(["B", "I", "O", "B"]) == [(0, 1), (3, 3)]

    def test_no_aspects(self):
        assert tasks.decode_bio_spans(["O", "O", "O"]) == []

    def test_leading_i_repair(self):
        assert tasks.decode_bio_spans(["I", "I", "O"]) == [(0, 1)]

    def test_matches_bruteforce_on_all_length7(self):
        for tags in itertools.product("BIO", repeat=7):
            tags = list(tags)
            assert tasks.decode_bio_spans(tags) == reference_decode(tags), tags

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            spans = []
            cursor = 0
            while cursor < n:
                if rng.random() < 0.4:
                    length = int(rng.integers(1, min(4, n - cursor) + 1))
                    spans.append((cursor, cursor + length - 1))
                    cursor += length + 1
                else:
                    cursor += 1
            tags = ["O"] * n
            for s, e in spans:
                tags[s] = "B"
                for i in range(s + 1, e + 1):
                    tags[i] = "I"
            assert tasks.decode_bio_spans(tags) == spans


class TestSpanF1:
    def test_perfect(self):
        assert tasks.ate_span_f1([(0, 1)], [(0, 1)]) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        assert tasks.ate_span_f1([(0, 0)], [(1, 1)]) == (0.0, 0.0, 0.0)

    def test_partial(self):
        p, r, f1 = tasks.ate_span_f1([(0, 1), (5, 5)], [(0, 1), (3, 3)])
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_empty_conventions(self):
        assert tasks.ate_span_f1([], [(0, 0)]) == (1.0, 0.0, 0.0)
        p, r, f1 = tasks.ate_span_f1([(0, 0)], [])
        assert (p, r) == (0.0, 1.0) and f1 == 0.0
        assert tasks.ate_span_f1([], []) == (1.0, 1.0, 1.0)


class TestAteLoss:
    def test_one_hot_correct_is_zero(self):
        probs = Tensor(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        assert tasks.ate_loss(probs, ["B", "O"]).item() == pytest.approx(0.0, abs=1e-9)

    def test_uniform_single_token(self):
        probs = Tensor(np.full((1, 3), 1.0 / 3.0))
        assert tasks.ate_loss(probs, ["I"]).item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_uniform_two_tokens_sums(self):
        probs = Tensor(np.full((2, 3), 1.0 / 3.0))
        assert tasks.ate_loss(probs, ["B", "O"]).item() == pytest.approx(2 * math.log(3.0), abs=1e-12)

    def test_invalid_rows_rejected(self):
        with pytest.raises(ContractError):
            tasks.ate_loss(Tensor(np.array([[0.5, 0.2, 0.2]])), ["B"])

    def test_non_negative_on_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            probs = Tensor(rng.dirichlet(np.ones(3), size=n))
            gold = [tasks.BIO_CLASSES[i] for i in rng.integers(3, size=n)]
            assert tasks.ate_loss(probs, gold).item() >= 0.0


def asc_gold(*classes):
    return np.array([tasks.ASC_INDEX[c] for c in classes], dtype=int)


class TestAscLoss:
    """The ASC objective: `nll` over the batch's rows, each instance's
    cross-entropy weighed 1/B, alone, plus the L2 term
    (lambda/2) * ParamStore.l2_sum(), which Adam differentiates and `train`
    adds to the logged loss (tests/test_training.py holds Adam's part)."""

    def test_uniform_is_ln3(self):
        probs = Tensor(np.full((1, 3), 1.0 / 3.0))
        loss = tasks.nll(probs, asc_gold("positive"), 1.0)
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_l2_term_alone(self):
        params = ParamStore()
        params.add("theta", [1.0, 2.0])
        probs = Tensor(np.array([[1.0, 0.0, 0.0]]))
        assert tasks.nll(probs, asc_gold("positive"), 1.0).item() == pytest.approx(0.0, abs=1e-12)
        assert params.l2_sum() * 0.01 / 2.0 == pytest.approx(0.025, abs=1e-12)

    def test_perfect_lambda_zero(self):
        probs = Tensor(np.array([[0.0, 1.0, 0.0]]))
        assert tasks.nll(probs, asc_gold("negative"), 1.0).item() == pytest.approx(0.0, abs=1e-9)

    def test_l2_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        params = ParamStore()
        params.add("a", rng.normal(size=(7, 5)))
        params.add("b", rng.normal(size=11))
        lam = 0.01
        direct = math.fsum(float(x) ** 2 for t in params.tensors() for x in t.data.reshape(-1))
        assert abs(params.l2_sum() * lam / 2.0 - lam / 2.0 * direct) <= 1e-12

    def test_decreases_with_lambda(self):
        """The logged ASC loss of an epoch of one batch: the same cross-entropy
        at the same initial parameters, and a ten times smaller L2 term."""
        from maskterm import training

        data = corpus.synth_corpus(seed=4, size=3)
        encoder = enc.EncoderConfig(d_w=4, d_p=2, hidden=8, n_layers=1, n_heads=2, d_ff=8)
        logged = {}
        for lam in (0.1, 0.01):
            config = training.TrainConfig(task="asc", epochs=1, l2_lambda=lam, encoder=encoder,
                                          mask=mk.MaskConfig(strategy="none"))
            logged[lam] = training.train(config, data, data)[1].records[0]
        high, low = logged[0.1], logged[0.01]
        assert low["train_loss"] < high["train_loss"]
        assert low["l2_term"] == pytest.approx(high["l2_term"] / 10, rel=1e-12)
        assert (low["train_loss"] - low["l2_term"]
                == pytest.approx(high["train_loss"] - high["l2_term"], rel=1e-12))

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            tasks.nll(Tensor(np.zeros((0, 3))), asc_gold(), 1.0)


class TestAscMetrics:
    def test_all_correct(self):
        acc, macro, _ = tasks.asc_metrics(["positive", "negative"], ["positive", "negative"])
        assert (acc, macro) == (1.0, 1.0)

    def test_all_wrong(self):
        acc, _, _ = tasks.asc_metrics(["positive", "negative"], ["negative", "positive"])
        assert acc == 0.0

    def test_confusion_example(self):
        golds = ["positive", "positive", "negative"]
        preds = ["positive", "negative", "negative"]
        acc, macro, per_class = tasks.asc_metrics(preds, golds)
        assert acc == pytest.approx(2.0 / 3.0)
        assert per_class["positive"]["f1"] == pytest.approx(2.0 / 3.0)
        assert per_class["negative"]["f1"] == pytest.approx(2.0 / 3.0)
        assert "neutral" not in per_class
        assert macro == pytest.approx(2.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            tasks.asc_metrics([], [])


@pytest.fixture(scope="module")
def tiny_models():
    examples = corpus.synth_corpus(seed=5, size=6)
    vocab = enc.Vocab.build(examples)
    cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=8, d_p=2,
                            hidden=16, n_layers=1, n_heads=2, d_ff=24, dropout_rate=0.1)
    models = {
        strategy: tasks.AbsaModel("ate", cfg, mk.MaskConfig(strategy=strategy), vocab, seed=3)
        for strategy in ("actm", "aam", "amom", "fixed", "none")
    }
    asc_models = {
        strategy: tasks.AbsaModel("asc", cfg, mk.MaskConfig(strategy=strategy), vocab, seed=3)
        for strategy in ("actm", "aam", "amom", "fixed", "none")
    }
    return examples, models, asc_models


class TestForwards:
    def test_ate_shape_and_row_sums(self, tiny_models):
        examples, models, _ = tiny_models
        for strategy, model in models.items():
            out = model.forward_ate([examples[0]])
            n = len(examples[0])
            assert out.probs.data.shape == (n, 3)
            assert np.abs(out.probs.data.sum(axis=1) - 1.0).max() <= 1e-9, strategy

    def test_masking_none_equals_fixed_tau_zero(self, tiny_models):
        examples, models, _ = tiny_models
        vocab = models["none"].vocab
        cfg = models["none"].enc_cfg
        zero_tau = tasks.AbsaModel("ate", cfg, mk.MaskConfig(strategy="fixed", fixed_tau=0.0),
                                   vocab, seed=3)
        plain = tasks.AbsaModel("ate", cfg, mk.MaskConfig(strategy="none"), vocab, seed=3)
        for ex in examples[:3]:
            a = zero_tau.forward_ate([ex]).probs.data
            b = plain.forward_ate([ex]).probs.data
            assert np.allclose(a, b, atol=1e-12)

    def test_asc_probs_sum_to_one(self, tiny_models):
        examples, _, asc_models = tiny_models
        for strategy, model in asc_models.items():
            for ex in examples[:3]:
                for idx in range(len(ex.aspects)):
                    out = model.forward_asc([(ex, idx)])
                    assert out.probs.data.shape == (1, 3)
                    assert abs(out.probs.data.sum() - 1.0) <= 1e-9, strategy

    def test_asc_features_differ_across_aspects(self, tiny_models):
        # Zero-initialized heads output exactly uniform probabilities, so give
        # the head weights to expose that the feature path is aspect-conditioned.
        # The probabilities saturate (1 - 1e-9 against 1 - 4e-11), so they are
        # compared as log-probabilities, where np.allclose's atol cannot hide
        # a 25x difference.
        examples, _, asc_models = tiny_models
        model = asc_models["actm"]
        w = model.params["head.asc.W"]
        saved = w.data.copy()
        w.data = np.random.default_rng(0).normal(0, 0.3, size=w.data.shape)
        try:
            two = next(ex for ex in examples if len(ex.aspects) == 2)
            a = model.forward_asc([(two, 0)]).probs.data
            b = model.forward_asc([(two, 1)]).probs.data
            assert not np.allclose(np.log(a), np.log(b))
        finally:
            w.data = saved

    def test_protected_positions_never_masked(self, tiny_models):
        examples, models, asc_models = tiny_models
        model = models["actm"]
        _, _, decision = model.encode_and_mask(packed_input(model, [examples[0]]))
        assert decision.kept[0] and decision.kept[-1]
        ex = examples[0]
        model = asc_models["actm"]
        _, _, decision = model.encode_and_mask(packed_input(model, [(ex, 0)]))
        s, e = ex.aspects[0].token_span
        for p in range(s + 1, e + 2):
            assert decision.kept[p]

    def test_overfit_single_example_matches_gold(self, tiny_models):
        examples, _, _ = tiny_models
        ex = examples[0]
        vocab = enc.Vocab.build([ex])
        cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=8, d_p=2,
                                hidden=16, n_layers=1, n_heads=2, d_ff=24, dropout_rate=0.0)
        model = tasks.AbsaModel("ate", cfg, mk.MaskConfig(strategy="actm"), vocab, seed=0)
        from maskterm.training import Adam

        opt = Adam(model.params, lr=0.01)
        for _ in range(200):
            out = model.forward_ate([ex])
            loss = tasks.ate_loss(out.probs, ex.bio_tags)
            opt.step(ad.backward(loss))
        assert model.predict_bio([ex]) == [ex.bio_tags]

    def test_overfit_single_asc_example(self, tiny_models):
        examples, _, _ = tiny_models
        ex = next(e for e in examples if len(e.aspects) == 1)
        vocab = enc.Vocab.build([ex])
        cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=8, d_p=2,
                                hidden=16, n_layers=1, n_heads=2, d_ff=24, dropout_rate=0.0)
        model = tasks.AbsaModel("asc", cfg, mk.MaskConfig(strategy="actm"), vocab, seed=0)
        from maskterm.training import Adam

        opt = Adam(model.params, lr=0.03)
        gold = ex.aspects[0].polarity
        for _ in range(200):
            out = model.forward_asc([(ex, 0)])
            loss = tasks.nll(out.probs, asc_gold(gold), 1.0)
            opt.step(ad.backward(loss))
        out = model.forward_asc([(ex, 0)])
        assert out.probs.data[0, tasks.ASC_INDEX[gold]] > 0.99


class TestHeadKernels:
    """Each task head is one fused node; its hand-written backward against
    central differences in float64, on tiny shapes."""

    @staticmethod
    def store(rng, **shapes):
        params = ParamStore(np.float64)
        for name, shape in shapes.items():
            params.add(name, rng.normal(0.0, 0.7, size=shape))
        return params

    @staticmethod
    def objective(head, rng):
        """A random projection of the head's probabilities, a scalar."""
        coeff = Tensor(rng.normal(size=head().data.shape))
        return lambda: gc.dot(head(), coeff)

    def test_ate_head_matches_central_differences(self):
        rng = np.random.default_rng(61)
        params = self.store(rng, states=(7, 4), W=(4, 3), b=(3,))
        content = np.array([1, 2, 3, 5])   # rows 0, 4 and 6 are specials

        def head():
            return tasks.ate_head(params["states"], content, params["W"], params["b"])

        assert head().data.shape == (4, 3) and np.allclose(head().data.sum(axis=1), 1.0)
        assert gc.finite_difference_check(self.objective(head, rng), params) < 1e-4

    def test_asc_head_on_one_states_tensor_matches_central_differences(self):
        """Under `none` and AMOM the pooled rows come from the encoder's own
        states, so the one tensor takes the [CLS] and the pooling gradients."""
        rng = np.random.default_rng(62)
        params = self.store(rng, encoded=(9, 4), W=(8, 3), b=(3,))
        content = np.array([1, 2, 5, 6, 7])
        seg = ad.Segments([2, 3])
        divisor = np.array([1, 3])   # a kept count: one of the first instance's two

        def head():
            x = params["encoded"]
            return tasks.asc_head(x, x, np.array([0, 4]), content, seg, divisor,
                                  params["W"], params["b"])

        assert head().data.shape == (2, 3)
        assert gc.finite_difference_check(self.objective(head, rng), params) < 1e-4

    def test_asc_head_aspect_span_pooling_matches_central_differences(self):
        """The head pools each instance's own rows of `states`, one span
        each, as ASC AAM pools its remixed aspect-span rows."""
        rng = np.random.default_rng(63)
        params = self.store(rng, encoded=(10, 4), states=(10, 4), W=(8, 3), b=(3,))
        rows, seg = enc.aspect_rows([(1, 2), (7, 7)], 10)
        assert rows.tolist() == [1, 2, 7]

        def head():
            return tasks.asc_head(params["encoded"], params["states"], np.array([0, 5]), rows,
                                  seg, seg.lengths, params["W"], params["b"])

        assert gc.finite_difference_check(self.objective(head, rng), params) < 1e-4
        grads = ad.backward(self.objective(head, rng)())
        assert not grads[params["states"]][[0, 3, 4, 5, 6, 8, 9]].any()
        assert not grads[params["encoded"]][[1, 2, 3, 4, 6, 7, 8, 9]].any()
