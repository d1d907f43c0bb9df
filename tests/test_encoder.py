import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from maskterm import autodiff as ad
from maskterm import corpus
from maskterm import encoder as enc
from maskterm import masking as mk
from maskterm import tasks
from maskterm.autodiff import Tensor
from maskterm.exceptions import CompatibilityError, ConfigError, ContractError, LengthError


@pytest.fixture(scope="module")
def small_setup():
    examples = corpus.synth_corpus(seed=3, size=8)
    vocab = enc.Vocab.build(examples)
    cfg = enc.EncoderConfig(vocab_size=len(vocab.words))
    params = ad.ParamStore()
    enc.init_encoder_params(params, cfg, np.random.default_rng(0))
    return examples, vocab, cfg, params


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            enc.EncoderConfig(hidden=10, n_heads=4)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            enc.EncoderConfig(dropout_rate=1.0)

    def test_d_k(self):
        cfg = enc.EncoderConfig(hidden=64, n_heads=4)
        assert cfg.d_k == 16

    @pytest.mark.parametrize("d_D", [0, 23, 50])
    def test_dependency_width_is_fixed(self, d_D):
        """Any other width fails only at the first forward, in the input projection."""
        with pytest.raises(ConfigError, match="24"):
            enc.EncoderConfig(d_D=d_D)


class TestEmbed:
    def test_shape_contract(self, small_setup):
        examples, vocab, cfg, params = small_setup
        inp = enc.ate_input(examples[0], vocab)
        emb = enc.embed_tokens(params, cfg, inp)
        assert emb.data.shape == (len(examples[0]) + 2, cfg.d_in)

    def test_zero_dep_fallback_propagates(self, small_setup):
        examples, vocab, cfg, params = small_setup
        emb = enc.embed_tokens(params, cfg, enc.ate_input(examples[0], vocab))
        assert not emb.data[:, cfg.d_w + cfg.d_p:].any()

    def test_identical_tokens_differ_only_in_position_slice(self, small_setup):
        _, vocab, cfg, params = small_setup
        ex = corpus.make_example("steak steak", [])
        emb = enc.embed_tokens(params, cfg, enc.ate_input(ex, vocab)).data
        diff = emb[1] - emb[2]
        assert np.abs(diff[:cfg.d_w]).max() > 0
        assert np.allclose(diff[cfg.d_w:], 0.0)

    def test_special_positions_have_zero_pos_part(self, small_setup):
        examples, vocab, cfg, params = small_setup
        inp = enc.ate_input(examples[0], vocab)
        emb = enc.embed_tokens(params, cfg, inp).data
        pos_slice = emb[:, cfg.d_w:cfg.d_w + cfg.d_p]
        assert not pos_slice[0].any() and not pos_slice[-1].any()
        assert pos_slice[1].any()

    def test_oov_tokens_use_unk(self, small_setup):
        _, vocab, cfg, params = small_setup
        assert vocab.id_of("zzznotinvocab") == enc.UNK_ID

    def test_max_len_enforced(self, small_setup):
        examples, vocab, _, params = small_setup
        cfg = enc.EncoderConfig(vocab_size=len(vocab.words), max_len=3)
        with pytest.raises(LengthError):
            enc.embed_tokens(params, cfg, enc.ate_input(examples[0], vocab))


class TestEncode:
    def test_single_token_attention_map(self):
        """A lone row attends only to itself: its output is its V row."""
        rng = np.random.default_rng(6)
        q, k, v = rng.normal(size=(3, 1, 8))
        out, _ = ad.multi_head_attention(q, k, v, 4, 0.5)
        assert np.allclose(out, v)

    def test_deterministic_when_not_training(self, small_setup):
        examples, vocab, cfg, params = small_setup
        inp = enc.ate_input(examples[1], vocab)
        a = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp)).data
        b = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp)).data
        assert np.array_equal(a, b)

    def test_attention_rows_sum_to_one(self, small_setup):
        """With V all ones the output of each row is the sum of its weights,
        padded keys of a packed batch included."""
        examples, vocab, cfg, params = small_setup
        inputs = [enc.ate_input(ex, vocab) for ex in examples[:4]]
        for inp in inputs + [enc.pack_inputs(inputs)]:
            emb = enc.embed_tokens(params, cfg, inp).data
            x = emb @ params["enc.in_proj.W"].data + params["enc.in_proj.b"].data
            q, k = x @ params["enc.L0.Wq"].data, x @ params["enc.L0.Wk"].data
            out, _ = ad.multi_head_attention(q, k, np.ones_like(x), cfg.n_heads,
                                             1.0 / np.sqrt(cfg.d_k), segments=inp.segments)
            assert np.abs(out - 1.0).max() <= 1e-6

    def test_permutation_equivariance_without_positions(self, small_setup):
        _, _, cfg, params = small_setup
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, cfg.d_in))
        perm = rng.permutation(6)
        out = enc.encode(params, cfg, Tensor(x)).data
        out_p = enc.encode(params, cfg, Tensor(x[perm])).data
        assert np.allclose(out_p, out[perm], atol=1e-9)

    def test_dropout_requires_rng(self, small_setup):
        examples, vocab, cfg, params = small_setup
        emb = enc.embed_tokens(params, cfg, enc.ate_input(examples[0], vocab))
        with pytest.raises(ContractError):
            enc.encode(params, cfg, emb, train_mode=True)

    def test_train_mode_dropout_is_seeded(self, small_setup):
        examples, vocab, cfg, params = small_setup
        inp = enc.ate_input(examples[0], vocab)
        a = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp),
                       train_mode=True, rng=np.random.default_rng(7)).data
        b = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp),
                       train_mode=True, rng=np.random.default_rng(7)).data
        assert np.array_equal(a, b)


def _graph_nodes(out: Tensor, stop: Tensor) -> int:
    """Recorded nodes between `out` and `stop`, `out` included and `stop` not."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if t is not stop and t._parents and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def _digest(a) -> float:
    """One fixed random projection of an array; any change to an entry moves it."""
    a = np.asarray(a, dtype=np.float64).ravel()
    return float(np.random.default_rng(0).normal(size=a.size) @ a)


# Digests of a packed encode of BLOCK_SENTENCES and of its backward, in train
# mode (dropout 0.25) and in eval mode, as recorded when each encoder layer was
# about fourteen graph nodes: the states and the gradient of every encoder
# parameter.
BLOCK_SENTENCES = ("great", "the steak was great", "service slow", "the wine list was awful",
                   "we arrived at noon and left")
BLOCK_DIGESTS = {
    True: {
        "states": -9.767637440919572,
        "emb.word": 82.69420104794102,
        "emb.pos": 49.170406237906846,
        "enc.in_proj.W": 84.32714377463728,
        "enc.in_proj.b": -87.63618074463736,
        "enc.L0.Wq": 18.35399390093653,
        "enc.L0.Wk": -17.7379401133628,
        "enc.L0.Wv": 83.10773555492372,
        "enc.L0.Wo": -38.71008350232092,
        "enc.L0.bo": -135.70449113076387,
        "enc.L0.ln1.g": 15.742288825894361,
        "enc.L0.ln1.b": -95.35427792615852,
        "enc.L0.ffn.W1": 189.2736275518637,
        "enc.L0.ffn.b1": 27.55420755259259,
        "enc.L0.ffn.W2": 59.38905659943997,
        "enc.L0.ffn.b2": -88.80240578459983,
        "enc.L0.ln2.g": 13.951873850599531,
        "enc.L0.ln2.b": -137.8198518903251,
        "enc.L1.Wq": 5.309260090917743,
        "enc.L1.Wk": 167.78445356811153,
        "enc.L1.Wv": -2.3029126236571997,
        "enc.L1.Wo": -98.52292217245812,
        "enc.L1.bo": 13.530517508579791,
        "enc.L1.ln1.g": 55.69763773598319,
        "enc.L1.ln1.b": 48.77259595355088,
        "enc.L1.ffn.W1": -59.787273886023144,
        "enc.L1.ffn.b1": -3.4908076750425203,
        "enc.L1.ffn.W2": 111.5788696509315,
        "enc.L1.ffn.b2": 44.02754517267075,
        "enc.L1.ln2.g": 16.79701594289385,
        "enc.L1.ln2.b": 6.612395246615338,
    },
    False: {
        "states": -68.97631416977258,
        "emb.word": 72.05001814981624,
        "emb.pos": 19.314296204651903,
        "enc.in_proj.W": 33.83142242014259,
        "enc.in_proj.b": -64.72909937822851,
        "enc.L0.Wq": 17.590987350511348,
        "enc.L0.Wk": -12.000909286928726,
        "enc.L0.Wv": 191.16403711438784,
        "enc.L0.Wo": -122.85642045125604,
        "enc.L0.bo": 27.093865452223813,
        "enc.L0.ln1.g": 38.955706799022614,
        "enc.L0.ln1.b": 50.11177778801881,
        "enc.L0.ffn.W1": -48.7018283707088,
        "enc.L0.ffn.b1": 57.97568417781452,
        "enc.L0.ffn.W2": 160.63226044523276,
        "enc.L0.ffn.b2": 42.64629460081066,
        "enc.L0.ln2.g": 43.1368256198125,
        "enc.L0.ln2.b": 56.60983079454983,
        "enc.L1.Wq": 23.9595309372328,
        "enc.L1.Wk": -20.340205542300687,
        "enc.L1.Wv": 81.05616243565743,
        "enc.L1.Wo": -240.5717305979228,
        "enc.L1.bo": 129.41324772561455,
        "enc.L1.ln1.g": 99.58781115123179,
        "enc.L1.ln1.b": 136.00910537859664,
        "enc.L1.ffn.W1": -21.875765020132278,
        "enc.L1.ffn.b1": 19.474227091934036,
        "enc.L1.ffn.W2": 274.44618884593433,
        "enc.L1.ffn.b2": 58.01652754084025,
        "enc.L1.ln2.g": 25.944532745920664,
        "enc.L1.ln2.b": 6.612395246615338,
    },
}


def _packed_block_case(train: bool):
    """(config, params, embedded input, encoded states) of BLOCK_SENTENCES
    packed into one batch, after a backward of a random projection of the states."""
    examples = [corpus.make_example(s, []) for s in BLOCK_SENTENCES]
    vocab = enc.Vocab.build(examples)
    cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=4, d_p=2, hidden=8,
                            n_layers=2, n_heads=2, d_ff=12, dropout_rate=0.25)
    params = ad.ParamStore()
    enc.init_encoder_params(params, cfg, np.random.default_rng(41))
    rng = np.random.default_rng(42)
    for t in params.tensors():   # biases and gains off their 0/1 init
        t.data = t.data + rng.normal(0.0, 0.1, size=t.data.shape)
    inp = enc.pack_inputs([enc.ate_input(ex, vocab) for ex in examples])
    emb = enc.embed_tokens(params, cfg, inp)
    states = enc.encode(params, cfg, emb, train_mode=train, rng=np.random.default_rng(43),
                        segments=inp.segments)
    ad.backward(ad.tsum(ad.mul(states, Tensor(rng.normal(size=states.data.shape)))))
    return cfg, params, emb, states


class TestBlock:
    @pytest.mark.parametrize("train", [True, False])
    def test_matches_recorded_layers(self, train):
        _, params, _, states = _packed_block_case(train)
        got = {"states": _digest(states.data)}
        got.update({name: _digest(t.grad) for name, t in params.items()})
        assert got == pytest.approx(BLOCK_DIGESTS[train], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("train", [True, False])
    def test_one_node_per_layer(self, train):
        cfg, _, emb, states = _packed_block_case(train)
        assert _graph_nodes(states, emb) == cfg.n_layers + 1


# Bytes the graph of `TestSavedState._asc_batch` held before backward when the
# dropout masks were float64 and attention kept its dropped probabilities too:
# 14,004,959 (tracemalloc, numpy 2.4). Boolean masks and dropped
# probabilities rebuilt in backward bring it to about 9.28 MB.
FLOAT_MASK_GRAPH_BYTES = 14_004_959


class TestSavedState:
    """A training graph keeps only what backward needs, in the smallest dtype."""

    @staticmethod
    def _asc_batch():
        """An ASC model with the default encoder (dropout 0.1) and 8 instances
        of 30-58 tokens."""
        words = ["was", "great", "but", "the", "service", "slow", "and", "wine", "fine", "staff"]
        examples = []
        for b, n in enumerate(range(30, 61, 4)):
            text = " ".join(["steak"] + [words[(i + b) % len(words)] for i in range(n - 1)])
            examples.append(corpus.make_example(
                text, [corpus.AspectAnnotation("steak", 0, 5, "positive")]))
        vocab = enc.Vocab.build(examples)
        model = tasks.AbsaModel("asc", enc.EncoderConfig(vocab_size=len(vocab.words)),
                                mk.MaskConfig(strategy="none"), vocab, 0)
        return model, [(ex, 0) for ex in examples]

    def test_graph_holds_less_than_with_float_masks(self):
        model, instances = self._asc_batch()
        model.forward_asc(instances, train=True, rng=np.random.default_rng(0))   # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = model.forward_asc(instances, train=True, rng=np.random.default_rng(0))
            loss = tasks.asc_loss(out.probs, ["positive"] * len(instances), model.params, 0.0)
            del out
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        ad.backward(loss)
        assert held < 0.7 * FLOAT_MASK_GRAPH_BYTES

    def test_dropout_masks_are_boolean(self):
        cfg = enc.EncoderConfig()
        masks = enc._dropout_masks(cfg, ad.Segments([34, 5]), np.random.default_rng(0))
        assert [m.dtype for m in masks] == [np.dtype(bool)] * 3
        assert not masks[0][:, 1, :, 5:, :].any() and not masks[0][:, 1, :, :, 5:].any()


class TestLayerNorm:
    def test_normalized_rows_pre_gain(self):
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 3.0, size=(5, 32))
        out, _ = enc.layer_norm(x, np.ones(32), np.zeros(32), 1e-12)
        assert np.abs(out.mean(axis=1)).max() <= 1e-6
        assert np.abs(out.var(axis=1) - 1.0).max() <= 1e-4


class TestPoolAspect:
    def test_single_row(self):
        states = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.array_equal(enc.pool_aspect(states, [(1, 1)]).data[0], states.data[1])

    def test_mean_idempotent_on_identical_rows(self):
        states = Tensor(np.tile([1.0, 2.0], (3, 1)))
        assert np.allclose(enc.pool_aspect(states, [(0, 2)]).data[0], [1.0, 2.0])

    def test_hand_mean(self):
        states = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(enc.pool_aspect(states, [(0, 1)]).data[0], [0.5, 0.5])

    def test_empty_span_rejected(self):
        with pytest.raises(ContractError):
            enc.pool_aspect(Tensor(np.zeros((3, 2))), [(2, 1)])


class TestGradFlow:
    def test_finite_difference_through_encoder(self):
        ex = corpus.make_example("the steak was great", [])
        vocab = enc.Vocab.build([ex])
        cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=6, d_p=2, d_D=24,
                                hidden=8, n_layers=1, n_heads=2, d_ff=12, dropout_rate=0.0)
        params = ad.ParamStore()
        enc.init_encoder_params(params, cfg, np.random.default_rng(1))
        params["enc.L0.Wq"].data = np.random.default_rng(2).normal(0, 0.3, size=(8, 8))
        inp = enc.ate_input(ex, vocab)
        target = Tensor(np.random.default_rng(3).normal(size=(len(ex) + 2, 8)))

        def f():
            d = ad.sub(enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp)), target)
            return ad.tsum(ad.mul(d, d))

        assert ad.finite_difference_check(f, params) < 1e-4

    def test_finite_difference_with_dropout_over_packed_rows(self):
        examples = [corpus.make_example(s, []) for s in ("great", "the steak was great")]
        vocab = enc.Vocab.build(examples)
        cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=6, d_p=2, hidden=8,
                                n_layers=1, n_heads=2, d_ff=12, dropout_rate=0.3)
        params = ad.ParamStore()
        enc.init_encoder_params(params, cfg, np.random.default_rng(1))
        inp = enc.pack_inputs([enc.ate_input(ex, vocab) for ex in examples])
        target = Tensor(np.random.default_rng(3).normal(size=(len(inp), 8)))

        def f():   # the same dropout masks on every call
            states = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp), train_mode=True,
                                rng=np.random.default_rng(4), segments=inp.segments)
            d = ad.sub(states, target)
            return ad.tsum(ad.mul(d, d))

        names = [n for n in params.names() if n.startswith("enc.")]
        assert ad.finite_difference_check(f, params, names=names) < 1e-4


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, small_setup):
        _, vocab, cfg, params = small_setup
        path = tmp_path / "enc.ckpt"
        config = {"encoder": asdict(cfg), "vocab": vocab.words}
        enc.save_checkpoint(str(path), params, config, seed=13)
        loaded_cfg, seed, arrays = enc.load_checkpoint(str(path))
        assert seed == 13
        assert loaded_cfg["encoder"] == asdict(cfg)
        assert list(arrays) == params.names()
        for name, t in params.items():
            assert np.array_equal(arrays[name], t.data)

    def test_same_params_give_identical_bytes(self, tmp_path, small_setup):
        _, vocab, cfg, params = small_setup
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        config = {"vocab": vocab.words}
        enc.save_checkpoint(str(a), params, config, seed=1)
        enc.save_checkpoint(str(b), params, config, seed=1)
        assert a.read_bytes() == b.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"version": "ckpt_v0", "manifest": [], "config": {}, "seed": 0}\n')
        with pytest.raises(CompatibilityError):
            enc.load_checkpoint(str(path))

    @pytest.mark.parametrize("header", [
        {"version": "ckpt_v1"},
        {"version": "ckpt_v1", "config": {}, "seed": 0},
        {"version": "ckpt_v1", "manifest": [], "seed": 0},
        {"version": "ckpt_v1", "manifest": [], "config": {}},
        {"version": "ckpt_v1", "manifest": [], "config": {}, "seed": "0"},
        {"version": "ckpt_v1", "manifest": {}, "config": {}, "seed": 0},
        {"version": "ckpt_v1", "manifest": [{"name": "w"}], "config": {}, "seed": 0},
        {"version": "ckpt_v1", "manifest": [{"name": 3, "shape": [1]}], "config": {}, "seed": 0},
        {"version": "ckpt_v1", "manifest": [{"name": "w", "shape": [-1]}], "config": {},
         "seed": 0},
        {"version": "ckpt_v1", "manifest": ["w"], "config": {}, "seed": 0},
        ["ckpt_v1"],
    ])
    def test_partial_header_rejected(self, tmp_path, header):
        path = tmp_path / "partial.ckpt"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n")
        with pytest.raises(CompatibilityError):
            enc.load_checkpoint(str(path))

    def test_truncated_blob_rejected(self, tmp_path, small_setup):
        _, vocab, cfg, params = small_setup
        path = tmp_path / "trunc.ckpt"
        enc.save_checkpoint(str(path), params, {"vocab": vocab.words}, seed=1)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CompatibilityError):
            enc.load_checkpoint(str(path))
