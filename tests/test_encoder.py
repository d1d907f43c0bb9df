import json

import numpy as np
import pytest

from maskterm import autodiff as ad
from maskterm import corpus
from maskterm import encoder as enc
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
    def test_single_token_attention_map(self, small_setup):
        _, vocab, cfg, params = small_setup
        ex = corpus.make_example("hi", [])
        inp = enc.ate_input(ex, vocab)
        # strip to one position by encoding a 1-row embedded input directly
        emb = enc.embed_tokens(params, cfg, inp)
        one = emb[slice(0, 1)]
        seq = enc.encode(params, cfg, one)
        for layer_maps in seq.attention_maps:
            for m in layer_maps[0]:
                assert np.allclose(m, [[1.0]])

    def test_deterministic_when_not_training(self, small_setup):
        examples, vocab, cfg, params = small_setup
        inp = enc.ate_input(examples[1], vocab)
        a = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp)).states.data
        b = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp)).states.data
        assert np.array_equal(a, b)

    def test_attention_rows_sum_to_one(self, small_setup):
        examples, vocab, cfg, params = small_setup
        for ex in examples[:4]:
            seq = enc.encode(params, cfg, enc.embed_tokens(params, cfg, enc.ate_input(ex, vocab)))
            for layer_maps in seq.attention_maps:
                for m in layer_maps[0]:
                    assert np.abs(m.sum(axis=1) - 1.0).max() <= 1e-6

    def test_permutation_equivariance_without_positions(self, small_setup):
        _, _, cfg, params = small_setup
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, cfg.d_in))
        perm = rng.permutation(6)
        out = enc.encode(params, cfg, Tensor(x)).states.data
        out_p = enc.encode(params, cfg, Tensor(x[perm])).states.data
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
                       train_mode=True, rng=np.random.default_rng(7)).states.data
        b = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp),
                       train_mode=True, rng=np.random.default_rng(7)).states.data
        assert np.array_equal(a, b)


class TestLayerNorm:
    def test_normalized_rows_pre_gain(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(2.0, 3.0, size=(5, 32)))
        out = ad.layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32)), 1e-12).data
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
            seq = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp))
            d = ad.sub(seq.states, target)
            return ad.tsum(ad.mul(d, d))

        assert ad.finite_difference_check(f, params) < 1e-4


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, small_setup):
        _, vocab, cfg, params = small_setup
        path = tmp_path / "enc.ckpt"
        config = {"encoder": enc.encoder_config_to_dict(cfg), "vocab": vocab.words}
        enc.save_checkpoint(str(path), params, config, seed=13)
        loaded_cfg, seed, arrays = enc.load_checkpoint(str(path))
        assert seed == 13
        assert loaded_cfg["encoder"] == enc.encoder_config_to_dict(cfg)
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
