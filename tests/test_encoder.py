import dataclasses
import json
import tracemalloc

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

    def test_negative_vocab_size_rejected(self):
        with pytest.raises(ConfigError, match="vocab_size"):
            enc.EncoderConfig(vocab_size=-10)


class TestEmbed:
    def test_shape_contract(self, small_setup):
        examples, vocab, cfg, params = small_setup
        inp = enc.ate_input(examples[0], vocab)
        emb = enc.embed_tokens(params, cfg, inp)
        assert emb.data.shape == (len(examples[0]) + 2, cfg.d_in)

    def test_rows_are_word_and_pos_parts_only(self, small_setup):
        """Each row is its word embedding plus the position signal, then its
        POS embedding (zero at [CLS]/[SEP]), and nothing more."""
        examples, vocab, cfg, params = small_setup
        inp = enc.ate_input(examples[0], vocab)
        emb = enc.embed_tokens(params, cfg, inp).data
        word = params["emb.word"].data[inp.token_ids] + enc.sinusoidal_encoding(len(inp), cfg.d_w)
        pos = params["emb.pos"].data[inp.pos_ids] * ~inp.special[:, None]
        assert np.array_equal(emb, np.hstack([word, pos]))

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
# mode (dropout 0.25) and in eval mode: the states and the gradient of every
# encoder parameter. Recorded when the 24 always-zero dependency input columns
# were dropped; the code before that change, given these parameters with 24
# zero rows appended to in_proj.W, gives the same bits (and a zero gradient on
# those rows). That code matched the digests recorded when each encoder layer
# was about fourteen graph nodes.
BLOCK_SENTENCES = ("great", "the steak was great", "service slow", "the wine list was awful",
                   "we arrived at noon and left")
BLOCK_DIGESTS = {
    True: {
        "states": 190.70189046260512,
        "emb.word": 51.66701872905243,
        "emb.pos": -27.74652581720103,
        "enc.in_proj.W": 20.71470988458698,
        "enc.in_proj.b": -74.68003941384326,
        "enc.L0.Wq": 55.74057292348985,
        "enc.L0.Wk": -160.44457500315065,
        "enc.L0.Wv": 18.052245387968185,
        "enc.L0.Wo": 357.81963700267653,
        "enc.L0.bo": -20.577441957830924,
        "enc.L0.ln1.g": 27.66694560349915,
        "enc.L0.ln1.b": 17.194153965527534,
        "enc.L0.ffn.W1": 5.885726388138092,
        "enc.L0.ffn.b1": -29.096619866248194,
        "enc.L0.ffn.W2": -83.8336054031719,
        "enc.L0.ffn.b2": -10.620184489699623,
        "enc.L0.ln2.g": 8.985911949759144,
        "enc.L0.ln2.b": -47.86264794918796,
        "enc.L1.Wq": 108.69996451946324,
        "enc.L1.Wk": -327.3899407614431,
        "enc.L1.Wv": 189.1759406365336,
        "enc.L1.Wo": 36.61927743169811,
        "enc.L1.bo": 47.818489729136324,
        "enc.L1.ln1.g": -32.70806232400919,
        "enc.L1.ln1.b": -31.782743895418523,
        "enc.L1.ffn.W1": 104.83056301672181,
        "enc.L1.ffn.b1": -10.617026464780226,
        "enc.L1.ffn.W2": -48.80986767077596,
        "enc.L1.ffn.b2": -32.994759222870194,
        "enc.L1.ln2.g": 11.129213591310673,
        "enc.L1.ln2.b": -12.341500980463891,
    },
    False: {
        "states": 111.64959482080158,
        "emb.word": -41.985275941205984,
        "emb.pos": -91.4586426710974,
        "enc.in_proj.W": 42.83015647786988,
        "enc.in_proj.b": -49.627657102904294,
        "enc.L0.Wq": -7.669020653886369,
        "enc.L0.Wk": -82.7800722244697,
        "enc.L0.Wv": -43.73448792778891,
        "enc.L0.Wo": 57.461244988185655,
        "enc.L0.bo": -123.67816598474349,
        "enc.L0.ln1.g": -51.90246361603459,
        "enc.L0.ln1.b": -98.4667940818085,
        "enc.L0.ffn.W1": -125.55712098224934,
        "enc.L0.ffn.b1": 15.119113519014881,
        "enc.L0.ffn.W2": -132.56746159522203,
        "enc.L0.ffn.b2": -36.93002878321011,
        "enc.L0.ln2.g": 31.429006492080806,
        "enc.L0.ln2.b": -54.404066238179645,
        "enc.L1.Wq": -5.780933220606286,
        "enc.L1.Wk": 7.534324157795222,
        "enc.L1.Wv": 159.54835486399418,
        "enc.L1.Wo": -44.22387371090105,
        "enc.L1.bo": -16.411463675474547,
        "enc.L1.ln1.g": 12.280854619144023,
        "enc.L1.ln1.b": -18.075557108937485,
        "enc.L1.ffn.W1": 91.86580337339196,
        "enc.L1.ffn.b1": -20.07279105633716,
        "enc.L1.ffn.W2": 180.73303714803822,
        "enc.L1.ffn.b2": -26.615143861846114,
        "enc.L1.ln2.g": 8.189110627885437,
        "enc.L1.ln2.b": -12.341500980463891,
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
            loss = tasks.asc_loss(out.probs, ["positive"] * len(instances))
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
        cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=6, d_p=2,
                                hidden=8, n_layers=1, n_heads=2, d_ff=12, dropout_rate=0.0)
        params = ad.ParamStore()
        enc.init_encoder_params(params, cfg, np.random.default_rng(1))
        params["enc.L0.Wq"].data = np.random.default_rng(2).normal(0, 0.3, size=(8, 8))
        inp = enc.ate_input(ex, vocab)
        target = Tensor(np.random.default_rng(3).normal(size=(len(ex) + 2, 8)))

        def f():
            d = ad.sub(enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp)), target)
            return ad.tsum(ad.mul(d, d))

        assert gc.finite_difference_check(f, params) < 1e-4

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
        assert gc.finite_difference_check(f, params, names=names) < 1e-4


# Stands for the config of a valid model in the headers below.
VALID_CONFIG = "valid config"


class TestCheckpoint:
    """The format, through `training.save_model` and `training.load_model`."""

    @pytest.fixture()
    def saved(self, tmp_path, small_setup):
        """(path, model) of a saved ATE model on the small setup's encoder."""
        _, vocab, cfg, _ = small_setup
        model = tasks.AbsaModel("ate", cfg, mk.MaskConfig(), vocab, 13)
        path = tmp_path / "model.ckpt"
        training.save_model(str(path), model)
        return path, model

    def test_round_trip_bit_exact(self, saved):
        path, model = saved
        loaded = training.load_model(str(path))
        assert loaded.seed == 13
        assert loaded.enc_cfg == model.enc_cfg and loaded.vocab.words == model.vocab.words
        assert loaded.params.names() == model.params.names()
        assert loaded.params.dtype == model.params.dtype == np.float32
        for name, t in model.params.items():
            assert np.array_equal(loaded.params[name].data, t.data)

    def test_float64_checkpoint_loads_rounded_to_float32(self, tmp_path, small_setup):
        """Checkpoints of models that ran in float64 load into float32 models."""
        _, vocab, cfg, _ = small_setup
        model = tasks.AbsaModel("ate", cfg, mk.MaskConfig(), vocab, 13, np.float64)
        path = tmp_path / "wide.ckpt"
        training.save_model(str(path), model)
        loaded = training.load_model(str(path))
        for name, t in model.params.items():
            assert np.array_equal(loaded.params[name].data, t.data.astype(np.float32)), name

    def test_same_params_give_identical_bytes(self, saved):
        path, model = saved
        again = path.with_name("again.ckpt")
        training.save_model(str(again), model)
        assert again.read_bytes() == path.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"version": "ckpt_v0", "manifest": [], "config": {}, "seed": 0}\n')
        with pytest.raises(CompatibilityError, match="version"):
            training.load_model(str(path))

    @pytest.mark.parametrize("header", [
        {"version": "ckpt_v1"},
        {"version": "ckpt_v1", "config": VALID_CONFIG, "seed": 0},
        {"version": "ckpt_v1", "manifest": [], "seed": 0},
        {"version": "ckpt_v1", "manifest": [], "config": VALID_CONFIG},
        {"version": "ckpt_v1", "manifest": [], "config": VALID_CONFIG, "seed": "0"},
        {"version": "ckpt_v1", "manifest": {}, "config": VALID_CONFIG, "seed": 0},
        {"version": "ckpt_v1", "manifest": [{"name": "w"}], "config": VALID_CONFIG, "seed": 0},
        {"version": "ckpt_v1", "manifest": [{"name": 3, "shape": [1]}], "config": VALID_CONFIG,
         "seed": 0},
        {"version": "ckpt_v1", "manifest": [{"name": "w", "shape": [-1]}],
         "config": VALID_CONFIG, "seed": 0},
        {"version": "ckpt_v1", "manifest": ["w"], "config": VALID_CONFIG, "seed": 0},
        ["ckpt_v1"],
    ])
    def test_partial_header_rejected(self, saved, header):
        """Each case carries the config and the blob of a valid model where it
        has a config, so a malformed manifest is rejected by the comparison
        with the model's."""
        path, _ = saved
        valid_header, _, blob = path.read_bytes().partition(b"\n")
        if isinstance(header, dict) and header.get("config") == VALID_CONFIG:
            header = dict(header, config=json.loads(valid_header)["config"])
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
        with pytest.raises(CompatibilityError) as err:
            training.load_model(str(path))
        if isinstance(header, dict) and header.get("manifest"):   # a non-empty list of entries
            assert "manifest does not match the parameters" in str(err.value)

    @pytest.mark.parametrize("sizes", [{}, {"d_w": 5, "d_p": 3, "hidden": 6, "n_layers": 3,
                                            "n_heads": 3, "d_ff": 7}])
    def test_param_count_counts_what_init_registers(self, small_setup, sizes):
        _, vocab, cfg, _ = small_setup
        enc_cfg = dataclasses.replace(cfg, **sizes)
        params = ad.ParamStore()
        enc.init_encoder_params(params, enc_cfg, np.random.default_rng(0))
        assert enc.param_count(enc_cfg) == sum(t.data.size for t in params.tensors())

    def test_truncated_blob_rejected(self, saved):
        path, _ = saved
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CompatibilityError, match="blob"):
            training.load_model(str(path))
