import dataclasses
import json
import math
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

    def test_dropout_rate_is_applied_in_65536ths(self):
        cfg = enc.EncoderConfig(dropout_rate=0.1)
        assert cfg.dropout_cut == 6554 and cfg.keep_scale == 65536 / (65536 - 6554)

    def test_dropout_rate_that_rounds_to_one_rejected(self):
        with pytest.raises(ConfigError, match="dropout_rate"):
            enc.EncoderConfig(dropout_rate=0.9999999)


@pytest.fixture(scope="module")
def unprojected(small_setup):
    """`small_setup` with an identity input projection, W = eye(d_in, hidden)
    and b = 0: the first d_in columns of `embed_tokens` are then exactly its
    rows before the projection, and the other columns zero."""
    examples, vocab, cfg, _ = small_setup
    params = ad.ParamStore()
    enc.init_encoder_params(params, cfg, np.random.default_rng(0))
    params["enc.in_proj.W"].data = np.eye(cfg.d_in, cfg.hidden)
    return examples, vocab, cfg, params


class TestEmbed:
    def test_shape_contract(self, small_setup):
        examples, vocab, cfg, params = small_setup
        inp = enc.pack_inputs(vocab, [examples[0]])
        emb = enc.embed_tokens(params, cfg, inp)
        assert emb.data.shape == (len(examples[0]) + 2, cfg.hidden)

    def test_rows_are_word_and_pos_parts_only(self, unprojected):
        """Each row is its word embedding plus the position signal, then its
        POS embedding (zero at [CLS]/[SEP]), and nothing more."""
        examples, vocab, cfg, params = unprojected
        inp = enc.pack_inputs(vocab, [examples[0]])
        emb = enc.embed_tokens(params, cfg, inp).data
        word = params["emb.word"].data[inp.token_ids] + enc.sinusoidal_encoding(len(inp), cfg.d_w)
        pos = params["emb.pos"].data[inp.pos_ids] * ~inp.special[:, None]
        assert np.array_equal(emb[:, :cfg.d_in], np.hstack([word, pos]))
        assert not emb[:, cfg.d_in:].any()

    def test_projection_is_the_input_affine_map(self, small_setup, unprojected):
        """The output is the unprojected rows times `enc.in_proj.W` plus `enc.in_proj.b`."""
        examples, vocab, cfg, params = small_setup
        inp = enc.pack_inputs(vocab, examples[:2])
        rows = enc.embed_tokens(unprojected[3], cfg, inp).data[:, :cfg.d_in]
        want = rows @ params["enc.in_proj.W"].data + params["enc.in_proj.b"].data
        assert np.array_equal(enc.embed_tokens(params, cfg, inp).data, want)

    def test_identical_tokens_differ_only_in_position_slice(self, unprojected):
        _, vocab, cfg, params = unprojected
        ex = corpus.make_example("steak steak", [])
        emb = enc.embed_tokens(params, cfg, enc.pack_inputs(vocab, [ex])).data
        diff = emb[1] - emb[2]
        assert np.abs(diff[:cfg.d_w]).max() > 0
        assert np.allclose(diff[cfg.d_w:], 0.0)

    def test_special_positions_have_zero_pos_part(self, unprojected):
        examples, vocab, cfg, params = unprojected
        inp = enc.pack_inputs(vocab, [examples[0]])
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
            enc.embed_tokens(params, cfg, enc.pack_inputs(vocab, [examples[0]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_position_table_is_built_once_and_read_only(self, dtype):
        cfg = enc.EncoderConfig()
        for n in range(1, cfg.max_len + 1):
            table = enc.position_table(n, cfg.d_w, np.dtype(dtype))
            want = enc.sinusoidal_encoding(n, cfg.d_w).astype(dtype)
            assert table.dtype == want.dtype and table.tobytes() == want.tobytes()
            assert enc.position_table(n, cfg.d_w, np.dtype(dtype)) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0

    def test_hidden_rows_are_zero_and_the_rest_unchanged(self, unprojected):
        examples, vocab, cfg, params = unprojected
        inp = enc.pack_inputs(vocab, examples[:2])
        plain = enc.embed_tokens(params, cfg, inp).data
        masked = enc.pack_inputs(vocab, examples[:2], None, [frozenset({0}), frozenset({1, 2})])
        hidden = enc.embed_tokens(params, cfg, masked).data
        rows = inp.content_positions[[0, len(examples[0]) + 1, len(examples[0]) + 2]]
        assert not hidden[rows].any()
        others = np.setdiff1d(np.arange(len(inp)), rows)
        assert np.array_equal(hidden[others], plain[others])

    def test_hidden_rows_project_to_the_bias(self, small_setup):
        """A hidden row is zero before the projection, so `enc.in_proj.b` after it."""
        examples, vocab, cfg, _ = small_setup
        params = ad.ParamStore()
        enc.init_encoder_params(params, cfg, np.random.default_rng(0))
        params["enc.in_proj.b"].data = np.random.default_rng(1).normal(size=cfg.hidden)
        inp = enc.pack_inputs(vocab, examples[:1], None, [frozenset({1})])
        out = enc.embed_tokens(params, cfg, inp).data
        assert np.array_equal(out[inp.content_positions[1]], params["enc.in_proj.b"].data)

    def test_kernel_matches_central_differences(self):
        """Word, POS and input-projection gradients through the position
        signal, the specials' zeroed POS part and AMOM's hidden rows, in
        float64 on a tiny batch."""
        examples = [corpus.make_example("the steak was great", []),
                    corpus.make_example("steak steak", [])]
        vocab = enc.Vocab.build(examples)
        cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=4, d_p=2, hidden=8,
                                n_layers=1, n_heads=2, d_ff=8)
        params = ad.ParamStore(np.float64)
        enc.init_encoder_params(params, cfg, np.random.default_rng(7))
        masked = [frozenset({2}), frozenset({0})]   # "was", and one of two "steak"s
        inp = enc.pack_inputs(vocab, examples, None, masked)
        coeff = Tensor(np.random.default_rng(8).normal(size=(len(inp), cfg.hidden)))

        def objective():
            return gc.dot(enc.embed_tokens(params, cfg, inp), coeff)

        names = ["emb.word", "emb.pos", "enc.in_proj.W", "enc.in_proj.b"]
        assert gc.finite_difference_check(objective, params, names=names) < 1e-4
        word_grad = ad.backward(objective())[params["emb.word"]]
        assert not word_grad[vocab.id_of("was")].any()   # seen only hidden
        assert word_grad[enc.CLS_ID].any()   # specials keep their word part


class TestEncode:
    def test_single_token_attention_map(self):
        """A lone row attends only to itself: its output is its V row."""
        rng = np.random.default_rng(6)
        q, k, v = rng.normal(size=(3, 1, 8))
        out, _ = ad.multi_head_attention(q, k, v, 4, 0.5)
        assert np.allclose(out, v)

    def test_deterministic_when_not_training(self, small_setup):
        examples, vocab, cfg, params = small_setup
        inp = enc.pack_inputs(vocab, [examples[1]])
        a = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp)).data
        b = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp)).data
        assert np.array_equal(a, b)

    def test_attention_rows_sum_to_one(self, small_setup):
        """With V all ones the output of each row is the sum of its weights,
        padded keys of a packed batch included."""
        examples, vocab, cfg, params = small_setup
        inputs = [enc.pack_inputs(vocab, [ex]) for ex in examples[:4]]
        for inp in inputs + [enc.pack_inputs(vocab, examples[:4])]:
            x = enc.embed_tokens(params, cfg, inp).data
            q, k = x @ params["enc.L0.Wq"].data, x @ params["enc.L0.Wk"].data
            out, _ = ad.multi_head_attention(q, k, np.ones_like(x), cfg.n_heads,
                                             1.0 / np.sqrt(cfg.d_k), segments=inp.segments)
            assert np.abs(out - 1.0).max() <= 1e-6

    def test_permutation_equivariance_without_positions(self, small_setup):
        _, _, cfg, params = small_setup
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, cfg.hidden))
        perm = rng.permutation(6)
        out = enc.encode(params, cfg, Tensor(x)).data
        out_p = enc.encode(params, cfg, Tensor(x[perm])).data
        assert np.allclose(out_p, out[perm], atol=1e-9)

    def test_no_words_means_no_dropout(self, small_setup):
        """Dropout comes only as words: without them, a config with a
        dropout rate gives the states of one without, whose words keep
        every unit at scale 1."""
        examples, vocab, cfg, params = small_setup
        inp = enc.pack_inputs(vocab, [examples[0]])
        emb = enc.embed_tokens(params, cfg, inp)
        assert cfg.dropout_cut > 0
        plain = dataclasses.replace(cfg, dropout_rate=0.0)
        words = enc.dropout_words(plain, inp.lengths, np.random.default_rng(7))
        assert np.array_equal(enc.encode(params, cfg, emb).data,
                              enc.encode(params, plain, emb, words=words).data)

    def test_train_mode_dropout_is_seeded(self, small_setup):
        examples, vocab, cfg, params = small_setup
        inp = enc.pack_inputs(vocab, [examples[0]])

        def states(words=None):
            return enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp), words=words).data

        a, b = (states(enc.dropout_words(cfg, inp.lengths, np.random.default_rng(7)))
                for _ in range(2))
        assert np.array_equal(a, b) and not np.array_equal(a, states())


def _attention_oracle(q, k, v, g, lengths, n_heads, scale, keep=None, keep_scale=1.0):
    """Output and (dq, dk, dv) of plain softmax(q k^T * scale) v, for each
    sequence alone and each head in a loop, with `g` the output's gradient;
    `keep` holds dropout keep-flags keys-outer, (keys, segments, heads, queries)."""
    out, dq, dk, dv = (np.zeros_like(q) for _ in range(4))
    d = q.shape[1] // n_heads
    lo = 0
    for b, n in enumerate(lengths):
        for h in range(n_heads):
            rows, cols = slice(lo, lo + n), slice(h * d, (h + 1) * d)
            qs, ks, vs, gs = q[rows, cols], k[rows, cols], v[rows, cols], g[rows, cols]
            s = qs @ ks.T * scale
            p = np.exp(s - s.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            drop = np.ones((n, n)) if keep is None else keep[:n, b, h, :n].T * keep_scale
            out[rows, cols] = (p * drop) @ vs
            dv[rows, cols] = (p * drop).T @ gs
            dp = (gs @ vs.T) * drop
            ds = p * (dp - (dp * p).sum(axis=1, keepdims=True))
            dq[rows, cols] = ds @ ks * scale
            dk[rows, cols] = ds.T @ qs * scale
        lo += n
    return out, (dq, dk, dv)


class TestAttentionOracle:
    @pytest.mark.parametrize("lengths", [[5, 1, 9, 3], [7]])
    @pytest.mark.parametrize("dropping", [False, True])
    def test_matches_per_sequence_per_head_softmax(self, lengths, dropping):
        rng = np.random.default_rng(11)
        seg = ad.Segments(lengths)
        q, k, v, g = rng.normal(size=(4, seg.total, 8))
        keep = None
        if dropping:
            keep = rng.random((seg.n_max, seg.count, 2, seg.n_max)) >= 0.3
            keep &= seg.valid().T[:, :, None, None] & seg.valid()[None, :, None, :]
        out, backward = ad.multi_head_attention(q, k, v, 2, 0.7, keep, 1.0 / 0.7, seg)
        want, want_grads = _attention_oracle(q, k, v, g, lengths, 2, 0.7, keep, 1.0 / 0.7)
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-13)
        for got, ref in zip(backward(g), want_grads):
            np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-12)

    def test_padded_keys_get_exactly_zero_probability(self):
        rng = np.random.default_rng(12)
        seg = ad.Segments([5, 1, 9, 3])
        q, k, v = rng.normal(size=(3, seg.total, 8)).astype(np.float32)
        _, backward = ad.multi_head_attention(q, k, v, 2, 0.5, segments=seg)
        saved = dict(zip(backward.__code__.co_freevars,
                         (cell.cell_contents for cell in backward.__closure__)))
        assert saved["exps"].shape == (9, 4, 2, 9)   # (keys, segments, heads, queries)
        probs = saved["exps"] * saved["inv"][..., 0]
        for b, n in enumerate(seg.lengths):
            assert (probs[n:, b] == 0.0).all()
            assert np.abs(probs[:n, b].sum(axis=0) - 1.0).max() <= 1e-6


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
# The train-mode digests were re-recorded when dropout came to draw 16-bit lanes
# (the rate applied as round(rate * 65536) / 65536) and attention went
# keys-outer; the attention kernel before that change, given the same lane masks
# in its own layout, gives them to 2e-14 relative ("states" was 190.70189046260512).
BLOCK_SENTENCES = ("great", "the steak was great", "service slow", "the wine list was awful",
                   "we arrived at noon and left")
BLOCK_DIGESTS = {
    True: {
        "states": 100.58977034558588,
        "emb.word": 81.76130496048334,
        "emb.pos": -23.439338960267076,
        "enc.in_proj.W": -95.27012325837414,
        "enc.in_proj.b": -5.3259249996537195,
        "enc.L0.Wq": -16.17636411145243,
        "enc.L0.Wk": -38.43245659244778,
        "enc.L0.Wv": 172.76898025330874,
        "enc.L0.Wo": 156.44688529901887,
        "enc.L0.bo": -87.78688615603056,
        "enc.L0.ln1.g": 8.849269327071013,
        "enc.L0.ln1.b": -57.175454872001026,
        "enc.L0.ffn.W1": -336.151741514388,
        "enc.L0.ffn.b1": -47.83407062039298,
        "enc.L0.ffn.W2": -169.53901804240002,
        "enc.L0.ffn.b2": -72.85847095124234,
        "enc.L0.ln2.g": 68.41773277819047,
        "enc.L0.ln2.b": -111.97985882620861,
        "enc.L1.Wq": -102.93596597186612,
        "enc.L1.Wk": 228.0328008062661,
        "enc.L1.Wv": 141.08159144027638,
        "enc.L1.Wo": -294.97230954529437,
        "enc.L1.bo": -7.8631374146588735,
        "enc.L1.ln1.g": 32.00642680016565,
        "enc.L1.ln1.b": -13.722860527978533,
        "enc.L1.ffn.W1": 186.66453144318342,
        "enc.L1.ffn.b1": 12.214711814766629,
        "enc.L1.ffn.W2": 36.30989810561485,
        "enc.L1.ffn.b2": -27.815685396407282,
        "enc.L1.ln2.g": 9.024995954068364,
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
    """(config, params, embedded input, encoded states, gradients) of
    BLOCK_SENTENCES packed into one batch, the gradients those of a random
    projection of the states."""
    examples = [corpus.make_example(s, []) for s in BLOCK_SENTENCES]
    vocab = enc.Vocab.build(examples)
    cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=4, d_p=2, hidden=8,
                            n_layers=2, n_heads=2, d_ff=12, dropout_rate=0.25)
    params = ad.ParamStore()
    enc.init_encoder_params(params, cfg, np.random.default_rng(41))
    rng = np.random.default_rng(42)
    for t in params.tensors():   # biases and gains off their 0/1 init
        t.data = t.data + rng.normal(0.0, 0.1, size=t.data.shape)
    inp = enc.pack_inputs(vocab, examples)
    emb = enc.embed_tokens(params, cfg, inp)
    words = enc.dropout_words(cfg, inp.lengths, np.random.default_rng(43)) if train else None
    states = enc.encode(params, cfg, emb, segments=inp.segments, words=words)
    grads = ad.backward(gc.dot(states, Tensor(rng.normal(size=states.data.shape))))
    return cfg, params, emb, states, grads


class TestBlock:
    @pytest.mark.parametrize("train", [True, False])
    def test_matches_recorded_layers(self, train):
        _, params, _, states, grads = _packed_block_case(train)
        got = {"states": _digest(states.data)}
        got.update({name: _digest(grads[t]) for name, t in params.items()})
        assert got == pytest.approx(BLOCK_DIGESTS[train], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("train", [True, False])
    def test_one_node_per_layer(self, train):
        cfg, _, emb, states, _ = _packed_block_case(train)
        assert _graph_nodes(states, emb) == cfg.n_layers   # n_layers + 1 with the projection apart


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
        model.forward(instances, rng=np.random.default_rng(0))   # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = model.forward(instances, rng=np.random.default_rng(0))
            loss = tasks.nll(out.probs, np.concatenate(model.gold_ids(instances)),
                             1.0 / len(instances))
            del out
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        ad.backward(loss)
        assert held < 0.7 * FLOAT_MASK_GRAPH_BYTES

    def test_dropout_masks_are_boolean(self):
        cfg = enc.EncoderConfig()
        masks = dropout_masks(cfg, [34, 5], np.random.default_rng(0))
        assert [m.dtype for m in masks] == [np.dtype(bool)] * 3


def dropout_masks(cfg, lengths, rng):
    """`_dropout_masks` of sequences of `lengths` rows, their words drawn from `rng`."""
    return enc._dropout_masks(cfg, ad.Segments(lengths), enc.dropout_words(cfg, lengths, rng))


class TestDropoutMasks:
    # Odd sizes, so that no sequence's flag count below fills whole 64-bit words.
    CFG = enc.EncoderConfig(hidden=6, n_heads=3, d_ff=5, n_layers=3, dropout_rate=0.25)

    @staticmethod
    def flags(cfg, n):
        return cfg.n_layers * n * (cfg.n_heads * n + cfg.hidden + cfg.d_ff)

    def test_packed_batch_draws_as_its_sequences_alone(self):
        lengths = [5, 1, 2]
        assert all(self.flags(self.CFG, n) % 4 for n in lengths)
        seg = ad.Segments(lengths)
        rng_packed, rng_alone = np.random.default_rng(3), np.random.default_rng(3)
        attn, out, ffn = dropout_masks(self.CFG, lengths, rng_packed)
        for b, (lo, n) in enumerate(zip(seg.offsets, lengths)):
            attn_1, out_1, ffn_1 = dropout_masks(self.CFG, [n], rng_alone)
            assert np.array_equal(attn[:, :n, b, :, :n], attn_1[:, :, 0])
            assert np.array_equal(out[:, lo:lo + n], out_1)
            assert np.array_equal(ffn[:, lo:lo + n], ffn_1)
        assert rng_packed.bit_generator.state == rng_alone.bit_generator.state

    def test_two_draws_in_a_row_are_one_draw_over_both_lists(self):
        """The halves of a split forward draw one after the other: word for
        word, and to the same generator state, they take what one draw over
        both lists takes, so each half gets its sequences' masks."""
        rng_one, rng = np.random.default_rng(3), np.random.default_rng(3)
        words = enc.dropout_words(self.CFG, [5, 1, 2], rng_one)
        first = enc.dropout_words(self.CFG, [5, 1], rng)
        second = enc.dropout_words(self.CFG, [2], rng)
        assert np.array_equal(words, np.concatenate([first, second]))
        assert rng.bit_generator.state == rng_one.bit_generator.state
        whole = enc._dropout_masks(self.CFG, ad.Segments([5, 1, 2]), words)
        halves = [enc._dropout_masks(self.CFG, ad.Segments([5, 1]), first),
                  enc._dropout_masks(self.CFG, ad.Segments([2]), second)]
        assert np.array_equal(whole[0][:, :, :2], halves[0][0])
        assert np.array_equal(whole[0][:, :2, 2:, :, :2], halves[1][0])
        for i in (1, 2):
            assert np.array_equal(whole[i], np.concatenate([halves[0][i], halves[1][i]], axis=1))
        with pytest.raises(ContractError):
            enc._dropout_masks(self.CFG, ad.Segments([2]), first)

    def test_attention_mask_is_false_in_the_padding(self):
        attn = dropout_masks(self.CFG, [5, 1, 2], np.random.default_rng(0))[0]
        # (layers, keys, segments, heads, queries)
        assert not attn[:, 1:, 1].any() and not attn[:, :, 1, :, 1:].any()
        assert not attn[:, 2:, 2].any() and not attn[:, :, 2, :, 2:].any()
        assert attn[:, :5, 0].any() and attn[:, :2, 2, :, :2].any()

    def test_flags_are_16_bit_lanes_low_lane_first(self):
        # One row: 1 attention flag, 2 output flags and 1 FFN flag fill one word.
        cfg = enc.EncoderConfig(hidden=2, n_heads=1, d_ff=1, n_layers=1, dropout_rate=0.5)
        attn, out, ffn = dropout_masks(cfg, [1], np.random.default_rng(5))
        word = int(np.random.default_rng(5).bit_generator.random_raw(1)[0])
        lanes = [(word >> (16 * i)) & 0xFFFF for i in range(4)]
        assert [attn[0, 0, 0, 0, 0], *out[0, 0], ffn[0, 0, 0]] == [x >= 32768 for x in lanes]

    def test_keep_fraction_matches_the_quantised_rate(self):
        cfg = enc.EncoderConfig()
        masks = dropout_masks(cfg, [60] * 20, np.random.default_rng(1))
        flags = sum(m.size for m in masks)
        assert flags >= 1_000_000
        p = 1.0 - cfg.dropout_cut / 65536
        kept = sum(int(m.sum()) for m in masks) / flags
        assert abs(kept - p) <= 5.0 * math.sqrt(p * (1.0 - p) / flags)


class TestLayerNorm:
    def test_normalized_rows_pre_gain(self):
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 3.0, size=(5, 32))
        out, _ = enc.layer_norm(x, np.ones(32), np.zeros(32), 1e-12)
        assert np.abs(out.mean(axis=1)).max() <= 1e-6
        assert np.abs(out.var(axis=1) - 1.0).max() <= 1e-4


def pool_aspect(states, spans):
    """The span mean ACTM's threshold node chains in on ASC: `pool_rows`
    over the `aspect_rows` of each span, divided by the span's length."""
    rows, seg = enc.aspect_rows(spans, states.shape[0])
    return enc.pool_rows(states, rows, seg, seg.lengths)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_rows_adds_repeated_ids_to_the_bits_of_add_at_on_rows(dtype):
    rng = np.random.default_rng(7)
    ids = rng.integers(0, 9, size=300)
    values = rng.normal(size=(300, 5)).astype(dtype)
    assert len(set(ids.tolist())) < len(ids)
    want = rng.normal(size=(9, 5)).astype(dtype)
    got = want.copy()
    np.add.at(want, ids, values)
    enc.add_rows(got, ids, values)
    assert got.tobytes() == want.tobytes()


class TestPoolAspect:
    """`pool_rows` as the span-mean kernel ACTM's threshold node chains in on ASC."""

    def test_single_row(self):
        states = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(pool_aspect(states, [(1, 1)])[0][0], states[1])

    def test_mean_idempotent_on_identical_rows(self):
        states = np.tile([1.0, 2.0], (3, 1))
        assert np.allclose(pool_aspect(states, [(0, 2)])[0][0], [1.0, 2.0])

    def test_hand_mean(self):
        states = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(pool_aspect(states, [(0, 1)])[0][0], [0.5, 0.5])

    def test_empty_span_rejected(self):
        with pytest.raises(ContractError):
            pool_aspect(np.zeros((3, 2)), [(2, 1)])

    def test_backward_matches_central_differences(self):
        """Spans of different lengths, out of row order, in float64. The
        rows of `pool_rows` are distinct, as every caller's spans are."""
        rng = np.random.default_rng(12)
        states, spans = rng.normal(size=(7, 3)), [(3, 5), (2, 2), (0, 1)]
        coeffs = rng.normal(size=(3, 3))
        h, central = 1e-6, np.zeros_like(states)
        for i in np.ndindex(states.shape):
            step = np.zeros_like(states)
            step[i] = h
            up = (coeffs * pool_aspect(states + step, spans)[0]).sum()
            down = (coeffs * pool_aspect(states - step, spans)[0]).sum()
            central[i] = (up - down) / (2 * h)
        np.testing.assert_allclose(pool_aspect(states, spans)[1](coeffs), central,
                                   rtol=1e-6, atol=1e-8)


class TestGradFlow:
    def test_finite_difference_through_encoder(self):
        ex = corpus.make_example("the steak was great", [])
        vocab = enc.Vocab.build([ex])
        cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=6, d_p=2,
                                hidden=8, n_layers=1, n_heads=2, d_ff=12, dropout_rate=0.0)
        params = ad.ParamStore()
        enc.init_encoder_params(params, cfg, np.random.default_rng(1))
        params["enc.L0.Wq"].data = np.random.default_rng(2).normal(0, 0.3, size=(8, 8))
        inp = enc.pack_inputs(vocab, [ex])
        target = Tensor(np.random.default_rng(3).normal(size=(len(ex) + 2, 8)))

        def f():
            return gc.dot(enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp)), target)

        assert gc.finite_difference_check(f, params) < 1e-4

    def test_finite_difference_with_dropout_over_packed_rows(self):
        examples = [corpus.make_example(s, []) for s in ("great", "the steak was great")]
        vocab = enc.Vocab.build(examples)
        cfg = enc.EncoderConfig(vocab_size=len(vocab.words), d_w=6, d_p=2, hidden=8,
                                n_layers=1, n_heads=2, d_ff=12, dropout_rate=0.3)
        params = ad.ParamStore()
        enc.init_encoder_params(params, cfg, np.random.default_rng(1))
        inp = enc.pack_inputs(vocab, examples)
        target = Tensor(np.random.default_rng(3).normal(size=(len(inp), 8)))

        words = enc.dropout_words(cfg, inp.lengths, np.random.default_rng(4))

        def f():   # the same dropout masks on every call
            states = enc.encode(params, cfg, enc.embed_tokens(params, cfg, inp),
                                segments=inp.segments, words=words)
            return gc.dot(states, target)

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
