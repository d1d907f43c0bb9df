import math

import numpy as np
import pytest

import aam_oracle as oracle
import gradcheck as gc
from maskterm import autodiff as ad
from maskterm import masking as mk
from maskterm.autodiff import Tensor
from maskterm.exceptions import ContractError

TABLE_TOKENS = ["the", "steak", "was", "incredibly", "tender", "and", "flavor",
                "ful", ",", "but", "service", "quite", "slow", "."]
TABLE_SCORES = np.array([0.0460, 0.1082, 0.0561, 0.0867, 0.0775, 0.0323, 0.0265,
                         0.0319, 0.0275, 0.0977, 0.0794, 0.0413, 0.0648, 0.0493])
TABLE_KEPT = {"steak", "incredibly", "tender", "but", "service", "slow"}


class TestTokenAttention:
    def test_zero_weights_uniform(self):
        states = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        attn = mk.token_attention(states, Tensor(np.zeros(4)), d_k=4)
        assert np.allclose(attn.data, 0.2)

    def test_singleton(self):
        attn = mk.token_attention(Tensor(np.ones((1, 4))), Tensor(np.ones(4)), d_k=4)
        assert np.allclose(attn.data, [1.0])

    def test_matches_exp_sum_oracle(self):
        rng = np.random.default_rng(4)
        states = rng.normal(size=(3, 6))
        w = rng.normal(size=6)
        attn = mk.token_attention(Tensor(states), Tensor(w), d_k=6).data
        logits = states @ w / math.sqrt(6)
        expect = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(attn, expect, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            states = rng.normal(size=(n, 8))
            attn = mk.token_attention(Tensor(states), Tensor(rng.normal(size=8)), d_k=8)
            assert abs(attn.data.sum() - 1.0) <= 1e-9


class TestAspectRelevance:
    def test_beta_zero_uniform(self):
        rng = np.random.default_rng(1)
        states = Tensor(rng.normal(size=(7, 4)))
        attn = Tensor(np.full(7, 1.0 / 7))
        rel = mk.aspect_relevance(states, attn, Tensor(rng.normal(size=4)), Tensor(0.0))
        assert np.abs(rel.data - 1.0 / 7).max() <= 1e-12

    def test_singleton(self):
        rel = mk.aspect_relevance(Tensor(np.ones((1, 3))), Tensor([1.0]),
                                  Tensor([1.0, 0.0, 0.0]), Tensor(1.0))
        assert np.allclose(rel.data, [1.0])

    def test_two_token_cosines_one_and_zero(self):
        states = Tensor(np.array([[2.0, 0.0], [0.0, 3.0]]))
        attn = Tensor(np.array([0.5, 0.5]))
        rel = mk.aspect_relevance(states, attn, Tensor([1.0, 0.0]), Tensor(1.0))
        e = math.e
        assert np.allclose(rel.data, [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-12)

    def test_zero_aspect_vector_uniform(self):
        states = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
        rel = mk.aspect_relevance(states, Tensor(np.full(4, 0.25)),
                                  Tensor(np.zeros(3)), Tensor(2.0))
        assert np.allclose(rel.data, 0.25)

    def test_packed_null_vector_uniform_only_in_its_segment(self):
        rng = np.random.default_rng(4)
        states = Tensor(rng.normal(size=(7, 3)))
        attn = Tensor(rng.uniform(0.1, 1.0, size=7))
        vec = rng.normal(size=3)
        params = ad.ParamStore()
        beta = params.add("beta", 1.4)
        coeffs = Tensor(rng.normal(size=7))

        def packed():
            return mk.aspect_relevance(states, attn, Tensor(np.stack([np.zeros(3), vec])),
                                       beta, ad.Segments([3, 4]))

        alone = mk.aspect_relevance(Tensor(states.data[3:]), Tensor(attn.data[3:]),
                                    Tensor(vec), beta)
        rel = packed()
        assert np.allclose(rel.data[:3], 1.0 / 3)
        assert np.abs(rel.data[3:] - alone.data).max() <= 1e-15
        assert gc.finite_difference_check(lambda: ad.tsum(ad.mul(packed(), coeffs)), params) < 1e-6

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            states = Tensor(rng.normal(size=(n, 5)))
            attn = ad.softmax(Tensor(rng.normal(size=n)))
            rel = mk.aspect_relevance(states, attn, Tensor(rng.normal(size=5)),
                                      Tensor(float(rng.normal())))
            assert abs(rel.data.sum() - 1.0) <= 1e-9

    def test_differentiable_wrt_w_a_and_beta(self):
        # Composed the way the pipeline consumes them: attention and relevance
        # feed the threshold, whose margin gates the states.
        rng = np.random.default_rng(8)
        params = ad.ParamStore()
        w_a = params.add("w_a", rng.normal(size=6) * 0.3)
        alpha = params.add("alpha", 0.9)
        gamma = params.add("gamma", 0.2)
        beta = params.add("beta", 1.3)
        states = Tensor(rng.normal(size=(5, 6)))
        aspect = Tensor(rng.normal(size=6))
        coeffs = Tensor(rng.normal(size=(5, 6)))

        def f():
            attn = mk.token_attention(states, w_a, d_k=6)
            rel = mk.aspect_relevance(states, attn, aspect, beta)
            tau = mk.actm_threshold(attn, alpha, "mean", relevance=rel, gamma=gamma)
            decision = mk.apply_mask(attn, tau, states, surrogate=True)
            return ad.tsum(ad.mul(decision.masked_states, coeffs))

        assert gc.finite_difference_check(f, params) < 1e-4


class TestActmThreshold:
    def test_table_mean_threshold(self):
        attn = Tensor(TABLE_SCORES)
        tau = mk.actm_threshold(attn, Tensor(1.0), "mean")
        assert tau.data.shape == (14,)
        assert np.all(np.abs(tau.data - 0.0590) <= 1e-4)
        assert np.allclose(tau.data, tau.data[0])

    def test_alpha_zero_masks_nothing(self):
        attn = Tensor(TABLE_SCORES)
        tau = mk.actm_threshold(attn, Tensor(0.0), "mean")
        decision = mk.apply_mask(attn, tau, Tensor(np.ones((14, 3))))
        assert decision.kept.all()

    def test_gamma_zero_equals_ate_mode(self):
        attn = Tensor(TABLE_SCORES)
        rel = Tensor(np.random.default_rng(0).dirichlet(np.ones(14)))
        ate = mk.actm_threshold(attn, Tensor(0.8), "mean")
        asc = mk.actm_threshold(attn, Tensor(0.8), "mean", relevance=rel, gamma=Tensor(0.0))
        assert np.allclose(ate.data, asc.data, atol=1e-15)


class TestApplyMask:
    def test_table_case(self):
        attn = Tensor(TABLE_SCORES)
        tau = mk.actm_threshold(attn, Tensor(1.0), "mean")
        states = Tensor(np.random.default_rng(0).normal(size=(14, 8)))
        decision = mk.apply_mask(attn, tau, states)
        kept_tokens = {t for t, k in zip(TABLE_TOKENS, decision.kept) if k}
        assert kept_tokens == TABLE_KEPT
        assert (~decision.kept).sum() == 8
        assert not decision.masked_states.data[~decision.kept].any()
        assert np.array_equal(decision.masked_states.data[decision.kept],
                              states.data[decision.kept])

    def test_zero_threshold_keeps_everything(self):
        attn = Tensor(TABLE_SCORES)
        states = Tensor(np.random.default_rng(1).normal(size=(14, 4)))
        decision = mk.apply_mask(attn, Tensor(np.zeros(14)), states)
        assert decision.kept.all()
        assert np.array_equal(decision.masked_states.data, states.data)

    def test_boundary_tie_kept(self):
        attn = Tensor([0.3, 0.7])
        decision = mk.apply_mask(attn, Tensor([0.3, 0.8]), Tensor(np.ones((2, 2))))
        assert decision.kept[0] and not decision.kept[1]
        assert decision.masked_states.data.tolist() == [[1.0, 1.0], [0.0, 0.0]]

    def test_all_masked_fallback_keeps_top(self):
        attn = Tensor(TABLE_SCORES)
        tau = mk.actm_threshold(attn, Tensor(2.0), "mean")
        decision = mk.apply_mask(attn, tau, Tensor(np.ones((14, 2))))
        assert decision.kept.sum() == 1
        assert TABLE_TOKENS[int(np.flatnonzero(decision.kept)[0])] == "steak"

    def test_protected_always_kept(self):
        attn = Tensor([0.01, 0.5, 0.49])
        decision = mk.apply_mask(attn, Tensor(np.full(3, 0.4)), Tensor(np.ones((3, 2))),
                                 protected={0})
        assert decision.kept.tolist() == [True, True, True]

    def test_idempotent_for_fixed_inputs(self):
        attn = Tensor(TABLE_SCORES)
        tau = mk.actm_threshold(attn, Tensor(1.0), "mean")
        states = Tensor(np.random.default_rng(2).normal(size=(14, 4)))
        first = mk.apply_mask(attn, tau, states)
        second = mk.apply_mask(attn, tau, states)
        assert np.array_equal(first.kept, second.kept)
        assert np.array_equal(first.tau, second.tau)
        assert np.array_equal(first.masked_states.data, second.masked_states.data)

    def test_masked_states_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            attn = ad.softmax(Tensor(rng.normal(size=n)))
            tau = Tensor(rng.uniform(0, 2.0 / n, size=n))
            states = Tensor(rng.normal(size=(n, 3)))
            decision = mk.apply_mask(attn, tau, states)
            for i in range(n):
                if decision.kept[i]:
                    assert np.array_equal(decision.masked_states.data[i], states.data[i])
                else:
                    assert not decision.masked_states.data[i].any()


class TestActmMonotonicity:
    def test_kept_set_shrinks_as_alpha_grows(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            attn = Tensor(rng.dirichlet(np.ones(n)))
            states = Tensor(np.ones((n, 2)))
            for agg in ad.AGGREGATOR_KINDS:
                prev = None
                for alpha in [0.0, 0.5, 1.0, 1.5, 2.0]:
                    tau = mk.actm_threshold(attn, Tensor(alpha), agg)
                    kept = frozenset(np.flatnonzero(mk.apply_mask(attn, tau, states).kept).tolist())
                    if prev is not None:
                        assert kept <= prev, f"kept set grew under alpha={alpha} agg={agg}"
                    prev = kept


class TestAamSoftMask:
    def test_exact_grid(self):
        got = [float(oracle.aam_soft_mask(x, z=2.0, ramp=2.0)) for x in range(7)]
        assert got == [1.0, 1.0, 1.0, 0.5, 0.0, 0.0, 0.0]

    def test_monotone_and_saturating(self):
        xs = np.linspace(0, 10, 201)
        vals = oracle.aam_soft_mask(xs, z=1.7, ramp=2.5)
        assert (np.diff(vals) <= 1e-15).all()
        assert (vals[xs <= 1.7] == 1.0).all()
        assert (vals[xs >= 1.7 + 2.5] == 0.0).all()

    def test_bad_ramp_rejected(self):
        with pytest.raises(ContractError):
            oracle.aam_soft_mask(1.0, 1.0, ramp=0.0)


class TestAamRatio:
    def test_examples(self):
        assert oracle.aam_ratio([1.0, 1.0, 1.0]) == 1.0
        assert oracle.aam_ratio([0.0, 0.0]) == 0.0
        assert oracle.aam_ratio([1.0, 0.5, 0.0]) == 0.5


class TestAamSpanBounds:
    def test_cases(self):
        assert oracle.aam_span_bounds(5, 2.0, 20) == (3, 7)
        assert oracle.aam_span_bounds(0, 3.0, 10) == (0, 3)
        assert oracle.aam_span_bounds(4, 0.0, 9) == (4, 4)

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            oracle.aam_span_bounds(9, 1.0, 9)


class TestAamAttention:
    def test_saturated_mask_equals_plain_softmax(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=6)
        weights = oracle.aam_attention(2, Tensor(scores), z=10.0, ramp=2.0)
        expect = np.exp(scores) / np.exp(scores).sum()
        assert np.allclose(weights.data, expect, atol=1e-12)

    def test_probability_vector_with_zero_support(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            p = int(rng.integers(n))
            z = float(rng.uniform(0, 4))
            ramp = float(rng.uniform(0.5, 3))
            weights = oracle.aam_attention(p, Tensor(rng.normal(size=n)), z=z, ramp=ramp).data
            assert abs(weights.sum() - 1.0) <= 1e-9
            distances = np.abs(np.arange(n) - p)
            outside = oracle.aam_soft_mask(distances, z, ramp) == 0.0
            assert (weights[outside] == 0.0).all()
            lo, hi = oracle.aam_span_bounds(p, z, n)
            beyond = (np.arange(n) < lo - math.ceil(ramp)) | (np.arange(n) > hi + math.ceil(ramp))
            assert (weights[beyond] == 0.0).all()

    def test_hand_case_matches_direct_evaluation(self):
        scores = np.array([0.4, -0.2, 1.1, 0.3])
        z, ramp, p = 1.3, 2.0, 1
        m = oracle.aam_soft_mask(np.abs(np.arange(4) - p), z, ramp)
        ratio = m.mean()
        logits = scores * m * ratio
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()
        got = oracle.aam_attention(p, Tensor(scores), z=z, ramp=ramp).data
        assert np.allclose(got, expect, atol=1e-12)

    def test_differentiable_in_ramp_region(self):
        params = ad.ParamStore()
        z = params.add("z", 1.3)
        scores = Tensor(np.array([0.2, 0.5, -0.1, 0.8, 0.05]))
        coeff = Tensor(np.array([1.0, -2.0, 0.5, 3.0, 1.5]))

        def f():
            w = oracle.aam_attention(1, scores, z=z, ramp=2.0)
            return ad.tsum(ad.mul(w, coeff))

        assert gc.finite_difference_check(f, params) < 1e-4


class TestAmomPieces:
    def test_correctness_ratio(self):
        assert mk.amom_correctness_ratio(["B", "I", "O"], ["B", "I", "O"]) == 1.0
        assert mk.amom_correctness_ratio(["B", "B"], ["O", "I"]) == 0.0
        assert mk.amom_correctness_ratio([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_ratio_length_mismatch(self):
        with pytest.raises(ContractError):
            mk.amom_correctness_ratio([1], [1, 2])

    def test_mask_count(self):
        cfg = mk.MaskConfig(amom_mu_min=0.1, amom_mu_max=0.5)
        mu, _ = mk.amom_mask_count(1.0, 10, cfg)
        assert mu == pytest.approx(0.1)
        _, n = mk.amom_mask_count(0.0, 10, cfg)
        assert n == 5
        _, n = mk.amom_mask_count(1.0, 4, cfg)  # mu*|Y| = 0.4 -> clamped to 1
        assert n == 1

    def test_mu_non_increasing_and_count_bounds(self):
        cfg = mk.MaskConfig(amom_mu_min=0.15, amom_mu_max=0.6)
        grid = np.linspace(0, 1, 101)
        mus = [mk.amom_mask_count(r, 12, cfg)[0] for r in grid]
        assert all(b <= a + 1e-15 for a, b in zip(mus, mus[1:]))
        for r in grid:
            _, n = mk.amom_mask_count(r, 12, cfg)
            assert 1 <= n <= 12

    def test_selection_matches_bruteforce_sort(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = int(rng.integers(1, 13))
            probs = np.round(rng.random(m), 3)  # ties likely
            correct = rng.random(m) < 0.5
            n_mask = int(rng.integers(1, m + 1))
            got = mk.amom_select_positions(probs, correct, n_mask)
            oracle = sorted(range(m), key=lambda i: (bool(correct[i]), probs[i], i))[:n_mask]
            assert got == oracle


class TestAmomRegenerate:
    @staticmethod
    def stub_forward(*base_probs, scored=False):
        """Masked positions of instance b collapse to a uniform prediction;
        with `scored`, its loss is its summed negative log max-probability."""
        def forward(masked):
            probs = []
            for b, hidden in masked.items():
                p = base_probs[b].copy()
                p[sorted(hidden)] = 1.0 / p.shape[1]
                probs.append(p)
            losses = [float(-np.log(p.max(axis=1)).sum()) for p in probs] if scored else None
            return probs, losses
        return forward

    def test_perfect_prediction_masks_minimum(self):
        gold = np.array([0, 1, 2, 1, 0, 2, 1, 0, 2, 1])
        probs = np.full((10, 3), 0.05)
        probs[np.arange(10), gold] = 0.9
        cfg = mk.MaskConfig(amom_mu_min=0.1, amom_mu_max=0.5, amom_iterations=1)
        _, _, history = mk.amom_regenerate(self.stub_forward(probs), cfg, 1, [gold])
        assert len(history) == 1
        assert len(history[0]) == max(1, int(math.floor(0.1 * 10 + 0.5)))

    def test_single_iteration_single_round(self):
        gold = np.array([0, 1])
        probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1]])
        cfg = mk.MaskConfig(amom_iterations=1)
        _, losses, history = mk.amom_regenerate(self.stub_forward(probs), cfg, 1, [gold])
        assert len(history) == 1 and len(losses) == 2

    def test_incorrect_positions_selected_first(self):
        gold = np.array([0, 0, 0, 0])
        probs = np.array([
            [0.9, 0.05, 0.05],   # correct, high confidence
            [0.2, 0.7, 0.1],     # incorrect
            [0.55, 0.4, 0.05],   # correct, lower confidence
            [0.1, 0.2, 0.7],     # incorrect
        ])
        cfg = mk.MaskConfig(amom_mu_min=0.5, amom_mu_max=0.5, amom_iterations=1)
        _, _, history = mk.amom_regenerate(self.stub_forward(probs), cfg, 1, [gold])
        assert history[0] == {1, 3}

    def test_asc_mode_hides_left_to_right(self):
        """Given maskable counts, the one prediction row ranks nothing: the
        first positions are hidden, as many as the ratio asks for."""
        gold = np.array([1])
        probs = np.array([[0.2, 0.8]])

        def forward(masked):
            return [probs], None

        cfg = mk.MaskConfig(amom_mu_min=0.4, amom_mu_max=0.4, amom_iterations=1)
        _, _, history = mk.amom_regenerate(forward, cfg, 1, [gold], maskable=[1])
        assert history[0] == {0}
        _, _, history = mk.amom_regenerate(forward, cfg, 1, [gold], maskable=[8])
        assert history[0] == {0, 1, 2}   # round(0.4 * 8 + 0.5) positions

    def test_without_gold_remasks_least_confident(self, monkeypatch):
        probs = np.array([
            [0.9, 0.05, 0.05],   # max 0.9
            [0.4, 0.3, 0.3],     # max 0.4
            [0.2, 0.6, 0.2],     # max 0.6
            [0.25, 0.25, 0.5],   # max 0.5
        ])
        ratios = []
        count = mk.amom_mask_count

        def spy(ratio, length, cfg):
            ratios.append(ratio)
            return count(ratio, length, cfg)

        monkeypatch.setattr(mk, "amom_mask_count", spy)
        cfg = mk.MaskConfig(amom_mu_min=0.25, amom_mu_max=0.75, amom_iterations=1)
        _, losses, history = mk.amom_regenerate(self.stub_forward(probs), cfg, 1)
        # R = mean max-probability 0.6 -> mu 0.45 -> round(1.8) = 2 positions
        assert ratios == [pytest.approx(0.6, abs=1e-15)]
        assert history == [{1, 3}] and len(losses) == 2

    def test_nothing_maskable_runs_first_pass_only(self):
        calls = []

        def forward(masked):
            calls.append(dict(masked))
            return [np.array([[0.2, 0.8, 0.0]])], None

        _, losses, history = mk.amom_regenerate(forward, mk.MaskConfig(), 1, [np.array([1])],
                                                maskable=[0])
        assert calls == [{0: set()}] and losses == [None] and history == []

    @pytest.mark.parametrize("selector", ["gold", "confidence", "maskable"])
    def test_instances_run_together_as_alone(self, selector):
        rng = np.random.default_rng(8)
        base = [rng.dirichlet(np.ones(3), size=m) for m in (7, 4)]
        gold = [rng.integers(0, 3, size=p.shape[0]) for p in base] if selector == "gold" else None
        maskable = [5, 3] if selector == "maskable" else None
        cfg = mk.MaskConfig(amom_mu_min=0.2, amom_mu_max=0.6, amom_iterations=3)
        calls = []
        stub = self.stub_forward(*base, scored=True)

        def forward(masked):
            calls.append(list(masked))
            return stub(masked)

        probs, losses, history = mk.amom_regenerate(forward, cfg, 2, gold, maskable)
        assert calls == [[0, 1]] * 4
        for b in range(2):
            alone = mk.amom_regenerate(self.stub_forward(base[b], scored=True), cfg, 1,
                                       gold and [gold[b]], maskable and [maskable[b]])
            assert np.array_equal(probs[b], alone[0][0])
            assert losses[b::2] == alone[1] and history[b::2] == alone[2]
            assert len(alone[2]) == 3 and all(alone[2])

    def test_instance_with_nothing_maskable_sits_out(self):
        base = [np.array([[0.6, 0.3, 0.1]]), np.array([[0.5, 0.4, 0.1], [0.2, 0.2, 0.6]])]
        calls = []
        stub = self.stub_forward(*base)

        def forward(masked):
            calls.append(list(masked))
            return stub(masked)

        cfg = mk.MaskConfig(amom_iterations=2)
        probs, losses, history = mk.amom_regenerate(forward, cfg, 2, maskable=[0, 2])
        assert calls == [[0, 1], [1], [1]]
        assert np.array_equal(probs[0], base[0]) and len(history) == 2 and len(losses) == 4


class TestTrace:
    def test_format_round_trip(self):
        attn = Tensor(TABLE_SCORES)
        tau = mk.actm_threshold(attn, Tensor(1.0), "mean")
        decision = mk.apply_mask(attn, tau, Tensor(np.zeros((14, 2))))
        text = mk.format_mask_trace(TABLE_TOKENS, decision)
        lines = text.strip().split("\n")
        assert lines[0] == "token\tattn\ttau\tkept"
        assert len(lines) == 1 + 14 + 2
        total = float(lines[-2].split("\t")[1])
        mean = float(lines[-1].split("\t")[1])
        assert total == pytest.approx(0.8252, abs=5e-4)
        assert mean == pytest.approx(0.0590, abs=1e-4)
        kept = {line.split("\t")[0] for line in lines[1:15] if line.split("\t")[3] == "yes"}
        assert kept == TABLE_KEPT
