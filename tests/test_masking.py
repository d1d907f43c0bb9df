import math

import numpy as np
import pytest

import aam_oracle as oracle
from maskterm import autodiff as ad
from maskterm import masking as mk
from maskterm.exceptions import ContractError

TABLE_TOKENS = ["the", "steak", "was", "incredibly", "tender", "and", "flavor",
                "ful", ",", "but", "service", "quite", "slow", "."]
TABLE_SCORES = np.array([0.0460, 0.1082, 0.0561, 0.0867, 0.0775, 0.0323, 0.0265,
                         0.0319, 0.0275, 0.0977, 0.0794, 0.0413, 0.0648, 0.0493])
TABLE_KEPT = {"steak", "incredibly", "tender", "but", "service", "slow"}


def central_differences(f, inputs, coeffs, h=1e-6):
    """The gradient of sum(coeffs * f(*inputs)) with respect to each input
    array, by central differences; the inputs are perturbed in place."""
    grads = []
    for x in inputs:
        flat = x.reshape(-1)   # a view, 0-d arrays included
        grad = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = (coeffs * f(*inputs)).sum()
            flat[i] = orig - h
            down = (coeffs * f(*inputs)).sum()
            flat[i] = orig
            grad[i] = (up - down) / (2 * h)
        grads.append(grad.reshape(x.shape))
    return grads


def assert_gradients(analytic, numeric):
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=1e-6, atol=1e-8)


class TestTokenAttention:
    def test_zero_weights_uniform(self):
        states = np.random.default_rng(0).normal(size=(5, 4))
        attn, _ = mk.token_attention(states, np.zeros(4), d_k=4)
        assert np.allclose(attn, 0.2)

    def test_singleton(self):
        attn, _ = mk.token_attention(np.ones((1, 4)), np.ones(4), d_k=4)
        assert np.allclose(attn, [1.0])

    def test_matches_exp_sum_oracle(self):
        rng = np.random.default_rng(4)
        states = rng.normal(size=(3, 6))
        w = rng.normal(size=6)
        attn, _ = mk.token_attention(states, w, d_k=6)
        logits = states @ w / math.sqrt(6)
        expect = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(attn, expect, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            states = rng.normal(size=(n, 8))
            attn, _ = mk.token_attention(states, rng.normal(size=8), d_k=8)
            assert abs(attn.sum() - 1.0) <= 1e-9


class TestAspectRelevance:
    def test_beta_zero_uniform(self):
        rng = np.random.default_rng(1)
        states = rng.normal(size=(7, 4))
        rel, _ = mk.aspect_relevance(states, np.full(7, 1.0 / 7), rng.normal(size=4), 0.0)
        assert np.abs(rel - 1.0 / 7).max() <= 1e-12

    def test_singleton(self):
        rel, _ = mk.aspect_relevance(np.ones((1, 3)), np.array([1.0]), np.array([1.0, 0.0, 0.0]),
                                     1.0)
        assert np.allclose(rel, [1.0])

    def test_two_token_cosines_one_and_zero(self):
        states = np.array([[2.0, 0.0], [0.0, 3.0]])
        rel, _ = mk.aspect_relevance(states, np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1.0)
        e = math.e
        assert np.allclose(rel, [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-12)

    def test_zero_aspect_vector_uniform(self):
        states = np.random.default_rng(2).normal(size=(4, 3))
        rel, _ = mk.aspect_relevance(states, np.full(4, 0.25), np.zeros(3), 2.0)
        assert np.allclose(rel, 0.25)

    def test_packed_null_vector_uniform_only_in_its_segment(self):
        rng = np.random.default_rng(4)
        states = rng.normal(size=(7, 3))
        attn = rng.uniform(0.1, 1.0, size=7)
        vec = rng.normal(size=3)
        beta = np.array(1.4)
        coeffs = rng.normal(size=7)

        def packed(beta):
            return mk.aspect_relevance(states, attn, np.stack([np.zeros(3), vec]), beta,
                                       ad.Segments([3, 4]))

        alone, _ = mk.aspect_relevance(states[3:], attn[3:], vec, beta)
        rel, backward = packed(beta)
        assert np.allclose(rel[:3], 1.0 / 3)
        assert np.abs(rel[3:] - alone).max() <= 1e-15
        assert_gradients([backward(coeffs)[3]],
                         central_differences(lambda b: packed(b)[0], [beta], coeffs))

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            states = rng.normal(size=(n, 5))
            attn = ad.softmax_kernel(rng.normal(size=n))[0]
            rel, _ = mk.aspect_relevance(states, attn, rng.normal(size=5), float(rng.normal()))
            assert abs(rel.sum() - 1.0) <= 1e-9

    def test_differentiable_wrt_w_a_and_beta(self):
        # Composed the way the pipeline consumes them: attention and relevance
        # feed the threshold, whose margin gates the states.
        rng = np.random.default_rng(8)
        w_a = rng.normal(size=6) * 0.3
        alpha, gamma, beta = np.array(0.9), np.array(0.2), np.array(1.3)
        states = rng.normal(size=(5, 6))
        aspect = rng.normal(size=6)
        coeffs = rng.normal(size=(5, 6))

        def f(w_a, alpha, gamma, beta):
            attn, attn_backward = mk.token_attention(states, w_a, d_k=6)
            rel, rel_backward = mk.aspect_relevance(states, attn, aspect, beta)
            tau, tau_backward = mk.actm_threshold(attn, alpha, "mean", relevance=rel, gamma=gamma)
            decision = mk.apply_mask(attn, tau, states, surrogate=True)

            def backward(g):
                dattn, dtau, _ = decision.backward(g)
                dattn_tau, dalpha, drel, dgamma = tau_backward(dtau)
                _, dattn_rel, _, dbeta = rel_backward(drel)
                _, dw_a = attn_backward(dattn + dattn_tau + dattn_rel)
                return [dw_a, dalpha, dgamma, dbeta]

            return decision.masked_states, backward

        inputs = [w_a, alpha, gamma, beta]
        assert_gradients(f(*inputs)[1](coeffs),
                         central_differences(lambda *x: f(*x)[0], inputs, coeffs))


class TestActmThreshold:
    def test_table_mean_threshold(self):
        tau, _ = mk.actm_threshold(TABLE_SCORES, 1.0, "mean")
        assert tau.shape == (14,)
        assert np.all(np.abs(tau - 0.0590) <= 1e-4)
        assert np.allclose(tau, tau[0])

    def test_alpha_zero_masks_nothing(self):
        tau, _ = mk.actm_threshold(TABLE_SCORES, 0.0, "mean")
        decision = mk.apply_mask(TABLE_SCORES, tau, np.ones((14, 3)))
        assert decision.kept.all()

    def test_gamma_zero_equals_ate_mode(self):
        rel = np.random.default_rng(0).dirichlet(np.ones(14))
        ate, _ = mk.actm_threshold(TABLE_SCORES, 0.8, "mean")
        asc, _ = mk.actm_threshold(TABLE_SCORES, 0.8, "mean", relevance=rel, gamma=0.0)
        assert np.allclose(ate, asc, atol=1e-15)


class TestApplyMask:
    def test_table_case(self):
        tau, _ = mk.actm_threshold(TABLE_SCORES, 1.0, "mean")
        states = np.random.default_rng(0).normal(size=(14, 8))
        decision = mk.apply_mask(TABLE_SCORES, tau, states)
        kept_tokens = {t for t, k in zip(TABLE_TOKENS, decision.kept) if k}
        assert kept_tokens == TABLE_KEPT
        assert (~decision.kept).sum() == 8
        assert not decision.masked_states[~decision.kept].any()
        assert np.array_equal(decision.masked_states[decision.kept], states[decision.kept])

    def test_zero_threshold_keeps_everything(self):
        states = np.random.default_rng(1).normal(size=(14, 4))
        decision = mk.apply_mask(TABLE_SCORES, np.zeros(14), states)
        assert decision.kept.all()
        assert np.array_equal(decision.masked_states, states)

    def test_boundary_tie_kept(self):
        decision = mk.apply_mask(np.array([0.3, 0.7]), np.array([0.3, 0.8]), np.ones((2, 2)))
        assert decision.kept[0] and not decision.kept[1]
        assert decision.masked_states.tolist() == [[1.0, 1.0], [0.0, 0.0]]

    def test_all_masked_fallback_keeps_top(self):
        tau, _ = mk.actm_threshold(TABLE_SCORES, 2.0, "mean")
        decision = mk.apply_mask(TABLE_SCORES, tau, np.ones((14, 2)))
        assert decision.kept.sum() == 1
        assert TABLE_TOKENS[int(np.flatnonzero(decision.kept)[0])] == "steak"

    def test_protected_always_kept(self):
        decision = mk.apply_mask(np.array([0.01, 0.5, 0.49]), np.full(3, 0.4), np.ones((3, 2)),
                                 protected={0})
        assert decision.kept.tolist() == [True, True, True]

    def test_idempotent_for_fixed_inputs(self):
        tau, _ = mk.actm_threshold(TABLE_SCORES, 1.0, "mean")
        states = np.random.default_rng(2).normal(size=(14, 4))
        first = mk.apply_mask(TABLE_SCORES, tau, states)
        second = mk.apply_mask(TABLE_SCORES, tau, states)
        assert np.array_equal(first.kept, second.kept)
        assert np.array_equal(first.tau, second.tau)
        assert np.array_equal(first.masked_states, second.masked_states)

    def test_masked_states_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            attn = ad.softmax_kernel(rng.normal(size=n))[0]
            tau = rng.uniform(0, 2.0 / n, size=n)
            states = rng.normal(size=(n, 3))
            decision = mk.apply_mask(attn, tau, states)
            for i in range(n):
                if decision.kept[i]:
                    assert np.array_equal(decision.masked_states[i], states[i])
                else:
                    assert not decision.masked_states[i].any()

    def test_without_states_only_the_verdicts(self):
        tau, _ = mk.actm_threshold(TABLE_SCORES, 1.0, "mean")
        decision = mk.apply_mask(TABLE_SCORES, tau, protected={0})
        with_states = mk.apply_mask(TABLE_SCORES, tau, np.ones((14, 2)), protected={0})
        assert np.array_equal(decision.kept, with_states.kept)
        assert decision.masked_states is None and decision.backward is None


class TestActmMonotonicity:
    def test_kept_set_shrinks_as_alpha_grows(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            attn = rng.dirichlet(np.ones(n))
            for agg in mk.AGGREGATOR_KINDS:
                prev = None
                for alpha in [0.0, 0.5, 1.0, 1.5, 2.0]:
                    tau, _ = mk.actm_threshold(attn, alpha, agg)
                    kept = frozenset(np.flatnonzero(mk.apply_mask(attn, tau).kept).tolist())
                    if prev is not None:
                        assert kept <= prev, f"kept set grew under alpha={alpha} agg={agg}"
                    prev = kept


class TestKernelGradients:
    """Each threshold kernel's backward against central differences, in
    float64, on a packed batch of sequences of 1, 4 and 5 tokens."""

    SEG = ad.Segments([1, 4, 5])

    @staticmethod
    def draws(seed=0):
        rng = np.random.default_rng(seed)
        return rng, rng.normal(size=(10, 3)), rng.uniform(0.05, 0.6, size=10)

    def test_token_attention(self):
        rng, states, _ = self.draws()
        w_a, coeffs = rng.normal(size=3), rng.normal(size=10)

        def f(states, w_a):
            return mk.token_attention(states, w_a, 3, self.SEG)

        assert_gradients(f(states, w_a)[1](coeffs),
                         central_differences(lambda *x: f(*x)[0], [states, w_a], coeffs))

    @pytest.mark.parametrize("null", [False, True], ids=["aspects", "null-aspect"])
    def test_aspect_relevance(self, null):
        """With a null aspect vector the second sequence's relevance is
        uniform and gets no gradient; the other vectors are checked."""
        rng, states, attn = self.draws(1)
        vecs, beta, coeffs = rng.normal(size=(3, 3)), np.array(1.3), rng.normal(size=10)
        live = [0, 2] if null else [0, 1, 2]

        def f(states, attn, live_vecs, beta):
            full = np.zeros((3, 3))
            full[live] = live_vecs
            return mk.aspect_relevance(states, attn, full, beta, self.SEG)

        inputs = [states, attn, vecs[live], beta]
        rel, backward = f(*inputs)
        dstates, dattn, dvecs, dbeta = backward(coeffs)
        if null:
            assert np.allclose(rel[1:5], 0.25) and not dvecs[1].any()
            assert not dstates[1:5].any() and not dattn[1:5].any()
        assert_gradients([dstates, dattn, dvecs[live], dbeta],
                         central_differences(lambda *x: f(*x)[0], inputs, coeffs))

    @pytest.mark.parametrize("aggregator", mk.AGGREGATOR_KINDS)
    def test_actm_threshold(self, aggregator):
        rng, _, attn = self.draws(2)
        alpha, gamma = np.array(0.9), np.array(-0.4)
        relevance, coeffs = rng.uniform(size=10), rng.normal(size=10)

        def f(attn, alpha, relevance, gamma):
            return mk.actm_threshold(attn, alpha, aggregator, relevance, gamma, self.SEG)

        inputs = [attn, alpha, relevance, gamma]
        assert_gradients(f(*inputs)[1](coeffs),
                         central_differences(lambda *x: f(*x)[0], inputs, coeffs))

    def test_sd_of_a_constant_segment_has_zero_gradient(self):
        attn = np.array([0.3, 2.0, 2.0, 2.0, 2.0, 0.1, 0.5, 0.2, 0.9, 0.4])
        tau, backward = mk.actm_threshold(attn, 1.0, "sd", segments=self.SEG)
        dattn = backward(np.ones(10))[0]
        assert not tau[1:5].any()
        assert np.isfinite(dattn).all() and not dattn[1:5].any() and dattn[5:].any()

    def test_gate_in_both_modes(self):
        """The surrogate gate, margin plus protection, against central
        differences; the straight-through gate forwards the hard verdict
        and hands attn and tau the same gradient."""
        rng, states, attn = self.draws(3)
        tau, coeffs = rng.uniform(0.05, 0.6, size=10), rng.normal(size=(10, 3))
        protected = [0, 5]

        def f(attn, tau, states, surrogate=True):
            return mk.apply_mask(attn, tau, states, protected, surrogate, self.SEG)

        inputs = [attn, tau, states]
        surrogate = f(*inputs)
        gate = np.maximum(attn - tau, 0.0) + np.isin(np.arange(10), protected)
        assert np.array_equal(surrogate.masked_states, states * gate[:, None])
        assert_gradients(surrogate.backward(coeffs),
                         central_differences(lambda *x: f(*x).masked_states, inputs, coeffs))
        hard = f(*inputs, surrogate=False)
        assert np.array_equal(hard.masked_states, states * hard.kept[:, None])
        dattn, dtau, dstates = hard.backward(coeffs)
        assert np.array_equal(dattn, surrogate.backward(coeffs)[0]) and np.array_equal(dtau, -dattn)
        assert_gradients([dstates], central_differences(
            lambda s: f(attn, tau, s, surrogate=False).masked_states, [states], coeffs))

    @pytest.mark.parametrize("z", [1.3, -2.5], ids=["ramp", "empty-support"])
    def test_aam_remix(self, z):
        """z = 1.3 puts distances 2 and 3 on the ramp, away from its kinks.
        z = -2.5 would leave every row with an empty support: refused."""
        rng, states, _ = self.draws(4)
        z, coeffs = np.array(z), rng.normal(size=(10, 3))

        def f(states, z):
            return mk.aam_remix(states, z, 2.0, 3, self.SEG)

        if z <= -2.0:
            with pytest.raises(ContractError, match="must exceed -ramp"):
                f(states, z)
            return
        dstates, dz = f(states, z)[1](coeffs)
        assert_gradients([dstates, dz],
                         central_differences(lambda *x: f(*x)[0], [states, z], coeffs))


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
        weights = oracle.aam_attention(2, scores, z=10.0, ramp=2.0)
        expect = np.exp(scores) / np.exp(scores).sum()
        assert np.allclose(weights, expect, atol=1e-12)

    def test_probability_vector_with_zero_support(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            p = int(rng.integers(n))
            z = float(rng.uniform(0, 4))
            ramp = float(rng.uniform(0.5, 3))
            weights = oracle.aam_attention(p, rng.normal(size=n), z=z, ramp=ramp)
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
        got = oracle.aam_attention(p, scores, z=z, ramp=ramp)
        assert np.allclose(got, expect, atol=1e-12)

    def test_empty_support_refused(self):
        """At z = -ramp the query's own key leaves the mask, as every other does."""
        with pytest.raises(ContractError, match="must exceed -ramp"):
            oracle.aam_attention(0, np.zeros(3), z=-2.0, ramp=2.0)
        assert oracle.aam_attention(0, np.zeros(3), z=-1.9, ramp=2.0).tolist() == [1.0, 0.0, 0.0]


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
    def stub_forward(*base_probs):
        """Masked positions of instance b collapse to a uniform prediction."""
        def forward(masked):
            probs = []
            for b, hidden in masked.items():
                p = base_probs[b].copy()
                p[sorted(hidden)] = 1.0 / p.shape[1]
                probs.append(p)
            return probs
        return forward

    def test_perfect_prediction_masks_minimum(self):
        gold = np.array([0, 1, 2, 1, 0, 2, 1, 0, 2, 1])
        probs = np.full((10, 3), 0.05)
        probs[np.arange(10), gold] = 0.9
        cfg = mk.MaskConfig(amom_mu_min=0.1, amom_mu_max=0.5, amom_iterations=1)
        _, _, history = mk.amom_regenerate(self.stub_forward(probs), cfg, [range(10)], [gold])
        assert len(history) == 1
        assert len(history[0]) == max(1, int(math.floor(0.1 * 10 + 0.5)))

    def test_single_iteration_single_round(self):
        gold = np.array([0, 1])
        probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1]])
        cfg = mk.MaskConfig(amom_iterations=1)
        _, rounds, history = mk.amom_regenerate(self.stub_forward(probs), cfg, [range(2)], [gold])
        assert len(history) == 1 and rounds == [2]

    def test_incorrect_positions_selected_first(self):
        gold = np.array([0, 0, 0, 0])
        probs = np.array([
            [0.9, 0.05, 0.05],   # correct, high confidence
            [0.2, 0.7, 0.1],     # incorrect
            [0.55, 0.4, 0.05],   # correct, lower confidence
            [0.1, 0.2, 0.7],     # incorrect
        ])
        cfg = mk.MaskConfig(amom_mu_min=0.5, amom_mu_max=0.5, amom_iterations=1)
        _, _, history = mk.amom_regenerate(self.stub_forward(probs), cfg, [range(4)], [gold])
        assert history[0] == {1, 3}

    def test_asc_mode_hides_left_to_right(self):
        """One prediction row ranks nothing: the first maskable indices are
        hidden, as many as the ratio asks for."""
        gold = np.array([1])
        probs = np.array([[0.2, 0.8]])

        def forward(masked):
            return [probs]

        cfg = mk.MaskConfig(amom_mu_min=0.4, amom_mu_max=0.4, amom_iterations=1)
        _, _, history = mk.amom_regenerate(forward, cfg, [[0]], [gold])
        assert history[0] == {0}
        _, _, history = mk.amom_regenerate(forward, cfg, [range(8)], [gold])
        assert history[0] == {0, 1, 2}   # round(0.4 * 8 + 0.5) positions

    def test_ranks_only_maskable_indices(self):
        """Rows rank the instance's maskable content indices alone, and the
        hidden set holds content indices."""
        gold = np.array([0, 0, 0, 0])
        probs = np.array([
            [0.9, 0.05, 0.05],   # correct, high confidence
            [0.2, 0.7, 0.1],     # incorrect, not maskable
            [0.55, 0.4, 0.05],   # correct, lower confidence
            [0.1, 0.2, 0.7],     # incorrect
        ])
        cfg = mk.MaskConfig(amom_mu_min=0.5, amom_mu_max=0.5, amom_iterations=1)
        _, _, history = mk.amom_regenerate(self.stub_forward(probs), cfg, [[0, 2, 3]], [gold])
        assert history == [{2, 3}]   # round(0.5 * 3 + 0.5) = 2 of the three

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
        _, rounds, history = mk.amom_regenerate(self.stub_forward(probs), cfg, [range(4)])
        # R = mean max-probability 0.6 -> mu 0.45 -> round(1.8) = 2 positions
        assert ratios == [pytest.approx(0.6, abs=1e-15)]
        assert history == [{1, 3}] and rounds == [2]

    def test_nothing_maskable_runs_first_pass_only(self):
        calls = []

        def forward(masked):
            calls.append(dict(masked))
            return [np.array([[0.2, 0.8, 0.0]])]

        _, rounds, history = mk.amom_regenerate(forward, mk.MaskConfig(), [[]], [np.array([1])])
        assert calls == [{0: set()}] and rounds == [1] and history == []

    @pytest.mark.parametrize("selector", ["gold", "confidence", "maskable"])
    def test_instances_run_together_as_alone(self, selector):
        rng = np.random.default_rng(8)
        base = [rng.dirichlet(np.ones(3), size=m) for m in (7, 4)]
        gold = [rng.integers(0, 3, size=p.shape[0]) for p in base] if selector == "gold" else None
        maskable = ([[0, 2, 3, 5, 6], [1, 2, 3]] if selector == "maskable"
                    else [range(p.shape[0]) for p in base])
        cfg = mk.MaskConfig(amom_mu_min=0.2, amom_mu_max=0.6, amom_iterations=3)
        calls = []
        stub = self.stub_forward(*base)

        def forward(masked):
            calls.append(list(masked))
            return stub(masked)

        probs, rounds, history = mk.amom_regenerate(forward, cfg, maskable, gold)
        assert calls == [[0, 1]] * 4
        for b in range(2):
            alone = mk.amom_regenerate(self.stub_forward(base[b]), cfg, [maskable[b]],
                                       gold and [gold[b]])
            assert np.array_equal(probs[b], alone[0][0])
            assert [rounds[b]] == alone[1] == [4] and history[b::2] == alone[2]
            assert len(alone[2]) == 3 and all(alone[2])

    def test_instance_with_nothing_maskable_sits_out(self):
        base = [np.array([[0.6, 0.3, 0.1]]), np.array([[0.5, 0.4, 0.1], [0.2, 0.2, 0.6]])]
        calls = []
        stub = self.stub_forward(*base)

        def forward(masked):
            calls.append(list(masked))
            return stub(masked)

        cfg = mk.MaskConfig(amom_iterations=2)
        probs, rounds, history = mk.amom_regenerate(forward, cfg, [[], [0, 1]])
        assert calls == [[0, 1], [1], [1]]
        assert np.array_equal(probs[0], base[0]) and len(history) == 2
        assert rounds == [1, 3]


class TestTrace:
    def test_format_round_trip(self):
        tau, _ = mk.actm_threshold(TABLE_SCORES, 1.0, "mean")
        decision = mk.apply_mask(TABLE_SCORES, tau)
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
