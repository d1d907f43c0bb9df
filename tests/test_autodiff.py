import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gradcheck as gc
from maskterm import autodiff as ad
from maskterm import masking as mk
from maskterm.exceptions import ContractError, DimensionError

TABLE_SCORES = [0.0460, 0.1082, 0.0561, 0.0867, 0.0775, 0.0323, 0.0265,
                0.0319, 0.0275, 0.0977, 0.0794, 0.0413, 0.0648, 0.0493]


class TestSoftmax:
    """`softmax_kernel`, the plain-array softmax of the task heads."""

    @staticmethod
    def softmax(v):
        return ad.softmax_kernel(np.asarray(v, dtype=np.float64))[0]

    def test_uniform(self):
        assert np.allclose(self.softmax([0.0, 0.0, 0.0]), 1.0 / 3.0)

    def test_ln2_case(self):
        assert np.allclose(self.softmax([math.log(2.0), 0.0]), [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_large_logits_no_overflow(self):
        out = self.softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        assert out[0] > 0.999999 and out[1] < 1e-6

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.normal(scale=5.0, size=rng.integers(1, 20))
            out = self.softmax(v)
            assert abs(out.sum() - 1.0) <= 1e-9
            perm = rng.permutation(v.size)
            assert np.allclose(self.softmax(v[perm]), out[perm], atol=1e-12)


def aggregate(scores, kind):
    """The aggregate of a score vector on every one of its tokens, as
    `masking.actm_threshold` gives it at alpha 1, and its backward."""
    return mk.actm_threshold(np.asarray(scores, dtype=np.float64), 1.0, kind)


class TestAggregate:
    """The threshold's aggregators over a score vector, and their backward."""

    def test_table_mean(self):
        tau, _ = aggregate(TABLE_SCORES, "mean")
        assert tau[0] == pytest.approx(0.0590, abs=1e-4)

    def test_median_odd(self):
        assert aggregate([1.0, 3.0, 2.0], "median")[0].tolist() == [2.0] * 3

    def test_median_even(self):
        assert aggregate([4.0, 1.0, 3.0, 2.0], "median")[0].tolist() == [2.5] * 4

    def test_sd_constant(self):
        assert aggregate([1.0, 1.0, 1.0], "sd")[0].tolist() == [0.0] * 3

    def test_mean_of_constant_is_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = float(rng.normal())
            n = int(rng.integers(1, 30))
            assert aggregate(np.full(n, c), "mean")[0] == pytest.approx(c)

    def test_sd_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 30))
            assert (aggregate(v, "sd")[0] >= 0.0).all()

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            aggregate(np.zeros(0), "mean")

    def test_unknown_aggregator_rejected(self):
        with pytest.raises(ContractError, match="unknown aggregator 'max'"):
            aggregate([1.0, 2.0], "max")

    def test_median_gradient_routes_to_middles(self):
        _, backward = aggregate([1.0, 3.0, 2.0], "median")
        assert backward(np.array([1.0, 0.0, 0.0]))[0].tolist() == [0.0, 0.0, 1.0]
        _, backward = aggregate([4.0, 1.0, 3.0, 2.0], "median")
        assert backward(np.array([1.0, 0.0, 0.0, 0.0]))[0].tolist() == [0.0, 0.0, 0.5, 0.5]

    def test_median_ties_keep_index_order(self):
        """Of equal scores, the earlier one sorts first: the middle pair of
        [2, 1, 2, 1] is the second 1 and the first 2."""
        tau, backward = aggregate([2.0, 1.0, 2.0, 1.0], "median")
        assert tau[0] == 1.5
        assert backward(np.array([1.0, 0.0, 0.0, 0.0]))[0].tolist() == [0.5, 0.0, 0.0, 0.5]

    def test_sd_gradient_finite_for_constant_input(self):
        _, backward = aggregate([2.0, 2.0, 2.0], "sd")
        dattn = backward(np.array([1.0, 0.0, 0.0]))[0]
        assert np.isfinite(dattn).all() and not dattn.any()


def _node(kernel, t, *args):
    """A one-parent plain-array kernel, (out, backward), as a fused node."""
    out, backward = kernel(t.data, *args)
    return ad.fused(out, (t,), lambda g: (backward(g),))


class TestBackward:
    def test_square(self):
        x = ad.Tensor(3.0, requires_grad=True)
        ad.backward(gc.dot(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_constant_function_zero_grad(self):
        v = ad.Tensor([0.4, -1.0, 2.2], requires_grad=True)
        ad.backward(gc.tsum(_node(ad.softmax_kernel, v)))
        assert np.allclose(v.grad, 0.0, atol=1e-12)

    def test_two_layer_composition_matches_finite_differences(self):
        """A layer norm node (three parents) and GELU, then a softmax node,
        with the input reaching the objective twice."""
        rng = np.random.default_rng(7)
        params = ad.ParamStore()
        x = params.add("x", rng.normal(size=(2, 4)))
        gain = params.add("gain", rng.normal(size=4))
        bias = params.add("bias", rng.normal(size=4))

        def f():
            out, backward = ad.layer_norm(x.data, gain.data, bias.data, 1e-5)
            p = _node(ad.softmax_kernel, _node(ad.gelu, ad.fused(out, (x, gain, bias), backward)))
            return gc.tsum(gc.dot(p, p), gc.dot(x, p))

        assert gc.finite_difference_check(f, params, h=1e-5) < 1e-6

    def test_accumulation_without_reset(self):
        x = ad.Tensor(2.0, requires_grad=True)
        ad.backward(gc.dot(x, x))
        ad.backward(gc.dot(x, x))
        assert x.grad == pytest.approx(8.0)

    def test_gradient_handed_to_two_leaves_stays_apart(self):
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        b = ad.Tensor([3.0, 4.0], requires_grad=True)
        shared = ad.fused(a.data + b.data, (a, b), lambda g: (g, g))   # one array to both leaves
        ad.backward(gc.tsum(shared, gc.scale(a, 2.0), gc.scale(a, 3.0)))
        assert np.array_equal(a.grad, [6.0, 6.0]) and np.array_equal(b.grad, [1.0, 1.0])

    def test_linearity_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = rng.normal(size=4)
            x = ad.Tensor(base, requires_grad=True)
            ad.backward(gc.tsum(gc.dot(x, x), _node(ad.gelu, x)))
            joint = x.grad.copy()
            x.grad = None
            ad.backward(gc.dot(x, x))
            g1 = x.grad.copy()
            x.grad = None
            ad.backward(gc.tsum(_node(ad.gelu, x)))
            assert np.allclose(joint, g1 + x.grad, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(ad.Tensor([1.0, 2.0], requires_grad=True))

    def test_seeded_backward_returns_a_sink_and_leaves_grads_alone(self):
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        b = ad.Tensor([3.0, -1.0], requires_grad=True)
        a.grad = np.array([10.0, 10.0])
        node = ad.fused(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))
        sink = ad.backward(gc.scale(node, 2.0), np.array([1.0, 0.5]))
        assert sink.keys() == {a, b}
        assert np.array_equal(sink[a], [6.0, -1.0]) and np.array_equal(sink[b], [2.0, 2.0])
        assert np.array_equal(a.grad, [10.0, 10.0]) and b.grad is None
        ad.backward(gc.dot(a, a))   # an unseeded backward after it writes grads again
        assert np.array_equal(a.grad, [12.0, 14.0])
        with pytest.raises(DimensionError):
            ad.backward(node, np.ones(3))

    def test_seeded_backwards_on_two_threads_keep_their_sinks_apart(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        seeds = [np.full(2, float(i)) for i in range(8)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            sinks = list(pool.map(lambda s: ad.backward(gc.scale(x, 3.0), s), seeds))
        assert all(np.array_equal(sink[x], 3.0 * s) for sink, s in zip(sinks, seeds))
        assert x.grad is None

    def test_a_parent_handed_none_gets_no_gradient(self):
        a = ad.Tensor([1.0], requires_grad=True)
        b = ad.Tensor([2.0], requires_grad=True)
        ad.backward(gc.tsum(ad.fused(a.data + b.data, (a, b), lambda g: (g, None))))
        assert np.array_equal(a.grad, [1.0]) and b.grad is None

    def test_no_record_without_a_gradient_or_under_no_grad(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        assert not gc.scale(ad.Tensor([1.0, 2.0]), 2.0).requires_grad
        with ad.no_grad():
            out = gc.scale(x, 2.0)
        assert not out.requires_grad and out._parents == ()


def _sum_of_squares(params):
    """Sum of squares of every entry, as a graph."""
    return gc.tsum(*(gc.dot(t, t) for t in params.tensors()))


class TestFiniteDifference:
    def test_exact_quadratic(self):
        params = ad.ParamStore()
        params.add("theta", np.random.default_rng(2).normal(size=6))
        assert gc.finite_difference_check(lambda: _sum_of_squares(params), params) < 1e-8

    def test_details_per_parameter(self):
        params = ad.ParamStore()
        params.add("a", [1.0, 2.0])
        params.add("b", [[0.5]])
        worst, detail = gc.finite_difference_check(lambda: _sum_of_squares(params), params,
                                                   return_details=True)
        assert set(detail) == {"a", "b"} and worst == max(detail.values())


class TestFiniteness:
    def test_finite_inputs_finite_outputs(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            v = rng.normal(scale=100.0, size=6)
            m = rng.normal(scale=100.0, size=(6, 6))
            for out in (
                ad.softmax_kernel(v)[0],
                gc.log_clamped(ad.Tensor(np.abs(v))).data,
                ad.gelu(v)[0],
                gc.log_clamped(ad.Tensor(ad.softmax_kernel(m, axis=-1)[0])).data,
                ad.layer_norm(m, v, v, 1e-12)[0],
                gc.dot(ad.Tensor(m), ad.Tensor(m)).data,
            ):
                assert np.isfinite(out).all()


class TestParamStore:
    def test_duplicate_name_rejected(self):
        params = ad.ParamStore()
        params.add("x", 1.0)
        with pytest.raises(ContractError):
            params.add("x", 2.0)

    def test_order_and_count(self):
        params = ad.ParamStore()
        params.add("b", np.zeros((2, 3)))
        params.add("a", np.zeros(4))
        assert params.names() == ["b", "a"]
        assert len(params) == 2

    def test_l2_sum_gradient_is_two_theta(self):
        """The closed form 2 theta, against central differences of `l2_sum`."""
        h = 1e-5
        theta = np.random.default_rng(11).normal(size=5)

        def l2_sum(values):
            params = ad.ParamStore()
            params.add("theta", values)
            return params.l2_sum()

        central = np.array([(l2_sum(theta + e) - l2_sum(theta - e)) / (2 * h) for e in np.eye(5) * h])
        assert (np.abs(2 * theta - central) / np.maximum(1e-8, np.abs(central))).max() < 1e-8


class TestStraightThrough:
    """The straight-through gate of `masking.apply_mask`."""

    def test_forward_hard_backward_soft(self):
        """Rows are scaled by the hard verdict; the gradient reaches the
        margin max(0, attn - tau) as if that were the gate."""
        decision = mk.apply_mask(np.array([0.2, 0.8, 0.6]), np.full(3, 0.5), np.ones((3, 1)))
        assert decision.masked_states.tolist() == [[0.0], [1.0], [1.0]]
        dattn, dtau, dstates = decision.backward(np.array([[3.0], [5.0], [7.0]]))
        assert dattn.tolist() == [0.0, 5.0, 7.0] and dtau.tolist() == [0.0, -5.0, -7.0]
        assert dstates.tolist() == [[0.0], [5.0], [7.0]]
