import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gradcheck as gc
from fixtures import finishes
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
        assert ad.backward(gc.dot(x, x))[x] == pytest.approx(6.0)

    def test_constant_function_zero_grad(self):
        v = ad.Tensor([0.4, -1.0, 2.2], requires_grad=True)
        assert np.allclose(ad.backward(gc.tsum(_node(ad.softmax_kernel, v)))[v], 0.0, atol=1e-12)

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

    def test_each_backward_returns_its_own_gradients(self):
        x = ad.Tensor(2.0, requires_grad=True)
        first = ad.backward(gc.dot(x, x))
        second = ad.backward(gc.scale(x, 3.0))
        assert first[x] == pytest.approx(4.0) and second[x] == pytest.approx(3.0)
        assert first.keys() == second.keys() == {x}

    def test_gradient_handed_to_two_leaves_stays_apart(self):
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        b = ad.Tensor([3.0, 4.0], requires_grad=True)
        shared = ad.fused(a.data + b.data, (a, b), lambda g: (g, g))   # one array to both leaves
        grads = ad.backward(gc.tsum(shared, gc.scale(a, 2.0), gc.scale(a, 3.0)))
        assert np.array_equal(grads[a], [6.0, 6.0]) and np.array_equal(grads[b], [1.0, 1.0])

    def test_linearity_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = rng.normal(size=4)
            x = ad.Tensor(base, requires_grad=True)
            joint = ad.backward(gc.tsum(gc.dot(x, x), _node(ad.gelu, x)))[x]
            g1 = ad.backward(gc.dot(x, x))[x]
            g2 = ad.backward(gc.tsum(_node(ad.gelu, x)))[x]
            assert np.allclose(joint, g1 + g2, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(ad.Tensor([1.0, 2.0], requires_grad=True))

    def test_seeded_backward_returns_the_leaves_gradients(self):
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        b = ad.Tensor([3.0, -1.0], requires_grad=True)
        node = ad.fused(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))
        grads = ad.backward(gc.scale(node, 2.0), np.array([1.0, 0.5]))
        assert grads.keys() == {a, b}
        assert np.array_equal(grads[a], [6.0, -1.0]) and np.array_equal(grads[b], [2.0, 2.0])
        with pytest.raises(DimensionError):
            ad.backward(node, np.ones(3))

    def test_seeded_backwards_on_two_threads_keep_their_gradients_apart(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        seeds = [np.full(2, float(i)) for i in range(8)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            all_grads = list(pool.map(lambda s: ad.backward(gc.scale(x, 3.0), s), seeds))
        assert all(np.array_equal(grads[x], 3.0 * s) for grads, s in zip(all_grads, seeds))

    def test_unseeded_backwards_on_two_threads_through_shared_leaves(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        w = ad.Tensor([3.0, -1.0], requires_grad=True)
        both_walking = threading.Barrier(2, timeout=10)

        def meet(g):   # each walk waits here until the other has begun too
            both_walking.wait()
            return (g,)

        def run(k: float):
            loss = gc.tsum(gc.scale(x, k), gc.dot(x, w))
            return ad.backward(ad.fused(loss.data, (loss,), meet))

        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(run, [1.0, 5.0])
        for grads, k in ((first, 1.0), (second, 5.0)):
            assert grads.keys() == {x, w}
            assert np.array_equal(grads[x], k + w.data) and np.array_equal(grads[w], x.data)

    def test_a_parent_handed_none_gets_no_gradient(self):
        a = ad.Tensor([1.0], requires_grad=True)
        b = ad.Tensor([2.0], requires_grad=True)
        grads = ad.backward(gc.tsum(ad.fused(a.data + b.data, (a, b), lambda g: (g, None))))
        assert np.array_equal(grads[a], [1.0]) and b not in grads

    def test_no_record_without_a_gradient_or_under_no_grad(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        assert not gc.scale(ad.Tensor([1.0, 2.0]), 2.0).requires_grad
        with ad.no_grad():
            out = gc.scale(x, 2.0)
        assert not out.requires_grad and out._parents == ()


class TestJoin:
    """`join`, one node over independent subgraphs, and `both`, the worker
    its concurrent backward runs on."""

    @staticmethod
    def parts(x, y, scales, hook=lambda i: None):
        """One scalar node per scale: scale * sum(x) + sum(y) for even parts
        and scale * sum(x) for odd ones; `hook(i)` runs first in part i's
        backward."""
        def part(i, k):
            parents = (x, y) if i % 2 == 0 else (x,)

            def backward(g):
                hook(i)
                return (np.full_like(x.data, k) * g, np.ones_like(y.data) * g)[:len(parents)]

            return ad.fused(np.asarray(k * x.data.sum() + (i % 2 == 0) * y.data.sum()), parents,
                            backward)
        return [part(i, k) for i, k in enumerate(scales)]

    def test_a_nested_both_on_the_worker_runs_inline(self):
        threads, results = {}, []

        def on_worker():
            threads["outer"] = threading.get_ident()

            def inner(name, value):
                threads[name] = threading.get_ident()
                return value

            return ad.both(lambda: inner("first", 1), lambda: inner("second", 2))

        assert finishes(lambda: results.append(ad.both(lambda: "here", on_worker)))
        assert results == [("here", (1, 2))]
        assert threads["first"] == threads["second"] == threads["outer"]
        assert threads["outer"] != threading.get_ident()

    def test_concurrent_join_is_one_node_over_the_leaves(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = ad.Tensor([3.0], requires_grad=True)
        unreached = ad.Tensor([4.0], requires_grad=True)
        parts = self.parts(x, y, [1.0, 2.0, 3.0])
        data = sum(p.data for p in parts)
        joined = ad.join(data, parts, lambda g: (g,) * 3, (x, y, unreached), True)
        assert joined._parents == (x, y, unreached)
        grads = ad.backward(joined)
        assert grads.keys() == {x, y}
        assert np.array_equal(grads[x], [6.0, 6.0]) and np.array_equal(grads[y], [2.0])
        for concurrent, count in ((False, 3), (True, 1)):
            plain = ad.join(data, parts[:count], lambda g: (g,) * count, (x, y), concurrent)
            assert plain._parents == tuple(parts[:count])

    def test_concurrent_join_walks_even_parts_here_and_odd_ones_on_the_worker(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = ad.Tensor([3.0], requires_grad=True)
        walked = []
        parts = self.parts(x, y, [1.0, 2.0, 3.0, 4.0, 5.0],
                           lambda i: walked.append((i, threading.get_ident())))
        joined = ad.join(np.asarray(0.0), parts, lambda g: (g,) * 5, (x, y), True)
        ad.backward(joined)
        here = {i for i, thread in walked if thread == threading.get_ident()}
        assert sorted(i for i, _ in walked) == [0, 1, 2, 3, 4] and here == {0, 2, 4}

    def test_a_part_s_error_on_the_worker_reaches_the_caller_after_its_parts(self):
        """Part 1 walks on the worker; its error reaches the caller, unchanged,
        once parts 0 and 2 have finished here, and the next backward works."""
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = ad.Tensor([3.0], requires_grad=True)
        planted = ContractError("planted")
        finished, fail = [], [True]

        def hook(i):
            if i == 1 and fail[0]:
                raise planted
            time.sleep(0.05)   # the failing part is long done by now
            finished.append(i)

        joined = ad.join(np.asarray(0.0), self.parts(x, y, [1.0, 2.0, 3.0], hook),
                         lambda g: (g,) * 3, (x, y), True)
        with pytest.raises(ContractError) as caught:
            ad.backward(joined)
        assert caught.value is planted
        assert finished == [0, 2]
        fail[0] = False
        finished.clear()
        grads = ad.backward(joined)
        assert sorted(finished) == [0, 1, 2]
        assert np.array_equal(grads[x], [6.0, 6.0]) and np.array_equal(grads[y], [2.0])


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_give_the_bits_of_their_formulas(dtype):
    """The kernels compute in place, in the formula's order: softmax, layer
    norm and GELU give, bit for bit, the textbook expression's result."""
    rng = np.random.default_rng(5)
    x = rng.normal(scale=1.5, size=(32, 48)).astype(dtype)
    gain, bias = rng.normal(size=48).astype(dtype), rng.normal(size=48).astype(dtype)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert ad.softmax_kernel(x)[0].tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
    c = x - x.mean(axis=-1, keepdims=True)
    norm = c * (1.0 / np.sqrt((c * c).mean(axis=-1, keepdims=True) + 1e-5))
    assert ad.layer_norm(x, gain, bias, 1e-5)[0].tobytes() == (norm * gain + bias).tobytes()
    gelu = 0.5 * x * (1.0 + np.tanh(ad._GELU_C * (x + 0.044715 * (x * x * x))))
    assert ad.gelu(x)[0].tobytes() == gelu.tobytes()


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
