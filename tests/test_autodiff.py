import math

import numpy as np
import pytest

import gradcheck as gc
from maskterm import autodiff as ad
from maskterm.exceptions import ContractError, DimensionError

TABLE_SCORES = [0.0460, 0.1082, 0.0561, 0.0867, 0.0775, 0.0323, 0.0265,
                0.0319, 0.0275, 0.0977, 0.0794, 0.0413, 0.0648, 0.0493]


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(ad.Tensor(np.eye(2)), ad.Tensor([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(out.data, [[1, 2], [3, 4]])

    def test_selector_row(self):
        out = ad.matmul(ad.Tensor([[1.0, 0.0]]), ad.Tensor([[5.0], [7.0]]))
        assert out.data.shape == (1, 1) and out.data[0, 0] == 5.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        ref = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    ref[i, j] += a[i, k] * b[k, j]
        assert np.allclose(ad.matmul(ad.Tensor(a), ad.Tensor(b)).data, ref, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 2))))

    def test_gradients_flow_to_both(self):
        a = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        b = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        ad.backward(ad.tsum(ad.matmul(a, b)))
        assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 2.0)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_ln2_case(self):
        out = ad.softmax(ad.Tensor([math.log(2.0), 0.0]))
        assert np.allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_large_logits_no_overflow(self):
        out = ad.softmax(ad.Tensor([1000.0, 0.0]))
        assert np.isfinite(out.data).all()
        assert out.data[0] > 0.999999 and out.data[1] < 1e-6

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = rng.normal(scale=5.0, size=rng.integers(1, 20))
            out = ad.softmax(ad.Tensor(v)).data
            assert abs(out.sum() - 1.0) <= 1e-9
            perm = rng.permutation(v.size)
            assert np.allclose(ad.softmax(ad.Tensor(v[perm])).data, out[perm], atol=1e-12)

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            ad.softmax(ad.Tensor(np.zeros((0,))))


class TestAggregate:
    def test_table_mean(self):
        out = ad.aggregate(ad.Tensor(TABLE_SCORES), "mean")
        assert out.item() == pytest.approx(0.0590, abs=1e-4)

    def test_median_odd(self):
        assert ad.aggregate(ad.Tensor([1.0, 3.0, 2.0]), "median").item() == 2.0

    def test_median_even(self):
        assert ad.aggregate(ad.Tensor([4.0, 1.0, 3.0, 2.0]), "median").item() == 2.5

    def test_sd_constant(self):
        assert ad.aggregate(ad.Tensor([1.0, 1.0, 1.0]), "sd").item() == 0.0

    def test_mean_of_constant_is_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = float(rng.normal())
            n = int(rng.integers(1, 30))
            assert ad.aggregate(ad.Tensor(np.full(n, c)), "mean").item() == pytest.approx(c)

    def test_sd_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 30))
            assert ad.aggregate(ad.Tensor(v), "sd").item() >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            ad.aggregate(ad.Tensor(np.zeros(0)), "mean")

    def test_median_gradient_routes_to_middles(self):
        v = ad.Tensor([1.0, 3.0, 2.0], requires_grad=True)
        ad.backward(ad.aggregate(v, "median"))
        assert np.allclose(v.grad, [0.0, 0.0, 1.0])
        w = ad.Tensor([4.0, 1.0, 3.0, 2.0], requires_grad=True)
        ad.backward(ad.aggregate(w, "median"))
        assert np.allclose(w.grad, [0.0, 0.0, 0.5, 0.5])

    def test_sd_gradient_finite_for_constant_input(self):
        v = ad.Tensor([2.0, 2.0, 2.0], requires_grad=True)
        ad.backward(ad.aggregate(v, "sd"))
        assert np.isfinite(v.grad).all()


def _smooth(z):
    """sqrt(z^2 + 1): a smooth nonlinearity built from ops the package keeps."""
    return ad.sqrt(ad.add(ad.square(z), 1.0))


class TestBackward:
    def test_square(self):
        x = ad.Tensor(3.0, requires_grad=True)
        ad.backward(ad.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_constant_function_zero_grad(self):
        v = ad.Tensor([0.4, -1.0, 2.2], requires_grad=True)
        ad.backward(ad.tsum(ad.softmax(v)))
        assert np.allclose(v.grad, 0.0, atol=1e-12)

    def test_two_layer_composition_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = ad.ParamStore()
        w1 = params.add("w1", rng.normal(size=(3, 4)))
        w2 = params.add("w2", rng.normal(size=(4, 2)))
        x = ad.Tensor(rng.normal(size=(2, 3)))

        def f():
            h = _smooth(ad.matmul(x, w1))
            p = ad.softmax(ad.matmul(h, w2), axis=-1)
            return ad.tsum(ad.mul(p, p))

        assert gc.finite_difference_check(f, params, h=1e-5) < 1e-6

    def test_accumulation_without_reset(self):
        x = ad.Tensor(2.0, requires_grad=True)
        ad.backward(ad.mul(x, x))
        ad.backward(ad.mul(x, x))
        assert x.grad == pytest.approx(8.0)

    def test_gradient_handed_to_two_leaves_stays_apart(self):
        a = ad.Tensor([1.0, 2.0], requires_grad=True)
        b = ad.Tensor([3.0, 4.0], requires_grad=True)
        shared = ad.add(a, b)   # its backward gives both leaves one array
        ad.backward(ad.tsum(ad.add(ad.add(shared, ad.mul(a, 2.0)), ad.mul(a, 3.0))))
        assert np.array_equal(a.grad, [6.0, 6.0]) and np.array_equal(b.grad, [1.0, 1.0])

    def test_linearity_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = rng.normal(size=4)
            x = ad.Tensor(base, requires_grad=True)
            ad.backward(ad.add(ad.tsum(ad.mul(x, x)), ad.tsum(_smooth(x))))
            joint = x.grad.copy()
            x.grad = None
            ad.backward(ad.tsum(ad.mul(x, x)))
            g1 = x.grad.copy()
            x.grad = None
            ad.backward(ad.tsum(_smooth(x)))
            assert np.allclose(joint, g1 + x.grad, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(ad.Tensor([1.0, 2.0], requires_grad=True))


def _sum_of_squares(params):
    """Sum of squares of every entry, as a graph."""
    parts = [ad.tsum(ad.square(t)) for t in params.tensors()]
    total = parts[0]
    for part in parts[1:]:
        total = ad.add(total, part)
    return total


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
            v = ad.Tensor(rng.normal(scale=100.0, size=6))
            m = ad.Tensor(rng.normal(scale=100.0, size=(6, 6)))
            for out in (
                ad.softmax(v),
                ad.log_clamped(ad.Tensor(np.abs(v.data))),
                ad.Tensor(ad.gelu(v.data)[0]),
                ad.sqrt(ad.Tensor(np.abs(v.data))),
                ad.matmul(m, m),
                ad.aggregate(v, "sd"),
            ):
                assert np.isfinite(out.data).all()


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
    def test_forward_hard_backward_soft(self):
        soft = ad.Tensor([0.2, 0.8], requires_grad=True)
        out = ad.straight_through(soft, np.array([0.0, 1.0]))
        assert np.allclose(out.data, [0.0, 1.0])
        ad.backward(ad.tsum(ad.mul(out, ad.Tensor([3.0, 5.0]))))
        assert np.allclose(soft.grad, [3.0, 5.0])
