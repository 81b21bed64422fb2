"""Engine-level checks: elementwise ops, reductions, matmul, backward, detach."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vjlab.tensor import (
    Tensor,
    backward,
    concat,
    huber,
    log_softmax,
    matmul,
    no_grad,
    softmax,
    tensor,
)
from vjlab import verify
from vjlab.gradcheck import grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


class TestElementwise:
    def test_add_matches_numpy(self):
        a = rng(1).standard_normal((3, 4))
        b = rng(2).standard_normal((3, 4))
        out = tensor(a) + tensor(b)
        assert np.array_equal(out.data, a + b)

    def test_scalar_broadcast(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal((a * 2.0).data, [[2.0, 4.0], [6.0, 8.0]])
        assert np.array_equal((1.0 + a).data, [[2.0, 3.0], [4.0, 5.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
            tensor(np.zeros((2, 3))) + tensor(np.zeros((3, 2)))

    def test_division_by_exact_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            tensor([1.0, 2.0]) / tensor([1.0, 0.0])

    def test_abs_subgradient_zero_at_zero(self):
        x = tensor([0.0, -2.0, 3.0], requires_grad=True)
        backward(x.abs().sum())
        assert np.array_equal(x.grad, [0.0, -1.0, 1.0])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    def test_ops_finite_on_finite_input(self, vals):
        x = tensor(vals)
        for out in [x + x, x * x, x - 1.0, x.abs(), x.tanh(), x.relu()]:
            assert np.all(np.isfinite(out.data))


class TestMatmulReduce:
    def test_matmul_against_triple_loop(self):
        a = rng(3).standard_normal((3, 4))
        b = rng(4).standard_normal((4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = matmul(tensor(a), tensor(b)).data
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ValueError, match="inner-dimension"):
            matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 2))))
        with pytest.raises(ValueError, match="batch axes"):
            matmul(tensor(np.zeros((2, 2, 3))), tensor(np.zeros((3, 3, 2))))

    @pytest.mark.parametrize("a_shape,b_shape", [((2, 3, 4), (2, 4, 5)),
                                                 ((2, 2, 3, 4), (4, 5)),
                                                 ((3, 4), (2, 4, 5))],
                             ids=["batched", "shared-right", "shared-left"])
    def test_matmul_batch_axes(self, a_shape, b_shape):
        # batched operands match per entry; a 2-d operand is shared by all
        a, b = rng(30).standard_normal(a_shape), rng(31).standard_normal(b_shape)
        got = matmul(tensor(a), tensor(b)).data
        np.testing.assert_array_equal(got, np.matmul(a, b))
        w = rng(32).standard_normal(got.shape)
        rep = grad_check(lambda x, y: (matmul(x, y) * tensor(w)).sum(), [tensor(a), tensor(b)])
        assert rep.ok(1e-4), rep.max_rel_err

    def test_mean_against_two_pass_sum(self):
        x = rng(5).standard_normal(1000) * 100.0
        got = tensor(x).mean().item()
        # two-pass compensated summation as the independent route
        total, comp = 0.0, 0.0
        for v in x:
            y = v - comp
            t = total + y
            comp = (t - total) - y
            total = t
        assert abs(got - total / 1000.0) <= 1e-9

    def test_reduce_invalid_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            tensor(np.zeros((2, 3))).sum(axis=2)

    def test_axis_reduction_drops_axis(self):
        x = tensor(np.ones((2, 5)))
        assert x.sum(axis=1).shape == (2,)
        assert x.mean(axis=0).shape == (5,)


class TestSoftmaxHuber:
    def test_softmax_direct_formula(self):
        logits = np.array([1.0, 2.0, 3.0])
        got = softmax(tensor(logits)).data
        want = np.exp(logits) / np.sum(np.exp(logits))
        assert np.max(np.abs(got - want)) <= 1e-12

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=16),
           st.floats(0.1, 10.0))
    def test_softmax_sums_to_one(self, vals, temp):
        out = softmax(tensor(vals), temperature=temp)
        assert abs(out.data.sum() - 1.0) <= 1e-9
        assert np.all(out.data >= 0.0)

    def test_softmax_huge_logit_finite(self):
        out = softmax(tensor([0.0, 1e6]))
        assert np.all(np.isfinite(out.data))

    def test_softmax_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            softmax(tensor([1.0]), temperature=0.0)

    def test_huber_frozen_values(self):
        assert huber(tensor(0.5), delta=1.0).item() == pytest.approx(0.125, abs=1e-15)
        assert huber(tensor(2.0), delta=1.0).item() == pytest.approx(1.5, abs=1e-15)

    @given(st.floats(0.1, 10.0))
    def test_huber_continuous_at_knee(self, delta):
        at_knee = huber(tensor(delta), delta=delta).item()
        assert at_knee == pytest.approx(0.5 * delta * delta, rel=1e-12)
        just_out = huber(tensor(delta * (1 + 1e-9)), delta=delta).item()
        assert abs(just_out - at_knee) <= 1e-6 * max(1.0, delta * delta)

    def test_log_softmax_matches_log_of_softmax(self):
        x = rng(8).standard_normal(7)
        a = log_softmax(tensor(x)).data
        b = np.log(softmax(tensor(x), clip=(-1e9, 1e9)).data)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestBackward:
    def test_sum_gradient_all_ones(self):
        x = tensor(rng(9).standard_normal((4, 5)), requires_grad=True)
        grads = backward(x.sum())
        assert np.array_equal(grads[x], np.ones((4, 5)))

    def test_fanout_accumulates(self):
        x = tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        backward(y.sum())
        assert x.grad[0] == pytest.approx(7.0)

    def test_backward_requires_scalar_root(self):
        x = tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x + 1.0)

    def test_backward_requires_graph(self):
        with pytest.raises(ValueError, match="graph"):
            backward(tensor(1.0))

    def test_grad_check_composite(self):
        verify.gradient_engine()

    def test_grad_check_nonlinearities(self):
        for name in ["exp", "tanh", "gelu", "sqrt", "log"]:
            base = np.abs(rng(12).standard_normal(6)) + 0.5

            def f(x, name=name):
                return getattr(x, name)().sum()

            rep = grad_check(f, [tensor(base)])
            assert rep.ok(1e-4), (name, rep.max_rel_err)

    def test_gather_concat_grads(self):
        def f(x):
            both = concat([x, x * 2.0, x], axis=0)
            return (both * both).sum()

        rep = grad_check(f, [tensor(rng(13).standard_normal((4, 3)))])
        assert rep.ok(1e-4), rep.max_rel_err

    def test_broadcast_to_grad(self):
        def f(x):
            return (x.broadcast_to((4, 3)) * tensor(rng(14).standard_normal((4, 3)))).sum()

        rep = grad_check(f, [tensor(rng(15).standard_normal((1, 3)))])
        assert rep.ok(1e-4), rep.max_rel_err



class TestDetach:
    def test_detach_blocks_gradient(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad
        z = (x * y).sum()
        backward(z)
        # gradient is y treated as constant, no path through the detached branch
        assert np.array_equal(x.grad, y.data)

    def test_detach_copy_isolated_from_source(self):
        x = tensor([1.0, 2.0])
        y = x.detach()
        x.data[0] = 99.0
        assert y.data[0] == 1.0

    @given(st.integers(0, 1000))
    @settings(max_examples=25)
    def test_weighted_error_with_detached_weights(self, seed):
        g = np.random.default_rng(seed)
        e = tensor(g.standard_normal(6), requires_grad=True)
        w = softmax(e).detach()
        backward((w * e).sum())
        assert np.max(np.abs(e.grad - w.data)) <= 1e-12

    def test_no_grad_context(self):
        x = tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad


class TestClampPow:
    def test_clamp_values_and_grad_mask(self):
        x = tensor([-30.0, 0.0, 30.0], requires_grad=True)
        y = x.clamp(-20.0, 20.0)
        assert np.array_equal(y.data, [-20.0, 0.0, 20.0])
        backward(y.sum())
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_pow_grad(self):
        rep = grad_check(lambda x: x.pow(3).sum(), [tensor(rng(16).standard_normal(5) + 2.0)])
        assert rep.ok(1e-4)

    def test_fractional_pow_of_negative_rejected(self):
        with pytest.raises(ValueError):
            tensor([-1.0]).pow(0.5)
