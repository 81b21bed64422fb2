"""Engine-level checks: elementwise ops, erf, reductions, matmul, backward, detach,
and the composed softmax the tests keep as an oracle."""

import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import vjlab
from vjlab.tensor import (
    Tensor,
    backward,
    concat,
    erf,
    huber,
    matmul,
    no_grad,
)
from vjlab import verify
from vjlab.gradcheck import grad_check
from oracles import clamp, exp, log, log_softmax, softmax


def rng(seed=0):
    return np.random.default_rng(seed)


class TestElementwise:
    def test_add_matches_numpy(self):
        a = rng(1).standard_normal((3, 4))
        b = rng(2).standard_normal((3, 4))
        out = Tensor(a) + Tensor(b)
        assert np.array_equal(out.data, a + b)

    def test_scalar_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal((a * 2.0).data, [[2.0, 4.0], [6.0, 8.0]])
        assert np.array_equal((1.0 + a).data, [[2.0, 3.0], [4.0, 5.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))

    def test_division_by_exact_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Tensor([1.0, 2.0]) / Tensor([1.0, 0.0])

    def test_abs_subgradient_zero_at_zero(self):
        x = Tensor([0.0, -2.0, 3.0], requires_grad=True)
        backward(x.abs().sum())
        assert np.array_equal(x.grad, [0.0, -1.0, 1.0])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    def test_ops_finite_on_finite_input(self, vals):
        x = Tensor(vals)
        for out in [x + x, x * x, x - 1.0, x.abs(), x.tanh(), x.relu()]:
            assert np.all(np.isfinite(out.data))


def assert_erf_is_scipys(x):
    """``erf(x)`` equals scipy.special.erf bit for bit, nan where scipy gives nan."""
    got, want = erf(x), scipy.special.erf(x)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    differ = (got.view(np.int64) != want.view(np.int64)) & ~nan
    assert not differ.any(), f"{differ.sum()} lanes differ, first at {x[differ][:4].tolist()}"


# sqrt of cephes' MAXLOG: erfc's underflow cut
ERFC_CUT = math.sqrt(7.09782712893383996843e2)
ERF_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.5, -0.5,
             1.0, -1.0, math.nextafter(1.0, 2.0), -math.nextafter(1.0, 2.0), 3.0,
             math.nextafter(8.0, 0.0), 7.99, 8.0, -8.0, 20.0, 26.6, -26.6, 26.7, -26.7,
             ERFC_CUT, math.nextafter(ERFC_CUT, 30.0), 1e200, -1e200, 1.7976931348623157e308,
             math.inf, -math.inf, math.nan]


class TestErf:
    @pytest.mark.parametrize("arg", ERF_EDGES, ids=repr)
    def test_edge_cases_match_scipy(self, arg):
        # alone (|x| <= 1 takes the rational's fast path) and amid lanes of every branch
        assert_erf_is_scipys(np.array([arg]))
        assert_erf_is_scipys(np.array([0.25, arg, -2.0, 9.0, math.nan]))

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=300)
    def test_any_bit_pattern_matches_scipy(self, bits):
        assert_erf_is_scipys(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_a_million_arguments_over_every_branch_match_scipy(self):
        g = rng(40)
        n = 250_000
        sign = np.where(g.random(n) < 0.5, -1.0, 1.0)
        for x in (g.uniform(-1.0, 1.0, n),  # the rational only
                  sign * g.uniform(1.0, 8.0, n),  # 1 - erfc, P / Q
                  sign * g.uniform(8.0, 2.0 * ERFC_CUT, n),  # R / S, and past the cut
                  g.standard_normal(n) * 3.0):  # mixed lanes in one array
            assert_erf_is_scipys(x)

    def test_out_may_be_the_input(self):
        x = rng(41).standard_normal((4, 8, 16)) * 2.0
        want = scipy.special.erf(x)
        assert erf(x, out=x) is x
        assert np.array_equal(x.view(np.int64), want.view(np.int64))

    def test_tail_lanes_raise_no_warning(self):
        with np.errstate(all="raise"):
            erf(np.array([0.5, 2.0, 9.0, 1e200, math.inf, -math.inf, math.nan]))

    def test_reference_values(self):
        verify.erf_reference_values()

    def test_gelu_values_and_gradient_are_the_scipy_formula(self):
        x = rng(42).standard_normal((3, 5, 7)) * 1.5
        g = rng(43).standard_normal(x.shape)
        cdf = 0.5 * (scipy.special.erf(x / math.sqrt(2.0)) + 1.0)
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        with no_grad():
            assert np.array_equal(Tensor(x, requires_grad=True).gelu().data, x * cdf)
        t = Tensor(x, requires_grad=True)
        y = t.gelu()
        assert np.array_equal(y.data, x * cdf)
        backward((y * Tensor(g)).sum())
        assert np.array_equal(t.grad, (x * pdf + cdf) * g)

    def test_no_vjlab_module_imports_scipy(self):
        src = Path(vjlab.__file__).resolve().parents[1]
        code = (
            "import importlib, pkgutil, sys\n"
            "import vjlab\n"
            "for info in pkgutil.iter_modules(vjlab.__path__):\n"
            "    importlib.import_module('vjlab.' + info.name)\n"
            "    assert 'scipy' not in sys.modules, 'vjlab.' + info.name + ' imports scipy'\n"
            "    print(info.name)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert {"cli", "tensor", "verify"} <= set(done.stdout.split())


class TestMatmulReduce:
    def test_matmul_against_triple_loop(self):
        a = rng(3).standard_normal((3, 4))
        b = rng(4).standard_normal((4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ValueError, match="inner-dimension"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ValueError, match="batch axes"):
            matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((3, 3, 2))))

    @pytest.mark.parametrize("a_shape,b_shape", [((2, 3, 4), (2, 4, 5)),
                                                 ((2, 2, 3, 4), (4, 5)),
                                                 ((3, 4), (2, 4, 5))],
                             ids=["batched", "shared-right", "shared-left"])
    def test_matmul_batch_axes(self, a_shape, b_shape):
        # batched operands match per entry; a 2-d operand is shared by all
        a, b = rng(30).standard_normal(a_shape), rng(31).standard_normal(b_shape)
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(got, np.matmul(a, b))
        w = rng(32).standard_normal(got.shape)
        rep = grad_check(lambda x, y: (matmul(x, y) * Tensor(w)).sum(), [Tensor(a), Tensor(b)])
        assert rep.ok(1e-4), rep.max_rel_err

    def test_mean_against_two_pass_sum(self):
        x = rng(5).standard_normal(1000) * 100.0
        got = Tensor(x).mean().item()
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
            Tensor(np.zeros((2, 3))).sum(axis=2)

    def test_axis_reduction_drops_axis(self):
        x = Tensor(np.ones((2, 5)))
        assert x.sum(axis=1).shape == (2,)
        assert x.mean(axis=0).shape == (5,)


class TestSoftmaxHuber:
    def test_softmax_direct_formula(self):
        logits = np.array([1.0, 2.0, 3.0])
        got = softmax(Tensor(logits)).data
        want = np.exp(logits) / np.sum(np.exp(logits))
        assert np.max(np.abs(got - want)) <= 1e-12

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=16),
           st.floats(0.1, 10.0))
    def test_softmax_sums_to_one(self, vals, temp):
        out = softmax(Tensor(vals), temperature=temp)
        assert abs(out.data.sum() - 1.0) <= 1e-9
        assert np.all(out.data >= 0.0)

    def test_softmax_huge_logit_finite(self):
        out = softmax(Tensor([0.0, 1e6]))
        assert np.all(np.isfinite(out.data))

    def test_softmax_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            softmax(Tensor([1.0]), temperature=0.0)

    def test_huber_frozen_values(self):
        assert huber(Tensor(0.5), delta=1.0).item() == pytest.approx(0.125, abs=1e-15)
        assert huber(Tensor(2.0), delta=1.0).item() == pytest.approx(1.5, abs=1e-15)

    @given(st.floats(0.1, 10.0))
    def test_huber_continuous_at_knee(self, delta):
        at_knee = huber(Tensor(delta), delta=delta).item()
        assert at_knee == pytest.approx(0.5 * delta * delta, rel=1e-12)
        just_out = huber(Tensor(delta * (1 + 1e-9)), delta=delta).item()
        assert abs(just_out - at_knee) <= 1e-6 * max(1.0, delta * delta)

    def test_log_softmax_matches_log_of_softmax(self):
        x = rng(8).standard_normal(7)
        a = log_softmax(Tensor(x)).data
        b = np.log(softmax(Tensor(x), clip=(-1e9, 1e9)).data)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestBackward:
    def test_sum_gradient_all_ones(self):
        x = Tensor(rng(9).standard_normal((4, 5)), requires_grad=True)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones((4, 5)))

    def test_fanout_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        backward(y.sum())
        assert x.grad[0] == pytest.approx(7.0)

    def test_backward_requires_scalar_root(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x + 1.0)

    def test_backward_requires_graph(self):
        with pytest.raises(ValueError, match="graph"):
            backward(Tensor(1.0))

    def test_grad_check_composite(self):
        verify.gradient_engine()

    def test_grad_check_nonlinearities(self):
        for op in [exp, Tensor.tanh, Tensor.gelu, Tensor.sqrt, log]:
            base = np.abs(rng(12).standard_normal(6)) + 0.5

            def f(x, op=op):
                return op(x).sum()

            rep = grad_check(f, [Tensor(base)])
            assert rep.ok(1e-4), (op.__name__, rep.max_rel_err)

    def test_gather_concat_grads(self):
        def f(x):
            both = concat([x, x * 2.0, x], axis=0)
            return (both * both).sum()

        rep = grad_check(f, [Tensor(rng(13).standard_normal((4, 3)))])
        assert rep.ok(1e-4), rep.max_rel_err

    def test_broadcast_to_grad(self):
        def f(x):
            return (x.broadcast_to((4, 3)) * Tensor(rng(14).standard_normal((4, 3)))).sum()

        rep = grad_check(f, [Tensor(rng(15).standard_normal((1, 3)))])
        assert rep.ok(1e-4), rep.max_rel_err

    def test_second_backward_on_a_root_raises_and_keeps_the_grads(self):
        x = Tensor(rng(16).standard_normal(3), requires_grad=True)
        w = Tensor(rng(17).standard_normal(3), requires_grad=True)
        loss = (x * w).gelu().sum()
        backward(loss)
        gx, gw = x.grad.copy(), w.grad.copy()
        with pytest.raises(RuntimeError, match="^backward through a graph that an earlier "
                                               "backward consumed$"):
            backward(loss)
        assert np.array_equal(x.grad, gx) and np.array_equal(w.grad, gw)

    def test_an_op_on_a_consumed_output_raises_at_its_backward(self):
        x = Tensor(rng(18).standard_normal(3), requires_grad=True)
        w = Tensor(rng(19).standard_normal(3), requires_grad=True)
        hidden = (x * 2.0).tanh()
        backward(hidden.sum())
        gx = x.grad.copy()
        later = (hidden * w).sum()
        with pytest.raises(RuntimeError, match="earlier backward consumed"):
            backward(later)
        assert np.array_equal(x.grad, gx) and w.grad is None  # refused before any grad moved

    def test_interior_nodes_are_freed_while_the_root_is_held(self):
        # a node owns its output, so a dead output is a dead node
        x = Tensor(rng(20).standard_normal((4, 4)), requires_grad=True)
        hidden = (x @ x).gelu()
        ref = weakref.ref(hidden.data)
        loss = hidden.sum()
        del hidden
        assert ref() is not None  # the graph holds it until backward walks it
        backward(loss)
        assert ref() is None and loss._parents == ()

    def test_leaves_accumulate_across_separate_graphs(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        backward((x * 3.0).sum())
        backward((x * x).sum())
        assert np.array_equal(x.grad, 3.0 + 2.0 * x.data)



class TestDetach:
    def test_detach_blocks_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad
        z = (x * y).sum()
        backward(z)
        # gradient is y treated as constant, no path through the detached branch
        assert np.array_equal(x.grad, y.data)

    def test_detach_copy_isolated_from_source(self):
        x = Tensor([1.0, 2.0])
        y = x.detach()
        x.data[0] = 99.0
        assert y.data[0] == 1.0

    @given(st.integers(0, 1000))
    @settings(max_examples=25)
    def test_weighted_error_with_detached_weights(self, seed):
        g = np.random.default_rng(seed)
        e = Tensor(g.standard_normal(6), requires_grad=True)
        w = softmax(e).detach()
        backward((w * e).sum())
        assert np.max(np.abs(e.grad - w.data)) <= 1e-12

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad


class TestClampPow:
    def test_clamp_values_and_grad_mask(self):
        x = Tensor([-30.0, 0.0, 30.0], requires_grad=True)
        y = clamp(x, -20.0, 20.0)
        assert np.array_equal(y.data, [-20.0, 0.0, 20.0])
        backward(y.sum())
        assert np.array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_pow_grad(self):
        rep = grad_check(lambda x: x.pow(3).sum(), [Tensor(rng(16).standard_normal(5) + 2.0)])
        assert rep.ok(1e-4)

    def test_fractional_pow_of_negative_rejected(self):
        with pytest.raises(ValueError):
            Tensor([-1.0]).pow(0.5)
