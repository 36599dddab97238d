"""Numeric substrate: ops, clipping, SGD, dropout, and the gradient checker."""

import numpy as np
import pytest

from judou.nncore import (NumericError, Param, clip_gradients, dropout_mask,
                          glorot_uniform, make_rng, sgd_step, sigmoid)
from oracles import grad_check


class TestElementaryOps:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.zeros(3)) == pytest.approx([0.5, 0.5, 0.5])

    def test_sigmoid_overflow_safe(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out == pytest.approx([0.0, 1.0])
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_sigmoid_matches_the_exp_form(self):
        x = np.linspace(-40.0, 40.0, 8001)
        assert np.max(np.abs(sigmoid(x) - 1.0 / (1.0 + np.exp(-x)))) <= 1e-15

    def test_sigmoid_writes_into_out(self):
        x = np.linspace(-5.0, 5.0, 11)
        out = np.empty_like(x)
        assert sigmoid(x, out=out) is out
        assert np.array_equal(out, sigmoid(x))
        assert np.array_equal(x, np.linspace(-5.0, 5.0, 11))

    def test_sigmoid_in_place_on_a_view(self):
        x = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        expected = sigmoid(x[:, :2])
        rest = x[:, 2:].copy()
        view = x[:, :2]
        assert sigmoid(view, out=view) is view
        assert np.array_equal(x[:, :2], expected)
        assert np.array_equal(x[:, 2:], rest)


class TestGlorot:
    def test_bounds_and_determinism(self):
        limit = np.sqrt(6.0 / (40 + 30))
        a = glorot_uniform((40, 30), make_rng(3))
        b = glorot_uniform((40, 30), make_rng(3))
        assert np.abs(a).max() <= limit
        assert np.array_equal(a, b)


class TestClipGradients:
    def test_norm_ten_scaled_to_five(self):
        p = Param.zeros((2,), "p")
        p.grad[:] = [6.0, 8.0]
        assert clip_gradients([p], 5.0) == pytest.approx(0.5)
        assert p.grad == pytest.approx([3.0, 4.0])

    def test_under_threshold_untouched(self):
        p = Param.zeros((2,), "p")
        p.grad[:] = [1.0, 1.0]
        assert clip_gradients([p], 5.0) == 1.0
        assert p.grad == pytest.approx([1.0, 1.0])

    def test_all_zero_grads(self):
        p = Param.zeros((3, 3), "p")
        assert clip_gradients([p], 5.0) == 1.0

    def test_global_norm_spans_params(self):
        a, b = Param.zeros((1,), "a"), Param.zeros((1,), "b")
        a.grad[:] = 6.0
        b.grad[:] = 8.0
        assert clip_gradients([a, b], 5.0) == pytest.approx(0.5)

    def test_non_finite_names_parameter(self):
        p = Param.zeros((2,), "w_bad")
        p.grad[:] = [np.nan, 1.0]
        with pytest.raises(NumericError, match="w_bad"):
            clip_gradients([p], 5.0)

    def test_post_norm_bounded(self):
        rng = make_rng(0)
        for _ in range(20):
            params = [Param.zeros((4, 4), f"p{i}") for i in range(3)]
            for p in params:
                p.grad[:] = rng.normal(scale=10, size=(4, 4))
            clip_gradients(params, 5.0)
            total = np.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params))
            assert total <= 5.0 + 1e-9

    def test_rejects_bad_clip_norm(self):
        with pytest.raises(ValueError):
            clip_gradients([], 0.0)


class TestSgdStep:
    def test_arithmetic(self):
        p = Param.zeros((1,), "p")
        p.value[:] = 1.0
        p.grad[:] = 0.5
        sgd_step([p], 0.01, 5.0)
        assert p.value == pytest.approx([0.995])

    def test_zero_grad_no_change(self):
        p = Param.zeros((2,), "p")
        p.value[:] = [1.0, 2.0]
        sgd_step([p], 0.01, 5.0)
        assert p.value == pytest.approx([1.0, 2.0])

    def test_grads_zeroed_after(self):
        p = Param.zeros((2,), "p")
        p.grad[:] = 1.0
        sgd_step([p], 0.01, 5.0)
        assert np.all(p.grad == 0.0)

    def test_two_steps_linear_when_unclipped(self):
        a = Param.zeros((2,), "a")
        a.grad[:] = [1.0, 2.0]
        sgd_step([a], 0.1, 100.0)
        a.grad[:] = [0.5, 0.25]
        sgd_step([a], 0.1, 100.0)
        b = Param.zeros((2,), "b")
        b.grad[:] = [1.5, 2.25]
        sgd_step([b], 0.1, 100.0)
        assert a.value == pytest.approx(b.value)

    def test_lr_zero_leaves_values_bitwise_and_zeroes_grads(self):
        rng = make_rng(5)
        p = Param.of(rng.normal(size=(3, 4)), "p")
        p.grad[:] = rng.normal(scale=10.0, size=(3, 4))  # clipped, then scaled by 0
        before = p.value.tobytes()
        sgd_step([p], 0.0, 5.0)
        assert p.value.tobytes() == before
        assert np.all(p.grad == 0.0)

    @pytest.mark.parametrize("clip_norm", [0.0, -1.0])
    def test_rejects_a_clip_norm_not_above_zero(self, clip_norm):
        p = Param.zeros((2,), "p")
        with pytest.raises(ValueError):
            sgd_step([p], 0.01, clip_norm)


class TestDropoutMask:
    def test_rate_zero_all_ones(self):
        assert np.all(dropout_mask((3, 3), 0.0, make_rng(0)) == 1.0)

    def test_inverted_scaling_mean(self):
        # entries are 0 or 2 at rate 0.5: var 1, so 3 sigma over 1e4 draws = 0.03
        mask = dropout_mask((100, 100), 0.5, make_rng(1))
        assert set(np.unique(mask)) <= {0.0, 2.0}
        assert abs(mask.mean() - 1.0) < 0.03

    def test_same_seed_identical(self):
        a = dropout_mask((5, 5), 0.3, make_rng(7))
        b = dropout_mask((5, 5), 0.3, make_rng(7))
        assert np.array_equal(a, b)

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            dropout_mask((2,), 1.0, make_rng(0))


class TestGradCheck:
    def test_quadratic_is_exact(self):
        p = Param.zeros((1,), "theta")
        p.value[:] = 3.0
        p.grad[:] = 6.0  # d/dθ θ² at θ=3
        err = grad_check(lambda: float(p.value[0] ** 2), [p])
        assert err < 1e-8

    def test_detects_a_wrong_gradient(self):
        p = Param.zeros((1,), "theta")
        p.value[:] = 3.0
        p.grad[:] = 5.0  # deliberately off
        err = grad_check(lambda: float(p.value[0] ** 2), [p])
        assert err > 1e-2

    def test_restores_values(self):
        p = Param.zeros((3,), "p")
        p.value[:] = [1.0, 2.0, 3.0]
        before = p.value.copy()
        grad_check(lambda: float(np.sum(p.value ** 2)), [p])
        assert np.array_equal(p.value, before)


class TestParam:
    def test_identity_equality(self):
        a = Param.zeros((2,), "a")
        b = Param.zeros((2,), "a")
        assert a != b and a == a
        assert a in [a] and b not in [a]

    def test_of_shares_storage(self):
        arr = np.zeros(3)
        p = Param.of(arr, "p")
        p.value += 1.0
        assert np.all(arr == 1.0)
