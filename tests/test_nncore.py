"""Numeric substrate: ops, clipping, SGD, dropout, and the gradient checker."""

import numpy as np
import pytest

from judou.nncore import (NumericError, clip_gradients, dropout_mask,
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
        g = {"p": np.array([6.0, 8.0])}
        assert clip_gradients(g, 5.0) == pytest.approx(0.5)
        assert g["p"] == pytest.approx([3.0, 4.0])

    def test_under_threshold_untouched(self):
        g = {"p": np.array([1.0, 1.0])}
        assert clip_gradients(g, 5.0) == 1.0
        assert g["p"] == pytest.approx([1.0, 1.0])

    def test_all_zero_grads(self):
        assert clip_gradients({"p": np.zeros((3, 3))}, 5.0) == 1.0

    def test_global_norm_spans_params(self):
        grads = {"a": np.full(1, 6.0), "b": np.full(1, 8.0)}
        assert clip_gradients(grads, 5.0) == pytest.approx(0.5)

    def test_non_finite_names_parameter(self):
        with pytest.raises(NumericError, match="w_bad"):
            clip_gradients({"w_ok": np.ones(2), "w_bad": np.array([np.nan, 1.0])}, 5.0)

    def test_post_norm_bounded(self):
        rng = make_rng(0)
        for _ in range(20):
            grads = {f"p{i}": rng.normal(scale=10, size=(4, 4)) for i in range(3)}
            clip_gradients(grads, 5.0)
            total = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
            assert total <= 5.0 + 1e-9

    def test_rejects_bad_clip_norm(self):
        with pytest.raises(ValueError):
            clip_gradients({}, 0.0)


class TestSgdStep:
    def test_arithmetic(self):
        w, g = {"p": np.ones(1)}, {"p": np.full(1, 0.5)}
        sgd_step(w, g, 0.01, 5.0)
        assert w["p"] == pytest.approx([0.995])

    def test_zero_grad_no_change(self):
        w = {"p": np.array([1.0, 2.0])}
        sgd_step(w, {"p": np.zeros(2)}, 0.01, 5.0)
        assert w["p"] == pytest.approx([1.0, 2.0])

    def test_grads_zeroed_after(self):
        g = {"p": np.ones(2)}
        sgd_step({"p": np.zeros(2)}, g, 0.01, 5.0)
        assert np.all(g["p"] == 0.0)

    def test_two_steps_linear_when_unclipped(self):
        a, ga = {"p": np.zeros(2)}, {"p": np.array([1.0, 2.0])}
        sgd_step(a, ga, 0.1, 100.0)
        ga["p"][:] = [0.5, 0.25]
        sgd_step(a, ga, 0.1, 100.0)
        b = {"p": np.zeros(2)}
        sgd_step(b, {"p": np.array([1.5, 2.25])}, 0.1, 100.0)
        assert a["p"] == pytest.approx(b["p"])

    def test_lr_zero_leaves_values_bitwise_and_zeroes_grads(self):
        rng = make_rng(5)
        w = {"p": rng.normal(size=(3, 4))}
        g = {"p": rng.normal(scale=10.0, size=(3, 4))}  # clipped, then scaled by 0
        before = w["p"].tobytes()
        sgd_step(w, g, 0.0, 5.0)
        assert w["p"].tobytes() == before
        assert np.all(g["p"] == 0.0)

    def test_steps_only_the_weights_with_gradients_in_place(self):
        frozen, trained = np.ones(2), np.ones(2)
        w = {"frozen": frozen, "trained": trained}
        sgd_step(w, {"trained": np.ones(2)}, 0.5, 5.0)
        assert w["frozen"] is frozen and w["trained"] is trained
        assert np.all(frozen == 1.0) and np.all(trained == 0.5)

    @pytest.mark.parametrize("clip_norm", [0.0, -1.0])
    def test_rejects_a_clip_norm_not_above_zero(self, clip_norm):
        with pytest.raises(ValueError):
            sgd_step({"p": np.zeros(2)}, {"p": np.zeros(2)}, 0.01, clip_norm)


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
        w = {"theta": np.full(1, 3.0)}
        err = grad_check(lambda: float(w["theta"][0] ** 2), w, {"theta": np.full(1, 6.0)})
        assert err < 1e-8  # d/dθ θ² at θ=3 is 6

    def test_detects_a_wrong_gradient(self):
        w = {"theta": np.full(1, 3.0)}
        err = grad_check(lambda: float(w["theta"][0] ** 2), w, {"theta": np.full(1, 5.0)})
        assert err > 1e-2

    def test_restores_values(self):
        w = {"p": np.array([1.0, 2.0, 3.0])}
        before = w["p"].copy()
        grad_check(lambda: float(np.sum(w["p"] ** 2)), w, {"p": np.zeros(3)})
        assert np.array_equal(w["p"], before)
