"""Dense kernel: gradient checks, an independent MLP oracle, Adam, dropout."""

import numpy as np
import numpy.testing as npt
import pytest

from vsg import ConfigError, DimensionError, TrainingError
from vsg.nn_core import (
    Adam,
    Mlp,
    ParamStore,
    dropout,
    dropout_backward,
    relu,
    sigmoid,
)

from gradcheck import max_relative_error, numerical_gradient

GRAD_TOL = 1e-4


def mlp_oracle(x, weights, biases):
    """Straight-line re-implementation of the MLP forward pass."""
    h = x
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w + b
        h = np.maximum(z, 0.0) if l < len(weights) - 1 else z
    return h


class TestActivations:
    def test_relu(self):
        npt.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-40, 40, 201)
        y = sigmoid(x)
        assert np.all((y >= 0) & (y <= 1))
        npt.assert_allclose(y + sigmoid(-x), np.ones_like(x), atol=1e-12)
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extreme_inputs_finite(self):
        y = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))
        npt.assert_allclose(y, [0.0, 1.0], atol=1e-12)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.random.default_rng(0).normal(size=(5, 4))
        y, mask = dropout(x, 0.5, "eval")
        npt.assert_array_equal(y, x)
        assert mask is None  # eval mode builds no mask

    def test_zero_rate_is_identity(self):
        x = np.ones((3, 3))
        y, _ = dropout(x, 0.0, "train", np.random.default_rng(0))
        npt.assert_array_equal(y, x)

    def test_train_mode_scales_survivors(self):
        rng = np.random.default_rng(1)
        x = np.ones((10, 10))
        y, mask = dropout(x, 0.25, "train", rng)
        survivors = y[mask == 1.0]
        npt.assert_allclose(survivors, 1.0 / 0.75)
        npt.assert_array_equal(y[mask == 0.0], 0.0)

    def test_expectation_preserved(self):
        # Inverted scaling keeps E[dropout(x)] = x; check on a big sample.
        rng = np.random.default_rng(2)
        x = np.ones((200, 200))
        y, _ = dropout(x, 0.3, "train", rng)
        assert float(y.mean()) == pytest.approx(1.0, abs=0.01)

    def test_backward_mirrors_mask(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 6))
        _, mask = dropout(x, 0.4, "train", rng)
        dy = rng.normal(size=(6, 6))
        dx = dropout_backward(dy, mask, 0.4)
        npt.assert_allclose(dx, dy * mask / 0.6)

    def test_bad_arguments(self):
        x = np.ones((2, 2))
        with pytest.raises(ConfigError):
            dropout(x, 1.0, "train", np.random.default_rng(0))
        with pytest.raises(ConfigError):
            dropout(x, 0.5, "predict", np.random.default_rng(0))
        with pytest.raises(ConfigError):
            dropout(x, 0.5, "train", None)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ConfigError):
            store.add("w", np.zeros(2))

    def test_names_sorted(self):
        store = ParamStore()
        store.add("b", np.zeros(1))
        store.add("a", np.zeros(1))
        assert store.names() == ["a", "b"]

    def test_non_finite_grad_names_parameter(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        store["w"].grad[0] = np.nan
        with pytest.raises(TrainingError, match="w"):
            store.require_finite_grads()

    def test_first_non_finite_grad_in_name_order_is_named(self):
        store = ParamStore()
        for name in ("c", "b", "a"):
            store.add(name, np.zeros(2))
        store["c"].grad[1] = np.inf
        store["b"].grad[0] = np.nan
        with pytest.raises(TrainingError, match="'b'"):
            store.require_finite_grads()

    def test_parameters_are_views_into_the_flat_buffers(self):
        store = ParamStore()
        w = np.arange(6.0).reshape(2, 3)
        store.add("w", w)
        first = store["w"]
        store.add("b", np.array([7.0, 8.0]))  # growing the buffers keeps values
        npt.assert_array_equal(first.value, w)
        assert first.value.base is store.values and first.grad.base is store.grads
        npt.assert_array_equal(store.values, [0, 1, 2, 3, 4, 5, 7, 8])
        store.values[-1] = -1.0
        store.grads[0] = 2.0
        assert store["b"].value[1] == -1.0 and first.grad[0, 0] == 2.0
        w[0, 0] = 99.0  # the caller's array is copied, not shared
        assert first.value[0, 0] == 0.0


class TestMlp:
    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            sizes = [int(s) for s in rng.integers(1, 7, size=int(rng.integers(2, 5)))]
            store = ParamStore()
            net = Mlp(sizes, store, "net", np.random.default_rng(int(rng.integers(1000))))
            x = rng.normal(size=(int(rng.integers(1, 6)), sizes[0]))
            out, _ = net.forward(x)
            oracle = mlp_oracle(x, [w.value for w in net.weights], [b.value for b in net.biases])
            npt.assert_allclose(out, oracle, atol=1e-12)

    def test_kaiming_uniform_bounds_and_zero_biases(self):
        store = ParamStore()
        net = Mlp([100, 50, 10], store, "net", np.random.default_rng(0))
        assert np.all(np.abs(net.weights[0].value) <= np.sqrt(6.0 / 100))
        assert np.all(np.abs(net.weights[1].value) <= np.sqrt(6.0 / 50))
        npt.assert_array_equal(net.biases[0].value, np.zeros(50))

    def test_width_mismatch_raises(self):
        store = ParamStore()
        net = Mlp([3, 2], store, "net", np.random.default_rng(0))
        with pytest.raises(DimensionError):
            net.forward(np.zeros((4, 5)))

    def test_one_dimensional_arrays_raise(self):
        store = ParamStore()
        net = Mlp([3, 2], store, "net", np.random.default_rng(0))
        with pytest.raises(DimensionError):
            net.forward(np.zeros(3))
        _, cache = net.forward(np.zeros((1, 3)))
        with pytest.raises(DimensionError):
            net.backward(cache, np.zeros(2))

    def test_gradients_match_finite_differences(self):
        # The load-bearing check: every parameter and the input, many seeds.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            store = ParamStore()
            net = Mlp([4, 6, 3], store, "net", rng)
            x = rng.normal(size=(5, 4))
            target = rng.normal(size=(5, 3))

            def loss_fn():
                out, _ = net.forward(x)
                return 0.5 * float(((out - target) ** 2).sum())

            out, cache = net.forward(x)
            store.zero_grads()
            dx = net.backward(cache, out - target)

            for p in store.parameters():
                num = numerical_gradient(lambda v: loss_fn(), p.value)
                assert max_relative_error(p.grad, num) < GRAD_TOL, p.name

            def loss_of_x(xv):
                out, _ = net.forward(xv)
                return 0.5 * float(((out - target) ** 2).sum())

            num_dx = numerical_gradient(loss_of_x, x)
            assert max_relative_error(dx, num_dx) < GRAD_TOL

    def test_backward_accumulates(self):
        store = ParamStore()
        net = Mlp([2, 2], store, "net", np.random.default_rng(0))
        x = np.ones((1, 2))
        out, cache = net.forward(x)
        store.zero_grads()
        net.backward(cache, np.ones_like(out))
        once = store["net.W0"].grad.copy()
        net.backward(cache, np.ones_like(out))
        npt.assert_allclose(store["net.W0"].grad, 2 * once)

    def test_forward_is_pure(self):
        store = ParamStore()
        net = Mlp([3, 3], store, "net", np.random.default_rng(0))
        before = {n: store[n].value.copy() for n in store.names()}
        net.forward(np.ones((2, 3)))
        for n in store.names():
            npt.assert_array_equal(store[n].value, before[n])


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        store = ParamStore()
        store.add("w", np.array([1.0, 2.0]))
        opt = Adam(store)
        store.zero_grads()
        opt.step()
        npt.assert_array_equal(store["w"].value, [1.0, 2.0])

    def test_first_step_hand_derived(self):
        # With constant grad g: m-hat = g, v-hat = g^2, step = -lr*g/(|g|+eps).
        store = ParamStore()
        store.add("w", np.array([0.0]))
        opt = Adam(store, lr=0.1)
        store["w"].grad[...] = 1.0
        opt.step()
        expected = -0.1 * 1.0 / (1.0 + 1e-8)
        assert store["w"].value[0] == pytest.approx(expected, abs=1e-12)

    def test_quadratic_bowl_converges(self):
        store = ParamStore()
        store.add("w", np.array([5.0, -3.0]))
        target = np.array([1.5, 2.0])
        opt = Adam(store, lr=0.05)
        for _ in range(500):
            store.zero_grads()
            store["w"].grad[...] = store["w"].value - target
            opt.step()
        npt.assert_allclose(store["w"].value, target, atol=1e-3)

    def test_non_finite_grad_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(1))
        opt = Adam(store)
        store["w"].grad[...] = np.inf
        with pytest.raises(TrainingError, match="w"):
            opt.step()

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(7)
            store = ParamStore()
            net = Mlp([3, 4, 1], store, "net", np.random.default_rng(0))
            opt = Adam(store, lr=1e-2)
            x = rng.normal(size=(8, 3))
            y = rng.normal(size=(8, 1))
            for _ in range(50):
                out, cache = net.forward(x)
                store.zero_grads()
                net.backward(cache, out - y)
                opt.step()
            return {n: store[n].value.copy() for n in store.names()}

        a, b = run(), run()
        for n in a:
            npt.assert_array_equal(a[n], b[n])

