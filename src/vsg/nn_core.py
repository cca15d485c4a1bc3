"""Minimal dense numerical kernel: MLPs, ReLU, sigmoid, dropout, Adam.

Everything runs in float64 with hand-derived reverse-mode gradients and
cached activations; there is no autodiff tape. Forward passes are pure, and
only explicit backward / optimizer calls mutate parameter state, so inference
on frozen parameters is safe to run concurrently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, TrainingError


class Parameter:
    """A named tensor with a shape-matched gradient buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class ParamStore:
    """Registry of named parameters plus the seed that initialized them. Each
    Parameter's value and grad are views into the flat ``values``/``grads``."""

    def __init__(self, rng_seed: int = 0):
        self.rng_seed = int(rng_seed)
        self._params: dict[str, Parameter] = {}
        self.values = np.zeros(0)
        self.grads = np.zeros(0)

    def add(self, name: str, value: np.ndarray) -> Parameter:
        if name in self._params:
            raise ConfigError(f"parameter {name!r} registered twice")
        self._params[name] = Parameter(name, value)
        params = list(self._params.values())
        self.values = np.concatenate([p.value.ravel() for p in params])
        self.grads = np.concatenate([p.grad.ravel() for p in params])
        cuts = np.cumsum([p.value.size for p in params])[:-1]
        for p, v, g in zip(params, np.split(self.values, cuts), np.split(self.grads, cuts)):
            p.value, p.grad = v.reshape(p.value.shape), g.reshape(p.grad.shape)
        return self._params[name]

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def parameters(self) -> list[Parameter]:
        return [self._params[n] for n in self.names()]

    def zero_grads(self) -> None:
        self.grads[...] = 0.0

    def require_finite_grads(self) -> None:
        if not np.isfinite(self.grads).all():
            name = next(n for n in self.names() if not np.isfinite(self._params[n].grad).all())
            raise TrainingError(f"non-finite gradient in parameter {name!r}")


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Branch on sign to avoid overflow in exp.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def check_dropout_rate(rate: float) -> None:
    """The one dropout-rate rule: a rate of 1 or more would drop every unit."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")


def dropout(
    x: np.ndarray, rate: float, mode: str, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout: survivors are scaled by 1/(1-rate) at train time.

    Returns (output, mask); eval mode passes the input through untouched.
    """
    check_dropout_rate(rate)
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x, np.ones_like(x)
    if rng is None:
        raise ConfigError("train-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate).astype(np.float64)
    return x * mask / (1.0 - rate), mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray, rate: float) -> np.ndarray:
    if rate == 0.0:
        return dy
    return dy * mask / (1.0 - rate)


class Mlp:
    """Fully connected net: ReLU on hidden layers, identity on the output.

    Parameters are registered in a ParamStore under ``prefix.W{l}`` /
    ``prefix.b{l}`` and initialized Kaiming-uniform with zero biases.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        store: ParamStore,
        prefix: str,
        rng: np.random.Generator,
    ):
        if len(layer_sizes) < 2:
            raise DimensionError("an MLP needs at least an input and an output size")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.weights: list[Parameter] = []
        self.biases: list[Parameter] = []
        for l, (fan_in, fan_out) in enumerate(zip(self.layer_sizes, self.layer_sizes[1:])):
            bound = np.sqrt(6.0 / fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            self.weights.append(store.add(f"{prefix}.W{l}", w))
            self.biases.append(store.add(f"{prefix}.b{l}", np.zeros(fan_out)))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """x is (N, input_dim); returns (y, cache) with y (N, output_dim)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(f"input shape {x.shape} is not (N, {self.input_dim})")
        cache = []
        h = x
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.value + b.value
            if l < last:
                a = relu(z)
            else:
                a = z
            cache.append((h, z))
            h = a
        return h, cache

    def backward(self, cache: list, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Add parameter gradients (+=); return the input gradient, or None if not input_grad."""
        dy = np.asarray(dy, dtype=np.float64)
        if len(cache) != len(self.weights):
            raise DimensionError("cache does not match this MLP")
        da = dy
        last = len(self.weights) - 1
        for l in range(last, -1, -1):
            h, z = cache[l]
            if da.shape != (h.shape[0], self.weights[l].value.shape[1]):
                raise DimensionError("stale cache shape in MLP backward")
            if l < last:
                dz = da * (z > 0)
            else:
                dz = da
            self.weights[l].grad += h.T @ dz
            self.biases[l].grad += dz.sum(axis=0)
            if l == 0 and not input_grad:
                return None
            da = dz @ self.weights[l].value.T
        return da


class Adam:
    """Adam with bias correction over a store's flat parameter buffer."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, store: ParamStore, lr: float = 1e-3):
        self.store = store
        self.lr = lr
        self.t = 0
        self._m = np.zeros_like(store.values)
        self._v = np.zeros_like(store.values)

    def step(self) -> None:
        self.store.require_finite_grads()
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        g, m, v = self.store.grads, self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g**2
        self.store.values -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
