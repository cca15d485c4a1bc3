"""Minimal dense numerical kernel: MLPs, ReLU, sigmoid, dropout, Adam.

Everything runs in float64 with hand-derived reverse-mode gradients and
cached activations; there is no autodiff tape. Forward passes are pure, and
only explicit backward / optimizer calls mutate parameter state, so inference
on frozen parameters is safe to run concurrently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core_graph import check_real
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


def check_mode(mode: str) -> None:
    """The one mode rule: a forward pass runs in "train" or "eval" mode."""
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")


def dropout(
    x: np.ndarray, rate: float, mode: str, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: survivors are scaled by 1/(1-rate) at train time.

    Returns (output, mask). Eval mode and a zero rate pass the input through
    untouched and build no mask (None).
    """
    check_real(rate, 0, 1, "dropout rate", "[)")  # a rate of 1 would drop every unit
    check_mode(mode)
    if mode == "eval" or rate == 0.0:
        return x, None
    if rng is None:
        raise ConfigError("train-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate).astype(np.float64)
    return x * mask / (1.0 - rate), mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray | None, rate: float) -> np.ndarray:
    if rate == 0.0:
        return dy
    return dy * mask / (1.0 - rate)


def _matmul_per_graph(x: np.ndarray, m: np.ndarray, spans: Sequence[tuple[int, int]]) -> np.ndarray:
    """x @ m, each graph's rows of x multiplied on their own: the floats of
    that graph's product alone, which a stacked product does not keep."""
    if len(spans) == 1:
        return x @ m
    out = np.empty((x.shape[0], m.shape[1]))
    for start, stop in spans:
        np.matmul(x[start:stop], m, out=out[start:stop])
    return out


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

    def forward(
        self, x: np.ndarray, spans: Sequence[tuple[int, int]] | None = None, keep_cache: bool = True
    ) -> tuple[np.ndarray, tuple | None]:
        """x is (N, input_dim); returns (y, cache) with y (N, output_dim).

        x holds one graph's rows, or a union's: graph g owns rows
        ``spans[g]`` = (start, stop), and the spans cover every row (default:
        one graph of all N rows). Each product runs on one graph's rows, so
        its floats are those of that graph alone; bias and ReLU run once on
        the union. The cache is None when not keep_cache.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(f"input shape {x.shape} is not (N, {self.input_dim})")
        if spans is None:
            spans = ((0, x.shape[0]),)
        layers = []
        h = x
        last = len(self.weights) - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = _matmul_per_graph(h, w.value, spans)
            z += b.value
            active = z > 0 if keep_cache and l < last else None
            if l < last:
                np.maximum(z, 0.0, out=z)
            if keep_cache:
                layers.append((h, active))
            h = z
        return h, ((spans, layers) if keep_cache else None)

    def backward(self, cache: tuple, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Add parameter gradients; return the input gradient, or None if not input_grad.

        Each graph's weight and bias gradients are added with their own
        ``+=``, in graph order: the floats of training on one graph at a time.
        """
        dy = np.asarray(dy, dtype=np.float64)
        spans, layers = cache
        if len(layers) != len(self.weights):
            raise DimensionError("cache does not match this MLP")
        da = dy
        for l in range(len(layers) - 1, -1, -1):
            h, active = layers[l]
            w, b = self.weights[l], self.biases[l]
            if da.shape != (h.shape[0], w.value.shape[1]):
                raise DimensionError("stale cache shape in MLP backward")
            dz = da if active is None else da * active
            for start, stop in spans:
                w.grad += h[start:stop].T @ dz[start:stop]
                b.grad += dz[start:stop].sum(axis=0)
            if l == 0 and not input_grad:
                return None
            da = _matmul_per_graph(dz, w.value.T, spans)
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
