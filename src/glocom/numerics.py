"""Differentiable building blocks and the optimizer.

The model's computation graph is fixed, so instead of general autodiff every
operation exposes an explicit forward and backward. All math is float64:
finite-difference verification headroom matters more than speed here.

Each backward hands every parameter's finished gradient to an ``update(param,
grad)`` callable, once per parameter, after it has read every parameter value
it still needs; training passes ``Adam.update``, which applies it at once.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import TrainingError

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


class Param:
    """A named tensor."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        # contiguous, so the optimizer can update it through a flat view
        self.value = np.ascontiguousarray(value, dtype=np.float64)


Update = Callable[[Param, np.ndarray], None]


# ---------------------------------------------------------------------------
# primitive ops


def softplus_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + e^x), and e^-|x| for the backward pass to reuse."""
    # log(1+e^x) rewritten to avoid overflow for large |x|
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.log1p(e)
    y += np.maximum(x, 0.0)
    return y, e


def softplus_backward(g: np.ndarray, x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """g times softplus's slope, the sigmoid of x, from ``e`` = e^-|x|:
    where(x >= 0, 1, e) / (1 + e), which is 1/(1+e^-x) where x >= 0 and
    e^x/(1+e^x) below, so neither branch overflows."""
    # the numerator as max(x >= 0, e), since 0 <= e <= 1 (nan stays nan):
    # np.where branches per element and costs several times as much
    s = np.greater_equal(x, 0.0, out=np.empty_like(e))
    np.maximum(s, e, out=s)
    s /= 1.0 + e
    s *= g
    return s


def softmax_forward(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y = softmax(x); returns dL/dx given dL/dy = g."""
    return y * (g - np.sum(g * y, axis=-1, keepdims=True))


def clamp_logvar(lv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp to [-10, 10]; the mask gates the backward pass (gradient passes
    through only where the clamp was inactive)."""
    clamped = np.clip(lv, LOGVAR_MIN, LOGVAR_MAX)
    mask = ((lv > LOGVAR_MIN) & (lv < LOGVAR_MAX)).astype(np.float64)
    return clamped, mask


def gaussian_reparameterize(
    mu: np.ndarray, log_var: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """mu + exp(0.5 log_var) * noise. log_var is assumed already clamped."""
    if mu.shape != log_var.shape or mu.shape != noise.shape:
        raise TrainingError("reparameterize: shape mismatch")
    return mu + np.exp(0.5 * log_var) * noise


def gaussian_reparameterize_backward(
    g: np.ndarray, log_var: np.ndarray, noise: np.ndarray
):
    """Returns (dmu, dlog_var)."""
    dmu = g
    dlv = g * noise * 0.5 * np.exp(0.5 * log_var)
    return dmu, dlv


def kl_diag_gaussian(
    mu_q: np.ndarray, log_var_q: np.ndarray, mu_p: float, var_p: float
) -> np.ndarray:
    """KL(N(mu_q, diag e^lv) || N(mu_p, var_p I)), summed over the last axis.

    0.5 * sum_k [ e^lv/var_p + (mu-mu_p)^2/var_p - 1 + ln var_p - lv ]
    """
    if var_p <= 0:
        raise TrainingError(f"prior variance must be positive, got {var_p}")
    t = (
        np.exp(log_var_q) / var_p
        + (mu_q - mu_p) ** 2 / var_p
        - 1.0
        + np.log(var_p)
        - log_var_q
    )
    return 0.5 * t.sum(axis=-1)


def kl_diag_gaussian_backward(
    g, mu_q: np.ndarray, log_var_q: np.ndarray, mu_p: float, var_p: float
):
    """Returns (dmu_q, dlog_var_q); g broadcasts over the summed axis."""
    g = np.asarray(g, dtype=np.float64)[..., None]
    dmu = g * (mu_q - mu_p) / var_p
    dlv = g * 0.5 * (np.exp(log_var_q) / var_p - 1.0)
    return dmu, dlv


# ---------------------------------------------------------------------------
# layers


class DenseLayer:
    """y = x W + b, W held (in_dim, out_dim). X @ W reads CSR rows against
    W's own C-ordered rows, where X @ W.T would copy W.T first, and W's
    gradient X^T g adds in W's layout."""

    def __init__(self, W: Param, b: Param):
        self.W, self.b = W, b

    def forward(self, X) -> np.ndarray:
        if X.shape[1] != self.W.value.shape[0]:
            raise TrainingError(
                f"affine: input dim {X.shape[1]} != weight dim {self.W.value.shape[0]}"
            )
        a = X @ self.W.value
        a += self.b.value
        return a

    def backward(self, g: np.ndarray, X, update: Update,
                 input_grad: bool = True) -> Optional[np.ndarray]:
        """Hand W's and b's gradients to ``update``; X^T g is a sparse
        product when X is CSR (cost nnz x out_dim). dX is formed first,
        from W's value before the update, unless ``input_grad`` is False."""
        dX = g @ self.W.value.T if input_grad else None
        update(self.W, X.T @ g)
        update(self.b, g.sum(axis=0))
        return dX

    def params(self) -> list[Param]:
        return [self.W, self.b]


@dataclass
class EncoderCache:
    X: np.ndarray
    a1: np.ndarray
    e1: np.ndarray  # e^-|a1|, shared by softplus and its slope
    h1: np.ndarray
    a2: np.ndarray
    e2: np.ndarray
    h2: np.ndarray
    lv_mask: np.ndarray


class Encoder:
    """Two softplus-activated dense layers, then separate mean / log-variance
    heads. The log-variance head is clamped to [-10, 10]. Every weight is
    held (in, out)."""

    def __init__(self, name: str, in_dim: int, hidden: int, out_dim: int, rng):
        """Glorot-uniform weights drawn from ``rng``, zero biases."""
        values = {}
        for layer, fan_in, fan_out in self.layers(in_dim, hidden, out_dim):
            # Glorot-uniform keeps softplus preactivations in a sane range
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            # drawn (out, in), held (in, out)
            values[f"{name}.{layer}.W"] = rng.uniform(-limit, limit, size=(fan_out, fan_in)).T
            values[f"{name}.{layer}.b"] = np.zeros(fan_out)
        self._hold(name, values)

    @staticmethod
    def layers(in_dim: int, hidden: int, out_dim: int) -> tuple:
        """(layer, in, out) of each dense layer, in ``params()`` order."""
        return (("l1", in_dim, hidden), ("l2", hidden, hidden),
                ("mu", hidden, out_dim), ("lv", hidden, out_dim))

    @classmethod
    def from_values(cls, name: str, values: dict) -> "Encoder":
        """An encoder holding ``values[f"{name}.<layer>.<W|b>"]`` as they
        are, no random draws; each "W" is (in, out)."""
        enc = cls.__new__(cls)
        enc._hold(name, values)
        return enc

    def _hold(self, name: str, values: dict) -> None:
        def layer(key):
            return DenseLayer(Param(f"{name}.{key}.W", values[f"{name}.{key}.W"]),
                              Param(f"{name}.{key}.b", values[f"{name}.{key}.b"]))

        self.l1, self.l2, self.mu_head, self.lv_head = map(layer, ("l1", "l2", "mu", "lv"))

    def forward(self, X) -> tuple[np.ndarray, np.ndarray, EncoderCache]:
        """X is dense or CSR (N, in_dim); only the first layer reads it."""
        a1 = self.l1.forward(X)
        h1, e1 = softplus_forward(a1)
        a2 = self.l2.forward(h1)
        h2, e2 = softplus_forward(a2)
        mu = self.mu_head.forward(h2)
        lv_raw = self.lv_head.forward(h2)
        lv, mask = clamp_logvar(lv_raw)
        return mu, lv, EncoderCache(X, a1, e1, h1, a2, e2, h2, mask)

    def backward(self, dmu: np.ndarray, dlv: np.ndarray, cache: EncoderCache,
                 update: Update) -> None:
        """Hand each parameter's gradient to ``update``, once."""
        dh2 = self.mu_head.backward(dmu, cache.h2, update)
        dh2 += self.lv_head.backward(dlv * cache.lv_mask, cache.h2, update)
        da2 = softplus_backward(dh2, cache.a2, cache.e2)
        dh1 = self.l2.backward(da2, cache.h1, update)
        # nothing upstream of the encoder's input is trained
        self.l1.backward(softplus_backward(dh1, cache.a1, cache.e1), cache.X, update,
                         input_grad=False)

    def params(self) -> list[Param]:
        return (
            self.l1.params() + self.l2.params() + self.mu_head.params() + self.lv_head.params()
        )


# ---------------------------------------------------------------------------
# optimizer


# Elements of a parameter updated per pass of Adam's 10 elementwise
# operations: the chunk and its scratch buffer stay in cache.
ADAM_CHUNK = 32768
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step_scalars(t: int, lr: float) -> tuple[float, float]:
    """(step, eps_t) of Adam's step t on the rescaled moments M = m/(1-b1)
    and W = v/(1-b2): with c = sqrt((1-b2)/(1-b2^t)), the update
    lr (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps) is step M / (sqrt(W) + eps_t),
    step = lr (1-b1) / ((1-b1^t) c) and eps_t = eps / c."""
    c = math.sqrt((1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA2**t))
    return lr * (1.0 - ADAM_BETA1) / ((1.0 - ADAM_BETA1**t) * c), ADAM_EPS / c


class Adam:
    """Standard Adam with bias correction, updated in place chunk by chunk.

    ``m`` and ``v`` hold the moments divided by (1 - beta1) and (1 - beta2):
    M = b1 M + g and W = b2 W + g^2 need no product with g, and the bias
    corrections and eps fold into the two scalars of ``adam_step_scalars``.

    ``update(p, g)`` applies one parameter's gradient for the current step
    as soon as it is made; ``step()`` ends the step once every parameter
    has had its ``update``."""

    def __init__(self, params: list[Param], lr=0.002):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise TrainingError(f"duplicate parameter names: {names}")
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}
        self._scratch = np.empty(ADAM_CHUNK)
        self._scalars = adam_step_scalars(1, lr)  # of the current step
        self._updated: set[str] = set()  # parameters updated in this step

    def update(self, p: Param, grad: np.ndarray) -> None:
        """Apply this step's gradient ``grad`` to ``p``; once per step."""
        if p.name in self._updated:
            raise TrainingError(f"parameter {p.name!r} updated twice in one step")
        if grad.shape != p.value.shape:  # a flat view would hide a transpose
            raise TrainingError(
                f"gradient shape {grad.shape} != parameter {p.name!r} shape {p.value.shape}"
            )
        self._updated.add(p.name)
        step, eps_t = self._scalars
        value, grad = p.value.reshape(-1), grad.reshape(-1)
        m, v = self.m[p.name].reshape(-1), self.v[p.name].reshape(-1)
        for lo in range(0, value.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, value.size)
            g, mc, vc = grad[lo:hi], m[lo:hi], v[lo:hi]
            t = self._scratch[: hi - lo]
            # M = b1 M + g;  W = b2 W + g^2
            mc *= ADAM_BETA1
            mc += g
            vc *= ADAM_BETA2
            np.multiply(g, g, out=t)
            vc += t
            # value -= step M / (sqrt(W) + eps_t)
            np.sqrt(vc, out=t)
            t += eps_t
            np.divide(mc, t, out=t)
            t *= step
            value[lo:hi] -= t

    def step(self) -> None:
        """End the step and advance the bias corrections; a parameter that
        had no ``update`` in the step is an error."""
        missed = [p.name for p in self.params if p.name not in self._updated]
        if missed:
            raise TrainingError(f"parameters not updated in step {self.step_count + 1}: {missed}")
        self._updated.clear()
        self.step_count += 1
        self._scalars = adam_step_scalars(self.step_count + 1, self.lr)
