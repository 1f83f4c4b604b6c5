"""Parameter update rules: fixed-rate SGD and Adam, one pass per buffer.

Both optimizers ``layers.pack`` their params, so every step is a fixed
number of whole-buffer passes over the flat values and grads. For a
model's params, in the model's order, packing returns the model's own
buffers and copies nothing. Each pass does, element by element, the float
operations of the per-parameter update, on the same operands in the same
order, so a flat step moves no result bit.

Adam keeps its moments in two flat buffers, ``m`` and ``v``, and its
temporaries in two scratch buffers reused by every step. ``state`` is a
dict keyed by param id (empty for SGD) whose ``m``/``v`` entries are
views into the flat moments, shaped like the param, and whose ``t`` is
the one shared step count. ``flat_state`` lists the arrays behind
``state``, which a training snapshot copies and restores in place. Both
optimizers expose ``reset_state_slice(param, index_slice)`` so a filter
reset can zero the moments of exactly the reinitialized weights.
``index_slice`` is any numpy index into the parameter's leading axis: a
row number, a slice, or a boolean mask selecting several filters at once.
Adam's timestep is kept per optimizer (not per element), so a reset
filter restarts under the bias correction of a late step, not clean: a
defect, measured at up to 4.2x lr right after a reset at t=500. ROADMAP
open item 3 fixes it, which moves result bits.
"""

import numpy as np

from .layers import pack


class SGD:
    """value <- value - lr * grad for every element."""

    def __init__(self, params, lr):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.values, self.grads = pack(self.params)
        self.state = {}
        self.flat_state = ()
        self._update = np.empty_like(self.values)

    def step(self):
        np.multiply(self.grads, self.lr, out=self._update)
        self.values -= self._update

    def reset_state_slice(self, param, index_slice):
        """SGD is stateless; nothing to reset."""


class Adam:
    """Adam with bias correction: m/v moments per element, one timestep for all."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.values, self.grads = pack(self.params)
        self.m, self.v = np.zeros_like(self.values), np.zeros_like(self.values)
        self.t = np.zeros((), dtype=np.int64)  # 0-d, so every state[...]["t"] sees it count
        self.flat_state = (self.m, self.v, self.t)
        self._num, self._den = np.empty_like(self.values), np.empty_like(self.values)
        self.state = {}
        start = 0
        for p in self.params:
            end, shape = start + p.value.size, p.value.shape
            self.state[p.id] = {"m": self.m[start:end].reshape(shape), "v": self.v[start:end].reshape(shape), "t": self.t}
            start = end

    def step(self):
        self.t += 1
        t = int(self.t)
        g, m, v, num, den = self.grads, self.m, self.v, self._num, self._den
        # in place, with the same operations per element as m = b1*m + (1-b1)*g
        m *= self.beta1
        np.multiply(g, 1 - self.beta1, out=num)
        m += num
        v *= self.beta2
        np.square(g, out=den)
        den *= 1 - self.beta2
        v += den
        # value -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(v, 1 - self.beta2**t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, 1 - self.beta1**t, out=num)
        num *= self.lr
        num /= den
        self.values -= num

    def reset_state_slice(self, param, index_slice):
        """Zero m and v on the slice; t and all other elements are untouched."""
        s = self.state[param.id]
        s["m"][index_slice] = 0.0
        s["v"][index_slice] = 0.0


def make_optimizer(kind, params, lr):
    if kind == "sgd":
        return SGD(params, lr)
    if kind == "adam":
        return Adam(params, lr)
    raise ValueError(f"unknown optimizer kind {kind!r}")
