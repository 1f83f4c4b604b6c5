"""Parameter update rules: fixed-rate SGD and Adam.

Both optimizers keep their state in ``state``, a dict keyed by param id
(empty for SGD), which a training snapshot copies. Both expose
``reset_state_slice(param, index_slice)`` so a filter reset can zero the
moments of exactly the reinitialized weights.
``index_slice`` is any numpy index into the parameter's leading axis: a
row number, a slice, or a boolean mask selecting several filters at once.
Adam's timestep is kept per parameter (not per element), so a reset
filter restarts under the bias correction of a late step, not clean: a
defect, measured at up to 4.2x lr right after a reset at t=500. ROADMAP
open item 3 fixes it, which moves result bits.
"""

import numpy as np


class SGD:
    """value <- value - lr * grad for every element."""

    def __init__(self, params, lr):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.state = {}

    def step(self):
        for p in self.params:
            p.value -= self.lr * p.grad

    def reset_state_slice(self, param, index_slice):
        """SGD is stateless; nothing to reset."""


class Adam:
    """Adam with bias correction: m/v moments per element, timestep per param."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state = {
            p.id: {"m": np.zeros_like(p.value), "v": np.zeros_like(p.value), "t": 0} for p in self.params
        }

    def step(self):
        for p in self.params:
            s = self.state[p.id]
            s["t"] += 1
            t = s["t"]
            m, v = s["m"], s["v"]
            # in place, with the same operations per element as m = b1*m + (1-b1)*g
            m *= self.beta1
            m += (1 - self.beta1) * p.grad
            v *= self.beta2
            v += (1 - self.beta2) * np.square(p.grad)
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

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
