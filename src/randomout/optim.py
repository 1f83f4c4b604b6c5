"""Parameter update rules: fixed-rate SGD and Adam, one pass per buffer.

Both optimizers are built on a ``Model`` and step its flat ``values``
with its flat ``grads``, so every step is a fixed number of whole-buffer
passes. Each pass does, element by element, the float operations of the
per-parameter update, on the same operands in the same order, so a flat
step moves no result bit.

An optimizer holds only flat buffers. Adam keeps its moments in ``m``
and ``v``, laid out like the model's buffers, its one step count in the
0-d ``t``, and its temporaries in two scratch buffers reused by every
step; a param's moments are ``param.view(m)`` and ``param.view(v)``.
``flat_state`` lists the state buffers (empty for SGD), which a training
snapshot copies and restores in place. Both optimizers expose
``reset_state_slice(param, index_slice)`` so a filter reset can zero the
moments of exactly the reinitialized weights.
``index_slice`` is any numpy index into the parameter's leading axis: a
row number, a slice, or a boolean mask selecting several filters at once.
Adam's timestep is kept per optimizer (not per element), so a reset
filter restarts under the bias correction of a late step, not clean: a
defect, measured at up to 4.2x lr right after a reset at t=500. ROADMAP
open item 3 fixes it, which moves result bits.
"""

import numpy as np


class SGD:
    """value <- value - lr * grad for every element."""

    def __init__(self, model, lr):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.values, self.grads, self.lr = model.values, model.grads, lr
        self.flat_state = ()
        self._update = np.empty_like(self.values)

    def step(self):
        np.multiply(self.grads, self.lr, out=self._update)
        self.values -= self._update

    def reset_state_slice(self, param, index_slice):
        """SGD is stateless; nothing to reset."""


class Adam:
    """Adam with bias correction: m/v moments per element, one timestep for all."""

    def __init__(self, model, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.values, self.grads, self.lr = model.values, model.grads, lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m, self.v = np.zeros_like(self.values), np.zeros_like(self.values)
        self.t = np.zeros((), dtype=np.int64)  # 0-d, so a snapshot restores it in place
        self.flat_state = (self.m, self.v, self.t)
        self._num, self._den = np.empty_like(self.values), np.empty_like(self.values)

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
        param.view(self.m)[index_slice] = 0.0
        param.view(self.v)[index_slice] = 0.0


# The optimizers a config may name; the config, the CLI and make_optimizer read this one list.
OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def make_optimizer(kind, model, lr):
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer kind {kind!r}")
    return OPTIMIZERS[kind](model, lr)
