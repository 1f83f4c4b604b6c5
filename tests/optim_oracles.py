"""Reference optimizer and gradient passes that the flat-buffer engine must equal bit for bit.

- ``sgd_step`` and ``adam_step``: the update rules run one parameter at a
  time, each through its own node's ``value``/``grad`` and its own
  ``view`` of Adam's moments, with fresh temporaries;
- ``zero_grads``: one fill per parameter.

``make_optimizer`` builds the engine's optimizer and swaps its ``step``
for the reference one over the model's params, and ``zero_grads`` is a
method, so a test can swap them into ``experiments`` and ``Model`` and
train a whole run the reference way.
"""

import numpy as np

from randomout import optim


def sgd_step(opt, params):
    for p in params:
        p.value -= opt.lr * p.grad


def adam_step(opt, params):
    opt.t += 1  # the one step count every param shares
    t = int(opt.t)
    for p in params:
        m, v = p.view(opt.m), p.view(opt.v)
        m *= opt.beta1
        m += (1 - opt.beta1) * p.grad
        v *= opt.beta2
        v += (1 - opt.beta2) * np.square(p.grad)
        m_hat = m / (1 - opt.beta1**t)
        v_hat = v / (1 - opt.beta2**t)
        p.value -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


def make_optimizer(kind, model, lr):
    opt = optim.make_optimizer(kind, model, lr)
    step = sgd_step if kind == "sgd" else adam_step
    opt.step = lambda: step(opt, model.params)
    return opt


def zero_grads(model):
    for p in model.params:
        p.grad[...] = 0.0
