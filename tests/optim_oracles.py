"""Reference optimizer and gradient passes that the flat-buffer engine must equal bit for bit.

- ``sgd_step`` and ``adam_step``: the update rules run one parameter at a
  time, each through its own node's ``value``/``grad`` and its own
  ``state`` entry, with fresh temporaries;
- ``zero_grads``: one fill per parameter.

They are written as methods, so a test can swap them into ``SGD``,
``Adam`` and ``Model`` and train a whole run the reference way.
"""

import numpy as np


def sgd_step(opt):
    for p in opt.params:
        p.value -= opt.lr * p.grad


def adam_step(opt):
    opt.t += 1  # the one step count every state entry shares
    for p in opt.params:
        s = opt.state[p.id]
        t = int(s["t"])
        m, v = s["m"], s["v"]
        m *= opt.beta1
        m += (1 - opt.beta1) * p.grad
        v *= opt.beta2
        v += (1 - opt.beta2) * np.square(p.grad)
        m_hat = m / (1 - opt.beta1**t)
        v_hat = v / (1 - opt.beta2**t)
        p.value -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


def zero_grads(model):
    for p in model.params:
        p.grad[...] = 0.0
