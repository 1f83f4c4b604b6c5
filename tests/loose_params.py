"""Loose ParamNodes packed into a model of their own.

Optimizers are built on a ``Model``, whose construction is the one place
params are packed into flat buffers. Unit tests of the update rules hold
their params in ``model_of``'s stub model.
"""

from randomout.layers import Layer
from randomout.model import Model


class _Holder(Layer):
    """A layer that only holds params; it is never run."""

    def __init__(self, params):
        super().__init__(0)
        self.params = tuple(params)


def model_of(*params):
    """A Model whose params are exactly ``params``, packed into its buffers in that order."""
    return Model([_Holder(params)], input_shape=(), num_classes=2)
