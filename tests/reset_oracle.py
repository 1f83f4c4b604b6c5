"""Reference reset scan: one filter at a time, as the engine first built it.
`randomout.regularizer.scan_and_reset` must reproduce its events, its
parameter and optimizer-moment bytes, and its use of the reset stream."""

from dataclasses import dataclass

import numpy as np

from randomout.layers import Branches, Conv2d
from randomout.regularizer import ResetEvent
from randomout.rng import xavier_init


@dataclass
class FilterGroup:
    """Index set for one conv filter: output channel k's kernel slab plus bias k."""

    layer_id: int
    filter_index: int
    kernel_param: object
    bias_param: object
    kernel_slice: tuple
    bias_slice: tuple
    fan_in: int
    fan_out: int


def _iter_layers(layers):
    for layer in layers:
        if isinstance(layer, Branches):
            for seq in layer.branches:
                yield from _iter_layers(seq)
        else:
            yield layer


def filter_groups(model):
    """One FilterGroup per conv output channel, in (layer_id, filter) order."""
    groups = []
    for layer in sorted(_iter_layers(model.layers), key=lambda l: l.layer_id):
        if isinstance(layer, Conv2d):
            for k in range(layer.out_channels):
                groups.append(
                    FilterGroup(
                        layer.layer_id, k, layer.kernel, layer.bias, (k,), (k,), layer.fan_in, layer.fan_out
                    )
                )
    return groups


def cgn(group):
    """Sum of absolute gradients over one filter's kernel slab and bias."""
    k = np.abs(group.kernel_param.grad[group.kernel_slice]).sum()
    b = np.abs(group.bias_param.grad[group.bias_slice]).sum()
    return float(k + b)


def scan_and_reset(model, optimizer, cfg, progress, rng, epoch=0, batch=0):
    """Score each filter in (layer, filter) order and redraw it on its own if cgn < cfg.tau."""
    if progress >= cfg.p_active:
        return []
    events = []
    for group in filter_groups(model):
        score = cgn(group)
        if score < cfg.tau:
            slab_shape = group.kernel_param.value[group.kernel_slice].shape
            group.kernel_param.value[group.kernel_slice] = xavier_init(
                slab_shape, group.fan_in, group.fan_out, rng
            )
            group.bias_param.value[group.bias_slice] = 0.0
            group.kernel_param.grad[group.kernel_slice] = 0.0
            group.bias_param.grad[group.bias_slice] = 0.0
            optimizer.reset_state_slice(group.kernel_param, group.kernel_slice)
            optimizer.reset_state_slice(group.bias_param, group.bias_slice)
            events.append(ResetEvent(epoch, batch, group.layer_id, group.filter_index, score))
    return events
