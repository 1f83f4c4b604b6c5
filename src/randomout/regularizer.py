"""Filter liveness scoring and reinitialization.

Each conv filter is scored by its convolutional gradient norm (CGN): the
sum of absolute loss gradients over the filter's kernel slab and bias
element. ``cgn`` scores a whole conv layer at once, one entry per output
channel; the training loop computes these vectors once per minibatch and
hands the same list to its telemetry and to ``scan_and_reset``. While
within the active fraction of training, every filter scoring strictly
below the threshold is dead (``dead_masks``, the one place that rule
lives): it is redrawn from the Xavier distribution (bias back to zero),
its optimizer moments are zeroed, and its pending gradient is cleared so
the stale update is skipped. A layer's dead filters are reset together
through one boolean mask. Dense and batchnorm parameters are never scored
or reset.
"""

from dataclasses import dataclass

import numpy as np

from .rng import xavier_init


@dataclass
class ResetEvent:
    epoch: int
    batch: int
    layer_id: int
    filter_index: int
    cgn_before: float


def cgn(conv):
    """Float64 vector [K]: per filter, the sum of absolute gradients over its kernel slab and bias."""
    return np.abs(conv.kernel.grad.reshape(conv.out_channels, -1)).sum(axis=1) + np.abs(conv.bias.grad)


def dead_masks(cfg, progress, scores):
    """Per-layer boolean masks of the filters a scan resets.

    scores holds one ``cgn`` vector per conv layer. progress is the
    fraction of scheduled training batches already completed; once
    progress >= cfg.p_active no layer has a mask (an empty list). Before
    that a filter is dead when its score is strictly below cfg.tau.
    """
    if progress >= cfg.p_active:
        return []
    return [score < cfg.tau for score in scores]


def scan_and_reset(model, optimizer, cfg, progress, rng, scores, epoch=0, batch=0):
    """Reinitialize every filter that ``dead_masks`` marks dead.

    Called after backward and before the optimizer step. scores holds one
    ``cgn`` vector per layer of ``model.convs``, in that order.
    Resets consume only the given rng stream, draw the redrawn slabs in
    (layer, filter) order, and leave every parameter and optimizer moment
    outside the reset filters bit-identical.
    """
    events = []
    for conv, score, dead in zip(model.convs, scores, dead_masks(cfg, progress, scores)):
        if not dead.any():
            continue
        kernel, bias = conv.kernel, conv.bias
        kernel.value[dead] = xavier_init((int(dead.sum()),) + kernel.value.shape[1:], conv.fan_in, conv.fan_out, rng)
        bias.value[dead] = 0.0
        # Skip the pending update for these filters: their gradients are stale.
        kernel.grad[dead] = 0.0
        bias.grad[dead] = 0.0
        optimizer.reset_state_slice(kernel, dead)
        optimizer.reset_state_slice(bias, dead)
        events.extend(ResetEvent(epoch, batch, conv.layer_id, int(k), float(score[k])) for k in np.flatnonzero(dead))
    return events
