"""Finite-difference gradient oracle for the tests (criterion 01 and test_gradcheck).

The numeric gradient perturbs every parameter element by +-eps and takes
the centered difference of the loss; the analytic gradient comes from one
backward pass. Relative error uses a 1e-6 floor in the denominator so
exactly-dead paths (both gradients ~0) compare cleanly.
"""

from randomout.model import LayerSpec, build_model
from randomout.models import build_cratercnn, build_mini_inception
from randomout.rng import derive_stream

EPS = 1e-5
TOLERANCE = 1e-4


def relative_error(analytic, numeric):
    denom = max(abs(analytic), abs(numeric), 1e-6)
    return abs(analytic - numeric) / denom


def model_max_rel_error(model, x, labels, eps=EPS):
    """Max relative error between analytic and centered-difference gradients
    over every element of every parameter."""
    model.zero_grads()
    _, cache = model.forward(x, "train")
    model.backward(cache, labels)
    analytic = [p.grad.copy() for p in model.params]

    def loss_at_current():
        logits, _ = model.forward(x, "train")
        loss, _ = model.loss_head.loss_and_grad(logits, labels)
        return loss

    worst = 0.0
    for p, a in zip(model.params, analytic):
        flat = p.value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_at_current()
            flat[i] = orig - eps
            lm = loss_at_current()
            flat[i] = orig
            numeric = (lp - lm) / (2 * eps)
            worst = max(worst, relative_error(a.reshape(-1)[i], numeric))
    model.zero_grads()
    return worst


def _labels(rng, n, classes):
    return rng.integers(0, classes, size=n)


def _offset_conv_biases(model, value=0.05):
    """Move conv biases off zero so no ReLU input sits exactly on its kink.

    All-zero input patches otherwise make deeper pre-activations exactly
    bias = 0, where the centered difference straddles the kink and the
    check fails for reasons unrelated to the backward pass.
    """
    for conv in model.convs:
        conv.bias.value[:] = value
    return model


def standard_suites(seed=20240001):
    """(name, model, input, labels) for each layer kind and both full models."""
    suites = []

    def add(name, specs, input_shape, batch, classes, case_seed):
        rng = derive_stream(case_seed, "init")
        model = build_model(specs, input_shape, rng)
        data_rng = derive_stream(case_seed, "data_synth")
        x = data_rng.uniform(0.0, 1.0, size=(batch,) + tuple(input_shape))
        y = _labels(data_rng, batch, classes)
        suites.append((name, model, x, y))

    add(
        "dense",
        [LayerSpec("flatten"), LayerSpec("dense", units=3), LayerSpec("softmax_ce", units=3)],
        (5,),
        4,
        3,
        seed,
    )
    add(
        "conv2d",
        [
            LayerSpec("conv2d", out_channels=3, kernel_size=3),
            LayerSpec("flatten"),
            LayerSpec("dense", units=2),
            LayerSpec("softmax_ce", units=2),
        ],
        (2, 7, 7),
        3,
        2,
        seed + 1,
    )
    add(
        "relu_composition",
        [
            LayerSpec("conv2d", out_channels=2, kernel_size=3),
            LayerSpec("relu"),
            LayerSpec("conv2d", out_channels=2, kernel_size=3),
            LayerSpec("relu"),
            LayerSpec("flatten"),
            LayerSpec("dense", units=2),
            LayerSpec("softmax_ce", units=2),
        ],
        (1, 8, 8),
        4,
        2,
        seed + 2,
    )
    add(
        "batchnorm",
        [
            LayerSpec("conv2d", out_channels=3, kernel_size=3),
            LayerSpec("batchnorm"),
            LayerSpec("relu"),
            LayerSpec("flatten"),
            LayerSpec("dense", units=2),
            LayerSpec("softmax_ce", units=2),
        ],
        (2, 6, 6),
        4,
        2,
        seed + 3,
    )
    add(
        "avgpool",
        [
            LayerSpec("conv2d", out_channels=2, kernel_size=2),
            LayerSpec("avgpool", window=2),
            LayerSpec("flatten"),
            LayerSpec("dense", units=2),
            LayerSpec("softmax_ce", units=2),
        ],
        (1, 7, 7),
        3,
        2,
        seed + 4,
    )

    rng = derive_stream(seed + 5, "init")
    crater = _offset_conv_biases(build_cratercnn(2, rng))
    data_rng = derive_stream(seed + 5, "data_synth")
    x = data_rng.uniform(0.0, 1.0, size=(2, 1, 15, 15))
    suites.append(("cratercnn", crater, x, _labels(data_rng, 2, 2)))

    rng = derive_stream(seed + 6, "init")
    mini = _offset_conv_biases(build_mini_inception(2, rng, input_shape=(3, 12, 12)))
    data_rng = derive_stream(seed + 6, "data_synth")
    x = data_rng.uniform(0.0, 1.0, size=(2, 3, 12, 12))
    suites.append(("mini_inception", mini, x, _labels(data_rng, 2, 10)))

    rng = derive_stream(seed + 7, "init")
    mini_bn = build_mini_inception(2, rng, with_batchnorm=True, input_shape=(3, 12, 12))
    data_rng = derive_stream(seed + 7, "data_synth")
    x = data_rng.uniform(0.0, 1.0, size=(3, 3, 12, 12))
    suites.append(("mini_inception_batchnorm", mini_bn, x, _labels(data_rng, 3, 10)))

    return suites


def run_all_checks(eps=EPS):
    """Run every suite; returns {name: max_rel_error}."""
    return {name: model_max_rel_error(model, x, y, eps) for name, model, x, y in standard_suites()}
