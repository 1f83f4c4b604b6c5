"""Desk-scale architectures.

CraterCNN: two 4x4 conv+ReLU stages on 15x15 grayscale input, then a
dense 2-class softmax head.

MiniInception: a small stand-in for a large inception-style network (the
full topology is far beyond desk scale). It keeps the properties the
filter-reset regularizer exercises: mixed 1x1/3x3 filters in parallel
branches with channel concatenation, optional batchnorm after every
conv, and a 10-class head. Every conv and pool is valid and stride 1
(a k x k window takes k-1 rows and columns off its input), so the 1x1
branch ends in a 3x3 average pool to reach the 3x3 branch's spatial
size before concatenation.
"""

from .model import LayerSpec, build_model


def _conv_block(out_channels, kernel_size, with_batchnorm):
    specs = [LayerSpec("conv2d", out_channels=out_channels, kernel_size=kernel_size)]
    if with_batchnorm:
        specs.append(LayerSpec("batchnorm"))
    specs.append(LayerSpec("relu"))
    return specs


def cratercnn_specs(width, with_batchnorm=False, num_classes=2):
    return (
        _conv_block(width, 4, with_batchnorm)
        + _conv_block(width, 4, with_batchnorm)
        + [LayerSpec("dense", units=num_classes)]
    )


def build_cratercnn(width, rng, with_batchnorm=False, input_shape=(1, 15, 15), num_classes=2):
    """conv(width,4x4)+ReLU -> conv(width,4x4)+ReLU -> dense(2) softmax."""
    return build_model(cratercnn_specs(width, with_batchnorm, num_classes), input_shape, rng)


def mini_inception_specs(base_width, with_batchnorm=False, num_classes=10):
    block = lambda: [
        LayerSpec(
            "concat",
            branches=[
                _conv_block(base_width, 1, with_batchnorm) + [LayerSpec("avgpool", window=3)],
                _conv_block(base_width, 3, with_batchnorm),
            ],
        )
    ]
    return (
        _conv_block(base_width, 3, with_batchnorm)
        + block()
        + block()
        + [LayerSpec("avgpool"), LayerSpec("dense", units=num_classes)]  # a global pool, then the head
    )


def build_mini_inception(base_width, rng, with_batchnorm=False, input_shape=(3, 32, 32), num_classes=10):
    """Stem conv3x3 + two parallel 1x1/3x3 blocks + global avgpool + dense head."""
    return build_model(mini_inception_specs(base_width, with_batchnorm, num_classes), input_shape, rng)


# The architectures a config may name; the config, the CLI and build_for read this one list.
ARCHITECTURES = {"cratercnn": build_cratercnn, "mini_inception": build_mini_inception}
