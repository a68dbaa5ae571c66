"""A from-scratch NumPy deep-learning substrate.

This package replaces the TensorFlow core the DLion prototype was built
on (paper §4): it provides exactly what the distributed-training layer
needs — models made of *named weight variables*, minibatch gradient
computation, and in-place parameter updates — implemented with vectorized
NumPy and verified against numerical differentiation.

Public surface:

* :class:`repro.nn.model.Model` — a sequential network with named
  variables, ``loss_and_grads`` and ``apply_grads``.
* :mod:`repro.nn.layers` — dense, conv2d (im2col), depthwise conv,
  pooling, batch-norm, activations, dropout, flatten.
* :mod:`repro.nn.models` — the paper's workloads: the Cipher CNN, a
  MobileNet-style separable-convolution net, and an MLP for fast tests.
* :mod:`repro.nn.datasets` — seeded synthetic classification datasets
  with worker sharding (the CIFAR-10 / ImageNet-100 stand-ins).
"""

from repro.nn.model import Model
from repro.nn.losses import softmax_cross_entropy, softmax_probs
from repro.nn.models import build_model, cipher_cnn, mobilenet_slim, mlp
from repro.nn.datasets import SyntheticImageDataset, Shard, MinibatchSampler

__all__ = [
    "Model",
    "softmax_cross_entropy",
    "softmax_probs",
    "build_model",
    "cipher_cnn",
    "mobilenet_slim",
    "mlp",
    "SyntheticImageDataset",
    "Shard",
    "MinibatchSampler",
]
