"""NN step contracts: array ownership and float32 discipline.

Layers allocate every array a step produces, so whatever a step hands
out (layer outputs, input gradients, ``grads``) belongs to the caller:
the next step must neither share it nor overwrite it. That is what lets
a dense gradient message travel without a copy. The zoo models are
pinned to float32 end to end.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.cluster.messages import GradientMessage
from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
    ReLU,
    ReLU6,
)
from repro.nn.models import build_model

ZOO = [
    ("mlp", {"in_dim": 48, "hidden": (16,)}, (4, 48)),
    ("cipher", {"image_size": 8, "kernels": (3, 4, 5), "hidden": 16}, (4, 1, 8, 8)),
    ("mobilenet", {"num_classes": 5, "blocks": ((8, 1), (16, 2))}, (4, 3, 16, 16)),
]

# (factory, input shape, output-gradient shape) for every layer class.
LAYER_CASES = {
    "Dense": (lambda: Dense(6, 4, np.random.default_rng(0)), (5, 6), (5, 4)),
    "Conv2D": (
        lambda: Conv2D(2, 3, 3, np.random.default_rng(0)), (2, 2, 6, 6), (2, 3, 6, 6)
    ),
    "Conv2D-nopad": (
        lambda: Conv2D(2, 3, 3, np.random.default_rng(0), pad=0),
        (2, 2, 6, 6), (2, 3, 4, 4),
    ),
    "DepthwiseConv2D": (
        lambda: DepthwiseConv2D(2, 3, np.random.default_rng(0)),
        (2, 2, 6, 6), (2, 2, 6, 6),
    ),
    "MaxPool2D": (MaxPool2D, (2, 3, 4, 4), (2, 3, 2, 2)),
    "GlobalAvgPool2D": (GlobalAvgPool2D, (2, 3, 4, 4), (2, 3)),
    "ReLU": (ReLU, (4, 5), (4, 5)),
    "ReLU6": (ReLU6, (4, 5), (4, 5)),
    "BatchNorm": (lambda: BatchNorm(3), (5, 3), (5, 3)),
    "Flatten": (Flatten, (2, 3, 2, 2), (2, 12)),
    "Dropout": (lambda: Dropout(0.3, np.random.default_rng(0)), (4, 6), (4, 6)),
}


def _snapshot(arrays):
    return [a.copy() for a in arrays]


def _assert_owned(kept, copies, later):
    """``kept`` still hold ``copies`` and share no memory with ``later``."""
    for arr, copy in zip(kept, copies):
        np.testing.assert_array_equal(arr, copy)
        for other in later:
            assert not np.shares_memory(arr, other)


class TestStepsOwnTheirArrays:
    """What one step returns, the next step neither shares nor overwrites."""

    def test_every_layer_class_is_covered(self):
        import repro.nn.layers as layers

        classes = {
            name for name in layers.__all__
            if name != "Layer" and issubclass(getattr(layers, name), Layer)
        }
        assert classes == {case.split("-")[0] for case in LAYER_CASES}

    @pytest.mark.parametrize("case", sorted(LAYER_CASES))
    def test_layer_step(self, case):
        factory, x_shape, d_shape = LAYER_CASES[case]
        layer = factory()
        rng = np.random.default_rng(1)

        def step():
            x = rng.standard_normal(size=x_shape).astype(np.float32)
            dout = rng.standard_normal(size=d_shape).astype(np.float32)
            out = layer.forward(x, training=True)
            dx = layer.backward(dout)
            return [out, dx, *layer.grads.values()]

        first = step()
        copies = _snapshot(first)
        second = step()
        _assert_owned(first, copies, second)

    @pytest.mark.parametrize("case", sorted(LAYER_CASES))
    def test_layer_inference_output(self, case):
        factory, x_shape, _ = LAYER_CASES[case]
        layer = factory()
        rng = np.random.default_rng(2)
        first = layer.forward(
            rng.standard_normal(size=x_shape).astype(np.float32), training=False
        )
        copy = first.copy()
        second = layer.forward(
            rng.standard_normal(size=x_shape).astype(np.float32), training=False
        )
        _assert_owned([first], [copy], [second])

    @pytest.mark.parametrize("name,kwargs,x_shape", ZOO)
    def test_zoo_model_step(self, name, kwargs, x_shape):
        model = build_model(name, np.random.default_rng(2), **kwargs)
        rng = np.random.default_rng(3)

        def step():
            x = rng.standard_normal(size=x_shape).astype(np.float32)
            y = rng.integers(0, 5, size=x_shape[0])
            _, grads = model.loss_and_grads(x, y)
            model.apply_grads(grads, lr=0.1)
            return list(grads.values())

        first = step()
        copies = _snapshot(first)
        logits = model.forward(
            rng.standard_normal(size=x_shape).astype(np.float32), training=False
        )
        logits_copy = logits.copy()
        second = step()
        _assert_owned(first + [logits], copies + [logits_copy], second)

    @pytest.mark.parametrize("name,kwargs,x_shape", ZOO)
    def test_step_hands_its_gradients_off(self, name, kwargs, x_shape):
        """The returned dict is the only owner: no layer keeps a
        gradient, and dropping the dict frees the arrays."""
        model = build_model(name, np.random.default_rng(2), **kwargs)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(size=x_shape).astype(np.float32)
        _, grads = model.loss_and_grads(x, rng.integers(0, 5, size=x_shape[0]))
        assert all(not layer.grads for layer in model.layers)
        refs = [weakref.ref(g) for g in grads.values()]
        del grads
        gc.collect()
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("name,kwargs,x_shape", ZOO)
    def test_in_flight_message_keeps_its_gradients(self, name, kwargs, x_shape):
        """A message built from a step owns that step's arrays for as
        long as it is in flight, whatever the sender does next."""
        model = build_model(name, np.random.default_rng(2), **kwargs)
        rng = np.random.default_rng(3)

        def step():
            x = rng.standard_normal(size=x_shape).astype(np.float32)
            _, grads = model.loss_and_grads(x, rng.integers(0, 5, size=x_shape[0]))
            model.apply_grads(grads, lr=0.1)
            return grads

        grads = step()
        msg = GradientMessage(sender=0, iteration=1, lbs=x_shape[0], dense=grads)
        refs = {n: weakref.ref(g) for n, g in grads.items()}
        copies = {n: g.copy() for n, g in grads.items()}
        del grads
        later = [*step().values(), *step().values()]
        gc.collect()
        for name_, ref in refs.items():
            assert ref() is msg.dense[name_]
        _assert_owned(list(msg.dense.values()), list(copies.values()), later)
        del msg
        gc.collect()
        assert all(ref() is None for ref in refs.values())


class TestFloat32Discipline:
    """The paper's workloads train end-to-end in float32: no silent
    float64 upcasts in parameters, activations, or gradients."""

    @pytest.mark.parametrize("name,kwargs,x_shape", ZOO)
    def test_zoo_models_stay_float32(self, name, kwargs, x_shape):
        rng = np.random.default_rng(2)
        model = build_model(name, rng, **kwargs)
        for vname, v in model.variables().items():
            assert v.dtype == np.float32, f"{vname} is {v.dtype}"
        x = rng.standard_normal(size=x_shape).astype(np.float32)
        y = rng.integers(0, 5, size=x_shape[0])
        logits = model.forward(x, training=False)
        assert logits.dtype == np.float32
        loss, grads = model.loss_and_grads(x, y)
        assert isinstance(loss, float)
        for gname, g in grads.items():
            assert g.dtype == np.float32, f"grad {gname} is {g.dtype}"
        model.apply_grads(grads, lr=0.1)
        for vname, v in model.variables().items():
            assert v.dtype == np.float32, f"{vname} upcast to {v.dtype} by update"
