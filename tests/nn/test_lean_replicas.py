"""Lean replicas: between steps a replica is its weights.

Four contracts of the NN substrate, each paid 1,000 times on the
Stress 1k preset if broken:

* backward ends at the first trainable layer — ``need_dx=False`` skips
  the input gradient nobody reads, and changes no gradient bit;
* ``loss_and_grads`` hands the gradient arrays off — no layer keeps
  last step's gradients alive;
* ``apply_grads`` keeps no scratch between calls — no model-sized
  buffer per replica, and no pool shared across replicas either;
* backward takes the forward caches — no layer keeps the last
  minibatch's inputs, masks or im2col blocks alive, and a second
  backward without a new forward raises.

The full backward through every layer survives only here, as the
reference the shortened one is compared against.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Flatten,
    ReLU,
)
from repro.nn.losses import softmax_cross_entropy
from repro.nn.model import Model
from repro.nn.models import build_model

ZOO = [
    ("mlp", {"in_dim": 48, "hidden": (16,)}, (4, 48)),
    ("cipher", {"image_size": 8, "kernels": (3, 4, 5), "hidden": 16}, (4, 1, 8, 8)),
    ("mobilenet", {"num_classes": 5, "blocks": ((8, 1), (16, 2))}, (4, 3, 16, 16)),
]

# (factory, input shape) per parameterised layer.
PARAM_LAYERS = {
    "Dense": (lambda: Dense(6, 4, np.random.default_rng(0)), (5, 6)),
    "Conv2D": (lambda: Conv2D(2, 3, 3, np.random.default_rng(0)), (2, 2, 6, 6)),
    "Conv2D-nopad": (
        lambda: Conv2D(2, 3, 3, np.random.default_rng(0), pad=0), (2, 2, 6, 6)
    ),
    "Conv2D-stride2": (
        lambda: Conv2D(2, 3, 3, np.random.default_rng(0), stride=2), (2, 2, 7, 7)
    ),
    "Conv2D-stride2-pad2": (
        lambda: Conv2D(1, 2, 5, np.random.default_rng(0), stride=2, pad=2),
        (3, 1, 9, 9),
    ),
    "Conv2D-1x1": (
        lambda: Conv2D(3, 2, 1, np.random.default_rng(0)), (2, 3, 4, 4)
    ),
    "BatchNorm": (lambda: BatchNorm(3), (5, 3)),
    "BatchNorm-4d": (lambda: BatchNorm(2), (3, 2, 4, 4)),
    "DepthwiseConv2D": (
        lambda: DepthwiseConv2D(2, 3, np.random.default_rng(0)), (2, 2, 6, 6)
    ),
    "DepthwiseConv2D-stride2": (
        lambda: DepthwiseConv2D(2, 3, np.random.default_rng(0), stride=2),
        (2, 2, 7, 7),
    ),
}


def assert_bit_equal(a: np.ndarray, b: np.ndarray, what: str = "") -> None:
    """Value, dtype, shape and C-contiguity — everything a digest sees."""
    assert a.dtype == b.dtype, what
    assert a.shape == b.shape, what
    assert a.flags.c_contiguous == b.flags.c_contiguous, what
    assert a.tobytes() == b.tobytes(), what


def full_backward_loss_and_grads(model: Model, x, labels):
    """The pre-lean step: backward through *every* layer, input
    gradients and all, gradients read off the layers."""
    logits = model.forward(x, training=True)
    loss, dout = softmax_cross_entropy(logits, labels)
    for layer in reversed(model.layers):
        dout = layer.backward(dout)
    grads = {
        f"{i:02d}_{layer.name}/{pname}": layer.grads[pname]
        for i, layer in enumerate(model.layers)
        for pname in layer.params
    }
    return loss, grads


class TestNeedDx:
    """``backward(dout, need_dx=False)``: same ``grads``, no ``dx``."""

    @staticmethod
    def _check(case, dtype, x_shape):
        full, lean = PARAM_LAYERS[case][0](), PARAM_LAYERS[case][0]()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(size=x_shape).astype(dtype)
        out = full.forward(x, training=True)
        lean.forward(x, training=True)
        dout = rng.standard_normal(size=out.shape).astype(dtype)

        dx = full.backward(dout)
        assert dx.shape == x.shape
        assert lean.backward(dout, need_dx=False) is None
        assert set(lean.grads) == set(full.grads) == set(full.params)
        for pname in full.params:
            assert_bit_equal(lean.grads[pname], full.grads[pname], pname)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(PARAM_LAYERS))
    def test_grads_bit_equal_and_no_dx(self, case, dtype):
        self._check(case, dtype, PARAM_LAYERS[case][1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "case", sorted(c for c in PARAM_LAYERS if c.startswith(("Dense", "Conv2D")))
    )
    def test_zero_size_batch(self, case, dtype):
        self._check(case, dtype, (0, *PARAM_LAYERS[case][1][1:]))

    @pytest.mark.parametrize("case", sorted(PARAM_LAYERS))
    def test_default_and_explicit_true_return_the_same_dx(self, case):
        factory, x_shape = PARAM_LAYERS[case]
        a, b = factory(), factory()
        rng = np.random.default_rng(2)
        x = rng.standard_normal(size=x_shape).astype(np.float32)
        dout = rng.standard_normal(size=a.forward(x, training=True).shape)
        dout = dout.astype(np.float32)
        b.forward(x, training=True)
        assert_bit_equal(a.backward(dout), b.backward(dout, need_dx=True))

    def test_need_dx_false_still_needs_a_training_forward(self):
        for factory, _ in PARAM_LAYERS.values():
            with pytest.raises(RuntimeError):
                factory().backward(np.zeros((1, 1), np.float32), need_dx=False)


def _dense_first(rng):
    return Model([Dense(12, 8, rng), ReLU(), Dense(8, 3, rng)])


def _free_then_dense(rng):
    return Model([ReLU(), Flatten(), Dense(12, 8, rng), ReLU(), Dense(8, 3, rng)])


def _batchnorm_first(rng):
    return Model([BatchNorm(12), Dense(12, 3, rng)])


def _depthwise_first(rng):
    return Model([DepthwiseConv2D(3, 3, rng), Flatten(), Dense(12, 3, rng)])


def _conv_first(rng):
    return Model([Conv2D(3, 4, 3, rng, stride=2), Flatten(), Dense(4, 3, rng)])


HAND_BUILT = {
    "dense-first": (_dense_first, (5, 12)),
    "parameter-free-first": (_free_then_dense, (5, 12)),
    "batchnorm-first": (_batchnorm_first, (5, 12)),
    "depthwise-first": (_depthwise_first, (5, 3, 2, 2)),
    "conv-first": (_conv_first, (5, 3, 2, 2)),
}


class TestBackwardStopsAtFirstTrainableLayer:
    """``Model.loss_and_grads`` vs the full backward, bit for bit."""

    @staticmethod
    def _compare(build, x_shape, n_classes, steps=3):
        lean, full = build(np.random.default_rng(5)), build(np.random.default_rng(5))
        rng = np.random.default_rng(6)
        for _ in range(steps):
            x = rng.standard_normal(size=x_shape).astype(np.float32)
            y = rng.integers(0, n_classes, size=x_shape[0])
            loss, grads = lean.loss_and_grads(x, y)
            ref_loss, ref_grads = full_backward_loss_and_grads(full, x, y)
            assert loss == ref_loss
            assert list(grads) == list(ref_grads) == lean.variable_names
            for name, g in grads.items():
                assert_bit_equal(g, ref_grads[name], name)
            # keep training so later steps see moved weights / BN stats
            lean.apply_grads(grads, lr=0.05)
            full.apply_grads(ref_grads, lr=0.05)

    @pytest.mark.parametrize("name,kwargs,x_shape", ZOO)
    def test_zoo_models(self, name, kwargs, x_shape):
        self._compare(lambda rng: build_model(name, rng, **kwargs), x_shape, 5)

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_stacks(self, case):
        build, x_shape = HAND_BUILT[case]
        self._compare(build, x_shape, 3)

    def test_model_without_a_trainable_layer(self):
        model = Model([Flatten(), ReLU()])
        x = np.random.default_rng(0).standard_normal(size=(4, 2, 3))
        y = np.array([0, 5, 2, 1])
        loss, grads = model.loss_and_grads(x.astype(np.float32), y)
        ref_loss, ref_grads = full_backward_loss_and_grads(
            Model([Flatten(), ReLU()]), x.astype(np.float32), y
        )
        assert grads == ref_grads == {}
        assert loss == ref_loss

    def test_layers_below_the_first_trainable_one_never_run_backward(self):
        class Tripwire(Flatten):
            def backward(self, dout):
                raise AssertionError("backward reached a layer nobody needs")

        rng = np.random.default_rng(0)
        model = Model([Tripwire(), Dense(6, 4, rng), ReLU(), Dense(4, 3, rng)])
        x = rng.standard_normal(size=(5, 2, 3)).astype(np.float32)
        _, grads = model.loss_and_grads(x, np.array([0, 1, 2, 1, 0]))
        assert set(grads) == set(model.variable_names)


STACKS = {
    **{
        f"zoo-{name}": (
            lambda rng, name=name, kwargs=kwargs: build_model(name, rng, **kwargs),
            x_shape,
            5,
        )
        for name, kwargs, x_shape in ZOO
    },
    **{case: (build, x_shape, 3) for case, (build, x_shape) in HAND_BUILT.items()},
}


def held_arrays(layer: object, *allowed: str) -> list[str]:
    """Where ``layer`` holds an ndarray outside the attributes named in
    ``allowed`` — in an attribute, or a tuple, list or dict in one."""
    found: list[str] = []

    def walk(path, value):
        if isinstance(value, np.ndarray):
            found.append(path)
        elif isinstance(value, (tuple, list)):
            for i, item in enumerate(value):
                walk(f"{path}[{i}]", item)
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(f"{path}[{key!r}]", item)

    for attr, value in vars(layer).items():
        if attr not in allowed:
            walk(f"{layer.name}.{attr}", value)
    return found


# A layer's weights, and BatchNorm's running statistics: state that
# outlives a step by design.
WEIGHTS = ("params", "running_mean", "running_var")


class TestBackwardTakesTheForwardCaches:
    """Between steps a replica holds no activation of its last
    minibatch, and each training forward feeds one backward."""

    @staticmethod
    def _model_and_batch(case):
        build, x_shape, n_classes = STACKS[case]
        rng = np.random.default_rng(8)
        x = rng.standard_normal(size=x_shape).astype(np.float32)
        y = rng.integers(0, n_classes, size=x_shape[0])
        return build(np.random.default_rng(5)), x, y

    @staticmethod
    def _assert_second_backward_raises(model):
        for layer in model.layers:
            with pytest.raises(RuntimeError):
                layer.backward(np.zeros((1, 1), np.float32))

    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_loss_and_grads_leaves_only_weights(self, case):
        model, x, y = self._model_and_batch(case)
        model.loss_and_grads(x, y)
        # the gradients were handed off too, so ``grads`` is no exception
        held = [p for layer in model.layers for p in held_arrays(layer, *WEIGHTS)]
        assert held == []
        self._assert_second_backward_raises(model)

    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_full_backward_takes_every_cache(self, case):
        model, x, y = self._model_and_batch(case)
        full_backward_loss_and_grads(model, x, y)
        held = [
            p for layer in model.layers for p in held_arrays(layer, *WEIGHTS, "grads")
        ]
        assert held == []
        self._assert_second_backward_raises(model)


class TestSharedApplyScratch:
    """No scratch survives an apply: interleaved applies on many models
    end where isolated ``w -= (lr * coeff) * g`` updates end."""

    def test_interleaved_models_match_isolated_updates(self):
        def mlp(seed, **kwargs):
            return build_model("mlp", np.random.default_rng(seed), **kwargs)

        models = [
            mlp(1, in_dim=20, hidden=(9,)),
            mlp(2, in_dim=20, hidden=(9,)),  # same shapes as the first
            mlp(3, in_dim=12, hidden=(5, 4)),
            build_model(
                "cipher", np.random.default_rng(4),
                image_size=8, kernels=(3, 4, 5), hidden=16,
            ),
        ]
        assert not hasattr(models[0], "_scratch")
        refs = [m.copy_weights() for m in models]
        rng = np.random.default_rng(7)
        # float32 like a training step, float64 like a test-built
        # message, and an integer gradient (the result_type branch)
        dtypes = [np.float32, np.float64, np.int64, np.float32]
        for step, dtype in enumerate(dtypes):
            lr, coeff = 0.1 / (step + 1), 1.0 / (step + 2)
            for model, ref in zip(models, refs):
                grads = {}
                for name, w in model.variables().items():
                    g = rng.standard_normal(size=w.shape) * 3
                    grads[name] = g.astype(dtype)
                kept = {n: g.copy() for n, g in grads.items()}
                model.apply_grads(grads, lr=lr, coeff=coeff)
                for name, g in kept.items():
                    np.testing.assert_array_equal(grads[name], g)  # read-only use
                    ref[name] -= (lr * coeff) * g
        for model, ref in zip(models, refs):
            for name, w in model.variables().items():
                assert_bit_equal(w, ref[name], name)


class TestReplicaFootprint:
    """Tier-1 twin of CI's stress-smoke RSS ceiling, by ``tracemalloc``:
    what 64 Stress-1k-sized replicas retain between steps."""

    N_REPLICAS = 64
    # the Stress 1k workload's model and initial local batch size
    MODEL_KWARGS = {"in_dim": 576, "hidden": (32,)}
    BATCH = 8

    def test_a_replica_between_steps_is_its_weights(self):
        rng = np.random.default_rng(0)
        # one warm replica builds NumPy's lazily built internals
        # before the measured window opens
        self._step(self._build(0), *self._batch(rng))
        gc.collect()

        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            replicas = [self._build(seed) for seed in range(self.N_REPLICAS)]
            # a fresh minibatch per replica, as the simulator draws: a
            # layer that kept its input would hold one per replica here
            for model in replicas:
                self._step(model, *self._batch(rng))
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        model = replicas[0]
        per_replica = (after - before) / self.N_REPLICAS
        assert per_replica >= model.nbytes()  # the window saw the weights
        # no forward cache survives the step (about 1.04x here)
        assert per_replica < 1.25 * model.nbytes()

    def _build(self, seed):
        return build_model("mlp", np.random.default_rng(seed), **self.MODEL_KWARGS)

    def _batch(self, rng):
        x = rng.standard_normal(size=(self.BATCH, 576)).astype(np.float32)
        return x, rng.integers(0, 10, size=self.BATCH)

    @staticmethod
    def _step(model, x, y):
        _, grads = model.loss_and_grads(x, y)
        model.apply_grads(grads, lr=0.03, coeff=0.5)
        name = model.variable_names[0]
        idx = np.arange(0, grads[name].size, 2)
        sparse = {name: (idx, grads[name].reshape(-1)[idx])}
        model.apply_sparse_grads(sparse, lr=0.03, coeff=0.5)
