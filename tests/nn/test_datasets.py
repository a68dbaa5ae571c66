"""Tests for synthetic datasets, sharding, and the minibatch sampler."""

import tracemalloc

import numpy as np
import pytest

from repro.nn.datasets import (
    _RENDER_BLOCK,
    MinibatchSampler,
    Shard,
    SyntheticImageDataset,
    _render_blocks,
)
from repro.nn.models import mlp


class TestSyntheticImageDataset:
    def test_shapes_and_dtypes(self, rng):
        ds = SyntheticImageDataset.cifar_like(rng, train_size=100, test_size=30)
        assert ds.train_x.shape == (100, 1, 24, 24)
        assert ds.test_x.shape == (30, 1, 24, 24)
        assert ds.train_x.dtype == np.float32
        assert ds.train_y.dtype == np.int64

    def test_pixels_bounded_by_tanh(self, rng):
        ds = SyntheticImageDataset.cifar_like(rng, train_size=50, test_size=10)
        assert ds.train_x.min() >= -1.0 and ds.train_x.max() <= 1.0

    def test_labels_cover_range(self, rng):
        ds = SyntheticImageDataset.cifar_like(rng, train_size=500, test_size=100)
        assert set(np.unique(ds.train_y)) == set(range(10))

    def test_deterministic_for_seed(self):
        a = SyntheticImageDataset.cifar_like(np.random.default_rng(3), train_size=40, test_size=10)
        b = SyntheticImageDataset.cifar_like(np.random.default_rng(3), train_size=40, test_size=10)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.train_y, b.train_y)

    def test_imagenet_like_preset(self, rng):
        ds = SyntheticImageDataset.imagenet_like(rng, train_size=300, test_size=120)
        assert ds.train_x.shape == (300, 3, 32, 32)
        assert ds.num_classes == 100

    def test_learnable_structure(self, rng):
        """An MLP must beat chance by a wide margin — the datasets exist
        to give the distributed experiments real accuracy dynamics."""
        ds = SyntheticImageDataset.cifar_like(rng, train_size=1500, test_size=400)
        model = mlp(rng, in_dim=576, hidden=(64,))
        for _ in range(300):
            idx = rng.integers(0, 1500, size=64)
            _, g = model.loss_and_grads(ds.train_x[idx], ds.train_y[idx])
            model.apply_grads(g, lr=0.1)
        _, acc = model.evaluate(ds.test_x, ds.test_y)
        assert acc > 0.5  # chance is 0.1

    def test_noise_raises_difficulty(self):
        accs = {}
        for noise in (0.5, 2.5):
            rng = np.random.default_rng(11)
            ds = SyntheticImageDataset.cifar_like(
                rng, train_size=1200, test_size=400, noise=noise
            )
            model = mlp(rng, in_dim=576, hidden=(64,))
            for _ in range(250):
                idx = rng.integers(0, 1200, size=64)
                _, g = model.loss_and_grads(ds.train_x[idx], ds.train_y[idx])
                model.apply_grads(g, lr=0.1)
            accs[noise] = model.evaluate(ds.test_x, ds.test_y)[1]
        assert accs[0.5] > accs[2.5]

    def test_too_few_samples_rejected(self, rng):
        with pytest.raises(ValueError):
            SyntheticImageDataset(rng, num_classes=10, train_size=5, test_size=5)

    def test_one_class_rejected(self, rng):
        with pytest.raises(ValueError):
            SyntheticImageDataset(rng, num_classes=1)

    def test_arrays_are_read_only(self, small_dataset):
        for name in ("train_x", "train_y", "test_x", "test_y"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(small_dataset, name)[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            small_dataset.train_x += 1
        with pytest.raises(ValueError, match="read-only"):
            small_dataset.shards(2)[0].x[0] = 0

    def test_shared_rejects_an_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown dataset preset"):
            SyntheticImageDataset.shared("mnist_like", 0, train_size=100, test_size=30)


PRESETS = ["cifar_like", "imagenet_like"]
B = _RENDER_BLOCK


class TestBlockRender:
    """The pixels are rendered block by block into the float32 output;
    the dataset must be the one a one-shot render gives, bit for bit,
    for a fraction of the one-shot render's float64 temporaries."""

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1, 6000])
    def test_equals_the_one_shot_render(self, preset, n):
        ds = getattr(SyntheticImageDataset, preset)(
            np.random.default_rng(0), train_size=100, test_size=100
        )
        x, y = ds._sample(np.random.default_rng(n), n)

        # the one-shot reference: the same draws, in the same order
        rng = np.random.default_rng(n)
        labels = rng.integers(0, ds.num_classes, size=n)
        latents = ds._proto[labels] + rng.normal(
            0.0, ds._noise, size=(n, ds.latent_dim)
        )
        pixels = np.tanh(latents @ ds._w1) @ ds._w2
        np.tanh(pixels, out=pixels)  # in place only to halve the test's peak
        reference = pixels.astype(np.float32).reshape((n, *ds.image_shape))

        assert y.tobytes() == labels.tobytes()
        assert x.dtype == np.float32 and x.flags.c_contiguous
        assert x.shape == reference.shape
        assert x.tobytes() == reference.tobytes()

    def test_every_block_has_two_rows(self):
        # a 1-row block goes to gemv, which float32 rounding hides from
        # test_equals_the_one_shot_render on all but ~1 row in 6,000
        for n in range(2, 3001):
            blocks = _render_blocks(n)
            sizes = [b.stop - b.start for b in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert min(sizes) >= 2 and max(sizes) <= B, n

    @pytest.mark.parametrize("preset", PRESETS)
    def test_build_peaks_under_twice_what_it_keeps(self, preset):
        build = getattr(SyntheticImageDataset, preset)
        build(np.random.default_rng(0), train_size=100, test_size=100)  # warm
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            ds = build(np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(v.nbytes for v in vars(ds).values() if isinstance(v, np.ndarray))
        assert kept >= ds.train_x.nbytes + ds.test_x.nbytes
        # one-shot: a float64 product, its float64 tanh and the float32
        # copy at once, about 4x; block by block about 1.3-1.6x
        assert peak - before < 2 * kept


class TestSharding:
    def test_iid_partition_is_exact(self, small_dataset):
        shards = small_dataset.shards(6)
        assert sum(s.size for s in shards) == small_dataset.train_size

    def test_iid_every_worker_sees_every_class(self, small_dataset):
        for shard in small_dataset.shards(4):
            assert len(np.unique(shard.y)) == small_dataset.num_classes

    def test_shards_disjoint(self, small_dataset):
        shards = small_dataset.shards(6)
        # Reconstruct the index assignment and check disjointness by count.
        total = sum(s.size for s in shards)
        assert total == small_dataset.train_size

    def test_invalid_worker_counts(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.shards(0)
        with pytest.raises(ValueError):
            small_dataset.shards(10**6)

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            Shard(np.zeros((0, 1)), np.zeros(0, dtype=int))


class TestMinibatchSampler:
    def test_draw_shapes(self, small_dataset, rng):
        sampler = MinibatchSampler(small_dataset.shards(2)[0], rng)
        x, y = sampler.draw(16)
        assert x.shape[0] == 16 and y.shape == (16,)

    def test_variable_batch_sizes(self, small_dataset, rng):
        sampler = MinibatchSampler(small_dataset.shards(2)[0], rng)
        for b in (1, 7, 64):
            x, _ = sampler.draw(b)
            assert x.shape[0] == b

    def test_counts_samples_drawn(self, small_dataset, rng):
        sampler = MinibatchSampler(small_dataset.shards(2)[0], rng)
        sampler.draw(10)
        sampler.draw(22)
        assert sampler.samples_drawn == 32

    def test_only_draws_from_own_shard(self, small_dataset, rng):
        shard = small_dataset.shards(4)[1]
        sampler = MinibatchSampler(shard, rng)
        x, _ = sampler.draw(50)
        # every drawn row must exist in the shard
        flat_shard = {arr.tobytes() for arr in shard.x}
        assert all(row.tobytes() in flat_shard for row in x)

    @pytest.mark.parametrize("batch", [0, -4])
    def test_rejects_batch_below_one(self, small_dataset, rng, batch):
        sampler = MinibatchSampler(small_dataset.shards(2)[0], rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            sampler.draw(batch)
        # A rejected draw is no draw: nothing counted, stream untouched.
        assert sampler.samples_drawn == 0
        assert rng.bit_generator.state == state
