import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochnewton import streams
from stochnewton.experiment import ExperimentConfig, _draw_batches
from stochnewton.objectives import sample_batch
from stochnewton.streams import BATCH_STREAM, batch_indices, derive_stream

# 1-, 2- and more-than-4-word seed entropy; 2**130 + 3 has 5 words, so
# SeedSequence skips the padding to its pool size.
SEEDS = [0, 4242, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 130 + 3]
# 2**31 + 5 rejects about half of all words; 2**32 takes every word whole.
NS = [1, 2, 7, 100, 2000, 2 ** 31 + 5, 2 ** 32]
SIZES = [1, 3, 150, 3000]


def _numpy_rows(seed, trials, n, size):
    return np.stack([sample_batch(derive_stream(seed, BATCH_STREAM, k), n, size)
                     for k in range(trials)])


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_indices_match_numpy_bit_for_bit(seed):
    for n in NS:
        for size in SIZES:
            got = batch_indices(seed, 3, n, size)
            ref = _numpy_rows(seed, 3, n, size)
            assert got.dtype == ref.dtype == np.int64
            assert got.shape == ref.shape
            assert np.array_equal(got, ref), (seed, n, size)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 140), n=st.integers(1, 2 ** 32), size=st.integers(1, 400),
       trials=st.integers(1, 4))
def test_batch_indices_match_numpy_on_random_settings(seed, n, size, trials):
    assert np.array_equal(batch_indices(seed, trials, n, size),
                          _numpy_rows(seed, trials, n, size))


def test_heavy_rejection_goes_through_the_redraw(monkeypatch):
    calls = []

    def spy(keys, m):
        calls.append(m)
        return raw_words(keys, m)

    raw_words = streams._raw_words
    monkeypatch.setattr(streams, "_raw_words", spy)
    got = batch_indices(4242, 5, 2 ** 31 + 5, 150)
    assert len(calls) > 1 and calls[-1] > calls[0]
    assert np.array_equal(got, _numpy_rows(4242, 5, 2 ** 31 + 5, 150))


@pytest.mark.parametrize("n", [100, 2 ** 31 + 5])
def test_a_row_does_not_depend_on_the_stack_it_is_drawn_in(n):
    stack = batch_indices(0, 1000, n, 150)
    for k in (0, 1, 17, 999):
        assert np.array_equal(batch_indices(0, k + 1, n, 150)[k], stack[k])


def test_draw_batches_reshapes_the_trial_rows():
    cfg = ExperimentConfig(trials=4, master_seed=9)
    batches = _draw_batches(cfg)
    assert batches.shape == (4, cfg.steps, cfg.batch_size)
    ref = _numpy_rows(9, 4, cfg.n, cfg.steps * cfg.batch_size)
    assert np.array_equal(batches.reshape(4, -1), ref)


def test_batch_indices_refuse_what_numpy_refuses():
    rng = derive_stream(0, BATCH_STREAM, 0)
    for n, size in ((0, 5), (10, 0)):
        with pytest.raises(ValueError):
            sample_batch(rng, n, size)
        with pytest.raises(ValueError):
            batch_indices(0, 3, n, size)
    with pytest.raises(ValueError):
        batch_indices(0, 3, 2 ** 32 + 1, 5)
    with pytest.raises(ValueError):
        derive_stream(-1, BATCH_STREAM, 0)
    with pytest.raises(ValueError):
        batch_indices(-1, 3, 10, 5)


def test_stream_keys_must_be_integers():
    with pytest.raises(TypeError):
        derive_stream(1.5, BATCH_STREAM, 0)
    with pytest.raises(TypeError):
        derive_stream(0, BATCH_STREAM, 1.5)
    with pytest.raises(TypeError):
        batch_indices(1.5, 3, 10, 5)
    assert np.array_equal(derive_stream(np.int64(3), 1, 2).integers(0, 9, 4),
                          derive_stream(3, 1, 2).integers(0, 9, 4))


def test_master_seed_is_checked_at_construction():
    with pytest.raises(TypeError):
        ExperimentConfig(master_seed=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=-1)
    assert ExperimentConfig(master_seed=np.int64(7)).master_seed == 7
