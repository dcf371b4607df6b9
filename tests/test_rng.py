"""Keyed RNG tests: the vectorised replica matches the scalar generator bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcomp import rng
from gradcomp.rng import STREAM_SAMPLE, keyed_generator, keyed_integers

# Key words inside 32 bits take the replica; wider ones (several SeedSequence
# words) take the scalar fallback, and keys past int64 come as an object
# array.  Seeds of any width take the replica.
NARROW = st.integers(0, 2**32 - 1)
WORDS = st.one_of(NARROW, st.integers(2**32, 2**62), st.integers(2**63, 2**80))
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80))
# Ranges up to 2^32 - 1 reach Lemire's rejection; 2^32 and above fall back.
HIGHS = st.one_of(st.integers(1, 5000), st.integers(1, 2**32 - 1), st.integers(2**32, 2**40))


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    n_keys=st.integers(0, 6),
    size=st.integers(1, 20),
    data=st.data(),
)
def test_keyed_integers_equals_the_scalar_generator_row_by_row(seed, n_keys, size, data):
    m = data.draw(st.integers(1, 8))
    # At least half the rows hold only narrow words, so both paths are covered.
    rows = st.one_of(*(st.lists(w, min_size=n_keys, max_size=n_keys) for w in (NARROW, WORDS)))
    words = [w for row in data.draw(st.lists(rows, min_size=m, max_size=m)) for w in row]
    dtype = np.int64 if all(w < 2**63 for w in words) else object
    keys = np.array(words, dtype=dtype).reshape(m, n_keys)
    high = np.array(data.draw(st.lists(HIGHS, min_size=m, max_size=m)), dtype=np.int64)
    out = keyed_integers(seed, keys, high, size)
    assert out.shape == (m, size) and out.dtype == np.int64
    for j in range(m):
        expected = keyed_generator(seed, *keys[j]).integers(0, high[j], size=size)
        assert np.array_equal(out[j], expected)


@pytest.mark.parametrize(
    "draw",
    [
        lambda: keyed_generator(-1, STREAM_SAMPLE),
        lambda: keyed_integers(-1, np.zeros((2, 3), dtype=np.int64), np.full(2, 5), 4),
    ],
    ids=["keyed_generator", "keyed_integers"],
)
def test_a_negative_seed_is_rejected(draw):
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        draw()


def test_keyed_integers_uses_the_scalar_generator_only_for_rejections(monkeypatch):
    calls = []
    original = rng.keyed_generator

    def counting(seed, *key):
        calls.append(key)
        return original(seed, *key)

    monkeypatch.setattr(rng, "keyed_generator", counting)
    keys = np.stack(
        [np.full(200, STREAM_SAMPLE), np.arange(200), np.arange(200) % 8, np.zeros(200, int)],
        axis=1,
    )
    # 2^32 is a multiple of 64: Lemire never rejects, so no row falls back.
    small = keyed_integers(7, keys, np.full(200, 64), 11)
    assert calls == []
    # At 3e9 about 30% of draws are rejected, so most (not all) rows fall back.
    large = keyed_integers(7, keys, np.full(200, 3 * 10**9), 4)
    assert 0 < len(calls) < 200
    for j in range(200):
        assert np.array_equal(small[j], original(7, *keys[j]).integers(0, 64, size=11))
        assert np.array_equal(large[j], original(7, *keys[j]).integers(0, 3 * 10**9, size=4))
