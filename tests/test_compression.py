"""Compressor unit tests: codec behavior, keyed randomness, bit accounting.

The exactness property (compressed + residual reconstructs the input
bitwise) holds whenever every coordinate of the compressed vector lands
within a factor of two of the input coordinate, because the subtraction
input - compressed is then exact in floating point.  The property tests
below stay inside that zone on purpose; the boundary test documents what
happens outside it.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcomp import (
    CompressorSpec,
    ConfigError,
    EmptyTraceError,
    compress,
    measured_epsilon,
    message_bits,
)
from gradcomp.compression import SIGN_TILE, _largest
from gradcomp.rng import STREAM_COMPRESS, keyed_generator

KINDS = ("one_bit", "top_k", "rand_k", "stoch_quant", "identity")


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        CompressorSpec(kind="median_of_means")


@pytest.mark.parametrize("field,value", [("k", 0), ("k", -3), ("levels", 0)])
def test_spec_rejects_nonpositive_sizes(field, value):
    with pytest.raises(ConfigError):
        CompressorSpec(kind="top_k" if field == "k" else "stoch_quant", **{field: value})


def test_spec_rejects_negative_seed():
    with pytest.raises(ConfigError):
        CompressorSpec(kind="rand_k", k=1, seed=-1)


def test_compress_rejects_bad_shapes():
    # a (d,) vector and an (m, d) stack are the two accepted shapes
    with pytest.raises(ConfigError):
        compress(np.zeros((2, 2, 2)), CompressorSpec("identity"))
    with pytest.raises(ConfigError):
        compress(np.zeros((2, 0)), CompressorSpec("identity"))
    with pytest.raises(ConfigError):
        compress(np.array([]), CompressorSpec("identity"))


def test_k_larger_than_dimension_is_an_error():
    with pytest.raises(ConfigError):
        compress(np.ones(3), CompressorSpec("top_k", k=4))
    with pytest.raises(ConfigError):
        compress(np.ones(3), CompressorSpec("rand_k", k=4))


# ---------------------------------------------------------------------------
# per-kind behavior, frozen small examples


def test_one_bit_scales_signs_by_mean_magnitude():
    result = compress(np.array([1.0, -2.0, 3.0]), CompressorSpec("one_bit"))
    assert np.array_equal(result.compressed, [2.0, -2.0, 2.0])
    assert np.array_equal(result.residual, [-1.0, 0.0, 1.0])


def test_one_bit_counts_zero_as_positive():
    result = compress(np.array([0.0, -1.0]), CompressorSpec("one_bit"))
    assert np.array_equal(result.compressed, [0.5, -0.5])
    result = compress(np.array([-0.0, -1.0]), CompressorSpec("one_bit"))
    assert np.array_equal(result.compressed, [0.5, -0.5])


def test_top_k_keeps_largest_magnitudes():
    result = compress(np.array([1.0, -5.0, 3.0]), CompressorSpec("top_k", k=1))
    assert np.array_equal(result.compressed, [0.0, -5.0, 0.0])
    assert np.array_equal(result.residual, [1.0, 0.0, 3.0])


def test_top_k_breaks_magnitude_ties_by_index():
    result = compress(np.array([2.0, -2.0, 1.0]), CompressorSpec("top_k", k=1))
    assert np.array_equal(result.compressed, [2.0, 0.0, 0.0])


def test_identity_has_zero_residual():
    x = np.array([0.3, -1.7, 4.0])
    result = compress(x, CompressorSpec("identity"))
    assert np.array_equal(result.compressed, x)
    assert not result.residual.any()


def test_rand_k_keeps_exactly_k_rescaled_coordinates():
    x = np.linspace(1.0, 10.0, 10)
    spec = CompressorSpec("rand_k", k=2, seed=7)
    result = compress(x, spec, step=3)
    kept = np.nonzero(result.compressed)[0]
    assert kept.size == 2
    assert np.array_equal(result.compressed[kept], x[kept] * 5.0)

    plain = CompressorSpec("rand_k", k=2, seed=7, rescale=False)
    result = compress(x, plain, step=3)
    kept = np.nonzero(result.compressed)[0]
    assert np.array_equal(result.compressed[kept], x[kept])


def test_stoch_quant_rounds_to_level_grid():
    x = np.array([0.9, -0.4, 0.1, 0.0])
    spec = CompressorSpec("stoch_quant", levels=4, seed=11)
    result = compress(x, spec, step=2)
    scale = np.abs(x).max()
    grid = scale / 4.0
    levels = result.compressed / grid
    assert np.allclose(levels, np.round(levels))
    assert np.all(np.abs(levels) <= 4)
    # signs survive quantization wherever a nonzero level was drawn
    nz = result.compressed != 0.0
    assert np.all(np.sign(result.compressed[nz]) == np.sign(x[nz]))


def test_stoch_quant_zero_vector_maps_to_zero():
    result = compress(np.zeros(5), CompressorSpec("stoch_quant", levels=3, seed=1))
    assert not result.compressed.any()
    assert not result.residual.any()


# ---------------------------------------------------------------------------
# keyed randomness


@pytest.mark.parametrize(
    "spec",
    [CompressorSpec("rand_k", k=3, seed=5), CompressorSpec("stoch_quant", levels=2, seed=5)],
    ids=["rand_k", "stoch_quant"],
)
def test_randomized_kinds_are_reproducible_per_key(spec):
    x = np.linspace(-1.0, 1.0, 12)
    a = compress(x, spec, step=4, node_id=2)
    b = compress(x, spec, step=4, node_id=2)
    assert np.array_equal(a.compressed, b.compressed)

    other_step = compress(x, spec, step=5, node_id=2)
    other_node = compress(x, spec, step=4, node_id=3)
    assert not np.array_equal(a.compressed, other_step.compressed)
    assert not np.array_equal(a.compressed, other_node.compressed)


def test_deterministic_kinds_ignore_the_key():
    x = np.array([3.0, -1.0, 0.5])
    for kind in ("one_bit", "top_k", "identity"):
        spec = CompressorSpec(kind, k=1)
        a = compress(x, spec, step=0, node_id=0)
        b = compress(x, spec, step=9, node_id=4)
        assert np.array_equal(a.compressed, b.compressed)


# ---------------------------------------------------------------------------
# exactness inside the factor-of-two zone


@st.composite
def factor_two_vectors(draw):
    """Vectors whose coordinates share magnitudes within [0.95, 1.05]."""
    d = 8
    mags = draw(
        st.lists(
            st.floats(min_value=0.95, max_value=1.05, allow_nan=False),
            min_size=d,
            max_size=d,
        )
    )
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
    return np.array(mags) * np.array(signs)


@settings(max_examples=200, deadline=None)
@given(x=factor_two_vectors(), step=st.integers(min_value=0, max_value=1000))
def test_reconstruction_is_bitwise_exact_in_zone(x, step):
    specs = [
        CompressorSpec("identity"),
        CompressorSpec("one_bit"),
        CompressorSpec("top_k", k=4),
        CompressorSpec("rand_k", k=4, seed=3),
        CompressorSpec("stoch_quant", levels=1, seed=3),
        CompressorSpec("stoch_quant", levels=4, seed=3),
    ]
    for spec in specs:
        result = compress(x, spec, step=step)
        assert np.array_equal(result.compressed + result.residual, x), spec.kind


def test_reconstruction_can_round_outside_the_zone():
    """With wildly mixed magnitudes the subtraction may round; the codec
    contract is exactness only where compressed and input coordinates are
    within a factor of two of each other."""
    x = np.array([1.0, 1e-17, 1.0])
    result = compress(x, CompressorSpec("one_bit"))
    # scale is about 2/3, so the tiny middle coordinate is swamped
    assert result.compressed[1] != 0.0
    reconstructed = result.compressed + result.residual
    assert reconstructed[1] != x[1] or np.array_equal(reconstructed, x)


# ---------------------------------------------------------------------------
# bit accounting


def test_message_bits_frozen_values():
    assert message_bits(CompressorSpec("one_bit"), 20) == 84
    assert message_bits(CompressorSpec("top_k", k=3), 10) == 204
    assert message_bits(CompressorSpec("rand_k", k=5), 16) == 340
    assert message_bits(CompressorSpec("stoch_quant", levels=1), 10) == 84
    assert message_bits(CompressorSpec("stoch_quant", levels=4), 10) == 104
    assert message_bits(CompressorSpec("identity"), 10) == 640


@pytest.mark.parametrize("kind", ["top_k", "rand_k"])
def test_message_bits_rejects_k_above_dim_and_bad_dim(kind):
    assert message_bits(CompressorSpec(kind, k=10), 10) == 10 * (64 + 4)
    with pytest.raises(ConfigError) as err:
        message_bits(CompressorSpec(kind, k=11), 10)
    assert err.value.field == "k"
    with pytest.raises(ConfigError):
        message_bits(CompressorSpec("identity"), 0)


def test_measured_epsilon_is_sqrt2_times_sup():
    norms = [0.5, 2.0, 1.25]
    assert measured_epsilon(norms) == pytest.approx(np.sqrt(2.0) * 2.0)
    with pytest.raises(EmptyTraceError):
        measured_epsilon([])


# ---------------------------------------------------------------------------
# the in-place codec against a frozen copy of the allocating one


def reference_compress(x, spec, step=0, node_id=0):
    """compress as it was before it wrote into caller buffers, kept verbatim."""
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    if spec.kind == "identity":
        compressed = x.copy()
    elif spec.kind == "one_bit":
        scale = float(np.abs(x).sum()) / d
        signs = np.where(x < 0.0, -1.0, 1.0)
        compressed = scale * signs
    elif spec.kind == "top_k":
        keep = np.argsort(-np.abs(x), kind="stable")[: spec.k]
        compressed = np.zeros(d)
        compressed[keep] = x[keep]
    elif spec.kind == "rand_k":
        rng = keyed_generator(spec.seed or 0, STREAM_COMPRESS, step, node_id)
        keep = rng.choice(d, size=spec.k, replace=False)
        compressed = np.zeros(d)
        compressed[keep] = x[keep] * (d / spec.k) if spec.rescale else x[keep]
    else:
        scale = float(np.abs(x).max())
        if scale == 0.0:
            compressed = np.zeros(d)
        else:
            rng = keyed_generator(spec.seed or 0, STREAM_COMPRESS, step, node_id)
            z = np.abs(x) / scale * spec.levels
            low = np.floor(z)
            level = low + (rng.random(d) < z - low)
            compressed = np.where(x < 0.0, -1.0, 1.0) * level * (scale / spec.levels)
    return compressed, x - compressed


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 2.0,
           np.inf, -np.inf, np.nan]


def specs_for(d):
    k = max(1, d // 3)
    return [
        CompressorSpec("identity"),
        CompressorSpec("one_bit"),
        CompressorSpec("top_k", k=k),
        CompressorSpec("rand_k", k=k, seed=3),
        CompressorSpec("rand_k", k=k, seed=3, rescale=False),
        CompressorSpec("stoch_quant", levels=1, seed=3),
        CompressorSpec("stoch_quant", levels=5, seed=3),
    ]


def assert_same_bits(actual, expected, label):
    """Byte-identical, except that NaN payloads may differ."""
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan), label
    assert actual[~nan].tobytes() == expected[~nan].tobytes(), label


def check_against_reference(x, step=0):
    with np.errstate(all="ignore"):
        for spec in specs_for(x.size):
            check_spec_against_reference(x, spec, step)


def check_spec_against_reference(x, spec, step):
    label = f"{spec.kind} k={spec.k} levels={spec.levels} rescale={spec.rescale}"
    expected = reference_compress(x, spec, step=step, node_id=2)
    plain = compress(x, spec, step=step, node_id=2)
    into = (np.full(x.size, 7.0), np.full(x.size, 7.0))
    separate = compress(x, spec, step=step, node_id=2, out=into)
    assert separate.compressed is into[0] and separate.residual is into[1]
    in_place = x.copy()
    aliased = compress(in_place, spec, step=step, node_id=2, out=(in_place, np.empty(x.size)))
    assert aliased.compressed is in_place
    for result in (plain, separate, aliased):
        assert_same_bits(result.compressed, expected[0], label)
        assert_same_bits(result.residual, expected[1], label)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL)),
        min_size=1,
        max_size=40,
    ),
    step=st.integers(min_value=0, max_value=50),
)
def test_compress_matches_the_allocating_codec_bit_for_bit(values, step):
    check_against_reference(np.array(values, dtype=np.float64), step)


def test_compress_matches_the_allocating_codec_across_tiles():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2 * SIGN_TILE + 5) * rng.choice([1e-300, 1.0, 1e300], 2 * SIGN_TILE + 5)
    x[rng.choice(x.size, 40, replace=False)] = rng.choice(SPECIAL[:8], 40)
    check_against_reference(x, step=4)
    x[7] = np.inf
    check_against_reference(x, step=4)


def test_compress_rejects_mismatched_out_buffers():
    spec = CompressorSpec("one_bit")
    with pytest.raises(ConfigError):
        compress(np.ones(3), spec, out=(np.empty(3), np.empty(4)))
    with pytest.raises(ConfigError):
        compress(np.ones(3), spec, out=(np.empty(3, dtype=np.float32), np.empty(3)))


def test_compress_rejects_strided_out_buffers():
    """A strided buffer could give a NaN another payload; no caller needs one."""
    x = np.ones((3, 4))
    fortran = np.empty((3, 4), order="F")
    sliced = np.empty((3, 8))[:, ::2]
    row = np.empty(8)[::2]
    for spec in specs_for(4):
        for out in ((fortran, np.empty((3, 4))), (np.empty((3, 4)), fortran),
                    (sliced, np.empty((3, 4))), (np.empty((3, 4)), sliced)):
            with pytest.raises(ConfigError, match="C-contiguous"):
                compress(x, spec, out=out)
        with pytest.raises(ConfigError, match="C-contiguous"):
            compress(x[0], spec, out=(row, np.empty(4)))


def test_consecutive_calls_do_not_share_results():
    x = np.array([3.0, -1.0, 0.5, 2.0])
    for spec in specs_for(x.size):
        first = compress(x, spec, step=1)
        kept = (first.compressed.copy(), first.residual.copy())
        compress(-x, spec, step=1)
        assert np.array_equal(first.compressed, kept[0]) and np.array_equal(first.residual, kept[1])


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, np.inf, np.nan]),
                    min_size=1, max_size=30),
    data=st.data(),
)
def test_top_k_selection_matches_a_stable_argsort(values, data):
    x = np.array(values)
    k = data.draw(st.one_of(st.just(1), st.just(x.size), st.integers(1, x.size)), label="k")
    expected = np.sort(np.argsort(-np.abs(x), kind="stable")[:k])
    assert np.array_equal(np.sort(_largest(x, k, np.empty(x.size))), expected)


# ---------------------------------------------------------------------------
# an (m, d) stack against m lone calls


def stack_with_specials(m, d, rng):
    """m rows of d values; row j is one of four kinds, so that every m covers special values.

    Kinds: mixed-scale normals; normals with SPECIAL values (NaN, +-inf,
    +-0.0, subnormals) planted; +-0.0 only; normals with one +inf and one -inf.
    """
    x = rng.standard_normal((m, d)) * rng.choice([1e-300, 1.0, 1e300], (m, d))
    for j in range(m):
        kind = (j + m) % 4
        if kind == 1:
            planted = rng.choice(d, min(d, 40), replace=False)
            x[j, planted] = rng.choice(SPECIAL, planted.size)
        elif kind == 2:
            x[j] = rng.choice([0.0, -0.0], d)
        elif kind == 3:
            x[j, rng.choice(d, min(d, 2), replace=False)] = [np.inf, -np.inf][: min(d, 2)]
    return x


def fresh_buffers(layout, x):
    """A (compressed, residual) pair for an out layout, or None for new arrays."""
    if layout == "new":
        return None
    if layout == "in place":
        return x.copy(), np.full(x.shape, 7.0)
    return np.full(x.shape, 7.0, order=layout), np.full(x.shape, 7.0, order=layout)


def check_stack_against_rows(x, spec, step):
    """compress of the stack has the bytes of one call per row, in every buffer layout.

    Each layout is compared with row calls into rows of the same layout.
    """
    label = f"{spec.kind} k={spec.k} levels={spec.levels} rescale={spec.rescale} shape={x.shape}"
    for layout in ("new", "C", "in place"):
        out = fresh_buffers(layout, x)
        stacked = compress(out[0] if layout == "in place" else x, spec, step=step, node_id=5, out=out)
        if out is not None:
            assert stacked.compressed is out[0] and stacked.residual is out[1], label
        rows = fresh_buffers(layout, x) or (np.empty(x.shape), np.empty(x.shape))
        for j in range(len(x)):
            source = rows[0][j] if layout == "in place" else x[j]
            into = None if layout == "new" else (rows[0][j], rows[1][j])
            result = compress(source, spec, step=step, node_id=5 + j, out=into)
            rows[0][j], rows[1][j] = result.compressed, result.residual
        assert stacked.compressed.tobytes() == rows[0].tobytes(), f"{label} {layout}"
        assert stacked.residual.tobytes() == rows[1].tobytes(), f"{label} {layout}"


# d = 5000 signs 9 rows in blocks of 6 and 3; wider rows are tiled within the row.
@pytest.mark.parametrize("d", [1, 20, 5000, 70_001, 2**18])
@pytest.mark.parametrize("m", [1, 2, 9])
def test_a_stack_compresses_to_the_bytes_of_one_call_per_row(m, d):
    x = stack_with_specials(m, d, np.random.default_rng(m * 1000 + d))
    with np.errstate(all="ignore"):
        for spec in specs_for(d):
            check_stack_against_rows(x, spec, step=4)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    values=st.lists(
        st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL)),
        min_size=1,
        max_size=12,
    ),
    step=st.integers(min_value=0, max_value=50),
)
def test_any_stack_compresses_to_the_bytes_of_one_call_per_row(rows, values, step):
    x = np.tile(np.array(values, dtype=np.float64), (rows, 1))
    with np.errstate(all="ignore"):
        x *= np.arange(1, rows + 1)[:, None]  # rows differ in scale, and in one_bit's scale
        for spec in specs_for(x.shape[1]):
            check_stack_against_rows(x, spec, step)


@pytest.mark.parametrize("m,d", [(40, 5000), (9, 70_001)])
def test_one_bit_temporaries_stay_within_a_tile_for_any_stack(m, d):
    x = np.random.default_rng(7).standard_normal((m, d))
    out = (np.empty((m, d)), np.empty((m, d)))
    tracemalloc.start()
    try:
        compress(x, CompressorSpec("one_bit"), out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one tile's temporary is SIGN_TILE floats (256 KiB); the stack is 1.6 or 5.0 MB
    assert peak < 2 * SIGN_TILE * 8
