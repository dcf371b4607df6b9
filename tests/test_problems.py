"""Problem zoo tests: gradients, designed conditioning, sharding, sampling."""

import dataclasses

import numpy as np
import pytest

from gradcomp import (
    ConfigError,
    ProblemSpec,
    RunConfig,
    SampleHandle,
    Shard,
    full_grad,
    loss,
    make_problem,
    minibatch_indices,
    partition_data,
    run,
    shard_sampler,
    stoch_grad,
    variance_sigma2,
)
from gradcomp import simulator
from gradcomp.problems import fleet_minibatches

QUAD = ProblemSpec(kind="quadratic", spectrum=(0.5, 1.0, 2.0, 4.0))
LIN = ProblemSpec(kind="lin_reg", dim=6, n_samples=48, noise_std=0.1, condition=10.0, seed=3)
LOG = ProblemSpec(kind="log_reg", dim=5, n_samples=40, l2_reg=0.05, condition=8.0, seed=3)


def central_difference(problem, x, h=1e-6):
    out = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (loss(problem, x + step) - loss(problem, x - step)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        ProblemSpec(kind="cubic")


def test_quadratic_needs_a_nonnegative_spectrum():
    with pytest.raises(ConfigError):
        ProblemSpec(kind="quadratic")
    with pytest.raises(ConfigError):
        ProblemSpec(kind="quadratic", spectrum=(1.0, -0.5))


def test_dataset_problems_need_enough_samples():
    with pytest.raises(ConfigError):
        ProblemSpec(kind="lin_reg", dim=10, n_samples=9)
    with pytest.raises(ConfigError):
        ProblemSpec(kind="log_reg", dim=4, n_samples=16, condition=0.5)


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"dim": 0}, "dim"),
        ({"noise_std": -0.1}, "noise_std"),
        ({"l2_reg": -0.1}, "l2_reg"),
        ({"batch_size": 0}, "batch_size"),
        ({"seed": -1}, "seed"),
    ],
)
def test_spec_rejects_out_of_range_values_by_field(changes, field):
    with pytest.raises(ConfigError) as excinfo:
        dataclasses.replace(LIN, **changes)
    assert excinfo.value.field == field


def test_handle_rejects_negative_fields():
    with pytest.raises(ConfigError):
        SampleHandle(t=-1, worker=0)
    with pytest.raises(ConfigError):
        SampleHandle(t=0, worker=0, draw=-2)
    with pytest.raises(ConfigError):
        SampleHandle(t=0, worker=0, salt=-1)


# ---------------------------------------------------------------------------
# gradients and closed forms


@pytest.mark.parametrize("spec", [QUAD, LIN, LOG], ids=["quadratic", "lin_reg", "log_reg"])
def test_full_grad_matches_central_differences(spec):
    problem = make_problem(spec)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.standard_normal(problem.dim)
        g = full_grad(problem, x)
        fd = central_difference(problem, x)
        assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-6


def test_quadratic_closed_forms():
    problem = make_problem(QUAD)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    assert loss(problem, x) == pytest.approx(0.5 * float(np.dot(x, problem.h * x)))
    assert np.array_equal(full_grad(problem, x), problem.h * x)
    assert problem.smoothness() == 4.0


def test_lin_reg_gram_spectrum_is_designed():
    problem = make_problem(LIN)
    gram = problem.x_mat.T @ problem.x_mat / LIN.n_samples
    eigs = np.sort(np.linalg.eigvalsh(gram))[::-1]
    expected = np.geomspace(1.0, 1.0 / LIN.condition, LIN.dim)
    assert np.allclose(eigs, expected, atol=1e-9)
    assert problem.smoothness() == pytest.approx(1.0, abs=1e-9)


def test_lin_reg_minimizer_zeroes_the_gradient():
    problem = make_problem(LIN)
    minimizer, *_ = np.linalg.lstsq(problem.x_mat, problem.target(), rcond=None)
    g = full_grad(problem, minimizer)
    assert np.linalg.norm(g) < 1e-10
    assert loss(problem, minimizer) <= loss(problem, np.ones(LIN.dim))


def test_log_reg_smoothness_is_a_quarter_of_the_gram_norm_plus_the_ridge():
    problem = make_problem(LOG)
    gram = problem.x_mat.T @ problem.x_mat / LOG.n_samples
    expected = np.linalg.eigvalsh(gram).max() / 4.0 + LOG.l2_reg
    assert problem.smoothness() == pytest.approx(expected, rel=1e-12)


def test_log_reg_labels_are_signs_and_loss_is_regularized():
    problem = make_problem(LOG)
    assert set(np.unique(problem.target())) <= {-1.0, 1.0}
    base = ProblemSpec(kind="log_reg", dim=5, n_samples=40, l2_reg=0.0, condition=8.0, seed=3)
    plain = make_problem(base)
    x = np.full(5, 0.7)
    assert loss(problem, x) == pytest.approx(
        loss(plain, x) + 0.5 * 0.05 * float(np.dot(x, x))
    )


def test_same_spec_rebuilds_the_same_dataset():
    a = make_problem(LIN)
    b = make_problem(LIN)
    assert a is not b
    assert np.array_equal(a.x_mat, b.x_mat)
    assert np.array_equal(a.y, b.y)
    shifted = make_problem(
        ProblemSpec(kind="lin_reg", dim=6, n_samples=48, noise_std=0.1, condition=10.0, seed=4)
    )
    assert not np.array_equal(a.x_mat, shifted.x_mat)


def unmemoised(problem, x):
    """(loss, full_grad) by the formulas written out, with no shared pass."""
    x_mat, y, n = problem.x_mat, problem.y, problem.n_samples
    if problem.spec.kind == "lin_reg":
        r = x_mat @ x - y
        return float(0.5 * np.dot(r, r) / n), x_mat.T @ (x_mat @ x - y) / n
    l2 = problem.spec.l2_reg
    m = y * (x_mat @ x)
    value = float(np.logaddexp(0.0, -m).mean() + 0.5 * l2 * np.dot(x, x))
    m = y * (x_mat @ x)
    grad = x_mat.T @ (-y * (1.0 / (1.0 + np.exp(m)))) / n + l2 * x
    return value, grad


def assert_matches_unmemoised(problem, x):
    expected_loss, expected_grad = unmemoised(problem, x.copy())
    got_grad = full_grad(problem, x)
    got_loss = loss(problem, x)
    assert np.float64(got_loss).tobytes() == np.float64(expected_loss).tobytes()
    assert got_grad.tobytes() == expected_grad.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("spec", [LIN, LOG], ids=["lin_reg", "log_reg"])
def test_memoised_pass_gives_the_unmemoised_bits(spec):
    problem = make_problem(spec)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(spec.dim)
    x[0] = -0.0
    signed_zero = x.copy()
    signed_zero[0] = 0.0
    with_nan = x.copy()
    with_nan[1] = np.nan
    assert_matches_unmemoised(problem, x)            # cold memo
    assert_matches_unmemoised(problem, x)            # warm memo
    assert_matches_unmemoised(problem, signed_zero)  # warmed by an x that compares equal
    assert_matches_unmemoised(problem, with_nan)
    assert_matches_unmemoised(problem, with_nan)     # NaN bytes hit the memo
    assert_matches_unmemoised(problem, x)            # warmed by a different x
    x[2] += 1.0                                      # same object, new bytes
    assert_matches_unmemoised(problem, x)
    assert np.isnan(loss(problem, with_nan))


# ---------------------------------------------------------------------------
# partitioning


def test_partition_sizes_differ_by_at_most_one():
    problem = make_problem(LIN)
    shards = partition_data(problem, 5, seed=0)
    sizes = [s.size() for s in shards]
    assert sum(sizes) == LIN.n_samples
    assert max(sizes) - min(sizes) <= 1


def test_partition_is_a_disjoint_cover():
    problem = make_problem(LIN)
    shards = partition_data(problem, 7, seed=2)
    merged = np.concatenate([s.indices for s in shards])
    assert np.array_equal(np.sort(merged), np.arange(LIN.n_samples))


def test_partition_is_deterministic_in_seed():
    problem = make_problem(LIN)
    a = partition_data(problem, 4, seed=5)
    b = partition_data(problem, 4, seed=5)
    c = partition_data(problem, 4, seed=6)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.indices, sb.indices)
    assert any(not np.array_equal(sa.indices, sc.indices) for sa, sc in zip(a, c))


def test_full_heterogeneity_sorts_shards_by_target():
    problem = make_problem(LIN)
    shards = partition_data(problem, 4, seed=0, heterogeneity=1.0)
    means = [problem.target()[s.indices].mean() for s in shards]
    assert means == sorted(means)
    mixed = partition_data(problem, 4, seed=0, heterogeneity=0.0)
    assert any(
        not np.array_equal(s.indices, m.indices) for s, m in zip(shards, mixed)
    )


def test_sample_free_problems_get_empty_shards():
    problem = make_problem(QUAD)
    shards = partition_data(problem, 3, seed=0)
    assert all(s.indices is None for s in shards)
    assert all(s.size() == 0 for s in shards)


# ---------------------------------------------------------------------------
# sampling


def test_minibatch_replay_is_bitwise():
    problem = make_problem(LIN)
    shard = partition_data(problem, 2, seed=1)[1]
    handle = SampleHandle(t=7, worker=1, draw=0, salt=42)
    first = minibatch_indices(problem, shard, handle)
    again = minibatch_indices(problem, shard, handle)
    assert np.array_equal(first, again)
    assert np.all(np.isin(first, shard.indices))


def test_handle_fields_separate_sampling_streams():
    problem = make_problem(
        ProblemSpec(kind="lin_reg", dim=6, n_samples=48, batch_size=16, seed=3)
    )
    shard = partition_data(problem, 1, seed=1)[0]
    base = minibatch_indices(problem, shard, SampleHandle(t=3, worker=0))
    for other in (
        SampleHandle(t=4, worker=0),
        SampleHandle(t=3, worker=0, draw=1),
        SampleHandle(t=3, worker=0, salt=9),
    ):
        assert not np.array_equal(base, minibatch_indices(problem, shard, other))


def test_stoch_grad_reuses_the_handles_samples_across_points():
    problem = make_problem(LIN)
    shard = partition_data(problem, 1, seed=1)[0]
    handle = SampleHandle(t=5, worker=0)
    idx = minibatch_indices(problem, shard, handle)
    x = np.linspace(-1.0, 1.0, 6)
    expected = problem.grad_at(x, idx)
    assert np.array_equal(stoch_grad(problem, shard, x, handle), expected)


@pytest.mark.parametrize("batch", [1, 3, 8, 33])
@pytest.mark.parametrize("spec", [LIN, LOG], ids=["lin_reg", "log_reg"])
def test_stacked_grad_at_equals_the_row_by_row_calls_byte_for_byte(spec, batch):
    problem = make_problem(spec)
    rng = np.random.default_rng(batch)
    for n in (1, 3, 8):
        indices = rng.integers(0, problem.n_samples, size=(n, batch))
        x = rng.standard_normal(problem.dim)
        stacked = problem.grad_at(x, indices)
        assert stacked.shape == (n, problem.dim)
        for i in range(n):
            assert stacked[i].tobytes() == problem.grad_at(x, indices[i]).tobytes()
    # the one-minibatch path still takes any array-like of indices
    listed = [int(i) for i in indices[0]]
    assert problem.grad_at(x, listed).tobytes() == stacked[0].tobytes()


def test_quadratic_grad_at_ignores_a_stack_of_empty_minibatches():
    problem = make_problem(QUAD)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    got = problem.grad_at(x, np.empty((3, 0), dtype=np.int64))
    assert got.shape == (4,)
    assert got.tobytes() == full_grad(problem, x).tobytes()


def test_stoch_grad_on_sample_free_problem_is_exact():
    problem = make_problem(QUAD)
    shard = partition_data(problem, 1, seed=0)[0]
    x = np.array([1.0, 2.0, -1.0, 0.5])
    assert np.array_equal(
        stoch_grad(problem, shard, x, SampleHandle(t=0, worker=0)), full_grad(problem, x)
    )


def test_shard_sampler_stamps_its_salt():
    problem = make_problem(LIN)
    shards = partition_data(problem, 2, seed=1)
    salted = shard_sampler(problem, shards, salt=17)
    unsalted = shard_sampler(problem, shards, salt=0)
    x = np.ones(6)
    handle = SampleHandle(t=3, worker=1)
    direct = stoch_grad(problem, shards[1], x, SampleHandle(t=3, worker=1, salt=17))
    assert np.array_equal(salted(x, handle), direct)
    assert not np.array_equal(salted(x, handle), unsalted(x, handle))


def test_minibatch_positions_are_uniform_over_an_odd_sized_shard():
    size, per_handle = 37, 400
    problem = make_problem(
        ProblemSpec(kind="lin_reg", dim=2, n_samples=size, batch_size=per_handle, seed=11)
    )
    shard = partition_data(problem, 1, seed=11)[0]
    draws = np.concatenate(
        [minibatch_indices(problem, shard, SampleHandle(t=t, worker=0)) for t in range(size)]
    )
    counts = np.bincount(draws, minlength=size)
    expected = draws.size / size
    statistic = float(((counts - expected) ** 2 / expected).sum())
    # 99.9% quantile of the chi-square distribution with size - 1 = 36 degrees of freedom.
    assert statistic < 67.985


def test_empty_shard_is_rejected_when_it_is_built():
    with pytest.raises(ConfigError, match="worker 1 has an empty shard"):
        Shard(worker=1, indices=np.empty(0, dtype=np.int64))
    assert Shard(worker=1, indices=None).size() == 0


def test_fleet_minibatches_match_the_per_handle_draws_across_blocks(monkeypatch):
    # 3 workers x 8000 indices per step: SAMPLE_BLOCK holds 2 steps, so the
    # 6 protocol steps of this run are drawn in 3 blocks.
    spec = ProblemSpec(kind="lin_reg", dim=3, n_samples=31, batch_size=8000, seed=2)
    config = RunConfig(problem=spec, estimator="storm", n_workers=3, steps=7, seed=5)
    blocks = []

    def recording(problem, shards, t0, t1, salt=0):
        block = fleet_minibatches(problem, shards, t0, t1, salt)
        blocks.append((problem, shards, t0, t1, salt, block))
        return block

    monkeypatch.setattr(simulator, "fleet_minibatches", recording)
    run(config)
    assert [(t0, t1) for _, _, t0, t1, _, _ in blocks] == [(1, 3), (3, 5), (5, 7)]
    for problem, shards, t0, t1, salt, block in blocks:
        assert salt == 5 and block.shape == (t1 - t0, 3, 8000)
        for t in range(t0, t1):
            for i, shard in enumerate(shards):
                handle = SampleHandle(t=t, worker=i, draw=0, salt=salt)
                assert np.array_equal(block[t - t0, i], minibatch_indices(problem, shard, handle))

    quad = make_problem(QUAD)
    assert fleet_minibatches(quad, partition_data(quad, 2, seed=0), 4, 7).shape == (3, 2, 0)


def test_shard_full_grad_over_everything_matches_full_grad():
    problem = make_problem(LIN)
    x = np.linspace(0.0, 1.0, 6)
    every = np.arange(problem.n_samples)
    assert np.allclose(problem.grad_at(x, every), full_grad(problem, x), atol=1e-15)


# ---------------------------------------------------------------------------
# variance


def test_variance_estimate_is_positive_and_deterministic():
    problem = make_problem(LIN)
    shard = partition_data(problem, 1, seed=0)[0]
    x = np.ones(6)
    a = variance_sigma2(problem, shard, x, trials=64)
    b = variance_sigma2(problem, shard, x, trials=64)
    assert a == b
    assert a > 0.0
    with pytest.raises(ConfigError):
        variance_sigma2(problem, shard, x, trials=1)


def test_variance_is_zero_without_sampling_noise():
    problem = make_problem(QUAD)
    shard = partition_data(problem, 1, seed=0)[0]
    assert variance_sigma2(problem, shard, np.ones(4), trials=8) == 0.0
