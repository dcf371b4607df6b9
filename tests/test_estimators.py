"""Moving-average estimator tests.

The gradient oracle is stubbed with closures that record their arguments,
so each estimator's evaluation point and blend arithmetic can be checked
against hand-written expressions without any problem machinery.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcomp import (
    AlphaSchedule,
    ConfigError,
    Estimator,
    SampleHandle,
    fixed_order_mean,
    init_v0,
)

HANDLE = SampleHandle(t=1, worker=0)


def linear_oracle(matrix):
    """grad(x, handle) = matrix @ x, ignoring the handle."""

    def grad(x, handle):
        return matrix @ x

    return grad


# ---------------------------------------------------------------------------
# schedules


def test_schedule_validation():
    with pytest.raises(ConfigError):
        AlphaSchedule(kind="inverse_square")
    with pytest.raises(ConfigError):
        AlphaSchedule(kind="constant", alpha=0.0)
    with pytest.raises(ConfigError):
        AlphaSchedule(kind="constant", alpha=1.5)
    with pytest.raises(ConfigError):
        AlphaSchedule(kind="inverse_linear", c0=0.0)
    with pytest.raises(ConfigError):
        AlphaSchedule(kind="power_two_thirds", horizon=0)


def test_constant_schedule_is_flat():
    sched = AlphaSchedule(kind="constant", alpha=0.3)
    assert [sched.at(t) for t in (-1, 0, 1, 100)] == [0.3, 0.3, 0.3, 0.3]
    assert sched.is_constant()


def test_inverse_t_values():
    sched = AlphaSchedule(kind="inverse_t")
    assert sched.at(5) == 0.2
    assert sched.at(1) == 1.0
    assert not sched.is_constant()


def test_inverse_linear_values():
    sched = AlphaSchedule(kind="inverse_linear", c0=0.05)
    assert sched.at(10) == pytest.approx(1.0 / 1.5)
    assert sched.at(1) == pytest.approx(1.0 / 1.05)


def test_power_two_thirds_is_horizon_constant():
    sched = AlphaSchedule(kind="power_two_thirds", horizon=8)
    assert sched.at(1) == pytest.approx(0.25)
    assert sched.at(500) == pytest.approx(0.25)
    assert sched.is_constant()


def test_decaying_schedules_extend_flat_before_step_one():
    """Start-up ratios alpha_{t-1}/alpha_t must equal one at t <= 1."""
    for sched in (AlphaSchedule(kind="inverse_t"), AlphaSchedule(kind="inverse_linear")):
        assert sched.at(-1) == sched.at(0) == sched.at(1)
    with pytest.raises(ConfigError):
        AlphaSchedule(kind="inverse_t").at(-2)


# ---------------------------------------------------------------------------
# fixed-order reduction


def test_fixed_order_mean_matches_numpy_mean():
    rng = np.random.default_rng(0)
    vectors = [rng.standard_normal(5) for _ in range(7)]
    assert np.allclose(fixed_order_mean(vectors), np.mean(vectors, axis=0), atol=1e-15)


def test_fixed_order_mean_accepts_any_iterable():
    gen = (np.full(3, float(i)) for i in range(4))
    assert np.array_equal(fixed_order_mean(gen), np.full(3, 1.5))


# ---------------------------------------------------------------------------
# estimator construction


def test_unknown_estimator_kind_is_rejected():
    with pytest.raises(ConfigError):
        Estimator(kind="adam", schedule=AlphaSchedule())


def test_sgd_requires_unit_constant_alpha():
    with pytest.raises(ConfigError):
        Estimator(kind="sgd", schedule=AlphaSchedule(kind="constant", alpha=0.5))
    with pytest.raises(ConfigError):
        Estimator(kind="sgd", schedule=AlphaSchedule(kind="inverse_t"))
    Estimator(kind="sgd", schedule=AlphaSchedule(kind="constant", alpha=1.0))


# ---------------------------------------------------------------------------
# inner estimates


def test_plain_kinds_return_the_oracle_gradient():
    matrix = np.diag([1.0, 2.0])
    x = np.array([3.0, -1.0])
    for kind in ("sgd", "momentum"):
        sched = AlphaSchedule() if kind == "sgd" else AlphaSchedule(kind="constant", alpha=0.4)
        est = Estimator(kind=kind, schedule=sched, x_prev=np.zeros(2))
        a_t = 1.0 if kind == "sgd" else 0.4
        assert np.array_equal(
            est.eval_a(x, HANDLE, a_t, linear_oracle(matrix)), matrix @ x
        )


@pytest.mark.parametrize("kind", ["storm", "root_sgd"])
def test_bias_corrected_kinds_difference_the_same_sample(kind):
    matrix = np.diag([1.0, 2.0])
    x_prev = np.array([1.0, 1.0])
    x = np.array([3.0, -1.0])
    est = Estimator(kind=kind, schedule=AlphaSchedule(kind="constant", alpha=0.25), x_prev=x_prev)
    got = est.eval_a(x, HANDLE, 0.25, linear_oracle(matrix))
    expected = (matrix @ x - 0.75 * (matrix @ x_prev)) / 0.25
    assert np.allclose(got, expected, atol=1e-15)


def test_igt_evaluates_at_the_extrapolated_point():
    seen = []

    def recording_grad(x, handle):
        seen.append(np.array(x))
        return np.zeros_like(x)

    x_prev = np.array([0.0, 1.0])
    x = np.array([2.0, 3.0])
    est = Estimator(kind="igt", schedule=AlphaSchedule(kind="constant", alpha=0.2), x_prev=x_prev)
    est.eval_a(x, HANDLE, 0.2, recording_grad)
    shift = (1.0 - 0.2) / 0.2
    assert np.allclose(seen[0], x + shift * (x - x_prev), atol=1e-15)


def test_eval_a_rejects_nonpositive_alpha():
    est = Estimator(kind="momentum", schedule=AlphaSchedule(kind="constant", alpha=0.5))
    with pytest.raises(ConfigError):
        est.eval_a(np.zeros(2), HANDLE, 0.0, linear_oracle(np.eye(2)))


# ---------------------------------------------------------------------------
# blending


@settings(max_examples=50, deadline=None)
@given(
    alpha_t=st.floats(min_value=0.01, max_value=1.0),
    scale=st.floats(min_value=-2.0, max_value=2.0),
)
def test_update_v_weighted_flag_changes_only_the_increment_weight(alpha_t, scale):
    v0 = np.array([1.0, -1.0])
    a_t = np.array([scale, 2.0 * scale])

    est = Estimator(kind="momentum", schedule=AlphaSchedule(kind="constant", alpha=alpha_t), v=v0.copy())
    unweighted = est.update_v(a_t, alpha_t, weighted=False)
    assert np.array_equal(unweighted, (1.0 - alpha_t) * v0 + alpha_t * a_t)

    est = Estimator(kind="momentum", schedule=AlphaSchedule(kind="constant", alpha=alpha_t), v=v0.copy())
    weighted = est.update_v(a_t, alpha_t, weighted=True)
    assert np.array_equal(weighted, (1.0 - alpha_t) * v0 + a_t)


def test_advance_records_the_previous_iterate():
    est = Estimator(kind="momentum", schedule=AlphaSchedule(kind="constant", alpha=0.5))
    x = np.array([1.0, 2.0])
    est.advance(x)
    assert np.array_equal(est.x_prev, x)


# ---------------------------------------------------------------------------
# warm start


def test_init_v0_averages_round_robin_draws():
    calls = []

    def recording_grad(x, handle):
        calls.append(handle)
        return np.full(2, float(handle.draw))

    v0 = init_v0(np.zeros(2), b0=5, grad=recording_grad, n_workers=2)
    assert [h.worker for h in calls] == [0, 1, 0, 1, 0]
    assert [h.draw for h in calls] == [0, 1, 2, 3, 4]
    assert all(h.t == 0 for h in calls)
    assert np.array_equal(v0, np.full(2, 2.0))


def keyed_oracle(dim):
    """A gradient per handle, over magnitudes wide enough that order shows."""

    def grad(x, handle):
        rng = np.random.default_rng([handle.draw, handle.worker])
        return rng.standard_normal(dim) * rng.choice([1e-8, 1.0, 1e8], dim)

    return grad


@pytest.mark.parametrize("dim", [1, 5])
@pytest.mark.parametrize("n_workers", [1, 3])
@pytest.mark.parametrize("b0", [1, 2, 7, 64])
def test_init_v0_gives_the_bits_of_the_stacked_mean(b0, n_workers, dim):
    grad = keyed_oracle(dim)
    x0 = np.zeros(dim)
    draws = [grad(x0, SampleHandle(t=0, worker=j % n_workers, draw=j)) for j in range(b0)]
    assert init_v0(x0, b0, grad, n_workers).tobytes() == fixed_order_mean(draws).tobytes()


def test_init_v0_memory_does_not_grow_with_b0():
    dim, b0 = 1000, 4096

    def grad(x, handle):
        return np.full(dim, float(handle.draw))

    tracemalloc.start()
    try:
        v0 = init_v0(np.zeros(dim), b0, grad, n_workers=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(v0, np.full(dim, (b0 - 1) / 2))
    # The stacked draws alone would take b0 * dim * 8 bytes = 32 MiB.
    assert peak < 8 * dim * 8


def column_oracle(b0):
    """One-coordinate draws over wide magnitudes, drawn up front."""
    rng = np.random.default_rng(b0)
    values = rng.standard_normal(b0) * rng.choice([1e-8, 1.0, 1e8], b0)

    def grad(x, handle):
        return values[handle.draw : handle.draw + 1].copy()

    return grad


def test_init_v0_on_one_coordinate_gives_the_bits_of_the_stacked_mean():
    """Every b0 up to 299 covers each branch of the pairwise order and the
    splits above 128; the larger ones nest several splits."""
    x0 = np.zeros(1)
    for b0 in (*range(1, 300), 1000, 4097, 5000, 100_000):
        grad = column_oracle(b0)
        draws = [grad(x0, SampleHandle(t=0, worker=j % 3, draw=j)) for j in range(b0)]
        assert init_v0(x0, b0, grad, n_workers=3).tobytes() == fixed_order_mean(draws).tobytes(), b0


@pytest.mark.parametrize("b0", [1, 7, 9, 200])
def test_init_v0_on_one_coordinate_keeps_the_sign_of_zero(b0):
    def grad(x, handle):
        return np.array([-0.0])

    draws = [np.array([-0.0])] * b0
    assert init_v0(np.zeros(1), b0, grad).tobytes() == fixed_order_mean(draws).tobytes()


def test_init_v0_memory_on_one_coordinate_does_not_grow_with_b0():
    b0 = 100_000
    grad = column_oracle(b0)
    tracemalloc.start()
    try:
        init_v0(np.zeros(1), b0, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The stacked draws alone would take b0 * 8 bytes = 800 kB.
    assert peak < 64 * 1024


def test_init_v0_validates_counts():
    grad = linear_oracle(np.eye(2))
    with pytest.raises(ConfigError):
        init_v0(np.zeros(2), b0=0, grad=grad)
    with pytest.raises(ConfigError):
        init_v0(np.zeros(2), b0=2, grad=grad, n_workers=0)
