"""Compensation scheme tests: coefficient table, filter recursions, state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcomp import (
    CompensationState,
    ConfigError,
    SchemeSpec,
    compensate,
    filter_update,
    scheme_coefficients,
    shift_deltas,
    transmits_weighted_increment,
)
from gradcomp.compensation import FILTER_TILE


def state_with(e, d1, d2):
    state = CompensationState.zeros(len(e))
    state.e = np.asarray(e, dtype=np.float64)
    state.delta_1 = np.asarray(d1, dtype=np.float64)
    state.delta_2 = np.asarray(d2, dtype=np.float64)
    return state


# ---------------------------------------------------------------------------
# scheme spec and the coefficient table


def test_scheme_spec_validation():
    with pytest.raises(ConfigError):
        SchemeSpec(kind="triple")
    with pytest.raises(ConfigError):
        SchemeSpec(kind="single", beta=0.0)
    with pytest.raises(ConfigError):
        SchemeSpec(kind="single", beta=1.2)
    SchemeSpec(kind="single", beta=1.0)


def test_coefficient_table_at_alpha_quarter():
    assert scheme_coefficients(SchemeSpec("none"), 0.25) == (1.0, 0.0, 0.0, 0.0)
    assert scheme_coefficients(SchemeSpec("single"), 0.25) == (1.0, 1.0, 1.0, 0.0)
    assert scheme_coefficients(SchemeSpec("two_step"), 0.25) == (0.25, 0.25, 1.75, 0.75)


def test_two_step_coefficients_collapse_to_single_at_alpha_one():
    assert scheme_coefficients(SchemeSpec("two_step"), 1.0) == scheme_coefficients(SchemeSpec("single"), 1.0)


@pytest.mark.parametrize("alpha_t", [0.0, 1.5])
def test_coefficient_table_rejects_alpha_outside_the_unit_interval(alpha_t):
    with pytest.raises(ConfigError, match=r"alpha_t must be in \(0, 1\]"):
        scheme_coefficients(SchemeSpec("two_step"), alpha_t)


def test_weighted_transmission_flag():
    assert transmits_weighted_increment(SchemeSpec("none"))
    assert transmits_weighted_increment(SchemeSpec("single"))
    assert not transmits_weighted_increment(SchemeSpec("two_step"))


# ---------------------------------------------------------------------------
# filter recursions


def test_none_scheme_clears_the_error_state():
    state = state_with([2.0, -1.0], [1.0, 1.0], [3.0, 3.0])
    e = filter_update(state, SchemeSpec("none", beta=0.3), alpha_t=0.5, alpha_t1=0.5, alpha_t2=0.5)
    assert not e.any()
    assert not state.e.any()


def test_single_scheme_smooths_the_last_residual():
    state = state_with([1.0, 0.0], [4.0, -2.0], [9.0, 9.0])
    e = filter_update(state, SchemeSpec("single", beta=0.25), alpha_t=0.5, alpha_t1=0.5, alpha_t2=0.5)
    expected = 0.75 * np.array([1.0, 0.0]) + 0.25 * np.array([4.0, -2.0])
    assert np.array_equal(e, expected)


def test_two_step_scheme_weights_two_residuals():
    e0 = np.array([1.0, -1.0])
    d1 = np.array([2.0, 0.5])
    d2 = np.array([-1.0, 3.0])
    state = state_with(e0.copy(), d1, d2)
    a_t, a_t1, a_t2 = 0.25, 0.5, 1.0
    e = filter_update(state, SchemeSpec("two_step", beta=0.4), alpha_t=a_t, alpha_t1=a_t1, alpha_t2=a_t2)
    w1 = (a_t1 / a_t) * (2.0 - a_t)
    w2 = (a_t2 / a_t) * (1.0 - a_t)
    assert np.array_equal(e, 0.6 * e0 + 0.4 * (w1 * d1 - w2 * d2))


@settings(max_examples=100, deadline=None)
@given(
    beta=st.floats(min_value=0.05, max_value=1.0),
    e=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=3),
    d1=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=3),
    d2=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=3),
)
def test_two_step_filter_equals_single_filter_at_alpha_one(beta, e, d1, d2):
    """With a flat unit schedule the t-2 weight vanishes and the t-1 weight
    is one, so both compensation schemes advance the filter identically."""
    one = filter_update(state_with(e, d1, d2), SchemeSpec("single", beta), 1.0, 1.0, 1.0)
    two = filter_update(state_with(e, d1, d2), SchemeSpec("two_step", beta), 1.0, 1.0, 1.0)
    assert np.array_equal(one, two)


def test_filter_leaves_residual_buffers_alone():
    state = state_with([0.0, 0.0], [1.0, 2.0], [3.0, 4.0])
    filter_update(state, SchemeSpec("two_step", beta=0.5), alpha_t=0.5, alpha_t1=0.5, alpha_t2=0.5)
    assert np.array_equal(state.delta_1, [1.0, 2.0])
    assert np.array_equal(state.delta_2, [3.0, 4.0])


def allocating_filter(e, d1, d2, beta, alpha_t, alpha_t1, alpha_t2, kind):
    """The filter as one allocating expression per scheme, for comparison."""
    if kind == "none":
        return np.zeros_like(e)
    if kind == "single":
        return (1.0 - beta) * e + beta * d1
    w1 = (alpha_t1 / alpha_t) * (2.0 - alpha_t)
    w2 = (alpha_t2 / alpha_t) * (1.0 - alpha_t)
    return (1.0 - beta) * e + beta * (w1 * d1 - w2 * d2)


def random_buffer(rng, shape):
    values = rng.standard_normal(shape) * rng.choice([1e-310, 1.0, 1e200], shape)
    values.flat[rng.choice(values.size, min(values.size, 5), replace=False)] = -0.0
    return values


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    d=st.sampled_from([1, 7, FILTER_TILE // 3, FILTER_TILE - 1, FILTER_TILE + 1, 2 * FILTER_TILE + 3]),
    kind=st.sampled_from(["none", "single", "two_step"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_filter_update_matches_the_allocating_formula_bit_for_bit(n, d, kind, seed):
    rng = np.random.default_rng(seed)
    state = CompensationState.zeros((n, d))
    for step in range(3):
        beta = rng.uniform(0.01, 1.0)
        alphas = rng.uniform(1e-3, 1.0, 3)
        e0 = state.e.copy()
        state.delta_2, state.delta_1 = state.delta_1, random_buffer(rng, (n, d))
        expected = allocating_filter(e0, state.delta_1, state.delta_2, beta, *alphas, kind)
        e = filter_update(state, SchemeSpec(kind, beta), *alphas)
        assert e is state.e
        assert e.tobytes() == expected.tobytes(), (kind, step)


@pytest.mark.parametrize("kind", ["none", "single", "two_step"])
def test_filter_update_writes_e_in_place(kind):
    e = np.array([[1.0, -2.0], [0.5, 4.0]])
    d1 = np.array([[1.0, 1.0], [2.0, 2.0]])
    d2 = np.array([[3.0, 3.0], [4.0, 4.0]])
    state = state_with(e, d1.copy(), d2.copy())
    expected = allocating_filter(e.copy(), d1, d2, 0.5, 0.5, 0.5, 0.5, kind)
    result = filter_update(state, SchemeSpec(kind, 0.5), 0.5, 0.5, 0.5)
    assert result is state.e
    assert state.e is e
    assert e.tobytes() == expected.tobytes()
    assert np.array_equal(state.delta_1, d1)
    assert np.array_equal(state.delta_2, d2)


# A fleet state of FILTER_TILE elements is filtered in one pass, one of
# FILTER_TILE + 1 in tiles that cross its rows.
@pytest.mark.parametrize("n,d", [(1, 7), (4, 5), (2, FILTER_TILE // 2), (3, 10_923), (2, FILTER_TILE + 3)])
@pytest.mark.parametrize("kind", ["none", "single", "two_step"])
def test_a_fleet_filter_has_the_bytes_of_one_call_per_row(kind, n, d):
    rng = np.random.default_rng(n * d)
    fleet = state_with(*(random_buffer(rng, (n, d)) for _ in range(3)))
    rows = [state_with(*(a[i].copy() for a in (fleet.e, fleet.delta_1, fleet.delta_2))) for i in range(n)]
    scheme, alphas = SchemeSpec(kind, 0.7), (0.3, 0.45, 0.6)
    filter_update(fleet, scheme, *alphas)
    alone = np.stack([filter_update(state, scheme, *alphas) for state in rows])
    assert fleet.e.tobytes() == alone.tobytes()


def test_compensate_writes_into_out():
    message = np.array([1.0, 2.0])
    out = compensate(message, np.array([0.5, -0.5]), out=message)
    assert out is message
    assert np.array_equal(message, [1.5, 1.5])


# ---------------------------------------------------------------------------
# message compensation and residual aging


def test_compensate_adds_the_error_term():
    out = compensate(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    assert np.array_equal(out, [1.5, 1.5])


def test_shift_deltas_ages_the_buffers():
    state = state_with([0.0], [1.0], [2.0])
    shift_deltas(state, np.array([7.0]))
    assert np.array_equal(state.delta_1, [7.0])
    assert np.array_equal(state.delta_2, [1.0])


def test_zeros_state_shape():
    state = CompensationState.zeros(4)
    for buf in (state.e, state.delta_1, state.delta_2):
        assert buf.shape == (4,)
        assert not buf.any()
