"""Oracle tests: ghost replay, closed-form residuals, cross-form equivalence.

The closed form is checked two independent ways: against hand-expanded
geometric sums on a tiny synthetic residual history, and against the
brute-force ghost gap of real runs through verify_residual_identity.
"""

import tracemalloc

import numpy as np
import pytest

from gradcomp import (
    AlphaSchedule,
    CompressorSpec,
    ConfigError,
    ProblemSpec,
    RunConfig,
    SampleHandle,
    SchemeSpec,
    VerificationError,
    coefficient_form_run,
    diagnostic_At,
    ghost_run,
    make_problem,
    partition_data,
    residual_closed_form,
    residual_sum_comparison,
    run,
    scheme_coefficients,
    stoch_grad,
    u_hat_run,
    uncompressed_reference,
    variance_sigma2,
    verify_residual_identity,
)
from gradcomp import oracle, simulator

LIN = ProblemSpec(
    kind="lin_reg", dim=8, n_samples=64, noise_std=0.1, condition=10.0, batch_size=1, seed=3
)
WIDE = ProblemSpec(
    kind="lin_reg", dim=20, n_samples=512, noise_std=0.1, condition=10.0, batch_size=1, seed=3
)


def small_run(scheme_kind, alpha_c=0.5, beta=1.0, steps=120, compressor="one_bit", **overrides):
    fields = dict(
        problem=LIN,
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=alpha_c),
        scheme=SchemeSpec(kind=scheme_kind, beta=beta),
        compressor=CompressorSpec(compressor, k=3),
        n_workers=2,
        steps=steps,
        gamma=0.01,
        b0=4,
        seed=7,
        record_history=True,
    )
    fields.update(overrides)
    return run(RunConfig(**fields))


# ---------------------------------------------------------------------------
# ghost replay


def test_ghost_needs_a_recorded_history():
    trace = run(RunConfig(problem=LIN, steps=5, record_history=False))
    with pytest.raises(ConfigError):
        ghost_run(trace)


def test_ghost_matches_the_run_exactly_without_compression():
    trace = small_run("two_step", compressor="identity")
    ghost = ghost_run(trace)
    assert not ghost.residuals().any()
    assert np.array_equal(ghost.x_hat, trace.history.x)
    assert np.array_equal(ghost.final_x_hat, trace.final_x)


def test_ghost_diverges_from_a_compressed_run():
    trace = small_run("two_step")
    ghost = ghost_run(trace)
    gaps = np.linalg.norm(ghost.residuals(), axis=1)
    assert gaps[0] == 0.0
    assert gaps[1:].max() > 0.0


def test_residuals_include_the_final_iterate_row():
    trace = small_run("single", steps=30)
    ghost = ghost_run(trace)
    assert ghost.residuals().shape == (31, LIN.dim)


def row_by_row_ghost(trace):
    """The ghost recursion one history row at a time: the reference that the
    block-wise pulls a_t * b_t and x_hat sums must match bit for bit."""
    hist, schedule, gamma = trace.history, trace.config.schedule, trace.config.gamma
    u, x_hat = [trace.v0], [trace.x0]
    for t in range(1, len(hist.x)):
        a_t = schedule.at(t)
        x_hat.append(x_hat[-1] - gamma * u[-1])
        u.append((1.0 - a_t) * u[-1] + a_t * hist.a_bar[t])
    return np.array(u), np.array(x_hat), x_hat[-1] - gamma * u[-1]


# Blocks of oracle.BLOCK = 4096 elements: at d = 300 the 44 rows after row 0
# make three blocks of 13 rows and a partial one; d = 5000 takes one row per
# block.  A decaying schedule gives every row its own a_t.
@pytest.mark.parametrize("dim,steps", [(300, 45), (5000, 6)])
def test_ghost_run_has_the_bits_of_the_row_by_row_recursion(dim, steps):
    trace = quadratic_run(dim, steps, schedule=AlphaSchedule(kind="inverse_linear", c0=0.3),
                          scheme=SchemeSpec("two_step", beta=0.4))
    ghost = ghost_run(trace)
    u, x_hat, final_x_hat = row_by_row_ghost(trace)
    assert ghost.u.tobytes() == u.tobytes()
    assert ghost.x_hat.tobytes() == x_hat.tobytes()
    assert ghost.final_x_hat.tobytes() == final_x_hat.tobytes()


# ---------------------------------------------------------------------------
# closed form on a synthetic residual history


def hand_weight(alpha_c, exponent):
    return 1.0 - (1.0 - alpha_c) ** exponent


def hand_expanded(d, eta1, eta2, c1, c2, alpha_c, gamma, t, c2_sign=1):
    """The three weighted sums of the closed form at step t, term by term."""
    term1 = sum((hand_weight(alpha_c, t - s) * d[s] for s in range(t)), np.zeros(d.shape[1]))
    term2 = sum((hand_weight(alpha_c, t - s - 1) * d[s] for s in range(t - 1)), np.zeros(d.shape[1]))
    term3 = sum((hand_weight(alpha_c, t - s - 2) * d[s] for s in range(t - 2)), np.zeros(d.shape[1]))
    return (gamma / alpha_c) * (eta1 * term1 - eta2 * c1 * term2 + c2_sign * eta2 * c2 * term3)


def test_closed_form_matches_hand_expanded_sums():
    alpha_c, gamma = 0.5, 0.1
    d = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [-1.0, 1.0], [0.5, 0.5]]
    )
    # single compensation (eta1 = eta2 = c1 = 1, c2 = 0), then two-step
    # compensation with the plus sign on the c2 term, at every step t
    for coefficients in ((1.0, 1.0, 1.0, 0.0), scheme_coefficients(SchemeSpec("two_step"), alpha_c)):
        rows = list(residual_closed_form(d, *coefficients, alpha_c, gamma))
        assert len(rows) == d.shape[0] + 1
        for t, got in enumerate(rows):
            expected = hand_expanded(d, *coefficients, alpha_c, gamma, t)
            assert np.allclose(got, expected, atol=1e-15), t


@pytest.mark.parametrize("c2_sign", [1, -1])
@pytest.mark.parametrize("kind", ["none", "single", "two_step"])
def test_every_closed_form_row_matches_the_hand_expanded_sums(kind, c2_sign):
    alpha_c, gamma, steps = 0.3, 0.05, 40
    d = np.random.default_rng(5).standard_normal((steps, 6))
    d[0] = 0.0  # the uncompressed warm-start step leaves no residual
    coefficients = scheme_coefficients(SchemeSpec(kind), alpha_c)
    rows = list(residual_closed_form(d, *coefficients, alpha_c, gamma, c2_sign=c2_sign))
    assert len(rows) == steps + 1
    assert not rows[0].any() and not rows[1].any()
    for t, got in enumerate(rows[2:], start=2):
        expected = hand_expanded(d, *coefficients, alpha_c, gamma, t, c2_sign)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected), t


def row_by_row_closed_form(d, eta1, eta2, c1, c2, alpha, gamma, c2_sign):
    """The closed form's running sums one residual row at a time: the
    reference that the block-wise D, Q and predictions must match bit for bit."""
    w0, w1, w2 = eta1, eta2 * c1, c2_sign * eta2 * c2
    q = h = prev_1 = prev_2 = np.zeros(d.shape[1])
    rows = [q]
    for delta in d:
        step = w0 * delta - w1 * prev_1 + w2 * prev_2
        q = q + step
        h = (1.0 - alpha) * (h + step)
        prev_1, prev_2 = delta, prev_1
        rows.append((gamma / alpha) * (q - h))
    return rows


# Blocks of oracle.BLOCK = 4096 elements: 10 columns make blocks of 409 rows,
# so 1000 rows end in a partial block; 2048 columns make blocks of two rows;
# 4096 and 5000 columns make blocks of one row, so the second block still
# reads a residual two steps back as zero.
@pytest.mark.parametrize("steps,dim", [(1, 3), (1000, 10), (9, 2048), (5, 4096), (2, 5000), (4, 5000)])
@pytest.mark.parametrize("c2_sign", [1, -1])
@pytest.mark.parametrize("kind", ["none", "single", "two_step"])
def test_closed_form_rows_have_the_bits_of_the_row_by_row_recursion(kind, c2_sign, steps, dim):
    rng = np.random.default_rng(steps * dim)
    d = rng.standard_normal((steps, dim)) * rng.choice([1e-300, 1.0, 1e200], (steps, dim))
    d.flat[rng.choice(d.size, 5)] = [-0.0, np.nan, np.inf, -np.inf, 5e-324]
    coefficients = scheme_coefficients(SchemeSpec(kind), 0.3)
    with np.errstate(all="ignore"):
        got = np.array(list(residual_closed_form(d, *coefficients, 0.3, 0.05, c2_sign=c2_sign)))
        expected = np.array(row_by_row_closed_form(d, *coefficients, 0.3, 0.05, c2_sign))
    assert got.tobytes() == expected.tobytes()


def test_closed_form_validates_inputs():
    d = np.zeros((3, 2))
    with pytest.raises(ConfigError):
        residual_closed_form(d, 1.0, 1.0, 1.0, 0.0, alpha=0.0, gamma=0.1)
    with pytest.raises(ConfigError):
        residual_closed_form(d, 1.0, 1.0, 1.0, 0.0, alpha=0.5, gamma=0.1, c2_sign=0)


def test_closed_form_is_zero_before_any_residual():
    d = np.zeros((4, 3))
    d[2] = [1.0, 2.0, 3.0]
    rows = list(residual_closed_form(d, 1.0, 1.0, 1.0, 0.0, 0.5, 0.1))
    assert not np.any(rows[:3])
    assert rows[3].any()


# ---------------------------------------------------------------------------
# identity verification against real runs


def test_identity_requires_unit_beta_and_constant_schedule():
    with pytest.raises(ConfigError):
        verify_residual_identity(small_run("two_step", beta=0.5))
    trace = small_run("two_step", schedule=AlphaSchedule(kind="inverse_t"))
    with pytest.raises(ConfigError):
        verify_residual_identity(trace)


def test_two_step_identity_resolves_the_plus_sign():
    report = verify_residual_identity(small_run("two_step", alpha_c=0.5))
    assert report.passed()
    assert report.resolved_sign == 1
    assert report.max_rel_error < 1e-9
    assert report.max_rel_error_minus > report.tolerance


@pytest.mark.parametrize("kind", ["none", "single"])
def test_schemes_without_a_second_residual_leave_the_sign_open(kind):
    report = verify_residual_identity(small_run(kind, alpha_c=0.5))
    assert report.passed()
    assert report.resolved_sign is None


def test_two_step_sign_is_inert_at_alpha_one():
    report = verify_residual_identity(small_run("two_step", alpha_c=1.0))
    assert report.passed()
    assert report.resolved_sign is None


def test_a_flipped_c2_convention_resolves_the_minus_sign(monkeypatch):
    original = oracle.residual_closed_form

    def flipped(*args, c2_sign=1):
        return original(*args, c2_sign=-c2_sign)

    monkeypatch.setattr(oracle, "residual_closed_form", flipped)
    report = verify_residual_identity(small_run("two_step", alpha_c=0.5))
    assert report.resolved_sign == -1
    assert report.max_rel_error == report.max_rel_error_minus < 1e-9
    assert report.max_rel_error_plus > report.tolerance


def test_identity_failure_raises():
    trace = small_run("two_step", alpha_c=0.5)
    with pytest.raises(VerificationError):
        verify_residual_identity(trace, tolerance=1e-18)


@pytest.mark.parametrize("compressor", ["one_bit", "top_k"])
@pytest.mark.parametrize("scheme_kind", ["none", "single", "two_step"])
def test_residual_identity_holds_on_a_large_fleet(scheme_kind, compressor):
    """The closed form beyond toy sizes: n = 64 workers at d = 10^4.

    A quadratic stands in for lin_reg, whose generator would need a
    10^4 x 10^4 SVD at this width.
    """
    config = RunConfig(
        problem=ProblemSpec(kind="quadratic", spectrum=tuple(np.geomspace(1.0, 0.01, 10_000))),
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=0.5),
        scheme=SchemeSpec(kind=scheme_kind, beta=1.0),
        compressor=CompressorSpec(compressor, k=100),
        n_workers=64,
        steps=40,
        gamma=0.1,
        record_history=True,
    )
    report = verify_residual_identity(run(config))
    assert report.max_rel_error <= 1e-9
    assert report.resolved_sign == (1 if scheme_kind == "two_step" else None)


def quadratic_run(dim, steps, **overrides):
    fields = dict(
        problem=ProblemSpec(kind="quadratic", spectrum=tuple(np.geomspace(1.0, 0.01, dim))),
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=0.5),
        scheme=SchemeSpec(kind="two_step", beta=1.0),
        compressor=CompressorSpec("one_bit"),
        n_workers=2,
        steps=steps,
        gamma=0.1,
        record_history=True,
    )
    fields.update(overrides)
    return run(RunConfig(**fields))


def test_residual_identity_holds_over_ten_thousand_steps():
    report = verify_residual_identity(quadratic_run(dim=64, steps=10_000))
    assert report.resolved_sign == 1
    assert report.max_rel_error <= 1e-9


@pytest.mark.parametrize("dim, steps", [(1, 40), (7, 40), (20, 40), (256, 40), (5000, 20), (70_001, 6)])
def test_streamed_gap_norms_equal_the_row_norms_of_the_residuals(dim, steps):
    """ghost_gap_norms yields the bits np.linalg.norm(residuals, axis=1) gives.

    At d = 1 one_bit is exact, so every gap is zero there.
    """
    trace = quadratic_run(dim=dim, steps=steps, scheme=SchemeSpec(kind="single", beta=0.3))
    expected = np.linalg.norm(ghost_run(trace).residuals(), axis=1)
    streamed = np.fromiter(oracle.ghost_gap_norms(trace), dtype=np.float64)
    assert dim == 1 or expected[1:].max() > 0.0
    assert streamed.tobytes() == expected.tobytes()


def test_streamed_gap_norms_need_a_recorded_history():
    trace = run(RunConfig(problem=LIN, steps=5, record_history=False))
    with pytest.raises(ConfigError):
        next(oracle.ghost_gap_norms(trace))


def test_identity_check_never_holds_a_step_by_dimension_array():
    """The check keeps O(d) state: at T = d = 2000 one (T, d) array of
    float64 is 32 MB, and the whole check must stay far below that."""
    trace = quadratic_run(dim=2000, steps=2000, n_workers=1)
    one_array = trace.history.x.nbytes
    tracemalloc.start()
    try:
        report = verify_residual_identity(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.resolved_sign == 1
    assert peak < one_array / 20, (peak, one_array)


# ---------------------------------------------------------------------------
# scheme comparison


def test_residual_sums_order_across_schemes():
    traces = {
        kind: small_run(
            kind,
            problem=WIDE,
            alpha_c=0.05,
            steps=600,
            gamma=1e-3,
            compressor="one_bit",
            seed=9,
        )
        for kind in ("two_step", "single", "none")
    }
    comparison = residual_sum_comparison(traces)
    assert comparison.ordering_ok()
    assert comparison.ecx_per_step_bound_ok()
    assert comparison.sums["two_step"] < comparison.sums["single"] < comparison.sums["none"]
    assert comparison.gamma == 1e-3
    assert comparison.alpha == 0.05
    assert not any(comparison.diverged.values())


def test_comparison_reports_diverged_entries():
    traces = {"two_step": small_run("two_step"), "none": None}
    comparison = residual_sum_comparison(traces)
    assert comparison.diverged == {"two_step": False, "none": True}
    assert "none" not in comparison.sums
    # A diverged two_step run has no gaps, so its bound cannot hold.
    without = residual_sum_comparison({"single": small_run("single"), "two_step": None})
    assert not without.ecx_per_step_bound_ok()


def test_comparison_needs_something_to_compare():
    with pytest.raises(ConfigError):
        residual_sum_comparison({})
    with pytest.raises(ConfigError):
        residual_sum_comparison({"single": None})


# ---------------------------------------------------------------------------
# protocol-free reference and the coefficient-form stepper


@pytest.mark.parametrize("estimator", ["momentum", "storm", "igt"])
def test_reference_matches_the_simulator_without_compression(estimator):
    config = RunConfig(
        problem=LIN,
        estimator=estimator,
        schedule=AlphaSchedule(kind="constant", alpha=0.3),
        scheme=SchemeSpec(kind="none", beta=0.3),
        compressor=CompressorSpec("identity"),
        topology="single_worker",
        n_workers=1,
        steps=80,
        gamma=0.01,
        b0=3,
        seed=4,
        record_history=True,
    )
    trace = run(config)
    x_hist, v_hist, final_x = uncompressed_reference(config)
    assert np.array_equal(x_hist, trace.history.x)
    assert np.array_equal(v_hist, trace.history.v)
    assert np.array_equal(final_x, trace.final_x)


@pytest.mark.parametrize("kind", ["none", "single", "two_step"])
def test_coefficient_form_agrees_with_the_transmit_form(kind):
    config = RunConfig(
        problem=LIN,
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=0.3),
        scheme=SchemeSpec(kind=kind, beta=0.4),
        compressor=CompressorSpec("one_bit"),
        topology="single_worker",
        n_workers=1,
        steps=150,
        gamma=0.01,
        b0=3,
        seed=4,
        record_history=True,
    )
    trace = run(config)
    x_hist, v_hist, final_x = coefficient_form_run(config)
    scale = max(1.0, float(np.abs(trace.history.x).max()))
    assert np.abs(x_hist - trace.history.x).max() / scale < 1e-12
    assert np.abs(final_x - trace.final_x).max() / scale < 1e-12


def test_coefficient_form_is_single_worker_only():
    config = RunConfig(problem=LIN, n_workers=2, steps=5)
    with pytest.raises(ConfigError):
        coefficient_form_run(config)


# ---------------------------------------------------------------------------
# the shared run context


def test_build_context_keys_the_split_by_the_problem_seed_and_salts_by_the_run_seed():
    spec = ProblemSpec(kind="lin_reg", dim=4, n_samples=40, batch_size=3, seed=5)
    config = RunConfig(problem=spec, n_workers=3, heterogeneity=0.5, seed=11)
    problem, shards, grad = simulator.build_context(config)
    expected = partition_data(problem, 3, spec.seed, 0.5)
    assert len(shards) == 3
    for shard, want in zip(shards, expected):
        assert shard.worker == want.worker and np.array_equal(shard.indices, want.indices)
    # The two seeds really select different splits and streams here.
    swapped = partition_data(problem, 3, config.seed, 0.5)
    assert not all(np.array_equal(a.indices, b.indices) for a, b in zip(shards, swapped))
    x = np.linspace(-1.0, 1.0, 4)
    for t in (0, 1, 7):
        for i in range(3):
            want = stoch_grad(problem, shards[i], x, SampleHandle(t, i, salt=config.seed))
            assert np.array_equal(grad(x, SampleHandle(t, i)), want)
            other = stoch_grad(problem, shards[i], x, SampleHandle(t, i, salt=spec.seed))
            assert not np.array_equal(want, other)


def test_every_oracle_builds_its_set_up_through_build_context(monkeypatch):
    calls = []

    def counting(config):
        calls.append(config)
        return simulator.build_context(config)

    monkeypatch.setattr(oracle, "build_context", counting)
    config = RunConfig(problem=LIN, estimator="storm", steps=6, seed=7, record_history=True)
    trace = run(config)
    for replay, argument in (
        (u_hat_run, trace),
        (uncompressed_reference, config),
        (coefficient_form_run, config),
    ):
        before = len(calls)
        replay(argument)
        assert calls[before:] == [config], replay.__name__


# ---------------------------------------------------------------------------
# ghost-driven diagnostics


def test_u_hat_equals_v_without_compression():
    for estimator in ("momentum", "storm"):
        trace = small_run("two_step", compressor="identity", estimator=estimator)
        u_hat = u_hat_run(trace)
        assert np.array_equal(u_hat, trace.history.v), estimator


def test_diagnostic_warns_on_oversized_steps():
    trace = small_run("two_step", compressor="identity", steps=20)
    ghost = ghost_run(trace)
    u_hat = u_hat_run(trace)
    problem = make_problem(LIN)
    smooth_l = problem.smoothness()
    with pytest.warns(UserWarning):
        diagnostic_At(ghost, u_hat, problem, smooth_l, gamma=2.0 / smooth_l)
    with pytest.raises(ConfigError):
        diagnostic_At(ghost, u_hat[:-1], problem, smooth_l, gamma=0.01)


def test_descent_diagnostic_trend_under_a_safe_step_size():
    """Uncompressed momentum at gamma = alpha/(12 L): the running mean of
    the per-step diagnostic stays far below the variance-driven ceiling
    (17/3) gamma L sigma2, even with a 3x allowance."""
    alpha_c = 0.9
    problem = make_problem(LIN)
    smooth_l = problem.smoothness()
    gamma = alpha_c / (12.0 * smooth_l)
    config = RunConfig(
        problem=LIN,
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=alpha_c),
        scheme=SchemeSpec(kind="none", beta=0.3),
        compressor=CompressorSpec("identity"),
        topology="single_worker",
        n_workers=1,
        steps=400,
        gamma=gamma,
        b0=4,
        seed=1,
        record_history=True,
    )
    trace = run(config)
    ghost = ghost_run(trace)
    u_hat = u_hat_run(trace)
    at = diagnostic_At(ghost, u_hat, problem, smooth_l, gamma)

    shard = partition_data(problem, 1, LIN.seed)[0]
    sigma2 = variance_sigma2(problem, shard, np.ones(LIN.dim), trials=512)
    ceiling = 3.0 * (17.0 / 3.0) * gamma * smooth_l * sigma2
    running_mean = np.cumsum(at) / np.arange(1, at.size + 1)
    assert running_mean.max() < ceiling
