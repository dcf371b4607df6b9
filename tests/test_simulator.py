"""Simulator tests.

The protocol steps are checked against hand-unrolled arithmetic written
directly in the tests: independent sequences of numpy expressions that
mirror what one step is supposed to do, kept deliberately free of the
package's own compression and compensation helpers.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from gradcomp import (
    AlphaSchedule,
    CompressorSpec,
    ConfigError,
    DivergenceError,
    ProblemSpec,
    RunConfig,
    SchemeSpec,
    make_problem,
    run,
    scheme_coefficients,
    simulator,
)

QUAD2 = ProblemSpec(kind="quadratic", spectrum=(1.0, 2.0))
LIN = ProblemSpec(
    kind="lin_reg", dim=8, n_samples=64, noise_std=0.1, condition=10.0, batch_size=1, seed=3
)


def one_bit_by_hand(x):
    """Sign codec written out longhand for the oracle unrolls."""
    scale = np.abs(x).sum() / x.size
    compressed = scale * np.where(x < 0.0, -1.0, 1.0)
    return compressed, x - compressed


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(problem=QUAD2, topology="ring")
    with pytest.raises(ConfigError):
        RunConfig(problem=QUAD2, topology="single_worker", n_workers=2)
    with pytest.raises(ConfigError):
        RunConfig(problem=QUAD2, steps=0)
    with pytest.raises(ConfigError):
        RunConfig(problem=QUAD2, gamma=-0.1)
    with pytest.raises(ConfigError):
        RunConfig(problem=QUAD2, b0=0)
    with pytest.raises(ConfigError):
        RunConfig(problem=QUAD2, seed=-1)


# Each field that takes a float, built with the value under test.
NON_FINITE_FIELDS = {
    "gamma": lambda v: RunConfig(problem=QUAD2, gamma=v),
    "heterogeneity": lambda v: RunConfig(problem=QUAD2, heterogeneity=v),
    "x0_scale": lambda v: RunConfig(problem=QUAD2, x0_scale=v),
    "spectrum": lambda v: ProblemSpec(kind="quadratic", spectrum=(1.0, v)),
    "noise_std": lambda v: dataclasses.replace(LIN, noise_std=v),
    "l2_reg": lambda v: ProblemSpec(kind="log_reg", dim=2, n_samples=4, l2_reg=v),
    "condition": lambda v: dataclasses.replace(LIN, condition=v),
    "alpha": lambda v: AlphaSchedule(kind="inverse_t", alpha=v),
    "c0": lambda v: AlphaSchedule(kind="inverse_linear", c0=v),
}


@pytest.mark.parametrize("field", list(NON_FINITE_FIELDS))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_config_values_are_rejected_by_name(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        NON_FINITE_FIELDS[field](value)


def test_compressor_seeds_inherit_the_run_seed():
    config = RunConfig(
        problem=QUAD2,
        compressor=CompressorSpec("rand_k", k=1),
        server_compressor=CompressorSpec("stoch_quant", levels=2, seed=11),
        n_workers=2,
        seed=7,
    )
    worker, server = config.resolved_compressors()
    assert worker.seed == 7
    assert server.seed == 11

    config = RunConfig(problem=QUAD2, compressor=CompressorSpec("rand_k", k=1, seed=5))
    worker, server = config.resolved_compressors()
    assert worker.seed == 5
    assert server.seed == 5


# ---------------------------------------------------------------------------
# hand-unrolled oracles


def test_three_steps_of_two_step_compensation_by_hand():
    """Single worker, quadratic, constant alpha: every float op re-derived."""
    alpha_c = 0.5
    gamma = 0.1
    beta = 1.0
    h = np.array([1.0, 2.0])
    config = RunConfig(
        problem=QUAD2,
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=alpha_c),
        scheme=SchemeSpec(kind="two_step", beta=beta),
        compressor=CompressorSpec("one_bit"),
        topology="single_worker",
        n_workers=1,
        steps=4,
        gamma=gamma,
        b0=1,
        record_history=True,
    )
    trace = run(config)

    x = np.ones(2)
    v = h * x  # warm start from one exact gradient
    xs = [x.copy()]
    vs = [v.copy()]
    x = x - gamma * v
    e = np.zeros(2)
    d1 = np.zeros(2)
    d2 = np.zeros(2)
    w1 = (alpha_c / alpha_c) * (2.0 - alpha_c)
    w2 = (alpha_c / alpha_c) * (1.0 - alpha_c)
    for _ in range(1, 4):
        e = (1.0 - beta) * e + beta * (w1 * d1 - w2 * d2)
        a_vec = h * x
        compressed, residual = one_bit_by_hand(a_vec + e)
        d2, d1 = d1, residual
        v = (1.0 - alpha_c) * v + alpha_c * compressed
        xs.append(x.copy())
        vs.append(v.copy())
        x = x - gamma * v

    assert np.array_equal(trace.history.x, np.stack(xs))
    assert np.array_equal(trace.history.v, np.stack(vs))
    assert np.array_equal(trace.final_x, x)


def test_single_compensation_at_unit_alpha_is_classic_error_feedback():
    """sgd with single compensation and beta=1 reduces to the memory
    recursion x' = x - gamma C[g + e], e' = g + e - C[g + e]."""
    gamma = 0.05
    h = np.array([1.0, 2.0])
    config = RunConfig(
        problem=QUAD2,
        estimator="sgd",
        schedule=AlphaSchedule(kind="constant", alpha=1.0),
        scheme=SchemeSpec(kind="single", beta=1.0),
        compressor=CompressorSpec("one_bit"),
        topology="single_worker",
        n_workers=1,
        steps=5,
        gamma=gamma,
        b0=1,
        record_history=True,
    )
    trace = run(config)

    x = np.ones(2)
    v = h * x
    x = x - gamma * v
    e = np.zeros(2)
    xs = [np.ones(2)]
    for _ in range(1, 5):
        g = h * x
        compressed, residual = one_bit_by_hand(g + e)
        e = residual
        xs.append(x.copy())
        x = x - gamma * compressed

    assert np.array_equal(trace.history.x, np.stack(xs))
    assert np.array_equal(trace.final_x, x)


@pytest.mark.parametrize("kind", ["none", "single", "two_step"])
def test_aggregated_update_identity(kind):
    """v_t recombines from the recorded aggregates: for every step,
    v_t = (1-a) v_{t-1} + a abar_t + eta2 ebar_t - eta1 dbar_t."""
    alpha_c = 0.3
    config = RunConfig(
        problem=LIN,
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=alpha_c),
        scheme=SchemeSpec(kind=kind, beta=0.3),
        compressor=CompressorSpec("one_bit"),
        topology="double_compression",
        n_workers=4,
        steps=120,
        gamma=0.01,
        b0=4,
        seed=2,
        record_history=True,
    )
    trace = run(config)
    hist = trace.history
    eta1, eta2, _, _ = scheme_coefficients(kind, alpha_c)
    worst = 0.0
    for t in range(1, trace.t_effective):
        predicted = (
            (1.0 - alpha_c) * hist.v[t - 1]
            + alpha_c * hist.a_bar[t]
            + eta2 * hist.e_bar[t]
            - eta1 * hist.delta_bar[t]
        )
        err = np.linalg.norm(predicted - hist.v[t]) / max(1e-30, np.linalg.norm(hist.v[t]))
        worst = max(worst, err)
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# trajectory structure


def test_history_rows_satisfy_the_descent_recursion():
    config = RunConfig(
        problem=LIN,
        estimator="storm",
        schedule=AlphaSchedule(kind="inverse_t"),
        scheme=SchemeSpec(kind="two_step", beta=0.3),
        compressor=CompressorSpec("top_k", k=2),
        n_workers=2,
        steps=50,
        gamma=0.02,
        b0=2,
        record_history=True,
    )
    trace = run(config)
    hist = trace.history
    assert np.array_equal(hist.x[0], trace.x0)
    assert np.array_equal(hist.v[0], trace.v0)
    assert np.array_equal(hist.a_bar[0], trace.v0)
    assert not hist.e_bar[0].any()
    assert not hist.delta_bar[0].any()
    for t in range(1, trace.t_effective):
        assert np.array_equal(hist.x[t], hist.x[t - 1] - config.gamma * hist.v[t - 1])
    assert np.array_equal(trace.final_x, hist.x[-1] - config.gamma * hist.v[-1])


def test_zero_step_size_freezes_the_iterate():
    config = RunConfig(problem=QUAD2, gamma=0.0, steps=20, record_history=True)
    trace = run(config)
    assert np.array_equal(trace.history.x, np.ones((20, 2)))
    assert np.unique(trace.grad_norm_sq).size == 1


def test_x0_scale_sets_the_start():
    config = RunConfig(problem=QUAD2, steps=2, x0_scale=-2.5)
    trace = run(config)
    assert np.array_equal(trace.x0, np.full(2, -2.5))


# ---------------------------------------------------------------------------
# divergence


def test_divergence_raises_with_the_partial_trace():
    config = RunConfig(
        problem=ProblemSpec(kind="quadratic", spectrum=(1.0,)),
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=1.0),
        topology="single_worker",
        gamma=3.0,
        steps=200,
        record_history=True,
    )
    with pytest.raises(DivergenceError) as excinfo:
        run(config)
    exc = excinfo.value
    assert exc.step >= 1
    assert exc.trace is not None
    trace = exc.trace
    assert trace.t_effective == exc.step + 1
    assert np.array_equal(trace.steps, np.arange(exc.step + 1))
    columns = (trace.steps, trace.loss, trace.grad_norm_sq, trace.v_norm, trace.worker_delta_norm,
               trace.server_delta_norm, trace.delta_bar_norm, trace.cum_bits)
    history = tuple(vars(trace.history).values())
    assert len(history) == 5
    for array in columns + history:
        assert len(array) == trace.t_effective
    assert trace.history.x.shape == (exc.step + 1, 1)
    # the iterate really did escape
    assert np.linalg.norm(exc.trace.final_x) > 1e12


# ---------------------------------------------------------------------------
# buffer ownership and memory


@pytest.mark.parametrize("topology", ["double_compression", "single_round"])
def test_kept_arrays_never_change_after_their_step(monkeypatch, topology):
    """Steps overwrite run-owned buffers; nothing a caller keeps may alias them."""
    kept = []
    original = simulator.run_step

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        arrays = [result.x_next, result.v, result.a_bar, result.e_bar, result.delta_bar]
        kept.append([(a, a.copy()) for a in arrays])
        return result

    monkeypatch.setattr(simulator, "run_step", capture)
    config = RunConfig(
        problem=LIN,
        estimator="storm",
        schedule=AlphaSchedule(kind="inverse_linear", c0=0.1),
        scheme=SchemeSpec(kind="two_step", beta=0.3),
        compressor=CompressorSpec("stoch_quant", levels=2),
        topology=topology,
        n_workers=3,
        steps=12,
        gamma=0.05,
        b0=2,
        record_history=True,
    )
    trace = run(config)
    assert len(kept) == 11
    for step in kept:
        for array, copy in step:
            assert np.array_equal(array, copy)
    assert np.array_equal(trace.v0, trace.history.v[0])
    assert np.array_equal(trace.history.x[2:], [step[0][1] for step in kept[:-1]])


def test_history_larger_than_physical_memory_is_rejected_up_front(monkeypatch):
    def no_dataset(spec):
        raise AssertionError("make_problem ran before the history check")

    monkeypatch.setattr(simulator, "make_problem", no_dataset)
    spec = ProblemSpec(kind="lin_reg", dim=10**6, n_samples=10**6)
    config = RunConfig(problem=spec, steps=10_000, record_history=True)
    with pytest.raises(ConfigError, match="record_ghost"):
        run(config)
    # without the history the same config goes on to build its problem
    with pytest.raises(AssertionError, match="make_problem"):
        run(RunConfig(problem=spec, steps=10_000))


# ---------------------------------------------------------------------------
# the one-entry problem cache


def test_an_equal_spec_reuses_the_problem_and_a_new_spec_evicts_it(monkeypatch):
    first = simulator.build_context(RunConfig(problem=LIN, n_workers=2))[0]
    again = simulator.build_context(
        RunConfig(problem=dataclasses.replace(LIN), n_workers=3, seed=8)
    )[0]
    assert again is first
    gone = weakref.ref(first)
    del first, again

    def build(spec):
        gc.collect()
        assert gone() is None, "the old problem was still held while the next was built"
        return make_problem(spec)

    monkeypatch.setattr(simulator, "make_problem", build)
    other = dataclasses.replace(LIN, seed=4)
    problem = simulator.build_context(RunConfig(problem=other))[0]
    assert problem.spec == other
    assert simulator.build_context(RunConfig(problem=other))[0] is problem


@pytest.mark.parametrize("spec", [QUAD2, LIN], ids=["quadratic", "lin_reg"])
def test_a_cached_problems_arrays_are_read_only(spec):
    problem = simulator.build_context(RunConfig(problem=spec))[0]
    names = ("h",) if spec.kind == "quadratic" else ("x_mat", "y", "w_true")
    for name in names:
        with pytest.raises(ValueError, match="read-only"):
            getattr(problem, name)[0] = 1.0
    if spec.kind != "quadratic":
        with pytest.raises(ValueError, match="read-only"):
            problem._pass(np.ones(spec.dim))[0] = 1.0


def test_traces_do_not_depend_on_what_the_cache_holds():
    config = RunConfig(
        problem=LIN,
        estimator="storm",
        schedule=AlphaSchedule(kind="inverse_linear", c0=0.1),
        scheme=SchemeSpec(kind="two_step", beta=0.3),
        compressor=CompressorSpec("top_k", k=3),
        n_workers=2,
        steps=40,
        gamma=0.05,
        b0=2,
        record_history=True,
    )

    def fields(trace):
        return [trace.final_x, trace.final_loss, trace.final_grad_norm_sq, trace.loss,
                trace.grad_norm_sq, trace.delta_bar_norm, *vars(trace.history).values()]

    simulator.build_context(RunConfig(problem=QUAD2))
    cold = run(config)
    warm = run(config)
    run(RunConfig(problem=dataclasses.replace(LIN, seed=4), steps=5))
    after_other = run(config)
    for trace in (warm, after_other):
        for a, b in zip(fields(cold), fields(trace), strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ---------------------------------------------------------------------------
# determinism and accounting


def test_runs_are_bitwise_deterministic():
    config = RunConfig(
        problem=LIN,
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=0.2),
        scheme=SchemeSpec(kind="two_step", beta=0.3),
        compressor=CompressorSpec("rand_k", k=3),
        n_workers=2,
        steps=60,
        gamma=0.01,
        b0=2,
        seed=5,
    )
    a = run(config)
    b = run(config)
    assert np.array_equal(a.final_x, b.final_x)
    assert np.array_equal(a.grad_norm_sq, b.grad_norm_sq)
    assert np.array_equal(a.cum_bits, b.cum_bits)


def test_the_seed_changes_the_sample_stream():
    base = dict(
        problem=LIN,
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=0.2),
        scheme=SchemeSpec(kind="two_step", beta=0.3),
        compressor=CompressorSpec("one_bit"),
        n_workers=2,
        steps=40,
        gamma=0.01,
        b0=2,
    )
    a = run(RunConfig(seed=0, **base))
    b = run(RunConfig(seed=1, **base))
    assert not np.array_equal(a.final_x, b.final_x)


def test_bit_accounting_per_topology():
    quad10 = ProblemSpec(kind="quadratic", spectrum=tuple(np.linspace(1.0, 2.0, 10)))
    base = dict(
        problem=quad10,
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=0.5),
        scheme=SchemeSpec(kind="two_step", beta=0.3),
        compressor=CompressorSpec("one_bit"),
        steps=3,
        gamma=0.01,
    )
    # one_bit: 10 sign bits and a 64-bit scale.  Step 0 sends v0 raw, four
    # worker contributions up and the estimate down: 5 * 10 * 64 = 3200.
    double = run(RunConfig(topology="double_compression", n_workers=4, **base))
    assert double.cum_bits.dtype == np.int64
    assert double.cum_bits.tolist() == [3200, 3200 + 5 * 74, 3200 + 2 * 5 * 74]

    # the server broadcasts the raw average: 4 * 74 + 10 * 64 = 936 a step
    single_round = run(RunConfig(topology="single_round", n_workers=4, **base))
    assert single_round.cum_bits.tolist() == [3200, 3200 + 936, 3200 + 2 * 936]

    solo = run(RunConfig(topology="single_worker", n_workers=1, **base))
    assert solo.cum_bits.tolist() == [0, 74, 2 * 74]


def test_server_compression_only_in_double_topology():
    """single_round broadcasts the raw average, so with an identity worker
    codec the server adds no residual and the trace shows none."""
    config = RunConfig(
        problem=LIN,
        compressor=CompressorSpec("identity"),
        server_compressor=CompressorSpec("one_bit"),
        scheme=SchemeSpec(kind="two_step", beta=0.3),
        schedule=AlphaSchedule(kind="constant", alpha=0.5),
        topology="single_round",
        n_workers=2,
        steps=10,
        gamma=0.01,
    )
    trace = run(config)
    assert not trace.server_delta_norm.any()
    assert not trace.worker_delta_norm.any()

    compressed = run(
        RunConfig(
            problem=LIN,
            compressor=CompressorSpec("identity"),
            server_compressor=CompressorSpec("one_bit"),
            scheme=SchemeSpec(kind="two_step", beta=0.3),
            schedule=AlphaSchedule(kind="constant", alpha=0.5),
            topology="double_compression",
            n_workers=2,
            steps=10,
            gamma=0.01,
        )
    )
    assert compressed.server_delta_norm[1:].any()
