"""Simulator tests.

The protocol steps are checked against hand-unrolled arithmetic written
directly in the tests: independent sequences of numpy expressions that
mirror what one step is supposed to do, kept deliberately free of the
package's own compression and compensation helpers.
"""

import dataclasses
import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from gradcomp import (
    AlphaSchedule,
    CompressorSpec,
    ConfigError,
    DivergenceError,
    Estimator,
    ProblemSpec,
    RunConfig,
    SchemeSpec,
    harness,
    make_problem,
    run,
    scheme_coefficients,
    simulator,
)
from gradcomp.compression import CompressionResult
from gradcomp.problems import LinearRegression, LogisticRegression

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
    with pytest.raises(ConfigError, match=f"^{field}: must be finite"):
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
    eta1, eta2, _, _ = scheme_coefficients(config.scheme, alpha_c)
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


def poisoned_run(monkeypatch, config, at, name, value):
    """Run config with one entry of step `at`'s v or x_next set to value."""
    run_step = simulator.run_step

    def poisoning(t, *args):
        step = run_step(t, *args)
        if t == at:
            array = getattr(step, name).copy()
            array[-1] = value
            step = dataclasses.replace(step, **{name: array})
        return step

    monkeypatch.setattr(simulator, "run_step", poisoning)
    return run(config)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("name", ["v", "x_next"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_entry_diverges_at_its_step(monkeypatch, name, value):
    """One non-finite entry of v or x diverges at the step that made it,
    as the entry-wise test did before the norms stood in for it."""
    config = RunConfig(problem=LIN, compressor=CompressorSpec("one_bit"), n_workers=2, steps=20)
    with pytest.raises(DivergenceError) as excinfo:
        poisoned_run(monkeypatch, config, 7, name, value)
    assert excinfo.value.step == 7
    assert excinfo.value.trace.t_effective == 8


@pytest.mark.filterwarnings("ignore:overflow encountered in dot")
def test_a_finite_v_whose_norm_overflows_does_not_diverge():
    """v = 1e200 has a finite entry but an infinite norm; with gamma = 0 the
    iterate stays at x0, and the run ends without diverging."""
    config = RunConfig(problem=ProblemSpec(kind="quadratic", spectrum=(1e200,)), gamma=0.0, steps=10)
    trace = run(config)
    assert trace.t_effective == 10
    assert np.all(trace.v_norm == np.inf)
    assert np.array_equal(trace.final_x, np.ones(1))


# ---------------------------------------------------------------------------
# runs without the per-step objective

OBJECTIVE_PROBLEMS = {
    "quadratic": ProblemSpec(kind="quadratic", spectrum=(1.0, 0.5, 0.1)),
    "lin_reg": LIN,
    "log_reg": ProblemSpec(kind="log_reg", dim=6, n_samples=48, l2_reg=0.01, batch_size=2, seed=3),
}


def trace_arrays(trace):
    """Every array and scalar of a trace except the two objective columns."""
    return [trace.steps, trace.v_norm, trace.worker_delta_norm, trace.server_delta_norm,
            trace.delta_bar_norm, trace.cum_bits, trace.x0, trace.v0, trace.final_x,
            trace.final_loss, trace.final_grad_norm_sq, trace.t_effective]


def assert_same_but_the_objective(on, off):
    assert off.loss is None and off.grad_norm_sq is None
    assert len(on.loss) == len(on.grad_norm_sq) == on.t_effective
    for a, b in zip(trace_arrays(on), trace_arrays(off), strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def objective_config(problem, estimator, scheme, **changes):
    return RunConfig(
        problem=OBJECTIVE_PROBLEMS[problem],
        estimator=estimator,
        schedule=AlphaSchedule(kind="inverse_t"),
        scheme=SchemeSpec(kind=scheme, beta=0.3),
        compressor=CompressorSpec("one_bit"),
        n_workers=3,
        steps=30,
        gamma=0.05,
        b0=2,
        seed=4,
        **changes,
    )


def diverging_config(scheme, **changes):
    return RunConfig(
        problem=ProblemSpec(kind="quadratic", spectrum=(1.0,)),
        scheme=SchemeSpec(kind=scheme, beta=0.3),
        compressor=CompressorSpec("one_bit"),
        topology="single_worker",
        gamma=3.0,
        steps=200,
        **changes,
    )


def count_objective_calls(monkeypatch) -> list:
    """Names of the simulator's full_grad and loss calls, in call order."""
    calls = []
    for name in ("full_grad", "loss"):
        original = getattr(simulator, name)
        monkeypatch.setattr(simulator, name, lambda p, x, f=original, n=name: calls.append(n) or f(p, x))
    return calls


@pytest.mark.parametrize("problem", list(OBJECTIVE_PROBLEMS))
@pytest.mark.parametrize("estimator", ["momentum", "storm", "igt"])
@pytest.mark.parametrize("scheme", ["none", "single", "two_step"])
def test_a_run_without_the_objective_matches_the_default_run(problem, estimator, scheme):
    config = objective_config(problem, estimator, scheme)
    assert_same_but_the_objective(run(config), run(dataclasses.replace(config, record_objective=False)))


@pytest.mark.parametrize("scheme", ["none", "single", "two_step"])
def test_a_run_without_the_objective_diverges_at_the_same_step(scheme):
    config = diverging_config(scheme)
    errors = []
    for record_objective in (True, False):
        with pytest.raises(DivergenceError) as excinfo:
            run(dataclasses.replace(config, record_objective=record_objective))
        errors.append(excinfo.value)
    assert errors[0].step == errors[1].step
    assert_same_but_the_objective(errors[0].trace, errors[1].trace)


def test_the_memory_check_counts_only_the_columns_a_run_allocates():
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    steps = physical // (5 * 8)  # six float64 columns exceed memory, four fit
    with pytest.raises(ConfigError, match="^steps: the metric columns"):
        RunConfig(problem=QUAD2, steps=steps)
    assert RunConfig(problem=QUAD2, steps=steps, record_objective=False).steps == steps


def test_a_run_without_the_objective_makes_no_full_data_pass(monkeypatch):
    """build computes the final loss and gradient once; no step calls them."""
    calls = count_objective_calls(monkeypatch)
    run(RunConfig(problem=LIN, n_workers=2, steps=25, record_objective=False))
    assert calls == ["full_grad", "loss"]


# ---------------------------------------------------------------------------
# history runs derive the objective on first read


def assert_same_objective(eager, derived):
    assert len(derived.loss) == len(derived.grad_norm_sq) == derived.t_effective
    for name in ("loss", "grad_norm_sq"):
        assert getattr(derived, name).tobytes() == getattr(eager, name).tobytes(), name
    for a, b in zip(trace_arrays(eager), trace_arrays(derived), strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("problem", list(OBJECTIVE_PROBLEMS))
@pytest.mark.parametrize("scheme", ["none", "single", "two_step"])
def test_a_history_run_derives_the_objective_columns_of_the_run_without(problem, scheme):
    config = objective_config(problem, "storm", scheme)
    assert_same_objective(run(config), run(dataclasses.replace(config, record_history=True)))


def test_a_history_run_makes_the_full_data_pass_on_first_read_only(monkeypatch):
    """run makes only build's final pair; the first read of either column
    makes one pair per row, full_grad first; later reads make none."""
    calls = count_objective_calls(monkeypatch)
    trace = run(RunConfig(problem=LIN, n_workers=2, steps=25, record_history=True))
    assert calls == ["full_grad", "loss"]
    calls.clear()
    grad_norm_sq = trace.grad_norm_sq
    assert calls == ["full_grad", "loss"] * 25
    calls.clear()
    assert trace.grad_norm_sq is grad_norm_sq
    assert len(trace.loss) == 25
    assert calls == []


@pytest.mark.parametrize("scheme", ["none", "single", "two_step"])
def test_a_diverging_history_run_derives_the_partial_columns(scheme):
    errors = []
    for record_history in (False, True):
        with pytest.raises(DivergenceError) as excinfo:
            run(diverging_config(scheme, record_history=record_history))
        errors.append(excinfo.value)
    assert errors[0].step == errors[1].step
    assert_same_objective(errors[0].trace, errors[1].trace)


def test_a_history_runs_columns_do_not_depend_on_what_the_cache_holds():
    """The columns read after another spec evicted the run's problem have
    the bytes of the eager run, and the trace does not keep the problem."""
    config = objective_config("lin_reg", "igt", "two_step")
    eager = run(config)
    trace = run(dataclasses.replace(config, record_history=True))
    gone = weakref.ref(simulator.cached_problem(LIN))
    simulator.cached_problem(QUAD2)
    gc.collect()
    assert gone() is None, "the trace kept its problem alive"
    assert_same_objective(eager, trace)


@pytest.mark.parametrize("diverges", [False, True], ids=["finished", "diverged"])
def test_a_traces_history_is_read_only(diverges):
    """Writing into history.x before the first read would change the derived
    columns, so every history array of a returned trace refuses writes."""
    if diverges:
        with pytest.raises(DivergenceError) as excinfo:
            run(diverging_config("two_step", record_history=True))
        trace = excinfo.value.trace
    else:
        trace = run(objective_config("lin_reg", "momentum", "single", record_history=True))
    history = vars(trace.history)
    assert len(history) == 5
    for name, array in history.items():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@pytest.mark.parametrize("scheme", ["none", "two_step"])
def test_storm_and_igt_coincide_on_lin_reg_only(scheme):
    """A lin_reg minibatch gradient is affine in x, so STORM's
    (g(x_t) - (1 - a) g(x_prev)) / a and IGT's g(x_t + (1 - a)/a (x_t - x_prev))
    are one vector up to rounding; a log_reg gradient is not affine.  On the
    figure-1 configuration the two therefore end at the same iterate on
    lin_reg, and the figure's two estimator blocks run one recursion twice."""
    base = RunConfig(
        problem=harness.FIGURE1_PROBLEM,
        schedule=AlphaSchedule("inverse_t"),
        scheme=SchemeSpec(scheme, beta=harness.DEFAULT_BETA),
        compressor=CompressorSpec("one_bit"),
        n_workers=8,
        steps=500,
        gamma=0.1,
        b0=8,
        seed=9,
    )
    log_reg = ProblemSpec(kind="log_reg", dim=20, n_samples=512, l2_reg=0.01, seed=3)

    def relative_gap(config):
        storm = run(dataclasses.replace(config, estimator="storm")).final_x
        igt = run(dataclasses.replace(config, estimator="igt")).final_x
        return np.linalg.norm(storm - igt) / np.linalg.norm(storm)

    assert relative_gap(base) <= 1e-9
    assert relative_gap(dataclasses.replace(base, problem=log_reg)) >= 1e-3


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
    with pytest.raises(ConfigError, match="record_ghost"):
        RunConfig(problem=spec, steps=10_000, record_history=True)
    # without the history the same config is still rejected, for its design matrix
    with pytest.raises(ConfigError, match="^problem.n_samples: "):
        RunConfig(problem=spec, steps=10_000)


def test_a_dataset_larger_than_physical_memory_is_rejected_before_allocating(monkeypatch):
    def no_problem(spec):
        raise AssertionError("make_problem ran before the dataset check")

    monkeypatch.setattr(simulator, "make_problem", no_problem)
    dim = 10**5
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    # the design and the SVD's copies: 320 GB at 10^5 samples, and always past physical memory
    n_samples = max(10**5, physical // (simulator.DESIGN_COPIES * 8 * dim) + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="^problem.n_samples: .*design matrix"):
            RunConfig(problem=ProblemSpec(kind="lin_reg", dim=dim, n_samples=n_samples), steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"compressor": CompressorSpec("top_k", k=9)}, "compressor.k"),
        ({"server_compressor": CompressorSpec("rand_k", k=9)}, "server_compressor.k"),
        ({"n_workers": 65}, "n_workers"),
        ({"n_workers": 0}, "n_workers"),
        ({"schedule": AlphaSchedule("inverse_linear", c0=1e308), "steps": 3}, "schedule.c0"),
        ({"heterogeneity": 2.0}, "heterogeneity"),
        ({"heterogeneity": -0.5}, "heterogeneity"),
        ({"estimator": "foo"}, "estimator"),
        ({"estimator": "sgd", "schedule": AlphaSchedule("constant", alpha=0.1)}, "estimator"),
    ],
)
def test_values_no_step_can_use_are_rejected_by_field(changes, field):
    """k past the dimension, more workers than samples, an alpha_t that
    underflows to 0.0 before the last step, a heterogeneity outside [0, 1]
    or an estimator the run cannot build would fail only mid-run."""
    with pytest.raises(ConfigError) as excinfo:
        RunConfig(problem=LIN, **changes)
    assert excinfo.value.field == field
    assert str(excinfo.value).startswith(f"{field}: ")


@pytest.mark.parametrize(
    "schedule",
    [
        AlphaSchedule(),
        AlphaSchedule("constant", alpha=0.5),
        AlphaSchedule("constant", alpha=1.0, c0=0.2, horizon=3),
        AlphaSchedule("inverse_t"),
        AlphaSchedule("power_two_thirds", horizon=1),
    ],
)
def test_a_config_admits_sgd_exactly_when_its_estimator_does(schedule):
    """power_two_thirds with horizon 1 has alpha_t = 1 but is not constant,
    and c0 or horizon on a constant schedule play no part."""
    try:
        Estimator(kind="sgd", schedule=schedule)
    except ConfigError:
        with pytest.raises(ConfigError, match="^estimator: sgd"):
            RunConfig(problem=LIN, estimator="sgd", schedule=schedule)
    else:
        RunConfig(problem=LIN, estimator="sgd", schedule=schedule)


def test_a_minibatch_larger_than_physical_memory_is_rejected_before_allocating(monkeypatch):
    def no_problem(spec):
        raise AssertionError("make_problem ran before the minibatch check")

    monkeypatch.setattr(simulator, "make_problem", no_problem)
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    # n x batch int64 indices plus batch x d gathered floats: 56 TB at 10^12, and always past physical memory
    batch = max(10**12, physical // 8 + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="^problem.batch_size: .*minibatches"):
            RunConfig(problem=dataclasses.replace(LIN, batch_size=batch), n_workers=3, steps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_quadratic_gathers_no_minibatch():
    """A quadratic ignores its batch size, so no batch size makes its run too large."""
    spec = ProblemSpec(kind="quadratic", spectrum=(1.0, 2.0), batch_size=10**15)
    trace = run(RunConfig(problem=spec, n_workers=2, steps=3))
    assert trace.t_effective == 3


def test_a_fleet_larger_than_physical_memory_is_rejected_before_allocating(monkeypatch):
    def no_problem(spec):
        raise AssertionError("make_problem ran before the fleet check")

    monkeypatch.setattr(simulator, "make_problem", no_problem)
    dim = 10**4
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    # four (n + 1, d) float64 arrays: 32 GB at n = 10^5, and always past physical memory
    n = max(10**5, physical // (4 * 8 * dim) + 1)
    spectrum = (1.0,) * dim
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="^n_workers: "):
            RunConfig(problem=ProblemSpec(kind="quadratic", spectrum=spectrum), n_workers=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


# ---------------------------------------------------------------------------
# stacked gradients


def run_stacked_and_row_by_row(monkeypatch, config):
    """(trace, the same run with each stacked grad_at answered row by row, stack sizes seen)."""
    sizes, by_rows = [], []
    for cls in (LinearRegression, LogisticRegression):

        def grad_at(self, x, indices, original=cls.grad_at):
            if np.ndim(indices) == 1:
                return original(self, x, indices)
            if by_rows:
                return np.stack([original(self, x, row) for row in indices])
            sizes.append(len(indices))
            return original(self, x, indices)

        monkeypatch.setattr(cls, "grad_at", grad_at)
    stacked = run(config)
    by_rows.append(True)
    return stacked, run(config), sizes


def trace_bytes(trace):
    arrays = [getattr(trace, name) for name in simulator.METRIC_COLUMNS]
    arrays += [trace.steps, trace.cum_bits, trace.x0, trace.v0, trace.final_x,
               trace.final_loss, trace.final_grad_norm_sq, *vars(trace.history).values()]
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("compressor", [CompressorSpec("one_bit"), CompressorSpec("top_k", k=3),
                                        CompressorSpec("rand_k", k=3)], ids=lambda c: c.kind)
@pytest.mark.parametrize("topology", ["double_compression", "single_round", "single_worker"])
@pytest.mark.parametrize("kind", ["lin_reg", "log_reg"])
@pytest.mark.parametrize("estimator", ["sgd", "momentum", "storm", "root_sgd", "igt"])
def test_stacked_gradients_match_the_row_by_row_run(
    monkeypatch, estimator, kind, topology, compressor
):
    spec = ProblemSpec(kind=kind, dim=8, n_samples=64, noise_std=0.1, l2_reg=0.05,
                       batch_size=3, seed=3)
    schedule = AlphaSchedule()
    if estimator != "sgd":
        schedule = AlphaSchedule(kind="inverse_linear", c0=0.1)
    n = 1 if topology == "single_worker" else 3
    config = RunConfig(problem=spec, estimator=estimator, schedule=schedule,
                       scheme=SchemeSpec(kind="two_step", beta=0.3), compressor=compressor,
                       topology=topology, n_workers=n, steps=10, gamma=0.05, b0=2, seed=7,
                       record_history=True)
    stacked, by_rows, sizes = run_stacked_and_row_by_row(monkeypatch, config)
    evaluations = 2 if estimator in ("storm", "root_sgd") else 1
    assert sizes == [n] * (evaluations * (config.steps - 1))
    assert trace_bytes(stacked) == trace_bytes(by_rows)


def test_a_fleet_wider_than_one_gather_is_stacked_in_groups(monkeypatch):
    dim, batch = 64, 64
    group = simulator.SAMPLE_BLOCK // (batch * dim)
    n = group + 4
    spec = ProblemSpec(
        kind="log_reg", dim=dim, n_samples=256, l2_reg=0.05, batch_size=batch, seed=3
    )
    config = RunConfig(problem=spec, estimator="storm",
                       schedule=AlphaSchedule(kind="inverse_linear", c0=0.1),
                       scheme=SchemeSpec(kind="two_step", beta=0.3),
                       compressor=CompressorSpec("top_k", k=8), n_workers=n, steps=4, gamma=0.05,
                       b0=2, seed=7, record_history=True)
    stacked, by_rows, sizes = run_stacked_and_row_by_row(monkeypatch, config)
    # storm evaluates each group at x_t and at x_prev before the next group
    assert sizes == [group, group, n - group, n - group] * (config.steps - 1)
    assert trace_bytes(stacked) == trace_bytes(by_rows)


# ---------------------------------------------------------------------------
# the stacked worker compress


def run_stacked_and_compressed_by_rows(monkeypatch, config):
    """(trace, the same run with each stacked compress answered row by row, stack sizes seen)."""
    sizes, by_rows = [], []
    original = simulator.compress

    def compress(x, spec, step=0, node_id=0, out=None):
        if np.ndim(x) == 1:
            return original(x, spec, step, node_id, out)
        if not by_rows:
            sizes.append(len(x))
            return original(x, spec, step, node_id, out)
        for j, row in enumerate(x):
            original(row, spec, step, node_id + j, out=(out[0][j], out[1][j]))
        return CompressionResult(*out)

    monkeypatch.setattr(simulator, "compress", compress)
    stacked = run(config)
    by_rows.append(True)
    return stacked, run(config), sizes


COMPRESSORS = [CompressorSpec("one_bit"), CompressorSpec("top_k", k=3),
               CompressorSpec("rand_k", k=3), CompressorSpec("stoch_quant", levels=2),
               CompressorSpec("identity")]


@pytest.mark.parametrize("compressor", COMPRESSORS, ids=lambda c: c.kind)
@pytest.mark.parametrize("scheme", ["none", "single", "two_step"])
@pytest.mark.parametrize("topology", ["double_compression", "single_round", "single_worker"])
@pytest.mark.parametrize("kind", ["lin_reg", "quadratic"])
def test_stacked_compression_matches_the_row_by_row_run(
    monkeypatch, kind, topology, scheme, compressor
):
    if kind == "quadratic":
        spec = ProblemSpec(kind="quadratic", spectrum=tuple(np.linspace(0.5, 2.0, 8)))
    else:
        spec = ProblemSpec(kind="lin_reg", dim=8, n_samples=64, noise_std=0.1, batch_size=3,
                           seed=3)
    n = 1 if topology == "single_worker" else 3
    config = RunConfig(problem=spec, estimator="storm",
                       schedule=AlphaSchedule(kind="inverse_linear", c0=0.1),
                       scheme=SchemeSpec(kind=scheme, beta=0.3), compressor=compressor,
                       topology=topology, n_workers=n, steps=10, gamma=0.05, b0=2, seed=7,
                       record_history=True)
    stacked, by_rows, sizes = run_stacked_and_compressed_by_rows(monkeypatch, config)
    # one worker call of n rows per step; the server's broadcast stays one (d,) call
    assert sizes == [n] * (config.steps - 1)
    assert trace_bytes(stacked) == trace_bytes(by_rows)
