"""In-process parameter-server simulator with double compression.

One step of the protocol, executed identically on every step t >= 1.  For
the two_step scheme the raw increment travels and the receiver applies the
moving-average weight:

    worker i   e <- filter(e, own residual history)
               message_i = C[estimate_i + e]          (store new residual)
    server     e <- filter(e, own residual history)
               broadcast = C[mean_i message_i + e]    (store new residual)
    everyone   v <- (1 - a_t) v + a_t * broadcast
               x <- x - gamma * v

For none/single the weight is applied before transmission and the receiver
adds the broadcast as is (message_i = C[a_t * estimate_i + e], then
v <- (1 - a_t) v + broadcast), so compression error perturbs v at full
strength.  That placement is what makes plain error feedback degrade under
small a_t while two_step tracks the uncompressed run; both layouts coincide
when a_t = 1 or when the compressor is exact.

The server broadcast is delivered identically to all workers, and every
worker applies the same deterministic update, so a single stored copy of
(x, v) stands in for the whole replicated fleet.

The fleet's own state is held on a worker axis: the compensation state
(e, delta_1, delta_2) is one CompensationState of (n, d) arrays, row i for
worker i, and each step's estimates, messages and residuals are (n, d)
arrays too.  A step runs one filter_update and one compensate for the
whole fleet and reduces the aggregates straight from those arrays in
worker-index order.  Each worker's minibatch, the one of handle
(t, i, 0, seed), is drawn once per step, and storm and root_sgd evaluate
both of their gradients on it.  Gradients (one grad_at per worker and
evaluation) and compression (one compress per row) stay per worker, so
each row is computed by the same float operations a lone worker would
perform.  Row computations touch only that worker's state and keyed
randomness, so their order cannot matter.  The residual buffer of step
t-2 is dead once the filter has read it and is reused for step t's
residuals.

Step 0 is special: v_0 is a plain average of b0 stochastic gradients at x_0,
communicated uncompressed, and x_1 = x_0 - gamma * v_0 happens before the
compressed loop starts.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .compensation import (
    CompensationState,
    SchemeSpec,
    compensate,
    filter_update,
    shift_deltas,
    transmits_weighted_increment,
)
from .compression import FLOAT_BITS, CompressorSpec, compress, measured_epsilon, message_bits
from .errors import ConfigError, DivergenceError
from .estimators import AlphaSchedule, Estimator, fixed_order_mean, init_v0
from .problems import (
    ProblemSpec,
    SampleHandle,
    Shard,
    full_grad,
    loss,
    make_problem,
    minibatch_indices,
    partition_data,
    shard_sampler,
)

TOPOLOGIES = ("double_compression", "single_round", "single_worker")

DIVERGENCE_NORM = 1e12


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; two runs with equal configs match bitwise."""

    problem: ProblemSpec
    estimator: str = "momentum"
    schedule: AlphaSchedule = field(default_factory=AlphaSchedule)
    scheme: SchemeSpec = field(default_factory=SchemeSpec)
    compressor: CompressorSpec = field(default_factory=lambda: CompressorSpec(kind="identity"))
    server_compressor: CompressorSpec | None = None
    topology: str = "double_compression"
    n_workers: int = 1
    steps: int = 100
    gamma: float = 0.01
    b0: int = 1
    seed: int = 0
    heterogeneity: float = 0.0
    x0_scale: float = 1.0
    record_history: bool = False

    def __post_init__(self):
        for name in ("gamma", "heterogeneity", "x0_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"unknown topology {self.topology!r}, expected one of {TOPOLOGIES}")
        if self.topology == "single_worker" and self.n_workers != 1:
            raise ConfigError("single_worker topology requires n_workers == 1")
        if self.n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.gamma < 0.0:
            raise ConfigError(f"gamma must be non-negative, got {self.gamma}")
        if self.b0 < 1:
            raise ConfigError(f"b0 must be >= 1, got {self.b0}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def resolved_compressors(self) -> tuple[CompressorSpec, CompressorSpec]:
        """Worker and server specs with unset seeds replaced by the run seed."""
        worker = self.compressor
        if worker.seed is None:
            worker = dataclasses.replace(worker, seed=self.seed)
        server = self.server_compressor if self.server_compressor is not None else worker
        if server.seed is None:
            server = dataclasses.replace(server, seed=self.seed)
        return worker, server


@dataclass
class RunHistory:
    """Per-step vectors kept only when a run records for the oracle.

    Row t of every array belongs to step t; row 0 holds the start-up values
    (a_bar[0] = v0, zero residuals and errors).
    """

    x: np.ndarray          # iterate x_t before the step-t update
    v: np.ndarray          # estimator v_t
    a_bar: np.ndarray      # worker-averaged inner estimate b_bar_t
    e_bar: np.ndarray      # aggregated compensation: mean worker e + server e
    delta_bar: np.ndarray  # aggregated residual: server delta + mean worker delta


@dataclass
class RunTrace:
    """Scalar per-step metrics plus final state; histories only on request."""

    config: RunConfig
    steps: np.ndarray
    loss: np.ndarray
    grad_norm_sq: np.ndarray
    v_norm: np.ndarray
    worker_delta_norm: np.ndarray
    server_delta_norm: np.ndarray
    delta_bar_norm: np.ndarray
    cum_bits: np.ndarray
    x0: np.ndarray
    v0: np.ndarray
    final_x: np.ndarray
    final_loss: float
    final_grad_norm_sq: float
    t_effective: int
    history: RunHistory | None = None

    def eps_hat(self) -> float:
        """Empirical contraction bound over the aggregated residual trace."""
        return measured_epsilon(self.delta_bar_norm)


@dataclass(frozen=True)
class StepResult:
    """One step's outcome; a_bar and e_bar only when the run records history."""

    x_next: np.ndarray
    v: np.ndarray
    a_bar: np.ndarray | None
    e_bar: np.ndarray | None
    delta_bar: np.ndarray
    worker_delta_mean: np.ndarray
    server_delta: np.ndarray
    bits: int


@dataclass(frozen=True)
class Runtime:
    """Immutable-per-run context shared by every step."""

    problem: object
    shards: list[Shard]
    salt: int
    worker_spec: CompressorSpec
    server_spec: CompressorSpec
    scheme: SchemeSpec
    schedule: AlphaSchedule
    topology: str
    n: int
    dim: int
    gamma: float
    record_history: bool


def run_step(
    t: int,
    x_t: np.ndarray,
    estimator: Estimator,
    workers: CompensationState,
    server: CompensationState,
    runtime: Runtime,
) -> StepResult:
    """Execute step t >= 1; returns the new iterate and step-level aggregates.

    workers holds the fleet's filter state as (n, d) arrays, row i for
    worker i; server holds the server's as (d,) vectors.
    """
    schedule = runtime.schedule
    alphas = (schedule.at(t), schedule.at(t - 1), schedule.at(t - 2))
    a_t = alphas[0]
    kind = runtime.scheme.kind
    weighted = transmits_weighted_increment(kind)

    e_workers = filter_update(workers, runtime.scheme.beta, *alphas, kind)
    # The residual buffer of step t-2 is dead once the filter has read it.
    residuals = workers.delta_2
    estimates = np.empty((runtime.n, runtime.dim))
    for i, shard in enumerate(runtime.shards):
        handle = SampleHandle(t=t, worker=i, salt=runtime.salt)
        batch = minibatch_indices(runtime.problem, shard, handle)
        estimates[i] = estimator.eval_a(x_t, batch, a_t, runtime.problem.grad_at)
    a_bar = fixed_order_mean(estimates) if runtime.record_history else None
    messages = compensate(a_t * estimates if weighted else estimates, e_workers)
    del estimates  # one (n, d) array fewer alive while compressing
    for i in range(runtime.n):
        result = compress(messages[i], runtime.worker_spec, step=t, node_id=i)
        messages[i] = result.compressed
        residuals[i] = result.residual
    shift_deltas(workers, residuals)
    averaged = fixed_order_mean(messages)
    bits = runtime.n * message_bits(runtime.worker_spec, runtime.dim)

    if runtime.topology == "double_compression":
        e_srv = filter_update(server, runtime.scheme.beta, *alphas, kind)
        server_result = compress(
            compensate(averaged, e_srv), runtime.server_spec, step=t, node_id=runtime.n
        )
        shift_deltas(server, server_result.residual)
        broadcast = server_result.compressed
        server_delta = server_result.residual
        bits += message_bits(runtime.server_spec, runtime.dim)
    else:
        # single_round broadcasts the average uncompressed; single_worker has
        # nobody to broadcast to.  Either way the server adds no residual.
        e_srv = np.zeros(runtime.dim)
        broadcast = averaged
        server_delta = np.zeros(runtime.dim)
        if runtime.topology == "single_round":
            bits += runtime.dim * FLOAT_BITS

    estimator.advance(x_t)
    v_t = estimator.update_v(broadcast, a_t, weighted=weighted)
    x_next = x_t - runtime.gamma * v_t

    worker_delta_mean = fixed_order_mean(residuals)
    return StepResult(
        x_next=x_next,
        v=v_t,
        a_bar=a_bar,
        e_bar=fixed_order_mean(e_workers) + e_srv if runtime.record_history else None,
        delta_bar=server_delta + worker_delta_mean,
        worker_delta_mean=worker_delta_mean,
        server_delta=server_delta,
        bits=bits,
    )


def _check_finite(t: int, x: np.ndarray, v: np.ndarray, build_partial) -> None:
    diverged = not (np.isfinite(v).all() and np.isfinite(x).all())
    if not diverged:
        diverged = float(np.linalg.norm(x)) > DIVERGENCE_NORM
    if diverged:
        raise DivergenceError(t, build_partial())


class _Recorder:
    """Accumulates per-step rows and assembles the RunTrace."""

    def __init__(self, config: RunConfig, problem, x0: np.ndarray, v0: np.ndarray):
        self.config = config
        self.problem = problem
        self.x0 = x0
        self.v0 = v0
        self.rows: list[tuple] = []
        self.cum_bits = 0
        dim = x0.size
        if config.record_history:
            t_max = config.steps
            self.hist = RunHistory(
                x=np.zeros((t_max, dim)),
                v=np.zeros((t_max, dim)),
                a_bar=np.zeros((t_max, dim)),
                e_bar=np.zeros((t_max, dim)),
                delta_bar=np.zeros((t_max, dim)),
            )
        else:
            self.hist = None

    def record(
        self,
        t: int,
        x_t: np.ndarray,
        v_t: np.ndarray,
        worker_delta_norm: float,
        server_delta_norm: float,
        delta_bar_norm: float,
        bits: int,
    ) -> None:
        self.cum_bits += bits
        g = full_grad(self.problem, x_t)
        self.rows.append(
            (
                t,
                loss(self.problem, x_t),
                float(np.dot(g, g)),
                float(np.linalg.norm(v_t)),
                worker_delta_norm,
                server_delta_norm,
                delta_bar_norm,
                self.cum_bits,
            )
        )

    def record_history(self, t, x_t, v_t, a_bar, e_bar, delta_bar) -> None:
        if self.hist is None:
            return
        self.hist.x[t] = x_t
        self.hist.v[t] = v_t
        self.hist.a_bar[t] = a_bar
        self.hist.e_bar[t] = e_bar
        self.hist.delta_bar[t] = delta_bar

    def build(self, final_x: np.ndarray) -> RunTrace:
        cols = list(zip(*self.rows))
        t_effective = len(self.rows)
        hist = self.hist
        if hist is not None and t_effective < self.config.steps:
            hist = RunHistory(
                x=hist.x[:t_effective],
                v=hist.v[:t_effective],
                a_bar=hist.a_bar[:t_effective],
                e_bar=hist.e_bar[:t_effective],
                delta_bar=hist.delta_bar[:t_effective],
            )
        g_final = full_grad(self.problem, final_x)
        return RunTrace(
            config=self.config,
            steps=np.asarray(cols[0], dtype=np.int64),
            loss=np.asarray(cols[1]),
            grad_norm_sq=np.asarray(cols[2]),
            v_norm=np.asarray(cols[3]),
            worker_delta_norm=np.asarray(cols[4]),
            server_delta_norm=np.asarray(cols[5]),
            delta_bar_norm=np.asarray(cols[6]),
            cum_bits=np.asarray(cols[7], dtype=np.int64),
            x0=self.x0,
            v0=self.v0,
            final_x=final_x,
            final_loss=loss(self.problem, final_x),
            final_grad_norm_sq=float(np.dot(g_final, g_final)),
            t_effective=t_effective,
            history=hist,
        )


def run(config: RunConfig) -> RunTrace:
    """Run the full protocol for config.steps steps; deterministic in config.

    Raises DivergenceError (carrying the partial trace) if the iterate
    escapes; a run with scheme "none" under aggressive compression is
    expected to do so.
    """
    problem = make_problem(config.problem)
    dim = problem.dim
    n = config.n_workers
    shards = partition_data(problem, n, config.problem.seed, config.heterogeneity)
    worker_spec, server_spec = config.resolved_compressors()

    runtime = Runtime(
        problem=problem,
        shards=shards,
        salt=config.seed,
        worker_spec=worker_spec,
        server_spec=server_spec,
        scheme=config.scheme,
        schedule=config.schedule,
        topology=config.topology,
        n=n,
        dim=dim,
        gamma=config.gamma,
        record_history=config.record_history,
    )

    x0 = config.x0_scale * np.ones(dim)
    estimator = Estimator(kind=config.estimator, schedule=config.schedule, x_prev=x0)
    v0 = init_v0(x0, config.b0, shard_sampler(problem, shards, salt=config.seed), n)
    estimator.v = v0

    workers = CompensationState.zeros((n, dim))
    server = CompensationState.zeros(dim)

    recorder = _Recorder(config, problem, x0, v0)
    # Step 0: v0 travels uncompressed (worker contributions up, estimate down).
    bits0 = 0 if config.topology == "single_worker" else (n + 1) * dim * FLOAT_BITS
    recorder.record(0, x0, v0, 0.0, 0.0, 0.0, bits0)
    recorder.record_history(0, x0, v0, v0, np.zeros(dim), np.zeros(dim))

    x = x0 - config.gamma * v0
    _check_finite(0, x, v0, lambda: recorder.build(x))

    for t in range(1, config.steps):
        result = run_step(t, x, estimator, workers, server, runtime)
        recorder.record(
            t,
            x,
            result.v,
            float(np.linalg.norm(result.worker_delta_mean)),
            float(np.linalg.norm(result.server_delta)),
            float(np.linalg.norm(result.delta_bar)),
            result.bits,
        )
        recorder.record_history(t, x, result.v, result.a_bar, result.e_bar, result.delta_bar)
        _check_finite(t, result.x_next, result.v, lambda: recorder.build(result.x_next))
        x = result.x_next

    return recorder.build(x)
