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
worker-index order.  Each worker's minibatch is the one of handle
(t, i, 0, seed), and storm and root_sgd evaluate both of their gradients
on it.  run draws the minibatches of a block of steps for the whole fleet
in one fleet_minibatches call and hands each step its (n, batch) rows.  A
block holds at most SAMPLE_BLOCK indices (but at least one step), so its
memory is bounded for any batch size, and it reproduces the per-handle
draws bit for bit.  Gradients (one grad_at per worker and evaluation)
and compression (one compress per row) stay per worker, so each row is
computed by the same float operations a lone worker would perform.  Row
computations touch only that worker's state and keyed randomness, so
their order cannot matter.

Buffer ownership.  A run allocates its per-step vectors once and a step
overwrites them in place:
    Runtime.messages    (n, d): the estimates, then the a_t weighting and
                        compensate write the messages over them, and each
                        row is compressed in place;
    workers.delta_2     the residuals of step t-2 are dead once the filter
                        has read them, so step t's residuals go there and
                        shift_deltas makes them delta_1;
    Runtime.broadcast   (d,): the worker average, compensated and then
                        compressed in place by the server;
    server.delta_2      the server's residual, as for the workers;
    e                   filter_update alternates it between two buffers
                        that each state owns (see compensation).
Nothing a caller keeps points into these buffers: the StepResult arrays
(x_next, v, a_bar, e_bar, delta_bar), the estimator's v and x_prev, the
trace's x0 and v0 and the history rows (copies) are all new arrays, so no
later step can change them.

A problem without data (a quadratic) ignores the minibatch, so run_step
evaluates its estimate once and writes it into every row of the messages,
the same bits n separate evaluations would give.

One problem per spec.  build_context keeps the last (ProblemSpec, problem)
pair it built, and a config whose problem spec equals that spec reuses the
problem instead of rebuilding its dataset; run, the oracle replays and the
harness flows all go through it.  Before it builds a problem for a
different spec it drops the old pair, so the cache never holds two
datasets at once.  A problem's arrays are read-only (see problems), so no
run can change what the next one reads.  make_problem itself builds a new
problem on every call.

Step 0 sends v_0, a plain average of b0 stochastic gradients at x_0,
uncompressed, so its StepResult has x_next = x_0 - gamma * v_0, a_bar = v_0
and zero residuals.  _Recorder records it like every later step, into
columns allocated once, and derives cum_bits from wire_bits.
"""

from __future__ import annotations

import dataclasses
import math
import os
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
    fleet_minibatches,
    full_grad,
    loss,
    make_problem,
    partition_data,
    shard_sampler,
)

TOPOLOGIES = ("double_compression", "single_round", "single_worker")

DIVERGENCE_NORM = 1e12
# Most minibatch indices drawn per fleet_minibatches call (at least one step).
SAMPLE_BLOCK = 2**16


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
    record_history: bool = field(default=False, metadata={"key": "record_ghost"})

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
    """One step's outcome; run_step fills a_bar and e_bar only when the run records history."""

    x_next: np.ndarray
    v: np.ndarray
    a_bar: np.ndarray | None
    e_bar: np.ndarray | None
    delta_bar: np.ndarray
    worker_delta_norm: float
    server_delta_norm: float


@dataclass(frozen=True)
class Runtime:
    """Per-run context shared by every step.

    The fields never change during a run; the contents of the two buffers
    are overwritten by every step (see the module docstring).
    """

    config: RunConfig
    problem: object
    worker_spec: CompressorSpec
    server_spec: CompressorSpec
    messages: np.ndarray   # (n, d): estimates, then messages
    broadcast: np.ndarray  # (d,): the worker average, then the broadcast


def run_step(
    t: int,
    x_t: np.ndarray,
    estimator: Estimator,
    workers: CompensationState,
    server: CompensationState,
    runtime: Runtime,
    batches: np.ndarray,
) -> StepResult:
    """Execute step t >= 1; returns the new iterate and step-level aggregates.

    workers holds the fleet's filter state as (n, d) arrays, row i for
    worker i; server holds the server's as (d,) vectors.  Row i of batches
    holds worker i's minibatch indices for this step.
    """
    config = runtime.config
    schedule, scheme = config.schedule, config.scheme
    n = len(runtime.messages)
    alphas = (schedule.at(t), schedule.at(t - 1), schedule.at(t - 2))
    a_t = alphas[0]
    weighted = transmits_weighted_increment(scheme.kind)

    e_workers = filter_update(workers, scheme.beta, *alphas, scheme.kind)
    # The residual buffer of step t-2 is dead once the filter has read it.
    residuals = workers.delta_2
    messages = runtime.messages
    if runtime.problem.n_samples == 0:
        # No data, so every worker's estimate is the same computation.
        messages[:] = estimator.eval_a(x_t, batches[0], a_t, runtime.problem.grad_at)
    else:
        for i in range(n):
            messages[i] = estimator.eval_a(x_t, batches[i], a_t, runtime.problem.grad_at)
    a_bar = fixed_order_mean(messages) if config.record_history else None
    if weighted:
        np.multiply(messages, a_t, out=messages)
    compensate(messages, e_workers, out=messages)
    for i in range(n):
        row = messages[i]
        compress(row, runtime.worker_spec, step=t, node_id=i, out=(row, residuals[i]))
    shift_deltas(workers, residuals)
    broadcast = fixed_order_mean(messages, out=runtime.broadcast)

    if config.topology == "double_compression":
        e_srv = filter_update(server, scheme.beta, *alphas, scheme.kind)
        compensate(broadcast, e_srv, out=broadcast)
        compress(
            broadcast, runtime.server_spec, step=t, node_id=n,
            out=(broadcast, server.delta_2),
        )
        shift_deltas(server, server.delta_2)
    else:
        # single_round broadcasts the average uncompressed; single_worker has
        # nobody to broadcast to.  Either way the server never filters or
        # compresses, so its e and residual stay zero.
        e_srv = server.e
    server_delta = server.delta_1

    estimator.advance(x_t)
    v_t = estimator.update_v(broadcast, a_t, weighted=weighted)
    x_next = config.gamma * v_t
    np.subtract(x_t, x_next, out=x_next)

    worker_delta_mean = fixed_order_mean(residuals)
    worker_delta_norm = float(np.linalg.norm(worker_delta_mean))
    e_bar = None
    if config.record_history:
        e_bar = fixed_order_mean(e_workers)
        e_bar += e_srv
    return StepResult(
        x_next=x_next,
        v=v_t,
        a_bar=a_bar,
        e_bar=e_bar,
        delta_bar=np.add(server_delta, worker_delta_mean, out=worker_delta_mean),
        worker_delta_norm=worker_delta_norm,
        server_delta_norm=float(np.linalg.norm(server_delta)),
    )


def wire_bits(runtime: Runtime) -> tuple[int, int]:
    """(bits sent at step 0, bits sent at each later step) on the run's topology.

    v_0 travels uncompressed: n worker contributions up and the estimate
    down, or nothing on single_worker.  A later step sends the n compressed
    messages up, then the compressed broadcast (double_compression), the
    raw average (single_round) or nothing (single_worker).
    """
    topology = runtime.config.topology
    n, dim = runtime.messages.shape
    raw = dim * FLOAT_BITS
    up = n * message_bits(runtime.worker_spec, dim)
    if topology == "single_worker":
        return 0, up
    if topology == "single_round":
        return (n + 1) * raw, up + raw
    return (n + 1) * raw, up + message_bits(runtime.server_spec, dim)


class _Recorder:
    """Writes one row per step into columns allocated once, and builds the RunTrace."""

    def __init__(self, runtime: Runtime, x0: np.ndarray, v0: np.ndarray):
        self.runtime = runtime
        self.x0 = x0
        self.v0 = v0
        self.rows = 0
        t_max = runtime.config.steps
        names = "loss grad_norm_sq v_norm worker_delta_norm server_delta_norm delta_bar_norm"
        self.columns = {name: np.empty(t_max) for name in names.split()}
        self.hist = None
        if runtime.config.record_history:
            shape = (t_max, x0.size)
            self.hist = RunHistory(*(np.zeros(shape) for _ in dataclasses.fields(RunHistory)))

    def record(self, t: int, x_t: np.ndarray, step: StepResult) -> None:
        """Write row t from step (taken at x_t); raise if step.x_next escaped.

        loss right after full_grad at the same point reuses the problem's
        memoised pass over the data (see problems).
        """
        problem = self.runtime.problem
        g = full_grad(problem, x_t)
        columns = self.columns
        columns["loss"][t] = loss(problem, x_t)
        columns["grad_norm_sq"][t] = float(np.dot(g, g))
        columns["v_norm"][t] = float(np.linalg.norm(step.v))
        columns["worker_delta_norm"][t] = step.worker_delta_norm
        columns["server_delta_norm"][t] = step.server_delta_norm
        columns["delta_bar_norm"][t] = float(np.linalg.norm(step.delta_bar))
        if self.hist is not None:
            self.hist.x[t] = x_t
            self.hist.v[t] = step.v
            self.hist.a_bar[t] = step.a_bar
            self.hist.e_bar[t] = step.e_bar
            self.hist.delta_bar[t] = step.delta_bar
        self.rows = t + 1

        x, v = step.x_next, step.v
        diverged = not (np.isfinite(v).all() and np.isfinite(x).all())
        if diverged or float(np.linalg.norm(x)) > DIVERGENCE_NORM:
            raise DivergenceError(t, self.build(x))

    def build(self, final_x: np.ndarray) -> RunTrace:
        """The trace of the rows written so far, ending at final_x."""
        rows = self.rows
        hist = self.hist
        if hist is not None:
            hist = RunHistory(**{name: array[:rows] for name, array in vars(hist).items()})
        steps = np.arange(rows, dtype=np.int64)
        bits0, bits_per_step = wire_bits(self.runtime)
        problem = self.runtime.problem
        g_final = full_grad(problem, final_x)
        return RunTrace(
            config=self.runtime.config,
            steps=steps,
            **{name: column[:rows] for name, column in self.columns.items()},
            cum_bits=bits0 + bits_per_step * steps,
            x0=self.x0,
            v0=self.v0,
            final_x=final_x,
            final_loss=loss(problem, final_x),
            final_grad_norm_sq=float(np.dot(g_final, g_final)),
            t_effective=rows,
            history=hist,
        )


def _check_history_fits(config: RunConfig) -> None:
    """Reject a recorded run whose history would not fit in physical memory.

    RunHistory preallocates five (steps, d) float64 arrays, so a long wide
    run would otherwise fail (or swap) only after its problem was built.
    """
    if not config.record_history:
        return
    spec = config.problem
    dim = len(spec.spectrum) if spec.kind == "quadratic" else spec.dim
    needed = 5 * config.steps * dim * np.dtype(np.float64).itemsize
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed > physical:
        raise ConfigError(
            f"record_ghost: the history of {config.steps} steps at d={dim} needs "
            f"{needed / 2**30:.1f} GiB, more than the {physical / 2**30:.1f} GiB "
            "of physical memory"
        )


# The last (ProblemSpec, problem) pair build_context built; see the module docstring.
_last_problem: tuple[ProblemSpec, object] | None = None


def build_context(config: RunConfig):
    """(problem, shards, grad): the set-up run and every oracle replay share.

    Seed policy: the problem seed keys the dataset and the partition, and
    the run seed salts every sample handle of grad, so runs that differ
    only in seed share the data and its split but draw other minibatches.
    """
    global _last_problem
    if _last_problem is None or _last_problem[0] != config.problem:
        _last_problem = None  # let the old dataset go before the new one is built
        _last_problem = (config.problem, make_problem(config.problem))
    problem = _last_problem[1]
    shards = partition_data(problem, config.n_workers, config.problem.seed, config.heterogeneity)
    return problem, shards, shard_sampler(problem, shards, salt=config.seed)


def run(config: RunConfig) -> RunTrace:
    """Run the full protocol for config.steps steps; deterministic in config.

    Raises DivergenceError (carrying the partial trace) if the iterate
    escapes; a run with scheme "none" under aggressive compression is
    expected to do so.
    """
    _check_history_fits(config)
    problem, shards, grad = build_context(config)
    dim = problem.dim
    n = config.n_workers
    worker_spec, server_spec = config.resolved_compressors()

    runtime = Runtime(
        config=config,
        problem=problem,
        worker_spec=worker_spec,
        server_spec=server_spec,
        messages=np.empty((n, dim)),
        broadcast=np.empty(dim),
    )

    x0 = config.x0_scale * np.ones(dim)
    estimator = Estimator(kind=config.estimator, schedule=config.schedule, x_prev=x0)
    v0 = init_v0(x0, config.b0, grad, n)
    estimator.v = v0

    workers = CompensationState.zeros((n, dim))
    server = CompensationState.zeros(dim)

    recorder = _Recorder(runtime, x0, v0)
    # Step 0: v0 travelled uncompressed and x_1 = x0 - gamma * v0.  Its zero
    # rows are read-only views of one scalar, so they hold no memory.
    zero = np.broadcast_to(0.0, (dim,))
    step = StepResult(x0 - config.gamma * v0, v0, a_bar=v0, e_bar=zero, delta_bar=zero,
                      worker_delta_norm=0.0, server_delta_norm=0.0)
    recorder.record(0, x0, step)

    block_steps = max(1, SAMPLE_BLOCK // (n * config.problem.batch_size))
    for t in range(1, config.steps):
        offset = (t - 1) % block_steps
        if offset == 0:
            t_end = min(t + block_steps, config.steps)
            block = fleet_minibatches(problem, shards, t, t_end, config.seed)
        x = step.x_next
        step = run_step(t, x, estimator, workers, server, runtime, block[offset])
        recorder.record(t, x, step)

    return recorder.build(step.x_next)
