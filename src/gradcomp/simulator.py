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

Every node's filter state is one CompensationState of (n + 1, d) arrays:
row i for worker i, row n for the server.  Each step's messages and
residuals are (n + 1, d) arrays too, laid out the same way.  A step runs
one filter_update over all n + 1 rows, one compensate over the worker rows
and one shift_deltas, and reduces the aggregates straight from those
arrays in worker-index order.  On single_round and single_worker nothing
writes the server row's residuals, so they stay zero, and the filter keeps
that row's e at +0.0 (its weights are finite and non-negative).  Each
worker's minibatch is the one of handle (t, i, 0, seed), and storm and
root_sgd evaluate both of their gradients on it.  run draws the
minibatches of a block of steps for the whole fleet in one
fleet_minibatches call and hands each step its (n, batch) rows.  A block
holds at most SAMPLE_BLOCK indices (but at least one step), so its memory
is bounded for any batch size, and it reproduces the per-handle draws bit
for bit.  run_step evaluates the whole fleet's estimates in one eval_a
call on the step's (n, batch) rows: grad_at takes the stack and computes
each worker's row with the same float operations a lone call on that row
performs, and storm and root_sgd make one such call at x_t and one at
x_prev.  One call gathers at most SAMPLE_BLOCK floats of the dataset (but
at least one worker's rows), so runs with many workers or wide minibatches
take a few calls per step.  One compress call compresses the (n, d) stack
of worker messages in place, row i keyed as node i, and a second one the
server's broadcast as node n.  compress gives each row of a stack the bits
a lone call on that row gives, so no row depends on another.

Buffer ownership.  A run allocates its per-step vectors once and a step
overwrites them in place:
    Runtime.messages    (n + 1, d): rows 0..n-1 hold the estimates, then
                        the a_t weighting and compensate write the
                        messages over them, and one compress call
                        overwrites them in place; row n holds the worker
                        average, which the server compensates and
                        compresses in place into the broadcast;
    fleet.delta_2       the residuals of step t-2 are dead once the filter
                        has read them, so step t's residuals go there and
                        shift_deltas makes them delta_1;
    fleet.e             filter_update writes the new e over the old one.
Nothing a caller keeps points into these buffers: the StepResult arrays
(x_next, v, a_bar, e_bar, delta_bar), the estimator's v and x_prev, the
trace's x0 and v0 and the history rows (copies) are all new arrays, so no
later step can change them.

A problem without data (a quadratic) ignores the minibatch: its grad_at
returns the (d,) full gradient for any stack of indices, so the one eval_a
call yields a single estimate, which is broadcast into every worker row of
the messages, the same bits n separate evaluations would give.

One problem per spec.  cached_problem keeps the last (ProblemSpec, problem)
pair it built, and a spec equal to that spec reuses the problem instead of
rebuilding its dataset; run, the oracle replays, the harness flows (all
through build_context) and a trace's derived objective go through it.
Before it builds a problem for a different spec it drops the old pair, so
the cache never holds two datasets at once.  A problem's arrays are
read-only (see problems), so no run can change what the next one reads.
make_problem itself builds a new problem on every call.

Step 0 sends v_0, a plain average of b0 stochastic gradients at x_0,
uncompressed, so its StepResult has x_next = x_0 - gamma * v_0, a_bar = v_0
and zero residuals.  _Recorder records it like every later step, into
columns allocated once, and derives cum_bits from wire_bits.  The loss and
grad_norm_sq columns take one full-data pass (_objective) per recorded
step.  A run without history makes that pass as it records each step.  A
run with history keeps every x_t in history.x, so it makes no pass while
it runs: its trace fills both columns from history.x on their first read,
with the same calls in the same order, so the same bits.  The oracle
replays never read them.  A config with record_objective off has neither
column, and its trace holds None there.  final_loss and
final_grad_norm_sq are computed once, at the end, either way.
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
# Most minibatch indices drawn per fleet_minibatches call (at least one step),
# and most dataset floats gathered per stacked grad_at call (at least one worker).
SAMPLE_BLOCK = 2**16
# (n_samples, d) float64 arrays problems._designed_matrix holds at its peak:
# the raw draw, the SVD's u, u scaled by the singular values and the product
# (during the SVD, LAPACK's copy of the input and its workspace).
DESIGN_COPIES = 4
# The per-step metric columns of a trace, in RunTrace's order.  The first two
# are the full-data objective, which only record_objective runs hold; a run
# that records history derives them on first read (see RunTrace).
METRIC_COLUMNS = (
    "loss", "grad_norm_sq", "v_norm", "worker_delta_norm", "server_delta_norm", "delta_bar_norm",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; two runs with equal configs match bitwise.

    Construction checks every value and the memory bound (_check_run_fits);
    a ConfigError names its field by a dotted path, e.g. "problem.batch_size".
    Each nested spec has checked its own values.  The estimator kind and
    the sgd rule are Estimator's own checks, which construction runs and
    re-raises at "estimator".

    record_objective=False skips the per-step full-data loss and gradient
    norm (see _Recorder), for a caller that reads only the final values.  It
    has no YAML key (metadata key None), so every config the CLI runs, and
    every metrics CSV it writes, has both columns.
    """

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
    record_objective: bool = field(default=True, metadata={"key": None})

    def __post_init__(self):
        for name in ("gamma", "heterogeneity", "x0_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"must be finite, got {getattr(self, name)}", name)
        if not 0.0 <= self.heterogeneity <= 1.0:
            raise ConfigError(f"must be in [0, 1], got {self.heterogeneity}", "heterogeneity")
        try:
            Estimator(kind=self.estimator, schedule=self.schedule)
        except ConfigError as exc:
            raise ConfigError(exc.reason, "estimator") from None
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"unknown topology {self.topology!r}, expected one of {TOPOLOGIES}",
                              "topology")
        if self.topology == "single_worker" and self.n_workers != 1:
            raise ConfigError(f"must be 1 on the single_worker topology, got {self.n_workers}",
                              "n_workers")
        if self.n_workers < 1:
            raise ConfigError(f"must be >= 1, got {self.n_workers}", "n_workers")
        if self.steps < 1:
            raise ConfigError(f"must be >= 1, got {self.steps}", "steps")
        if self.gamma < 0.0:
            raise ConfigError(f"must be non-negative, got {self.gamma}", "gamma")
        if self.b0 < 1:
            raise ConfigError(f"must be >= 1, got {self.b0}", "b0")
        if self.seed < 0:
            raise ConfigError(f"must be non-negative, got {self.seed}", "seed")
        dim = _dimension(self.problem)
        for name in ("compressor", "server_compressor"):
            spec = getattr(self, name)
            if spec is not None and spec.kind in ("top_k", "rand_k") and spec.k > dim:
                raise ConfigError(f"{spec.k} exceeds the problem's dimension {dim}", f"{name}.k")
        if self.problem.n_samples and self.n_workers > self.problem.n_samples:
            raise ConfigError(
                f"cannot split {self.problem.n_samples} samples across {self.n_workers} workers",
                "n_workers",
            )
        # alpha_t = 1/(1 + c0 t) is 0.0 once c0 t overflows.  The cap keeps t
        # convertible to a float; a run of more than 2^53 steps fails
        # _check_run_fits anyway.
        last = min(self.steps - 1, 2**53)
        if self.schedule.kind == "inverse_linear" and self.schedule.at(last) == 0.0:
            raise ConfigError(
                f"{self.schedule.c0} makes alpha_t underflow to 0.0 by step {last}", "schedule.c0"
            )
        _check_run_fits(self)

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
    """Scalar per-step metrics plus final state; histories only on request.

    loss and grad_norm_sq are the full-data objective at each recorded x_t,
    and None when the config's record_objective is off.  A run without
    history records them step by step.  A run with history derives them:
    the first read of either column fills both from history.x, one
    _objective call per row on cached_problem(config.problem), which may
    rebuild the problem if another spec has evicted it.  They have the bits
    the step-by-step calls give, and later reads return the same arrays.
    The trace holds no problem, so it keeps no dataset alive.  The history
    arrays are read-only, so no caller can change what the columns are
    derived from.  final_loss and final_grad_norm_sq are always computed.
    """

    config: RunConfig
    steps: np.ndarray
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
    # (loss, grad_norm_sq), or None: always without record_objective, and on a
    # history run until the first read of either column fills it.
    _objective: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @property
    def loss(self) -> np.ndarray | None:
        return self._objective_columns()[0]

    @property
    def grad_norm_sq(self) -> np.ndarray | None:
        return self._objective_columns()[1]

    def _objective_columns(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        if self._objective is None and self.config.record_objective:
            problem = cached_problem(self.config.problem)
            columns = np.empty((2, len(self.history.x)))
            for t, x in enumerate(self.history.x):
                columns[:, t] = _objective(problem, x)
            self._objective = (columns[0], columns[1])
        return self._objective or (None, None)

    def eps_hat(self) -> float:
        """Empirical contraction bound over the aggregated residual trace."""
        return measured_epsilon(self.delta_bar_norm)


@dataclass(slots=True)
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

    The fields never change during a run; the contents of messages are
    overwritten by every step (see the module docstring).
    """

    config: RunConfig
    problem: object
    worker_spec: CompressorSpec
    server_spec: CompressorSpec
    messages: np.ndarray  # (n + 1, d): worker estimates then messages; row n the broadcast


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a contiguous 1-d float64 vector, bit for bit.

    numpy computes that norm as sqrt(v.dot(v)); this skips its dispatch.
    """
    return math.sqrt(v.dot(v))


def _objective(problem, x: np.ndarray) -> tuple[float, float]:
    """(loss, squared full-gradient norm) at x.

    loss right after full_grad at the same point reuses the problem's
    memoised pass over the data (see problems).
    """
    g = full_grad(problem, x)
    return loss(problem, x), float(np.dot(g, g))


def run_step(
    t: int,
    x_t: np.ndarray,
    estimator: Estimator,
    fleet: CompensationState,
    runtime: Runtime,
    batches: np.ndarray,
) -> StepResult:
    """Execute step t >= 1; returns the new iterate and step-level aggregates.

    fleet holds every node's filter state as (n + 1, d) arrays, row i for
    worker i and row n for the server.  Row i of batches holds worker i's
    minibatch indices for this step; the whole stack goes to eval_a.
    """
    config = runtime.config
    schedule, scheme = config.schedule, config.scheme
    n = len(runtime.messages) - 1
    alphas = (schedule.at(t), schedule.at(t - 1), schedule.at(t - 2))
    a_t = alphas[0]
    weighted = transmits_weighted_increment(scheme)

    e = filter_update(fleet, scheme, *alphas)
    # The residual buffer of step t-2 is dead once the filter has read it.
    residuals = fleet.delta_2
    messages = runtime.messages[:n]
    # Stacked grad_at calls gather at most SAMPLE_BLOCK floats each (but at
    # least one worker).  A quadratic gathers nothing, and its (d,) estimate
    # broadcasts over every worker row.
    gathered = batches.shape[1] * messages.shape[1]
    group = max(1, SAMPLE_BLOCK // gathered) if gathered else n
    for lo in range(0, n, group):
        rows = slice(lo, lo + group)
        messages[rows] = estimator.eval_a(x_t, batches[rows], a_t, runtime.problem.grad_at)
    a_bar = fixed_order_mean(messages) if config.record_history else None
    if weighted:
        np.multiply(messages, a_t, out=messages)
    compensate(messages, e[:n], out=messages)
    compress(messages, runtime.worker_spec, step=t, node_id=0, out=(messages, residuals[:n]))
    broadcast = fixed_order_mean(messages, out=runtime.messages[n])
    if config.topology == "double_compression":
        compensate(broadcast, e[n], out=broadcast)
        compress(broadcast, runtime.server_spec, step=t, node_id=n, out=(broadcast, residuals[n]))
    # single_round broadcasts the average uncompressed; single_worker has
    # nobody to broadcast to.  Either way the server row stays zero.
    shift_deltas(fleet, residuals)
    server_delta = residuals[n]

    estimator.advance(x_t)
    v_t = estimator.update_v(broadcast, a_t, weighted=weighted)
    x_next = config.gamma * v_t
    np.subtract(x_t, x_next, out=x_next)

    worker_delta_mean = fixed_order_mean(residuals[:n])
    worker_delta_norm = _norm(worker_delta_mean)
    e_bar = None
    if config.record_history:
        e_bar = fixed_order_mean(e[:n])
        e_bar += e[n]
    return StepResult(
        x_next=x_next,
        v=v_t,
        a_bar=a_bar,
        e_bar=e_bar,
        delta_bar=np.add(server_delta, worker_delta_mean, out=worker_delta_mean),
        worker_delta_norm=worker_delta_norm,
        server_delta_norm=_norm(server_delta),
    )


def wire_bits(runtime: Runtime) -> tuple[int, int]:
    """(bits sent at step 0, bits sent at each later step) on the run's topology.

    v_0 travels uncompressed: n worker contributions up and the estimate
    down, or nothing on single_worker.  A later step sends the n compressed
    messages up, then the compressed broadcast (double_compression), the
    raw average (single_round) or nothing (single_worker).
    """
    topology = runtime.config.topology
    rows, dim = runtime.messages.shape
    n = rows - 1
    raw = dim * FLOAT_BITS
    up = n * message_bits(runtime.worker_spec, dim)
    if topology == "single_worker":
        return 0, up
    if topology == "single_round":
        return (n + 1) * raw, up + raw
    return (n + 1) * raw, up + message_bits(runtime.server_spec, dim)


class _Recorder:
    """Writes one row per step into columns allocated once, and builds the RunTrace.

    Only a record_objective run without history allocates the loss and
    grad_norm_sq columns and makes a full-data pass per step; a history run
    leaves them to RunTrace, which derives them from history.x on first
    read.  Divergence detection, the norms and the history are the same
    either way.
    """

    def __init__(self, runtime: Runtime, x0: np.ndarray, v0: np.ndarray):
        self.runtime = runtime
        self.x0 = x0
        self.v0 = v0
        self.rows = 0
        config = runtime.config
        self.eager = config.record_objective and not config.record_history
        t_max = config.steps
        names = METRIC_COLUMNS if self.eager else METRIC_COLUMNS[2:]
        self.columns = {name: np.empty(t_max) for name in names}
        self.hist = None
        if config.record_history:
            shape = (t_max, x0.size)
            self.hist = RunHistory(*(np.zeros(shape) for _ in dataclasses.fields(RunHistory)))

    def record(self, t: int, x_t: np.ndarray, step: StepResult) -> None:
        """Write row t from step (taken at x_t); raise if step.v or step.x_next escaped.

        A finite v.dot(v) means every entry of v is finite, so the entries
        are tested only when v's norm is not finite (a finite v can overflow
        it); a NaN x fails the norm bound.
        """
        columns = self.columns
        if self.eager:
            columns["loss"][t], columns["grad_norm_sq"][t] = _objective(self.runtime.problem, x_t)
        x, v = step.x_next, step.v
        v_norm = _norm(v)
        columns["v_norm"][t] = v_norm
        columns["worker_delta_norm"][t] = step.worker_delta_norm
        columns["server_delta_norm"][t] = step.server_delta_norm
        columns["delta_bar_norm"][t] = _norm(step.delta_bar)
        if self.hist is not None:
            self.hist.x[t] = x_t
            self.hist.v[t] = step.v
            self.hist.a_bar[t] = step.a_bar
            self.hist.e_bar[t] = step.e_bar
            self.hist.delta_bar[t] = step.delta_bar
        self.rows = t + 1

        if not (math.isfinite(v_norm) or np.isfinite(v).all()) or not _norm(x) <= DIVERGENCE_NORM:
            raise DivergenceError(t, self.build(x))

    def build(self, final_x: np.ndarray) -> RunTrace:
        """The trace of the rows written so far, ending at final_x.

        Its history arrays are read-only views of the recorder's.
        """
        rows = self.rows
        hist = self.hist
        if hist is not None:
            hist = RunHistory(**{name: array[:rows] for name, array in vars(hist).items()})
            for array in vars(hist).values():
                array.flags.writeable = False
        steps = np.arange(rows, dtype=np.int64)
        bits0, bits_per_step = wire_bits(self.runtime)
        columns = {name: c[:rows] for name, c in self.columns.items()}
        objective = (columns.pop("loss"), columns.pop("grad_norm_sq")) if self.eager else None
        final_loss, final_grad_norm_sq = _objective(self.runtime.problem, final_x)
        return RunTrace(
            config=self.runtime.config,
            steps=steps,
            **columns,
            cum_bits=bits0 + bits_per_step * steps,
            x0=self.x0,
            v0=self.v0,
            final_x=final_x,
            final_loss=final_loss,
            final_grad_norm_sq=final_grad_norm_sq,
            t_effective=rows,
            history=hist,
            _objective=objective,
        )


def _dimension(spec: ProblemSpec) -> int:
    return len(spec.spectrum) if spec.kind == "quadratic" else spec.dim


def _metric_columns(config: RunConfig) -> tuple[str, ...]:
    """The METRIC_COLUMNS a trace of config holds: all but the full-data
    objective's two when record_objective is off.  _Recorder allocates the
    two only without history; a history run's trace allocates them on
    their first read."""
    return METRIC_COLUMNS if config.record_objective else METRIC_COLUMNS[2:]


def _check_run_fits(config: RunConfig) -> None:
    """Reject a run whose preallocated arrays would not fit in physical memory.

    A trace holds a float64 column of `steps` rows for each of
    _metric_columns(config) (six, or four without record_objective);
    _Recorder preallocates them, except a history run's loss and
    grad_norm_sq, which its trace allocates on their first read.  The
    fleet's e, delta_1 and delta_2 and Runtime.messages are four (n + 1, d)
    arrays, and a run that records its history adds five (steps, d) arrays.
    A dataset problem's design matrix is n_samples x d, and
    problems._designed_matrix holds DESIGN_COPIES such arrays at its peak.
    A dataset's minibatches take at least n x batch_size int64 indices (one
    step of fleet_minibatches) plus one worker's gathered rows, batch_size x
    d float64, the least any grad_at call gathers; a quadratic gathers
    nothing.  A long, wide or many-worker run, a large dataset or a
    wide minibatch would otherwise fail (or swap) only after its problem was
    built.  The arrays are added up in that order, and the error names the
    field whose arrays push the total past physical memory: steps,
    n_workers, record_ghost, problem.n_samples or problem.batch_size.
    """
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    spec = config.problem
    dim = _dimension(spec)
    n, steps, batch = config.n_workers, config.steps, spec.batch_size
    arrays = [
        ("steps", len(_metric_columns(config)) * steps, f"the metric columns of {steps} steps"),
        ("n_workers", 4 * (n + 1) * dim, f"the fleet state of {n} workers at d={dim}"),
    ]
    if config.record_history:
        arrays.append(("record_ghost", 5 * steps * dim, f"the history of {steps} steps at d={dim}"))
    if spec.n_samples:
        arrays.append(("problem.n_samples", DESIGN_COPIES * spec.n_samples * dim,
                       f"the design matrix of {spec.n_samples} samples at d={dim}"))
        arrays.append(("problem.batch_size", n * batch + batch * dim,
                       f"the minibatches of {n} workers x {batch} samples at d={dim}"))
    needed = 0
    for name, items, what in arrays:
        needed += items * 8  # float64 or int64
        if needed > physical:
            # An int past about 2^1054 has no float quotient.
            gib = needed / 2**30 if needed < 2**1000 else math.inf
            raise ConfigError(
                f"{what} brings the run to {gib:.1f} GiB, more than "
                f"the {physical / 2**30:.1f} GiB of physical memory",
                name,
            )


# The last (ProblemSpec, problem) pair cached_problem built; see the module docstring.
_last_problem: tuple[ProblemSpec, object] | None = None


def cached_problem(spec: ProblemSpec):
    """The problem of spec, from the one-entry cache; a new spec evicts the old one."""
    global _last_problem
    if _last_problem is None or _last_problem[0] != spec:
        _last_problem = None  # let the old dataset go before the new one is built
        _last_problem = (spec, make_problem(spec))
    return _last_problem[1]


def build_context(config: RunConfig):
    """(problem, shards, grad): the set-up run and every oracle replay share.

    Seed policy: the problem seed keys the dataset and the partition, and
    the run seed salts every sample handle of grad, so runs that differ
    only in seed share the data and its split but draw other minibatches.
    """
    problem = cached_problem(config.problem)
    shards = partition_data(problem, config.n_workers, config.problem.seed, config.heterogeneity)
    return problem, shards, shard_sampler(problem, shards, salt=config.seed)


def run(config: RunConfig) -> RunTrace:
    """Run the full protocol for config.steps steps; deterministic in config.

    Raises DivergenceError (carrying the partial trace) if the iterate
    escapes; a run with scheme "none" under aggressive compression is
    expected to do so.
    """
    problem, shards, grad = build_context(config)
    dim = problem.dim
    n = config.n_workers
    worker_spec, server_spec = config.resolved_compressors()

    runtime = Runtime(
        config=config,
        problem=problem,
        worker_spec=worker_spec,
        server_spec=server_spec,
        messages=np.empty((n + 1, dim)),
    )

    x0 = config.x0_scale * np.ones(dim)
    estimator = Estimator(kind=config.estimator, schedule=config.schedule, x_prev=x0)
    v0 = init_v0(x0, config.b0, grad, n)
    estimator.v = v0

    fleet = CompensationState.zeros((n + 1, dim))

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
        step = run_step(t, x, estimator, fleet, runtime, block[offset])
        recorder.record(t, x, step)

    return recorder.build(step.x_next)
