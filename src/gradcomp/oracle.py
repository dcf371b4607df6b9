"""Post-hoc verification of the compression-residual algebra.

The central object is the ghost trajectory: rerun the estimator recursion on
the inner estimates recorded during a compressed run, but without any
compression,

    u_t = (1 - a_t) u_{t-1} + a_t * b_t,        u_0 = v_0,
    xhat_{t+1} = xhat_t - gamma * u_t,          xhat_0 = x_0,

where b_t is the worker-averaged estimate the compressed run actually saw.
The gap x_t - xhat_t then isolates exactly what compression injected into
the trajectory, and for beta = 1 and constant a it has a closed form in the
aggregated residuals delta_bar_s: unrolling the difference recursion

    w_t = v_t - u_t = (1 - a) w_{t-1} + eta2 * ebar_t - eta1 * delta_bar_t

and summing gives, with the filter ebar_s = c1 delta_bar_{s-1} -
c2 delta_bar_{s-2},

    x_t - xhat_t = (gamma/a) * sum_{s<=t-1} (1 - (1-a)^(t-s)) D_s,
    D_s = eta1 delta_bar_s - eta2*c1 delta_bar_{s-1} + sign * eta2*c2 delta_bar_{s-2},

with delta_bar at a negative index taken as 0.  The weights split the sum
into a plain and a decayed running sum of the combined D,

    Q_t = Q_{t-1} + D_{t-1},    H_t = (1-a) (H_{t-1} + D_{t-1}),    Q_0 = H_0 = 0,
    x_t - xhat_t = (gamma/a) * (Q_t - H_t),

so the predictions for t = 0, 1, ..., T come out of one forward pass.
Summing D rather than its three terms keeps Q bounded when the terms nearly
cancel, as they do under the two-step filter.

The pass reads the history in blocks of rows that hold at most BLOCK
elements (one row when d is larger), so its state is O(d) whatever the
horizon.  Only the recurrences that mix a product into a sum step row by
row: the ghost's u and the decayed sum H.  A block's D (for one c2 sign),
the ghost's pulls a_t * b_t, the plain sums (the ghost's x_hat, one
np.subtract.accumulate of gamma * u_{t-1} down from the carried x_hat, and
Q, one np.add.accumulate with the carried Q added into the first row) and
the predictions are each one array operation on the block.  Every element
goes through the float operations of the row-by-row recursion, so the
results have its bits.

The sign on the c2 term is not taken on faith: verify_residual_identity
evaluates both choices against the brute-force ghost difference and reports
which one holds.  Note the ghost x-update uses u_{t-1}, mirroring the
simulator's x_{t+1} = x_t - gamma v_t; this is the alignment under which an
identity compressor makes the gap exactly zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .compensation import scheme_coefficients, transmits_weighted_increment
from .compression import compress
from .errors import ConfigError, VerificationError
from .estimators import Estimator, fixed_order_mean
from .problems import SampleHandle, full_grad
from .simulator import RunConfig, RunTrace, build_context

# Guard against division by zero when a residual trace is identically zero.
_TINY = 1e-30
# Most elements in one block of history rows that the forward pass reads at
# once (but at least one row); see the module docstring.
BLOCK = 2**12


@dataclass
class GhostTrace:
    """Uncompressed shadow of one recorded run.

    Rows of u and x_hat align with the source trace's history rows (step t);
    final_x_hat is the ghost counterpart of the run's final iterate.
    """

    u: np.ndarray
    x_hat: np.ndarray
    final_x_hat: np.ndarray
    source: RunTrace

    def residuals(self) -> np.ndarray:
        """Per-step gaps x_t - xhat_t, with the final iterates as the last row."""
        hist = self.source.history
        gaps = hist.x - self.x_hat
        final = (self.source.final_x - self.final_x_hat)[None, :]
        return np.concatenate([gaps, final], axis=0)


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a 1-d float64 vector, bit for bit: sqrt(v.dot(v))."""
    return math.sqrt(v.dot(v))


def _require_history(trace: RunTrace) -> None:
    if trace.history is None:
        raise ConfigError("this analysis needs a run recorded with record_history=True")


def _ghost_blocks(trace: RunTrace):
    """The ghost recursion with O(d) state: yields (u, x_hat) for each block
    of history rows in order, row 0 alone first, then the final x_hat.

    A block's rows live in buffers the next block overwrites, so a caller
    uses them before it asks for the next.  Only u_t steps row by row.  A
    block's pulls a_t * b_t are one product of the column of a_t with the
    block of a_bar, and its x_hat one np.subtract.accumulate down the
    carried x_hat and gamma * u_{t-1}: elementwise the products and
    differences a row would make.
    """
    hist = trace.history
    schedule = trace.config.schedule
    gamma = trace.config.gamma
    steps, dim = hist.x.shape
    rows = max(1, BLOCK // dim)
    # Row 0 carries u_{lo-1} and x_hat_{lo-1} into the block starting at lo.
    u, x_hat = np.empty((2, min(rows, steps) + 1, dim))
    u[0], x_hat[0] = trace.v0, trace.x0
    yield u[:1], x_hat[:1]
    for lo in range(1, steps, rows):
        alphas = [schedule.at(t) for t in range(lo, min(lo + rows, steps))]
        k = len(alphas)
        np.multiply(np.array(alphas)[:, None], hist.a_bar[lo : lo + k], out=u[1 : k + 1])
        # The x_hat rows are scratch until the block's x_hat is written.
        for a_t, prev, pull, scratch in zip(alphas, u, u[1:], x_hat[1:]):
            np.add(np.multiply(prev, 1.0 - a_t, out=scratch), pull, out=pull)
        np.multiply(u[:k], gamma, out=x_hat[1 : k + 1])
        np.subtract.accumulate(x_hat[: k + 1], axis=0, out=x_hat[: k + 1])
        yield u[1 : k + 1], x_hat[1 : k + 1]
        u[0], x_hat[0] = u[k], x_hat[k]
    yield x_hat[0] - gamma * u[0]


def _ghost_gaps(trace: RunTrace):
    """Yields x_t - xhat_t for each block of history rows, then
    final_x - final_x_hat as a block of one row."""
    walk = _ghost_blocks(trace)
    x = trace.history.x
    lo = 0
    while lo < len(x):
        _, x_hat = next(walk)
        yield x[lo : lo + len(x_hat)] - x_hat
        lo += len(x_hat)
    yield (trace.final_x - next(walk))[None]


def ghost_gap_norms(trace: RunTrace):
    """Yields ||x_t - xhat_t|| for every history row, then that of the final
    iterates: the T + 1 row norms of GhostTrace.residuals(), with O(d) state.

    Each norm is sqrt of the pairwise sum of the squared gap, which is what
    np.linalg.norm(gaps, axis=1) computes for each row of a C-contiguous
    stack, so the values match it bit for bit (a 1-d np.linalg.norm goes
    through dot, whose sum differs).
    """
    _require_history(trace)
    for gaps in _ghost_gaps(trace):
        for square in gaps * gaps:
            yield math.sqrt(np.add.reduce(square))


def ghost_run(trace: RunTrace) -> GhostTrace:
    """Replay the estimator recursion on recorded estimates, uncompressed."""
    _require_history(trace)
    u = np.zeros_like(trace.history.x)
    x_hat = np.zeros_like(trace.history.x)
    walk = _ghost_blocks(trace)
    lo = 0
    while lo < len(u):
        u_rows, x_rows = next(walk)
        u[lo : lo + len(u_rows)], x_hat[lo : lo + len(x_rows)] = u_rows, x_rows
        lo += len(u_rows)
    return GhostTrace(u=u, x_hat=x_hat, final_x_hat=next(walk), source=trace)


def residual_closed_form(
    delta_bar_hist: np.ndarray,
    eta1: float,
    eta2: float,
    c1: float,
    c2: float,
    alpha: float,
    gamma: float,
    c2_sign: int = 1,
):
    """Predicted gaps x_t - xhat_t from the aggregated residual history alone.

    delta_bar_hist rows are steps s = 0, 1, ..., T - 1; row 0 is the (zero)
    residual of the uncompressed warm-start step.  Returns an iterator over
    the predictions for t = 0, 1, ..., T, one row at a time.  It reads the
    residuals a block of rows at a time and keeps the running sums Q and H
    of the module docstring, so its state is O(d).  Valid for beta = 1 and a
    constant schedule; c2_sign selects the sign of the c2 term.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    if c2_sign not in (1, -1):
        raise ConfigError(f"c2_sign must be +1 or -1, got {c2_sign}")
    return _running_sums(delta_bar_hist, eta1, eta2 * c1, c2_sign * eta2 * c2, alpha, gamma)


def _running_sums(delta_bar_hist, w0, w1, w2, alpha, gamma):
    # D_s = w0 delta_bar_s - w1 delta_bar_{s-1} + w2 delta_bar_{s-2}
    steps, dim = delta_bar_hist.shape
    rows = max(1, BLOCK // dim)
    keep = 1.0 - alpha
    q = h = np.zeros(dim)
    # A block's residuals after the two rows before it (zeros before row 0).
    window = np.zeros((2, dim))
    yield np.zeros(dim)
    for lo in range(0, steps, rows):
        window = np.concatenate((window[-2:], delta_bar_hist[lo : lo + rows]))
        d = w0 * window[2:]
        d -= w1 * window[1:-1]
        d += w2 * window[:-2]
        h_rows = np.empty_like(d)
        for h_row, d_row in zip(h_rows, d):
            h = np.multiply(np.add(h, d_row, out=h_row), keep, out=h_row)
        d[0] += q
        q = np.add.accumulate(d, axis=0, out=d)[-1]
        predicted = d - h_rows
        predicted *= gamma / alpha
        yield from predicted


@dataclass
class IdentityReport:
    """Outcome of checking the closed form against the ghost difference."""

    max_rel_error_plus: float
    max_rel_error_minus: float
    resolved_sign: int | None
    max_rel_error: float
    tolerance: float

    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def verify_residual_identity(trace: RunTrace, tolerance: float = 1e-9) -> IdentityReport:
    """Check the closed-form residual against the brute-force ghost gap.

    Tries both signs of the c2 term and reports which one satisfies the
    identity; raises VerificationError if neither does.  Requires beta = 1
    and a constant schedule (the closed form assumes both).

    One forward pass over the history in blocks of rows (see the module
    docstring): the ghost recursion and, through one residual_closed_form
    per sign, the running sums Q_t and H_t of the combined residual D_s
    advance in lockstep.  Only the running maxima of ||x_t - xhat_t|| and of
    each sign's ||(x_t - xhat_t) - predicted_t|| are kept, so the check holds
    O(d) state, and at most a block of BLOCK elements per array, whatever the
    horizon.  A sign's relative error is its largest gap over the largest
    observed norm.  Each norm is sqrt(v.dot(v)), the bits of np.linalg.norm
    on a 1-d vector.
    """
    config = trace.config
    if config.scheme.beta != 1.0:
        raise ConfigError(f"closed form needs beta = 1, got {config.scheme.beta}")
    if not config.schedule.is_constant():
        raise ConfigError("closed form needs a constant schedule")
    _require_history(trace)

    alpha = config.schedule.at(1)
    coefficients = (*scheme_coefficients(config.scheme, alpha), alpha, config.gamma)
    closed_forms = [
        residual_closed_form(trace.history.delta_bar, *coefficients, c2_sign=sign) for sign in (1, -1)
    ]
    scale = worst_plus = worst_minus = 0.0
    for gaps in _ghost_gaps(trace):
        for observed, plus, minus in zip(gaps, *closed_forms):
            scale = max(scale, _norm(observed))
            worst_plus = max(worst_plus, _norm(observed - plus))
            worst_minus = max(worst_minus, _norm(observed - minus))
    scale = max(scale, _TINY)
    errors = {1: worst_plus / scale, -1: worst_minus / scale}

    plus_ok = errors[1] <= tolerance
    minus_ok = errors[-1] <= tolerance
    if plus_ok and minus_ok:
        # Both signs fit: the c2 term is inert (c2 = 0, or residuals too
        # small to distinguish), so no sign is genuinely resolved.
        resolved = None
        best = min(errors[1], errors[-1])
    elif plus_ok:
        resolved, best = 1, errors[1]
    elif minus_ok:
        resolved, best = -1, errors[-1]
    else:
        raise VerificationError(
            "closed-form residual identity failed for both c2 signs: "
            f"rel errors +:{errors[1]:.3e} -:{errors[-1]:.3e} (tol {tolerance:.1e})"
        )
    return IdentityReport(
        max_rel_error_plus=errors[1],
        max_rel_error_minus=errors[-1],
        resolved_sign=resolved,
        max_rel_error=best,
        tolerance=tolerance,
    )


@dataclass
class SchemeComparison:
    """Residual-sum comparison across compensation schemes on shared seeds."""

    sums: dict
    eps_hat: dict
    per_step_max: dict
    gamma: float
    alpha: float
    diverged: dict

    def ordering_ok(self) -> bool:
        """two_step < single < none on the summed squared gaps."""
        have = [k for k in ("two_step", "single", "none") if k in self.sums]
        vals = [self.sums[k] for k in have]
        return all(a < b for a, b in zip(vals, vals[1:]))

    def ecx_per_step_bound_ok(self, slack: float = 2.0) -> bool:
        """Per-step non-accumulation: every gap <= slack * gamma * eps_hat."""
        if "two_step" not in self.per_step_max:
            return False
        bound = slack * self.gamma * self.eps_hat["two_step"]
        return self.per_step_max["two_step"] <= bound


def residual_sum_comparison(traces: dict) -> SchemeComparison:
    """Compare summed squared ghost gaps across schemes run on shared seeds.

    traces maps scheme kind -> RunTrace (history recorded).  Entries whose
    runs diverged may be passed as None; they are reported as diverged and
    skipped in the sums.  Each run's gaps stream from ghost_gap_norms, so no
    (T, d) array is built.
    """
    if not traces:
        raise ConfigError("need at least one trace to compare")
    sums = {}
    eps = {}
    per_step = {}
    diverged = {}
    gamma = None
    alpha = None
    for kind, trace in traces.items():
        if trace is None:
            diverged[kind] = True
            continue
        diverged[kind] = False
        gamma = trace.config.gamma
        alpha = trace.config.schedule.at(1)
        gaps = np.fromiter(ghost_gap_norms(trace), dtype=np.float64)
        sums[kind] = float(np.dot(gaps, gaps))
        per_step[kind] = float(gaps.max())
        eps[kind] = trace.eps_hat()
    if gamma is None:
        raise ConfigError("every compared run diverged; nothing to sum")
    return SchemeComparison(
        sums=sums,
        eps_hat=eps,
        per_step_max=per_step,
        gamma=gamma,
        alpha=alpha,
        diverged=diverged,
    )


def u_hat_run(trace: RunTrace) -> np.ndarray:
    """Re-evaluated ghost estimates: the estimator recursion driven by
    gradients taken AT the ghost points with the run's own sample handles.

    Costs one extra pass of gradient work; rows align with the history.
    """
    _require_history(trace)
    config = trace.config
    _, _, grad = build_context(config)

    ghost = ghost_run(trace)
    schedule = config.schedule
    steps = ghost.x_hat.shape[0]
    estimator = Estimator(kind=config.estimator, schedule=schedule, x_prev=ghost.x_hat[0])
    estimator.v = trace.v0.copy()
    u_hat = np.zeros_like(ghost.x_hat)
    u_hat[0] = trace.v0
    for t in range(1, steps):
        a_t = schedule.at(t)
        estimates = [
            estimator.eval_a(ghost.x_hat[t], SampleHandle(t=t, worker=i, draw=0), a_t, grad)
            for i in range(config.n_workers)
        ]
        estimator.advance(ghost.x_hat[t])
        u_hat[t] = estimator.update_v(fixed_order_mean(estimates), a_t)
    return u_hat


def diagnostic_At(
    ghost: GhostTrace, u_hat: np.ndarray, problem, smooth_l: float, gamma: float
) -> np.ndarray:
    """Per-step descent diagnostic evaluated on the ghost trajectory:

        A_t = ||grad f(xhat_t) - uhat_t||^2
              - (1 - 2 L gamma) ||uhat_t||^2 - ||grad f(xhat_t)||^2 / 4.

    Negative values are the healthy regime; the derivation behind the bound
    needs gamma <= 1/L, so larger steps trigger a warning.
    """
    if smooth_l > 0.0 and gamma > 1.0 / smooth_l:
        warnings.warn(
            f"diagnostic assumes gamma <= 1/L; gamma={gamma} exceeds 1/L={1.0 / smooth_l}",
            stacklevel=2,
        )
    steps = ghost.x_hat.shape[0]
    if u_hat.shape != ghost.x_hat.shape:
        raise ConfigError(
            f"u_hat shape {u_hat.shape} does not match ghost trajectory {ghost.x_hat.shape}"
        )
    out = np.zeros(steps)
    for t in range(steps):
        g = full_grad(problem, ghost.x_hat[t])
        mismatch = g - u_hat[t]
        out[t] = (
            float(np.dot(mismatch, mismatch))
            - (1.0 - 2.0 * smooth_l * gamma) * float(np.dot(u_hat[t], u_hat[t]))
            - 0.25 * float(np.dot(g, g))
        )
    return out


def uncompressed_reference(config: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Straight-line uncompressed run sharing the problem and sample streams.

    Independent of the simulator's protocol code: no compensation states, no
    compressor calls, no message plumbing.  Returns (x_hist, v_hist,
    final_x) with rows aligned the same way as RunHistory.
    """
    problem, _, grad = build_context(config)
    dim = problem.dim
    schedule = config.schedule
    x = config.x0_scale * np.ones(dim)
    x_prev_for_estimator = x
    grads0 = [
        grad(x, SampleHandle(t=0, worker=j % config.n_workers, draw=j)) for j in range(config.b0)
    ]
    v = fixed_order_mean(grads0)

    x_hist = np.zeros((config.steps, dim))
    v_hist = np.zeros((config.steps, dim))
    x_hist[0] = x
    v_hist[0] = v
    x = x - config.gamma * v
    for t in range(1, config.steps):
        a_t = schedule.at(t)
        estimates = []
        for i in range(config.n_workers):
            handle = SampleHandle(t=t, worker=i, draw=0)
            if config.estimator in ("sgd", "momentum"):
                estimates.append(grad(x, handle))
            elif config.estimator in ("storm", "root_sgd"):
                g_now = grad(x, handle)
                g_prev = grad(x_prev_for_estimator, handle)
                estimates.append((g_now - (1.0 - a_t) * g_prev) / a_t)
            else:  # igt
                shift = (1.0 - a_t) / a_t
                point = x + shift * (x - x_prev_for_estimator)
                estimates.append(grad(point, handle))
        x_prev_for_estimator = x
        v = (1.0 - a_t) * v + a_t * fixed_order_mean(estimates)
        x_hist[t] = x
        v_hist[t] = v
        x = x - config.gamma * v
    return x_hist, v_hist, x


def coefficient_form_run(config: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-node stepper in the unified coefficient form.

    Applies v_t = (1-a_t) v_{t-1} + a_t A_t + eta2 e_t - eta1 delta_t with
    (eta1, eta2, c1, c2) from scheme_coefficients, where delta_t is the
    residual of compressing the same message the protocol transmits
    (a_t A_t + e_t for none/single, A_t + e_t for two_step).  This is the
    same algorithm as the simulator's transmit-then-blend form up to float
    associativity; the filter here uses the constant-schedule table weights,
    so equivalence holds for constant schedules.  Returns
    (x_hist, v_hist, final_x).
    """
    if config.n_workers != 1:
        raise ConfigError("coefficient-form stepper is defined for a single worker")
    problem, _, grad = build_context(config)
    worker_spec, _ = config.resolved_compressors()
    dim = problem.dim
    schedule = config.schedule
    beta = config.scheme.beta
    x = config.x0_scale * np.ones(dim)
    estimator = Estimator(kind=config.estimator, schedule=schedule, x_prev=x)
    grads0 = [grad(x, SampleHandle(t=0, worker=0, draw=j)) for j in range(config.b0)]
    v = fixed_order_mean(grads0)

    e = np.zeros(dim)
    delta_1 = np.zeros(dim)
    delta_2 = np.zeros(dim)
    x_hist = np.zeros((config.steps, dim))
    v_hist = np.zeros((config.steps, dim))
    x_hist[0] = x
    v_hist[0] = v
    x = x - config.gamma * v
    for t in range(1, config.steps):
        a_t = schedule.at(t)
        eta1, eta2, c1, c2 = scheme_coefficients(config.scheme, a_t)
        e = (1.0 - beta) * e + beta * (c1 * delta_1 - c2 * delta_2)
        a_vec = estimator.eval_a(x, SampleHandle(t=t, worker=0, draw=0), a_t, grad)
        if transmits_weighted_increment(config.scheme):
            outgoing = a_t * a_vec + e
        else:
            outgoing = a_vec + e
        result = compress(outgoing, worker_spec, step=t, node_id=0)
        delta_2, delta_1 = delta_1, result.residual
        estimator.advance(x)
        v = (1.0 - a_t) * v + a_t * a_vec + eta2 * e - eta1 * result.residual
        estimator.v = v
        x_hist[t] = x
        v_hist[t] = v
        x = x - config.gamma * v
    return x_hist, v_hist, x
