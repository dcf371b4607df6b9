"""Synthetic objectives with controllable smoothness and noise.

Three problem kinds cover the regimes the simulator cares about:

* quadratic    f(x) = 0.5 x'Hx with a chosen diagonal spectrum; deterministic
               (stochastic gradients coincide with the full gradient).
* lin_reg      least squares on a generated design whose Gram matrix has an
               exact, chosen eigenvalue spectrum, plus Gaussian label noise.
* log_reg      l2-regularized logistic regression on a generated design with
               Bernoulli labels.

Datasets are fixed at construction; all stochasticity during optimization
comes from minibatch sampling with replacement, keyed by SampleHandle so any
draw can be replayed at a different point (needed by estimators that evaluate
the same sample at two iterates).

A dataset problem's grad_at(x, indices) also takes an (n, batch) stack of
minibatches, one row per worker, and returns the (n, d) stack of their
gradients.  Every row goes through the same float operations (a gather,
rows @ x, the transposed rows times the residual, then division by the
batch size) as a lone call on that row, so the stack equals the row-by-row
calls bit for bit; the simulator evaluates its whole fleet this way.  A
quadratic's grad_at returns the (d,) full gradient for indices of any shape.

A problem's arrays (x_mat, y, w_true; h for quadratic) are read-only, so a
problem can be shared between runs without one run's writes reaching the
next.  The two dataset kinds start loss and full_grad from the same pass
over the data, the residual Xx - y (lin_reg) or the margin y * Xx (log_reg),
and keep the last one in a one-entry memo keyed on the bytes of x: a loss
right after a full_grad at the same point (as the simulator's _objective
makes them) reads the data once.  The memoised vector is read-only too,
and the memo holds a single vector per problem.  A quadratic has no memo:
its pass is h * x, which costs no more than copying x into a key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .rng import STREAM_DATA, STREAM_PARTITION, STREAM_SAMPLE, keyed_generator, keyed_integers

KINDS = ("quadratic", "lin_reg", "log_reg")
# The kinds that generate a dataset; quadratic has none.
_DATASET = {"kinds": ("lin_reg", "log_reg")}


@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to rebuild a problem instance bit for bit.

    spectrum    quadratic only: Hessian eigenvalues, all >= 0.
    dim         feature dimension (implied by spectrum for quadratic).
    n_samples   dataset size for lin_reg / log_reg.
    noise_std   lin_reg label noise standard deviation.
    l2_reg      log_reg ridge coefficient.
    condition   condition number of the generated Gram matrix X'X/N; its
                largest eigenvalue is pinned to 1 so lin_reg has L = 1.
    batch_size  minibatch size for stochastic gradients.
    seed        keys dataset generation and minibatch sampling.
    """

    kind: str
    spectrum: tuple[float, ...] = field(default=(), metadata={"kinds": ("quadratic",)})
    dim: int = field(default=0, metadata=_DATASET)
    n_samples: int = field(default=0, metadata=_DATASET)
    noise_std: float = field(default=0.0, metadata={"kinds": ("lin_reg",)})
    l2_reg: float = field(default=0.0, metadata={"kinds": ("log_reg",)})
    condition: float = field(default=10.0, metadata=_DATASET)
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown problem kind {self.kind!r}, expected one of {KINDS}", "kind")
        for name in ("noise_std", "l2_reg", "condition"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"must be finite, got {getattr(self, name)}", name)
        if not all(map(math.isfinite, self.spectrum)):
            bad = next(v for v in self.spectrum if not math.isfinite(v))
            raise ConfigError(f"must be finite, got {bad}", "spectrum")
        if self.kind == "quadratic":
            if len(self.spectrum) == 0:
                raise ConfigError("a quadratic problem needs a non-empty spectrum", "spectrum")
            if min(self.spectrum) < 0:
                raise ConfigError(f"must be non-negative, got {min(self.spectrum)}", "spectrum")
        else:
            if self.dim < 1:
                raise ConfigError(f"{self.kind} needs dim >= 1, got {self.dim}", "dim")
            if self.n_samples < self.dim:
                raise ConfigError(
                    f"{self.kind} needs n_samples >= dim for the designed spectrum, "
                    f"got {self.n_samples} < {self.dim}",
                    "n_samples",
                )
            if self.condition < 1.0:
                raise ConfigError(f"must be >= 1, got {self.condition}", "condition")
            if self.noise_std < 0.0:
                raise ConfigError(f"must be non-negative, got {self.noise_std}", "noise_std")
            if self.l2_reg < 0.0:
                raise ConfigError(f"must be non-negative, got {self.l2_reg}", "l2_reg")
        if self.batch_size < 1:
            raise ConfigError(f"must be >= 1, got {self.batch_size}", "batch_size")
        if self.seed < 0:
            raise ConfigError(f"must be non-negative, got {self.seed}", "seed")


@dataclass(frozen=True)
class SampleHandle:
    """Pins one minibatch draw: (step, worker, draw index, salt).

    The indices it selects depend only on these integers and the problem
    seed, so re-evaluating a gradient with the same handle at a different
    point reuses exactly the same samples.  The salt separates sampling
    streams of otherwise identical runs (the simulator passes its run
    seed), keeping repeated runs reproducible without sharing draws.
    """

    t: int
    worker: int
    draw: int = 0
    salt: int = 0

    def __post_init__(self):
        if self.t < 0 or self.worker < 0 or self.draw < 0 or self.salt < 0:
            raise ConfigError(f"sample handle fields must be non-negative, got {self}")


@dataclass(frozen=True)
class Shard:
    """One worker's slice of the dataset (indices is None for sample-free problems).

    An empty index array is rejected here, so every sampler may draw from
    any shard it is given.
    """

    worker: int
    indices: np.ndarray | None

    def __post_init__(self):
        if self.indices is not None and self.indices.size == 0:
            raise ConfigError(f"worker {self.worker} has an empty shard")

    def size(self) -> int:
        return 0 if self.indices is None else int(self.indices.size)


def _designed_matrix(rng, n_samples: int, dim: int, condition: float) -> np.ndarray:
    """Design X whose Gram matrix X'X/N has eigenvalues geomspace(1, 1/condition)."""
    gram_eigs = np.geomspace(1.0, 1.0 / condition, dim)
    raw = rng.standard_normal((n_samples, dim))
    u, _, vt = np.linalg.svd(raw, full_matrices=False)
    singular = np.sqrt(n_samples * gram_eigs)
    return (u * singular) @ vt


class Quadratic:
    """f(x) = 0.5 x'Hx, H = diag(spectrum). No data, no noise."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.h = np.asarray(spec.spectrum, dtype=np.float64)
        self.h.flags.writeable = False
        self.dim = self.h.size
        self.n_samples = 0

    def loss(self, x) -> float:
        return float(0.5 * np.dot(x, self.h * x))

    def full_grad(self, x) -> np.ndarray:
        return self.h * np.asarray(x, dtype=np.float64)

    def grad_at(self, x, indices) -> np.ndarray:
        """The full gradient, (d,) for indices of any shape: there is no data."""
        return self.full_grad(x)

    def smoothness(self) -> float:
        return float(self.h.max())


def _weighted_row_mean(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights[..., j] rows[..., j, :] / batch, for (..., batch, d) rows.

    Each minibatch of a stack is one matrix-vector product of its transposed
    rows, the product a lone (batch, d) minibatch takes, so every row of the
    result has that minibatch's bits.
    """
    return (np.swapaxes(rows, -1, -2) @ weights[..., None])[..., 0] / weights.shape[-1]


class _Dataset:
    """What lin_reg and log_reg share: the designed data and the memoised pass.

    A subclass draws its labels in _labels and defines the pass over the
    data that loss and full_grad both start from in _compute_pass.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.dim = spec.dim
        self.n_samples = spec.n_samples
        rng = keyed_generator(spec.seed, STREAM_DATA)
        self.x_mat = _designed_matrix(rng, spec.n_samples, spec.dim, spec.condition)
        w = rng.standard_normal(spec.dim)
        self.w_true = w / np.linalg.norm(w)
        self.y = self._labels(rng)
        for array in (self.x_mat, self.w_true, self.y):
            array.flags.writeable = False
        self._memo = (None, None)

    def _pass(self, x) -> np.ndarray:
        """_compute_pass(x), read-only; a repeat at the same bytes of x reuses it."""
        x = np.asarray(x, dtype=np.float64)
        key = (x.shape, x.tobytes())
        memo_key, value = self._memo
        if memo_key != key:
            value = self._compute_pass(x)
            value.flags.writeable = False
            self._memo = (key, value)
        return value

    def target(self) -> np.ndarray:
        return self.y


class LinearRegression(_Dataset):
    """f(x) = (1/2N) ||Xx - y||^2 with an exactly conditioned design."""

    def _labels(self, rng) -> np.ndarray:
        return self.x_mat @ self.w_true + self.spec.noise_std * rng.standard_normal(self.n_samples)

    def _compute_pass(self, x) -> np.ndarray:
        """The residual Xx - y."""
        return self.x_mat @ x - self.y

    def loss(self, x) -> float:
        r = self._pass(x)
        return float(0.5 * np.dot(r, r) / self.n_samples)

    def full_grad(self, x) -> np.ndarray:
        return self.x_mat.T @ self._pass(x) / self.n_samples

    def grad_at(self, x, indices) -> np.ndarray:
        """Minibatch gradient at x; indices of shape (..., batch) give (..., d)."""
        indices = np.asarray(indices)
        rows = self.x_mat[indices]
        return _weighted_row_mean(rows, rows @ x - self.y[indices])

    def smoothness(self) -> float:
        gram = self.x_mat.T @ self.x_mat / self.n_samples
        return float(np.linalg.eigvalsh(gram).max())


class LogisticRegression(_Dataset):
    """f(x) = mean log(1 + exp(-y_j x'a_j)) + (l2/2)||x||^2, labels y in {-1,+1}."""

    def _labels(self, rng) -> np.ndarray:
        margin = self.x_mat @ self.w_true
        p = 1.0 / (1.0 + np.exp(-4.0 * margin))
        return np.where(rng.random(self.n_samples) < p, 1.0, -1.0)

    def _compute_pass(self, x) -> np.ndarray:
        """The margins y * Xx."""
        return self.y * (self.x_mat @ x)

    def loss(self, x) -> float:
        m = self._pass(x)
        # log(1 + exp(-m)) evaluated stably for both signs of m.
        val = np.logaddexp(0.0, -m).mean()
        return float(val + 0.5 * self.spec.l2_reg * np.dot(x, x))

    def _sigma_neg(self, m) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(m))

    def full_grad(self, x) -> np.ndarray:
        coeff = -self.y * self._sigma_neg(self._pass(x))
        return self.x_mat.T @ coeff / self.n_samples + self.spec.l2_reg * np.asarray(x)

    def grad_at(self, x, indices) -> np.ndarray:
        """Minibatch gradient at x; indices of shape (..., batch) give (..., d)."""
        indices = np.asarray(indices)
        rows = self.x_mat[indices]
        yb = self.y[indices]
        m = yb * (rows @ x)
        coeff = -yb * self._sigma_neg(m)
        return _weighted_row_mean(rows, coeff) + self.spec.l2_reg * np.asarray(x)

    def smoothness(self) -> float:
        op = np.linalg.norm(self.x_mat, ord=2)
        return float(op * op / (4.0 * self.n_samples) + self.spec.l2_reg)


def make_problem(spec: ProblemSpec):
    if spec.kind == "quadratic":
        return Quadratic(spec)
    if spec.kind == "lin_reg":
        return LinearRegression(spec)
    return LogisticRegression(spec)


def loss(problem, x) -> float:
    return problem.loss(np.asarray(x, dtype=np.float64))


def full_grad(problem, x) -> np.ndarray:
    return problem.full_grad(np.asarray(x, dtype=np.float64))


def minibatch_indices(problem, shard: Shard, handle: SampleHandle) -> np.ndarray:
    """Dataset indices for the minibatch this handle pins (with replacement)."""
    if shard.indices is None:
        return np.empty(0, dtype=np.int64)
    rng = keyed_generator(
        problem.spec.seed, STREAM_SAMPLE, handle.t, handle.worker, handle.draw, handle.salt
    )
    pos = rng.integers(0, shard.indices.size, size=problem.spec.batch_size)
    return shard.indices[pos]


def fleet_minibatches(problem, shards: list[Shard], t0: int, t1: int, salt: int = 0) -> np.ndarray:
    """Minibatches of handles (t, i, 0, salt) for t0 <= t < t1, as (t1 - t0, n, batch).

    Entry [t - t0, i] equals minibatch_indices(problem, shards[i],
    SampleHandle(t, i, 0, salt)) bit for bit; keyed_integers draws the
    whole block at once.
    """
    steps, n = t1 - t0, len(shards)
    if problem.n_samples == 0:
        return np.empty((steps, n, 0), dtype=np.int64)
    keys = np.empty((steps, n, 5), dtype=np.int64 if salt < 2**63 else object)
    keys[...] = (STREAM_SAMPLE, 0, 0, 0, salt)
    keys[..., 1] = np.arange(t0, t1)[:, None]
    keys[..., 2] = np.arange(n)
    sizes = np.tile([shard.size() for shard in shards], steps)
    batch = problem.spec.batch_size
    pos = keyed_integers(problem.spec.seed, keys.reshape(-1, 5), sizes, batch)
    pos = pos.reshape(steps, n, batch)
    return np.stack([shard.indices[pos[:, i]] for i, shard in enumerate(shards)], axis=1)


def stoch_grad(problem, shard: Shard, x, handle: SampleHandle) -> np.ndarray:
    """Minibatch gradient at x for the samples the handle pins."""
    x = np.asarray(x, dtype=np.float64)
    return problem.grad_at(x, minibatch_indices(problem, shard, handle))


def shard_sampler(problem, shards: list[Shard], salt: int = 0):
    """Gradient oracle over a fleet's shards, with every handle salted.

    The returned callable routes each handle to its worker's shard and
    stamps the run-level salt on it, so two runs that differ only in seed
    sample different minibatches while each stays reproducible.
    """

    def grad(x, handle: SampleHandle) -> np.ndarray:
        if handle.salt != salt:
            handle = replace(handle, salt=salt)
        return stoch_grad(problem, shards[handle.worker], x, handle)

    return grad


def partition_data(problem, n: int, seed: int, heterogeneity: float = 0.0) -> list[Shard]:
    """Split the dataset into n shards whose sizes differ by at most one.

    heterogeneity 0 gives an iid random split; 1 sorts samples by target
    before the contiguous split (maximally non-iid); values between blend
    the two orderings by ranking a convex combination of normalized target
    rank and uniform noise.
    """
    if n < 1:
        raise ConfigError(f"need at least one worker, got {n}")
    if not 0.0 <= heterogeneity <= 1.0:
        raise ConfigError(f"heterogeneity must be in [0, 1], got {heterogeneity}")
    if problem.n_samples == 0:
        return [Shard(worker=i, indices=None) for i in range(n)]
    n_samples = problem.n_samples
    if n > n_samples:
        raise ConfigError(f"cannot split {n_samples} samples across {n} workers")
    rng = keyed_generator(seed, STREAM_PARTITION, n)
    target_rank = np.empty(n_samples)
    target_rank[np.argsort(problem.target(), kind="stable")] = np.arange(n_samples)
    score = heterogeneity * target_rank / n_samples + (1.0 - heterogeneity) * rng.random(n_samples)
    order = np.argsort(score, kind="stable")
    sizes = np.full(n, n_samples // n)
    sizes[: n_samples % n] += 1
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    return [
        Shard(worker=i, indices=np.sort(order[bounds[i]:bounds[i + 1]]))
        for i in range(n)
    ]


def variance_sigma2(problem, shard: Shard, x, trials: int) -> float:
    """Empirical variance of the shard's stochastic gradient at x."""
    if trials < 2:
        raise ConfigError(f"variance estimate needs trials >= 2, got {trials}")
    x = np.asarray(x, dtype=np.float64)
    if problem.n_samples == 0:
        return 0.0
    center = problem.grad_at(x, shard.indices)
    total = 0.0
    # draw index outside the training range (training uses small draw values)
    # so diagnostic sampling never collides with a run's own minibatches.
    for j in range(trials):
        g = stoch_grad(problem, shard, x, SampleHandle(t=j, worker=shard.worker, draw=2**20))
        diff = g - center
        total += float(np.dot(diff, diff))
    return total / trials
