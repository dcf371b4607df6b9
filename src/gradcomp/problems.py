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
"""

from __future__ import annotations

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
            raise ConfigError(f"unknown problem kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "quadratic":
            if len(self.spectrum) == 0:
                raise ConfigError("quadratic problem needs a non-empty spectrum")
            if any(v < 0 for v in self.spectrum):
                raise ConfigError("quadratic spectrum must be non-negative")
        else:
            if self.dim < 1:
                raise ConfigError(f"{self.kind} needs dim >= 1, got {self.dim}")
            if self.n_samples < self.dim:
                raise ConfigError(
                    f"{self.kind} needs n_samples >= dim for the designed spectrum, "
                    f"got {self.n_samples} < {self.dim}"
                )
            if self.condition < 1.0:
                raise ConfigError(f"condition must be >= 1, got {self.condition}")
            if self.noise_std < 0.0:
                raise ConfigError("noise_std must be non-negative")
            if self.l2_reg < 0.0:
                raise ConfigError("l2_reg must be non-negative")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


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
    """One worker's slice of the dataset (indices is None for sample-free problems)."""

    worker: int
    indices: np.ndarray | None

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
        self.dim = self.h.size
        self.n_samples = 0

    def loss(self, x) -> float:
        return float(0.5 * np.dot(x, self.h * x))

    def full_grad(self, x) -> np.ndarray:
        return self.h * np.asarray(x, dtype=np.float64)

    def grad_at(self, x, indices) -> np.ndarray:
        return self.full_grad(x)

    def minimizer(self) -> np.ndarray:
        return np.zeros(self.dim)

    def f_star(self) -> float:
        return 0.0

    def smoothness(self) -> float:
        return float(self.h.max())

    def smoothness_per_sample(self) -> float:
        return self.smoothness()


class LinearRegression:
    """f(x) = (1/2N) ||Xx - y||^2 with an exactly conditioned design."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.dim = spec.dim
        self.n_samples = spec.n_samples
        rng = keyed_generator(spec.seed, STREAM_DATA)
        self.x_mat = _designed_matrix(rng, spec.n_samples, spec.dim, spec.condition)
        w = rng.standard_normal(spec.dim)
        self.w_true = w / np.linalg.norm(w)
        self.y = self.x_mat @ self.w_true + spec.noise_std * rng.standard_normal(spec.n_samples)

    def loss(self, x) -> float:
        r = self.x_mat @ x - self.y
        return float(0.5 * np.dot(r, r) / self.n_samples)

    def full_grad(self, x) -> np.ndarray:
        return self.x_mat.T @ (self.x_mat @ x - self.y) / self.n_samples

    def grad_at(self, x, indices) -> np.ndarray:
        rows = self.x_mat[indices]
        return rows.T @ (rows @ x - self.y[indices]) / len(indices)

    def minimizer(self) -> np.ndarray:
        sol, *_ = np.linalg.lstsq(self.x_mat, self.y, rcond=None)
        return sol

    def f_star(self) -> float:
        return self.loss(self.minimizer())

    def smoothness(self) -> float:
        gram = self.x_mat.T @ self.x_mat / self.n_samples
        return float(np.linalg.eigvalsh(gram).max())

    def smoothness_per_sample(self) -> float:
        return float((self.x_mat * self.x_mat).sum(axis=1).max())

    def target(self) -> np.ndarray:
        return self.y


class LogisticRegression:
    """f(x) = mean log(1 + exp(-y_j x'a_j)) + (l2/2)||x||^2, labels y in {-1,+1}."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.dim = spec.dim
        self.n_samples = spec.n_samples
        rng = keyed_generator(spec.seed, STREAM_DATA)
        self.x_mat = _designed_matrix(rng, spec.n_samples, spec.dim, spec.condition)
        w = rng.standard_normal(spec.dim)
        self.w_true = w / np.linalg.norm(w)
        margin = self.x_mat @ self.w_true
        p = 1.0 / (1.0 + np.exp(-4.0 * margin))
        self.y = np.where(rng.random(spec.n_samples) < p, 1.0, -1.0)

    def loss(self, x) -> float:
        m = self.y * (self.x_mat @ x)
        # log(1 + exp(-m)) evaluated stably for both signs of m.
        val = np.logaddexp(0.0, -m).mean()
        return float(val + 0.5 * self.spec.l2_reg * np.dot(x, x))

    def _sigma_neg(self, m) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(m))

    def full_grad(self, x) -> np.ndarray:
        m = self.y * (self.x_mat @ x)
        coeff = -self.y * self._sigma_neg(m)
        return self.x_mat.T @ coeff / self.n_samples + self.spec.l2_reg * np.asarray(x)

    def grad_at(self, x, indices) -> np.ndarray:
        rows = self.x_mat[indices]
        yb = self.y[indices]
        m = yb * (rows @ x)
        coeff = -yb * self._sigma_neg(m)
        return rows.T @ coeff / len(indices) + self.spec.l2_reg * np.asarray(x)

    def smoothness(self) -> float:
        op = np.linalg.norm(self.x_mat, ord=2)
        return float(op * op / (4.0 * self.n_samples) + self.spec.l2_reg)

    def smoothness_per_sample(self) -> float:
        return float((self.x_mat * self.x_mat).sum(axis=1).max() / 4.0 + self.spec.l2_reg)

    def target(self) -> np.ndarray:
        return self.y


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
    if shard.indices.size == 0:
        raise ConfigError(f"worker {shard.worker} has an empty shard")
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
    for shard in shards:
        if shard.size() == 0:
            raise ConfigError(f"worker {shard.worker} has an empty shard")
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
    if problem.n_samples == 0:
        return problem.full_grad(x)
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
    if shard.size() == 0:
        raise ConfigError(f"worker {shard.worker} has an empty shard")
    center = problem.grad_at(x, shard.indices)
    total = 0.0
    # draw index outside the training range (training uses small draw values)
    # so diagnostic sampling never collides with a run's own minibatches.
    for j in range(trials):
        g = stoch_grad(problem, shard, x, SampleHandle(t=j, worker=shard.worker, draw=2**20))
        diff = g - center
        total += float(np.dot(diff, diff))
    return total / trials
