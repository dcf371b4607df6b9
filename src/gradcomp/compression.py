"""Lossy vector compressors and their residual bookkeeping.

Each compressor maps a dense float64 vector to a cheaper message.  The part
it throws away, ``residual = x - compressed`` (one rounding per coordinate),
is what the error-compensation schemes feed back into later steps, so the
pair (compressed, residual) is the unit of currency here rather than the
compressed vector alone.

Reconstruction exactness.  ``compressed + residual == x`` holds bitwise per
coordinate whenever the subtraction ``x - compressed`` is itself exact.  That
is guaranteed for top_k, unrescaled rand_k and identity on any input (kept
coordinates satisfy compressed == x, dropped ones compressed == 0), and for
zero coordinates under every kind.  For the kinds that emit values away from
{0, x_i} (one_bit, stoch_quant, rescaled rand_k) it is guaranteed when the
compressed coordinate is within a factor of two of the input coordinate in
magnitude (Sterbenz: the difference of two floats within a factor of two is
exact).  Outside that zone exact reconstruction is impossible for any choice
of single-float residual: x - c with |c| > 2|x| needs more significand bits
than the format has, and the deviation is at most half an ulp of the
compressed magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyTraceError
from .rng import STREAM_COMPRESS, keyed_generator

KINDS = ("one_bit", "top_k", "rand_k", "stoch_quant", "identity")

# Bits for one float64, used wherever a raw scalar or coordinate is sent.
FLOAT_BITS = 64


@dataclass(frozen=True)
class CompressorSpec:
    """What to compress with.

    kind     one of KINDS.
    k        kept coordinates for top_k / rand_k.
    levels   quantization levels per sign for stoch_quant.
    rescale  if True, rand_k multiplies kept coordinates by d/k so the
             output is unbiased; if False it keeps them verbatim (biased).
    seed     base seed for the randomized kinds (rand_k, stoch_quant).
             Draws are keyed by (seed, stream, step, node_id), so the same
             spec at the same (step, node) always makes the same decision.
             None means "inherit the run seed" when used inside a run and
             falls back to 0 for standalone calls.
    """

    kind: str
    k: int = field(default=1, metadata={"kinds": ("top_k", "rand_k")})
    levels: int = field(default=1, metadata={"kinds": ("stoch_quant",)})
    rescale: bool = field(default=True, metadata={"kinds": ("rand_k",)})
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown compressor kind {self.kind!r}, expected one of {KINDS}")
        if self.kind in ("top_k", "rand_k") and self.k < 1:
            raise ConfigError(f"compressor k must be >= 1, got {self.k}")
        if self.kind == "stoch_quant" and self.levels < 1:
            raise ConfigError(f"stoch_quant levels must be >= 1, got {self.levels}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"compressor seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class CompressionResult:
    """Compressed message plus the information it dropped."""

    compressed: np.ndarray
    residual: np.ndarray


def _check_input(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError(f"compress expects a 1-d vector, got shape {x.shape}")
    if x.size == 0:
        raise ConfigError("compress expects a non-empty vector")
    return x


def compress(x, spec: CompressorSpec, step: int = 0, node_id: int = 0) -> CompressionResult:
    """Compress x, returning the message and the residual it leaves behind.

    step and node_id key the randomized kinds so that worker draws are
    independent across steps and nodes yet exactly reproducible.
    """
    x = _check_input(x)
    d = x.size
    if spec.kind in ("top_k", "rand_k") and spec.k > d:
        raise ConfigError(f"compressor k={spec.k} exceeds vector dimension {d}")

    if spec.kind == "identity":
        compressed = x.copy()
    elif spec.kind == "one_bit":
        scale = float(np.abs(x).sum()) / d
        # sign convention: zeros (either signed zero) count as positive.
        signs = np.where(x < 0.0, -1.0, 1.0)
        compressed = scale * signs
    elif spec.kind == "top_k":
        # stable sort on -|x| keeps ties in ascending index order.
        keep = np.argsort(-np.abs(x), kind="stable")[: spec.k]
        compressed = np.zeros(d)
        compressed[keep] = x[keep]
    elif spec.kind == "rand_k":
        rng = keyed_generator(spec.seed or 0, STREAM_COMPRESS, step, node_id)
        keep = rng.choice(d, size=spec.k, replace=False)
        compressed = np.zeros(d)
        compressed[keep] = x[keep] * (d / spec.k) if spec.rescale else x[keep]
    elif spec.kind == "stoch_quant":
        scale = float(np.abs(x).max())
        if scale == 0.0:
            compressed = np.zeros(d)
        else:
            rng = keyed_generator(spec.seed or 0, STREAM_COMPRESS, step, node_id)
            z = np.abs(x) / scale * spec.levels
            low = np.floor(z)
            # round up with probability equal to the fractional part, so the
            # quantized level is unbiased for z.
            level = low + (rng.random(d) < z - low)
            compressed = np.where(x < 0.0, -1.0, 1.0) * level * (scale / spec.levels)
    else:  # unreachable: spec validates kind
        raise ConfigError(f"unknown compressor kind {spec.kind!r}")

    return CompressionResult(compressed=compressed, residual=x - compressed)


def message_bits(spec: CompressorSpec, dim: int) -> int:
    """Bits on the wire for one compressed message of dimension dim.

    one_bit      one sign bit per coordinate plus the float scale.
    top_k/rand_k k (index, value) pairs; indices cost ceil(log2 d) bits.
    stoch_quant  one signed level per coordinate (2*levels + 1 symbols)
                 plus the float scale.
    identity     the raw vector.
    """
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if spec.kind == "one_bit":
        return dim + FLOAT_BITS
    if spec.kind in ("top_k", "rand_k"):
        k = min(spec.k, dim)
        return k * (FLOAT_BITS + math.ceil(math.log2(dim)))
    if spec.kind == "stoch_quant":
        return dim * math.ceil(math.log2(2 * spec.levels + 1)) + FLOAT_BITS
    return dim * FLOAT_BITS


def measured_epsilon(residual_norms) -> float:
    """Empirical contraction bound sqrt(2) * sup of observed residual norms.

    The factor sqrt(2) keeps the estimate conservative for residual norms
    between the observed supremum and the true worst case.
    """
    norms = np.asarray(list(residual_norms), dtype=np.float64)
    if norms.size == 0:
        raise EmptyTraceError("cannot estimate a contraction bound from an empty trace")
    return float(math.sqrt(2.0) * norms.max())
