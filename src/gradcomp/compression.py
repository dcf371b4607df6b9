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

Buffer ownership.  compress takes one (d,) message or an (m, d) stack of
them.  Row j of a stack is the message of node node_id + j, and it comes out
with the bits a lone call on that row with node_id + j gives, random draws
included.  Without ``out``, compress returns two new arrays of x's shape.
With ``out=(compressed, residual)`` it writes the pair into the caller's
C-contiguous float64 buffers of x's shape and returns them, and rejects any
other buffer with a ConfigError; ``compressed`` may be the input itself, so
a fleet's messages can be compressed in place, but ``residual`` must share
no memory with either.  identity and one_bit work on the whole stack at
once: one_bit sums every row's magnitudes in one reduction over the row
axis (each row in the pairwise order of a lone sum) and signs the stack in
tiles of at most SIGN_TILE elements, so its temporaries do not grow with m
or d.  top_k, rand_k and stoch_quant compress the rows one after another.
Every kind reads a row in full, or one tile of it, before it writes that
part of ``compressed``.  Both ways run the same float operations on every
coordinate, so their results are bitwise equal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyTraceError
from .rng import STREAM_COMPRESS, keyed_generator

KINDS = ("one_bit", "top_k", "rand_k", "stoch_quant", "identity")

# Bits for one float64, used wherever a raw scalar or coordinate is sent.
FLOAT_BITS = 64
# Coordinates per tile of one_bit and stoch_quant: a tile's temporaries
# (256 KiB each) stay in a 4 MiB L2 cache while it is signed or quantized.
SIGN_TILE = 2**15
_FLOAT64 = np.dtype(np.float64)


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
            raise ConfigError(f"unknown compressor kind {self.kind!r}, expected one of {KINDS}", "kind")
        if self.kind in ("top_k", "rand_k") and self.k < 1:
            raise ConfigError(f"must be >= 1, got {self.k}", "k")
        if self.kind == "stoch_quant" and self.levels < 1:
            raise ConfigError(f"must be >= 1, got {self.levels}", "levels")
        if self.kind == "stoch_quant" and self.levels > sys.float_info.max:
            raise ConfigError("integer too large for a float", "levels")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"must be non-negative, got {self.seed}", "seed")


@dataclass(frozen=True)
class CompressionResult:
    """Compressed message plus the information it dropped."""

    compressed: np.ndarray
    residual: np.ndarray


def _check_input(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ConfigError(f"compress expects a (d,) vector or an (m, d) stack, got shape {x.shape}")
    if x.size == 0:
        raise ConfigError(f"compress expects non-empty input, got shape {x.shape}")
    return x


def _largest(x: np.ndarray, k: int, mag: np.ndarray) -> np.ndarray:
    """The set of k indices a stable argsort of -|x| puts first.

    Every coordinate above the k-th largest magnitude is kept, then the
    lowest-index ones equal to it.  NaN magnitudes sort last, so a NaN is
    kept only when fewer than k coordinates are not NaN.  mag is (d,)
    scratch; it holds |x| on return.
    """
    np.abs(x, out=mag)
    np.negative(mag, out=mag)
    mag.partition(k - 1)
    kth = -mag[k - 1]
    np.abs(x, out=mag)
    if kth != kth:  # NaN: fewer than k magnitudes are numbers
        nan = np.isnan(mag)
        above, tied = np.flatnonzero(~nan), np.flatnonzero(nan)
    else:
        above, tied = np.flatnonzero(mag > kth), np.flatnonzero(mag == kth)
    return np.concatenate((above, tied[: k - above.size]))


def _emit_signed(xt, magnitude, compressed_t, residual_t) -> None:
    """compressed = sign(x) * magnitude and residual = x - compressed, on one tile.

    Zeros of either sign count as positive.  As magnitude >= 0, sign(x) *
    magnitude equals copysign(magnitude, x + 0.0) bit for bit: x + 0.0 maps
    -0.0 to +0.0 and keeps every other sign.  magnitude is a scalar or
    broadcasts against the tile, as one_bit's column of row scales does.
    """
    signed = xt + 0.0
    np.copysign(magnitude, signed, out=signed)
    np.subtract(xt, signed, out=residual_t)
    compressed_t[...] = signed


def _quantize(x, levels: int, scale: float, rng, compressed, residual) -> None:
    """stoch_quant's levels, signs and residuals, one SIGN_TILE at a time.

    Per coordinate: z = |x| / scale * levels, level = floor(z) + (u < z -
    floor(z)) with u the next uniform draw, and compressed = sign(x) * level
    * (scale / levels).  The tiles draw the uniforms in coordinate order, so
    the stream is the one a single rng.random(d) call gives.
    """
    step = scale / levels
    for lo in range(0, x.size, SIGN_TILE):
        hi = lo + SIGN_TILE
        xt = x[lo:hi]
        z = np.abs(xt)
        np.divide(z, scale, out=z)
        np.multiply(z, levels, out=z)
        level = np.floor(z)
        np.subtract(z, level, out=z)
        # round up with probability equal to the fractional part, so the
        # quantized level is unbiased for z.
        np.add(level, rng.random(z.size) < z, out=level)
        np.multiply(level, step, out=level)
        _emit_signed(xt, level, compressed[lo:hi], residual[lo:hi])


def _compress_row(x, spec: CompressorSpec, step: int, node_id: int, compressed, residual) -> None:
    """top_k, rand_k or stoch_quant on one (d,) row, drawing as node node_id."""
    d = x.size
    if spec.kind in ("top_k", "rand_k"):
        if spec.kind == "top_k":
            keep = _largest(x, spec.k, residual)
        else:
            rng = keyed_generator(spec.seed or 0, STREAM_COMPRESS, step, node_id)
            keep = rng.choice(d, size=spec.k, replace=False)
        values = x[keep]
        sent = values * (d / spec.k) if spec.kind == "rand_k" and spec.rescale else values
        # x - 0.0 == x bitwise, so only the kept coordinates are subtracted.
        residual[...] = x
        residual[keep] = values - sent
        compressed.fill(0.0)
        compressed[keep] = sent
    else:  # stoch_quant
        scale = float(np.abs(x, out=residual).max())
        if scale == 0.0:
            residual[...] = x
            compressed.fill(0.0)
        else:
            rng = keyed_generator(spec.seed or 0, STREAM_COMPRESS, step, node_id)
            _quantize(x, spec.levels, scale, rng, compressed, residual)


def compress(
    x, spec: CompressorSpec, step: int = 0, node_id: int = 0, out=None
) -> CompressionResult:
    """Compress x, returning the message and the residual it leaves behind.

    x is one (d,) message or an (m, d) stack whose row j is node node_id +
    j's message.  step and node_id key the randomized kinds so that draws
    are independent across steps and nodes yet exactly reproducible.  out,
    if given, is the (compressed, residual) pair of buffers to write; see
    the module docstring for which of them may alias x.
    """
    x = _check_input(x)
    d = x.shape[-1]
    if spec.kind in ("top_k", "rand_k") and spec.k > d:
        raise ConfigError(f"compressor k={spec.k} exceeds vector dimension {d}")
    if out is None:
        compressed, residual = np.empty(x.shape), np.empty(x.shape)
    else:
        compressed, residual = out
        if not (
            compressed.shape == residual.shape == x.shape
            and compressed.dtype == residual.dtype == _FLOAT64
            and compressed.flags.c_contiguous
            and residual.flags.c_contiguous
        ):
            raise ConfigError(f"compress out buffers must be C-contiguous {x.shape} float64 arrays")

    # (m, d) views of all three; a (d,) vector is a stack of one row.
    xs, cs, rs = x, compressed, residual
    if x.ndim == 1:
        xs, cs, rs = x[None], compressed[None], residual[None]
    m = len(xs)
    if spec.kind == "identity":
        np.subtract(xs, xs, out=rs)
        cs[...] = xs
    elif spec.kind == "one_bit":
        np.abs(xs, out=rs)
        # A reduction over the last axis of a C-contiguous stack sums each
        # row pairwise, as a lone row's sum does.
        scale = rs.sum(axis=1, keepdims=True) / d
        # Tiles of at most SIGN_TILE elements: blocks of whole rows, or
        # slices of one row when a row is wider than a tile.
        block, width = max(1, SIGN_TILE // d), min(d, SIGN_TILE)
        for lo in range(0, m, block):
            for left in range(0, d, width):
                tile = slice(lo, lo + block), slice(left, left + width)
                _emit_signed(xs[tile], scale[tile[0]], cs[tile], rs[tile])
    else:
        for j in range(m):
            _compress_row(xs[j], spec, step, node_id + j, cs[j], rs[j])

    return CompressionResult(compressed=compressed, residual=residual)


def message_bits(spec: CompressorSpec, dim: int) -> int:
    """Bits on the wire for one compressed message of dimension dim.

    one_bit      one sign bit per coordinate plus the float scale.
    top_k/rand_k k <= dim (index, value) pairs; indices cost ceil(log2 d) bits.
    stoch_quant  one signed level per coordinate (2*levels + 1 symbols)
                 plus the float scale.
    identity     the raw vector.
    """
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if spec.kind == "one_bit":
        return dim + FLOAT_BITS
    if spec.kind in ("top_k", "rand_k"):
        if spec.k > dim:
            raise ConfigError(f"{spec.k} exceeds the message dimension {dim}", "k")
        return spec.k * (FLOAT_BITS + math.ceil(math.log2(dim)))
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
