"""Counter-based random streams.

Every random draw in the package is made from a generator keyed by integers
that identify the consumer (purpose stream, step, node, ...) rather than by
position in a shared stream.  Two consequences:

* any draw can be reproduced in isolation, without replaying the run that
  originally made it, and
* inserting or removing a consumer never shifts the numbers seen by the
  others.

Keys are fed to ``numpy.random.SeedSequence``, whose hashing guarantees
well-separated states for distinct key tuples, and the bit generator is
Philox, a counter-based generator designed for exactly this keyed usage.
"""

from __future__ import annotations

import numpy as np

# Purpose tags keeping independent uses of the same seed apart.
STREAM_DATA = 1        # synthetic dataset generation
STREAM_PARTITION = 2   # assigning samples to workers
STREAM_SAMPLE = 3      # minibatch index draws
STREAM_COMPRESS = 4    # randomized compressor decisions


def keyed_generator(seed: int, *key: int) -> np.random.Generator:
    """Return a fresh Generator for (seed, *key), independent of call order."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    seq = np.random.SeedSequence((seed,) + tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))
