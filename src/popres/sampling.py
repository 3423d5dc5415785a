"""Counter-based multinomial sampling.

Replications are cut into chunks of ``CHUNK_ROWS`` rows at fixed
boundaries, and each chunk draws from its own Philox generator keyed by
(seed, stream, chunk index) with numpy's ``Generator.multinomial``.  A row
is therefore fixed by (seed, stream, chunk, row within chunk), whatever the
total replication count or the number of workers evaluating the chunks, so
results are bit-identical at any parallelism degree and a longer run
extends a shorter one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ValidationError

CHUNK_ROWS = 1 << 15


def _chunk_key(seed: int, stream: int, chunk: int) -> list[int]:
    # Philox accepts a 128-bit key as two uint64 words.
    return [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(((stream & 0xFFFFFFFF) << 32) | (chunk & 0xFFFFFFFF))]


def _sample_chunk(n: int, p: np.ndarray, rows: int, seed: int, stream: int, chunk: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=_chunk_key(seed, stream, chunk)))
    return gen.multinomial(n, p, size=rows)


def multinomial_matrix(
    n: int,
    p: np.ndarray,
    replications: int,
    seed: int,
    stream: int = 0,
    workers: int = 1,
) -> np.ndarray:
    """K x B matrix of independent Multinomial(n, p) draws.

    Deterministic in (seed, stream, replications); independent of workers.
    """
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    p = np.asarray(p, dtype=float)
    K = int(replications)
    n_chunks = (K + CHUNK_ROWS - 1) // CHUNK_ROWS
    sizes = [min(CHUNK_ROWS, K - c * CHUNK_ROWS) for c in range(n_chunks)]
    out = np.empty((K, p.size), dtype=np.int64)

    def fill(c: int) -> None:
        lo = c * CHUNK_ROWS
        out[lo : lo + sizes[c]] = _sample_chunk(n, p, sizes[c], seed, stream, c)

    if workers == 1 or n_chunks == 1:
        for c in range(n_chunks):
            fill(c)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(n_chunks)))
    return out
