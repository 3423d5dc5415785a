"""Counter-based multinomial sampling.

Replications are cut into chunks of ``CHUNK_ROWS`` rows at fixed
boundaries, and each chunk draws from its own Philox generator keyed by
(seed, stream, chunk index) with numpy's ``Generator.multinomial``.  A row
is therefore fixed by (seed, stream, chunk, row within chunk), whatever the
total replication count or the number of workers evaluating the chunks, so
results are bit-identical at any parallelism degree and a longer run
extends a shorter one.

A chunk is drawn from its generator as consecutive blocks of
``BLOCK_ROWS`` rows.  ``Generator.multinomial`` draws rows one after
another, so the blocks hold exactly the rows of one call for the whole
chunk.  A scored block is scored as soon as it is drawn, so a worker then
holds one block of counts (``BLOCK_ROWS`` x B int64, 2 MB at B = 60)
rather than its chunk's.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

import numpy as np

from .divergences import _INT64_MAX, _check_seed
from .errors import ValidationError

CHUNK_ROWS = 1 << 15
BLOCK_ROWS = CHUNK_ROWS >> 3
# looser than a reference's 1e-12, so that a perturbed reference still passes
_SUM_TOL = 1e-9


def _chunk_key(seed: int, stream: int, chunk: int) -> list[int]:
    # Philox accepts a 128-bit key as two uint64 words.
    return [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(((stream & 0xFFFFFFFF) << 32) | (chunk & 0xFFFFFFFF))]


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _check_inputs(n, p) -> tuple[int, np.ndarray]:
    """``n`` and ``p`` as numpy's multinomial takes them; each message names its argument.

    numpy tests only ``sum(p[:-1]) <= 1`` and truncates a fractional ``n``, so
    it would sample from ``[0.5, 0.6]`` or at ``n = 50.5`` without a word."""
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"n must be an integer, got {n!r}")
    if not 0 <= n <= _INT64_MAX:
        raise ValidationError(f"n must lie in [0, {_INT64_MAX}], got {n}")
    try:
        p = np.asarray(p, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"p must be a vector of probabilities ({exc})") from exc
    if p.ndim != 1 or p.size < 1:
        raise ValidationError(f"p must be a non-empty 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValidationError(f"p must be finite and non-negative, got {p.tolist()!r:.80}")
    if abs(float(p.sum()) - 1.0) > _SUM_TOL:
        raise ValidationError(f"p must sum to 1, got {float(p.sum())!r}")
    return int(n), p


def multinomial_matrix(
    n: int,
    p: np.ndarray,
    replications: int,
    seed: int,
    stream: int = 0,
    workers: int = 1,
    *,
    score: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """K x B matrix of independent Multinomial(n, p) draws.

    Deterministic in (seed, stream, replications); independent of workers.
    At most min(workers, chunks, CPUs this process may use) threads draw.
    With ``score``, each block of at most ``BLOCK_ROWS`` rows is replaced, on
    the thread that drew it, by ``score(counts)``: one value (or row of values)
    per row, joined in row order.  Neither the K x B matrix nor a chunk's
    counts are then held, only one block's per worker.
    """
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    seed = _check_seed(seed)
    n, p = _check_inputs(n, p)
    K = int(replications)
    if K < 0:
        raise ValidationError(f"replications must be non-negative, got {K}")
    n_chunks = (K + CHUNK_ROWS - 1) // CHUNK_ROWS
    if n_chunks < 1:
        return np.empty((0, p.size), dtype=np.int64)

    keep = score or (lambda counts: counts)

    def draw(c: int) -> list[np.ndarray]:
        gen = np.random.Generator(np.random.Philox(key=_chunk_key(seed, stream, c)))
        rows = min(CHUNK_ROWS, K - c * CHUNK_ROWS)
        return [keep(gen.multinomial(n, p, size=min(BLOCK_ROWS, rows - lo)))
                for lo in range(0, rows, BLOCK_ROWS)]

    # a thread more than the chunks or the CPUs would only hold another block
    threads = min(workers, n_chunks, _cpus())
    if threads == 1:
        parts = [draw(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(draw, range(n_chunks)))
    return np.concatenate([block for part in parts for block in part])
