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
from typing import Callable, Optional

import numpy as np

from .divergences import _INT64_MAX, _check_seed
from .errors import ValidationError

CHUNK_ROWS = 1 << 15
# looser than a reference's 1e-12, so that a perturbed reference still passes
_SUM_TOL = 1e-9


def _chunk_key(seed: int, stream: int, chunk: int) -> list[int]:
    # Philox accepts a 128-bit key as two uint64 words.
    return [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(((stream & 0xFFFFFFFF) << 32) | (chunk & 0xFFFFFFFF))]


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
    With ``score``, each chunk's counts are replaced, on the thread that drew
    them, by ``score(counts)``: one value (or row of values) per row, joined
    in chunk order.  The K x B matrix is then never held.
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

    def draw(c: int) -> np.ndarray:
        gen = np.random.Generator(np.random.Philox(key=_chunk_key(seed, stream, c)))
        counts = gen.multinomial(n, p, size=min(CHUNK_ROWS, K - c * CHUNK_ROWS))
        return counts if score is None else score(counts)

    if workers == 1 or n_chunks == 1:
        parts = [draw(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(draw, range(n_chunks)))
    return np.concatenate(parts)
