"""Seeded fan-out: every work item gets its own child of one seed, so
results do not depend on how many worker processes run them."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


def _base(seed: int | np.random.SeedSequence | None) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def child_seeds(seed: int | np.random.SeedSequence | None) -> Iterator[np.random.SeedSequence]:
    """The children of ``seed``, those of ``SeedSequence(seed).spawn``, in order,
    each spawned only as it is taken, so a caller that stops early spawns no more."""
    base = _base(seed)
    while True:
        # Each spawn call continues the numbering of the children spawned so far.
        yield base.spawn(1)[0]


def _pooled(fn: Callable, jobs: int, rows: int, *columns: Iterable) -> Iterator:
    """``map(fn, *columns)`` over ``rows`` rows, yielded in order. With more
    than one row and jobs > 1 the calls run in a process pool of at most one
    worker per row (``fn`` and the columns must then be picklable), sent in
    chunks of ceil(rows / (4 * workers)), the rule of
    ``multiprocessing.Pool.map``; otherwise they run here, one as each
    result is taken."""
    workers = min(jobs, rows)
    if workers > 1:
        # Imported here, so that a serial run does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, *columns, chunksize=-(-rows // (4 * workers)))
    else:
        yield from map(fn, *columns)


def seeded_map(fn: Callable, items: Sequence, seed, jobs: int = 1) -> list:
    """``[fn(item, child) ...]`` in item order, item i taking the i-th of
    `child_seeds` (seed), in a process pool when jobs > 1 (see `_pooled`).
    In-process, each child is spawned only as its item starts."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return list(_pooled(fn, jobs, len(items), items, child_seeds(seed)))


def seeded_chunks(fn: Callable, count: int, size: int, seed, jobs: int = 1) -> Iterator:
    """``fn(children)`` for consecutive runs of at most ``size`` of the
    first ``count`` of `child_seeds` (seed), yielded in order. Whole runs go
    to the worker processes when jobs > 1 (see `_pooled`); in-process, a
    run's children are spawned only as it starts, so memory does not grow
    with ``count``."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    base = _base(seed)
    sizes = [min(size, count - start) for start in range(0, count, size)]
    # Each spawn call continues the numbering of the children spawned so far.
    return _pooled(fn, jobs, len(sizes), (base.spawn(s) for s in sizes))
