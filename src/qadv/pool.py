"""Seeded fan-out: every work item gets its own child of one seed, so
results do not depend on how many worker processes run them."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np


def spawn_seeds(seed: int | np.random.SeedSequence | None, count: int) -> list:
    """``count`` independent child SeedSequences of ``seed``."""
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return base.spawn(count)


def seeded_map(fn: Callable, items: Sequence, seed, jobs: int = 1) -> list:
    """``[fn(item, child_seed) ...]`` in item order. With more than one item
    and jobs > 1 the calls run in a process pool of at most one worker per
    item (``fn`` and the items must then be picklable), sent in chunks of
    ceil(items / (4 * workers)), the rule of ``multiprocessing.Pool.map``."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    children = spawn_seeds(seed, len(items))
    workers = min(jobs, len(items))
    if workers > 1:
        chunksize = -(-len(items) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items, children, chunksize=chunksize))
    return list(map(fn, items, children))
