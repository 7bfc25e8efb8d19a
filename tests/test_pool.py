import concurrent.futures
import tracemalloc

import numpy as np
import pytest

from qadv import pool


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size and the chunk
    size it is given, maps in-process."""

    sizes: list[int] = []
    chunks: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.chunks.append(chunksize)
        return map(fn, *iterables)


def _draw(item, ss):
    return item, int(ss.generate_state(1)[0])


def _draws(children):
    return [int(ss.generate_state(1)[0]) for ss in children]


@pytest.fixture
def fake_pool(monkeypatch):
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(_InProcessPool, "chunks", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    return _InProcessPool


@pytest.mark.parametrize("jobs,items,expected", [
    (8, 3, [3]),  # never more workers than items
    (2, 5, [2]),
    (8, 1, []),  # one item runs in-process
    (1, 5, []),
])
def test_seeded_map_bounds_workers_by_items(fake_pool, jobs, items, expected):
    work = list(range(items))
    out = pool.seeded_map(_draw, work, 7, jobs)
    assert fake_pool.sizes == expected
    assert out == pool.seeded_map(_draw, work, 7, 1)


@pytest.mark.parametrize("jobs", [0, -1])
def test_seeded_map_refuses_jobs_below_one(fake_pool, jobs):
    with pytest.raises(ValueError, match="jobs"):
        pool.seeded_map(_draw, [1, 2], 7, jobs)
    assert fake_pool.sizes == []


def test_seeded_map_hands_out_the_children_of_the_seed():
    out = pool.seeded_map(_draw, list(range(6)), 7)
    assert [d for _, d in out] == _draws(np.random.SeedSequence(7).spawn(6))
    # A SeedSequence passed in continues its own numbering, as with spawn.
    base, twin = np.random.SeedSequence(7), np.random.SeedSequence(7)
    base.spawn(2)
    twin.spawn(2)
    out = pool.seeded_map(_draw, list(range(3)), base)
    assert [d for _, d in out] == _draws(twin.spawn(3))


def _nothing(item, ss):
    return None


def test_seeded_map_memory_does_not_grow_with_items():
    # In-process only the running item's child SeedSequence is alive.
    pool.seeded_map(_nothing, [0], 7)  # warm numpy's first-use allocations
    peaks = []
    for count in (40, 4000):
        items = list(range(count))
        tracemalloc.start()
        try:
            pool.seeded_map(_nothing, items, 7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Holding all 4,000 children at once takes about 1.5 MB; the result
    # list takes 32 KB.
    assert peaks[1] <= peaks[0] + 64 * 1024


@pytest.mark.parametrize("jobs,items,chunk", [
    (2, 5, 1),
    (2, 8, 1),
    (2, 9, 2),  # ceil(9 / (4 * 2))
    (2, 300, 38),
    (4, 300, 19),
    (8, 3, 1),  # three workers for three items
])
def test_seeded_map_chunk_size(fake_pool, jobs, items, chunk):
    work = list(range(items))
    out = pool.seeded_map(_draw, work, 7, jobs)
    assert fake_pool.chunks == [chunk]
    assert out == pool.seeded_map(_draw, work, 7, 1)


@pytest.mark.parametrize("jobs,count,size,workers", [
    (1, 10, 4, []),
    (2, 10, 4, [2]),  # three runs of 4, 4 and 2 children
    (8, 10, 4, [3]),  # never more workers than runs
    (2, 3, 4, []),  # one run goes in-process
])
def test_seeded_chunks_hand_out_the_children_of_the_seed(fake_pool, jobs, count, size, workers):
    runs = list(pool.seeded_chunks(_draws, count, size, 7, jobs))
    assert [len(r) for r in runs] == [min(size, count - s) for s in range(0, count, size)]
    assert sum(runs, []) == _draws(np.random.SeedSequence(7).spawn(count))
    assert fake_pool.sizes == workers


def test_seeded_chunks_refuse_jobs_below_one():
    with pytest.raises(ValueError, match="jobs"):
        pool.seeded_chunks(_draws, 4, 2, 7, 0)
