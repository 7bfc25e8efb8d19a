import functools
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qadv import sq
from qadv.errors import InvariantViolation, read_vector

from oracles import inner_product_estimate_one_shot, sample_many_lockstep, sorted_uniforms_one_shot

B = sq._DRAW_BLOCK


def test_build_point_mass():
    v = sq.build([1.0, 0.0, 0.0, 0.0])
    assert v.tree[1] == pytest.approx(1.0)
    assert v.tree[v.dim] == pytest.approx(1.0)
    assert v.values[0] == 1.0


def test_build_uniform():
    v = sq.build(np.ones(4) / 2)
    assert list(v.tree[v.dim :]) == pytest.approx([0.25] * 4)
    assert v.tree[2] == pytest.approx(0.5)
    assert v.tree[3] == pytest.approx(0.5)
    assert v.tree[1] == pytest.approx(1.0)


def test_build_two_entry_probs():
    v = sq.build([0.6, 0.8])
    assert list(v.tree[v.dim :]) == pytest.approx([0.36, 0.64])
    v.check_tree()


def test_build_rejects_zero_vector():
    with pytest.raises(ValueError):
        sq.build(np.zeros(4))


def test_build_requires_unit_norm_unless_normalizing():
    with pytest.raises(ValueError):
        sq.build([1.0, 1.0])
    v = sq.build([1.0, 1.0], normalize=True)
    assert v.tree[v.dim] == pytest.approx(0.5)


def test_build_pads_to_power_of_two():
    v = sq.build([0.6, 0.8, 0.0], normalize=True)
    assert v.dim == 4
    assert v.tree[v.dim + 3] == 0.0
    v.check_tree()


def test_sample_point_mass():
    v = sq.build([1.0, 0.0, 0.0, 0.0])
    assert list(sq.sample_many(v, [0.0, 0.3, 0.999])) == [0, 0, 0]


def test_sample_uniform_cdf_walk():
    # CDF is (0.25, 0.5, 0.75, 1.0); r = 0.6 falls in the third interval
    # (index 2 counting from 0).
    v = sq.build(np.ones(4) / 2)
    # 0.25 ties with a stored prefix and resolves right.
    assert list(sq.sample_many(v, [0.6, 0.0, 0.25, 0.999])) == [2, 0, 1, 3]


def test_sample_validates_range():
    v = sq.build([1.0, 0.0])
    with pytest.raises(ValueError):
        sq.sample_many(v, [1.0])
    with pytest.raises(ValueError):
        sq.sample_many(v, [-0.1])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_sample_matches_cdf_inverse(seed):
    rng = np.random.default_rng(seed)
    dim = int(2 ** rng.integers(1, 7))
    v = sq.build(rng.standard_normal(dim), normalize=True)
    probs = v.values**2
    cdf = np.concatenate([[0.0], np.cumsum(probs)])
    r = float(rng.random())
    i = int(sq.sample_many(v, [r])[0])
    assert cdf[i] <= r + 1e-12
    assert r < cdf[i + 1] + 1e-12
    assert probs[i] > 0
    # Purity: the same r always lands on the same index.
    assert sq.sample_many(v, [r])[0] == i


BLOCK = sq._LANES


@pytest.mark.parametrize("draws", [1, BLOCK, 2 * BLOCK + 3])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 2**16])
def test_sample_many_matches_lockstep_oracle(n, draws):
    # One short block, exactly one full block, and two full blocks plus a
    # short last one.
    rng = np.random.default_rng(n + draws)
    x = rng.standard_normal(n)
    x[rng.random(n) < 0.2] = 0.0  # zero-probability leaves too
    x[0] = 1.0
    v = sq.build(x, normalize=True)
    rs = rng.random(draws)
    got = sq.sample_many(v, rs)
    assert got.dtype == np.int64
    assert got.tobytes() == sample_many_lockstep(v, rs).tobytes()
    assert np.all(v.values[got] != 0.0)


def test_sample_many_matches_lockstep_oracle_below_unit_root():
    # Three entries padded to four, with a root that `build` accepts 1e-9
    # below 1: a uniform in [root, 1) must not reach the padding leaf.
    v = sq.build(np.array([0.6, 0.48, 0.64]) * (1 - 0.9e-9))
    root = v.tree[1]
    assert v.dim == 4 and 1 - 2e-9 < root < 1 - 1e-9
    rs = root + (1 - root) * np.random.default_rng(5).random(1000)
    assert ((rs >= root) & (rs < 1.0)).all()
    got = sq.sample_many(v, rs)
    assert got.tobytes() == sample_many_lockstep(v, rs).tobytes()
    assert np.all(v.values[got] != 0.0)


def _dyadic_vector(rng: np.random.Generator) -> np.ndarray:
    """Entries a_i / s with small integers a_i and sum(a_i^2) = s^2 for a
    power of two s, so every tree node and every prefix is exact."""
    a = rng.integers(0, 4, 700)
    side = 1
    while side * side < a @ a:
        side *= 2
    return np.concatenate([a, np.ones(side * side - a @ a)]) / side


def test_sample_many_ties_on_stored_prefixes_resolve_right():
    rng = np.random.default_rng(21)
    v = sq.build(_dyadic_vector(rng))
    cdf = np.cumsum(v.values**2)
    rs = np.concatenate([[0.0], cdf[cdf < 1.0]])
    # The index i with F(i-1) <= r < F(i): a tie moves past every zero leaf.
    want = np.searchsorted(cdf, rs, side="right")
    assert np.array_equal(sq.sample_many(v, rs), want)
    assert [sq.sample_many(v, [r])[0] for r in rs] == list(want)
    across = np.resize(rs, 2 * BLOCK + 3)
    assert np.array_equal(sq.sample_many(v, across), sample_many_lockstep(v, across))


def test_sample_many_draws_against_a_root_mass_below_one():
    # `build` accepts a norm within 1e-9 of 1, so the root can hold less
    # than 1. A uniform past it once went right at every level, to padding
    # index 3; it is now drawn against the root's mass.
    v = sq.build(np.array([0.6, 0.8, 0.0]) * (1 - 5e-10))
    assert v.tree[1] < 1 - 5e-10
    assert list(sq.sample_many(v, [1 - 5e-10, 0.0, np.nextafter(1.0, 0.0)])) == [1, 0, 1]

    class Top:  # every running sum is 0, so every uniform exp(-0) = 1.0 is
        # clamped to the largest double below 1, above the root's mass
        def standard_exponential(self, n):
            return np.zeros(n)

    est = sq.inner_product_estimate(v, np.array([0.0, 1.0, 0.0, 0.0]), 5, Top())
    assert est.estimate == pytest.approx(1 / (0.8 * (1 - 5e-10)))
    # At a root mass above 1 a uniform is taken as it is: one just below a
    # stored prefix stays left of it.
    v = sq.build(np.array([0.6, 0.8]) * (1 + 5e-10))
    assert v.tree[1] > 1
    assert list(sq.sample_many(v, [np.nextafter(v.tree[2], 0.0), v.tree[2]])) == [0, 1]


def _crowded(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A unit vector of length n whose guide has buckets of many entries,
    and uniforms that reach them: (vector, extra uniforms)."""
    rng = np.random.default_rng(n)
    if kind == "spiked":
        # Every entry before the spike shares bucket 0, every one after it
        # the last bucket; uniforms below the spike's prefix reach bucket 0.
        x = np.full(n, 1e-7)
        x[n // 3] = 1.0
        x /= np.linalg.norm(x)
        return x, np.cumsum(x**2)[n // 3 - 1] * rng.random(1000)
    if kind == "geometric":
        x = 0.99 ** np.arange(n)  # squares fall 2% an entry, to 0
    else:  # "half-zero": the zeros share their left neighbour's prefix
        x = rng.standard_normal(n)
        x[rng.permutation(n)[: n // 2]] = 0.0
    return x / np.linalg.norm(x), np.zeros(0)


def _guide_steps(v: sq.SQVector, rs: np.ndarray) -> np.ndarray:
    """Steps right from the guide's start that each draw needs."""
    r = rs * min(v.cdf[-1], 1.0)
    return np.searchsorted(v.cdf, r, side="right") - v.guide[(r * v.dim).astype(np.int64)]


@pytest.mark.parametrize("n", [1 << 12, 1 << 14, 1 << 16])
@pytest.mark.parametrize("kind", ["spiked", "geometric", "half-zero"])
def test_sample_many_on_crowded_buckets_matches_lockstep_oracle(kind, n):
    x, extra = _crowded(kind, n)
    v = sq.build(x)
    rs = np.concatenate([np.random.default_rng(n + 1).random(2 * BLOCK + 3), extra])
    # Some draws need more than `_GUIDE_STEPS` steps: the binary search ran.
    assert _guide_steps(v, rs).max() > sq._GUIDE_STEPS
    got = sq.sample_many(v, rs)
    assert got.tobytes() == sample_many_lockstep(v, rs).tobytes()
    assert np.all(v.values[got] != 0.0)


@pytest.mark.parametrize("n", [1 << 12, 1 << 16])
@pytest.mark.parametrize("kind", ["spiked", "geometric", "half-zero"])
def test_sample_many_counts_the_prefixes_at_or_below_r(kind, n):
    # At each stored prefix and the float just below it, in every bucket,
    # the draw is #{i : F(i) <= r} for r scaled by min(F(dim-1), 1).
    v = sq.build(_crowded(kind, n)[0])
    cdf = v.cdf[v.cdf < 1.0]
    rs = np.concatenate([[0.0], cdf, np.nextafter(cdf, 0.0)])
    assert _guide_steps(v, rs).max() > sq._GUIDE_STEPS
    got = sq.sample_many(v, rs)
    assert np.array_equal(got, np.searchsorted(v.cdf, rs * min(v.cdf[-1], 1.0), side="right"))
    assert np.all(v.values[got] != 0.0)


@pytest.mark.parametrize("bad", [np.nan, -0.1, -np.inf, 1.0, np.inf])
def test_sample_many_refuses_uniforms_outside_unit_interval(bad):
    v = sq.build([0.0, 0.6, 0.8, 0.0])
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        sq.sample_many(v, [bad, 0.5])
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        sq.sample_many(v, [bad])


def test_sample_many_of_no_draws_is_empty():
    got = sq.sample_many(sq.build([0.6, 0.8]), [])
    assert got.dtype == np.int64 and got.shape == (0,)


def test_empirical_tv_distance_small():
    rng = np.random.default_rng(1234)
    v = sq.build(rng.standard_normal(256), normalize=True)
    draws = sq.sample_many(v, rng.random(100_000))
    freq = np.bincount(draws, minlength=256) / 100_000
    tv = 0.5 * np.abs(freq - v.values**2).sum()
    assert tv < 0.02


# ---------------------------------------------------------------------------
# Inner-product estimator


def test_estimate_self_is_exactly_one():
    rng = np.random.default_rng(3)
    x = sq.build(rng.standard_normal(64), normalize=True)
    est = sq.inner_product_estimate(x, x.values, 100, rng)
    assert est.estimate == pytest.approx(1.0)
    assert est.stderr == pytest.approx(0.0)


def test_estimate_orthogonal_basis_vectors():
    e1 = np.zeros(4)
    e1[0] = 1.0
    e2 = np.zeros(4)
    e2[1] = 1.0
    est = sq.inner_product_estimate(sq.build(e1), e2, 50, np.random.default_rng(0))
    assert est.estimate == 0.0


def test_estimate_accuracy_and_variance_bound():
    rng = np.random.default_rng(99)
    dim, samples = 1024, 4000
    x = rng.standard_normal(dim)
    y = rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    sqx = sq.build(x)
    est = sq.inner_product_estimate(sqx, y, samples, rng)
    exact = float(x @ y)
    assert abs(est.estimate - exact) <= 4 / np.sqrt(samples)
    # Var[X] = 1 - (x.y)^2 <= 1 for unit vectors.
    assert est.sample_variance <= 1.1


def test_estimate_unbiased_over_batches():
    rng = np.random.default_rng(17)
    dim = 256
    x = rng.standard_normal(dim)
    y = rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    sqx = sq.build(x)
    exact = float(x @ y)
    batches = [sq.inner_product_estimate(sqx, y, 2000, rng) for _ in range(30)]
    grand = np.mean([b.estimate for b in batches])
    pooled_se = np.sqrt(np.mean([b.stderr**2 for b in batches]) / len(batches))
    assert abs(grand - exact) < 5 * pooled_se


def test_estimate_requires_unit_y():
    x = sq.build([0.6, 0.8])
    with pytest.raises(ValueError):
        sq.inner_product_estimate(x, np.array([2.0, 0.0]), 10, np.random.default_rng(0))


def test_estimate_never_divides_by_zero():
    # Padding indices carry zero probability, so they are never sampled
    # even over many draws.
    rng = np.random.default_rng(5)
    x = sq.build([0.6, 0.8, 0.0], normalize=True)
    y = np.zeros(4)
    y[0] = 1.0
    est = sq.inner_product_estimate(x, y, 5000, rng)
    assert np.isfinite(est.estimate)


def test_estimate_between_two_built_vectors():
    rng = np.random.default_rng(7)
    x = sq.build(rng.standard_normal(32), normalize=True)
    y = sq.build(rng.standard_normal(32), normalize=True)
    est = sq.inner_product_estimate(x, y.values, 500, rng)
    assert abs(est.estimate - float(x.values @ y.values)) < 0.2


@pytest.mark.parametrize("n_samples", [1, 2, B - 1, B, B + 1, 3 * B + 5])
@pytest.mark.parametrize("length", [1000, 1024])
def test_blocked_estimate_equals_one_shot_oracle(n_samples, length):
    # 1000 entries pad to 1024.
    rng = np.random.default_rng(n_samples + length)
    x = sq.build(rng.standard_normal(length), normalize=True)
    y = sq.build(rng.standard_normal(length), normalize=True).values
    got = sq.inner_product_estimate(x, y, n_samples, np.random.default_rng(8))
    want = inner_product_estimate_one_shot(x, y, n_samples, np.random.default_rng(8))
    assert (got.estimate, got.stderr, got.sample_variance) == want
    assert got.n_samples == n_samples


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 3 * B + 5])
def test_blocked_draws_equal_sample_many_on_whole_run_sorted_uniforms(n):
    # The blocked draw is byte-equal to one whole-run sorted array, so no
    # index depends on `_DRAW_BLOCK`.
    x = np.random.default_rng(n).standard_normal(100)
    x[::7] = 0.0
    v = sq.build(x, normalize=True)
    got = np.concatenate([idx for _, idx in sq._index_blocks(v, n, np.random.default_rng(4))])
    rs = sorted_uniforms_one_shot(n, np.random.default_rng(4))
    assert (rs[1:] <= rs[:-1]).all() and rs[0] < 1.0 and rs[-1] >= 0.0
    assert np.array_equal(got, sq.sample_many(v, rs))


def test_sample_counts_chi_square_over_seeds():
    # Seeds 0-199, fixed before the run: 2,000 draws each from a 16-entry
    # vector with two zero entries. Each chi-square of the counts against
    # n x_i^2 over the 14 nonzero entries has df 13: mean 13, variance 26.
    # Their mean over 200 seeds must lie within 5 standard errors of 13,
    # and at most 25 of them (5% plus 5 binomial sd) above the 95% point
    # of chi-square(13), 22.36. Zero entries must never come up.
    x = np.linspace(0.2, 1.6, 16)
    x[[3, 11]] = 0.0
    v = sq.build(x, normalize=True)
    p = np.square(v.values)
    nonzero, n, seeds = p > 0, 2000, range(200)
    stats = []
    for seed in seeds:
        counts = sq.sample_counts(v, n, np.random.default_rng(seed))
        assert counts.sum() == n and not counts[~nonzero].any()
        expected = n * p[nonzero]
        stats.append(float(np.sum((counts[nonzero] - expected) ** 2 / expected)))
    stats = np.array(stats)
    df = int(nonzero.sum()) - 1
    assert abs(stats.mean() - df) <= 5 * np.sqrt(2 * df / len(stats))
    assert np.count_nonzero(stats > 22.362) <= 25


class _LastTakesAll:
    """A generator whose multinomial puts every draw in its last category,
    as numpy's does with whatever the other categories leave."""

    def multinomial(self, n, pvals):
        counts = np.zeros(len(pvals), dtype=np.int64)
        counts[-1] = n
        return counts


def test_sample_counts_leave_no_last_category_on_padding():
    # Entry 1 is zero and entry 3 is padding: the last category of the draw
    # is entry 2, the last of nonzero mass.
    v = sq.build([0.6, 0.0, 0.8])
    assert sq.sample_counts(v, 7, _LastTakesAll()).tolist() == [0, 0, 7, 0]


@pytest.mark.parametrize("seed", range(5))
def test_sample_counts_put_nothing_on_zero_mass_below_a_mass_of_1(seed):
    # A norm 0.9e-9 short of 1 passes build's check, so the mass is about
    # 1.8e-9 short. Over all entries, 10^10 draws would leave about 18 to
    # the padding, numpy's last category; seeds fixed before the run.
    v = sq.build(np.array([0.6, 0.8, 0.0]) * (1 - 0.9e-9))
    counts = sq.sample_counts(v, 10**10, np.random.default_rng(seed))
    assert counts.sum() == 10**10 and counts[2:].tolist() == [0, 0]


@functools.cache
def _estimates_over_seeds():
    """Seeds 0-299, fixed before the run: 10^4 draws each on a 250-entry x
    (padded to 256) with every 8th entry 0 and |x_i| in [0.2, 1] elsewhere,
    against a Gaussian y. Returns the exact moments and every estimate."""
    rng = np.random.default_rng(2024)
    x = rng.uniform(0.2, 1.0, 250) * rng.choice([-1.0, 1.0], 250)
    x[::8] = 0.0
    y = rng.standard_normal(250)
    y[3] = 1.0  # weight where x is 0
    x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    v = sq.build(x)
    y = np.concatenate([y, np.zeros(v.dim - len(y))])
    mu = float(v.values @ y)
    live = v.values != 0.0
    ratio = y[live] / v.values[live]
    p = np.square(v.values[live])
    var = float(np.sum(y[live] ** 2)) - mu**2
    mu4 = float(np.sum(p * (ratio - mu) ** 4))
    n = 10**4
    runs = [sq.inner_product_estimate(v, y, n, np.random.default_rng(s)) for s in range(300)]
    return mu, var, mu4, n, runs


def test_estimate_z_scores_over_seeds():
    # z = (estimate - x.y) / stderr is about standard normal over the 300
    # seeds: its mean within 5/sqrt(300), its sd within 5/sqrt(600) of 1.
    mu, _, _, _, runs = _estimates_over_seeds()
    z = np.array([(r.estimate - mu) / r.stderr for r in runs])
    assert abs(z.mean()) <= 5 / np.sqrt(len(z))
    assert abs(z.std(ddof=1) - 1.0) <= 5 / np.sqrt(2 * len(z))


def test_sample_variance_predicts_the_exact_variance():
    # X = y_i / x_i with i ~ x_i^2 has Var X = sum_{x_i != 0} y_i^2 - (x.y)^2,
    # and the sample variance of n draws has sd sqrt((mu4 - Var^2) / n) to
    # leading order, mu4 the fourth central moment of X. Every seed's
    # sample_variance lies within 6 such sd, and their mean over 300 seeds
    # within 5 of its standard errors.
    _, var, mu4, n, runs = _estimates_over_seeds()
    sd = np.sqrt((mu4 - var**2) / n)
    dev = np.array([r.sample_variance - var for r in runs]) / sd
    assert np.abs(dev).max() <= 6
    assert abs(dev.mean()) <= 5 / np.sqrt(len(dev))


@given(hnp.arrays(np.float64, st.integers(2, 3000),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
@settings(max_examples=200)
def test_variance_in_place_equals_numpy_var(a):
    want = np.var(a, ddof=1)
    assert sq._var_in_place(a.copy()) == want


def test_zero_mass_index_in_a_later_block_raises(monkeypatch):
    # Index 3 is padding: sampling it is impossible, so a kernel that drew
    # it in the second block must trip the check there, not only in the first.
    x = sq.build([0.6, 0.8, 0.0], normalize=True)
    real, calls = sq.sample_many, []

    def second_block_hits_padding(sq_x, rs):
        out = real(sq_x, rs)
        calls.append(len(rs))
        if len(calls) == 2:
            out[len(out) // 2] = 3
        return out

    monkeypatch.setattr(sq, "sample_many", second_block_hits_padding)
    y = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvariantViolation, match="zero probability"):
        sq.inner_product_estimate(x, y, 3 * B, np.random.default_rng(0))
    assert calls == [B, B]


def _peak_bytes(run) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_memory_is_draws_plus_one_block():
    # 10^6 samples on a 2^16 tree. The draws take 8 B each, and one block
    # adds its uniforms, indices and two gathers: about 4.5 times the 1 MiB
    # of a block's uniforms. The one-shot oracle holds the whole run's
    # indices and draws at once: 22.9 MiB against 12.1 MiB here (numpy 2.4).
    n = 10**6
    rng = np.random.default_rng(2)
    x = sq.build(rng.standard_normal(1 << 16), normalize=True)
    y = sq.build(rng.standard_normal(1 << 16), normalize=True).values
    sq.inner_product_estimate(x, y, 10, rng)  # warm numpy's caches
    peak = _peak_bytes(lambda: sq.inner_product_estimate(x, y, n, np.random.default_rng(3)))
    oracle = _peak_bytes(lambda: inner_product_estimate_one_shot(x, y, n, np.random.default_rng(3)))
    bound = 8 * n + 6 * 8 * B
    assert peak <= bound
    assert oracle > bound


def test_table_holds_at_most_12_bytes_per_entry_beyond_values():
    # F takes 8 B an entry and the int32 guide 4 B; the prefix-sum heap
    # took 16 B. The rest is the arrays' and the object's headers.
    x = np.random.default_rng(4).standard_normal(1 << 16)
    x /= np.linalg.norm(x)
    gc.collect()
    tracemalloc.start()
    try:
        v = sq.build(x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(v.values, x)
    assert v.cdf.nbytes + v.guide.nbytes == 12 * v.dim
    assert held <= 12 * v.dim + 2048


def test_build_transient_peak_is_at_most_the_heap_builds():
    # The `tree` property rebuilds the heap as `build` once did: 2·dim
    # floats and one level's sums. The guide build holds one block of keys.
    x = np.random.default_rng(5).standard_normal(1 << 16)
    x /= np.linalg.norm(x)
    v = sq.build(x)
    heap = _peak_bytes(lambda: v.tree)
    assert heap >= 20 * v.dim
    assert _peak_bytes(lambda: sq.build(x)) <= heap


def test_check_tree_detects_corruption():
    v = sq.build([0.6, 0.8])
    v.cdf[1] += 1e-6
    with pytest.raises(InvariantViolation, match="total mass"):
        v.check_tree()
    v = sq.build([0.6, 0.8])
    v.cdf[0] = 1.5
    with pytest.raises(InvariantViolation, match="cdf decreases at index 1"):
        v.check_tree()
    v = sq.build([0.6, 0.8])
    v.cdf[0] = -0.1
    with pytest.raises(InvariantViolation, match="cdf decreases at index 0"):
        v.check_tree()
    # F(1) = 1 >= 1/2: bucket 1 would start every draw past index 0.
    v = sq.build([0.6, 0.8])
    v.guide[1] = 2
    with pytest.raises(InvariantViolation, match="guide bucket 1 starts past"):
        v.check_tree()
    v.guide[1] = -1
    with pytest.raises(InvariantViolation, match="guide bucket 1 starts past"):
        v.check_tree()


def test_check_tree_detects_nan_node():
    v = sq.build(np.full(4, 0.5))
    v.cdf[2] = np.nan
    with pytest.raises(InvariantViolation, match="cdf decreases at index 2"):
        v.check_tree()
    v.cdf[0] = np.nan
    with pytest.raises(InvariantViolation, match="cdf decreases at index 0"):
        v.check_tree()
    v.cdf[3] = np.nan
    with pytest.raises(InvariantViolation, match="total mass"):
        v.check_tree()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        sq.build([0.6, bad], normalize=True)
    x = sq.build([0.6, 0.8])
    with pytest.raises(ValueError, match="finite"):
        sq.inner_product_estimate(x, np.array([0.6, bad]), 10, np.random.default_rng(0))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
def test_tree_matches_node_by_node_sums(n):
    v = sq.build(np.random.default_rng(n).standard_normal(n), normalize=True)
    want = np.zeros(2 * v.dim)
    want[v.dim:] = v.values**2
    for node in range(v.dim - 1, 0, -1):
        want[node] = want[2 * node] + want[2 * node + 1]
    assert np.array_equal(v.tree, want)
    v.check_tree()


@pytest.mark.parametrize("n", [1, 3, 1 << 20])
def test_tree_leaves_are_the_squared_entries(n):
    v = sq.build(np.random.default_rng(n).standard_normal(n), normalize=True)
    assert v.tree[v.dim :].tobytes() == (v.values**2).tobytes()


def _dyadic_eight() -> sq.SQVector:
    """Squares .25, .25, .25, then .0625 four times and one 0: every F(i)
    and every bucket edge b/8 is exact."""
    v = sq.build(np.array([2, 2, 2, 1, 1, 1, 1, 0]) / 4)
    assert list(v.cdf) == [0.25, 0.5, 0.75, 0.8125, 0.875, 0.9375, 1.0, 1.0]
    assert list(v.guide) == [0, 0, 0, 1, 1, 2, 2, 4]
    return v


def test_check_tree_reports_first_bad_node_in_heap_order():
    v = _dyadic_eight()
    v.check_tree()
    cdf = v.cdf.copy()
    v.cdf[5] = 0.8  # below F(4)
    v.cdf[3] = 0.7  # below F(2)
    with pytest.raises(InvariantViolation, match="cdf decreases at index 3"):
        v.check_tree()
    v.cdf[3] = cdf[3]
    with pytest.raises(InvariantViolation, match="cdf decreases at index 5"):
        v.check_tree()
    v.cdf[:] = cdf
    v.guide[7] = 5  # F(4) = 7/8: a draw of 0.875 would skip index 4
    v.guide[3] = 2  # F(1) = 1/2 >= 3/8
    with pytest.raises(InvariantViolation, match="guide bucket 3 starts past"):
        v.check_tree()
    v.guide[3] = 1
    with pytest.raises(InvariantViolation, match="guide bucket 7 starts past"):
        v.check_tree()
    v.guide[7] = 4
    v.check_tree()


def test_guide_that_starts_early_only_costs_steps():
    # g = 0 everywhere passes the check, and every draw still lands right:
    # all but the first buckets go through the binary search.
    v = _dyadic_eight()
    rs = np.concatenate([np.arange(64) / 64, np.random.default_rng(2).random(1000)])
    want = sq.sample_many(v, rs)
    v.guide[:] = 0
    v.check_tree()
    assert np.array_equal(sq.sample_many(v, rs), want)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 1 << 12])
def test_table_is_the_cumulative_squares_and_its_guide(n):
    v = sq.build(np.random.default_rng(n).standard_normal(n), normalize=True)
    assert sq.SQVector.__slots__ == ("dim", "values", "cdf", "guide")
    assert v.cdf.tobytes() == np.cumsum(v.values**2).tobytes()
    # g[b] = #{i : F(i) < b/dim}, the first index with F(i) >= b/dim.
    want = np.searchsorted(v.cdf, np.arange(v.dim) / v.dim, side="left")
    assert v.guide.dtype == np.int32
    assert np.array_equal(v.guide, want)


def test_load_vector_formats(tmp_path):
    arr = np.array([0.1, -0.2, 0.3])
    npy = tmp_path / "v.npy"
    np.save(npy, arr)
    assert np.allclose(read_vector(str(npy)), arr)
    txt = tmp_path / "v.txt"
    txt.write_text("0.1 -0.2 0.3\n")
    assert np.allclose(read_vector(str(txt)), arr)
    csvf = tmp_path / "v.csv"
    csvf.write_text("0.1,-0.2,0.3\n")
    assert np.allclose(read_vector(str(csvf)), arr)
