"""Sample-and-query access over classical vectors.

An SQVector keeps a unit-norm real vector together with F, the cumulative
sums of its squared entries, and a guide table g over F (Chen & Asau's
indexed search), giving O(1) entry reads and draws of index i with
probability values[i]^2. With one bucket per padded index, g[b] counts
the entries with F(i) < b/dim; as dim is a power of two, F·dim and r·dim
are exact. A draw r starts at g[⌊r·dim⌋] and steps right while F(i) <= r,
at most `_GUIDE_STEPS` times; the few draws still unresolved go to one
binary search, so no draw costs more than O(log N). Batches of draws run
in blocks of `_LANES` lanes, small enough that their temporaries stay in
a core's L2 cache, and only the unresolved lanes take each next step. On
top of that sits the unbiased importance-sampling inner-product estimator
X = y_i / x_i with i ~ x_i^2, whose variance is at most 1 for unit vectors.
Its draws go through fixed blocks of uniforms (`_DRAW_BLOCK`), so it holds
8 bytes per sample plus one block; `sample_counts` reads no table. It uses
them only through sums that ignore their order (a mean and a variance), so
a run's n uniforms come already sorted, largest first (Bentley & Saxe,
*Generating sorted lists of random numbers*, ACM TOMS 6, 359, 1980):
U_(j) = exp(-sum_{i>=j} E_i / i) for j = n, n-1, ..., 1, with E_i standard
exponentials. Every guide and cdf lookup and every gather then walks
through memory in order instead of jumping around it. That pays only
when the tables are larger than the cache (2^17 entries and up on a
2-core x86_64 box): on a cache-resident table the estimator pays the
sorted draw's extra cost, about 10 ms per 10^6 draws, for nothing. The
block size cannot move a byte (see `_DRAW_BLOCK` and `_index_blocks`).

Boundary convention: a uniform draw r in [0, 1) selects i = #{j : F(j) <= r},
the unique index with F(i-1) <= r < F(i); exact ties between r and a stored
prefix resolve to the right. `build` accepts a norm up to `_NORM_TOL` from
1, so a total mass F(dim-1) up to about 2·`_NORM_TOL` below 1, and r is
first scaled by that mass when it is below 1; otherwise a uniform past it
would land on the last index, which may be padding. Scaled so, r < F(dim-1),
and F(i) > F(i-1) at the index drawn: a zero-probability index
(power-of-two padding included) is never drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

_NORM_TOL = 1e-9
# Lanes per block of sample_many, and entries per block of the guide's
# build and check: a block's uniforms, indices and gathers (about 0.5 MB)
# stay in one core's L2 cache.
_LANES = 1 << 14
#: Steps right from the guide's start before a draw goes to the binary search.
_GUIDE_STEPS = 2
#: Draws per block of `_index_blocks`. Output bytes do not depend on it:
#: every block continues the generator's one stream and the run's one sum.
_DRAW_BLOCK = 1 << 17
#: The largest double below 1: exp(-s) rounds to 1.0 for a running sum s
#: below about 1.1e-16, and `sample_many` refuses r >= 1.
_BELOW_ONE = np.nextafter(1.0, 0.0)


class SQVector:
    """Immutable sample-and-query wrapper around a unit vector."""

    __slots__ = ("dim", "values", "cdf", "guide")

    def __init__(self, dim: int, values: np.ndarray, cdf: np.ndarray, guide: np.ndarray) -> None:
        self.dim = dim
        self.values = values
        self.cdf = cdf
        self.guide = guide

    @property
    def tree(self) -> np.ndarray:
        """The prefix-sum heap over the squared entries (root at 1, leaves
        from dim), rebuilt from `values` on every read. Nothing samples
        from it. Its readers are the tests (the lockstep sampling oracle
        among them) and the benchmark's sampling check, which tests its
        root against 1."""
        tree = np.zeros(2 * self.dim)
        np.square(self.values, out=tree[self.dim :])
        lo = self.dim // 2
        while lo >= 1:
            tree[lo : 2 * lo] = tree[2 * lo : 4 * lo : 2] + tree[2 * lo + 1 : 4 * lo : 2]
            lo //= 2
        return tree

    def check_tree(self) -> None:
        """Re-verify the table's invariants in O(N): F ends within
        3·`_NORM_TOL` of 1 and never decreases, and no guide entry starts a
        draw past its answer. Each test asks that the good case hold, so a
        NaN fails it, and each error names the first bad index."""
        cdf, dim = self.cdf, self.dim
        # `build` takes a norm within _NORM_TOL of 1, so a mass within
        # 2·_NORM_TOL + _NORM_TOL^2; the rest covers the rounding of F.
        if not abs(cdf[-1] - 1.0) <= 3 * _NORM_TOL:
            raise InvariantViolation(f"total mass {cdf[-1]} deviates from 1")
        ok = np.empty(dim, dtype=bool)
        ok[0] = cdf[0] >= 0.0
        np.greater_equal(cdf[1:], cdf[:-1], out=ok[1:])
        if not ok.all():
            raise InvariantViolation(f"cdf decreases at index {int(ok.argmin())}")
        # g[b] may be at most #{i : F(i) < b/dim}, the build's own entry: a
        # later start skips draws, an earlier one only costs steps. One
        # block of buckets at a time keeps the temporaries small.
        for lo in range(0, dim, _LANES):
            g = self.guide[lo : lo + _LANES]
            before = cdf.take(g - 1, mode="clip") * dim
            ok = (g >= 0) & (g <= dim) & ((g == 0) | (before < np.arange(lo, lo + len(g))))
            if not ok.all():
                bucket = lo + int(ok.argmin())
                raise InvariantViolation(f"guide bucket {bucket} starts past its draw")


def _check_finite(values: np.ndarray) -> None:
    # A NaN passes every ``deviation > tol`` test, so refuse it up front.
    if not np.isfinite(values).all():
        raise ValueError("vector entries must be finite")


def _guide(cdf: np.ndarray) -> np.ndarray:
    """g[b] = #{i : F(i) < b/dim}, `_LANES` entries of F at a time: each
    run of equal keys ⌊F·dim⌋ = k ends at the last i with F(i) < (k+1)/dim,
    so g[k+1] = that i + 1, and a running maximum fills the buckets that
    no run ends before. Holds one block of keys beside g, whatever F is."""
    dim = len(cdf)
    guide = np.zeros(dim, dtype=np.int32 if dim < 1 << 31 else np.int64)
    key = np.empty(min(dim, _LANES), dtype=np.int64)
    run_end = np.empty(len(key), dtype=bool)
    for start in range(0, dim, _LANES):
        k, end = key[: dim - start], run_end[: dim - start]
        # F >= 0, so the cast's truncation is the floor.
        np.multiply(cdf[start : start + _LANES], dim, out=k, casting="unsafe")
        np.not_equal(k[1:], k[:-1], out=end[:-1])
        end[-1] = True
        last = np.flatnonzero(end)
        at = k[last]
        at += 1
        inside = at < dim
        guide[at[inside]] = last[inside] + (start + 1)
    np.maximum.accumulate(guide, out=guide)
    return guide


def build(v, normalize: bool = False) -> SQVector:
    """Build sample-and-query access in O(N); pads to a power of two."""
    values = np.asarray(v, dtype=float).reshape(-1)
    _check_finite(values)
    norm = np.linalg.norm(values)
    if norm == 0.0:
        raise ValueError("cannot build sample access over the zero vector")
    if normalize:
        values = values / norm
    elif abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"vector norm {norm} deviates from 1; pass normalize=True")
    dim = 1 << (len(values) - 1).bit_length()
    if dim != len(values):
        values = np.concatenate([values, np.zeros(dim - len(values))])
    cdf = np.square(values)
    np.cumsum(cdf, out=cdf)
    return SQVector(dim, values, cdf, _guide(cdf))


def sample_many(sq: SQVector, rs: np.ndarray) -> np.ndarray:
    """Per uniform r, the index i = #{j : F(j) <= r} for r scaled by
    min(F(dim-1), 1), `_LANES` lanes at a time. At a total mass of 1 or
    more the scale is 1 and r is taken as it is."""
    rs = np.asarray(rs, dtype=float)
    # Written so that a NaN uniform fails.
    if not ((rs >= 0.0).all() and (rs < 1.0).all()):
        raise ValueError("r must lie in [0, 1)")
    out = np.empty(len(rs), dtype=np.int64)
    cdf, dim = sq.cdf, sq.dim
    scale = min(cdf[-1], 1.0)  # see the boundary convention above
    for start in range(0, len(rs), _LANES):
        r = rs[start : start + _LANES] * scale
        # r < 1, so ⌊r·dim⌋ < dim; every index below stays in range, and
        # "clip" spares the buffered copy that take makes under "raise".
        i = sq.guide.take((r * dim).astype(np.int64), mode="clip")
        lanes = np.flatnonzero(cdf.take(i, mode="clip") <= r)
        for _ in range(_GUIDE_STEPS):
            i[lanes] += 1
            lanes = lanes[cdf.take(i[lanes], mode="clip") <= r[lanes]]
        i[lanes] = np.searchsorted(cdf, r[lanes], side="right")
        out[start : start + _LANES] = i
    return out


def _index_blocks(sq_x: SQVector, n: int, rng: np.random.Generator):
    """The indices of n draws at n sorted uniforms, largest first (see the
    module docstring), `_DRAW_BLOCK` at a time: yields ``(start, idx)``
    where ``idx`` holds draws start, start + 1, ..."""
    carry = 0.0
    for start in range(0, n, _DRAW_BLOCK):
        m, hi = min(_DRAW_BLOCK, n - start), n - start
        e = rng.standard_exponential(m)
        e /= np.arange(hi, hi - m, -1)
        e[0] += carry  # before the cumsum, so each sum is the whole run's float
        np.cumsum(e, out=e)
        carry = e[-1]
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.minimum(e, _BELOW_ONE, out=e)
        yield start, sample_many(sq_x, e)


def sample_counts(sq: SQVector, n: int, rng: np.random.Generator) -> np.ndarray:
    """How often each index comes up in n draws: one Multinomial(n, p)
    vector (C. S. Davis, Comput. Stat. Data Anal. 16, 205, 1993) over the
    indices of nonzero mass, so a zero-mass index gets count 0: numpy gives
    its last category, which may be padding, what the others leave. p is
    divided by its sum, as `build` accepts a mass about 2e-9 off 1."""
    p = np.square(sq.values)
    hit = np.flatnonzero(p)
    counts = np.zeros(sq.dim, dtype=np.int64)
    counts[hit] = rng.multinomial(n, p[hit] / p[hit].sum())
    return counts


def _var_in_place(a: np.ndarray) -> float:
    """``a.var(ddof=1)`` by its own steps, with `a` as the scratch array:
    the same float, without a full-size temporary. Overwrites `a`."""
    n = len(a)
    np.subtract(a, np.add.reduce(a, keepdims=True) / n, out=a)
    np.square(a, out=a)
    return float(np.add.reduce(a) / (n - 1))


@dataclass(frozen=True)
class InnerProductEstimate:
    estimate: float
    stderr: float
    n_samples: int
    sample_variance: float


def inner_product_estimate(
    sq_x: SQVector,
    y,
    n_samples: int,
    rng: np.random.Generator,
) -> InnerProductEstimate:
    """Unbiased estimate of x . y from n_samples importance draws.

    y is query access to a unit vector: an array of x's padded dimension.
    A sampled index with x_i = 0 is impossible by construction and raises.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    yv = np.asarray(y, dtype=float)
    _check_finite(yv)
    if abs(np.linalg.norm(yv) - 1.0) > _NORM_TOL:
        raise ValueError("query vector must have unit norm")
    if len(yv) != sq_x.dim:
        raise ValueError("vector dimensions differ")
    draws = np.empty(n_samples)
    for start, idx in _index_blocks(sq_x, n_samples, rng):
        xi = sq_x.values[idx]
        if np.any(xi == 0.0):
            raise InvariantViolation("sampled an index with zero probability mass")
        np.divide(yv[idx], xi, out=draws[start : start + len(idx)])
    est = float(draws.mean())
    var = _var_in_place(draws) if n_samples > 1 else 0.0
    return InnerProductEstimate(
        estimate=est,
        stderr=float(np.sqrt(var / n_samples)),
        n_samples=n_samples,
        sample_variance=var,
    )
