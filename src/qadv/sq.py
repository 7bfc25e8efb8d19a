"""Sample-and-query access over classical vectors.

An SQVector keeps a unit-norm real vector together with a prefix-sum
binary tree over the squared entries, giving O(1) entry reads and
O(log N) draws of index i with probability values[i]^2. Batches of draws
descend the tree in blocks of lanes small enough to stay in a core's L2
cache, each level in place on the block's buffers. On top of that
sits the unbiased importance-sampling inner-product estimator
X = y_i / x_i with i ~ x_i^2, whose variance is at most 1 for unit vectors.
Long runs of draws go through fixed blocks of uniforms (`_DRAW_BLOCK`):
the estimator holds 8 bytes per sample for its draws plus one block, and
`sample_counts` only one block and its counts. Chunked ``rng.random``
calls give exactly the stream of one call, so every index is unchanged.

Boundary convention: a uniform draw r in [0, 1) selects the unique index i
with F(i-1) <= r < F(i); exact ties between r and a stored prefix resolve
to the right child. `build` accepts a root mass up to `_NORM_TOL` below 1,
so r is first scaled by the root's mass when that is below 1; otherwise a
uniform past the root would go right at every level, to the last leaf,
which may be padding. Scaled so, r never reaches a zero-probability leaf
(power-of-two padding included) but through rounding in the descent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

_NORM_TOL = 1e-9
# Lanes per block of sample_many: a block's node ids, uniforms and three
# scratch rows (about 0.5 MB) stay in one core's L2 cache through every
# level of the descent.
_DESCENT_LANES = 1 << 14
#: Draws per block of `_index_blocks`. Output bytes do not depend on it:
#: every block's uniforms continue the generator's one stream.
_DRAW_BLOCK = 1 << 17


def _children_sum(tree: np.ndarray, lo: int) -> np.ndarray:
    """Sum of the two children of every node on the level lo..2lo-1."""
    return tree[2 * lo : 4 * lo : 2] + tree[2 * lo + 1 : 4 * lo : 2]


class SQVector:
    """Immutable sample-and-query wrapper around a unit vector."""

    __slots__ = ("dim", "values", "tree")

    def __init__(self, dim: int, values: np.ndarray, tree: np.ndarray) -> None:
        self.dim = dim
        self.values = values
        self.tree = tree

    def check_tree(self) -> None:
        """Re-verify the prefix-sum invariants in O(N). Written as
        ``not (deviation <= tol)`` so that a NaN node fails."""
        if not abs(self.tree[1] - 1.0) <= _NORM_TOL:
            raise InvariantViolation(f"root sum {self.tree[1]} deviates from 1")
        # Levels top down, so the first bad node found is the first in heap order.
        lo = 1
        while lo < self.dim:
            bad = ~(np.abs(self.tree[lo : 2 * lo] - _children_sum(self.tree, lo)) <= 1e-12)
            if bad.any():
                node = lo + int(bad.argmax())
                raise InvariantViolation(f"node {node} does not match its children")
            lo *= 2


def _check_finite(values: np.ndarray) -> None:
    # A NaN passes every ``deviation > tol`` test, so refuse it up front.
    if not np.isfinite(values).all():
        raise ValueError("vector entries must be finite")


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
    tree = np.zeros(2 * dim)
    np.square(values, out=tree[dim:])
    lo = dim // 2
    while lo >= 1:
        tree[lo : 2 * lo] = _children_sum(tree, lo)
        lo //= 2
    return SQVector(dim, values, tree)


def sample_many(sq: SQVector, rs: np.ndarray) -> np.ndarray:
    """Per uniform r, the index i with F(i-1) <= r < F(i) for r scaled by
    min(root mass, 1), `_DESCENT_LANES` lanes at a time. At a root mass of
    1 or more the scale is 1 and r is taken as it is."""
    rs = np.asarray(rs, dtype=float)
    # Written so that a NaN uniform fails.
    if not ((rs >= 0.0).all() and (rs < 1.0).all()):
        raise ValueError("r must lie in [0, 1)")
    out = np.empty(len(rs), dtype=np.int64)
    lanes = min(len(rs), _DESCENT_LANES)
    buffers = np.empty(lanes), np.empty(lanes), np.empty(lanes, bool), np.empty(lanes)
    depth = sq.dim.bit_length() - 1
    scale = min(sq.tree[1], 1.0)  # see the boundary convention above
    for start in range(0, len(rs), _DESCENT_LANES):
        # The block's slice of `out` holds its node ids until the last level.
        node = out[start : start + _DESCENT_LANES]
        r, left, go, step = (b[: len(node)] for b in buffers)
        np.multiply(rs[start : start + _DESCENT_LANES], scale, out=r)
        node.fill(1)
        for _ in range(depth):
            node <<= 1
            # Every node id is in range, so "clip" never clips; it spares
            # the buffered copy that take makes under its default "raise".
            np.take(sq.tree, node, out=left, mode="clip")
            np.greater_equal(r, left, out=go)
            # r -= left * go equals r -= where(go, left, 0) bit for bit.
            np.multiply(left, go, out=step)
            r -= step
            node += go
        node -= sq.dim
    return out


def _index_blocks(sq_x: SQVector, n: int, rng: np.random.Generator):
    """The indices of n draws, `_DRAW_BLOCK` at a time: yields
    ``(start, idx)`` where ``idx`` holds draws start, start + 1, ..."""
    for start in range(0, n, _DRAW_BLOCK):
        yield start, sample_many(sq_x, rng.random(min(_DRAW_BLOCK, n - start)))


def sample_counts(sq: SQVector, n: int, rng: np.random.Generator) -> np.ndarray:
    """How often each index comes up in n draws: the counts of
    ``sample_many(sq, rng.random(n))`` in O(dim) memory, not O(n)."""
    counts = np.zeros(sq.dim, dtype=np.int64)
    for _, idx in _index_blocks(sq, n, rng):
        counts += np.bincount(idx, minlength=sq.dim)
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


def load_vector(path: str) -> np.ndarray:
    """Read a real vector from .npy or a whitespace/comma text file; a
    complex .npy is a ValueError, not its real part."""
    if path.endswith(".npy"):
        vec = np.load(path).reshape(-1)
        if np.iscomplexobj(vec):
            raise ValueError("vector has complex entries; sample access needs real ones")
        return vec.astype(float)
    try:
        return np.loadtxt(path).reshape(-1)
    except ValueError:
        return np.loadtxt(path, delimiter=",").reshape(-1)
