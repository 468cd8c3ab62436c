"""Stage one: partition a frame sequence into k clusters.

Self-supervised scenes cluster on frame features with a capacity-balanced
k-means; supervised scenes cluster on ground-truth poses and also record the
frame nearest each pose centroid.  All tie-breaks go to the lowest index so
results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import check_count, index_array

_MAX_ITER = 100  # Lloyd iterations per k-means run
_TOL = 1e-6  # stop once no centroid moves farther than this
_BLOCK_VALUES = 32768  # values per block of the blocked passes over rows (256 KB)
_SUM_GROUP = 8  # columns per bincount of the Lloyd cluster sums


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ClusterPartition:
    """Assignment of every frame to exactly one of k clusters, fixed at
    construction: the fields cannot be reassigned and the arrays are read-only.

    sizes, table and members are derived from labels.  table is the padded
    member table: (k, largest cluster) int64, row j cluster j's members in
    ascending order, then n_frames; members[j] is the view table[j, :sizes[j]].
    """

    k: int
    labels: np.ndarray  # (n,) int64, values in [0, k)
    gt_keyframes: np.ndarray | None = None  # (k,) frame nearest each pose centroid
    sizes: np.ndarray = field(init=False, repr=False)  # (k,) member count per cluster
    table: np.ndarray = field(init=False, repr=False)
    members: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        check_count("k", self.k)
        labels = _read_only(index_array("labels", self.labels, self.k))
        object.__setattr__(self, "labels", labels)
        sizes = _read_only(np.bincount(labels, minlength=self.k))
        table = np.full((self.k, max(int(sizes.max()), 1)), labels.size, dtype=np.int64)
        # a stable sort groups the frames by cluster, each group ascending, and
        # a boolean mask fills the table row by row in that order
        table[np.arange(table.shape[1]) < sizes[:, None]] = np.argsort(labels, kind="stable")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "table", _read_only(table))
        object.__setattr__(self, "members", tuple(table[j, :s] for j, s in enumerate(sizes)))
        if self.gt_keyframes is not None:
            gt = index_array("gt_keyframes", self.gt_keyframes, labels.size)
            if gt.shape != (self.k,):
                raise ValueError(f"gt_keyframes must have shape ({self.k},)")
            for j, f in enumerate(gt):
                if labels[f] != j:
                    raise ValueError(f"gt keyframe {f} is not a member of cluster {j}")
            object.__setattr__(self, "gt_keyframes", _read_only(gt))

    @property
    def n_frames(self) -> int:
        return self.labels.size

    def nearest_members(self, dist) -> np.ndarray:
        """Per cluster, the member with the smallest dist[frame]; ties go to the
        lowest frame and an empty cluster gets -1.  dist holds one value per
        frame, shape (n_frames,); ValueError otherwise."""
        dist = np.asarray(dist, dtype=np.float64)
        if dist.shape != (self.n_frames,):
            raise ValueError(f"dist must have shape ({self.n_frames},), got {dist.shape}")
        # the padding index reads +inf, so it wins only in a row of padding;
        # rows ascend, so argmin's first minimum is the lowest frame
        cols = np.argmin(np.append(dist, np.inf)[self.table], axis=1)
        picks = self.table[np.arange(self.k), cols]
        picks[self.sizes == 0] = -1
        return picks


@dataclass(frozen=True, eq=False)
class ClusterSample:
    """Frames drawn for one training epoch: table[s, q] holds the N frames
    step s draws from cluster q, a read-only (steps, k, N) int64 array."""

    table: np.ndarray

    @property
    def frame_indices(self) -> np.ndarray:
        """The steps * k * N frames as one flat array, step after step;
        perfbench's tracer counts the sampled rows by its length."""
        return self.table.ravel()


def _sq_dists_from_cross(cross: np.ndarray, x_sq: np.ndarray, c_sq: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """out = max(x_sq[:, None] + c_sq - 2 * cross, 0), the squared distances
    |x_i|^2 + |c_j|^2 - 2 x_i.c_j clamped at 0, given cross = x @ c.T, which
    is doubled in place."""
    np.add(x_sq[:, None], c_sq[None, :], out=out)
    cross *= 2.0
    out -= cross
    return np.maximum(out, 0.0, out=out)


def _row_blocks(n: int, width: int, buffers: int = 1):
    """(start, stop, *views) per block of rows start to stop of an n-row pass,
    one (stop - start, width) view of each of `buffers` reused buffers of about
    256 KB, so each block must be used before the next; a caller making many
    passes builds the list once.  Row sums keep the one-shot sum's bytes."""
    rows = max(1, min(n, _BLOCK_VALUES // width))
    bufs = [np.empty((rows, width)) for _ in range(buffers)]
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        yield (start, stop, *(buf[:stop - start] for buf in bufs))


def _member_sq_dists(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """((x - centroids[labels]) ** 2).sum(axis=1), one row block at a time."""
    dist = np.empty(x.shape[0])
    for start, stop, diff in _row_blocks(*x.shape):
        np.take(centroids, labels[start:stop], axis=0, out=diff)
        np.subtract(x[start:stop], diff, out=diff)
        np.square(diff, out=diff).sum(axis=1, out=dist[start:stop])
    return dist


def _sq_dists_to_row(x: np.ndarray, idx: int, blocks: list, out: np.ndarray) -> np.ndarray:
    """((x - x[idx]) ** 2).sum(axis=1) of a C-contiguous x into out, over blocks =
    list(_row_blocks(*x.shape)): the broadcast expression's bytes, but each block
    subtracts in one contiguous loop instead of one short loop per row."""
    d = x.shape[1]
    x_flat = x.ravel()
    tile = np.tile(x[idx], blocks[0][1])  # the first block's stop is the block row count
    for start, stop, block in blocks:
        np.subtract(x_flat[start * d:stop * d], tile[:block.size], out=block.reshape(-1))
        np.square(block, out=block)
        block.sum(axis=1, out=out[start:stop])
    return out


def _kmeans_pp_rows(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of x that k-means++ picks as the k initial centres, in pick order."""
    n = x.shape[0]
    blocks = list(_row_blocks(*x.shape))
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists_to_row(x, chosen[0], blocks, np.empty(n))
    new = np.empty(n)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # every remaining point coincides with a chosen centroid
            idx = int(np.setdiff1d(np.arange(n), chosen)[0])
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        np.minimum(d2, _sq_dists_to_row(x, idx, blocks, new), out=d2)
    return np.array(chosen, dtype=np.int64)


def _checked_points(features, k: int) -> np.ndarray:
    """The one feature-matrix check: features as a C-order float64 2-d matrix of
    finite values, at least one column and at least k rows, k an integer >= 1."""
    # C order for the blocked seeding pass; the results do not depend on the
    # caller's memory layout
    x = np.asarray(features, dtype=np.float64, order="C")
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"features must be 2-d with at least one column, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("NaN or Inf detected in features")
    check_count("k", k)
    if k > x.shape[0]:
        raise ValueError(f"k ({k}) exceeds number of frames ({x.shape[0]})")
    return x


def kmeans_pp_rows(features, k: int, seed: int = 0) -> np.ndarray:
    """Row indices of the k centres that k-means++ seeding picks for this seed.

    Each pick depends only on the picks before it and the random stream, so
    for j < k the first j rows are exactly the picks at k = j.  A caller that
    runs kmeans at several k for one seed can seed once, at the largest k, and
    pass the rows as kmeans(..., init_rows=).
    """
    x = _checked_points(features, k)
    check_count("seed", seed, 0)
    return _kmeans_pp_rows(x, k, np.random.default_rng(seed))


def kmeans(features, k: int, seed: int = 0, return_history: bool = False, init_rows=None):
    """Lloyd's algorithm with k-means++ seeding.

    Ties in the assignment step go to the lowest centroid id.  A cluster that
    empties is reseeded at the point farthest from its assigned centroid.
    init_rows, at least k rows from kmeans_pp_rows(features, k2, seed) for
    some k2 >= k, starts Lloyd from x[init_rows[:k]], the centres the seeding
    would pick, instead of seeding again.
    Returns (centroids, labels), plus the per-assignment inertia history when
    return_history is set.
    """
    x = _checked_points(features, k)
    check_count("seed", seed, 0)
    n, d = x.shape
    if init_rows is None:
        init_rows = _kmeans_pp_rows(x, k, np.random.default_rng(seed))
    else:
        init_rows = index_array("init_rows", init_rows, n)
        if init_rows.size < k:
            raise ValueError(f"init_rows holds {init_rows.size} rows, fewer than k ({k})")
    centroids = x[init_rows[:k]]
    history = []
    x_sq = (x * x).sum(axis=1)
    # Cluster sums take one bincount per group of up to 8 columns: x_g[g], a
    # C-contiguous copy of columns g*width to (g+1)*width zero-padded past d,
    # sends frame i's column c of the group to bin labels[i] + k*c.  A cluster's
    # frames come in temporal runs, so one bincount per column would make each
    # add wait on the previous add to the same bin; here consecutive adds go to
    # `width` different bins.  bincount walks the weights in order, row i's
    # `width` values before row i+1's, so each bin still adds its rows in index
    # order and every sum equals a sequential np.add.at bit for bit.
    width = min(_SUM_GROUP, d)
    groups = -(-d // width)
    x_g = np.zeros((groups, n, width))
    for g in range(groups):
        cols = x[:, g * width:(g + 1) * width]
        x_g[g, :, :cols.shape[1]] = cols
    bin_offsets = k * np.arange(width)
    # The assignment keeps one full x @ c.T product, since BLAS gives other
    # bytes on row blocks; the elementwise passes after it, the argmin and the
    # gather run over the row blocks of one (n, k) pass.
    blocks = list(_row_blocks(n, k))
    block_rows = np.arange(blocks[0][1])

    def assign(cents):
        cross = x @ cents.T
        c_sq = (cents * cents).sum(axis=1)
        lab, dmin = np.empty(n, dtype=np.intp), np.empty(n)
        for start, stop, buf in blocks:
            d2 = _sq_dists_from_cross(cross[start:stop], x_sq[start:stop], c_sq, buf)
            np.argmin(d2, axis=1, out=lab[start:stop])  # argmin keeps the lowest id on ties
            dmin[start:stop] = d2[block_rows[:stop - start], lab[start:stop]]
        return lab, dmin

    for _ in range(_MAX_ITER):
        labels, dmin = assign(centroids)
        history.append(float(dmin.sum()))
        counts = np.bincount(labels, minlength=k)
        bins = (labels[:, None] + bin_offsets).ravel()
        sums_t = np.empty((groups, width * k))
        for g in range(groups):
            sums_t[g] = np.bincount(bins, weights=x_g[g].ravel(), minlength=width * k)
        sums = sums_t.reshape(groups * width, k)[:d].T
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            farthest = np.argsort(-dmin, kind="stable")
            for j, idx in zip(empty, farthest):
                new_centroids[j] = x[idx]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < _TOL:
            break

    if shift == 0.0:
        # no centroid moved, so the last assignment already is the final one
        history.append(history[-1])
    else:
        labels, dmin = assign(centroids)
        history.append(float(dmin.sum()))
    if return_history:
        return centroids, labels, history
    return centroids, labels


def balance_assignment(features, centroids) -> np.ndarray:
    """Reassign frames so every cluster ends with floor(n/k) or ceil(n/k) members.

    Frames are processed in descending margin order (distance to second-nearest
    centroid minus distance to nearest); each goes to its nearest centroid that
    still has room.  Room means the cluster is below ceil(n/k) and, once the
    n mod k above-floor slots are spoken for, below floor(n/k).
    features pass the feature-matrix check at k; centroids must be finite, 2-d,
    with at least one row and the features' column count.  ValueError otherwise.
    """
    c = np.asarray(centroids, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] < 1:
        raise ValueError(f"centroids must be 2-d with at least one row, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("NaN or Inf detected in centroids")
    x = _checked_points(features, len(c))
    if x.shape[1] != c.shape[1]:
        raise ValueError(f"centroids have {c.shape[1]} columns, the features {x.shape[1]}")
    n, k = x.shape[0], c.shape[0]
    floor, extra = divmod(n, k)

    labels = np.zeros(n, dtype=np.int64)
    if k == 1:
        return labels

    dist = np.sqrt(_sq_dists_from_cross(x @ c.T, (x * x).sum(axis=1), (c * c).sum(axis=1),
                                        np.empty((n, k))))
    preference = np.argsort(dist, axis=1, kind="stable")  # ties to lowest id
    nearest_two = np.take_along_axis(dist, preference[:, :2], axis=1)
    margin = nearest_two[:, 1] - nearest_two[:, 0]
    order = np.lexsort((np.arange(n), -margin))

    sizes = np.zeros(k, dtype=np.int64)
    above_floor = 0
    for i in order:
        room = floor + (above_floor < extra)  # an above-floor slot is still free
        for j in preference[i]:
            if sizes[j] < room:
                break
        else:
            raise RuntimeError("capacity bookkeeping failed")  # unreachable: room >= frames left
        labels[i] = j
        sizes[j] += 1
        if sizes[j] > floor:
            above_floor += 1
    return labels


def cluster_features(features, k: int, seed: int = 0) -> ClusterPartition:
    """Feature-space clustering stage: k-means, then capacity balancing."""
    centroids, labels = kmeans(features, k, seed=seed)
    labels = balance_assignment(features, centroids)
    return ClusterPartition(k, labels)


def gt_pose_clustering(poses: np.ndarray | None, k: int, seed: int = 0) -> ClusterPartition:
    """Cluster an (n, 3) pose array; record the frame nearest each centroid."""
    if poses is None or len(poses) == 0:
        raise ValueError("ground-truth pose clustering requires poses")
    x = np.asarray(poses, dtype=np.float64)
    centroids, labels = kmeans(x, k, seed=seed)
    gt = ClusterPartition(k, labels).nearest_members(
        np.sqrt(_member_sq_dists(x, centroids, labels)))
    empty = np.flatnonzero(gt < 0)
    if empty.size:
        raise ValueError(f"pose cluster {empty[0]} is empty; cannot pick a ground-truth keyframe")
    return ClusterPartition(k, labels, gt_keyframes=gt)


def _first_by_key(table: np.ndarray, keys: np.ndarray, n_sample: int) -> np.ndarray:
    """(..., k, n_sample): per row of a member table, its first n_sample frames in
    ascending order of keys[..., frame], equal keys lower frame first, which is
    the order of np.lexsort((keys, labels)) within each cluster.  keys holds one
    key per frame, then +inf for the padding index, in its last axis, so a row
    shorter than n_sample ends in padding; past the table's width its last
    column repeats.  A (steps, n_frames + 1) key table gives one (k, n_sample)
    pick per step, each from its own row of keys."""
    ranks = np.argsort(np.take(keys, table, axis=-1), axis=-1, kind="stable")
    cols = ranks[..., np.minimum(np.arange(n_sample), table.shape[1] - 1)]
    return table[np.arange(table.shape[0])[:, None], cols]


def sample_cluster(partition: ClusterPartition, n_sample: int,
                   rng: np.random.Generator | int) -> ClusterSample:
    """One training epoch's sample: ceil(n_frames / (k * n_sample)) steps, each
    n_sample member frames of every cluster, in cluster-id order.

    Each step draws one rng.random key per frame, which puts each cluster's
    members in random order (a stable sort of the keys in each row of the
    partition's member table), and each cluster takes its first n_sample, so
    no frame repeats within a step.  A cluster smaller than n_sample draws with
    replacement instead: rng.choice over its members, after the step's keys and
    in cluster-id order.  The steps go in blocks of _row_blocks(steps,
    n_frames + 1), about 256 KB of keys or one step's, and each block's keys
    are sorted at once.  Step s holds the frames of the (s + 1)-th of
    successive one-step draws, and the Generator ends where they leave it.
    ValueError if a cluster is empty.  An rng that is no Generator is a seed,
    which must be an integer >= 0.
    """
    check_count("n_sample", n_sample)
    if not isinstance(rng, np.random.Generator):
        check_count("seed", rng, 0)
        rng = np.random.default_rng(rng)
    table, sizes, n_frames = partition.table, partition.sizes, partition.n_frames
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise ValueError(f"cluster {empty[0]} is empty")
    steps = max(1, -(-n_frames // (partition.k * n_sample)))
    small = np.flatnonzero(sizes < n_sample)
    picks = np.empty((steps, partition.k, n_sample), dtype=np.int64)
    drawn = np.empty((steps, small.size, n_sample), dtype=np.int64)
    for start, stop, keys in _row_blocks(steps, n_frames + 1):
        for step, row in enumerate(keys, start):
            rng.random(out=row[:-1])
            for i, j in enumerate(small):
                drawn[step, i] = rng.choice(partition.members[j], size=n_sample, replace=True)
        keys[:, -1] = np.inf  # the padding sorts after every key in [0, 1)
        picks[start:stop] = _first_by_key(table, keys, n_sample)
    picks[:, small] = drawn
    return ClusterSample(_read_only(picks))
