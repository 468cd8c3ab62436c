"""Stage one: partition a frame sequence into k clusters.

Self-supervised scenes cluster on frame features with a capacity-balanced
k-means; supervised scenes cluster on ground-truth poses and also record the
frame nearest each pose centroid.  All tie-breaks go to the lowest index so
results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import check_count

_MAX_ITER = 100  # Lloyd iterations per k-means run
_TOL = 1e-6  # stop once no centroid moves farther than this
_PP_BLOCK_VALUES = 32768  # values per block of the blocked k-means passes (256 KB)


def _index_array(name: str, values, high: int) -> np.ndarray:
    """values as a 1-d int64 array in [0, high); ValueError for anything else."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(f"{name} must be a 1-d array of integers, got {arr.dtype} {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= high):
        raise ValueError(f"{name} out of range [0, {high})")
    return arr.astype(np.int64)


@dataclass
class ClusterPartition:
    """Assignment of every frame to exactly one of k clusters.

    members, per cluster its frames in ascending order, is derived from labels.
    """

    k: int
    labels: np.ndarray  # (n,) int64, values in [0, k)
    gt_keyframes: np.ndarray | None = None  # (k,) frame nearest each pose centroid
    members: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        check_count("k", self.k)
        self.labels = labels = _index_array("labels", self.labels, self.k)
        # one stable sort groups the frames by cluster, each group ascending
        order = np.argsort(labels, kind="stable")
        self.members = np.split(order, np.searchsorted(labels[order], np.arange(1, self.k)))
        if self.gt_keyframes is not None:
            gt = _index_array("gt_keyframes", self.gt_keyframes, labels.size)
            if gt.shape != (self.k,):
                raise ValueError(f"gt_keyframes must have shape ({self.k},)")
            for j, f in enumerate(gt):
                if labels[f] != j:
                    raise ValueError(f"gt keyframe {f} is not a member of cluster {j}")
            self.gt_keyframes = gt

    @property
    def n_frames(self) -> int:
        return self.labels.size

    def nearest_members(self, dist) -> np.ndarray:
        """Per cluster, the member with the smallest dist[frame]; ties go to the
        lowest frame and an empty cluster gets -1.  dist holds one value per frame."""
        picks = np.full(self.k, -1, dtype=np.int64)
        for j, m in enumerate(self.members):
            if m.size:
                picks[j] = m[int(np.argmin(dist[m]))]
        return picks


@dataclass
class ClusterSample:
    """Frames drawn for one training step, grouped by cluster: the first
    sizes[0] rows of frame_indices come from cluster cluster_ids[0], the next
    sizes[1] from cluster_ids[1], and so on.  cluster_ids defaults to 0, 1, ...;
    total_loss checks the frames and the ids."""

    frame_indices: np.ndarray
    sizes: np.ndarray
    cluster_ids: np.ndarray | None = None

    def __post_init__(self):
        self.frame_indices = np.asarray(self.frame_indices)
        self.sizes = sizes = _index_array("sizes", self.sizes, self.frame_indices.size + 1)
        if sizes.size and sizes.min() < 1:
            raise ValueError("every cluster sample needs at least one frame")
        if sizes.sum() != self.frame_indices.size:
            raise ValueError(f"sizes add up to {sizes.sum()}, "
                             f"not to the {self.frame_indices.size} frame indices")
        ids = np.arange(sizes.size) if self.cluster_ids is None else np.asarray(self.cluster_ids)
        if ids.shape != sizes.shape:
            raise ValueError(f"{ids.size} cluster ids for {sizes.size} clusters")
        self.cluster_ids = ids


def _sq_dists_from_cross(cross: np.ndarray, x_sq: np.ndarray, c_sq: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """out = max(x_sq[:, None] + c_sq - 2 * cross, 0), the squared distances
    |x_i|^2 + |c_j|^2 - 2 x_i.c_j clamped at 0, given cross = x @ c.T, which
    is doubled in place."""
    np.add(x_sq[:, None], c_sq[None, :], out=out)
    cross *= 2.0
    out -= cross
    return np.maximum(out, 0.0, out=out)


def _pairwise_sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distances of every row of x to every row of c, clamped at 0."""
    cross = x @ c.T
    return _sq_dists_from_cross(cross, (x * x).sum(axis=1), (c * c).sum(axis=1),
                                np.empty_like(cross))


def _sq_dists_to_row(x: np.ndarray, idx: int, buf: np.ndarray, out: np.ndarray) -> np.ndarray:
    """((x - x[idx]) ** 2).sum(axis=1) into out, len(buf) rows at a time.

    x and buf must be C-contiguous with x's row length.  Per row the squares
    and the row sum are the ones the broadcast expression computes, so the
    bytes match, but each block subtracts in one contiguous loop instead of
    one short loop per row.
    """
    n, d = x.shape
    rows = buf.shape[0]
    x_flat = x.ravel()
    tile = np.tile(x[idx], rows)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = buf[:stop - start]
        np.subtract(x_flat[start * d:stop * d], tile[:block.size], out=block.reshape(-1))
        np.square(block, out=block)
        block.sum(axis=1, out=out[start:stop])
    return out


def _kmeans_pp_rows(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of x that k-means++ picks as the k initial centres, in pick order."""
    n, d = x.shape
    buf = np.empty((min(n, max(1, _PP_BLOCK_VALUES // max(d, 1))), d))
    chosen = [int(rng.integers(n))]
    taken = set(chosen)
    d2 = _sq_dists_to_row(x, chosen[0], buf, np.empty(n))
    new = np.empty(n)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # every remaining point coincides with a chosen centroid
            idx = next(i for i in range(n) if i not in taken)
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        taken.add(idx)
        np.minimum(d2, _sq_dists_to_row(x, idx, buf, new), out=d2)
    return np.array(chosen, dtype=np.int64)


def _checked_points(features, k: int, seed: int) -> np.ndarray:
    """features as a C-order float64 matrix of at least k finite rows; ValueError otherwise."""
    # C order for the blocked seeding pass; the results do not depend on the
    # caller's memory layout
    x = np.asarray(features, dtype=np.float64, order="C")
    if x.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("NaN or Inf detected in features")
    check_count("k", k)
    check_count("seed", seed, 0)
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
    x = _checked_points(features, k, seed)
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
    x = _checked_points(features, k, seed)
    n, d = x.shape
    if init_rows is None:
        init_rows = _kmeans_pp_rows(x, k, np.random.default_rng(seed))
    else:
        init_rows = _index_array("init_rows", init_rows, n)
        if init_rows.size < k:
            raise ValueError(f"init_rows holds {init_rows.size} rows, fewer than k ({k})")
    centroids = x[init_rows[:k]]
    history = []
    x_sq = (x * x).sum(axis=1)
    # Cluster sums take one bincount per column of a C-contiguous transpose.
    # bincount adds in index order, so each sum equals a sequential np.add.at
    # bit for bit; a strided column view would be several times slower.
    x_t = np.ascontiguousarray(x.T)
    # The assignment keeps one full x @ c.T product, since BLAS gives other
    # bytes on row blocks; the elementwise passes after it, the argmin and the
    # gather run over row blocks of about _PP_BLOCK_VALUES values in one buffer.
    block = min(n, max(1, _PP_BLOCK_VALUES // k))
    buf = np.empty((block, k))
    block_rows = np.arange(block)

    def assign(cents):
        cross = x @ cents.T
        c_sq = (cents * cents).sum(axis=1)
        lab, dmin = np.empty(n, dtype=np.intp), np.empty(n)
        for start in range(0, n, block):
            stop = min(start + block, n)
            d2 = _sq_dists_from_cross(cross[start:stop], x_sq[start:stop], c_sq,
                                      buf[:stop - start])
            np.argmin(d2, axis=1, out=lab[start:stop])  # argmin keeps the lowest id on ties
            dmin[start:stop] = d2[block_rows[:stop - start], lab[start:stop]]
        return lab, dmin

    for _ in range(_MAX_ITER):
        labels, dmin = assign(centroids)
        history.append(float(dmin.sum()))
        counts = np.bincount(labels, minlength=k)
        sums = np.empty((k, d))
        for c in range(d):
            sums[:, c] = np.bincount(labels, weights=x_t[c], minlength=k)
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
    """
    x = np.asarray(features, dtype=np.float64)
    c = np.asarray(centroids, dtype=np.float64)
    n, k = x.shape[0], c.shape[0]
    floor, extra = divmod(n, k)
    cap = floor + (1 if extra else 0)

    labels = np.zeros(n, dtype=np.int64)
    if k == 1:
        return labels

    dist = np.sqrt(_pairwise_sq_dists(x, c))
    preference = np.argsort(dist, axis=1, kind="stable")  # ties to lowest id
    nearest_two = np.take_along_axis(dist, preference[:, :2], axis=1)
    margin = nearest_two[:, 1] - nearest_two[:, 0]
    order = np.lexsort((np.arange(n), -margin))

    sizes = np.zeros(k, dtype=np.int64)
    above_floor = 0
    for i in order:
        for j in preference[i]:
            if sizes[j] >= cap:
                continue
            if above_floor >= extra and sizes[j] >= floor:
                continue
            labels[i] = j
            sizes[j] += 1
            if sizes[j] > floor:
                above_floor += 1
            break
        else:
            raise RuntimeError("capacity bookkeeping failed")  # unreachable when cap*k >= n
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
    centroids, labels = kmeans(poses, k, seed=seed)
    part = ClusterPartition(k, labels)
    gt = part.nearest_members(np.sqrt(((poses - centroids[labels]) ** 2).sum(axis=1)))
    empty = np.flatnonzero(gt < 0)
    if empty.size:
        raise ValueError(f"pose cluster {empty[0]} is empty; cannot pick a ground-truth keyframe")
    part.gt_keyframes = gt  # each pick is a member of its cluster by construction
    return part


def sample_cluster(partition: ClusterPartition, n_sample: int,
                   rng: np.random.Generator | int) -> ClusterSample:
    """One training step's sample: n_sample member frames of every cluster, in
    cluster-id order, from one draw.

    One rng.random key per frame puts each cluster's members in random order
    (np.lexsort on keys within labels) and each cluster takes its first
    n_sample, so no frame repeats.  A cluster smaller than n_sample draws with
    replacement instead: rng.choice over its members, after the keys and in
    cluster-id order.  Only such a cluster is checked for being empty; train
    checks every cluster once.  An rng that is no Generator is a seed, which
    must be an integer >= 0.
    """
    check_count("n_sample", n_sample)
    if not isinstance(rng, np.random.Generator):
        check_count("seed", rng, 0)
        rng = np.random.default_rng(rng)
    labels = partition.labels
    sizes = np.bincount(labels, minlength=partition.k)
    order = np.lexsort((rng.random(labels.size), labels))
    # row j reads the first n_sample of cluster j's run, held inside the run
    offsets = np.minimum(np.arange(n_sample), sizes[:, None] - 1)
    picks = order[(np.cumsum(sizes) - sizes)[:, None] + offsets]
    for j in np.flatnonzero(sizes < n_sample):
        if sizes[j] == 0:
            raise ValueError(f"cluster {j} is empty")
        picks[j] = rng.choice(partition.members[j], size=n_sample, replace=True)
    return ClusterSample(picks.ravel(), np.full(partition.k, n_sample))
