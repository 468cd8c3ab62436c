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
_BLOCK_BYTES = 2 ** 18  # bytes per block of the blocked passes over rows (256 KB)
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
            wrong = np.flatnonzero(labels[gt] != np.arange(self.k))
            if wrong.size:
                j = wrong[0]
                raise ValueError(f"gt keyframe {gt[j]} is not a member of cluster {j}")
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


def _row_blocks(n: int, width: int, buffers: int = 1, dtype=np.float64):
    """(start, stop, *views) per block of rows start to stop of an n-row pass,
    one (stop - start, width) view of each of `buffers` reused buffers of dtype
    and about 256 KB, so each block must be used before the next; a caller
    making many passes builds the list once.  Row sums keep the one-shot sum's
    bytes."""
    rows = max(1, min(n, _BLOCK_BYTES // (width * np.dtype(dtype).itemsize)))
    bufs = [np.empty((rows, width), dtype) for _ in range(buffers)]
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


def _row_sq_norms(x: np.ndarray, name: str = "features") -> np.ndarray:
    """(x * x).sum(axis=1) of a C-contiguous x, one row block at a time, so
    without an (n, d) temporary.  ValueError, and no RuntimeWarning, when a
    squared row norm is above finfo(float64).max / (8 n) or not finite: a
    squared distance between rows is at most 4 times the larger squared norm,
    so a sum of n of them, an inertia or the seeding's total, could overflow."""
    n = x.shape[0]
    x_sq = np.empty(n)
    with np.errstate(over="ignore"):  # an overflow is refused below
        for start, stop, block in _row_blocks(*x.shape):
            np.square(x[start:stop], out=block).sum(axis=1, out=x_sq[start:stop])
    if not (x_sq <= np.finfo(np.float64).max / (8 * n)).all():
        raise ValueError(f"{name} are too large: a squared row norm exceeds "
                         f"finfo(float64).max / (8 * {n}), so squared distances could overflow")
    return x_sq


def _tier1_margin(d: int) -> tuple[float, float]:
    """(r, a) of the certified float32 tier at d columns, the one margin of
    Lloyd's float32 assignment and the seeding's bound (see kmeans)."""
    return 8 * (d + 6) * 2.0 ** -24, 16 * (d + 6) * float(np.finfo(np.float32).smallest_subnormal)


def _pp_bound(layout: LloydLayout):
    """lower(c, out): kmeans' float32 tier at the one centre x[c], as the
    bound x_sq + f - slack on every row's exact seeding pass, written to out.
    kmeans' docstring shows it is at most the exact pass's bytes."""
    x, x_sq, x32 = layout.x, layout.x_sq, layout.x32
    r, a = _tier1_margin(x.shape[1])
    base = x_sq - r * x_sq  # x_sq less the slack's share of |x|^2
    f = np.empty(x_sq.size, dtype=np.float32)

    def lower(c: int, out: np.ndarray) -> np.ndarray:
        np.matmul(x32, (-2.0 * x[c]).astype(np.float32), out=f)
        np.add(f, np.float32(x_sq[c]), out=f)
        np.add(base, f, out=out)
        out -= r * x_sq[c] + a
        return out
    return lower


def _kmeans_pp_rows(layout: LloydLayout, k: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of layout.x that k-means++ picks as the k initial centres, in pick order.

    Each pick c lowers d2 to min(d2, ((x - c) ** 2).sum(axis=1)), the exact
    pass.  It runs only on the rows whose _pp_bound does not reach d2[i]: a
    skipped row's exact distance is >= d2[i], so np.minimum would have kept
    d2[i], and d2 holds the bytes of the full exact pass after every pick.  A
    NaN bound, were there one, takes the exact pass.  Without x32 every row
    takes it, one contiguous row block at a time: the same picks, unpruned.
    """
    x = layout.x
    n, d = x.shape
    lower = None if layout.x32 is None else _pp_bound(layout)
    blocks = list(_row_blocks(n, d))
    buf = blocks[0][2]  # one block's buffer, reused by every pass
    step = buf.shape[0]
    exact = np.empty(step)
    # d2 starts at +inf, above every bound, so the first pick's pass takes every row
    d2, bound = np.full(n, np.inf), np.empty(n)
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        c = x[chosen[-1]]
        if lower is None:  # every row, read in place
            parts = ((slice(start, stop), x[start:stop]) for start, stop, _ in blocks)
        else:  # the candidate rows, each block gathered into buf as it is reached
            cand = np.flatnonzero(~(lower(chosen[-1], bound) >= d2))
            parts = ((rows, np.take(x, rows, axis=0, out=buf[:rows.size]))
                     for rows in (cand[s:s + step] for s in range(0, cand.size, step)))
        for rows, block in parts:
            diff, near = buf[:block.shape[0]], exact[:block.shape[0]]
            np.subtract(block, c, out=diff)
            np.square(diff, out=diff).sum(axis=1, out=near)
            d2[rows] = np.minimum(d2[rows], near, out=near)
        total = d2.sum()
        if total <= 0.0:
            # every remaining point coincides with a chosen centroid
            chosen.append(int(np.setdiff1d(np.arange(n), chosen)[0]))
        else:
            chosen.append(_weighted_pick(d2, total, rng))
    return np.array(chosen, dtype=np.int64)


def _weighted_pick(weights: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """rng.choice(weights.size, p=weights / total), step for step: the same
    cumulative sum, one rng.random() draw and the same search, so the same
    index and the same draws, without choice's checks of p."""
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _checked_points(features, k: int) -> np.ndarray:
    """The one feature-matrix check: features as a C-order float64 2-d matrix of
    finite values, at least one column and at least k rows, k an integer >= 1.
    A LloydLayout passed its check when it was built, so only k is checked."""
    if isinstance(features, LloydLayout):
        x = features.x
    else:
        # C order for the blocked seeding pass; the results do not depend on the
        # caller's memory layout
        x = np.asarray(features, dtype=np.float64, order="C")
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValueError(f"features must be 2-d with at least one column, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("NaN or Inf detected in features")
    _check_k(k, x.shape[0])
    return x


def _check_k(k: int, n: int) -> None:
    """ValueError unless k is an integer >= 1 and at most the n frames."""
    check_count("k", k)
    if k > n:
        raise ValueError(f"k ({k}) exceeds number of frames ({n})")


@dataclass(frozen=True, eq=False)
class LloydLayout:
    """A checked feature matrix in the layout Lloyd's algorithm reads, all of it
    read-only: x, the (n, d) C-order float64 matrix; x_sq, its squared row norms;
    x_g, the grouped column copy of the cluster sums (see kmeans); x32, x as
    float32 for the certified assignment and seeding bound, or None when a
    squared row norm exceeds finfo(float32).max / 16 (see kmeans).  Built by
    lloyd_layout and shared by any number of calls, on any thread, to kmeans,
    kmeans_pp_rows and the feature baselines, which then neither check nor
    copy the features again."""

    x: np.ndarray
    x_sq: np.ndarray
    x_g: np.ndarray
    x32: np.ndarray | None


def lloyd_layout(features, k: int = 1) -> LloydLayout:
    """features, after the feature-matrix check at k, as a LloydLayout; a
    LloydLayout is returned as it is."""
    x = _checked_points(features, k)
    if isinstance(features, LloydLayout):
        return features
    n, d = x.shape
    x_sq = _row_sq_norms(x)
    # Cluster sums take one bincount per group of up to 8 columns: x_g[g], a
    # C-contiguous copy of columns g*width to (g+1)*width zero-padded past d,
    # sends frame i's column c of the group to bin labels[i] + k*c.  A cluster's
    # frames come in temporal runs, so one bincount per column would make each
    # add wait on the previous add to the same bin; here consecutive adds go to
    # `width` different bins.  bincount walks the weights in order, row i's
    # `width` values before row i+1's, so each bin still adds its rows in index
    # order and every sum equals a sequential np.add.at bit for bit.
    width = min(_SUM_GROUP, d)
    x_g = np.zeros((-(-d // width), n, width))
    for g, group in enumerate(x_g):
        cols = x[:, g * width:(g + 1) * width]
        group[:, :cols.shape[1]] = cols
    x32 = None
    if x_sq.max() <= np.finfo(np.float32).max / 16:
        x32 = _read_only(x.astype(np.float32))
    # a read-only view leaves the caller's array as it was
    return LloydLayout(_read_only(x.view()), _read_only(x_sq), _read_only(x_g), x32)


def kmeans_pp_rows(features, k: int, seed: int = 0) -> np.ndarray:
    """Row indices of the k centres that k-means++ seeding picks for this seed.

    Each pick depends only on the picks before it and the random stream, so
    for j < k the first j rows are exactly the picks at k = j.  A caller that
    runs kmeans at several k for one seed can seed once, at the largest k, and
    pass the rows as kmeans(..., init_rows=).
    """
    layout = lloyd_layout(features, k)
    check_count("seed", seed, 0)
    return _kmeans_pp_rows(layout, k, np.random.default_rng(seed))


def _unsure_argmin(f: np.ndarray, slack: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """lab = each row's argmin of f; returns the rows where another value is
    within slack[row] of the minimum, the threshold rounded to f's dtype."""
    np.argmin(f, axis=1, out=lab)
    best = f.reshape(-1)[np.arange(0, f.size, f.shape[1]) + lab]
    near = f <= (best + slack).astype(f.dtype)[:, None]
    if np.count_nonzero(near) == f.shape[0]:  # each row's minimum alone
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(near.sum(axis=1) > 1)


def kmeans(features, k: int, seed: int = 0, return_history: bool = False, init_rows=None):
    """Lloyd's algorithm with k-means++ seeding.

    Ties in the assignment step go to the lowest centroid id.  A cluster that
    empties is reseeded at the point farthest from its assigned centroid.
    features may be a LloydLayout, which many calls can share.
    init_rows, at least k rows from kmeans_pp_rows(features, k2, seed) for
    some k2 >= k, starts Lloyd from x[init_rows[:k]], the centres the seeding
    would pick, instead of seeding again.
    Returns (centroids, labels), plus the per-assignment inertia history when
    return_history is set.

    The exact assignment is argmin_j max(|x|^2 + |c_j|^2 - 2 x.c_j, 0) in
    float64, from one x @ c.T, its bytes those of the BLAS at hand.  Without
    return_history, and on a layout with x32, the labels come from a pass
    that certifies that argmin instead, one row block of 256 KB of float32
    at a time:
    1. float32: f_j = |c_j|^2 - 2 x.c_j from one float32 GEMM of the block's
       rows of x32 and -2 c (|x|^2 is the same for every j, so its add and
       the clamp are left out).  A row whose argmin j* has every other f_j
       above f_j* + r (|x|^2 + max_j |c_j|^2) + a, r = 8 (d + 6) v,
       a = 16 (d + 6) 2**-149, v = 2**-24 (_tier1_margin), takes j*.
    2. float64, on the block's rows left, 256 KB of x at a time: the same
       with x @ c.T in float64, r = 32 (d + 2) u, a = 32 (d + 2) 2**-1074,
       u = 2**-53.
    3. A row left after that, a tie up to rounding, sends the iteration to
       the exact assignment.
    Why a certified j* is the exact argmin: take S = |x|^2 + max_j |c_j|^2,
    so 2 |x| |c_j| <= S for every j, the true g_j = |c_j|^2 - 2 x.c_j and
    D_j = |x - c_j|^2 = |x|^2 + g_j, and let every rounding be v (or u)
    relative plus at most 2**-150 (or 2**-1075) absolute.  Then
    - the exact value is within E64 = (2 d + 3) u S of D_j: the norms and
      their sum (d + 1) u S, twice a dot product in any order, with or
      without FMA, d u S, the subtraction 2 u S, and the clamp moves no
      value away from D_j >= 0; underflow adds at most 3 d 2**-1075;
    - tier 1's f_j is within E32 = (d + 5) v S of g_j: x and -2 c rounded to
      float32 move the products by 2 v S in all, the float32 sum in any
      order, with or without FMA, by d v S, |c_j|^2 rounded to float32 by
      v S and the add by 2 v S; underflow adds at most (2.5 d + 1) 2**-150
      (sqrt(d) |x| <= (d + |x|^2) / 2);
    - tier 2's f_j is within (2 d + 2) u S, plus 3 d 2**-1075.
    If every f_j - f_j* (j != j*) exceeds twice the tier's error plus 2 E64,
    then D_j - D_j* > 2 E64, so the exact value at j exceeds the one at j*,
    whatever the tie rule.  r S + a is at least 4 times that: (2 d + 11) v S
    and (5 d + 2) 2**-150 in tier 1 (2 E64 < v S), (8 d + 10) u S and
    12 d 2**-1075 in tier 2.  The surplus covers the second-order terms and
    the threshold's rounding to float32 (at most 2 v S).  lloyd_layout keeps
    x32 only when every |x|^2 is below finfo(float32).max / 16, and a
    centroid is a row or a mean of rows, so no float32 value overflows.  So
    the labels, and the centroids computed from them, are the exact
    assignment's, for any BLAS, summation order, row block and thread count.
    The exact assignment also gives the inertia history and the distances
    that an empty cluster's reseed needs; its (n, k) product is allocated
    once per call, the first time it runs.

    The seeding's bound (_pp_bound) is tier 1 at one centre c, a row of x,
    so S = |x|^2 + |c|^2 and D = |x - c|^2 <= 2 S: lower = x_sq + f - slack
    in float64, f within E32 of g.  It is at most the exact pass's bytes
    ((x - c) ** 2).sum(), which are at least D - 2 (d + 2) u S (d
    subtractions, d squares, a sum in any order) less d 2**-1075 of
    underflow: x_sq is within d u S of |x|^2, and subtracting r x_sq, adding
    f and subtracting r |c|^2 + a, each in float64 near at most 2 S, add
    5 u S.  So lower - exact <= (d + 5) v S + (3 d + 9) u S - slack, plus
    (2.5 d + 2) 2**-150 of underflow, and slack = r S + a is at least 8
    times that ((3 d + 9) u < v for d < 2**27), which covers the slack's
    own rounding and the second-order terms.

    A cluster whose members did not change keeps its sums from the previous
    iteration: the same members, added in the same order, give the same bytes.
    """
    layout = lloyd_layout(features, k)
    check_count("seed", seed, 0)
    x, x_sq, x_g, x32 = layout.x, layout.x_sq, layout.x_g, layout.x32
    n, d = x.shape
    if init_rows is None:
        init_rows = _kmeans_pp_rows(layout, k, np.random.default_rng(seed))
    else:
        init_rows = index_array("init_rows", init_rows, n)
        if init_rows.size < k:
            raise ValueError(f"init_rows holds {init_rows.size} rows, fewer than k ({k})")
    centroids = x[init_rows[:k]]
    history = []
    groups, _, width = x_g.shape
    bin_offsets = k * np.arange(width)
    certify = x32 is not None and not return_history
    if certify:
        r32, a32 = _tier1_margin(d)
        r64, a64 = 32 * (d + 2) * 2.0 ** -53, 32 * (d + 2) * np.finfo(np.float64).smallest_subnormal
        slack_x = r32 * x_sq
        blocks32 = list(_row_blocks(n, k, dtype=np.float32))
        chunk64 = max(1, _BLOCK_BYTES // (8 * d))
    exact = []  # the exact assignment's (n, k) product and row blocks, made on first use

    def assign_exact(cents):
        # One full x @ c.T product, since BLAS gives other bytes on row blocks;
        # the elementwise passes after it, the argmin and the gather run over
        # the row blocks of one (n, k) pass.
        if not exact:
            exact.extend((np.empty((n, k)), list(_row_blocks(n, k))))
        cross, blocks = exact
        np.matmul(x, cents.T, out=cross)
        c_sq = (cents * cents).sum(axis=1)
        lab, dmin = np.empty(n, dtype=np.intp), np.empty(n)
        block_rows = np.arange(blocks[0][1])
        for start, stop, buf in blocks:
            d2 = _sq_dists_from_cross(cross[start:stop], x_sq[start:stop], c_sq, buf)
            np.argmin(d2, axis=1, out=lab[start:stop])  # argmin keeps the lowest id on ties
            dmin[start:stop] = d2[block_rows[:stop - start], lab[start:stop]]
        return lab, dmin

    def assign(cents):
        """(labels, dmin) of the exact assignment; dmin is None when the
        labels come from the certified pass."""
        if not certify:
            return assign_exact(cents)
        c_sq = (cents * cents).sum(axis=1)
        c_max = c_sq.max()
        neg2c32, c_sq32 = (-2.0 * cents).astype(np.float32).T, c_sq.astype(np.float32)
        lab = np.empty(n, dtype=np.intp)
        for start, stop, f in blocks32:
            np.matmul(x32[start:stop], neg2c32, out=f)
            f += c_sq32
            slack = slack_x[start:stop] + (r32 * c_max + a32)
            unsure = _unsure_argmin(f, slack, lab[start:stop]) + start
            for i in range(0, unsure.size, chunk64):  # 256 KB of x per gather
                rows = unsure[i:i + chunk64]
                f64 = x[rows] @ cents.T
                f64 *= -2.0
                f64 += c_sq
                picks = np.empty(rows.size, dtype=np.intp)
                if _unsure_argmin(f64, r64 * (x_sq[rows] + c_max) + a64, picks).size:
                    return assign_exact(cents)
                lab[rows] = picks
        return lab, None

    sums_t, gathered = np.empty((groups, width * k)), np.empty((n, width))
    owner = None  # the labels whose cluster sums sums_t holds
    for _ in range(_MAX_ITER):
        labels, dmin = assign(centroids)
        if return_history:
            history.append(float(dmin.sum()))
        counts = np.bincount(labels, minlength=k)
        if owner is None:
            changed = np.ones(k, dtype=bool)
        else:
            moved = labels != owner
            changed = np.zeros(k, dtype=bool)
            changed[labels[moved]] = True
            changed[owner[moved]] = True
        owner = labels
        if changed.all():
            bins = (labels[:, None] + bin_offsets).ravel()
            for g in range(groups):
                sums_t[g] = np.bincount(bins, weights=x_g[g].ravel(), minlength=width * k)
        elif changed.any():
            # the members of changed clusters, in index order
            rows = np.flatnonzero(changed[labels])
            bins = (labels[rows, None] + bin_offsets).ravel()
            cols = np.tile(changed, width)
            group = gathered[:rows.size]
            for g in range(groups):
                np.take(x_g[g], rows, axis=0, out=group)
                fresh = np.bincount(bins, weights=group.ravel(), minlength=width * k)
                sums_t[g, cols] = fresh[cols]
        sums = sums_t.reshape(groups * width, k)[:d].T
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            if dmin is None:
                dmin = assign_exact(centroids)[1]
            farthest = np.argsort(-dmin, kind="stable")
            for j, idx in zip(empty, farthest):
                new_centroids[j] = x[idx]
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < _TOL:
            break

    # when no centroid moved, the last assignment already is the final one
    if shift != 0.0:
        labels, dmin = assign(centroids)
    if return_history:
        history.append(float(dmin.sum()))
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

    x_sq = features.x_sq if isinstance(features, LloydLayout) else _row_sq_norms(x)
    dist = _sq_dists_from_cross(x @ c.T, x_sq, _row_sq_norms(c, "centroids"), np.empty((n, k)))
    np.sqrt(dist, out=dist)
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
    layout = lloyd_layout(poses, k)
    centroids, labels = kmeans(layout, k, seed=seed)
    gt = ClusterPartition(k, labels).nearest_members(
        _member_sq_dists(layout.x, centroids, labels))
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
