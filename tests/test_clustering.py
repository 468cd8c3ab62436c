"""Tests for k-means, capacity balancing, pose clustering, and cluster sampling."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import scenesum.clustering as clustering
from scenesum.clustering import (
    _BLOCK_BYTES,
    _MAX_ITER,
    _TOL,
    _first_by_key,
    _kmeans_pp_rows,
    _pp_bound,
    _weighted_pick,
    ClusterPartition,
    balance_assignment,
    cluster_features,
    gt_pose_clustering,
    kmeans,
    kmeans_pp_rows,
    lloyd_layout,
    sample_cluster,
)
from scenesum.dataset import SyntheticConfig, generate_synthetic


def _blobs(centers, per_blob=20, sigma=0.1, seed=0):
    rng = np.random.default_rng(seed)
    parts = [c + sigma * rng.standard_normal((per_blob, len(c))) for c in centers]
    return np.vstack(parts)


def _reference_pp_init(x, k, rng):
    """k-means++ seeding as first written: one broadcast n x d pass per step."""
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    taken = set(chosen)
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = next(i for i in range(n) if i not in taken)
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        taken.add(idx)
        d2 = np.minimum(d2, ((x - x[idx]) ** 2).sum(axis=1))
    return x[chosen].copy()


def _reference_kmeans(x, k, seed):
    """Lloyd's algorithm as first written: np.add.at cluster sums and row norms
    recomputed on every assignment.  kmeans must reproduce it bit for bit."""
    n = x.shape[0]
    centroids = _reference_pp_init(x, k, np.random.default_rng(seed))
    history = []

    def assign(cents):
        d2 = (x * x).sum(axis=1)[:, None] + (cents * cents).sum(axis=1)[None, :] - 2.0 * (x @ cents.T)
        d2 = np.maximum(d2, 0.0)
        lab = np.argmin(d2, axis=1)
        return lab, d2[np.arange(n), lab]

    for _ in range(_MAX_ITER):
        labels, dmin = assign(centroids)
        history.append(float(dmin.sum()))
        counts = np.bincount(labels, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, x)
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
    labels, dmin = assign(centroids)
    history.append(float(dmin.sum()))
    return centroids, labels, history


def _kmeans_cases():
    rng = np.random.default_rng(11)
    for case in range(48):
        n = int(rng.integers(1, 150))
        d = int(rng.integers(1, 10))
        k = int(rng.integers(1, min(n, 30) + 1))
        x = rng.normal(size=(n, d)) * rng.choice([0.1, 1.0, 10.0])
        if case % 3 == 1:
            x = np.round(x)  # coarse grid: distance ties between centroids
        elif case % 3 == 2:
            x[n // 2:] = x[:n - n // 2]  # second half repeats the first
        yield pytest.param(x, k, int(rng.integers(100)), id=f"random{case}")
    # three distinct rows and k = 5: two centroids start as duplicates, lose
    # every tie to a lower id, empty, and are reseeded
    x = np.repeat(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]), [5, 5, 2], axis=0)
    assert len(np.unique(x, axis=0)) < 5
    yield pytest.param(x, 5, 0, id="reseed")
    yield pytest.param(np.ones((6, 3)), 3, 0, id="identical")
    # centroids move by less than the tolerance but not by zero, so the run
    # stops with a final assignment against moved centroids
    yield pytest.param(1e-7 * rng.normal(size=(40, 3)), 4, 2, id="sub-tolerance")
    scene = generate_synthetic(SyntheticConfig(n_frames=300, dim=16, seed=4))
    yield pytest.param(scene.features.astype(np.float64), 12, 1, id="scene")
    # "reseed" at d = 20, where the sums take two full groups of 8 columns and
    # a tail of 4: two of k = 5 centroids start as duplicates and empty; the
    # one reseeded on row 0 then ties with its owner's mean only up to
    # rounding and wins frames from it, so reseeded centroids have sums
    x = np.repeat(np.random.default_rng(12).normal(size=(3, 20)), [5, 5, 2], axis=0)
    assert len(np.unique(x, axis=0)) < 5
    yield pytest.param(x, 5, 0, id="reseed-d20")


def _block_rows(d, itemsize=8):
    """Rows of one 256 KB row block of d values of itemsize bytes each."""
    return max(1, _BLOCK_BYTES // (itemsize * d))


def _block_crossing_cases():
    """Shapes around the seeding pass's block boundaries (one block is
    _block_rows(d) rows), for the three data kinds of _kmeans_cases."""
    rng = np.random.default_rng(12)
    for d in (1, 17, 64):
        b = _block_rows(d)
        for n in (b - 1, b, b + 1, 2 * b + 1, 1000):
            for kind in ("normal", "rounded", "repeated"):
                x = rng.normal(size=(n, d)) * 3.0
                if kind == "rounded":
                    x = np.round(x)
                elif kind == "repeated":
                    x[n // 2:] = x[:n - n // 2]
                k = int(rng.integers(2, 16))
                yield pytest.param(x, k, int(rng.integers(100)), id=f"n{n}-d{d}-{kind}")
    # squared differences near 1e-320 are subnormal
    yield pytest.param(1e-160 * rng.normal(size=(600, 9)), 6, 3, id="tiny-scale")


def _pruning_cases():
    """Inputs for the seeding's pruned exact pass, each against the oracle."""
    rng = np.random.default_rng(15)
    # 2000 x 64 scene features at k = 60: the early picks' candidates span
    # several 512-row blocks, the later ones a few rows
    scene = generate_synthetic(SyntheticConfig(n_frames=2000, dim=64, seed=6))
    yield pytest.param(scene.features.astype(np.float64), 60, 2, id="scene-2000x64")
    # squared norms near 1e301, far from the bound's subnormal floor
    yield pytest.param(1e150 * rng.normal(size=(600, 9)), 12, 4, id="scale-1e150")
    # every row twice: a pick's twin has exact distance 0 from then on
    yield pytest.param(np.repeat(rng.normal(size=(700, 5)), 2, axis=0), 40, 5, id="duplicated")
    yield pytest.param(np.full((40, 3), 2.5), 7, 6, id="constant-rows")
    # a common offset of 1e8 on unit noise: the bound's rounding error is as
    # large as the distances, so only the margin keeps the picks exact
    yield pytest.param(1e8 + rng.normal(size=(1000, 8)), 30, 8, id="offset-1e8")
    yield pytest.param(rng.normal(size=(3000, 1)), 100, 7, id="d1-k100")


def _big_scene_case():
    scene = generate_synthetic(SyntheticConfig(n_frames=2000, dim=128, seed=5))
    return pytest.param(scene.features.astype(np.float64), 50, 0, id="scene-2000x128")


def _assert_same_kmeans(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert np.array(got[2]).tobytes() == np.array(want[2]).tobytes()


@pytest.mark.parametrize("x,k,seed", [*_kmeans_cases(), *_block_crossing_cases(),
                                      _big_scene_case()])
def test_kmeans_matches_reference_bit_for_bit(x, k, seed):
    _assert_same_kmeans(kmeans(x, k, seed=seed, return_history=True),
                        _reference_kmeans(x, k, seed))


@pytest.mark.parametrize("layout", ["float32", "strided", "fortran"])
def test_kmeans_results_do_not_depend_on_input_layout(layout):
    # kmeans works on a C-contiguous float64 copy, so every layout of the same
    # values gives the bytes the reference gives for that copy
    rng = np.random.default_rng(13)
    x = rng.normal(size=(_block_rows(24) + 7, 48))
    if layout == "float32":
        x = x.astype(np.float32)
    elif layout == "strided":
        x = x[:, ::2]
    else:
        x = np.asfortranarray(x)
    want = _reference_kmeans(np.ascontiguousarray(x, dtype=np.float64), 9, 4)
    _assert_same_kmeans(kmeans(x, 9, seed=4, return_history=True), want)


def _shared_layout_cases():
    x = np.random.default_rng(14).normal(size=(_block_rows(24) + 7, 48))
    yield pytest.param(x, 9, 4, id="float64")
    yield pytest.param(x.astype(np.float32), 9, 4, id="float32")
    yield pytest.param(np.asfortranarray(x), 9, 4, id="fortran")
    # two of five centroids start as duplicates, empty and are reseeded
    x = np.repeat(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]), [5, 5, 2], axis=0)
    yield pytest.param(x, 5, 0, id="reseed")


@pytest.mark.parametrize("x,k,seed", [*_shared_layout_cases()])
def test_kmeans_on_a_shared_layout_matches_plain_kmeans(x, k, seed):
    # as in the sweep: one layout serves the seeding and the runs at k and at
    # k - 1 from its rows
    given = x.copy()
    layout = lloyd_layout(x)
    assert lloyd_layout(layout) is layout
    assert not any(a.flags.writeable for a in (layout.x, layout.x_sq, layout.x_g, layout.x32))
    x_c = np.ascontiguousarray(x, dtype=np.float64)
    assert layout.x_sq.tobytes() == (x_c * x_c).sum(axis=1).tobytes()
    assert layout.x32.tobytes() == x_c.astype(np.float32).tobytes()
    rows = kmeans_pp_rows(layout, k, seed)
    for kk in (k, k - 1):
        want = kmeans(x, kk, seed, return_history=True)
        _assert_same_kmeans(kmeans(layout, kk, seed, return_history=True, init_rows=rows), want)
        # without the history the labels come from the certified float32 pass
        got = kmeans(layout, kk, seed, init_rows=rows)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    # balancing reads the layout's row norms, which have the raw matrix's bytes
    centroids = kmeans(x, k, seed)[0]
    assert balance_assignment(layout, centroids).tobytes() == \
        balance_assignment(x, centroids).tobytes()
    assert x.tobytes() == given.tobytes() and x.flags.writeable
    with pytest.raises(ValueError, match="exceeds"):
        kmeans(layout, x.shape[0] + 1)


@pytest.mark.parametrize("x,k,seed", [*_block_crossing_cases(), pytest.param(
    # three distinct rows: from the fourth step on every distance is 0, so
    # the seeding takes the lowest untaken rows
    np.repeat(np.array([[0.0, 1.0], [2.0, 0.0], [5.0, 5.0]]), [3, 2, 4], axis=0), 6, 1,
    id="all-distances-zero"), *_pruning_cases()])
def test_pp_init_matches_reference_bit_for_bit(x, k, seed):
    ref_rng = np.random.default_rng(seed)
    want = _reference_pp_init(x, k, ref_rng)
    after = ref_rng.integers(1 << 62)
    layout = lloyd_layout(x)
    # pruned by the float32 bound, and unpruned on a layout without x32
    for lay in (layout, replace(layout, x32=None)):
        rng = np.random.default_rng(seed)
        assert lay.x[_kmeans_pp_rows(lay, k, rng)].tobytes() == want.tobytes()
        # both consumed the same random draws
        assert rng.integers(1 << 62) == after


def _assign_block_cases():
    """Shapes around the assignment's row blocks: at k = 512 the exact
    assignment's float64 blocks are 64 rows and the certified pass's float32
    blocks 128, so n crosses several of each."""
    rng = np.random.default_rng(14)
    for n in (512, 513, 575, 577, 1025):
        for kind in ("normal", "rounded"):
            x = rng.normal(size=(n, 3)) * 2.0
            if kind == "rounded":
                x = np.round(x)
            yield pytest.param(x, 512, int(rng.integers(100)), id=f"n{n}-k512-{kind}")


@pytest.mark.parametrize("x,k,seed", [*_assign_block_cases()])
def test_blocked_assignment_matches_reference_bit_for_bit(x, k, seed):
    _assert_same_kmeans(kmeans(x, k, seed=seed, return_history=True),
                        _reference_kmeans(x, k, seed))


def _larger_k(x, k):
    return min(x.shape[0], 2 * k + 1)


@pytest.mark.parametrize("x,k,seed", [*_kmeans_cases(), *_block_crossing_cases(),
                                      *_pruning_cases()])
def test_pp_rows_at_a_smaller_k_are_a_prefix(x, k, seed):
    k2 = _larger_k(x, k)
    rows = kmeans_pp_rows(x, k2, seed)
    assert rows.dtype == np.int64 and rows.shape == (k2,)
    assert len(set(rows.tolist())) == k2
    for k1 in range(1, k2):
        assert kmeans_pp_rows(x, k1, seed).tobytes() == rows[:k1].tobytes()
    ref_rng = np.random.default_rng(seed)
    want = _reference_pp_init(np.ascontiguousarray(x), k2, ref_rng)
    assert x[rows].tobytes() == want.tobytes()
    # pruned or not, the picks at k2 consumed the oracle's random draws
    layout, after = lloyd_layout(x), ref_rng.integers(1 << 62)
    for lay in (layout, replace(layout, x32=None)):
        rng = np.random.default_rng(seed)
        assert _kmeans_pp_rows(lay, k2, rng).tobytes() == rows.tobytes()
        assert rng.integers(1 << 62) == after
    for k1 in range(1, k2):
        assert kmeans_pp_rows(layout, k1, seed).tobytes() == rows[:k1].tobytes()


def test_weighted_pick_matches_generator_choice():
    # the same index, and the same place in the stream after it, over weights
    # from 1e-200 to 1e200 with no zeros, 30% or 90% zeros, a zero first
    # half, or a single nonzero weight
    rng = np.random.default_rng(31)
    got_rng, want_rng = np.random.default_rng(32), np.random.default_rng(32)
    for case in range(2000):
        n = int(rng.integers(1, 40))
        w = rng.random(n) * 10.0 ** rng.integers(-200, 200)
        w[rng.random(n) < [0.0, 0.3, 0.9][case % 3]] = 0.0
        if case % 7 == 0:
            w[:n // 2] = 0.0
        if not w.any():
            w[rng.integers(n)] = 1.0
        total = w.sum()
        assert _weighted_pick(w, total, got_rng) == int(want_rng.choice(n, p=w / total))
    assert got_rng.random() == want_rng.random()


def _certificate_cases():
    """Inputs at the edges of the certified assignment: ties, rows only
    float64 can decide, no float32 copy, float32 underflow, and k = 1."""
    rng = np.random.default_rng(16)
    # triples on a line: the middle row of each is exactly equidistant from
    # the other two, which the seeding picks as centres in some triples
    x = (4.0 * np.arange(10.0)[:, None] + [-1.0, 0.0, 1.0]).reshape(-1, 1)
    yield pytest.param(x, 20, 3, id="equidistant")
    # noise of 1e-2 on an offset of 1: float32 leaves about one row in eight
    # to float64, which decides them all
    yield pytest.param(1.0 + 1e-2 * rng.normal(size=(300, 4)), 6, 1, id="offset-1e-2")
    # noise below float32's precision: neither tier resolves it
    yield pytest.param(1.0 + 1e-9 * rng.normal(size=(300, 4)), 6, 2, id="offset-1e-9")
    # float32 squares would overflow, so x32 is None and the exact pass runs
    yield pytest.param(1e30 * rng.normal(size=(300, 5)), 7, 3, id="scale-1e30")
    # products of 1e-60 underflow in float32
    yield pytest.param(1e-30 * rng.normal(size=(300, 5)), 7, 4, id="scale-1e-30")
    yield pytest.param(rng.normal(size=(300, 5)), 1, 5, id="k1")


@pytest.mark.parametrize("x,k,seed", [*_kmeans_cases(), *_block_crossing_cases(), *_pruning_cases(),
                                      *_assign_block_cases(), _big_scene_case(),
                                      *_certificate_cases()])
def test_kmeans_without_history_matches_reference_bit_for_bit(x, k, seed):
    # without return_history the labels come from the certified pass
    centroids, labels, _ = _reference_kmeans(x, k, seed)
    got = kmeans(x, k, seed=seed)
    assert got[0].tobytes() == centroids.tobytes()
    assert got[1].tobytes() == labels.tobytes()


def test_layout_leaves_out_x32_when_float32_squares_could_overflow():
    x = np.random.default_rng(17).normal(size=(50, 4))
    assert lloyd_layout(x).x32 is not None
    assert lloyd_layout(1e30 * x).x32 is None


def _seeding_bound_cases():
    """Inputs where the seeding's bound without its slack would exceed the
    exact pass on some rows."""
    cases = {p.id: p.values[0] for p in [*_certificate_cases(), *_pruning_cases()]}
    for name in ("offset-1e-2", "offset-1e-9", "scale-1e-30", "duplicated", "scene-2000x64"):
        yield pytest.param(cases[name], id=name)
    yield pytest.param(1e3 + np.random.default_rng(18).normal(size=(500, 128)), id="d128-offset-1e3")


@pytest.mark.parametrize("x", [*_seeding_bound_cases()])
def test_seeding_bound_is_at_most_the_exact_pass(x):
    # every row's bound against the exact pass's bytes, at several centres
    layout = lloyd_layout(x)
    lower, out = _pp_bound(layout), np.empty(x.shape[0])
    for c in np.random.default_rng(19).choice(x.shape[0], size=8, replace=False):
        exact = ((layout.x - layout.x[c]) ** 2).sum(axis=1)
        assert (lower(c, out) <= exact).all()


def _tiers_used(monkeypatch, x, k, seed):
    """The dtypes the certified tiers ran in and the number of exact
    assignments, over one kmeans call without history."""
    tiers, exact = [], []
    unsure_argmin, sq_dists = clustering._unsure_argmin, clustering._sq_dists_from_cross

    def spy_unsure(f, *args):
        tiers.append(f.dtype)
        return unsure_argmin(f, *args)

    def spy_exact(*args):
        exact.append(1)
        return sq_dists(*args)

    monkeypatch.setattr(clustering, "_unsure_argmin", spy_unsure)
    monkeypatch.setattr(clustering, "_sq_dists_from_cross", spy_exact)
    kmeans(x, k, seed=seed)
    return set(tiers), len(exact)


def test_certified_assignment_uses_each_tier(monkeypatch):
    # separated blobs: float32 decides every row and the exact pass never runs
    cases = {p.id: p.values for p in _certificate_cases()}
    tiers, exact = _tiers_used(monkeypatch, _blobs([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)]), 3, 1)
    assert tiers == {np.dtype(np.float32)} and exact == 0
    # float64 decides the rows float32 leaves
    tiers, exact = _tiers_used(monkeypatch, *cases["offset-1e-2"])
    assert tiers == {np.dtype(np.float32), np.dtype(np.float64)} and exact == 0
    # an exact tie goes to the exact assignment, which gives it the lower id
    tiers, exact = _tiers_used(monkeypatch, *cases["equidistant"])
    assert np.dtype(np.float64) in tiers and exact > 0


def test_a_tie_in_a_later_block_falls_back_to_the_exact_assignment(monkeypatch):
    # k = 512 makes float32 blocks of 128 rows.  The first block is 128 copies
    # of one far point, which the seeding picks and float32 always decides;
    # the rows after it are the integers 0 to 599, 511 of them centres, so an
    # integer between two centres is exactly equidistant from them and only
    # the exact assignment, reached from a later block, can decide it.
    assert _block_rows(512, itemsize=4) == 128
    x = np.concatenate([np.full(128, -1e4), np.arange(600.0)])[:, None]
    f32_unsure, f64_unsure, exact = [], [], []
    unsure_argmin, sq_dists = clustering._unsure_argmin, clustering._sq_dists_from_cross

    def spy_unsure(f, slack, lab):
        rows = unsure_argmin(f, slack, lab)
        if f.dtype == np.float32:  # lab is the block's slice of the labels
            start = lab.__array_interface__["data"][0] - lab.base.__array_interface__["data"][0]
            f32_unsure.append((start // lab.itemsize, rows.size))
        else:
            f64_unsure.append(rows.size)
        return rows

    def spy_exact(*args):
        exact.append(1)
        return sq_dists(*args)

    monkeypatch.setattr(clustering, "_unsure_argmin", spy_unsure)
    monkeypatch.setattr(clustering, "_sq_dists_from_cross", spy_exact)
    centroids, labels = kmeans(x, 512, seed=0)
    want = _reference_kmeans(x, 512, 0)
    assert centroids.tobytes() == want[0].tobytes() and labels.tobytes() == want[1].tobytes()
    assert all(size == 0 for start, size in f32_unsure if start == 0)
    assert any(size > 0 for start, size in f32_unsure if start > 0)
    assert any(size > 0 for size in f64_unsure) and exact


def test_certified_assignment_overrules_a_wrong_float32_argmin(monkeypatch):
    # row 2 is nearer row 1 than row 0 by 7e-9 in squared distance, but in
    # float32 arithmetic it is nearer row 0: the margin sends it to float64
    x = np.array([[1.3040000451301372, 0.9470809631292422],
                  [-0.7037352358069926, -1.2654214710460525],
                  [-1.0788638616913342, 1.0921998732706257]])
    want = kmeans(x, 2, init_rows=[0, 1], return_history=True)
    got = kmeans(x, 2, init_rows=[0, 1])
    assert got[1].tolist() == [0, 1, 1] == want[1].tolist()
    assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("k", [2, 8])
def test_float64_tier_gathers_a_bounded_block(k):
    # float32 resolves none of these rows, so the float64 tier gets them all;
    # at small k a float32 block holds up to 65536 / k rows, and gathering
    # them at once would be an (n, d) float64 copy (5 MB here).  On a shared
    # layout, from seeded rows, a call peaks below 2 MiB.
    x = 1 + 1e-9 * np.random.default_rng(0).standard_normal((5000, 128))
    layout = lloyd_layout(x)
    rows = kmeans_pp_rows(layout, k, 0)
    tracemalloc.start()
    try:
        centroids, labels = kmeans(layout, k, init_rows=rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21
    want = kmeans(x, k, init_rows=rows, return_history=True)
    assert centroids.tobytes() == want[0].tobytes() and labels.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("x,k,seed", [*_kmeans_cases(), *_block_crossing_cases()])
def test_kmeans_from_shared_pp_rows_matches_reference_bit_for_bit(x, k, seed):
    rows = kmeans_pp_rows(x, _larger_k(x, k), seed)
    _assert_same_kmeans(kmeans(x, k, seed=seed, return_history=True, init_rows=rows),
                        _reference_kmeans(x, k, seed))


@pytest.mark.parametrize("rows,match", [
    (np.array([[0, 1, 2]]), "1-d"),
    (np.array([0.0, 1.0, 2.0]), "integers"),
    ([0, 1, 6], "out of range"),
    ([-1, 1, 2], "out of range"),
    ([0, 1], "fewer than k"),
    ([], "fewer than k"),
    ([True, 1, 2], "integers"),
])
def test_kmeans_rejects_bad_init_rows(rows, match):
    with pytest.raises(ValueError, match=match):
        kmeans(np.arange(12.0).reshape(6, 2), 3, init_rows=rows)


def test_kmeans_recovers_separated_blobs():
    x = _blobs([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
    _, labels = kmeans(x, 3, seed=1)
    for b in range(3):
        blob = labels[b * 20:(b + 1) * 20]
        assert (blob == blob[0]).all()
    assert len(set(labels.tolist())) == 3


def test_kmeans_k_equals_n_reaches_zero_inertia():
    x = np.arange(10, dtype=np.float64).reshape(5, 2)
    _, labels, history = kmeans(x, 5, seed=0, return_history=True)
    assert history[-1] == 0.0
    assert sorted(labels.tolist()) == [0, 1, 2, 3, 4]


def test_kmeans_inertia_never_increases():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 5))
    _, _, history = kmeans(x, 7, seed=2, return_history=True)
    assert (np.diff(history) <= 1e-9).all()


def test_kmeans_identical_frames_terminates():
    x = np.ones((6, 3))
    centroids, labels = kmeans(x, 3, seed=0)
    assert labels.shape == (6,)
    assert (labels == 0).all()  # all distances tie, lowest id wins
    assert centroids.shape == (3, 3)


def test_kmeans_is_deterministic():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(50, 4))
    c1, l1 = kmeans(x, 4, seed=3)
    c2, l2 = kmeans(x, 4, seed=3)
    assert np.array_equal(c1, c2)
    assert np.array_equal(l1, l2)


def test_kmeans_input_validation():
    with pytest.raises(ValueError):
        kmeans(np.ones((3, 2)), 4)
    with pytest.raises(ValueError):
        kmeans(np.ones((3, 2)), 0)
    with pytest.raises(ValueError):
        kmeans(np.ones(3), 1)
    bad = np.ones((3, 2))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        kmeans(bad, 2)
    # a matrix without columns has no points to cluster
    for fn in (kmeans, kmeans_pp_rows):
        with pytest.raises(ValueError, match="column"):
            fn(np.ones((3, 0)), 2)


def _at_norm(x, sq_norm):
    """x scaled so that its largest squared row norm is about sq_norm."""
    return x * (np.sqrt(sq_norm) / np.sqrt((x * x).sum(axis=1).max()))


def test_features_whose_squared_distances_can_overflow_are_refused():
    # 50 x 4 rows scaled by 1e155 used to warn of an overflow in the seeding,
    # then fail in rng.choice; every entry point refuses them up front
    unit = np.random.default_rng(16).normal(size=(50, 4))
    x = 1e155 * unit
    c = np.zeros((2, 4))
    match = r"features are too large: a squared row norm exceeds finfo\(float64\)\.max / \(8 \* 50\)"
    for call in (lambda: kmeans_pp_rows(x, 3), lambda: kmeans(x, 3), lambda: lloyd_layout(x),
                 lambda: balance_assignment(x, c), lambda: cluster_features(x, 3)):
        with pytest.raises(ValueError, match=match):
            call()
    with pytest.raises(ValueError, match=r"centroids are too large"):
        balance_assignment(np.zeros((50, 4)), 1e200 * np.ones((2, 4)))
    # just under the bound the seeding's total and Lloyd's inertia stay finite
    # (a RuntimeWarning fails the test) and the picks are the oracle's
    bound = np.finfo(np.float64).max / (8 * 50)
    x = _at_norm(unit, 0.99 * bound)
    assert np.isfinite(kmeans(x, 5, return_history=True)[2]).all()
    want = _reference_pp_init(x, 5, np.random.default_rng(0))
    assert x[kmeans_pp_rows(x, 5)].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="too large"):
        kmeans_pp_rows(_at_norm(unit, 1.01 * bound), 5)


def test_balance_keeps_already_balanced_assignment():
    x = np.array([[0.0], [0.1], [10.0], [10.1]])
    c = np.array([[0.05], [10.05]])
    labels = balance_assignment(x, c)
    assert labels.tolist() == [0, 0, 1, 1]


def test_balance_displaces_weakest_margin_point():
    # Nearest-centroid assignment would be 3 vs 1; the point whose preference
    # is cheapest to override (smallest margin) moves to the small cluster.
    x = np.array([[0.0], [0.1], [0.2], [10.0]])
    c = np.array([[0.0], [10.0]])
    labels = balance_assignment(x, c)
    assert labels.tolist() == [0, 0, 1, 1]


def test_balance_sizes_differ_by_at_most_one():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 3))
    c = rng.normal(size=(3, 3))
    labels = balance_assignment(x, c)
    sizes = np.bincount(labels, minlength=3)
    assert sorted(sizes.tolist()) == [3, 3, 4]


@pytest.mark.parametrize("features,centroids,match", [
    (np.ones((5, 2)), np.ones((0, 2)), "at least one row"),
    (np.ones((5, 2)), np.ones(2), "2-d"),
    (np.ones((5, 2)), np.array([[0.0, np.nan]]), "NaN"),
    (np.array([[0.0, np.inf]] * 5), np.ones((1, 2)), "NaN or Inf"),
    (np.ones(5), np.ones((1, 1)), "2-d"),
    (np.ones((5, 2)), np.ones((6, 2)), "exceeds"),
    (np.ones((5, 2)), np.ones((2, 3)), "columns"),
    (np.ones((5, 0)), np.ones((2, 0)), "column"),
])
def test_balance_rejects_bad_inputs(features, centroids, match):
    with pytest.raises(ValueError, match=match):
        balance_assignment(features, centroids)


def test_balance_single_cluster():
    labels = balance_assignment(np.ones((5, 2)), np.ones((1, 2)))
    assert labels.tolist() == [0] * 5


def test_cluster_features_identical_frames_still_balances():
    x = np.ones((6, 3))
    part = cluster_features(x, 3, seed=0)
    sizes = [m.size for m in part.members]
    assert sorted(sizes) == [2, 2, 2]
    assert part.labels.tolist() == [0, 0, 1, 1, 2, 2]


def test_feature_clusters_are_spatially_coherent():
    ds = generate_synthetic(SyntheticConfig(n_frames=500, seed=2))
    part = cluster_features(ds.features, 10, seed=0)
    pos = ds.poses
    pdist = np.sqrt(((pos[:, None] - pos[None, :]) ** 2).sum(-1))
    same = part.labels[:, None] == part.labels[None, :]
    iu = np.triu_indices(500, k=1)
    within = pdist[iu][same[iu]]
    between = pdist[iu][~same[iu]]
    assert within.mean() < between.mean()


def test_gt_clustering_two_pose_blobs():
    poses = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0],
                      [10.0, 10.0, 0.0], [10.5, 10.0, 0.0], [10.0, 10.5, 0.0]])
    part = gt_pose_clustering(poses, 2, seed=0)
    assert part.gt_keyframes is not None
    assert sorted(part.gt_keyframes.tolist()) == [0, 3]
    assert part.labels[0] != part.labels[3]
    assert (part.labels[:3] == part.labels[0]).all()
    assert (part.labels[3:] == part.labels[3]).all()


def test_gt_clustering_tie_goes_to_lowest_frame():
    poses = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0], [11.0, 0.0, 0.0]])
    part = gt_pose_clustering(poses, 2, seed=0)
    assert sorted(part.gt_keyframes.tolist()) == [0, 2]


def test_gt_clustering_k_equals_n():
    poses = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
    part = gt_pose_clustering(poses, 5, seed=0)
    assert sorted(part.gt_keyframes.tolist()) == [0, 1, 2, 3, 4]
    for j, f in enumerate(part.gt_keyframes):
        assert part.labels[f] == j


@pytest.mark.parametrize("grid", [False, True], ids=["random", "grid"])
def test_gt_keyframes_equal_the_one_shot_pick(grid):
    # the member distances run in row blocks of _block_rows(3) poses; n
    # crosses two block edges, and rounded poses make distance ties
    n = 2 * _block_rows(3) + 1
    rng = np.random.default_rng(15)
    poses = np.column_stack([np.cumsum(rng.normal(size=(n, 2)), axis=0), np.zeros(n)])
    if grid:
        poses = np.round(poses)
    k = 7
    centroids, labels = kmeans(poses, k, seed=2)
    want = ClusterPartition(k, labels).nearest_members(
        np.sqrt(((poses - centroids[labels]) ** 2).sum(1)))
    part = gt_pose_clustering(poses, k, seed=2)
    assert part.labels.tobytes() == labels.tobytes()
    assert part.gt_keyframes.tolist() == want.tolist()


def test_gt_clustering_requires_poses():
    with pytest.raises(ValueError):
        gt_pose_clustering(None, 2)
    with pytest.raises(ValueError):
        gt_pose_clustering([], 2)


def _reference_sample(partition, n_sample, rng):
    """The one-draw rule spelled out: a key per frame, the frames sorted by
    (label, key), each cluster's first n_sample; a cluster smaller than
    n_sample then draws with replacement, in cluster-id order."""
    keys = rng.random(partition.n_frames)
    order = np.lexsort((keys, partition.labels))
    runs = [order[partition.labels[order] == j] for j in range(partition.k)]
    rows = [run[:n_sample] for run in runs]
    for j, run in enumerate(runs):
        if run.size < n_sample:
            rows[j] = rng.choice(partition.members[j], size=n_sample, replace=True)
    return np.concatenate(rows)


def _epoch_steps(partition, n_sample):
    return max(1, -(-partition.n_frames // (partition.k * n_sample)))


@pytest.mark.parametrize("labels,n_sample", [
    (np.arange(60) % 4, 5),
    (np.random.default_rng(3).integers(0, 5, size=80), 6),
    ([0, 1, 1, 2, 2, 2, 2, 0, 1, 2, 2, 1], 3),  # sizes 2, 4 and 6
    ([2, 2, 0, 1, 1, 1, 2, 2, 2, 2], 4),  # sizes 1, 3 and 6
    (np.arange(5000) % 50, 1),  # 100 steps, 6 a key block: 17 blocks
], ids=["balanced", "unequal", "one-small-cluster", "two-small-clusters", "multi-block"])
def test_sample_cluster_matches_the_reference_rule(labels, n_sample):
    # each epoch's draw holds successive one-step draws of the reference rule
    part = ClusterPartition(int(np.max(labels)) + 1, labels)
    steps = _epoch_steps(part, n_sample)
    got_rng, want_rng = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(5):
        got = sample_cluster(part, n_sample, got_rng)
        want = [_reference_sample(part, n_sample, want_rng) for _ in range(steps)]
        assert got.table.shape == (steps, part.k, n_sample)
        assert got.frame_indices.tobytes() == np.concatenate(want).tobytes()
    assert got_rng.random() == want_rng.random()  # both streams at the same place


def _reference_sample_cluster(partition, n_sample, rng):
    """sample_cluster as first written for one draw per step: np.lexsort of
    fresh keys within labels over every frame, on every call."""
    labels = partition.labels
    sizes = np.bincount(labels, minlength=partition.k)
    order = np.lexsort((rng.random(labels.size), labels))
    offsets = np.minimum(np.arange(n_sample), sizes[:, None] - 1)
    picks = order[(np.cumsum(sizes) - sizes)[:, None] + offsets]
    for j in np.flatnonzero(sizes < n_sample):
        if sizes[j] == 0:
            raise ValueError(f"cluster {j} is empty")
        picks[j] = rng.choice(partition.members[j], size=n_sample, replace=True)
    return picks.ravel()


def _scene_23():
    return generate_synthetic(SyntheticConfig(n_frames=500, dim=64, seed=23))


_ORACLE_PARTITIONS = {
    "features-k20": lambda: cluster_features(_scene_23().features, 20),  # 25 frames each
    "pose-k10": lambda: gt_pose_clustering(_scene_23().poses, 10),  # 35 to 67 frames
    "small-and-exact": lambda: ClusterPartition(3, [2, 0, 1, 2, 1, 2, 1, 1, 2, 2, 0, 2]),
    "k1": lambda: ClusterPartition(1, np.zeros(7, dtype=np.int64)),
}


@pytest.mark.parametrize("name,n_sample", [
    ("features-k20", 1), ("features-k20", 3), ("features-k20", 25), ("features-k20", 26),
    ("pose-k10", 6), ("pose-k10", 40),
    ("small-and-exact", 4),  # sizes 2, 4 and 6
    ("k1", 1),
])
def test_sample_cluster_matches_the_lexsort_draw(name, n_sample):
    part = _ORACLE_PARTITIONS[name]()
    steps = _epoch_steps(part, n_sample)
    got_rng, want_rng = np.random.default_rng(29), np.random.default_rng(29)
    for _ in range(4):
        got = sample_cluster(part, n_sample, got_rng).frame_indices
        want = [_reference_sample_cluster(part, n_sample, want_rng) for _ in range(steps)]
        assert got.tobytes() == np.concatenate(want).tobytes()
    assert got_rng.random() == want_rng.random()
    sizes = [int((part.labels == j).sum()) for j in range(part.k)]
    assert part.sizes.tolist() == sizes
    assert part.table.shape == (part.k, max(sizes))


def test_sample_cluster_raises_on_an_empty_cluster_like_the_lexsort_draw():
    part = ClusterPartition(3, [1, 0, 1, 1, 1])  # cluster 0 smaller than N, cluster 2 empty
    for draw in (sample_cluster, _reference_sample_cluster):
        with pytest.raises(ValueError, match="cluster 2 is empty"):
            draw(part, 3, np.random.default_rng(0))


def test_first_by_key_sends_equal_keys_to_the_lower_frame():
    labels = np.array([1, 0, 1, 1, 0, 2, 1, 0, 2, 1])
    keys = np.array([0.5, 0.25, 0.5, 0.25, 0.25, 0.75, 0.5, 0.0, 0.75, 0.25])
    got = _first_by_key(ClusterPartition(3, labels).table, np.append(keys, np.inf), 3)
    # cluster 2 has two members, so its row ends in the padding index 10
    assert got.tolist() == [[7, 1, 4], [3, 9, 0], [5, 8, 10]]
    order = np.lexsort((keys, labels))
    for j in range(3):
        run = order[labels[order] == j][:3]
        assert got[j, :run.size].tolist() == run.tolist()


def test_sample_cluster_without_replacement_when_possible():
    part = ClusterPartition(2, [0, 0, 0, 0, 1, 1, 1])
    for seed in range(20):
        for step in sample_cluster(part, 3, rng=seed).table:  # 2 steps of ceil(7 / 6)
            assert len(set(step[0].tolist())) == 3 and set(step[0].tolist()) <= {0, 1, 2, 3}
            assert sorted(step[1].tolist()) == [4, 5, 6]


def test_sample_cluster_small_cluster_uses_replacement():
    part = ClusterPartition(2, [0, 0, 1, 1, 1, 1])
    s = sample_cluster(part, 5, rng=1)
    assert s.table.shape == (1, 2, 5)  # one step of ceil(6 / 10)
    assert set(s.table[0, 0].tolist()) <= {0, 1}
    assert set(s.table[0, 1].tolist()) <= {2, 3, 4, 5}


def test_sample_cluster_is_deterministic_per_seed():
    part = ClusterPartition(2, [0, 1] * 4)
    a = sample_cluster(part, 3, rng=9)
    b = sample_cluster(part, 3, rng=9)
    assert np.array_equal(a.frame_indices, b.frame_indices)


def test_sample_cluster_draws_are_roughly_uniform():
    # every member of each cluster comes first equally often
    part = ClusterPartition(2, [0, 1, 0, 1, 0, 1, 0, 1])
    rng = np.random.default_rng(0)
    counts = np.zeros(8)
    for _ in range(2_500):  # 4 steps of ceil(8 / 2) per draw: 10,000 steps
        counts += np.bincount(sample_cluster(part, 1, rng).frame_indices, minlength=8)
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert (np.abs(counts - 2500) <= 3 * sigma).all()


def test_sample_cluster_validation():
    part = ClusterPartition(3, [0, 0, 0, 2, 2, 2])  # cluster 1 empty
    with pytest.raises(ValueError):
        sample_cluster(part, 0, rng=0)
    with pytest.raises(ValueError, match="cluster 1 is empty"):
        sample_cluster(part, 1, rng=0)


def test_partition_validation_errors():
    with pytest.raises(ValueError):
        ClusterPartition(k=2, labels=np.array([0, 2]))
    with pytest.raises(ValueError):
        ClusterPartition(2, [0, 0, 1], gt_keyframes=[2, 1])
    for gt in ([0, -1], [0, 4]):
        with pytest.raises(ValueError, match="out of range"):
            ClusterPartition(2, [0, 0, 1, 1], gt_keyframes=gt)
    with pytest.raises(ValueError, match="integers"):
        ClusterPartition(2, [0.7, 1.2])


def test_partition_names_the_lowest_cluster_whose_gt_keyframe_is_no_member():
    # clusters 1 and 2 both get a frame of the other
    with pytest.raises(ValueError, match="^gt keyframe 4 is not a member of cluster 1$"):
        ClusterPartition(3, [0, 0, 1, 1, 2, 2], gt_keyframes=[0, 4, 3])


def test_partition_refuses_gt_keyframes_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"gt_keyframes must have shape \(2,\)"):
        ClusterPartition(2, [0, 1, 1], gt_keyframes=[0])


def test_partition_refuses_a_bool_for_a_label_or_a_frame():
    # numpy turns [True, 0, 1] into the integers [1, 0, 1]; a bool is still no label
    for labels in ([True, 0, 1], [0, np.False_, 1]):
        with pytest.raises(ValueError, match="integers"):
            ClusterPartition(2, labels)
    for gt in ([True, 2], [0, np.True_]):
        with pytest.raises(ValueError, match="integers"):
            ClusterPartition(2, [0, 1, 1], gt_keyframes=gt)


def test_partition_is_fixed_at_construction():
    p = ClusterPartition(2, [0, 0, 1, 1], gt_keyframes=[0, 2])
    with pytest.raises(AttributeError):
        p.labels = np.array([1, 1, 0, 0])
    for arr in (p.labels, p.gt_keyframes, *p.members, p.table, p.sizes,
                sample_cluster(p, 1, 0).table):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert p.labels.tolist() == [0, 0, 1, 1]
    assert [m.tolist() for m in p.members] == [[0, 1], [2, 3]]
    # partitions compare and hash by identity, not by their arrays
    assert p == p and p != ClusterPartition(2, [0, 0, 1, 1], gt_keyframes=[0, 2])
    assert hash(p) == hash(p)


def test_member_table_pads_each_row_with_n_frames():
    p = ClusterPartition(4, [2, 0, 2, 2, 0, 3, 2])  # cluster 1 empty
    assert p.sizes.tolist() == [2, 0, 4, 1]
    assert p.table.tolist() == [[1, 4, 7, 7], [7, 7, 7, 7], [0, 2, 3, 6], [5, 7, 7, 7]]
    assert [m.tolist() for m in p.members] == [[1, 4], [], [0, 2, 3, 6], [5]]
    assert all(np.shares_memory(m, p.table) for m in p.members if m.size)


def _reference_nearest_members(partition, dist):
    """nearest_members as first written: one argmin per cluster over its members."""
    picks = np.full(partition.k, -1, dtype=np.int64)
    for j in range(partition.k):
        m = np.flatnonzero(partition.labels == j)
        if m.size:
            picks[j] = m[int(np.argmin(dist[m]))]
    return picks


@pytest.mark.parametrize("seed", range(6))
def test_nearest_members_matches_the_per_cluster_loop(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 40)), int(rng.integers(1, 8))
    part = ClusterPartition(k + 1, rng.integers(1, k + 1, size=n))  # cluster 0 is empty
    # values rounded to quarters tie; NaN and +-inf land on some frames
    dist = np.round(rng.normal(size=n) * 4) / 4
    dist[rng.random(n) < 0.1] = np.nan
    dist[rng.random(n) < 0.1] = np.inf
    dist[rng.random(n) < 0.1] = -np.inf
    got = part.nearest_members(dist)
    assert got.tolist() == _reference_nearest_members(part, dist).tolist()
    all_inf = np.full(n, np.inf)
    assert (part.nearest_members(all_inf).tolist()
            == _reference_nearest_members(part, all_inf).tolist())


def test_nearest_members_breaks_ties_low_and_gives_an_empty_cluster_minus_one():
    part = ClusterPartition(3, [2, 0, 2, 0])  # frames 1 and 3 of cluster 0 tie
    assert part.nearest_members([0.5, 0.25, 0.0, 0.25]).tolist() == [1, -1, 2]


@pytest.mark.parametrize("dist", [
    np.zeros(3), np.zeros(5), np.zeros((4, 1)), np.zeros((1, 4)), np.float64(0.0),
], ids=["short", "long", "column", "row", "scalar"])
def test_nearest_members_rejects_a_dist_of_another_shape(dist):
    # a longer dist would put a real value at the padding index n_frames
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        ClusterPartition(2, [0, 1, 1, 0]).nearest_members(dist)


_THREE_PAIRS = ClusterPartition(3, [0, 0, 1, 1, 2, 2])
_COUNT_CALLS = {
    "kmeans": lambda k: kmeans(np.arange(12.0).reshape(6, 2), k),
    "cluster_features": lambda k: cluster_features(np.arange(12.0).reshape(6, 2), k),
    "gt_pose_clustering": lambda k: gt_pose_clustering(np.arange(18.0).reshape(6, 3), k),
    "sample_cluster": lambda n: sample_cluster(_THREE_PAIRS, n, 0),
    "sample_cluster-seed": lambda s: sample_cluster(_THREE_PAIRS, 1, s),
    "ClusterPartition": lambda k: ClusterPartition(k, [0, 0, 1, 1]),
    "kmeans-seed": lambda s: kmeans(np.arange(12.0).reshape(6, 2), 2, seed=s),
    "kmeans_pp_rows": lambda k: kmeans_pp_rows(np.arange(12.0).reshape(6, 2), k),
    "kmeans_pp_rows-seed": lambda s: kmeans_pp_rows(np.arange(12.0).reshape(6, 2), 2, s),
    "cluster_features-seed": lambda s: cluster_features(np.arange(12.0).reshape(6, 2), 2, s),
    "gt_pose_clustering-seed": lambda s: gt_pose_clustering(np.arange(18.0).reshape(6, 3), 2, s),
}


@pytest.mark.parametrize("call", _COUNT_CALLS)
@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", -1])
def test_counts_must_be_integers(call, bad):
    with pytest.raises(ValueError, match="integer"):
        _COUNT_CALLS[call](bad)


@pytest.mark.parametrize("call", _COUNT_CALLS)
def test_numpy_integer_counts_are_accepted(call):
    _COUNT_CALLS[call](np.int32(2))
