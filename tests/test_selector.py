"""Tests for the autoencoder, its hand-written gradients, training, and selection."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from scenesum import selector
from scenesum.clustering import (ClusterPartition, cluster_features, gt_pose_clustering,
                                 sample_cluster)
from scenesum.dataset import SceneDataset, SyntheticConfig, generate_synthetic
from scenesum.selector import (
    AdamState,
    AutoencoderParams,
    TrainConfig,
    adam_step,
    encode,
    grad,
    infonce_pair,
    init_params,
    recon_loss,
    select_keyframes,
    total_loss,
    train,
)
from test_clustering import _reference_sample_cluster


def _net(input_dim, hidden_dims, latent_dim, encoder, decoder):
    """AutoencoderParams from per-layer (weight, bias) lists, concatenated in
    flat's order: each weight then its bias, encoder first."""
    flat = np.concatenate([a.ravel() for layer in [*encoder, *decoder] for a in layer])
    return AutoencoderParams(input_dim, hidden_dims, latent_dim, flat)


def _literal_net():
    """2 -> tanh(2) -> 1 encoder with a mirrored decoder, literal weights."""
    encoder = [
        (np.array([[0.5, -0.25], [0.1, 0.8]]), np.array([0.05, -0.1])),
        (np.array([[1.5], [-0.4]]), np.array([0.2])),
    ]
    decoder = [
        (np.array([[0.9, 0.3]]), np.array([-0.2, 0.6])),
        (np.array([[0.7, -0.3], [-1.1, 0.25]]), np.array([0.0, 0.15])),
    ]
    return _net(2, (2,), 1, encoder, decoder)


def _identity_net(dim):
    """Single linear layer both ways with unit weights: encode(x) == x."""
    eye, zero = np.eye(dim), np.zeros(dim)
    return _net(dim, (), dim, [(eye, zero)], [(eye, zero)])


def _oracle_setup():
    """Fixed random net, features, and sample shared with hand-computed constants."""
    rng = np.random.default_rng(5)
    encoder = [
        (rng.normal(0.0, 0.7, size=(3, 4)), rng.normal(0.0, 0.7, size=4)),
        (rng.normal(0.0, 0.7, size=(4, 2)), rng.normal(0.0, 0.7, size=2)),
    ]
    decoder = [
        (rng.normal(0.0, 0.7, size=(2, 4)), rng.normal(0.0, 0.7, size=4)),
        (rng.normal(0.0, 0.7, size=(4, 3)), rng.normal(0.0, 0.7, size=3)),
    ]
    params = _net(3, (4,), 2, encoder, decoder)
    feats = rng.normal(0.0, 1.0, size=(8, 3))
    return params, feats, np.array([[0, 1], [2, 3], [4, 5]])


def _repeat_setup():
    """The oracle net on other features and three clusters of 3 sampled
    frames; cluster 1 draws frame 3 twice, as a cluster smaller than N draws
    with replacement."""
    params, _, _ = _oracle_setup()
    feats = np.random.default_rng(8).normal(0.0, 1.0, size=(10, 3))
    return params, feats, np.array([[0, 1, 2], [3, 9, 3], [6, 7, 8]])


def _mlp(layers, x):
    """Reference forward pass: tanh on hidden layers, linear output."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for i, (w, b) in enumerate(layers):
        x = x @ w + b
        if i < len(layers) - 1:
            x = np.tanh(x)
    return x


def _flatten(params):
    arrs = []
    for w, b in params.encoder + params.decoder:
        arrs.append(w.ravel())
        arrs.append(b.ravel())
    return np.concatenate(arrs)


def _fd_grad(params, feats, sample, gt, h=1e-5, **loss_kwargs):
    """Central finite differences over every parameter entry."""
    out = []
    for layers in (params.encoder, params.decoder):
        for w, b in layers:
            for arr in (w, b):
                g = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up, _ = total_loss(params, feats, sample, gt, **loss_kwargs)
                    arr[idx] = orig - h
                    dn, _ = total_loss(params, feats, sample, gt, **loss_kwargs)
                    arr[idx] = orig
                    g[idx] = (up - dn) / (2 * h)
                    it.iternext()
                out.append(g.ravel())
    return np.concatenate(out)


# ---------------------------------------------------------------- construction


def test_init_params_shapes_and_bounds():
    params = init_params(6, (5,), 3, rng=0)
    assert [(w.shape, b.shape) for w, b in params.encoder] == [((6, 5), (5,)), ((5, 3), (3,))]
    assert [(w.shape, b.shape) for w, b in params.decoder] == [((3, 5), (5,)), ((5, 6), (6,))]
    for layers in (params.encoder, params.decoder):
        for w, b in layers:
            bound = 1.0 / math.sqrt(w.shape[0])
            assert np.abs(w).max() <= bound and np.abs(b).max() <= bound


def test_init_params_deterministic():
    a = init_params(4, (3,), 2, rng=7)
    b = init_params(4, (3,), 2, rng=7)
    assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(a.encoder, b.encoder))


@pytest.mark.parametrize("args,kwargs", [
    ((0, (), 3), {}),
    ((4, (3,), 2), {"rng": 1.5}),
    ((4, (3,), 2), {"rng": True}),
    ((4, (3, 0), 2), {}),
    ((4, (3,), 0), {}),
], ids=["input-dim-0", "rng-float", "rng-bool", "hidden-0", "latent-0"])
def test_init_params_rejects_bad_widths_and_seeds(args, kwargs):
    with pytest.raises(ValueError, match="integer"):
        init_params(*args, **kwargs)


@pytest.mark.parametrize("hidden", [(), (128,), (3, 5)])
@pytest.mark.parametrize("generator", [False, True], ids=["seed", "generator"])
def test_init_params_matches_per_layer_draws(hidden, generator):
    # the reference draws each layer's weight, then its bias, as new arrays,
    # encoder first, and concatenates them: flat must match it bit for bit
    def rng():
        return np.random.default_rng(11) if generator else 11
    widths = [4, *hidden, 2]
    dims = list(zip(widths[:-1], widths[1:]))
    dims += [(dout, din) for din, dout in reversed(dims)]
    ref_rng = np.random.default_rng(rng())
    layers = []
    for din, dout in dims:
        bound = 1.0 / math.sqrt(din)
        layers.append((ref_rng.uniform(-bound, bound, size=(din, dout)),
                       ref_rng.uniform(-bound, bound, size=dout)))
    ref = np.concatenate([a.ravel() for layer in layers for a in layer])
    assert init_params(4, hidden, 2, rng=rng()).flat.tobytes() == ref.tobytes()


def test_params_reject_malformed_widths_and_flat():
    size = init_params(4, (3,), 2).flat.size
    for bad in (3.7, 4.0, True, 0):
        for widths in ((bad, (3,), 2), (4, (bad,), 2), (4, (3,), bad)):
            with pytest.raises(ValueError, match="integer"):
                AutoencoderParams(*widths)
    for hidden in (3, np.int64(3), None):  # a bare width is no sequence of widths
        with pytest.raises(ValueError, match="integer"):
            AutoencoderParams(4, hidden, 2)
    # models compare by identity, as partitions do, not by their flat arrays
    a = init_params(4, (3,), 2)
    assert a == a and (a == init_params(4, (3,), 2)) is False
    for flat in (np.zeros(size - 1), np.zeros((1, size)), np.full(size, np.nan),
                 np.full(size, "0.5"), np.zeros(size, dtype=object), np.zeros(size, dtype=bool)):
        with pytest.raises(ValueError, match="flat"):
            AutoencoderParams(4, (3,), 2, flat)


# ------------------------------------------------------------- forward passes


def test_encode_matches_hand_computation():
    params = _literal_net()
    lat = encode(params, [0.6, -0.8])
    assert lat.shape == (1,)
    assert abs(lat[0] - 0.8799947459358899) < 1e-12


def test_decode_matches_hand_computation():
    # The reference pass gives the hand value; the loss's recon term is the
    # squared distance from the input to that same reconstruction.
    params = _literal_net()
    hand = np.array([-0.3962128573157874, 0.16517927474370905])
    assert np.allclose(_mlp(params.decoder, [0.8799947459358899])[0], hand, atol=1e-12)
    feats = np.array([[0.6, -0.8], [0.6, -0.8]])
    _, breakdown = total_loss(params, feats, np.array([[0], [1]]))
    assert abs(breakdown["recon"] - float(((feats[0] - hand) ** 2).sum())) < 1e-12


def test_encode_batch_is_consistent_with_single():
    params = init_params(3, (4,), 2, rng=1)
    xs = np.random.default_rng(2).normal(size=(5, 3))
    batch = encode(params, xs)
    assert batch.shape == (5, 2)
    for i in range(5):
        assert np.allclose(batch[i], encode(params, xs[i]), atol=1e-14)


def test_encode_rejects_wrong_dimension():
    params = init_params(3, (4,), 2, rng=1)
    with pytest.raises(ValueError):
        encode(params, np.ones(4))


def test_identity_net_round_trips_input():
    params = _identity_net(3)
    xs = np.random.default_rng(3).normal(size=(4, 3))
    assert np.allclose(encode(params, xs), xs, atol=1e-15)
    assert total_loss(params, xs, np.array([[0, 1], [2, 3]]))[1]["recon"] == 0.0


def test_pool_is_row_mean():
    # Through an identity net the pools are the means of the sampled features
    # of each row: [2, 3] for cluster 0 and [2.5, 0.5] for cluster 1, cosine
    # 6.5 / sqrt(13 * 6.5) = sqrt(1/2).
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0], [0.0, 1.0]])
    _, breakdown = total_loss(_identity_net(2), feats, np.array([[0, 1], [2, 3]]))
    want = 2.0 * math.log1p(math.exp(math.sqrt(0.5) - 1.0))
    assert abs(breakdown["infonce"] - want) < 1e-11


# -------------------------------------------------------------------- losses


def test_recon_loss_hand_cases():
    x = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert recon_loss(x, np.zeros((2, 2))) == 5.0
    assert recon_loss(np.array([[0.0, 0.0], [3.0, 4.0]]), np.zeros((2, 2))) == 12.5
    assert recon_loss(x, x) == 0.0
    with pytest.raises(ValueError):
        recon_loss(x, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        recon_loss(np.zeros((0, 2)), np.zeros((0, 2)))


def test_infonce_pair_rejects_zero_vector():
    # cosine is undefined for a zero vector; the training path only guards
    # its norms, so the scalar helper refuses one outright
    for a, b in (([0.0, 0.0], [1.0, 0.0]), ([1.0, 0.0], [0.0, 0.0]), ([0.0], [0.0])):
        with pytest.raises(ValueError, match="zero"):
            infonce_pair(a, b)
    with pytest.raises(ValueError):
        infonce_pair([1.0, 0.0], [1.0, 0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_infonce_pair_rejects_non_finite_vector(bad):
    for a, b in (([bad, 1.0], [1.0, 0.0]), ([1.0, 0.0], [0.5, bad])):
        with pytest.raises(ValueError, match="NaN or Inf"):
            infonce_pair(a, b)


def test_infonce_pair_closed_forms():
    assert abs(infonce_pair([1.0, 0.0], [2.0, 0.0]) - math.log(2.0)) < 1e-9
    assert abs(infonce_pair([1.0, 0.0], [0.0, 1.0]) - math.log(1 + math.exp(-1))) < 1e-9
    assert abs(infonce_pair([1.0, 0.0], [-1.0, 0.0]) - math.log(1 + math.exp(-2))) < 1e-9


def test_infonce_pair_is_scale_invariant():
    a = np.array([0.3, -1.2, 0.5])
    b = np.array([1.1, 0.4, -0.2])
    assert abs(infonce_pair(a, b) - infonce_pair(5.0 * a, 0.25 * b)) < 1e-12


def test_total_loss_identity_net_orthogonal_clusters():
    # Two singleton clusters on orthogonal unit features through an identity
    # autoencoder: zero reconstruction error, both ordered pairs at cosine 0.
    params = _identity_net(2)
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    sample = np.array([[0], [1]])
    total, breakdown = total_loss(params, feats, sample)
    assert breakdown["recon"] == 0.0
    assert abs(total - 2.0 * math.log(1 + math.exp(-1))) < 1e-12
    assert abs(total - 0.6265233750364457) < 1e-12


def test_total_loss_matches_frozen_oracle():
    params, feats, sample = _oracle_setup()
    total, breakdown = total_loss(params, feats, sample)
    assert abs(breakdown["recon"] - 6.168639269032826) < 1e-10
    assert abs(breakdown["infonce"] - 4.0754936014876595) < 1e-10
    assert abs(total - 10.244132870520485) < 1e-10
    assert "gt" not in breakdown


def test_total_loss_supervised_matches_frozen_oracle():
    params, feats, sample = _oracle_setup()
    total, breakdown = total_loss(params, feats, sample, [0, 3, 5])
    assert abs(breakdown["gt"] - 0.07779558751251404) < 1e-10
    assert abs(total - 10.321928458032998) < 1e-10
    weighted, _ = total_loss(params, feats, sample, [0, 3, 5],
                             lambda_recon=0.5, lambda_nce=2.0, lambda_gt=3.0)
    assert abs(weighted - 11.468693600029274) < 1e-10


def test_total_loss_supervised_gt_term_vanishes_for_singleton_pools():
    # With one frame per cluster the pool equals that frame's encoding, so a
    # gt keyframe equal to the member contributes exactly zero.
    params = init_params(3, (4,), 2, rng=4)
    feats = np.random.default_rng(5).normal(size=(2, 3))
    sample = np.array([[0], [1]])
    base, _ = total_loss(params, feats, sample)
    sup, breakdown = total_loss(params, feats, sample, [0, 1])
    assert breakdown["gt"] < 1e-24
    assert abs(sup - base) < 1e-12


def test_total_loss_is_linear_in_weights():
    params, feats, sample = _oracle_setup()
    _, bd = total_loss(params, feats, sample)
    doubled, _ = total_loss(params, feats, sample, lambda_nce=2.0)
    assert abs(doubled - (bd["recon"] + 2.0 * bd["infonce"])) < 1e-12
    no_recon, _ = total_loss(params, feats, sample, lambda_recon=0.0)
    assert abs(no_recon - bd["infonce"]) < 1e-12


@pytest.mark.parametrize("gt", [None, [1, 3, 9]])
def test_total_loss_matches_per_cluster_loop(gt):
    # A loop over clusters and ordered cluster pairs, written here without the
    # library's loss helpers, is the reference for the batched loss.
    params, feats, sample = _repeat_setup()
    lams = {"lambda_recon": 0.7, "lambda_nce": 1.3, "lambda_gt": 2.1}
    batched, _ = total_loss(params, feats, sample, gt, **lams)

    xs = list(feats[sample])
    pools = [encode(params, x).mean(axis=0) for x in xs]
    n_total = sum(len(x) for x in xs)
    recon = sum(float(((x - _mlp(params.decoder, encode(params, x))) ** 2).sum())
                for x in xs) / n_total
    nce = 0.0
    for a, pa in enumerate(pools):
        for b, pb in enumerate(pools):
            if a != b:
                s = float(pa @ pb) / math.sqrt(float(pa @ pa) * float(pb @ pb))
                nce += math.log1p(math.exp(s - 1.0))
    expected = lams["lambda_recon"] * recon + lams["lambda_nce"] * nce
    if gt is not None:
        gt_term = sum(float(((encode(params, feats[f]) - p) ** 2).sum())
                      for f, p in zip(gt, pools)) / len(pools)
        expected += lams["lambda_gt"] * gt_term
    assert abs(batched - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("table,gt,match", [
    ([[0.7, 1.2], [2.0, 3.0]], None, "frame indices"),
    ([[-1], [2]], None, "frame indices"),
    ([[6], [2]], None, "frame indices"),
    ([[0], [2]], [0, 2, 5], "gt_keyframes"),
    ([[0], [2]], [0], "gt_keyframes"),
    ([0, 2], None, "sample table"),
    (np.zeros((2, 0), dtype=np.int64), None, "sample table"),
], ids=["float-frames", "frame-minus-1", "frame-past-end", "gt-too-long", "gt-too-short",
        "table-1-d", "n-0"])
def test_total_loss_rejects_malformed_samples(table, gt, match):
    # a 6-frame scene: the table must be (k, N) with N >= 1 and integer frames
    # in [0, 6), and in supervised mode gt_keyframes must hold one frame per row
    params = init_params(2, (3,), 2, rng=0)
    feats = np.random.default_rng(1).normal(size=(6, 2))
    with pytest.raises(ValueError, match=match):
        total_loss(params, feats, np.array(table), gt)


@pytest.mark.parametrize("table,gt", [
    (np.array([[0], [2]]), [True, 2]),
    (np.array([[0], [2]]), np.array([True, False])),
    ([[True], [2]], None),
], ids=["gt-bool-in-list", "gt-bool-array", "table-bool-in-list"])
def test_total_loss_refuses_a_bool_for_a_frame(table, gt):
    # np.asarray and np.concatenate would make integers of these bools, so the
    # caller's own objects are checked before either runs.
    params = init_params(2, (3,), 2, rng=0)
    feats = np.random.default_rng(1).normal(size=(6, 2))
    with pytest.raises(ValueError, match="not bools"):
        total_loss(params, feats, table, gt)


def test_total_loss_needs_two_clusters():
    params = init_params(2, (2,), 1, rng=0)
    with pytest.raises(ValueError, match="2 clusters"):
        total_loss(params, np.ones((2, 2)), np.array([[0, 1]]))


@pytest.mark.parametrize("gt", [None, [1, 3, 9]])
def test_total_loss_with_grads_leaves_its_inputs_unchanged(gt):
    # The forward pass adds the bias and applies tanh in place; only arrays it
    # made itself may change.
    params, feats, sample = _repeat_setup()
    inputs = [params.flat, feats, sample]
    before = [a.tobytes() for a in inputs]
    total_loss(params, feats, sample, gt, grads=AutoencoderParams(3, (4,), 2))
    assert [a.tobytes() for a in inputs] == before


# ------------------------------------------------------------------ gradients


def test_grad_matches_finite_differences_self_supervised():
    params, feats, sample = _oracle_setup()
    g = _flatten(grad(params, feats, sample))
    fd = _fd_grad(params, feats, sample, None)
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
    assert np.max(np.abs(g - fd) / denom) < 1e-6


def test_grad_matches_finite_differences_supervised():
    params, feats, sample = _oracle_setup()
    gt = [1, 2, 5]
    g = _flatten(grad(params, feats, sample, gt, lambda_gt=1.7))
    fd = _fd_grad(params, feats, sample, gt, lambda_gt=1.7)
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
    assert np.max(np.abs(g - fd) / denom) < 1e-6


@pytest.mark.parametrize("gt", [None, [1, 3, 9]])
def test_grad_matches_finite_differences_with_a_repeated_frame(gt):
    params, feats, sample = _repeat_setup()
    g = _flatten(grad(params, feats, sample, gt))
    fd = _fd_grad(params, feats, sample, gt)
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
    assert np.max(np.abs(g - fd) / denom) < 1e-6


def test_cosine_backward_matches_finite_differences():
    # for any G = dL/dS, not only the symmetric G the pair loss passes it
    rng = np.random.default_rng(11)
    pools = rng.normal(size=(4, 3))
    g_sim = rng.normal(size=(4, 4))
    assert not np.allclose(g_sim, g_sim.T)
    got = selector._cosine(pools)[1](g_sim)
    fd, h = np.zeros_like(pools), 1e-6
    for idx in np.ndindex(pools.shape):
        up, dn = pools.copy(), pools.copy()
        up[idx] += h
        dn[idx] -= h
        fd[idx] = ((g_sim * selector._cosine(up)[0]).sum()
                   - (g_sim * selector._cosine(dn)[0]).sum()) / (2 * h)
    assert np.abs(got - fd).max() < 1e-7 * np.abs(fd).max()


def test_grad_is_finite_when_a_pool_is_zero():
    # cluster 0 samples two opposite frames, so through the identity net its
    # pool is exactly 0; the guarded norms keep the gradient finite there
    params = _identity_net(2)
    feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    sample = np.array([[0, 1], [2, 2]])
    total, _ = total_loss(params, feats, sample)
    assert abs(total - 2.0 * math.log1p(math.exp(-1.0))) < 1e-12
    assert np.isfinite(grad(params, feats, sample).flat).all()


def test_grad_is_linear_in_loss_weights():
    params, feats, sample = _oracle_setup()
    g0 = _flatten(grad(params, feats, sample, lambda_nce=0.0))
    g1 = _flatten(grad(params, feats, sample, lambda_nce=1.0))
    g2 = _flatten(grad(params, feats, sample, lambda_nce=2.0))
    assert np.allclose(g0 + g2, 2.0 * g1, atol=1e-12)


def test_grad_returns_a_new_buffer_per_call():
    params, feats, sample = _oracle_setup()
    g1 = grad(params, feats, sample)
    first = g1.flat.tobytes()
    g2 = grad(params, feats, sample, lambda_nce=2.0)
    assert g1 is not g2
    assert not np.shares_memory(g1.flat, g2.flat)
    assert not np.shares_memory(g1.flat, params.flat)
    assert g1.flat.tobytes() == first
    assert g2.flat.tobytes() != first
    # the layer pairs are views of the result's own buffer
    assert all(np.shares_memory(a, g1.flat) for layer in g1.encoder + g1.decoder for a in layer)


def test_grad_zero_at_perfect_reconstruction_without_nce():
    params = _identity_net(2)
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    sample = np.array([[0], [1]])
    g = _flatten(grad(params, feats, sample, lambda_nce=0.0))
    assert np.abs(g).max() < 1e-15


# ----------------------------------------------------------------------- adam


def test_adam_zero_gradient_is_identity():
    params = init_params(3, (2,), 2, rng=0)
    before = _flatten(params).copy()
    zeros = AutoencoderParams(3, (2,), 2)
    state = AdamState(params)
    adam_step(params, zeros, state, learning_rate=0.1)
    assert state.t == 1
    assert np.array_equal(_flatten(params), before)


def test_adam_first_step_moves_by_learning_rate():
    # With bias correction the first update is lr * g / (|g| + eps) = lr * sign(g).
    params = AutoencoderParams(1, (), 1, np.array([1.0, 0.5, 1.0, 0.0]))
    grads = AutoencoderParams(1, (), 1, np.array([3.0, -2.0, 0.0, 0.0]))
    state = AdamState(params)
    adam_step(params, grads, state, learning_rate=0.01)
    assert abs(params.encoder[0][0][0, 0] - (1.0 - 0.01)) < 1e-9
    assert abs(params.encoder[0][1][0] - (0.5 + 0.01)) < 1e-9
    assert params.decoder[0][0][0, 0] == 1.0


def test_adam_flat_update_equals_per_array_reference():
    # The fused update over the flat buffer does the per-array arithmetic in
    # the same order, so every entry must match bit for bit.
    params = init_params(3, (4,), 2, rng=3)
    ref = [a.copy() for layer in params.encoder + params.decoder for a in layer]
    ref_m = [np.zeros_like(a) for a in ref]
    ref_v = [np.zeros_like(a) for a in ref]
    state = AdamState(params)
    rng = np.random.default_rng(4)
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 4):
        g = init_params(3, (4,), 2, rng=rng)
        adam_step(params, g, state, learning_rate=lr)
        g_arrays = [a for layer in g.encoder + g.decoder for a in layer]
        for theta, gr, m, v in zip(ref, g_arrays, ref_m, ref_v):
            m *= beta1
            m += (1.0 - beta1) * gr
            v *= beta2
            v += (1.0 - beta2) * gr * gr
            theta -= lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
    assert all(np.array_equal(a, b) for a, b in
               zip(ref, [a for layer in params.encoder + params.decoder for a in layer]))


def test_adam_update_past_unit_bias_correction_matches_the_plain_formula():
    # From t = 356 on 1 - 0.9**t rounds to 1.0 and adam_step skips m / bc1;
    # 400 steps cross that point and must still match the plain formula.
    params = init_params(3, (4,), 2, rng=5)
    ref = params.flat.copy()
    ref_m, ref_v = np.zeros_like(ref), np.zeros_like(ref)
    state = AdamState(params)
    grads = AutoencoderParams(3, (4,), 2)
    rng = np.random.default_rng(6)
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 401):
        grads.flat[:] = rng.normal(size=ref.size)
        adam_step(params, grads, state, learning_rate=lr)
        ref_m *= beta1
        ref_m += (1.0 - beta1) * grads.flat
        ref_v *= beta2
        ref_v += (1.0 - beta2) * grads.flat * grads.flat
        ref -= lr * (ref_m / (1.0 - beta1 ** t)) / (np.sqrt(ref_v / (1.0 - beta2 ** t)) + eps)
        assert params.flat.tobytes() == ref.tobytes(), f"step {t}"
    assert 1.0 - beta1 ** 355 != 1.0 and 1.0 - beta1 ** 356 == 1.0


# ------------------------------------------------------------------- training


def _toy_scene(n=30, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, dim)).astype(np.float32)
    return SceneDataset("toy", feats)


def _reference_forward(layers, x):
    acts = [x]
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if i < len(layers) - 1 else z)
    return acts


def _reference_backward(layers, acts, d_out):
    grads = [None] * len(layers)
    last = len(layers) - 1
    dz = d_out
    for i in range(last, -1, -1):
        if i < last:
            dz = (dz @ layers[i + 1][0].T) * (1.0 - acts[i + 1] ** 2)
        grads[i] = (acts[i].T @ dz, dz.sum(axis=0))
    return grads, dz


def _reference_loss_and_grad(params, features, table, gt):
    """One step's loss and gradient as first written, at training's unit loss
    weights: new arrays for every layer gradient, gathered into a new
    AutoencoderParams."""
    lam_recon = lam_nce = lam_gt = 1.0
    k, n_sample = table.shape
    rows = table.ravel()
    n_total = rows.size
    if gt is not None:
        rows = np.concatenate([rows, np.asarray([gt[j] for j in range(k)], dtype=np.int64)])
    enc_acts = _reference_forward(params.encoder, features[rows])
    h, x = enc_acts[-1][:n_total], enc_acts[0][:n_total]
    dec_acts = _reference_forward(params.decoder, h)
    recon = float(((x - dec_acts[-1]) ** 2).sum()) / n_total
    avg = np.zeros((k, n_total))
    avg[np.repeat(np.arange(k), n_sample), np.arange(n_total)] = 1.0 / n_sample
    pools = avg @ h
    norms = np.sqrt((pools * pools).sum(axis=1))
    guarded = norms + 1e-12
    gg = np.outer(guarded, guarded)
    sim = (pools @ pools.T) / gg
    e = np.exp(sim - 1.0)
    off_diag = ~np.eye(k, dtype=bool)
    total = lam_recon * recon + lam_nce * float(np.log1p(e[off_diag]).sum())
    if gt is not None:
        gt_diff = enc_acts[-1][n_total:] - pools
        total += lam_gt * (float((gt_diff * gt_diff).sum()) / k)

    wts = np.where(off_diag, lam_nce * e / (1.0 + e), 0.0)
    d_pools = 2.0 * ((wts / gg) @ pools
                     - ((wts * sim).sum(axis=1)
                        / (guarded * np.maximum(norms, np.finfo(np.float64).tiny)))[:, None]
                     * pools)
    dxp = lam_recon * (2.0 / n_total) * (dec_acts[-1] - x)
    dec_grads, dz = _reference_backward(params.decoder, dec_acts, dxp)
    dh = dz @ params.decoder[0][0].T
    if gt is not None:
        d_gt = lam_gt * (2.0 / k) * gt_diff
        d_pools -= d_gt
        dh = np.concatenate([dh + avg.T @ d_pools, d_gt])
    else:
        dh += avg.T @ d_pools
    enc_grads, _ = _reference_backward(params.encoder, enc_acts, dh)
    g = _net(params.input_dim, params.hidden_dims, params.latent_dim, enc_grads, dec_grads)
    return total, g


def _reference_train(ds, partition, cfg):
    """The training loop as first written: a fresh gradient AutoencoderParams per
    step and an Adam update that allocates its temporaries, on one reference
    draw per step.  train must reproduce it bit for bit."""
    k = partition.k
    gt = partition.gt_keyframes
    n_sample = max(1, cfg.batch_size // k)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(ds.dim, cfg.hidden_dims, cfg.latent_dim, rng)
    features = np.asarray(ds.features, dtype=np.float64)
    m, v, t = np.zeros_like(params.flat), np.zeros_like(params.flat), 0
    lr, beta1, beta2, eps = cfg.learning_rate, 0.9, 0.999, 1e-8
    history = []
    for _ in range(cfg.epochs):
        step_losses = []
        for _ in range(max(1, math.ceil(ds.n_frames / (k * n_sample)))):
            table = _reference_sample_cluster(partition, n_sample, rng).reshape(k, n_sample)
            total, g = _reference_loss_and_grad(params, features, table, gt)
            t += 1
            m *= beta1
            m += (1.0 - beta1) * g.flat
            v *= beta2
            v += (1.0 - beta2) * g.flat * g.flat
            params.flat -= lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
            step_losses.append(total)
        history.append(float(np.mean(step_losses)))
    return params, history


@pytest.mark.parametrize("case", [
    # N = batch_size // k frames per cluster: 5, 3, 8, 2 and 5
    dict(k=4, batch_size=20),
    dict(k=3, supervised=True, batch_size=9),
    dict(k=3, hidden_dims=(), batch_size=24),
    dict(k=4, hidden_dims=(3, 4), batch_size=8),
    dict(k=2, supervised=True, hidden_dims=(3, 4), batch_size=10, seed=3),
], ids=["cut-sample", "supervised", "no-hidden", "two-hidden", "supervised-two-hidden"])
def test_train_matches_reference_loop_bit_for_bit(case):
    case = dict(case)
    k = case.pop("k")
    gt = np.arange(k) + 2 * k if case.pop("supervised", False) else None
    ds = _toy_scene(n=60, dim=6, seed=4)
    part = ClusterPartition(k, np.arange(60) % k, gt_keyframes=gt)
    cfg = TrainConfig(epochs=6, latent_dim=3, **{"hidden_dims": (5,), **case})
    got_params, got_history = train(ds, part, cfg)
    want_params, want_history = _reference_train(ds, part, cfg)
    assert len(got_history) == cfg.epochs
    assert np.array(got_history).tobytes() == np.array(want_history).tobytes()
    assert got_params.flat.tobytes() == want_params.flat.tobytes()


def test_training_step_allocates_nothing_of_parameter_size(monkeypatch):
    # Wide layers on a batch of 2 rows: the parameters take 1.2 MB, a step's own
    # activations and their gradients some tens of kB.  The peak is measured
    # from mark to mark around every Adam call; the first interval holds set-up.
    ds = _toy_scene(n=16, dim=128, seed=3)
    part = ClusterPartition(2, np.arange(16) % 2)
    cfg = TrainConfig(epochs=1, latent_dim=16, hidden_dims=(512,), batch_size=2, seed=0)
    real_adam_step = selector.adam_step
    peaks, base = [], [0]

    def mark():
        peaks.append(tracemalloc.get_traced_memory()[1] - base[0])
        tracemalloc.reset_peak()
        base[0] = tracemalloc.get_traced_memory()[0]

    def adam_step(*args, **kwargs):
        mark()
        real_adam_step(*args, **kwargs)
        mark()

    monkeypatch.setattr(selector, "adam_step", adam_step)
    tracemalloc.start()
    try:
        params, _ = train(ds, part, cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 * 8
    assert max(peaks[1:]) < params.flat.nbytes / 10


def _per_step_train(ds, partition, cfg):
    """train's loop on one reference draw per step, each step through
    total_loss(grads=) and adam_step."""
    k = partition.k
    n_sample = max(1, cfg.batch_size // k)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(ds.dim, cfg.hidden_dims, cfg.latent_dim, rng)
    features = np.asarray(ds.features, dtype=np.float64)
    state, grads = AdamState(params), AutoencoderParams(ds.dim, cfg.hidden_dims, cfg.latent_dim)
    history = []
    for _ in range(cfg.epochs):
        step_losses = []
        for _ in range(math.ceil(ds.n_frames / (k * n_sample))):
            table = _reference_sample_cluster(partition, n_sample, rng).reshape(k, n_sample)
            total, _ = total_loss(params, features, table, partition.gt_keyframes, grads=grads)
            adam_step(params, grads, state, learning_rate=cfg.learning_rate)
            step_losses.append(total)
        history.append(float(np.mean(step_losses)))
    return params, history


def _train_case(case):
    if case == "small-cluster":  # cluster sizes 2, 29 and 29 against N = 4
        return _toy_scene(n=60, dim=6, seed=4), ClusterPartition(3, [0, 0] + [1, 2] * 29)
    ds = generate_synthetic(SyntheticConfig(n_frames=500, dim=64, seed=23))
    if case == "self-k20":  # 25 frames a cluster, N = 3
        return ds, cluster_features(ds.features, 20)
    return ds, gt_pose_clustering(ds.poses, 10)  # 35 to 67 frames a cluster, N = 6


@pytest.mark.parametrize("case", ["self-k20", "supervised-k10", "small-cluster"])
def test_train_matches_per_step_draws_through_total_loss(case):
    # One draw per epoch and the unchecked loss core must give the parameters
    # and history of one draw per step through the checked total_loss.
    ds, part = _train_case(case)
    cfg = TrainConfig(epochs=3, batch_size=12 if case == "small-cluster" else 64)
    got_params, got_history = train(ds, part, cfg)
    want_params, want_history = _per_step_train(ds, part, cfg)
    assert np.array(got_history).tobytes() == np.array(want_history).tobytes()
    assert got_params.flat.tobytes() == want_params.flat.tobytes()


def test_train_draws_one_sample_per_epoch_through_the_module_name(monkeypatch):
    # The benchmark's tracer wraps selector.sample_cluster, so train must look
    # it up there and call it once per epoch for all its steps.
    ds = _toy_scene(n=30)
    part = ClusterPartition(3, np.arange(30) % 3)
    cfg = TrainConfig(epochs=4, latent_dim=2, hidden_dims=(3,), batch_size=6, seed=1)
    rows = []

    def counting_sample_cluster(*args, **kwargs):
        sample = sample_cluster(*args, **kwargs)
        rows.append(sample.frame_indices.size)
        return sample

    monkeypatch.setattr(selector, "sample_cluster", counting_sample_cluster)
    train(ds, part, cfg)
    assert rows == [5 * 3 * 2] * 4  # 5 steps of ceil(30 / 6) per epoch


def test_train_refuses_an_empty_cluster_before_training():
    ds = _toy_scene(n=30)
    part = ClusterPartition(3, np.arange(30) % 2)  # cluster 2 empty
    with pytest.raises(ValueError, match="cluster 2 is empty"):
        train(ds, part, TrainConfig(epochs=1, latent_dim=2, hidden_dims=(3,)))


def test_train_zero_epochs_returns_initial_params():
    ds = _toy_scene()
    part = ClusterPartition(3, np.arange(30) % 3)
    cfg = TrainConfig(epochs=0, latent_dim=2, hidden_dims=(3,), seed=6)
    params, history = train(ds, part, cfg)
    fresh = init_params(4, (3,), 2, rng=np.random.default_rng(6))
    assert history == []
    assert np.array_equal(_flatten(params), _flatten(fresh))


def test_train_is_deterministic():
    ds = _toy_scene()
    part = ClusterPartition(3, np.arange(30) % 3)
    cfg = TrainConfig(epochs=3, latent_dim=2, hidden_dims=(3,), batch_size=6, seed=1)
    p1, h1 = train(ds, part, cfg)
    p2, h2 = train(ds, part, cfg)
    assert h1 == h2
    assert np.array_equal(_flatten(p1), _flatten(p2))


def test_train_reduces_loss():
    ds = _toy_scene(n=60, dim=6, seed=2)
    part = ClusterPartition(3, np.arange(60) % 3)
    cfg = TrainConfig(epochs=40, latent_dim=4, hidden_dims=(8,), batch_size=12, seed=0)
    _, history = train(ds, part, cfg)
    assert history[-1] < history[0]


def test_train_rejects_non_finite_loss():
    ds = _toy_scene(n=60, dim=6, seed=2)
    part = ClusterPartition(3, np.arange(60) % 3)
    cfg = TrainConfig(epochs=3, learning_rate=1e300, latent_dim=4, hidden_dims=(8,),
                      batch_size=12, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"training loss is .* at epoch \d+, step \d+"):
            train(ds, part, cfg)


def test_select_keyframes_refuses_overflowed_latents():
    # One epoch at learning rate 1e300 ends on a finite loss, but its last
    # Adam update leaves latents near 6e301, whose squared norms overflow: the
    # unit latents would all be 0 and every pick the cluster's lowest frame.
    ds = generate_synthetic(SyntheticConfig(n_frames=60, seed=0))
    part = cluster_features(ds.features, 5)
    params, history = train(ds, part, TrainConfig(epochs=1, learning_rate=1e300))
    assert np.isfinite(history).all()
    with pytest.raises(ValueError, match="training diverged"):
        select_keyframes(params, ds, part)
    # with weights of 1e308 a first row [1, 0] gives a latent whose squared
    # norm overflows, [2, 0] an infinite latent and [2, -2] a NaN one
    w, b = np.full((2, 2), 1e308), np.zeros(2)
    params = _net(2, (), 2, [(w, b)], [(w, b)])
    for row in ([1.0, 0.0], [2.0, 0.0], [2.0, -2.0]):
        ds = SceneDataset("overflow", [row, [0.0, 0.0]])
        with pytest.raises(ValueError, match="training diverged"):
            select_keyframes(params, ds, ClusterPartition(2, [0, 1]))


@pytest.mark.parametrize("k", [8, 10, 20, 65, 100])
def test_default_training_draws_the_batch_split_over_the_clusters(monkeypatch, k):
    # The default batch of 64 holds N = max(1, 64 // k) frames of each cluster,
    # one frame each once k > 64, and training says nothing about it.
    ds = _toy_scene(n=200)
    part = ClusterPartition(k, np.arange(200) % k)
    cfg = TrainConfig(epochs=1, latent_dim=2, hidden_dims=(3,))
    shapes = []

    def recording_sample_cluster(*args, **kwargs):
        sample = sample_cluster(*args, **kwargs)
        shapes.append(sample.table.shape)
        return sample

    monkeypatch.setattr(selector, "sample_cluster", recording_sample_cluster)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train(ds, part, cfg)
    n_sample = max(1, 64 // k)
    assert shapes == [(math.ceil(200 / (k * n_sample)), k, n_sample)]


def test_train_validation():
    ds = _toy_scene()
    part = ClusterPartition(1, np.zeros(30, dtype=int))
    with pytest.raises(ValueError):
        train(ds, part, TrainConfig(epochs=1))
    two = ClusterPartition(2, np.arange(29) % 2)
    with pytest.raises(ValueError):
        train(ds, two, TrainConfig(epochs=1))


def test_train_config_validation():
    TrainConfig(batch_size=64, learning_rate=0.001, latent_dim=2048, epochs=100)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(TypeError):  # batch_size alone sets the per-cluster sample
        TrainConfig(sample_size=8)
    # counts and seeds must be integers: a float, a bool or a string is refused up
    # front rather than failing in train or being coerced
    for bad in ({"epochs": 1.5}, {"latent_dim": 2.5}, {"batch_size": True},
                {"batch_size": 2.0}, {"hidden_dims": (2.5,)}, {"hidden_dims": (True,)},
                {"hidden_dims": (0,)}, {"seed": 1.5}, {"seed": True}, {"seed": -1},
                {"epochs": "3"}, {"hidden_dims": 3}, {"hidden_dims": np.int64(3)}):
        with pytest.raises(ValueError, match="integer"):
            TrainConfig(**bad)
    # the learning rate is a finite real number > 0, never a str, None or a bool
    for bad in ("1", None, True, math.nan, math.inf, 10**400, -1e-3):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=bad)
    cfg = TrainConfig(epochs=0, hidden_dims=(np.int64(3),), seed=np.int32(2),
                      learning_rate=np.float32(0.5))
    assert cfg.hidden_dims == (3,) and type(cfg.hidden_dims[0]) is int
    assert TrainConfig(learning_rate=np.int64(1)).learning_rate == 1


# ------------------------------------------------------------------ selection


def _cosine_picks_by_loop(params, feats, part):
    """The cosine pick written as a plain loop over clusters."""
    picks = []
    for members in part.members:
        h = encode(params, np.asarray(feats, dtype=np.float64)[members])
        u = h / (np.sqrt((h * h).sum(axis=1)) + 1e-12)[:, None]
        mean = u.mean(axis=0)
        mean_dir = mean / (math.sqrt(float(mean @ mean)) + 1e-12)
        picks.append(int(members[np.argmax(u @ mean_dir)]))  # argmax keeps the first of ties
    return picks


def test_select_keyframes_identity_net_hand_case():
    # Cluster 0 has unit directions [1, 0], [0, 1] and twice [0.6, 0.8], mean
    # direction [0.646, 0.763]: the two copies of [6, 8] have cosine 0.998 and
    # the tie goes to the lower index.  The Euclidean pick nearest the mean
    # latent [3.25, 4.25] would be frame 1, since norms would count.
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [6.0, 8.0], [6.0, 8.0], [8.0, 8.0]])
    ds = SceneDataset("hand", feats)
    part = ClusterPartition(2, [0, 0, 0, 0, 1])
    result = select_keyframes(_identity_net(2), ds, part)
    assert result == [2, 4]
    assert result == _cosine_picks_by_loop(_identity_net(2), feats, part)
    gt_part = ClusterPartition(2, [0, 0, 0, 0, 1], gt_keyframes=[0, 4])
    assert select_keyframes(_identity_net(2), ds, gt_part) == result  # gt does not move the pick


def test_select_keyframes_rejects_a_partition_of_another_scene():
    ds = _toy_scene(n=40)
    params = init_params(4, (3,), 2, rng=0)
    for n in (30, 50):
        with pytest.raises(ValueError, match=f"partition covers {n} frames, dataset has 40"):
            select_keyframes(params, ds, ClusterPartition(2, np.arange(n) % 2))


def test_select_keyframes_matches_brute_force():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(40, 5)).astype(np.float32)
    ds = SceneDataset("brute", feats)
    part = ClusterPartition(4, rng.integers(0, 4, size=40))
    params = init_params(5, (6,), 3, rng=2)
    result = select_keyframes(params, ds, part)
    assert result == _cosine_picks_by_loop(params, feats, part)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_select_keyframes_ignores_the_norm_of_a_latent():
    # Through the identity net a frame's latent is its feature row, so scaling
    # the row scales the latent.
    feats = np.random.default_rng(12).normal(size=(24, 4))
    part = ClusterPartition(3, np.arange(24) % 3)
    want = select_keyframes(_identity_net(4), SceneDataset("scale", feats), part)
    for frame in range(24):
        for c in (0.25, 4.0, 1e3):
            scaled = feats.copy()
            scaled[frame] *= c
            got = select_keyframes(_identity_net(4), SceneDataset("scale", scaled), part)
            assert got == want, (frame, c)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_select_keyframes_cancelling_directions_pick_the_lowest_frame():
    # Cluster 1 holds [-2, 0] and [2, 0]: its unit latents sum to exactly 0,
    # so every member has cosine 0 and the lowest frame is picked.
    feats = np.array([[0.0, 1.0], [-2.0, 0.0], [0.0, 1.0], [2.0, 0.0], [1.0, 1.0]])
    part = ClusterPartition(2, [0, 1, 0, 1, 0])
    result = select_keyframes(_identity_net(2), SceneDataset("cancel", feats), part)
    assert result == [0, 1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_select_keyframes_zero_latent_gets_a_deterministic_pick():
    # A zero latent has cosine 0 with any direction; cluster 1 is all zeros,
    # so its mean direction is zero too and the lowest frame is picked.
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    ds = SceneDataset("zero", feats)
    part = ClusterPartition(2, [0, 0, 0, 1, 1])
    first = select_keyframes(_identity_net(2), ds, part)
    assert first == [1, 3]
    assert select_keyframes(_identity_net(2), ds, part) == [1, 3]
