"""Tests for the autoencoder, its hand-written gradients, training, and selection."""

from __future__ import annotations

import math

import numpy as np
import pytest

from scenesum.clustering import ClusterSample, partition_from_labels
from scenesum.dataset import SceneDataset
from scenesum.selector import (
    AdamState,
    AutoencoderParams,
    TrainConfig,
    adam_step,
    cosine_sim,
    decode,
    encode,
    grad,
    infonce_pair,
    init_params,
    load_params,
    pool,
    recon_loss,
    save_params,
    select_keyframes,
    total_loss,
    train,
)


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
    return AutoencoderParams(input_dim=2, hidden_dims=(2,), latent_dim=1,
                             encoder=encoder, decoder=decoder)


def _identity_net(dim):
    """Single linear layer both ways with unit weights: encode(x) == x."""
    eye = np.eye(dim)
    zero = np.zeros(dim)
    return AutoencoderParams(input_dim=dim, hidden_dims=(), latent_dim=dim,
                             encoder=[(eye.copy(), zero.copy())],
                             decoder=[(eye.copy(), zero.copy())])


def _oracle_setup():
    """Fixed random net, features, and samples shared with hand-computed constants."""
    rng = np.random.default_rng(5)
    encoder = [
        (rng.normal(0.0, 0.7, size=(3, 4)), rng.normal(0.0, 0.7, size=4)),
        (rng.normal(0.0, 0.7, size=(4, 2)), rng.normal(0.0, 0.7, size=2)),
    ]
    decoder = [
        (rng.normal(0.0, 0.7, size=(2, 4)), rng.normal(0.0, 0.7, size=4)),
        (rng.normal(0.0, 0.7, size=(4, 3)), rng.normal(0.0, 0.7, size=3)),
    ]
    params = AutoencoderParams(input_dim=3, hidden_dims=(4,), latent_dim=2,
                               encoder=encoder, decoder=decoder)
    feats = rng.normal(0.0, 1.0, size=(8, 3))
    samples = [ClusterSample(0, [0, 1]), ClusterSample(1, [2, 3]), ClusterSample(2, [4, 5])]
    return params, feats, samples


def _unequal_setup():
    """The oracle net on clusters of 3, 1 and 5 sampled frames."""
    params, _, _ = _oracle_setup()
    feats = np.random.default_rng(8).normal(0.0, 1.0, size=(10, 3))
    samples = [ClusterSample(0, [0, 1, 2]), ClusterSample(1, [3]),
               ClusterSample(2, [4, 5, 6, 7, 8])]
    return params, feats, samples


def _flatten(params):
    arrs = []
    for w, b in params.encoder + params.decoder:
        arrs.append(w.ravel())
        arrs.append(b.ravel())
    return np.concatenate(arrs)


def _fd_grad(params, feats, samples, gt, h=1e-5, **loss_kwargs):
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
                    up, _ = total_loss(params, feats, samples, gt, **loss_kwargs)
                    arr[idx] = orig - h
                    dn, _ = total_loss(params, feats, samples, gt, **loss_kwargs)
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


def test_params_validation_rejects_broken_mirror():
    good = init_params(4, (3,), 2, rng=0)
    with pytest.raises(ValueError):
        AutoencoderParams(input_dim=4, hidden_dims=(3,), latent_dim=2,
                          encoder=good.encoder, decoder=good.decoder[:1])
    bad_w = [(np.zeros((4, 2)), np.zeros(2)), good.encoder[1]]
    with pytest.raises(ValueError):
        AutoencoderParams(input_dim=4, hidden_dims=(3,), latent_dim=2,
                          encoder=bad_w, decoder=good.decoder)
    nan_enc = [(good.encoder[0][0] * np.nan, good.encoder[0][1]), good.encoder[1]]
    with pytest.raises(ValueError):
        AutoencoderParams(input_dim=4, hidden_dims=(3,), latent_dim=2,
                          encoder=nan_enc, decoder=good.decoder)


# ------------------------------------------------------------- forward passes


def test_encode_matches_hand_computation():
    params = _literal_net()
    lat = encode(params, [0.6, -0.8])
    assert lat.shape == (1,)
    assert abs(lat[0] - 0.8799947459358899) < 1e-12


def test_decode_matches_hand_computation():
    params = _literal_net()
    out = decode(params, [0.8799947459358899])
    assert np.allclose(out, [-0.3962128573157874, 0.16517927474370905], atol=1e-12)


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
    assert np.allclose(decode(params, xs), xs, atol=1e-15)


def test_pool_is_row_mean():
    h = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
    assert np.allclose(pool(h), [3.0, 2.0])
    with pytest.raises(ValueError):
        pool(np.zeros((0, 2)))


# -------------------------------------------------------------------- losses


def test_recon_loss_hand_cases():
    x = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert recon_loss(x, np.zeros((2, 2))) == 5.0
    assert recon_loss(np.array([[0.0, 0.0], [3.0, 4.0]]), np.zeros((2, 2))) == 12.5
    assert recon_loss(x, x) == 0.0
    with pytest.raises(ValueError):
        recon_loss(x, np.zeros((3, 2)))


def test_cosine_sim_reference_values():
    assert abs(cosine_sim([1.0, 0.0], [0.0, 2.0])) < 1e-15
    assert abs(cosine_sim([1.0, 1.0], [2.0, 2.0]) - 1.0) < 1e-15
    assert abs(cosine_sim([1.0, 0.0], [-3.0, 0.0]) + 1.0) < 1e-15
    with pytest.raises(ValueError):
        cosine_sim([0.0, 0.0], [1.0, 0.0])


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
    samples = [ClusterSample(0, [0]), ClusterSample(1, [1])]
    total, breakdown = total_loss(params, feats, samples)
    assert breakdown["recon"] == 0.0
    assert abs(total - 2.0 * math.log(1 + math.exp(-1))) < 1e-12
    assert abs(total - 0.6265233750364457) < 1e-12


def test_total_loss_matches_frozen_oracle():
    params, feats, samples = _oracle_setup()
    total, breakdown = total_loss(params, feats, samples)
    assert abs(breakdown["recon"] - 6.168639269032826) < 1e-10
    assert abs(breakdown["infonce"] - 4.0754936014876595) < 1e-10
    assert abs(total - 10.244132870520485) < 1e-10
    assert "gt" not in breakdown


def test_total_loss_supervised_matches_frozen_oracle():
    params, feats, samples = _oracle_setup()
    total, breakdown = total_loss(params, feats, samples, [0, 3, 5])
    assert abs(breakdown["gt"] - 0.07779558751251404) < 1e-10
    assert abs(total - 10.321928458032998) < 1e-10
    weighted, _ = total_loss(params, feats, samples, [0, 3, 5],
                             lambda_recon=0.5, lambda_nce=2.0, lambda_gt=3.0)
    assert abs(weighted - 11.468693600029274) < 1e-10


def test_total_loss_supervised_gt_term_vanishes_for_singleton_pools():
    # With one frame per cluster the pool equals that frame's encoding, so a
    # gt keyframe equal to the member contributes exactly zero.
    params = init_params(3, (4,), 2, rng=4)
    feats = np.random.default_rng(5).normal(size=(2, 3))
    samples = [ClusterSample(0, [0]), ClusterSample(1, [1])]
    base, _ = total_loss(params, feats, samples)
    sup, breakdown = total_loss(params, feats, samples, [0, 1])
    assert breakdown["gt"] < 1e-24
    assert abs(sup - base) < 1e-12


def test_total_loss_is_linear_in_weights():
    params, feats, samples = _oracle_setup()
    _, bd = total_loss(params, feats, samples)
    doubled, _ = total_loss(params, feats, samples, lambda_nce=2.0)
    assert abs(doubled - (bd["recon"] + 2.0 * bd["infonce"])) < 1e-12
    no_recon, _ = total_loss(params, feats, samples, lambda_recon=0.0)
    assert abs(no_recon - bd["infonce"]) < 1e-12


@pytest.mark.parametrize("gt", [None, [1, 3, 9]])
def test_total_loss_matches_per_cluster_loop_on_unequal_samples(gt):
    # The scalar helpers summed cluster by cluster are the reference for the
    # batched loss.
    params, feats, samples = _unequal_setup()
    lams = {"lambda_recon": 0.7, "lambda_nce": 1.3, "lambda_gt": 2.1}
    batched, _ = total_loss(params, feats, samples, gt, **lams)

    xs = [feats[s.frame_indices] for s in samples]
    pools = [pool(encode(params, x)) for x in xs]
    n_total = sum(len(x) for x in xs)
    recon = sum(len(x) * recon_loss(x, decode(params, encode(params, x))) for x in xs) / n_total
    nce = sum(infonce_pair(pa, pb) for a, pa in enumerate(pools)
              for b, pb in enumerate(pools) if a != b)
    expected = lams["lambda_recon"] * recon + lams["lambda_nce"] * nce
    if gt is not None:
        gt_term = sum(float(((encode(params, feats[f]) - p) ** 2).sum())
                      for f, p in zip(gt, pools)) / len(pools)
        expected += lams["lambda_gt"] * gt_term
    assert abs(batched - expected) <= 1e-12 * abs(expected)


def test_total_loss_needs_two_clusters():
    params = init_params(2, (2,), 1, rng=0)
    with pytest.raises(ValueError):
        total_loss(params, np.ones((2, 2)), [ClusterSample(0, [0, 1])])


# ------------------------------------------------------------------ gradients


def test_grad_matches_finite_differences_self_supervised():
    params, feats, samples = _oracle_setup()
    g = _flatten(grad(params, feats, samples))
    fd = _fd_grad(params, feats, samples, None)
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
    assert np.max(np.abs(g - fd) / denom) < 1e-6


def test_grad_matches_finite_differences_supervised():
    params, feats, samples = _oracle_setup()
    gt = [1, 2, 5]
    g = _flatten(grad(params, feats, samples, gt, lambda_gt=1.7))
    fd = _fd_grad(params, feats, samples, gt, lambda_gt=1.7)
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
    assert np.max(np.abs(g - fd) / denom) < 1e-6


@pytest.mark.parametrize("gt", [None, [1, 3, 9]])
def test_grad_matches_finite_differences_unequal_samples(gt):
    params, feats, samples = _unequal_setup()
    g = _flatten(grad(params, feats, samples, gt))
    fd = _fd_grad(params, feats, samples, gt)
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
    assert np.max(np.abs(g - fd) / denom) < 1e-6


def test_grad_is_linear_in_loss_weights():
    params, feats, samples = _oracle_setup()
    g0 = _flatten(grad(params, feats, samples, lambda_nce=0.0))
    g1 = _flatten(grad(params, feats, samples, lambda_nce=1.0))
    g2 = _flatten(grad(params, feats, samples, lambda_nce=2.0))
    assert np.allclose(g0 + g2, 2.0 * g1, atol=1e-12)


def test_grad_zero_at_perfect_reconstruction_without_nce():
    params = _identity_net(2)
    feats = np.array([[1.0, 0.0], [0.0, 1.0]])
    samples = [ClusterSample(0, [0]), ClusterSample(1, [1])]
    g = _flatten(grad(params, feats, samples, lambda_nce=0.0))
    assert np.abs(g).max() < 1e-15


# ----------------------------------------------------------------------- adam


def test_adam_zero_gradient_is_identity():
    params = init_params(3, (2,), 2, rng=0)
    before = _flatten(params).copy()
    zeros = AutoencoderParams(
        input_dim=3, hidden_dims=(2,), latent_dim=2,
        encoder=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.encoder],
        decoder=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.decoder],
    )
    state = AdamState.for_params(params)
    adam_step(params, zeros, state, learning_rate=0.1)
    assert state.t == 1
    assert np.array_equal(_flatten(params), before)


def test_adam_first_step_moves_by_learning_rate():
    # With bias correction the first update is lr * g / (|g| + eps) = lr * sign(g).
    params = AutoencoderParams(input_dim=1, hidden_dims=(), latent_dim=1,
                               encoder=[(np.array([[1.0]]), np.array([0.5]))],
                               decoder=[(np.array([[1.0]]), np.array([0.0]))])
    grads = AutoencoderParams(input_dim=1, hidden_dims=(), latent_dim=1,
                              encoder=[(np.array([[3.0]]), np.array([-2.0]))],
                              decoder=[(np.array([[0.0]]), np.array([0.0]))])
    state = AdamState.for_params(params)
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
    state = AdamState.for_params(params)
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


# ------------------------------------------------------------------- training


def _toy_scene(n=30, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, dim)).astype(np.float32)
    return SceneDataset("toy", feats)


def test_train_zero_epochs_returns_initial_params():
    ds = _toy_scene()
    part = partition_from_labels(np.arange(30) % 3, 3, np.zeros((3, 4)))
    cfg = TrainConfig(epochs=0, latent_dim=2, hidden_dims=(3,), seed=6)
    params, history = train(ds, part, cfg)
    fresh = init_params(4, (3,), 2, rng=np.random.default_rng(6))
    assert history == []
    assert np.array_equal(_flatten(params), _flatten(fresh))


def test_train_is_deterministic():
    ds = _toy_scene()
    part = partition_from_labels(np.arange(30) % 3, 3, np.zeros((3, 4)))
    cfg = TrainConfig(epochs=3, latent_dim=2, hidden_dims=(3,), sample_size=2, seed=1)
    p1, h1 = train(ds, part, cfg)
    p2, h2 = train(ds, part, cfg)
    assert h1 == h2
    assert np.array_equal(_flatten(p1), _flatten(p2))


def test_train_reduces_loss():
    ds = _toy_scene(n=60, dim=6, seed=2)
    part = partition_from_labels(np.arange(60) % 3, 3, np.zeros((3, 6)))
    cfg = TrainConfig(epochs=40, latent_dim=4, hidden_dims=(8,), sample_size=4, seed=0)
    _, history = train(ds, part, cfg)
    assert history[-1] < history[0]


def test_train_rejects_non_finite_loss():
    ds = _toy_scene(n=60, dim=6, seed=2)
    part = partition_from_labels(np.arange(60) % 3, 3, np.zeros((3, 6)))
    cfg = TrainConfig(epochs=3, learning_rate=1e300, latent_dim=4, hidden_dims=(8,),
                      sample_size=4, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"training loss is .* at epoch \d+, step \d+"):
            train(ds, part, cfg)


def test_train_warns_when_batch_cannot_hold_samples():
    ds = _toy_scene(n=40)
    part = partition_from_labels(np.arange(40) % 5, 5, np.zeros((5, 4)))
    cfg = TrainConfig(epochs=1, latent_dim=2, hidden_dims=(3,), sample_size=8, batch_size=16)
    with pytest.warns(UserWarning, match="reducing"):
        train(ds, part, cfg)


def test_train_validation():
    ds = _toy_scene()
    part = partition_from_labels(np.zeros(30, dtype=int), 1, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        train(ds, part, TrainConfig(epochs=1))
    two = partition_from_labels(np.arange(29) % 2, 2, np.zeros((2, 4)))
    with pytest.raises(ValueError):
        train(ds, two, TrainConfig(epochs=1))
    ok = partition_from_labels(np.arange(30) % 2, 2, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="gt_keyframes"):
        train(ds, ok, TrainConfig(epochs=1, mode="supervised"))


def test_train_config_validation():
    TrainConfig(batch_size=64, learning_rate=0.001, latent_dim=2048, epochs=100)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(mode="semi")
    with pytest.raises(ValueError):
        TrainConfig(lambda_nce=-0.5)
    with pytest.raises(ValueError):
        TrainConfig(sample_size=0)


# ------------------------------------------------------------------ selection


def test_select_keyframes_identity_net_hand_case():
    # Cluster of three frames, two coincident: pool is closest to the repeated
    # value, and the tie between the two copies resolves to the lower index.
    feats = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [8.0, 8.0]])
    ds = SceneDataset("hand", feats)
    part = partition_from_labels([0, 0, 0, 1], 2, np.zeros((2, 2)))
    result = select_keyframes(_identity_net(2), ds, part)
    assert result.frame_indices == [0, 3]
    assert result.k == 2


def test_select_keyframes_matches_brute_force():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(12, 5)).astype(np.float32)
    ds = SceneDataset("brute", feats)
    part = partition_from_labels(np.arange(12) % 3, 3, np.zeros((3, 5)))
    params = init_params(5, (6,), 3, rng=2)
    result = select_keyframes(params, ds, part)
    x = feats.astype(np.float64)
    for j in range(3):
        members = part.members[j]
        h = encode(params, x[members])
        d = ((h - h.mean(axis=0)) ** 2).sum(axis=1)
        assert result.frame_indices[j] == members[np.argmin(d)]


def test_summary_result_validation():
    from scenesum.selector import SummaryResult

    r = SummaryResult(method="x", frame_indices=[4, 2, 7])
    assert r.k == 3
    assert r.as_dict()["frames"] == [4, 2, 7]
    with pytest.raises(ValueError):
        SummaryResult(method="x", frame_indices=[1, 1])
    with pytest.raises(ValueError):
        SummaryResult(method="x", frame_indices=[-1])
    assert SummaryResult(method="x", frame_indices=np.array([3, 1])).frame_indices == [3, 1]
    for bad in ([1.7, 2.2], [True, 3], ["4"]):
        with pytest.raises(ValueError):
            SummaryResult(method="x", frame_indices=bad)


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    params = init_params(5, (4,), 3, rng=9)
    path = tmp_path / "net.bin"
    save_params(params, path)
    back = load_params(path)
    assert back.input_dim == 5
    assert back.hidden_dims == (4,)
    assert back.latent_dim == 3
    # weights survive as float32
    for (w, b), (w2, b2) in zip(params.encoder + params.decoder, back.encoder + back.decoder):
        assert np.array_equal(w.astype(np.float32).astype(np.float64), w2)
        assert np.array_equal(b.astype(np.float32).astype(np.float64), b2)
    # second round trip is bit-stable
    save_params(back, tmp_path / "net2.bin")
    assert (tmp_path / "net.bin").read_bytes() == (tmp_path / "net2.bin").read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    params = init_params(3, (2,), 2, rng=0)
    save_params(params, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="magic"):
        load_params(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "short.bin"
    save_params(init_params(3, (2,), 2, rng=0), path)
    data = path.read_bytes()
    # cut in the weights, in the version/count header, and inside the dims table
    for cut in (data[:-5], b"SSAE\x01\x00", data[:12 + 8 + 3]):
        path.write_bytes(cut)
        with pytest.raises(ValueError, match="truncated"):
            load_params(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "long.bin"
    save_params(init_params(3, (2,), 2, rng=0), path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_params(path)


def test_loaded_checkpoint_encodes_like_the_original(tmp_path):
    params = init_params(4, (3,), 2, rng=1)
    path = tmp_path / "net.bin"
    save_params(params, path)
    back = load_params(path)
    x = np.random.default_rng(0).normal(size=(3, 4))
    f32 = AutoencoderParams(
        input_dim=4, hidden_dims=(3,), latent_dim=2,
        encoder=[(w.astype(np.float32).astype(np.float64), b.astype(np.float32).astype(np.float64))
                 for w, b in params.encoder],
        decoder=[(w.astype(np.float32).astype(np.float64), b.astype(np.float32).astype(np.float64))
                 for w, b in params.decoder],
    )
    assert np.array_equal(encode(back, x), encode(f32, x))
