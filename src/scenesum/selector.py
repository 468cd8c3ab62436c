"""Stage two: train an MLP autoencoder with a contrastive pair loss, then pick
one keyframe per cluster, the member nearest by cosine to the cluster's mean
latent direction.

The encoder maps frame features to a latent space; each cluster's sampled
latents are pooled into a single vector.  Training minimizes reconstruction
error plus a pairwise InfoNCE term that pushes pooled vectors of different
clusters apart (optionally plus a pull toward ground-truth keyframe encodings).
Gradients are computed by hand in float64 and checked against finite
differences in the tests.  infonce_pair and training share one cosine forward
and backward over the pools, and one pair loss that returns its value and dL/dS.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterPartition, ClusterSample, _index_array, sample_cluster
from .dataset import SceneDataset, check_count

_COS_EPS = 1e-12  # norm guard of the cosines in training and in the keyframe pick
_TINY = np.finfo(np.float64).tiny
_MODES = ("self_supervised", "supervised")
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # plain Adam
_LAMBDA_RECON, _LAMBDA_NCE, _LAMBDA_GT = 1.0, 1.0, 1.0  # loss term weights in training


@dataclass
class AutoencoderParams:
    """Weights of a mirrored MLP autoencoder.

    Each layer is a (weight, bias) pair with weight shape (fan_in, fan_out).
    Hidden layers use tanh; the encoder output and decoder output are linear.
    The arrays are copied into one float64 buffer, `flat`, encoder layers
    first; the (weight, bias) pairs are views into it, so an update of `flat`
    is an update of every layer.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    latent_dim: int
    encoder: list[tuple[np.ndarray, np.ndarray]]
    decoder: list[tuple[np.ndarray, np.ndarray]]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        enc_dims = _dim_chain(self.input_dim, self.hidden_dims, self.latent_dim)
        dec_dims = _dim_chain(self.latent_dim, self.hidden_dims[::-1], self.input_dim)
        for name, layers, dims in (("encoder", self.encoder, enc_dims),
                                   ("decoder", self.decoder, dec_dims)):
            if len(layers) != len(dims):
                raise ValueError(f"{name} must have {len(dims)} layers, got {len(layers)}")
            for i, ((w, b), (din, dout)) in enumerate(zip(layers, dims)):
                if w.shape != (din, dout) or b.shape != (dout,):
                    raise ValueError(f"{name} layer {i} has shape {w.shape}/{b.shape}, "
                                     f"expected {(din, dout)}/{(dout,)}")
                if not (np.isfinite(w).all() and np.isfinite(b).all()):
                    raise ValueError(f"{name} layer {i} contains NaN or Inf")
        self.flat = np.concatenate([a.ravel() for w, b in [*self.encoder, *self.decoder]
                                    for a in (w, b)], dtype=np.float64)
        views, pos = [], 0
        for din, dout in enc_dims + dec_dims:
            w = self.flat[pos:pos + din * dout].reshape(din, dout)
            pos += din * dout
            views.append((w, self.flat[pos:pos + dout]))
            pos += dout
        self.encoder, self.decoder = views[:len(enc_dims)], views[len(enc_dims):]


def _dim_chain(first: int, middles: tuple[int, ...], last: int) -> list[tuple[int, int]]:
    dims = [first, *middles, last]
    return list(zip(dims[:-1], dims[1:]))


def init_params(input_dim: int, hidden_dims, latent_dim: int,
                rng: np.random.Generator | int = 0) -> AutoencoderParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] for weights and biases."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    hidden_dims = tuple(hidden_dims)

    def make(dims):
        layers = []
        for din, dout in dims:
            bound = 1.0 / math.sqrt(din)
            layers.append((rng.uniform(-bound, bound, size=(din, dout)),
                           rng.uniform(-bound, bound, size=dout)))
        return layers

    return AutoencoderParams(
        input_dim=input_dim, hidden_dims=hidden_dims, latent_dim=latent_dim,
        encoder=make(_dim_chain(input_dim, hidden_dims, latent_dim)),
        decoder=make(_dim_chain(latent_dim, hidden_dims[::-1], input_dim)),
    )


def _forward(layers, x: np.ndarray) -> list[np.ndarray]:
    """Run the affine/tanh chain; returns activations, input first, output last."""
    acts = [x]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w + b
        acts.append(np.tanh(z) if i < last else z)
    return acts


def _backward(layers, acts, d_out: np.ndarray, grads) -> np.ndarray:
    """Backprop d_out through the chain, writing each layer's (weight, bias)
    gradient into the matching pair of views in grads.

    Returns dz, the gradient at the first layer's affine output; the input
    gradient is dz @ layers[0][0].T, left to callers that need it.
    """
    last = len(layers) - 1
    dz = d_out
    for i in range(last, -1, -1):
        if i < last:
            dz = (dz @ layers[i + 1][0].T) * (1.0 - acts[i + 1] ** 2)
        gw, gb = grads[i]
        np.matmul(acts[i].T, dz, out=gw)
        np.sum(dz, axis=0, out=gb)
    return dz


def encode(params: AutoencoderParams, x) -> np.ndarray:
    """Latent features for a vector or a batch of row vectors."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"encode expects dimension {params.input_dim}, got shape {x.shape}")
    h = _forward(params.encoder, x)[-1]
    return h[0] if single else h


def recon_loss(x, x_hat) -> float:
    """Squared L2 reconstruction error summed over rows, over the row count."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_hat = np.atleast_2d(np.asarray(x_hat, dtype=np.float64))
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    if x.shape[0] == 0:
        raise ValueError("reconstruction loss needs at least one row")
    return float(((x - x_hat) ** 2).sum()) / x.shape[0]


def _cosine(pools: np.ndarray):
    """The cosine matrix S = P P^T / (g g^T) of the rows of pools, g = |p| + _COS_EPS, and
    the one backward through S: G = dL/dS to ((G + G^T) / (g g^T)) P - (((G + G^T) * S) 1
    / (g |p|)) P, with |p| floored at tiny so a zero pool (S = 0) gets no 0/0."""
    norms = np.sqrt((pools * pools).sum(axis=1))
    guarded = norms + _COS_EPS
    gg = np.outer(guarded, guarded)
    sim = (pools @ pools.T) / gg

    def backward(g_sim: np.ndarray) -> np.ndarray:
        both = g_sim + g_sim.T  # S_ab and S_ba both move with p_a
        return (both / gg) @ pools - (
            (both * sim).sum(axis=1) / (guarded * np.maximum(norms, _TINY)))[:, None] * pools
    return sim, backward


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """x with each row divided by its guarded norm |row| + _COS_EPS; a zero row stays 0."""
    return x / (np.sqrt((x * x).sum(axis=1)) + _COS_EPS)[:, None]


def _pair_loss(sim: np.ndarray):
    """Contrastive loss over the ordered pairs a != b of a cosine matrix, and dL/dsim.
    Per pair it is -log(e^sim(a,a) / (e^sim(a,a) + e^sim(a,b))); the positive
    logit is 1, so it reduces to log(1 + e^(sim(a,b) - 1))."""
    e = np.exp(sim - 1.0)
    off_diag = ~np.eye(sim.shape[0], dtype=bool)
    return float(np.log1p(e[off_diag]).sum()), np.where(off_diag, e / (1.0 + e), 0.0)


def infonce_pair(p_a, p_b) -> float:
    """Contrastive loss of one pair of pooled vectors, as training computes it."""
    pools = np.stack([np.asarray(p, dtype=np.float64).ravel() for p in (p_a, p_b)])
    if not np.isfinite(pools).all():
        raise ValueError("the contrastive loss is undefined for vectors holding NaN or Inf")
    if not (pools != 0.0).any(axis=1).all():
        raise ValueError("the contrastive loss is undefined for zero vectors")
    # training sums both orders of a pair, which carry the same loss
    return _pair_loss(_cosine(pools)[0])[0] / 2.0


def total_loss(params: AutoencoderParams, features, sample: ClusterSample, gt_keyframes=None, *,
               lambda_recon: float = _LAMBDA_RECON, lambda_nce: float = _LAMBDA_NCE,
               lambda_gt: float = _LAMBDA_GT, grads: AutoencoderParams | None = None):
    """Weighted training loss over one step's sample of k clusters, and
    optionally its gradient.

    sample holds every cluster's rows in one array, sample.sizes[q] of them
    for cluster q, as sample_cluster draws them.
    Returns (total, breakdown) where breakdown holds the unweighted terms under
    keys 'recon', 'infonce', and (supervised only) 'gt'.  All sampled rows
    (then, in supervised mode, the k gt rows) go through the encoder as one
    stack, the sampled latents through the decoder as another.  Given grads, an
    AutoencoderParams shaped like params, the gradient overwrites every entry
    of grads.flat.  A sampled frame outside features, or in supervised mode a
    cluster id outside gt_keyframes, raises ValueError.
    """
    features = np.asarray(features, dtype=np.float64)
    sizes = sample.sizes
    k = sizes.size
    if k < 2:
        raise ValueError(f"need at least 2 clusters for the contrastive term, got {k}")
    rows = sample.frame_indices
    n_total = rows.size
    supervised = gt_keyframes is not None
    if supervised:
        ids = _index_array("cluster ids", sample.cluster_ids, len(gt_keyframes))
        rows = np.concatenate([rows, np.asarray(gt_keyframes)[ids]])
    rows = _index_array("frame indices", rows, features.shape[0])
    enc_acts = _forward(params.encoder, features[rows])
    h, x = enc_acts[-1][:n_total], enc_acts[0][:n_total]
    dec_acts = _forward(params.decoder, h)
    recon = recon_loss(x, dec_acts[-1])

    # avg is the k x n averaging matrix: row q holds 1/size_q over cluster q's rows.
    avg = np.zeros((k, n_total))
    avg[np.repeat(np.arange(k), sizes), np.arange(n_total)] = np.repeat(1.0 / sizes, sizes)
    pools = avg @ h

    sim, sim_backward = _cosine(pools)
    nce, d_sim = _pair_loss(sim)

    breakdown = {"recon": recon, "infonce": nce}
    total = lambda_recon * recon + lambda_nce * nce
    if supervised:
        gt_diff = enc_acts[-1][n_total:] - pools
        gt_term = float((gt_diff * gt_diff).sum()) / k
        breakdown["gt"] = gt_term
        total += lambda_gt * gt_term

    if grads is None:
        return total, breakdown

    d_pools = sim_backward(lambda_nce * d_sim)
    dxp = lambda_recon * (2.0 / n_total) * (dec_acts[-1] - x)
    dz = _backward(params.decoder, dec_acts, dxp, grads.decoder)
    dh = dz @ params.decoder[0][0].T
    if supervised:
        d_gt = lambda_gt * (2.0 / k) * gt_diff
        d_pools -= d_gt
        dh = np.concatenate([dh + avg.T @ d_pools, d_gt])
    else:
        dh += avg.T @ d_pools
    _backward(params.encoder, enc_acts, dh, grads.encoder)
    return total, breakdown


def _zeros_like(params: AutoencoderParams) -> AutoencoderParams:
    """A zero AutoencoderParams of params' shapes, with a buffer of its own."""
    return AutoencoderParams(
        input_dim=params.input_dim, hidden_dims=params.hidden_dims, latent_dim=params.latent_dim,
        encoder=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.encoder],
        decoder=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.decoder])


def grad(params: AutoencoderParams, features, sample: ClusterSample, gt_keyframes=None, *,
         lambda_recon: float = _LAMBDA_RECON, lambda_nce: float = _LAMBDA_NCE,
         lambda_gt: float = _LAMBDA_GT) -> AutoencoderParams:
    """Analytic gradient of total_loss, as a new AutoencoderParams shaped like params."""
    g = _zeros_like(params)
    total_loss(params, features, sample, gt_keyframes, lambda_recon=lambda_recon,
               lambda_nce=lambda_nce, lambda_gt=lambda_gt, grads=g)
    return g


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults are desk-scale except where noted."""

    batch_size: int = 64
    learning_rate: float = 1e-3
    epochs: int = 100
    latent_dim: int = 64  # reference runs use 2048; validated but not required here
    hidden_dims: tuple[int, ...] = (128,)
    sample_size: int = 8
    mode: str = "self_supervised"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("latent_dim", 1), ("sample_size", 1),
                          ("epochs", 0), ("seed", 0)):
            check_count(name, getattr(self, name), low)
        for h in self.hidden_dims:
            check_count("hidden dim", h)
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")


@dataclass
class AdamState:
    """First/second moment accumulators over the flat parameter buffer, and two
    scratch buffers of the same size that adam_step computes the update in."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_params(cls, params: AutoencoderParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: AutoencoderParams, grads: AutoencoderParams, state: AdamState, *,
              learning_rate: float) -> None:
    """One bias-corrected Adam update, in place.  A zero gradient is a no-op.

    The arithmetic is m += (1-b1)*g; v += (1-b2)*g*g;
    theta -= lr * (m/bc1) / (sqrt(v/bc2) + eps), one operation at a time in
    that order, in the state's scratch buffers; another order changes the
    rounding.
    """
    state.t += 1
    bc1 = 1.0 - _BETA1 ** state.t
    bc2 = 1.0 - _BETA2 ** state.t
    g, m, v = grads.flat, state.m, state.v
    step, denom = state.scratch
    m *= _BETA1
    np.multiply(1.0 - _BETA1, g, out=step)
    m += step
    v *= _BETA2
    np.multiply(1.0 - _BETA2, g, out=step)
    step *= g
    v += step
    np.divide(m, bc1, out=step)
    step *= learning_rate
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += _ADAM_EPS
    step /= denom
    params.flat -= step


def _check_partition(ds: SceneDataset, partition: ClusterPartition) -> None:
    """ValueError unless partition covers ds's frames and no cluster is empty."""
    if partition.n_frames != ds.n_frames:
        raise ValueError(f"partition covers {partition.n_frames} frames, dataset has {ds.n_frames}")
    for j, members in enumerate(partition.members):
        if members.size == 0:
            raise ValueError(f"cluster {j} is empty")


def train(ds: SceneDataset, partition: ClusterPartition, cfg: TrainConfig):
    """Fit the autoencoder on cluster samples; returns (params, per-epoch mean loss).

    Each epoch runs ceil(n_frames / (k * N)) steps; each step makes one
    sample_cluster call, which draws N frames of every cluster as one
    ClusterSample.  N is reduced with a warning if k * N would exceed
    cfg.batch_size.  Fully deterministic given cfg.seed.
    """
    _check_partition(ds, partition)
    k = partition.k
    if k < 2:
        raise ValueError(f"training needs at least 2 clusters, got k={k}")
    supervised = cfg.mode == "supervised"
    gt = partition.gt_keyframes if supervised else None
    if supervised and gt is None:
        raise ValueError("supervised training requires a partition with gt_keyframes")

    n_sample = cfg.sample_size
    if k * n_sample > cfg.batch_size:
        n_sample = max(1, cfg.batch_size // k)
        warnings.warn(f"reducing per-cluster sample size {cfg.sample_size} -> {n_sample} "
                      f"so k*N stays within batch_size={cfg.batch_size}")

    rng = np.random.default_rng(cfg.seed)
    params = init_params(ds.dim, cfg.hidden_dims, cfg.latent_dim, rng)
    features = np.asarray(ds.features, dtype=np.float64)
    state = AdamState.for_params(params)
    grads = _zeros_like(params)  # overwritten by every step
    steps = max(1, math.ceil(ds.n_frames / (k * n_sample)))

    history = []
    for epoch in range(cfg.epochs):
        step_losses = []
        for step in range(steps):
            sample = sample_cluster(partition, n_sample, rng)
            total, _ = total_loss(params, features, sample, gt, grads=grads)
            if not math.isfinite(total):
                raise ValueError(f"training loss is {total} at epoch {epoch}, step {step}")
            adam_step(params, grads, state, learning_rate=cfg.learning_rate)
            step_losses.append(total)
        history.append(float(np.mean(step_losses)))
    return params, history


@dataclass
class SummaryResult:
    """Selected keyframes with the method tag and the config that produced them."""

    method: str
    frame_indices: list[int]
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        # bool is an int subclass and int() would truncate floats: take integers only.
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer))
               for i in self.frame_indices):
            raise ValueError("frame indices must be integers")
        self.frame_indices = [int(i) for i in self.frame_indices]
        if any(i < 0 for i in self.frame_indices):
            raise ValueError("frame indices must be non-negative")
        if len(set(self.frame_indices)) != len(self.frame_indices):
            raise ValueError("frame indices must be distinct")

    @property
    def k(self) -> int:
        return len(self.frame_indices)

    def as_dict(self) -> dict:
        return {"method": self.method, "k": self.k, "frames": list(self.frame_indices),
                "config": dict(self.config)}


def select_keyframes(params: AutoencoderParams, ds: SceneDataset, partition: ClusterPartition,
                     method: str = "scenesum") -> SummaryResult:
    """Per cluster, the frame whose encoding is nearest by cosine to the
    cluster's mean direction.

    Each encoding h is scaled to u = h / (|h| + _COS_EPS); the mean of u over
    the full cluster membership, scaled to unit length with the same guard, is
    the mean direction.  The contrastive term sees only cosines and leaves
    latent norms free, so the pick ignores them too.  A zero encoding or a
    zero mean direction gives cosine 0.  Ties go to the lowest frame index.
    Frames are listed in cluster-id order.
    """
    _check_partition(ds, partition)
    u = _unit_rows(encode(params, np.asarray(ds.features, dtype=np.float64)))
    mean_dirs = _unit_rows(np.stack([u[m].mean(axis=0) for m in partition.members]))
    frames = partition.nearest_members(-(u * mean_dirs[partition.labels]).sum(axis=1))
    return SummaryResult(method=method, frame_indices=frames.tolist())
