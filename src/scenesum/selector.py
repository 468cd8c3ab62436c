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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import ClusterPartition, _read_only, sample_cluster
from .dataset import SceneDataset, check_count, check_real, index_array

_COS_EPS = 1e-12  # norm guard of the cosines in training and in the keyframe pick
_TINY = np.finfo(np.float64).tiny
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # plain Adam
_LAMBDA_RECON, _LAMBDA_NCE, _LAMBDA_GT = 1.0, 1.0, 1.0  # loss term weights in training


def _hidden_widths(hidden_dims) -> tuple[int, ...]:
    """hidden_dims as a tuple of ints; ValueError unless a sequence of integers >= 1."""
    if not np.iterable(hidden_dims):
        raise ValueError(f"hidden_dims must be a sequence of integers >= 1, got {hidden_dims!r}")
    widths = tuple(hidden_dims)
    for h in widths:
        check_count("hidden dim", h)
    return tuple(int(h) for h in widths)


@dataclass(eq=False)
class AutoencoderParams:
    """Weights of a mirrored MLP autoencoder, in one flat float64 vector.

    The widths run input_dim -> *hidden_dims -> latent_dim in the encoder and
    back in the decoder, each an integer >= 1.  Hidden layers use tanh; the
    encoder and decoder outputs are linear.  flat holds each layer's weight,
    shape (fan_in, fan_out), then its bias, encoder first; it defaults to zeros,
    and a given flat is copied and must be a finite 1-d float vector of that
    size.  ValueError otherwise.  encoder and decoder list (weight, bias) views
    into flat, so an update of flat is an update of every layer.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    latent_dim: int
    flat: np.ndarray | None = field(default=None, repr=False)
    encoder: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)
    decoder: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        check_count("input_dim", self.input_dim)
        check_count("latent_dim", self.latent_dim)
        self.hidden_dims = _hidden_widths(self.hidden_dims)
        widths = [int(self.input_dim), *self.hidden_dims, int(self.latent_dim)]
        dims = list(zip(widths[:-1], widths[1:]))
        dims += [(dout, din) for din, dout in reversed(dims)]
        size = sum((din + 1) * dout for din, dout in dims)
        if self.flat is None:
            self.flat = np.zeros(size)
        else:
            flat = np.asarray(self.flat)
            if flat.dtype.kind != "f" or flat.shape != (size,) or not np.isfinite(flat).all():
                raise ValueError(f"flat must be a finite 1-d float vector of size {size}, "
                                 f"got {flat.dtype} of shape {flat.shape}")
            self.flat = flat.astype(np.float64)
        views, pos = [], 0
        for din, dout in dims:
            views.append((self.flat[pos:pos + din * dout].reshape(din, dout),
                          self.flat[pos + din * dout:pos + (din + 1) * dout]))
            pos += (din + 1) * dout
        self.encoder, self.decoder = views[:len(dims) // 2], views[len(dims) // 2:]


def init_params(input_dim: int, hidden_dims, latent_dim: int,
                rng: np.random.Generator | int = 0) -> AutoencoderParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)], drawn layer by layer, weight
    then bias, encoder first.  The widths are AutoencoderParams'; an rng that is no
    Generator is a seed, which must be an integer >= 0."""
    params = AutoencoderParams(input_dim, hidden_dims, latent_dim)
    if not isinstance(rng, np.random.Generator):
        check_count("seed", rng, 0)
        rng = np.random.default_rng(rng)
    for w, b in params.encoder + params.decoder:
        bound = 1.0 / math.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return params


def _forward(layers, x: np.ndarray) -> list[np.ndarray]:
    """Run the affine/tanh chain; returns activations, input first, output last."""
    acts = [x]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        z += b
        acts.append(np.tanh(z, out=z) if i < last else z)
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
        dz.sum(axis=0, out=gb)
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
    return _recon_term(x_hat - x)


def _recon_term(resid: np.ndarray) -> float:
    """The reconstruction term of a residual x_hat - x: its squares summed, over
    the row count.  (x - x_hat)^2 has the same bytes."""
    return float((resid * resid).sum()) / resid.shape[0]


def _cosine(pools: np.ndarray):
    """The cosine matrix S = P P^T / (g g^T) of the rows of pools, g = |p| + _COS_EPS, and
    the one backward through S: G = dL/dS to ((G + G^T) / (g g^T)) P - (((G + G^T) * S) 1
    / (g |p|)) P, with |p| floored at tiny so a zero pool (S = 0) gets no 0/0."""
    norms = np.sqrt((pools * pools).sum(axis=1))
    guarded = norms + _COS_EPS
    gg = guarded[:, None] * guarded
    sim = (pools @ pools.T) / gg

    def backward(g_sim: np.ndarray) -> np.ndarray:
        both = g_sim + g_sim.T  # S_ab and S_ba both move with p_a
        return (both / gg) @ pools - (
            (both * sim).sum(axis=1) / (guarded * np.maximum(norms, _TINY)))[:, None] * pools
    return sim, backward


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """x with each row divided by its guarded norm |row| + _COS_EPS; a zero row
    stays 0.  ValueError when a row or its squared norm is not finite."""
    sq_norms = (x * x).sum(axis=1)
    if not np.isfinite(sq_norms).all():
        raise ValueError("training diverged: a latent or its squared norm is not finite")
    return x / (np.sqrt(sq_norms) + _COS_EPS)[:, None]


@functools.lru_cache(maxsize=16)
def _off_diagonal(k: int) -> np.ndarray:
    """The read-only (k, k) mask of the ordered pairs a != b."""
    return _read_only(~np.eye(k, dtype=bool))


@functools.lru_cache(maxsize=16)
def _pooling(k: int, n_sample: int) -> np.ndarray:
    """The read-only k x kN averaging matrix: row q holds 1/N over cluster q's rows."""
    return _read_only(np.repeat(np.eye(k) / n_sample, n_sample, axis=1))


def _pair_loss(sim: np.ndarray):
    """Contrastive loss over the ordered pairs a != b of a cosine matrix, and dL/dsim.
    Per pair it is -log(e^sim(a,a) / (e^sim(a,a) + e^sim(a,b))); the positive
    logit is 1, so it reduces to log(1 + e^(sim(a,b) - 1))."""
    e = np.exp(sim - 1.0)
    off_diag = _off_diagonal(sim.shape[0])
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


def total_loss(params: AutoencoderParams, features, table, gt_keyframes=None, *,
               lambda_recon: float = _LAMBDA_RECON, lambda_nce: float = _LAMBDA_NCE,
               lambda_gt: float = _LAMBDA_GT, grads: AutoencoderParams | None = None):
    """Weighted training loss over one step's sample of k clusters, and
    optionally its gradient.

    Row q of the (k, N) table holds the N frames drawn from cluster q, as
    one step of sample_cluster draws them.
    Returns (total, breakdown) where breakdown holds the unweighted terms under
    keys 'recon', 'infonce', and (supervised only) 'gt'.  All sampled rows
    (then, in supervised mode, the k gt rows) go through the encoder as one
    stack, the sampled latents through the decoder as another.  Given grads, an
    AutoencoderParams shaped like params, the gradient overwrites every entry
    of grads.flat.  ValueError unless the table is (k, N) with k >= 2 and
    N >= 1 and holds integer frames of features, and, in supervised mode,
    gt_keyframes holds k of them; a bool is no frame, also not in a list.
    """
    features = np.asarray(features, dtype=np.float64)
    n_frames = features.shape[0]
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValueError(f"the sample table must be (k, N) with N >= 1, got shape {arr.shape}")
    k = arr.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 clusters for the contrastive term, got {k}")
    if not isinstance(table, np.ndarray):  # np.asarray made integers of any bools
        for row in table:
            index_array("frame indices", row, n_frames)
    rows = index_array("frame indices", arr.ravel(), n_frames)
    if gt_keyframes is not None:
        gt_keyframes = index_array("gt_keyframes", gt_keyframes, n_frames)
        if gt_keyframes.shape != (k,):
            raise ValueError(f"gt_keyframes must have shape ({k},), got {gt_keyframes.shape}")
    return _loss(params, features, rows.reshape(arr.shape), gt_keyframes,
                 lambda_recon, lambda_nce, lambda_gt, grads)


def _loss(params, features, table, gt_keyframes, lambda_recon, lambda_nce, lambda_gt, grads):
    """total_loss without its checks: features a float64 matrix, table a (k, N)
    int64 array of its frames, gt_keyframes None or a (k,) int64 array of them."""
    k, n_sample = table.shape
    rows = table.ravel()
    n_total = rows.size
    supervised = gt_keyframes is not None
    if supervised:
        rows = np.concatenate([rows, gt_keyframes])
    enc_acts = _forward(params.encoder, features[rows])
    h, x = enc_acts[-1][:n_total], enc_acts[0][:n_total]
    dec_acts = _forward(params.decoder, h)
    # the residual serves the recon term and its gradient; _backward never
    # reads the decoder output, so the residual takes its place
    resid = np.subtract(dec_acts[-1], x, out=dec_acts[-1])
    recon = _recon_term(resid)

    avg = _pooling(k, n_sample)
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
    resid *= lambda_recon * (2.0 / n_total)
    dz = _backward(params.decoder, dec_acts, resid, grads.decoder)
    dh = dz @ params.decoder[0][0].T
    if supervised:
        d_gt = lambda_gt * (2.0 / k) * gt_diff
        d_pools -= d_gt
        dh = np.concatenate([dh + avg.T @ d_pools, d_gt])
    else:
        dh += avg.T @ d_pools
    _backward(params.encoder, enc_acts, dh, grads.encoder)
    return total, breakdown


def grad(params: AutoencoderParams, features, table, gt_keyframes=None, *,
         lambda_recon: float = _LAMBDA_RECON, lambda_nce: float = _LAMBDA_NCE,
         lambda_gt: float = _LAMBDA_GT) -> AutoencoderParams:
    """Analytic gradient of total_loss, as a new AutoencoderParams shaped like params."""
    g = AutoencoderParams(params.input_dim, params.hidden_dims, params.latent_dim)
    total_loss(params, features, table, gt_keyframes, lambda_recon=lambda_recon,
               lambda_nce=lambda_nce, lambda_gt=lambda_gt, grads=g)
    return g


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults are desk-scale except where noted."""

    batch_size: int = 64  # a step draws max(1, batch_size // k) frames of each of k clusters
    learning_rate: float = 1e-3
    epochs: int = 100
    latent_dim: int = 64  # reference runs use 2048; validated but not required here
    hidden_dims: tuple[int, ...] = (128,)
    seed: int = 0

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("latent_dim", 1), ("epochs", 0), ("seed", 0)):
            check_count(name, getattr(self, name), low)
        self.hidden_dims = _hidden_widths(self.hidden_dims)
        check_real("learning_rate", self.learning_rate)


class AdamState:
    """Adam's state for params at step t = 0: zero first/second moments over
    params.flat and two scratch buffers of its size for adam_step's update."""

    def __init__(self, params: AutoencoderParams):
        self.m, self.v = np.zeros_like(params.flat), np.zeros_like(params.flat)
        self.t = 0
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))


def adam_step(params: AutoencoderParams, grads: AutoencoderParams, state: AdamState, *,
              learning_rate: float) -> None:
    """One bias-corrected Adam update, in place.  A zero gradient is a no-op.

    The arithmetic is m += (1-b1)*g; v += (1-b2)*g*g;
    theta -= lr * (m/bc1) / (sqrt(v/bc2) + eps), one operation at a time in
    that order, in the state's scratch buffers; another order changes the
    rounding.  Once bc1 rounds to 1.0, m/bc1 is m and is not computed.
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
    if bc1 == 1.0:  # from t = 356 on
        np.multiply(m, learning_rate, out=step)
    else:
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
    empty = np.flatnonzero(partition.sizes == 0)
    if empty.size:
        raise ValueError(f"cluster {empty[0]} is empty")


def train(ds: SceneDataset, partition: ClusterPartition, cfg: TrainConfig):
    """Fit the autoencoder on cluster samples; returns (params, per-epoch mean loss).

    Each epoch makes one sample_cluster call, which draws the epoch's
    ceil(n_frames / (k * N)) steps of N = max(1, cfg.batch_size // k) frames of
    every cluster; each step is one Adam update on its loss.  A partition with
    gt_keyframes trains supervised, adding total_loss's gt term.  Fully
    deterministic given cfg.seed.
    """
    _check_partition(ds, partition)
    k = partition.k
    if k < 2:
        raise ValueError(f"training needs at least 2 clusters, got k={k}")

    n_sample = max(1, cfg.batch_size // k)
    rng = np.random.default_rng(cfg.seed)
    params = init_params(ds.dim, cfg.hidden_dims, cfg.latent_dim, rng)
    features = np.asarray(ds.features, dtype=np.float64)
    state = AdamState(params)
    grads = AutoencoderParams(ds.dim, cfg.hidden_dims, cfg.latent_dim)  # overwritten by every step
    lambdas = _LAMBDA_RECON, _LAMBDA_NCE, _LAMBDA_GT

    history = []
    for epoch in range(cfg.epochs):
        step_losses = []
        # the partition and the draw are checked once, so each step runs the
        # loss without total_loss's checks
        for step, table in enumerate(sample_cluster(partition, n_sample, rng).table):
            total, _ = _loss(params, features, table, partition.gt_keyframes, *lambdas, grads)
            if not math.isfinite(total):
                raise ValueError(f"training loss is {total} at epoch {epoch}, step {step}")
            adam_step(params, grads, state, learning_rate=cfg.learning_rate)
            step_losses.append(total)
        history.append(float(np.mean(step_losses)))
    return params, history


@np.errstate(over="ignore", invalid="ignore")  # _unit_rows refuses a latent that overflows
def select_keyframes(params: AutoencoderParams, ds: SceneDataset,
                     partition: ClusterPartition) -> list[int]:
    """Per cluster, the frame whose encoding is nearest by cosine to the
    cluster's mean direction.

    Each encoding h is scaled to u = h / (|h| + _COS_EPS); the mean of u over
    the full cluster membership, scaled to unit length with the same guard, is
    the mean direction.  The contrastive term sees only cosines and leaves
    latent norms free, so the pick ignores them too.  A zero encoding or a
    zero mean direction gives cosine 0.  Ties go to the lowest frame index.
    Frames are listed in cluster-id order.  ValueError, not a RuntimeWarning,
    when training diverged so far that an encoding or its squared norm overflows.
    """
    _check_partition(ds, partition)
    u = _unit_rows(encode(params, ds.features))
    mean_dirs = _unit_rows(np.stack([u[m].mean(axis=0) for m in partition.members]))
    return partition.nearest_members(-(u * mean_dirs[partition.labels]).sum(axis=1)).tolist()
