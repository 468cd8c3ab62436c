"""Stage two: train an MLP autoencoder with a contrastive pair loss, then pick
one keyframe per cluster.

The encoder maps frame features to a latent space; each cluster's sampled
latents are pooled into a single vector.  Training minimizes reconstruction
error plus a pairwise InfoNCE term that pushes pooled vectors of different
clusters apart (optionally plus a pull toward ground-truth keyframe encodings).
Gradients are computed by hand in float64 and checked against finite
differences in the test suite.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .clustering import ClusterPartition, sample_cluster
from .dataset import SceneDataset

_COS_EPS = 1e-12  # norm guard on the training path
_TINY = np.finfo(np.float64).tiny
_MAGIC = b"SSAE"
_CHECKPOINT_VERSION = 1
_MODES = ("self_supervised", "supervised")
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # plain Adam


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


def _backward(layers, acts, d_out: np.ndarray):
    """Backprop d_out through the chain.

    Returns per-layer grads and dz, the gradient at the first layer's affine
    output; the input gradient is dz @ layers[0][0].T, left to callers that need it.
    """
    grads = [None] * len(layers)
    last = len(layers) - 1
    dz = d_out
    for i in range(last, -1, -1):
        if i < last:
            dz = (dz @ layers[i + 1][0].T) * (1.0 - acts[i + 1] ** 2)
        grads[i] = (acts[i].T @ dz, dz.sum(axis=0))
    return grads, dz


def _check_batch(x, want_dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.ndim != 2 or x.shape[1] != want_dim:
        raise ValueError(f"{what} expects vectors of dimension {want_dim}, got shape {x.shape}")
    return x, single


def encode(params: AutoencoderParams, x) -> np.ndarray:
    """Latent features for a vector or a batch of row vectors."""
    x, single = _check_batch(x, params.input_dim, "encode")
    h = _forward(params.encoder, x)[-1]
    return h[0] if single else h


def decode(params: AutoencoderParams, h) -> np.ndarray:
    """Reconstruction for a latent vector or a batch of row vectors."""
    h, single = _check_batch(h, params.latent_dim, "decode")
    x = _forward(params.decoder, h)[-1]
    return x[0] if single else x


def pool(h) -> np.ndarray:
    """Arithmetic mean over the rows of h."""
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    if h.shape[0] == 0 or h.size == 0:
        raise ValueError("cannot pool an empty set of vectors")
    return h.mean(axis=0)


def recon_loss(x, x_hat) -> float:
    """Mean over samples of the squared L2 reconstruction error."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_hat = np.atleast_2d(np.asarray(x_hat, dtype=np.float64))
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    return float(((x - x_hat) ** 2).sum(axis=1).mean())


def cosine_sim(a, b) -> float:
    """Cosine similarity of two vectors; rejects zero vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = math.sqrt(float(a @ a))
    nb = math.sqrt(float(b @ b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for zero vectors")
    return float(a @ b) / (na * nb)


def infonce_pair(p_a, p_b) -> float:
    """Contrastive pair loss -log(e^sim(a,a) / (e^sim(a,a) + e^sim(a,b))).

    With cosine similarity the positive logit is 1, so the loss reduces to
    log(1 + e^(sim(a,b) - 1)).
    """
    s = cosine_sim(p_a, p_b)
    return float(np.log1p(np.exp(s - 1.0)))


def _evaluate(params, features, samples, gt_keyframes, lam_recon, lam_nce, lam_gt, want_grad):
    """Loss over one batch of cluster samples, and optionally its gradient.

    All sampled rows (then, in supervised mode, the k gt rows) go through the
    encoder as one stack, the sampled latents through the decoder as another.
    Returns (total, breakdown, grads) with grads a pair of per-layer
    (weight, bias) gradient lists for the encoder and decoder, or None.
    """
    k = len(samples)
    if k < 2:
        raise ValueError(f"need at least 2 clusters for the contrastive term, got {k}")
    sizes = np.array([s.frame_indices.size for s in samples])
    if not sizes.all():
        raise ValueError("every cluster sample needs at least one frame")
    rows = np.concatenate([s.frame_indices for s in samples])
    n_total = rows.size
    supervised = gt_keyframes is not None
    if supervised:
        gt_idx = np.asarray([gt_keyframes[s.cluster_id] for s in samples], dtype=np.int64)
        rows = np.concatenate([rows, gt_idx])
    enc_acts = _forward(params.encoder, features[rows])
    h = enc_acts[-1][:n_total]
    x = enc_acts[0][:n_total]
    dec_acts = _forward(params.decoder, h)
    recon = float(((x - dec_acts[-1]) ** 2).sum()) / n_total

    # avg is the k x n averaging matrix: row q holds 1/size_q over cluster q's rows.
    avg = np.zeros((k, n_total))
    avg[np.repeat(np.arange(k), sizes), np.arange(n_total)] = np.repeat(1.0 / sizes, sizes)
    pools = avg @ h

    # Pairwise contrastive term over ordered cluster pairs, with guarded norms.
    norms = np.sqrt((pools * pools).sum(axis=1))
    guarded = norms + _COS_EPS
    gg = np.outer(guarded, guarded)
    sim = (pools @ pools.T) / gg
    e = np.exp(sim - 1.0)
    off_diag = ~np.eye(k, dtype=bool)
    nce = float(np.log1p(e[off_diag]).sum())

    breakdown = {"recon": recon, "infonce": nce}
    total = lam_recon * recon + lam_nce * nce
    if supervised:
        gt_diff = enc_acts[-1][n_total:] - pools
        gt_term = float((gt_diff * gt_diff).sum()) / k
        breakdown["gt"] = gt_term
        total += lam_gt * gt_term

    if not want_grad:
        return total, breakdown, None

    # Both orders of a pair carry the same weight, hence the factor 2.
    wts = np.where(off_diag, lam_nce * e / (1.0 + e), 0.0)
    d_pools = 2.0 * ((wts / gg) @ pools
                     - ((wts * sim).sum(axis=1) / (guarded * np.maximum(norms, _TINY)))[:, None]
                     * pools)
    dxp = lam_recon * (2.0 / n_total) * (dec_acts[-1] - x)
    dec_grads, dz = _backward(params.decoder, dec_acts, dxp)
    dh = dz @ params.decoder[0][0].T
    if supervised:
        d_gt = lam_gt * (2.0 / k) * gt_diff
        d_pools -= d_gt
        dh = np.concatenate([dh + avg.T @ d_pools, d_gt])
    else:
        dh += avg.T @ d_pools
    enc_grads, _ = _backward(params.encoder, enc_acts, dh)
    return total, breakdown, (enc_grads, dec_grads)


def _as_params(params: AutoencoderParams, layer_grads) -> AutoencoderParams:
    enc_grads, dec_grads = layer_grads
    return AutoencoderParams(input_dim=params.input_dim, hidden_dims=params.hidden_dims,
                             latent_dim=params.latent_dim, encoder=enc_grads, decoder=dec_grads)


def total_loss(params: AutoencoderParams, features, samples, gt_keyframes=None, *,
               lambda_recon: float = 1.0, lambda_nce: float = 1.0, lambda_gt: float = 1.0):
    """Weighted training loss over one batch of cluster samples.

    Returns (total, breakdown) where breakdown holds the unweighted terms under
    keys 'recon', 'infonce', and (supervised only) 'gt'.
    """
    features = np.asarray(features, dtype=np.float64)
    total, breakdown, _ = _evaluate(params, features, samples, gt_keyframes,
                                    lambda_recon, lambda_nce, lambda_gt, False)
    return total, breakdown


def grad(params: AutoencoderParams, features, samples, gt_keyframes=None, *,
         lambda_recon: float = 1.0, lambda_nce: float = 1.0,
         lambda_gt: float = 1.0) -> AutoencoderParams:
    """Analytic gradient of total_loss, shaped exactly like params."""
    features = np.asarray(features, dtype=np.float64)
    _, _, g = _evaluate(params, features, samples, gt_keyframes,
                        lambda_recon, lambda_nce, lambda_gt, True)
    return _as_params(params, g)


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
    lambda_recon: float = 1.0
    lambda_nce: float = 1.0
    lambda_gt: float = 1.0
    seed: int = 0

    def __post_init__(self):
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in ("lambda_recon", "lambda_nce", "lambda_gt"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass
class AdamState:
    """First/second moment accumulators over the flat parameter buffer."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: AutoencoderParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(params: AutoencoderParams, grads: AutoencoderParams, state: AdamState, *,
              learning_rate: float) -> None:
    """One bias-corrected Adam update, in place.  A zero gradient is a no-op."""
    state.t += 1
    bc1 = 1.0 - _BETA1 ** state.t
    bc2 = 1.0 - _BETA2 ** state.t
    g, m, v = grads.flat, state.m, state.v
    m *= _BETA1
    m += (1.0 - _BETA1) * g
    v *= _BETA2
    v += (1.0 - _BETA2) * g * g
    params.flat -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)


def train(ds: SceneDataset, partition: ClusterPartition, cfg: TrainConfig):
    """Fit the autoencoder on cluster samples; returns (params, per-epoch mean loss).

    Each epoch runs ceil(n_frames / (k * N)) steps; each step draws one
    ClusterSample of N frames per cluster.  N is reduced with a warning if
    k * N would exceed cfg.batch_size.  Fully deterministic given cfg.seed.
    """
    if partition.n_frames != ds.n_frames:
        raise ValueError(f"partition covers {partition.n_frames} frames, dataset has {ds.n_frames}")
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
    steps = max(1, math.ceil(ds.n_frames / (k * n_sample)))

    history = []
    for epoch in range(cfg.epochs):
        step_losses = []
        for step in range(steps):
            samples = [sample_cluster(partition, j, n_sample, rng) for j in range(k)]
            total, _, g = _evaluate(params, features, samples, gt, cfg.lambda_recon,
                                    cfg.lambda_nce, cfg.lambda_gt, True)
            if not math.isfinite(total):
                raise ValueError(f"training loss is {total} at epoch {epoch}, step {step}")
            adam_step(params, _as_params(params, g), state, learning_rate=cfg.learning_rate)
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
                     method: str = "scenesum", config: dict | None = None) -> SummaryResult:
    """Per cluster, the frame whose encoding is nearest the mean cluster encoding.

    The mean runs over the full cluster membership.  Ties go to the lowest
    frame index.  Frames are listed in cluster-id order.
    """
    h = encode(params, np.asarray(ds.features, dtype=np.float64))
    frames = []
    for j, members in enumerate(partition.members):
        if members.size == 0:
            raise ValueError(f"cluster {j} is empty")
        hm = h[members]
        d = ((hm - hm.mean(axis=0)) ** 2).sum(axis=1)
        frames.append(int(members[int(np.argmin(d))]))
    return SummaryResult(method=method, frame_indices=frames, config=dict(config or {}))


def save_params(params: AutoencoderParams, path) -> None:
    """Serialize weights as float32: magic, version, layer dims, then per-layer
    weights and biases, encoder layers first."""
    layers = list(params.encoder) + list(params.decoder)
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<II", _CHECKPOINT_VERSION, len(layers))
    for w, _ in layers:
        buf += struct.pack("<II", w.shape[0], w.shape[1])
    for w, b in layers:
        buf += np.ascontiguousarray(w, dtype="<f4").tobytes()
        buf += np.ascontiguousarray(b, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(buf))


def load_params(path) -> AutoencoderParams:
    """Read a checkpoint written by save_params; validates the mirror structure."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise ValueError(f"not an autoencoder checkpoint: bad magic {data[:4]!r}")
    pos = 4

    def advance(nbytes):
        """Offset of the next nbytes; refuses to read past the end of the file."""
        nonlocal pos
        start, pos = pos, pos + nbytes
        if pos > len(data):
            raise ValueError("checkpoint truncated")
        return start

    version, n_layers = struct.unpack_from("<II", data, advance(8))
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if n_layers < 2 or n_layers % 2:
        raise ValueError(f"layer count must be even and >= 2, got {n_layers}")
    dims = [struct.unpack_from("<II", data, advance(8)) for _ in range(n_layers)]

    half = n_layers // 2
    enc_dims, dec_dims = dims[:half], dims[half:]
    for i in range(half - 1):
        if enc_dims[i][1] != enc_dims[i + 1][0]:
            raise ValueError("encoder layer dimensions do not chain")
    for i, (din, dout) in enumerate(dec_dims):
        mirrored = enc_dims[half - 1 - i]
        if (din, dout) != (mirrored[1], mirrored[0]):
            raise ValueError("decoder does not mirror the encoder")

    def take(count):
        offset = advance(count * 4)
        return np.frombuffer(data, dtype="<f4", count=count, offset=offset).astype(np.float64)

    layers = []
    for din, dout in dims:
        w = take(din * dout).reshape(din, dout)
        b = take(dout)
        layers.append((w, b))
    if pos != len(data):
        raise ValueError(f"checkpoint has {len(data) - pos} trailing bytes")

    input_dim = enc_dims[0][0]
    latent_dim = enc_dims[-1][1]
    hidden_dims = tuple(d for _, d in enc_dims[:-1])
    return AutoencoderParams(input_dim=input_dim, hidden_dims=hidden_dims, latent_dim=latent_dim,
                             encoder=layers[:half], decoder=layers[half:])
