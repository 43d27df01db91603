"""The topic model: embedding-kernel topic-word matrix, dual encoders,
cluster-level topic distributions modulated per document, and the training
loss with its hand-derived backward pass.

Generative picture per cluster g and member document d:
    alpha^g ~ N(0, I),  theta^g = softmax(alpha^g)
    rho_d   ~ N(1, eps I)                    (adaptive modulation, signed)
    theta^g_d = softmax(theta^g * rho_d)
    x_d ~ Multinomial(softmax(beta @ theta^g_d))
Reconstruction targets are the augmented counts x + eta * x^g. The target
is never built as an array: the loss is linear in it, so its cluster part
enters only through products over the batch's distinct clusters.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .corpus import _DIGITS4, divide_rows, read_gemb, write_gemb
from .ecr import squared_distances
from .errors import ConfigError, TrainingError
from .numerics import (
    Encoder,
    EncoderCache,
    Param,
    Update,
    gaussian_reparameterize,
    gaussian_reparameterize_backward,
    kl_diag_gaussian,
    kl_diag_gaussian_backward,
    softmax_backward,
    softmax_forward,
)
from .rng import substream


def _row_sums(X: sp.csr_matrix) -> np.ndarray:
    """(N,) sums of the rows of a CSR matrix."""
    return np.asarray(X.sum(axis=1)).ravel()


def normalize_rows(X: sp.csr_matrix, what: str = "input") -> sp.csr_matrix:
    """A copy of the float64 CSR X with every row divided by its sum.
    Zero-sum rows are rejected: a document with no mass cannot be encoded."""
    sums = _row_sums(X)
    if np.any(sums == 0):
        raise TrainingError(f"zero-sum {what} row cannot be normalized")
    return divide_rows(X, sums)


class TopicSpace:
    """Word embeddings W (V,L), topic embeddings T (K,L), temperature tau."""

    def __init__(self, W: np.ndarray, T: np.ndarray, tau: float):
        if tau <= 0:
            raise TrainingError(f"tau must be positive, got {tau}")
        W = np.asarray(W, dtype=np.float64)
        T = np.asarray(T, dtype=np.float64)
        if W.ndim != 2 or T.ndim != 2 or W.shape[1] != T.shape[1]:
            raise TrainingError(f"embedding shapes disagree: {W.shape} vs {T.shape}")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(T))):
            raise TrainingError("non-finite embedding values")
        self.W = Param("space.W", W)
        self.T = Param("space.T", T)
        self.tau = float(tau)

    @property
    def num_words(self) -> int:
        return self.W.value.shape[0]

    @property
    def num_topics(self) -> int:
        return self.T.value.shape[0]

    def squared_dists(self) -> np.ndarray:
        return squared_distances(self.W.value, self.T.value)

    def params(self) -> list[Param]:
        return [self.W, self.T]


def compute_beta(space: TopicSpace, sqd: Optional[np.ndarray] = None) -> np.ndarray:
    """beta_ij = exp(-|w_i - t_j|^2 / tau), normalized over topics per word.

    Row-wise softmax of -sqd/tau with max subtraction, so no overflow.
    ``sqd`` is the space's squared-distance matrix when the caller has it."""
    if sqd is None:
        sqd = space.squared_dists()
    return softmax_forward(-sqd / space.tau)


def compute_beta_backward(space: TopicSpace, beta: np.ndarray, dbeta: np.ndarray,
                          extra_dsqd: Optional[np.ndarray], update: Update) -> None:
    """Hand d(loss)/dW and d(loss)/dT to ``update``; both are formed
    before either is applied.

    ``extra_dsqd``, unless None, adds a gradient that hits the
    squared-distance matrix directly (the transport regularizer shares
    this cost matrix)."""
    # dsqd = -softmax_backward(dbeta, beta) / tau + extra_dsqd, in one V x K
    # array; x / -tau rounds as (-x) / tau does
    dsqd = np.multiply(dbeta, beta)
    row = np.sum(dsqd, axis=-1, keepdims=True)
    np.subtract(dbeta, row, out=dsqd)
    dsqd *= beta
    dsqd /= -space.tau
    if extra_dsqd is not None:
        dsqd += extra_dsqd
    W, T = space.W.value, space.T.value
    # 2 (W * rowsum - dsqd T), each product formed once
    dW = np.multiply(W, dsqd.sum(axis=1)[:, None])
    dW -= dsqd @ T
    dW *= 2.0
    dT = np.multiply(T, dsqd.sum(axis=0)[:, None])
    dT -= dsqd.T @ W
    dT *= 2.0
    update(space.W, dW)
    update(space.T, dT)


def combine(theta_g: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """softmax(theta_g * rho), rows; the document's adapted topic mix."""
    return softmax_forward(theta_g * rho)


def reconstruction(x: sp.csr_matrix, context: sp.csr_matrix, inv: np.ndarray,
                   theta_gd: np.ndarray, beta: np.ndarray):
    """Per-row loss -sum_v T_dv log softmax(theta_gd beta^T)_dv against the
    target T = x + context[inv], and the gradients of its batch mean.

    ``x`` (B, V) holds counts and ``context`` (C, V) eta times the batch's
    distinct global documents, both CSR. The loss is linear in T, so only
    its row sums s, T beta and T^T theta_gd are formed, each as a part on x
    plus a part on the C context rows; the softmax is the one B x V array.
    Returns (recon (B,), dtheta_gd, dbeta)."""
    B = x.shape[0]
    s = _row_sums(x) + _row_sums(context)[inv]
    t_beta = x @ beta + (context @ beta)[inv]
    p = theta_gd @ beta.T
    row_max = p.max(axis=1)
    p -= row_max[:, None]
    np.exp(p, out=p)
    z = p.sum(axis=1)
    lse = row_max + np.log(z)
    recon = lse * s - np.einsum("ij,ij->i", t_beta, theta_gd)
    p /= z[:, None]
    per_cluster = np.zeros((context.shape[0], theta_gd.shape[1]))
    np.add.at(per_cluster, inv, theta_gd)
    tt_theta = x.T @ theta_gd + context.T @ per_cluster
    dtheta_gd = (s[:, None] * (p @ beta) - t_beta) / B
    dbeta = (p.T @ (s[:, None] * theta_gd) - tt_theta) / B
    return recon, dtheta_gd, dbeta


@dataclass
class LatentBatch:
    theta_g: np.ndarray  # (C, K), one row per distinct cluster in the batch
    rho: np.ndarray  # (B, K)
    theta_gd: np.ndarray  # (B, K)
    kl_global: np.ndarray  # (C,)
    kl_local: np.ndarray  # (B,)
    cluster_rows: np.ndarray  # (B,) index into theta_g per document

    def __post_init__(self):
        for name, M in (("theta_g", self.theta_g), ("theta_gd", self.theta_gd)):
            if np.any(M < 0) or np.any(np.abs(M.sum(axis=1) - 1.0) > 1e-9):
                raise TrainingError(f"{name} rows are not on the simplex")
        if np.any(self.kl_global < -1e-12) or np.any(self.kl_local < -1e-12):
            raise TrainingError("negative KL term")


class GlocomModel:
    """Parameters plus the forward/backward of the full training loss."""

    def __init__(
        self,
        num_words: int,
        num_topics: int,
        embed_dim: int = 200,
        hidden: int = 200,
        tau: float = 0.2,
        epsilon: float = 0.01,
        seed: int = 0,
        word_init: Optional[np.ndarray] = None,
        topic_init: Optional[np.ndarray] = None,
    ):
        rng = substream(seed, "init")
        # the inits are copied: training updates W and T in place
        if word_init is not None:
            W = np.array(word_init, dtype=np.float64)
            if W.shape[0] != num_words:
                raise TrainingError(
                    f"word_init has {W.shape[0]} rows for {num_words} words"
                )
            embed_dim = W.shape[1]
        else:
            W = rng.uniform(-0.05, 0.05, size=(num_words, embed_dim))
        if topic_init is not None:
            T = np.array(topic_init, dtype=np.float64)
            if T.shape != (num_topics, embed_dim):
                raise TrainingError(
                    f"topic_init has shape {T.shape}, "
                    f"expected ({num_topics}, {embed_dim})"
                )
        else:
            limit = np.sqrt(6.0 / (num_topics + embed_dim))
            T = rng.uniform(-limit, limit, size=(num_topics, embed_dim))
        self._hold(TopicSpace(W, T, tau), Encoder("phi", num_words, hidden, num_topics, rng),
                   Encoder("gamma", num_words, hidden, num_topics, rng), epsilon)

    @classmethod
    def from_tensors(cls, tensors: dict, tau: float, epsilon: float) -> "GlocomModel":
        """A model holding ``tensors`` (by parameter name, in the shapes
        ``params()`` holds them) as they are, with no random draws."""
        model = cls.__new__(cls)
        model._hold(TopicSpace(tensors["space.W"], tensors["space.T"], tau),
                    Encoder.from_values("phi", tensors),
                    Encoder.from_values("gamma", tensors), epsilon)
        return model

    def _hold(self, space: TopicSpace, phi: Encoder, gamma: Encoder, epsilon: float):
        if epsilon <= 0:
            raise TrainingError(f"epsilon must be positive, got {epsilon}")
        self.space, self.phi, self.gamma = space, phi, gamma
        self.epsilon = float(epsilon)
        self.hidden = phi.l1.W.value.shape[1]

    # -- parameter plumbing ------------------------------------------------

    def params(self) -> list[Param]:
        return self.space.params() + self.phi.params() + self.gamma.params()

    # -- encoders ----------------------------------------------------------

    def encode_global(self, x_g: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, EncoderCache]:
        """(mu, log_var, cache) of the cluster-level latent from raw counts
        as float64 CSR; the cache feeds ``phi.backward``."""
        return self.phi.forward(normalize_rows(x_g, "global doc"))

    def encode_local(self, x_d: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, EncoderCache]:
        """(mu, log_var, cache) of the adaptive variable from raw counts as
        float64 CSR; the cache feeds ``gamma.backward``."""
        return self.gamma.forward(normalize_rows(x_d, "document"))

    # -- training loss -----------------------------------------------------

    def forward_backward(
        self,
        x: sp.csr_matrix,  # (B, V) raw counts, float64
        cluster_ids: np.ndarray,  # (B,)
        global_docs: sp.csr_matrix,  # (G, V) summed counts, float64
        noise_g: np.ndarray,  # (C, K), one row per distinct batch cluster
        noise_d: np.ndarray,  # (B, K)
        eta: float,  # targets are x + eta * global_docs[cluster_ids]
        update: Update,
        lambda_ecr: float = 0.0,
        psi: Optional[np.ndarray] = None,
        kl_scale: float = 1.0,
        sqd: Optional[np.ndarray] = None,
    ) -> tuple[float, dict, LatentBatch]:
        """One step's loss and its backward pass.

        Returns (loss, components, latents). Each parameter's gradient goes
        to ``update(param, grad)`` once, after the backward pass has read
        every parameter value it needs. The transport plan psi is a
        constant here: its gradient enters only through the shared
        squared-distance matrix. The global KL counts once per distinct
        cluster in the batch, and ``kl_scale`` multiplies both KL terms
        (warmup annealing hook). ``sqd`` is the current squared-distance
        matrix when the caller has already computed it.
        """
        if kl_scale < 0:
            raise TrainingError(f"kl_scale must be >= 0, got {kl_scale}")
        if eta < 0:
            raise TrainingError(f"eta must be >= 0, got {eta}")
        B = x.shape[0]
        uniq, inv = np.unique(np.asarray(cluster_ids, dtype=np.int64), return_inverse=True)
        if uniq.min() < 0 or uniq.max() >= global_docs.shape[0]:
            raise TrainingError("cluster id outside the global-document table")
        C = uniq.shape[0]
        if noise_g.shape != (C, self.space.num_topics):
            raise TrainingError(
                f"noise_g shape {noise_g.shape} != ({C}, {self.space.num_topics})"
            )

        # global side: one latent sample per distinct cluster
        xg = global_docs[uniq]
        mu_g, lv_g, cache_g = self.encode_global(xg)
        alpha_g = gaussian_reparameterize(mu_g, lv_g, noise_g)
        theta_g = softmax_forward(alpha_g)
        kl_g = kl_diag_gaussian(mu_g, lv_g, 0.0, 1.0)  # (C,)

        # local side: adaptive variable per document
        mu_d, lv_d, cache_d = self.encode_local(x)
        rho = gaussian_reparameterize(mu_d, lv_d, noise_d)
        kl_d = kl_diag_gaussian(mu_d, lv_d, 1.0, self.epsilon)  # (B,)

        theta_gd = combine(theta_g[inv], rho)

        if sqd is None:
            sqd = self.space.squared_dists()
        beta = compute_beta(self.space, sqd)
        recon, dtheta_gd, dbeta = reconstruction(x, eta * xg, inv, theta_gd, beta)

        recon_mean = float(recon.sum() / B)
        kl_g_term = float(kl_scale * kl_g.sum() / B)
        kl_d_term = float(kl_scale * kl_d.sum() / B)
        loss_tm = recon_mean + kl_g_term + kl_d_term

        ecr_term = 0.0
        sqd_grad_extra = None
        if psi is not None and lambda_ecr != 0.0:
            if psi.shape != sqd.shape:
                raise TrainingError(f"plan shape {psi.shape} != cost shape {sqd.shape}")
            ecr_term = float(lambda_ecr * np.sum(sqd * psi))
            sqd_grad_extra = lambda_ecr * psi
        loss = loss_tm + ecr_term

        components = {
            "loss": loss,
            "recon": recon_mean,
            "kl_global": kl_g_term,
            "kl_local": kl_d_term,
            "ecr": ecr_term,
        }
        latents = LatentBatch(theta_g, rho, theta_gd, kl_g, kl_d, inv)

        # ---- backward ----
        ds = softmax_backward(dtheta_gd, theta_gd)
        drho = ds * theta_g[inv]
        dtheta_g = np.zeros_like(theta_g)
        np.add.at(dtheta_g, inv, ds * rho)

        dalpha_g = softmax_backward(dtheta_g, theta_g)
        dmu_g, dlv_g = gaussian_reparameterize_backward(dalpha_g, lv_g, noise_g)
        dmu_kl, dlv_kl = kl_diag_gaussian_backward(
            np.full(C, kl_scale / B), mu_g, lv_g, 0.0, 1.0
        )
        self.phi.backward(dmu_g + dmu_kl, dlv_g + dlv_kl, cache_g, update)

        dmu_d, dlv_d = gaussian_reparameterize_backward(drho, lv_d, noise_d)
        dmu_dkl, dlv_dkl = kl_diag_gaussian_backward(
            np.full(B, kl_scale / B), mu_d, lv_d, 1.0, self.epsilon
        )
        self.gamma.backward(dmu_d + dmu_dkl, dlv_d + dlv_dkl, cache_d, update)

        compute_beta_backward(self.space, beta, dbeta, sqd_grad_extra, update)
        return loss, components, latents


@dataclass
class TopicModelOutput:
    beta: np.ndarray  # (V, K)
    theta_global: np.ndarray  # (G, K)
    theta_local: np.ndarray  # (D, K)
    top_words: list[list[str]]  # K lists of top-N vocabulary words


# Documents, local or global, encoded at a time by infer: bounds its dense
# working set at this many rows of hidden activations, whatever the corpus
# size or the number of clusters.
INFER_BLOCK_ROWS = 256


def infer(
    model: GlocomModel,
    x,
    cluster_ids: np.ndarray,
    global_docs,
    vocab_words: list[str],
    top_n: int = 15,
) -> TopicModelOutput:
    """Posterior-mean inference: no sampling noise anywhere.

    theta^g = softmax(mu_phi(x^g)); rho_d = mu_gamma(x_d);
    theta^g_d = softmax(theta^g(cluster of d) * rho_d).
    ``x`` holds the documents' counts and ``global_docs`` the clusters',
    both as CSR (dense input is converted here, once); both are encoded
    INFER_BLOCK_ROWS at a time. A cluster with an empty global
    document (no members) gets the prior mean theta^g = softmax(0), uniform.
    """
    if top_n < 1:
        raise ConfigError(f"top_n must be at least 1, got {top_n}")
    if len(vocab_words) != model.space.num_words:
        raise TrainingError(
            f"{len(vocab_words)} vocabulary words for a "
            f"{model.space.num_words}-word model"
        )
    x = sp.csr_matrix(x, dtype=np.float64)
    global_docs = sp.csr_matrix(global_docs, dtype=np.float64)
    K = model.space.num_topics

    def in_blocks(encode, rows, finish) -> np.ndarray:
        # finish(mu, block) of each block's encoder means, stacked
        out = np.empty((rows.shape[0], K))
        for start in range(0, rows.shape[0], INFER_BLOCK_ROWS):
            block = slice(start, start + INFER_BLOCK_ROWS)
            out[block] = finish(encode(rows[block])[0], block)
        return out

    theta_global = np.full((global_docs.shape[0], K), 1.0 / K)
    used = _row_sums(global_docs) > 0
    theta_global[used] = in_blocks(
        model.encode_global, global_docs[used], lambda mu, _: softmax_forward(mu)
    )
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
    theta_local = in_blocks(
        model.encode_local, x,
        lambda mu, block: combine(theta_global[cluster_ids[block]], mu),
    )
    beta = compute_beta(model.space)
    top_words = [[vocab_words[i] for i in row] for row in top_word_ids(beta, top_n).tolist()]
    return TopicModelOutput(beta, theta_global, theta_local, top_words)


def top_word_ids(beta: np.ndarray, top_n: int) -> np.ndarray:
    """(K, min(top_n, V)) word ids of each topic's heaviest words: the first
    top_n of a stable argsort of -beta[:, k], that is descending weight and
    the lowest id first on ties, from one partial selection over all topics."""
    V, K = beta.shape
    n = min(top_n, V)
    # each topic's n-th heaviest weight; every word at least that heavy is a
    # candidate, so ties at the threshold keep their lowest ids
    threshold = np.partition(beta, V - n, axis=0)[V - n]
    k, v = np.nonzero((beta >= threshold).T)  # by topic, then id
    order = np.lexsort((v, -beta[v, k], k))
    k, v = k[order], v[order]
    counts = np.bincount(k, minlength=K)
    rank = np.arange(k.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return v[rank < n].reshape(K, n)


# ---------------------------------------------------------------------------
# checkpoints


# The encoder weights, held (in, out) by the model, are stored (out, in) in
# checkpoints, as checkpoints always stored them.
_TRANSPOSED_ON_DISK = tuple(f"{enc}.{layer}.W" for enc in ("phi", "gamma")
                            for layer in ("l1", "l2", "mu", "lv"))


def _checkpoint_shapes(num_words: int, num_topics: int, embed_dim: int,
                       hidden: int) -> dict[str, tuple[int, int]]:
    """Every checkpoint tensor's (rows, cols) on disk; a bias is one row."""
    shapes = {"space.W": (num_words, embed_dim), "space.T": (num_topics, embed_dim)}
    for enc in ("phi", "gamma"):
        for layer, in_dim, out_dim in Encoder.layers(num_words, hidden, num_topics):
            shapes[f"{enc}.{layer}.W"] = (out_dim, in_dim)
            shapes[f"{enc}.{layer}.b"] = (1, out_dim)
    return shapes


def save_checkpoint(model: GlocomModel, dirpath: str) -> None:
    """Manifest plus one binary file per tensor.

    The binary layout is the embedding files' GEMB layout with a float64
    payload, so that reload is bit-exact; the manifest carries the dtype
    per tensor.
    """
    import os

    os.makedirs(dirpath, exist_ok=True)
    lines = ["glocom-checkpoint 1"]
    for key, val in (
        ("num_words", model.space.num_words),
        ("num_topics", model.space.num_topics),
        ("embed_dim", model.space.W.value.shape[1]),
        ("hidden", model.hidden),
        ("tau", repr(model.space.tau)),
        ("epsilon", repr(model.epsilon)),
    ):
        lines.append(f"meta {key} {val}")
    for p in model.params():
        M = p.value.T if p.name in _TRANSPOSED_ON_DISK else np.atleast_2d(p.value)
        lines.append(f"tensor {p.name} {M.shape[0]} {M.shape[1]} float64")
        write_gemb(np.asarray(M, dtype="<f8"), os.path.join(dirpath, f"{p.name}.bin"))
    with open(os.path.join(dirpath, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(dirpath: str) -> GlocomModel:
    """Rebuild a model from a checkpoint directory, bit-exact. The model
    holds the files' tensors; nothing is drawn at random."""
    import os

    mpath = os.path.join(dirpath, "manifest.txt")
    if not os.path.exists(mpath):
        raise TrainingError(f"no manifest.txt in {dirpath}")
    meta: dict[str, str] = {}
    tensors: list[tuple[str, int, int, str]] = []
    with open(mpath, encoding="utf-8") as fh:
        header = fh.readline().split()
        if header != ["glocom-checkpoint", "1"]:
            raise TrainingError(f"{mpath}:1: header {' '.join(header)!r} is not "
                                "'glocom-checkpoint 1'")
        for ln, line in enumerate(fh, 2):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "meta" and len(parts) == 3:
                meta[parts[1]] = parts[2]
            elif (parts[0] == "tensor" and len(parts) == 5
                  and parts[2].isdecimal() and parts[3].isdecimal()):
                tensors.append((parts[1], int(parts[2]), int(parts[3]), parts[4]))
            elif parts[0] in ("meta", "tensor"):
                raise TrainingError(f"{mpath}:{ln}: malformed {parts[0]} line {line.strip()!r}")
            else:
                raise TrainingError(f"{mpath}:{ln}: unknown manifest entry {parts[0]!r}")
    try:
        sizes = {k: int(meta[k]) for k in ("num_words", "num_topics", "embed_dim", "hidden")}
        scales = {k: float(meta[k]) for k in ("tau", "epsilon")}
    except KeyError as exc:
        raise TrainingError(f"{mpath}: no meta {exc.args[0]} line") from None
    except ValueError as exc:
        raise TrainingError(f"{mpath}: bad meta value: {exc}") from None
    shapes = _checkpoint_shapes(**sizes)
    values: dict[str, np.ndarray] = {}
    for name, rows, cols, dtype in tensors:
        if name not in shapes or name in values:
            raise TrainingError(f"checkpoint tensor {name!r} has no model slot")
        if dtype != "float64":
            raise TrainingError(f"unsupported checkpoint dtype {dtype!r}")
        path = os.path.join(dirpath, f"{name}.bin")
        if not os.path.exists(path):
            raise TrainingError(f"checkpoint tensor file missing: {path}")
        M = read_gemb(path, "<f8", TrainingError)
        if M.shape != (rows, cols):
            raise TrainingError(
                f"{path}: shape {M.shape} disagrees with manifest ({rows},{cols})"
            )
        if M.shape != shapes[name]:
            raise TrainingError(
                f"{path}: tensor {name} has shape {M.shape}, model expects {shapes[name]}"
            )
        if name in _TRANSPOSED_ON_DISK:
            M = M.T  # the model's Param makes it contiguous
        values[name] = M[0] if name.endswith(".b") else M
    missing = shapes.keys() - values.keys()
    if missing:
        raise TrainingError(f"checkpoint is missing tensors: {sorted(missing)}")
    return GlocomModel.from_tensors(values, **scales)


# ---------------------------------------------------------------------------
# output files


def write_matrix_csv(M: np.ndarray, path: str) -> None:
    """Write M as comma-separated rows, every value as "%.17g".

    The bytes are those of np.savetxt(path, M, fmt="%.17g", delimiter=","):
    a 1-D array is written as one column, and an empty matrix as an empty
    file. The values are formatted in blocks of whole rows, so memory does
    not grow with the row count.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array, got {M.ndim}-D")
    rows, cols = M.shape
    step = max(1, _CSV_BLOCK // max(cols, 1))
    with open(path, "wb") as fh:
        if cols == 0:
            fh.write(b"\n" * rows)
            return
        for r0 in range(0, rows, step):
            block = np.ascontiguousarray(M[r0:r0 + step]).reshape(-1)
            fh.write(_format_csv_block(block, cols))


# The exact "%.17g" formatter behind write_matrix_csv. For a window value
# 1e-6 < |x| < 1e16 (1e-6 itself is a double just below 10^-6), the scale
# 10^k with k = 16 - floor(log10 |x|) lies in 10^1..10^22, and each of
# those is an exact double. A Dekker two-product then gives x * 10^k
# exactly as hi + lo. Once k puts that product in [10^16, 10^17), hi is an
# even integer (its spacing is at least 2), so the correctly rounded
# 17-digit integer, ties to even as in "%" formatting, is hi + rint(lo).
# All other values (zero, subnormal, tiny, huge, nan, inf) go through "%".

_CSV_BLOCK = 16384  # values per formatted block
_CSV_WIDTH = 25  # sign column, up to 23 characters of text, delimiter
_CSV_OTHER = 127  # exponent key of the values formatted by "%"
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _split_high(a: np.ndarray) -> np.ndarray:
    """The upper 26 bits of each double; a - high is exact."""
    t = _SPLITTER * a
    return t - (t - a)


_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HIGH = _split_high(_POW10)
_n4 = np.arange(10000)
_TRAILING_ZEROS4 = ((_n4 % 10 == 0).astype(np.int64) + (_n4 % 100 == 0)
                    + (_n4 % 1000 == 0) + (_n4 == 0))
# row e selects columns 0..e of a formatted row: sign, text and delimiter
_KEEP_UPTO = np.tri(_CSV_WIDTH, dtype=bool)
del _n4


def _scaled_exact(a: np.ndarray, k: np.ndarray):
    """hi, lo with hi + lo == a * 10^k exactly (Dekker's two-product)."""
    b = np.take(_POW10, k)
    hi = a * b
    ah = _split_high(a)
    al = a - ah
    bh = np.take(_POW10_HIGH, k)
    bl = b - bh
    lo = ah * bh
    lo -= hi
    lo += ah * bl
    lo += al * bh
    lo += al * bl
    return hi, lo


def _format_csv_block(v: np.ndarray, ncols: int) -> np.ndarray:
    """The "%.17g" CSV bytes of whole rows of ncols values, flattened in v."""
    n = v.size
    negative = np.signbit(v)  # column 0 is kept for these
    a = np.abs(v)
    with np.errstate(invalid="ignore"):
        other = ~((a > 1e-6) & (a < 1e16))
    a[other] = 1.0

    # 17 significant digits: N = round(|x| * 10^k) in [10^16, 10^17)
    k = np.floor(np.log10(a)).astype(np.int64)
    np.subtract(16, k, out=k)
    np.clip(k, 1, 22, out=k)
    hi, lo = _scaled_exact(a, k)
    up = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    down = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(up | down)  # log10 missed near a power of ten
    if fix.size:
        k[fix] += up[fix].astype(np.int64) - down[fix]
        hi[fix], lo[fix] = _scaled_exact(a[fix], k[fix])
    N = hi.astype(np.int64)
    N += np.rint(lo).astype(np.int64)
    # rounding up to 10^17 adds a digit; no double in the window does so
    # today (1e-14 is the nearest that does), but the digits rely on N < 10^17
    carry = N == 10**17
    N[carry] = 10**16
    # %g's decimal exponent X: "d.ddd" has X + 1 integer digits
    X = (16 - k + carry).astype(np.int8)
    X[other] = _CSV_OTHER

    # work in exponent order, so each layout below is one slice of rows
    order = np.argsort(X, kind="stable")
    Xs = np.take(X, order)
    G = np.empty((n, 5), np.int64)  # N as five 4-digit groups "000d dddd ..."
    h, low8 = np.divmod(np.take(N, order), 10**8)
    np.divmod(h, 10**8, out=(G[:, 0], G[:, 1]))
    np.divmod(G[:, 1], 10**4, out=(G[:, 1], G[:, 2]))
    np.divmod(low8, 10**4, out=(G[:, 3], G[:, 4]))
    digits = np.take(_DIGITS4, G).view(np.uint8)[:, 3:]
    nsig = 17 - np.take(_TRAILING_ZEROS4, G[:, 4])  # digits left after %g strips zeros
    longer = np.flatnonzero(G[:, 4] == 0)  # more than four trailing zeros
    if longer.size:
        Gz = G[longer]
        t = np.take(_TRAILING_ZEROS4, Gz[:, 1])
        for j in (2, 3, 4):
            t = np.where(Gz[:, j] == 0, t + 4, np.take(_TRAILING_ZEROS4, Gz[:, j]))
        nsig[longer] = 17 - t

    # text from column 1; column 0 is the minus sign; end is the delimiter's column
    out = np.empty((n, _CSV_WIDTH), np.uint8)
    out[:, 0] = ord("-")
    end = np.empty(n, np.int64)
    bounds = [0] + (np.flatnonzero(Xs[1:] != Xs[:-1]) + 1).tolist() + [n]
    for i0, i1 in zip(bounds[:-1], bounds[1:]):
        x = int(Xs[i0])
        o, d, ns = out[i0:i1], digits[i0:i1], nsig[i0:i1]
        if x == _CSV_OTHER:
            for j in range(i0, i1):
                s = ("%.17g" % float(v[order[j]])).encode("ascii")
                negative[order[j]] = s.startswith(b"-")  # not so for nan
                text = s.lstrip(b"-")
                out[j, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
                end[j] = 1 + len(text)
        elif -4 <= x < 0:  # 0.000ddd
            z = -x - 1
            o[:, 1:3 + z] = np.frombuffer(b"0." + b"0" * z, np.uint8)
            o[:, 3 + z:20 + z] = d
            end[i0:i1] = ns + 3 + z
        else:  # ddd.ddd, or d.ddde-0X below 10^-4
            s = x + 1 if x >= 0 else 1
            o[:, 1:1 + s] = d[:, :s]
            o[:, 1 + s] = ord(".")
            o[:, 2 + s:19] = d[:, s:]
            e = np.where(ns > s, ns + 2, s + 1)
            if x < 0:
                cols = e[:, None] + np.arange(4)
                o[np.arange(i1 - i0)[:, None], cols] = np.frombuffer(
                    f"e-0{-x}".encode("ascii"), np.uint8)
                e += 4
            end[i0:i1] = e

    # back to row order, then keep each value's sign, text and delimiter
    inv = np.empty(n, np.int64)
    inv[order] = np.arange(n)
    out = np.take(out, inv, axis=0)
    end = np.take(end, inv)
    flat = out.reshape(-1)
    starts = np.arange(0, n * _CSV_WIDTH, _CSV_WIDTH)
    flat[end + starts] = ord(",")
    last = slice(ncols - 1, None, ncols)
    flat[end[last] + starts[last]] = ord("\n")
    keep = np.take(_KEEP_UPTO, end, axis=0)
    keep[:, 0] = negative
    return out[keep]
