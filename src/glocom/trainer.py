"""Training loop, configuration and run setup.

The loop batches over documents, gathers the distinct global documents a
batch touches, and refreshes the word-topic transport plan every step at a
fixed regularization strength. The backward pass hands each parameter's
gradient to Adam as soon as it is made, so no gradient buffer is filled or
zeroed. Runs are bit-reproducible given the seed: all noise comes from one
named substream consumed in a deterministic order.
"""

import math
import time
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .aggregation import GlobalCorpus, build_global_corpus
from .corpus import BowCorpus, open_text
from .ecr import DEFAULT_MAX_ITERS, DEFAULT_TOL, sinkhorn, squared_distances
from .errors import ConfigError, TrainingError
from .model import GlocomModel, save_checkpoint, write_matrix_csv
from .numerics import Adam
from .rng import substream

ABLATIONS = ("full", "no_clustering")
TRAJECTORY_COLUMNS = ("total", "recon", "kl_global", "kl_local", "ecr")
_COMPONENT_KEYS = ("loss", "recon", "kl_global", "kl_local", "ecr")


@dataclass
class TrainConfig:
    K: int = 50
    G: int = 20
    tau: float = 0.2
    eta: float = 0.1
    epsilon: float = 0.01
    lambda_ecr: float = 20.0
    epochs: int = 200
    batch_size: int = 200
    lr: float = 0.002
    hidden_width: int = 200
    embed_dim: int = 200
    seed: int = 0
    ablation: str = "full"
    kl_warmup_epochs: int = 0
    ecr_nu: float = 0.05  # transport entropy weight, ECRTM's value
    ecr_max_iters: int = DEFAULT_MAX_ITERS
    ecr_tol: float = DEFAULT_TOL

    def __post_init__(self):
        for key, f in CONFIG_KEYS.items():
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, f.name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.K < 1 or self.G < 1:
            raise ConfigError(f"K and G must be positive (K={self.K}, G={self.G})")
        if self.tau <= 0 or self.epsilon <= 0:
            raise ConfigError(
                f"tau and epsilon must be positive (tau={self.tau}, "
                f"epsilon={self.epsilon})"
            )
        if self.eta < 0 or self.lambda_ecr < 0:
            raise ConfigError(
                f"eta and lambda_ecr must be non-negative (eta={self.eta}, "
                f"lambda_ecr={self.lambda_ecr})"
            )
        if self.epochs < 0 or self.kl_warmup_epochs < 0:
            raise ConfigError("epoch counts must be non-negative")
        if self.batch_size < 1 or self.hidden_width < 1 or self.embed_dim < 1:
            raise ConfigError("batch_size, hidden_width, embed_dim must be >= 1")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}; use {ABLATIONS}")
        if self.ecr_nu <= 0 or self.ecr_tol <= 0 or self.ecr_max_iters < 1:
            raise ConfigError(
                "ecr.nu and ecr.tol must be positive and ecr.max_iters >= 1 "
                f"(ecr.nu={self.ecr_nu}, ecr.tol={self.ecr_tol}, "
                f"ecr.max_iters={self.ecr_max_iters})"
            )


# Config files, and the CLI's per-key flags, use dots where a field groups
# under a component, e.g. `ecr.nu` for the ecr_nu field; every other key is
# the field name as-is.
CONFIG_KEYS = {
    ("ecr." + f.name[len("ecr_"):] if f.name.startswith("ecr_") else f.name): f
    for f in fields(TrainConfig)
}


def parse_config_text(text: str) -> TrainConfig:
    """Flat key=value lines; '#' starts a comment; later duplicate keys
    are an error so silent overrides cannot hide in a file."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        f = CONFIG_KEYS[key]
        if f.name in overrides:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            overrides[f.name] = f.type(value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: cannot parse {value!r} for key {key!r}"
            ) from exc
    return TrainConfig(**overrides)


def parse_config_file(path: str) -> TrainConfig:
    try:
        with open_text(path, ConfigError) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def config_to_text(config: TrainConfig) -> str:
    return "".join(f"{key}={getattr(config, f.name)}\n" for key, f in CONFIG_KEYS.items())


@dataclass
class TrainSetup:
    corpus: BowCorpus
    global_corpus: GlobalCorpus  # its assignment checked against corpus
    config: TrainConfig  # G and embed_dim as the run uses them
    word_init: Optional[np.ndarray] = None  # (V, embed_dim) initial word vectors


def build_setup(
    corpus: BowCorpus,
    config: TrainConfig,
    assignment: Optional[np.ndarray] = None,
    word_init: Optional[np.ndarray] = None,
) -> TrainSetup:
    """Resolve a run's inputs and build the global corpus.

    Under no_clustering every document is its own cluster: G = D and the
    identity assignment, whatever assignment is supplied. With word vectors,
    embed_dim is their width. The run without augmentation is eta = 0.
    """
    if config.ablation == "no_clustering":
        config = replace(config, G=corpus.num_docs)
        assignment = np.arange(corpus.num_docs)
    elif assignment is None:
        raise TrainingError("a cluster assignment is required outside no_clustering")
    if word_init is not None:
        config = replace(config, embed_dim=word_init.shape[1])
    return TrainSetup(corpus, build_global_corpus(corpus, assignment, G=config.G), config,
                      word_init)


@dataclass
class TrainReport:
    trajectory: np.ndarray  # (epochs, 5) epoch means: TRAJECTORY_COLUMNS
    wall_time: float
    # transport solves over the run; all zero when lambda_ecr=0
    transport_solves: int = 0
    transport_unconverged: int = 0  # solves stopped by ecr.max_iters
    transport_iters_mean: float = 0.0
    transport_marginal_err_max: float = 0.0  # largest L1 row or column error

    def __post_init__(self):
        self.trajectory = np.asarray(self.trajectory, dtype=np.float64)
        if self.trajectory.ndim != 2 or self.trajectory.shape[1] != len(
            TRAJECTORY_COLUMNS
        ):
            raise TrainingError(
                f"trajectory must have {len(TRAJECTORY_COLUMNS)} columns"
            )
        if self.trajectory.size and not np.all(np.isfinite(self.trajectory)):
            raise TrainingError("non-finite values in the loss trajectory")


def write_trajectory(report: TrainReport, path: str) -> None:
    """A header row, then each epoch's number and losses as "%.17g"."""
    epochs = np.arange(len(report.trajectory))
    write_matrix_csv(np.column_stack((epochs, report.trajectory)), path,
                     header="epoch," + ",".join(TRAJECTORY_COLUMNS) + "\n")


def _kl_scale(epoch: int, warmup_epochs: int) -> float:
    if warmup_epochs <= 0:
        return 1.0
    return min(1.0, (epoch + 1) / warmup_epochs)


def train(
    setup: TrainSetup,
    topic_init: Optional[np.ndarray] = None,
    checkpoint_dir: Optional[str] = None,
) -> tuple[GlocomModel, TrainReport]:
    """Run the full optimization and return the model plus its report.

    The transport plan is re-solved from the current embeddings at every
    step at the configured entropy weight ecr.nu. Training aborts
    on the first non-finite loss with a component breakdown in the error;
    that step's backward pass has already updated the model, which is
    neither returned nor checkpointed.
    """
    t0 = time.perf_counter()
    corpus, config = setup.corpus, setup.config
    assignment, gdocs = setup.global_corpus.assignment, setup.global_corpus.global_docs
    D = corpus.num_docs

    rng = substream(config.seed, "training")
    model = GlocomModel(
        corpus.num_words,
        config.K,
        embed_dim=config.embed_dim,
        hidden=config.hidden_width,
        tau=config.tau,
        epsilon=config.epsilon,
        seed=config.seed,
        word_init=setup.word_init,
        topic_init=topic_init,
    )
    adam = Adam(model.params(), lr=config.lr)

    x = corpus.counts.astype(np.float64)  # the run's one float64 CSR copy

    use_ecr = config.lambda_ecr != 0.0
    solves = unconverged = iters_total = 0
    err_max = 0.0
    trajectory = np.zeros((config.epochs, len(TRAJECTORY_COLUMNS)))
    for epoch in range(config.epochs):
        perm = rng.permutation(D)
        scale = _kl_scale(epoch, config.kl_warmup_epochs)
        sums = np.zeros(len(TRAJECTORY_COLUMNS))
        n_batches = 0
        for start in range(0, D, config.batch_size):
            idx = perm[start : start + config.batch_size]
            cids = assignment[idx]
            n_clusters = np.unique(cids).shape[0]
            noise_g = rng.standard_normal((n_clusters, config.K))
            noise_d = rng.standard_normal((idx.shape[0], config.K))

            psi = cost = None
            if use_ecr:
                cost = squared_distances(model.space.W.value, model.space.T.value)
                plan = sinkhorn(cost, config.ecr_nu, config.ecr_max_iters, config.ecr_tol)
                psi = plan.psi
                solves += 1
                unconverged += not plan.converged
                iters_total += plan.iterations_used
                err_max = max(err_max, plan.row_err, plan.col_err)

            loss, comps, _ = model.forward_backward(
                x[idx],
                cids,
                gdocs,
                noise_g,
                noise_d,
                eta=config.eta,
                lambda_ecr=config.lambda_ecr,
                psi=psi,
                kl_scale=scale,
                sqd=cost,
                update=adam.update,
            )
            if not all(math.isfinite(v) for v in comps.values()):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} batch {n_batches}: "
                    + ", ".join(f"{k}={v:.6g}" for k, v in comps.items())
                )
            adam.step()
            sums += [comps[c] for c in _COMPONENT_KEYS]
            n_batches += 1
        trajectory[epoch] = sums / n_batches

    if checkpoint_dir is not None:
        save_checkpoint(model, checkpoint_dir)
    report = TrainReport(
        trajectory,
        time.perf_counter() - t0,
        transport_solves=solves,
        transport_unconverged=unconverged,
        transport_iters_mean=iters_total / solves if solves else 0.0,
        transport_marginal_err_max=err_max,
    )
    return model, report
