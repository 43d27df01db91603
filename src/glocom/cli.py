"""Command line interface: preprocess, cluster, train, infer, eval, synth,
pipeline, and grid subcommands sharing one config and one seed.

Every subcommand writes a manifest (command line, resolved config, input
digests, seed, version, timestamp) into its output directory before any
other output, so a run can be reproduced from the artifacts alone.

Exit codes:
  0  success
  1  unexpected internal error (the traceback is printed)
  2  missing or unreadable input file
  3  configuration error or bad option value
  4  corpus or embedding error
  5  clustering error
  6  training or transport error
  7  any other package error, such as an unreadable evaluation input

The environment variable GLOCOM_THREADS caps BLAS parallelism; it is
applied before numpy is first imported, so it only takes full effect for
fresh `glocom` processes.
"""

import argparse
import ctypes
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, replace

from .errors import (
    ClusteringError,
    ConfigError,
    CorpusError,
    EmbeddingError,
    GlocomError,
    TrainingError,
    TransportError,
)

_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class _MissingInput(Exception):
    pass


def _cap_threads() -> None:
    raw = os.environ.get("GLOCOM_THREADS")
    if raw is None or raw == "":
        return
    try:
        n = int(raw)
        if n < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"GLOCOM_THREADS must be a positive integer, got {raw!r}")
    for var in _BLAS_VARS:
        os.environ[var] = str(n)


# glibc mallopt parameter numbers, from malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_malloc() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    glibc raises both thresholds only after a large block has been freed.
    Until then, each training step's multi-megabyte temporaries are handed
    back to the kernel when freed and page-faulted in again on the next
    step. A no-op where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _check_top_n(top_n: int) -> None:
    if top_n < 1:
        raise ConfigError(f"--top-n must be at least 1, got {top_n}")


# input flag dest -> what its file is
_INPUT_FILES = {
    "corpus": "corpus", "bow": "corpus", "reference": "corpus", "vocab": "vocabulary",
    "labels": "labels", "embeddings": "document embeddings", "clusters": "cluster assignment",
    "config": "config", "word_embeddings": "word embeddings", "checkpoint": "checkpoint",
    "topics": "topics", "theta": "theta",
}


def _require(args, dest, optional=False):
    """The file behind an input flag, once it is known to exist: the path
    given, or a checkpoint directory's manifest.txt. An optional flag that
    was not given passes through as None."""
    path, what = getattr(args, dest), _INPUT_FILES[dest]
    if not path:
        if optional:
            return None
        raise _MissingInput(f"{what} is required")
    if not os.path.exists(path):
        raise _MissingInput(f"{what} file missing: {path}")
    if dest == "checkpoint":
        path = os.path.join(path, "manifest.txt")
        if not os.path.exists(path):
            raise _MissingInput(f"checkpoint manifest file missing: {path}")
    return path


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, args, seed, config=None, name="manifest.json"):
    """Record enough to re-run the command; written before any output.
    Every input flag the command was given is checked and its file hashed,
    whether or not the run reads it."""
    from . import __version__

    files = [_require(args, dest) for dest in _INPUT_FILES if getattr(args, dest, None)]
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": ["glocom"] + list(args._argv),
        "config": config,
        "inputs": {f: _sha256(f) for f in files},
        "seed": seed,
        "version": __version__,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -------------------------------------------------------- config via flags


def _add_config_flags(parser) -> None:
    """The run flags: --config, --word-embeddings, and one override flag per
    TrainConfig field, named like the config file keys (dotted for the
    transport block)."""
    from .trainer import ABLATIONS, CONFIG_KEYS

    parser.add_argument("--config")
    parser.add_argument("--word-embeddings")
    for key, f in CONFIG_KEYS.items():
        parser.add_argument("--" + key, dest="cfg_" + f.name, type=f.type,
                            choices=ABLATIONS if f.name == "ablation" else None,
                            help=f"override config key {key}")


def _resolve_config(args):
    from .trainer import CONFIG_KEYS, TrainConfig, parse_config_file

    base = TrainConfig()
    if _require(args, "config", optional=True):
        base = parse_config_file(args.config)
    flags = {f.name: getattr(args, "cfg_" + f.name) for f in CONFIG_KEYS.values()}
    return replace(base, **{k: v for k, v in flags.items() if v is not None})


# synth flag dest -> the SyntheticSpec field it sets
_SYNTH_FLAGS = {
    "num_words": "V", "num_topics": "K", "num_clusters": "G", "num_docs": "D",
    "len_min": "len_min", "len_max": "len_max", "epsilon_true": "epsilon_true",
    "block_mass": "block_mass",
}


def _add_synth_flags(parser) -> None:
    """One flag per _SYNTH_FLAGS entry, with SyntheticSpec's default."""
    from .synthetic import SyntheticSpec

    spec = SyntheticSpec()
    for dest, field in _SYNTH_FLAGS.items():
        default = getattr(spec, field)
        parser.add_argument("--" + dest.replace("_", "-"), type=type(default),
                            default=default)


def _synth_spec(args, seed):
    from .synthetic import SyntheticSpec

    return SyntheticSpec(seed=seed, **{f: getattr(args, d) for d, f in _SYNTH_FLAGS.items()})


# ------------------------------------------------------------------ stages
# One function per stage: it writes the stage's files into its output
# directory, prints the stage's summary line and returns its result in
# memory. The stage commands and `pipeline` both call them. Library names
# are imported inside each function, so that a name replaced in its
# defining module (by a profiler or a test) is the one the stage calls.


def run_preprocess(corpus_path, labels_path, min_freq, min_terms, out_dir):
    """Raw text (one document per line) -> pruned bag-of-words corpus."""
    from .corpus import (
        preprocess,
        read_corpus_file,
        read_label_file,
        write_bow,
        write_label_file,
        write_vocabulary,
    )

    os.makedirs(out_dir, exist_ok=True)
    raw = read_corpus_file(corpus_path)
    labels = read_label_file(labels_path) if labels_path else None
    if labels is not None and len(labels) != len(raw):
        raise CorpusError(f"{len(labels)} labels for {len(raw)} documents in {corpus_path}")
    bow, kept = preprocess(raw, min_freq, min_terms, labels)
    write_vocabulary(bow.vocab, os.path.join(out_dir, "vocab.txt"))
    write_bow(bow, os.path.join(out_dir, "bow.txt"))
    write_label_file(kept, os.path.join(out_dir, "kept.txt"))
    if bow.labels is not None:
        write_label_file(bow.labels, os.path.join(out_dir, "labels.txt"))
    print(f"preprocess: kept {bow.num_docs}/{len(raw)} documents, {bow.num_words} words")
    return bow


def run_synth(spec, out_dir):
    """A planted-structure corpus, with its true parameters beside it."""
    from .corpus import write_bow, write_label_file, write_vocabulary
    from .model import write_matrix_csv
    from .synthetic import generate

    os.makedirs(out_dir, exist_ok=True)
    corpus, truth = generate(spec)
    write_vocabulary(corpus.vocab, os.path.join(out_dir, "vocab.txt"))
    write_bow(corpus, os.path.join(out_dir, "bow.txt"))
    write_label_file(corpus.labels, os.path.join(out_dir, "labels.txt"))
    write_matrix_csv(truth.beta, os.path.join(out_dir, "truth_beta.csv"))
    write_matrix_csv(truth.theta_g, os.path.join(out_dir, "truth_theta_g.csv"))
    write_matrix_csv(truth.theta_gd, os.path.join(out_dir, "truth_theta_gd.csv"))
    print(
        f"synth: {corpus.num_docs} documents, {corpus.num_words} words, "
        f"{spec.K} topics, {spec.G} clusters"
    )
    return corpus


def run_cluster(corpus, G, seed, out_dir, embeddings=None, normalize=False):
    """k-means on the document embeddings file when given, else on TF-IDF
    rows; returns the (D,) cluster ids."""
    from .aggregation import kmeans
    from .corpus import load_embeddings, tfidf, write_label_file

    os.makedirs(out_dir, exist_ok=True)
    if embeddings:
        emb = load_embeddings(embeddings, expected_rows=corpus.num_docs)
    else:
        emb = tfidf(corpus)
    result = kmeans(emb, G, seed=seed, normalize=normalize)
    write_label_file(result.assignment, os.path.join(out_dir, "assignment.txt"))
    sizes = result.counts()
    print(
        f"cluster: G={G} inertia={result.inertia:.6g} "
        f"sizes min={sizes.min()} max={sizes.max()}"
    )
    return result.assignment


def load_word_init(path, vocab, seed):
    """Pretrained word vectors for the topic space from an optional file;
    None (random init) without one."""
    from .corpus import load_word_embeddings

    if not path:
        return None
    init = load_word_embeddings(path, vocab, seed=seed)
    print(f"word embeddings: coverage {init.coverage:.1%}")
    return init.vectors


def run_train(corpus, cfg, assignment, word_init, out_dir):
    """Fit the model; writes config.txt, checkpoint/ and trajectory.csv and
    returns the resolved TrainSetup."""
    from .trainer import build_setup, config_to_text, train, write_trajectory

    os.makedirs(out_dir, exist_ok=True)
    setup = build_setup(corpus, cfg, assignment, word_init)
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(config_to_text(setup.config))
    ckpt = os.path.join(out_dir, "checkpoint")
    _, report = train(setup, checkpoint_dir=ckpt)
    write_trajectory(report, os.path.join(out_dir, "trajectory.csv"))
    final = report.trajectory[-1, 0] if report.trajectory.size else float("nan")
    print(
        f"train: {setup.config.epochs} epochs in {report.wall_time:.1f}s, "
        f"final loss {final:.6g}, {report.transport_solves} transport solves "
        f"({report.transport_unconverged} unconverged, "
        f"{report.transport_iters_mean:.1f} iterations mean, "
        f"marginal error max {report.transport_marginal_err_max:.3g}), "
        f"checkpoint at {ckpt}"
    )
    return setup


def run_infer(checkpoint, corpus, assignment, top_n, out_dir):
    """Posterior means from the checkpoint directory; writes topics.txt,
    the two mixture matrices and beta.csv."""
    from .aggregation import build_global_corpus
    from .eval import write_topics
    from .model import infer, load_checkpoint, write_matrix_csv

    os.makedirs(out_dir, exist_ok=True)
    model = load_checkpoint(checkpoint)
    gc = build_global_corpus(corpus, assignment)
    output = infer(model, corpus.counts, gc.assignment, gc.global_docs, corpus.vocab.words,
                   top_n=top_n)
    write_topics(output.top_words, os.path.join(out_dir, "topics.txt"))
    write_matrix_csv(output.theta_local, os.path.join(out_dir, "theta_local.csv"))
    write_matrix_csv(output.theta_global, os.path.join(out_dir, "theta_global.csv"))
    write_matrix_csv(output.beta, os.path.join(out_dir, "beta.csv"))
    print(f"infer: {output.beta.shape[1]} topics over {corpus.num_docs} documents")
    return output


def run_eval(top_words, theta, reference, labels, out_path):
    """Topic diversity and NPMI of the topics, plus purity and NMI of the
    argmax clustering when labels are given; writes and returns them."""
    from .eval import (
        TopicSet,
        assign_documents,
        nmi,
        npmi_coherence,
        purity,
        topic_diversity,
        write_metrics,
    )

    if labels is not None and theta.shape[0] != labels.shape[0]:
        raise GlocomError(
            f"theta has {theta.shape[0]} rows, labels file has {labels.shape[0]}"
        )
    topics = TopicSet(top_words)
    m = {"td": topic_diversity(topics), "purity": None, "nmi": None}
    m["npmi"], m["npmi_per_topic"] = npmi_coherence(topics, reference)
    if labels is not None:
        predicted = assign_documents(theta)
        m["purity"], m["nmi"] = purity(predicted, labels), nmi(predicted, labels)
    write_metrics(out_path, **m)
    line = f"eval: td={m['td']:.4f} npmi={m['npmi']:.4f}"
    if labels is not None:
        line += f" purity={m['purity']:.4f} nmi={m['nmi']:.4f}"
    print(line)
    return m


# ------------------------------------------------------------- subcommands


def _read_corpus(args, bow="bow", labels=False):
    """The corpus behind the bow flag (eval's is --reference) and --vocab,
    with --labels when asked for and given."""
    from .corpus import read_bow, read_label_file, read_vocabulary

    bow_path = _require(args, bow)
    vocab = read_vocabulary(_require(args, "vocab"))
    label_path = _require(args, "labels", optional=True) if labels else None
    return read_bow(bow_path, vocab, read_label_file(label_path) if label_path else None)


def _read_run_inputs(args, labels=False):
    """A train or grid run's config, corpus, cluster assignment (None under
    no_clustering) and word vectors (None without --word-embeddings)."""
    from .aggregation import read_assignment

    cfg = _resolve_config(args)
    corpus = _read_corpus(args, labels=labels)
    assignment = None
    if cfg.ablation != "no_clustering":
        assignment = read_assignment(_require(args, "clusters"), G=cfg.G)
    word_path = _require(args, "word_embeddings", optional=True)
    return cfg, corpus, assignment, load_word_init(word_path, corpus.vocab, cfg.seed)


def cmd_preprocess(args) -> int:
    _write_manifest(args.out, args, seed=None)
    run_preprocess(args.corpus, args.labels, args.min_freq, args.min_terms, args.out)
    return 0


def cmd_synth(args) -> int:
    spec = _synth_spec(args, args.seed)
    _write_manifest(args.out, args, seed=args.seed)
    run_synth(spec, args.out)
    return 0


def cmd_cluster(args) -> int:
    corpus = _read_corpus(args)
    _write_manifest(args.out, args, seed=args.seed)
    run_cluster(corpus, args.num_clusters, args.seed, args.out, args.embeddings,
                args.normalize)
    return 0


def cmd_train(args) -> int:
    cfg, corpus, assignment, word_init = _read_run_inputs(args)
    _write_manifest(args.out, args, seed=cfg.seed, config=asdict(cfg))
    run_train(corpus, cfg, assignment, word_init, args.out)
    return 0


def cmd_infer(args) -> int:
    from .aggregation import read_assignment

    _check_top_n(args.top_n)
    _require(args, "checkpoint")
    corpus = _read_corpus(args)
    assignment = read_assignment(_require(args, "clusters"))
    _write_manifest(args.out, args, seed=None)
    run_infer(args.checkpoint, corpus, assignment, args.top_n, args.out)
    return 0


def cmd_eval(args) -> int:
    from .corpus import read_label_file
    from .eval import read_theta, read_topics

    reference = _read_corpus(args, "reference")
    label_path = _require(args, "labels", optional=True)
    labels = read_label_file(label_path) if label_path else None
    _write_manifest(os.path.dirname(os.path.abspath(args.out)), args, seed=None,
                    name="eval-manifest.json")
    run_eval(read_topics(args.topics).topics, read_theta(args.theta), reference, labels,
             args.out)
    return 0


def _stage(name, fn, *args):
    """Run one pipeline stage; failures keep their type but name the stage."""
    try:
        return fn(*args)
    except GlocomError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def cmd_pipeline(args) -> int:
    _check_top_n(args.top_n)
    cfg = _resolve_config(args)
    if args.synth:
        spec = _synth_spec(args, cfg.seed)
    _require(args, "corpus", optional=args.synth)
    _write_manifest(args.out, args, seed=cfg.seed, config=asdict(cfg))

    def out(name):
        return os.path.join(args.out, name)

    if args.synth:
        corpus = _stage("corpus", run_synth, spec, out("corpus"))
    else:
        corpus = _stage("corpus", run_preprocess, args.corpus, args.labels,
                        args.min_freq, args.min_terms, out("corpus"))
    assignment = None
    if cfg.ablation != "no_clustering":
        assignment = _stage("cluster", run_cluster, corpus, cfg.G, cfg.seed,
                            out("cluster"), args.embeddings)
    word_init = _stage("embeddings", load_word_init, args.word_embeddings,
                       corpus.vocab, cfg.seed)
    setup = _stage("train", run_train, corpus, cfg, assignment, word_init, out("train"))
    output = _stage("infer", run_infer, os.path.join(out("train"), "checkpoint"),
                    corpus, setup.global_corpus.assignment, args.top_n, out("infer"))
    _stage("eval", run_eval, output.top_words, output.theta_local, corpus,
           corpus.labels, out("metrics.json"))
    return 0


def _parse_grid(specs) -> dict:
    from .trainer import CONFIG_KEYS

    grids = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"grid spec must be key=v1,v2,... got {spec!r}")
        key, _, vals = spec.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown grid key {key!r}")
        f = CONFIG_KEYS[key]
        try:
            values = [f.type(v.strip()) for v in vals.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"cannot parse grid values for {key!r}: {vals!r}") from exc
        if not values:
            raise ConfigError(f"grid for {key!r} is empty")
        if f.name in grids:
            raise ConfigError(f"grid key {key!r} given twice")
        grids[f.name] = values
    return grids


def cmd_grid(args) -> int:
    from .trainer import config_to_text, grid_search

    cfg, corpus, assignment, word_init = _read_run_inputs(args, labels=True)
    grids = _parse_grid(args.grid)
    _write_manifest(args.out, args, seed=cfg.seed, config=asdict(cfg))
    result = grid_search(corpus, cfg, grids, assignment=assignment,
                         word_init=word_init)
    keys = sorted(grids)
    with open(os.path.join(args.out, "grid_report.csv"), "w", encoding="utf-8") as fh:
        fh.write("rank," + ",".join(keys) + f",{result.objective_name}\n")
        for rank, entry in enumerate(result.entries):
            vals = ",".join(str(entry.params[k]) for k in keys)
            fh.write(f"{rank},{vals},{entry.objective:.17g}\n")
    with open(os.path.join(args.out, "best_config.txt"), "w", encoding="utf-8") as fh:
        fh.write(config_to_text(result.best.config))
    best = ", ".join(f"{k}={result.best.params[k]}" for k in keys)
    print(
        f"grid: {len(result.entries)} combinations, best "
        f"{result.objective_name}={result.best.objective:.6g} at {best}"
    )
    return 0


# ------------------------------------------------------------------ parser


def _flags(*flags):
    """A flag group: adds its (flag, keywords) pairs to a parser in order."""
    def add(parser):
        for flag, kw in flags:
            parser.add_argument(flag, **kw)
    return add


# the flag groups several subcommands share; argparse's default is None
_OUT = _flags(("--out", dict(required=True)))
_BOW = _flags(("--bow", dict(required=True)), ("--vocab", dict(required=True)))
_LABELS = _flags(("--labels", {}))
_PRUNE = _flags(("--min-freq", dict(type=int, default=3)),
                ("--min-terms", dict(type=int, default=2)))
_TOP_N = _flags(("--top-n", dict(type=int, default=15)))

# subcommand -> (help, handler, flag groups): its subparser adds the groups'
# flags in order, its own last; the run group (_add_config_flags) and the
# synth group import trainer and synthetic, so only their commands build them
_SUBCOMMANDS = {
    "preprocess": ("filter raw text into bow + vocab", cmd_preprocess, _LABELS, _PRUNE, _OUT,
                   _flags(("--corpus", dict(required=True, help="one document per line")))),
    "cluster": ("k-means document clustering", cmd_cluster, _BOW, _OUT, _flags(
        ("--embeddings", dict(help="precomputed document embeddings (default: TF-IDF)")),
        ("--num-clusters", dict(type=int, required=True)), ("--seed", dict(type=int, default=0)),
        ("--normalize", dict(action="store_true")))),
    "train": ("fit the topic model", cmd_train, _BOW, _OUT, _add_config_flags,
              _flags(("--clusters", {}))),
    "infer": ("posterior-mean inference from a checkpoint", cmd_infer, _BOW, _TOP_N, _OUT,
              _flags(("--checkpoint", dict(required=True)), ("--clusters", dict(required=True)))),
    "eval": ("topic and clustering metrics", cmd_eval, _LABELS, _flags(
        ("--topics", dict(required=True)), ("--theta", dict(required=True)),
        ("--reference", dict(required=True, help="reference bow corpus")),
        ("--vocab", dict(required=True)),
        ("--out", dict(required=True, help="metrics.json path")))),
    "synth": ("generate a synthetic corpus", cmd_synth, _add_synth_flags, _OUT,
              _flags(("--seed", dict(type=int, default=0)))),
    "pipeline": ("preprocess/synth, cluster, train, infer, eval", cmd_pipeline, _LABELS,
                 _add_synth_flags, _PRUNE, _TOP_N, _OUT, _add_config_flags, _flags(
        ("--corpus", dict(help="raw text, one document per line")),
        ("--synth", dict(action="store_true",
                         help="generate a synthetic corpus instead of reading one")),
        ("--embeddings", dict(help="precomputed document embeddings for clustering")))),
    "grid": ("grid search over config values", cmd_grid, _BOW, _LABELS, _OUT, _add_config_flags,
             _flags(("--clusters", {}), ("--grid", dict(action="append", required=True,
                                                        help="key=v1,v2,... (repeatable)")))),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The glocom parser. Given a subcommand's name, only that subparser is
    built, and only the flag groups it takes; its usage line still lists
    every subcommand. Otherwise all of them are built."""
    parser = argparse.ArgumentParser(
        prog="glocom", description="Clustering-aggregated topic modeling for short texts.")
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        summary, func, *groups = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for add_flags in groups:
            add_flags(p)
        p.set_defaults(func=func)
    return parser


_EXIT_CODES = (
    (_MissingInput, 2),
    (ConfigError, 3),
    ((CorpusError, EmbeddingError), 4),
    (ClusteringError, 5),
    ((TrainingError, TransportError), 6),
    (GlocomError, 7),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _cap_threads()
        _pin_malloc()
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        args._argv = argv
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single translation point
        for kinds, code in _EXIT_CODES:
            if isinstance(exc, kinds):
                print(f"glocom: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
