import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from oracles import save_embeddings

from glocom.cli import main
from glocom.corpus import read_gemb, write_gemb


def run(*argv):
    return main([str(a) for a in argv])


SYNTH = ("--num-words", 30, "--num-topics", 3, "--num-clusters", 2,
         "--num-docs", 40, "--len-min", 4, "--len-max", 8)
TINY_TRAIN = ("--K", 3, "--G", 2, "--epochs", 2, "--batch_size", 16,
              "--hidden_width", 10, "--embed_dim", 6)


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    assert run("synth", *SYNTH, "--seed", 5, "--out", out) == 0
    return out


def test_synth_outputs_and_manifest(synth_dir):
    for name in ("bow.txt", "vocab.txt", "labels.txt", "truth_beta.csv",
                 "truth_theta_g.csv", "truth_theta_gd.csv", "manifest.json"):
        assert (synth_dir / name).exists(), name
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["command"][0] == "glocom"
    assert manifest["command"][1] == "synth"
    assert manifest["seed"] == 5
    assert "version" in manifest and "started" in manifest
    header = (synth_dir / "bow.txt").read_text().splitlines()[0].split()
    assert header[0] == "40" and header[1] == "30"


def test_missing_corpus_exits_2_with_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert run("preprocess", "--corpus", missing, "--out", tmp_path / "o") == 2
    assert missing in capsys.readouterr().err


def test_preprocess_keep_all_and_defaults(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("aa bb rare\naa bb\naa bb\ncc dd\n")
    out = tmp_path / "keep"
    assert run("preprocess", "--corpus", raw, "--min-freq", 1,
               "--min-terms", 1, "--out", out) == 0
    vocab = (out / "vocab.txt").read_text().split()
    assert set(vocab) == {"aa", "bb", "rare", "cc", "dd"}
    kept = (out / "kept.txt").read_text().split()
    assert kept == ["0", "1", "2", "3"]
    out2 = tmp_path / "filtered"
    assert run("preprocess", "--corpus", raw, "--out", out2) == 0
    assert set((out2 / "vocab.txt").read_text().split()) == {"aa", "bb"}
    assert (out2 / "kept.txt").read_text().split() == ["0", "1", "2"]


def test_staged_flow_matches_library_eval(tmp_path, synth_dir):
    clus, tr, inf = tmp_path / "c", tmp_path / "t", tmp_path / "i"
    metrics = tmp_path / "metrics.json"
    assert run("cluster", "--bow", synth_dir / "bow.txt", "--vocab",
               synth_dir / "vocab.txt", "--num-clusters", 2, "--out", clus) == 0
    assert run("train", "--bow", synth_dir / "bow.txt", "--vocab",
               synth_dir / "vocab.txt", "--clusters", clus / "assignment.txt",
               *TINY_TRAIN, "--out", tr) == 0
    assert (tr / "checkpoint" / "manifest.txt").exists()
    assert (tr / "trajectory.csv").read_text().count("\n") == 3  # header + 2
    assert run("infer", "--checkpoint", tr / "checkpoint", "--bow",
               synth_dir / "bow.txt", "--vocab", synth_dir / "vocab.txt",
               "--clusters", clus / "assignment.txt", "--top-n", 5,
               "--out", inf) == 0
    assert run("eval", "--topics", inf / "topics.txt", "--theta",
               inf / "theta_local.csv", "--labels", synth_dir / "labels.txt",
               "--reference", synth_dir / "bow.txt", "--vocab",
               synth_dir / "vocab.txt", "--out", metrics) == 0

    data = json.loads(metrics.read_text())
    assert set(data) == {"td", "purity", "nmi", "npmi", "npmi_per_topic"}

    from glocom.corpus import read_bow, read_label_file, read_vocabulary
    from glocom.eval import (
        assign_documents,
        nmi,
        npmi_coherence,
        purity,
        read_topics,
        topic_diversity,
    )

    vocab = read_vocabulary(str(synth_dir / "vocab.txt"))
    ref = read_bow(str(synth_dir / "bow.txt"), vocab)
    topics = read_topics(str(inf / "topics.txt"))
    theta = np.loadtxt(str(inf / "theta_local.csv"), delimiter=",", ndmin=2)
    labels = read_label_file(str(synth_dir / "labels.txt"))
    overall, _ = npmi_coherence(topics, ref)
    pred = assign_documents(theta)
    assert data["td"] == topic_diversity(topics)
    assert data["npmi"] == pytest.approx(overall, abs=1e-15)
    assert data["purity"] == pytest.approx(purity(pred, labels), abs=1e-15)
    assert data["nmi"] == pytest.approx(nmi(pred, labels), abs=1e-15)
    assert (tmp_path / "eval-manifest.json").exists()


def test_eval_rejects_theta_with_non_finite_entries(tmp_path, capsys):
    # np.argmax would take a NaN as the largest entry
    p = tmp_path / "p"
    assert run("pipeline", "--synth", *SYNTH, *TINY_TRAIN, "--seed", 7, "--out", p) == 0
    rows = (p / "infer" / "theta_local.csv").read_text().splitlines()
    rows[0] = "nan," + rows[0].split(",", 1)[1]
    rows[1] = rows[1].rsplit(",", 1)[0] + ",inf"
    theta = tmp_path / "theta.csv"
    theta.write_text("\n".join(rows) + "\n")
    metrics = tmp_path / "metrics.json"
    capsys.readouterr()
    assert run("eval", "--topics", p / "infer" / "topics.txt", "--theta", theta,
               "--labels", p / "corpus" / "labels.txt", "--reference", p / "corpus" / "bow.txt",
               "--vocab", p / "corpus" / "vocab.txt", "--out", metrics) == 7
    assert str(theta) in capsys.readouterr().err
    assert not metrics.exists()


def test_pipeline_synth_determinism(tmp_path):
    args = ("pipeline", "--synth", *SYNTH, *TINY_TRAIN, "--seed", 7)
    assert run(*args, "--out", tmp_path / "a") == 0
    assert run(*args, "--out", tmp_path / "b") == 0
    for rel in ("metrics.json", "infer/topics.txt"):
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, f"{rel} differs between same-seed runs"
    for rel in ("manifest.json", "corpus/bow.txt", "cluster/assignment.txt",
                "train/checkpoint/manifest.txt", "train/trajectory.csv",
                "train/config.txt", "infer/theta_local.csv"):
        assert (tmp_path / "a" / rel).exists(), rel


# every artifact of the chain; manifests differ in their command and time
STAGE_ARTIFACTS = (
    "corpus/bow.txt", "corpus/vocab.txt", "corpus/labels.txt",
    "corpus/truth_beta.csv", "corpus/truth_theta_g.csv", "corpus/truth_theta_gd.csv",
    "cluster/assignment.txt", "train/trajectory.csv", "train/config.txt",
    "infer/topics.txt", "infer/theta_local.csv", "infer/theta_global.csv",
    "infer/beta.csv", "metrics.json",
)


@pytest.mark.parametrize("precomputed", [False, True], ids=["tfidf", "embeddings"])
def test_pipeline_equals_staged_commands(tmp_path, capsys, precomputed):
    emb = ()
    if precomputed:
        # two well-separated blobs that TF-IDF rows would not reproduce
        rng = np.random.default_rng(0)
        M = np.repeat([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]], 20, axis=0)
        save_embeddings(M + rng.normal(scale=0.1, size=M.shape), tmp_path / "docs.gemb")
        emb = ("--embeddings", tmp_path / "docs.gemb")
    p, s = tmp_path / "pipeline", tmp_path / "staged"
    assert run("pipeline", "--synth", *SYNTH, *TINY_TRAIN, "--seed", 7, *emb,
               "--out", p) == 0
    piped = capsys.readouterr().out.splitlines()

    corpus = s / "corpus"
    bow, vocab = ("--bow", corpus / "bow.txt"), ("--vocab", corpus / "vocab.txt")
    assignment = ("--clusters", s / "cluster" / "assignment.txt")
    assert run("synth", *SYNTH, "--seed", 7, "--out", corpus) == 0
    assert run("cluster", *bow, *vocab, "--num-clusters", 2, "--seed", 7, *emb,
               "--out", s / "cluster") == 0
    assert run("train", *bow, *vocab, *assignment, *TINY_TRAIN, "--seed", 7,
               "--out", s / "train") == 0
    assert run("infer", "--checkpoint", s / "train" / "checkpoint", *bow, *vocab,
               *assignment, "--out", s / "infer") == 0
    assert run("eval", "--topics", s / "infer" / "topics.txt",
               "--theta", s / "infer" / "theta_local.csv",
               "--labels", corpus / "labels.txt", "--reference", corpus / "bow.txt",
               *vocab, "--out", s / "metrics.json") == 0
    staged = capsys.readouterr().out.splitlines()

    checkpoint = sorted(f.name for f in (s / "train" / "checkpoint").iterdir())
    assert checkpoint == sorted(f.name for f in (p / "train" / "checkpoint").iterdir())
    for rel in STAGE_ARTIFACTS + tuple(f"train/checkpoint/{f}" for f in checkpoint):
        assert (p / rel).read_bytes() == (s / rel).read_bytes(), rel
    # pipeline prints each stage's summary line; only the train line's wall
    # time and checkpoint path may differ
    assert [line.split(":")[0] for line in piped] == [
        "synth", "cluster", "train", "infer", "eval"]
    assert [line for line in piped if not line.startswith("train:")] == [
        line for line in staged if not line.startswith("train:")]
    if precomputed:
        ids = [int(v) for v in (p / "cluster" / "assignment.txt").read_text().split()]
        assert len(set(ids[:20])) == len(set(ids[20:])) == 1 and ids[0] != ids[20]


@pytest.mark.parametrize("flag", ["--corpus", "--labels", "--embeddings",
                                  "--word-embeddings"])
def test_pipeline_missing_input_file_exits_2(tmp_path, capsys, flag):
    missing = str(tmp_path / "nope.bin")
    code = run("pipeline", "--synth", *SYNTH, *TINY_TRAIN, flag, missing,
               "--out", tmp_path / "o")
    assert code == 2
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("top_n", [0, -1])
def test_pipeline_rejects_top_n_below_one(tmp_path, capsys, top_n):
    code = run("pipeline", "--synth", *SYNTH, *TINY_TRAIN, "--top-n", top_n,
               "--out", tmp_path / "o")
    assert code == 3
    assert f"--top-n must be at least 1, got {top_n}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_pipeline_no_clustering_skips_cluster_stage(tmp_path):
    out = tmp_path / "noc"
    assert run("pipeline", "--synth", *SYNTH, *TINY_TRAIN, "--epochs", 1,
               "--ablation", "no_clustering", "--out", out) == 0
    assert not (out / "cluster").exists()
    assert (out / "metrics.json").exists()
    cfg = (out / "train" / "config.txt").read_text()
    assert "G=40" in cfg  # one cluster per document


def test_pipeline_stage_failure_names_stage(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("one\ntwo\nthree\n")  # every doc below min_terms=2
    code = run("pipeline", "--corpus", raw, "--min-freq", 1, *TINY_TRAIN,
               "--out", tmp_path / "o")
    assert code == 4
    err = capsys.readouterr().err
    assert "[corpus]" in err
    # the run manifest still exists even though the pipeline failed early
    assert (tmp_path / "o" / "manifest.json").exists()
    assert not (tmp_path / "o" / "metrics.json").exists()


def test_pipeline_transport_failure_exit_6(tmp_path, capsys):
    # subnormal nu makes cost/nu overflow; the log-domain solver handles
    # anything merely tiny, so only a true overflow trips the guard
    code = run("pipeline", "--synth", *SYNTH, *TINY_TRAIN,
               "--ecr.nu", "1e-320", "--out", tmp_path / "o")
    assert code == 6
    assert "[train]" in capsys.readouterr().err


def test_bad_config_file_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key=1\n")
    code = run("train", "--bow", "x", "--vocab", "y", "--config", cfg,
               "--out", tmp_path / "o")
    assert code == 3
    assert "unknown config key" in capsys.readouterr().err


def test_removed_settings_fail_loudly(tmp_path, capsys):
    # ecr.nu=0.0, the removed automatic entropy weight, is in every
    # config.txt written while it was the default
    for body, named in (("kl_attribution=divide\n", "kl_attribution"),
                        ("ablation=no_augmentation\n", "no_augmentation"),
                        ("ecr.nu=0.0\n", "ecr.nu=0.0")):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(body)
        assert run("pipeline", "--synth", "--config", cfg, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert "glocom:" in err and named in err
    with pytest.raises(SystemExit) as exc:
        run("pipeline", "--synth", "--ablation", "no_augmentation", "--out", tmp_path / "o")
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# a bad CSV matrix as theta (exit 7) or as document embeddings (exit 4):
# its bytes, and the line its error names
BAD_MATRICES = {
    "ragged": (b"0.5,0.5\n0.25\n", 2),
    "unparseable": (b"0.5,0.5\n\n0.25,x\n", 3),
    "non-finite": (b"0.5,0.5\n0.25,nan\n", None),
    "empty": (b"\n", None),
    "not-utf8": (b"\xff\xfe", None),
}

# the first checkpoint manifest line with a prefix, and what it is cut to
MANIFEST_CUTS = {
    "checkpoint-meta": ("meta tau ", lambda fields: "meta tau"),
    "checkpoint-tensor": ("tensor ", lambda fields: " ".join(fields[:3])),
    "checkpoint-shape": ("tensor ", lambda fields: " ".join([*fields[:2], "x", *fields[3:]])),
    "checkpoint-version": ("glocom-checkpoint", lambda fields: "glocom-checkpoint 2"),
}


@pytest.mark.parametrize("case, code", [
    ("assignment", 5),
    ("assignment-negative", 5),
    ("checkpoint-header", 6),
    ("checkpoint-payload", 6),
    ("theta", 7),
    ("word-embeddings", 4),
    ("word-embeddings-nan", 4),
    ("word-embeddings-inf", 4),
    ("checkpoint-meta", 6),
    ("checkpoint-tensor", 6),
    ("checkpoint-shape", 6),
    ("checkpoint-version", 6),
    ("checkpoint-transposed", 6),
    ("top-n-0", 3),
    ("top-n--1", 3),
    *((f"theta-{name}", 7) for name in BAD_MATRICES),
    *((f"embeddings-{name}", 4) for name in BAD_MATRICES),
])
def test_malformed_input_exits_with_its_code(tmp_path, synth_dir, capsys, case, code):
    bow, vocab = synth_dir / "bow.txt", synth_dir / "vocab.txt"
    assignment = tmp_path / "c" / "assignment.txt"
    assert run("cluster", "--bow", bow, "--vocab", vocab, "--num-clusters", 2,
               "--out", tmp_path / "c") == 0

    def train(clusters, *extra):
        return run("train", "--bow", bow, "--vocab", vocab, "--clusters", clusters,
                   *TINY_TRAIN, "--epochs", 1, *extra, "--out", tmp_path / "t")

    def infer(*extra):
        return run("infer", "--checkpoint", tmp_path / "t" / "checkpoint", "--bow", bow,
                   "--vocab", vocab, "--clusters", assignment, *extra, "--out", tmp_path / "i")

    bad = tmp_path / "bad.txt"
    if case == "assignment":
        bad.write_text("0\nx\n")
        got = train(bad)
    elif case == "assignment-negative":
        bad.write_text("0\n-1\n" + "0\n" * 38)
        got = train(bad)
        bad = f"{bad}:2: cluster id -1 out of range for G=2"
    elif case.startswith("word-embeddings"):
        value = {"word-embeddings": "abc", "word-embeddings-nan": "nan",
                 "word-embeddings-inf": "-inf"}[case]
        bad.write_text(f"{vocab.read_text().split()[0]} 0.1 {value} 0.3\n")
        got = train(assignment, "--word-embeddings", bad)
        bad = f"{bad}:1:"
    elif case.startswith("embeddings-"):
        body, line = BAD_MATRICES[case[len("embeddings-"):]]
        bad.write_bytes(body)
        got = run("cluster", "--bow", bow, "--vocab", vocab, "--num-clusters", 2,
                  "--embeddings", bad, "--out", tmp_path / "e")
        bad = f"{bad}:{line}:" if line else bad
    else:
        assert train(assignment) == 0 and infer() == 0
        if case.startswith("theta"):
            body, line = BAD_MATRICES.get(case[len("theta-"):], (b"x,y\n", None))
            bad.write_bytes(body)
            got = run("eval", "--topics", tmp_path / "i" / "topics.txt", "--theta", bad,
                      "--reference", bow, "--vocab", vocab, "--out", tmp_path / "m.json")
            bad = f"{bad}:{line}:" if line else bad
        elif case in MANIFEST_CUTS:
            bad = tmp_path / "t" / "checkpoint" / "manifest.txt"
            lines = bad.read_text().splitlines()
            prefix, cut = MANIFEST_CUTS[case]
            i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
            lines[i] = cut(lines[i].split())
            bad.write_text("\n".join(lines) + "\n")
            got = infer()
            bad = f"{bad}:{i + 1}:"
        elif case.startswith("top-n-"):
            # nothing is written: the earlier run's topics stay as they were
            topics = (tmp_path / "i" / "topics.txt").read_bytes()
            value = case[len("top-n-"):]
            got = infer("--top-n", value)
            assert (tmp_path / "i" / "topics.txt").read_bytes() == topics
            bad = f"--top-n must be at least 1, got {value}"
        elif case == "checkpoint-transposed":
            # phi.l1.W written (num_words, hidden), its manifest line to match
            bad = tmp_path / "t" / "checkpoint" / "phi.l1.W.bin"
            W = read_gemb(str(bad), "<f8")
            write_gemb(np.ascontiguousarray(W.T), str(bad))
            manifest = bad.parent / "manifest.txt"
            manifest.write_text(manifest.read_text().replace(
                f"tensor phi.l1.W {W.shape[0]} {W.shape[1]} ",
                f"tensor phi.l1.W {W.shape[1]} {W.shape[0]} "))
            got = infer()
        else:
            bad = tmp_path / "t" / "checkpoint" / "space.W.bin"
            data = bad.read_bytes()
            bad.write_bytes(data[:10] if case == "checkpoint-header" else data[:-8])
            got = infer()
    err = capsys.readouterr().err
    assert got == code
    assert err.startswith("glocom: ") and str(bad) in err


def test_train_config_records_word_embedding_width(tmp_path, synth_dir):
    bow, vocab = synth_dir / "bow.txt", synth_dir / "vocab.txt"
    words = tmp_path / "words.txt"
    words.write_text(vocab.read_text().split()[0] + " 0.1 0.2 0.3\n")
    flags = (*TINY_TRAIN, "--epochs", 1, "--ablation", "no_clustering",
             "--word-embeddings", words)
    assert run("train", "--bow", bow, "--vocab", vocab, *flags, "--out", tmp_path / "t") == 0
    assert "embed_dim=3" in (tmp_path / "t" / "config.txt").read_text().splitlines()
    ckpt = (tmp_path / "t" / "checkpoint" / "manifest.txt").read_text()
    assert "meta embed_dim 3" in ckpt.splitlines()


def test_config_flag_overrides_file(tmp_path, synth_dir):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("K=4\nG=2\nepochs=1\nbatch_size=16\n"
                   "hidden_width=10\nembed_dim=6\n")
    out = tmp_path / "t"
    assert run("train", "--bow", synth_dir / "bow.txt", "--vocab",
               synth_dir / "vocab.txt", "--config", cfg,
               "--ablation", "no_clustering", "--K", 3, "--out", out) == 0
    resolved = (out / "config.txt").read_text().splitlines()
    assert "K=3" in resolved  # flag beats file
    assert "epochs=1" in resolved  # file beats default


def test_infer_missing_checkpoint_exits_2(tmp_path, synth_dir, capsys):
    code = run("infer", "--checkpoint", tmp_path / "nope", "--bow",
               synth_dir / "bow.txt", "--vocab", synth_dir / "vocab.txt",
               "--clusters", synth_dir / "labels.txt", "--out", tmp_path / "o")
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err


def test_glocom_threads_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GLOCOM_THREADS", "non-numeric")
    assert run("synth", *SYNTH, "--out", tmp_path / "s") == 3
    capsys.readouterr()
    monkeypatch.setenv("GLOCOM_THREADS", "2")
    assert run("synth", *SYNTH, "--out", tmp_path / "s") == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_module_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "glocom.cli", "not-a-command"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_infer_unused_cluster_id_gets_prior_mean(tmp_path):
    # ids {0, 2} of G=3: training accepts this with a warning, and inference
    # gives the memberless cluster 1 the prior mean instead of failing
    import scipy.sparse as sp

    from glocom.cli import run_infer
    from glocom.corpus import BowCorpus, Vocabulary
    from glocom.model import GlocomModel, save_checkpoint

    rng = np.random.default_rng(0)
    counts = rng.integers(0, 3, size=(12, 9))
    counts[:, 0] += 1
    corpus = BowCorpus(sp.csr_matrix(counts), Vocabulary([f"w{i}" for i in range(9)]))
    assignment = np.array([0, 2] * 6)
    save_checkpoint(GlocomModel(9, 4, embed_dim=5, hidden=6, seed=1), str(tmp_path / "c"))
    with pytest.warns(UserWarning, match="no documents"):
        out = run_infer(str(tmp_path / "c"), corpus, assignment, 3, str(tmp_path / "i"))
    assert out.theta_global.shape == (3, 4)
    np.testing.assert_array_equal(out.theta_global[1], np.full(4, 0.25))
    assert np.all(np.isfinite(out.theta_local))
    np.testing.assert_allclose(out.theta_global.sum(axis=1), 1.0, atol=1e-12)


def test_bow_truncated_or_ragged_exits_4(tmp_path, synth_dir, capsys):
    lines = (synth_dir / "bow.txt").read_text().splitlines()
    broken = {
        "truncated": lines[:-3],
        "ragged": lines[:5] + [lines[5].rsplit(" ", 1)[0]] + lines[6:],
    }
    for name, body in broken.items():
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(body) + "\n")
        code = run("cluster", "--bow", path, "--vocab", synth_dir / "vocab.txt",
                   "--num-clusters", 2, "--out", tmp_path / name)
        assert code == 4, name
        assert str(path) in capsys.readouterr().err


def test_pin_malloc_is_a_no_op_without_mallopt(monkeypatch):
    import glocom.cli

    class NoMallopt:
        pass

    monkeypatch.setattr(glocom.cli.ctypes, "CDLL", lambda name: NoMallopt())
    assert glocom.cli._pin_malloc() is None

    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(glocom.cli.ctypes, "CDLL", no_library)
    assert glocom.cli._pin_malloc() is None


# each command's input flags, every one given in the manifest test below
INPUT_FLAGS = {
    "preprocess": ("--corpus", "--labels"),
    "cluster": ("--bow", "--vocab", "--embeddings"),
    "train": ("--bow", "--vocab", "--clusters", "--config", "--word-embeddings"),
    "infer": ("--checkpoint", "--bow", "--vocab", "--clusters"),
    "eval": ("--topics", "--theta", "--reference", "--vocab", "--labels"),
    "pipeline": ("--corpus", "--labels", "--embeddings", "--config", "--word-embeddings"),
}
OTHER_FLAGS = {
    "preprocess": ("--min-freq", 1, "--min-terms", 1),
    "cluster": ("--num-clusters", 2),
    "train": TINY_TRAIN,
    "pipeline": (*TINY_TRAIN, "--min-freq", 1, "--min-terms", 1),
}


@pytest.fixture(scope="module")
def staged_inputs(tmp_path_factory):
    """One file for every input flag: a 40-document synthetic corpus, raw
    text of 40 lines, its cluster assignment, a checkpoint and its infer
    outputs."""
    d = tmp_path_factory.mktemp("inputs")
    assert run("synth", *SYNTH, "--seed", 5, "--out", d / "synth") == 0
    bow, vocab = d / "synth" / "bow.txt", d / "synth" / "vocab.txt"
    raw = d / "raw.txt"
    raw.write_text("".join(f"a{i % 5} b{i % 3} c{i % 7}\n" for i in range(40)))
    save_embeddings(np.random.default_rng(0).normal(size=(40, 3)), d / "docs.gemb")
    words = d / "words.txt"
    words.write_text(f"{vocab.read_text().split()[0]} 0.1 0.2 0.3\na0 0.3 0.2 0.1\n")
    config = d / "run.cfg"
    config.write_text("epochs=1\n")
    assert run("cluster", "--bow", bow, "--vocab", vocab, "--num-clusters", 2,
               "--out", d / "c") == 0
    assignment = d / "c" / "assignment.txt"
    assert run("train", "--bow", bow, "--vocab", vocab, "--clusters", assignment,
               *TINY_TRAIN, "--out", d / "t") == 0
    assert run("infer", "--checkpoint", d / "t" / "checkpoint", "--bow", bow,
               "--vocab", vocab, "--clusters", assignment, "--out", d / "i") == 0
    return {
        "--corpus": raw, "--labels": d / "synth" / "labels.txt", "--bow": bow,
        "--reference": bow, "--vocab": vocab, "--embeddings": d / "docs.gemb",
        "--clusters": assignment, "--config": config, "--word-embeddings": words,
        "--checkpoint": d / "t" / "checkpoint", "--topics": d / "i" / "topics.txt",
        "--theta": d / "i" / "theta_local.csv",
    }


@pytest.mark.parametrize("command", sorted(INPUT_FLAGS))
def test_manifest_hashes_every_input_file_given(tmp_path, staged_inputs, command):
    import hashlib

    flags = INPUT_FLAGS[command]
    given = [a for flag in flags for a in (flag, staged_inputs[flag])]
    out = tmp_path / ("metrics.json" if command == "eval" else "o")
    assert run(command, *given, *OTHER_FLAGS.get(command, ()), "--out", out) == 0
    manifest = tmp_path / "eval-manifest.json" if command == "eval" else out / "manifest.json"
    inputs = json.loads(manifest.read_text())["inputs"]
    files = {staged_inputs[flag] for flag in flags}
    if command == "infer":
        files = files - {staged_inputs["--checkpoint"]} | {
            staged_inputs["--checkpoint"] / "manifest.txt"}
    assert inputs == {str(f): hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("case, code", [
    ("preprocess-min-freq-0", 4),
    ("cluster-num-clusters-0", 5),
    ("train-short-assignment", 5),
    ("infer-truncated-tensor", 6),
    ("infer-short-assignment", 5),
    ("eval-bad-topics", 7),
    ("cluster-bow-header", 4),
    ("preprocess-label-overflow", 4),
    ("train-assignment-overflow", 5),
])
def test_stopped_command_writes_nothing(tmp_path, staged_inputs, capsys, case, code):
    inputs = staged_inputs
    bow = ("--bow", inputs["--bow"], "--vocab", inputs["--vocab"])
    short = tmp_path / "short.txt"
    short.write_text("0\n" * 10)  # for a 40-document corpus
    checkpoint = tmp_path / "checkpoint"
    shutil.copytree(inputs["--checkpoint"], checkpoint)
    tensor = checkpoint / "space.W.bin"
    tensor.write_bytes(tensor.read_bytes()[:-8])
    topics = tmp_path / "topics.txt"
    topics.write_text("x a b\n")
    header = tmp_path / "header.txt"
    header.write_text("x y z\n")
    huge = tmp_path / "huge.txt"
    huge.write_text("0\n" * 39 + "99999999999999999999\n")
    argv = {
        "preprocess-min-freq-0": ("preprocess", "--corpus", inputs["--corpus"], "--min-freq", 0),
        "cluster-num-clusters-0": ("cluster", *bow, "--num-clusters", 0),
        "train-short-assignment": ("train", *bow, "--clusters", short, *TINY_TRAIN),
        "infer-truncated-tensor": ("infer", "--checkpoint", checkpoint, *bow,
                                   "--clusters", inputs["--clusters"]),
        "infer-short-assignment": ("infer", "--checkpoint", inputs["--checkpoint"], *bow,
                                   "--clusters", short),
        "eval-bad-topics": ("eval", "--topics", topics, "--theta", inputs["--theta"],
                            "--reference", inputs["--bow"], "--vocab", inputs["--vocab"]),
        "cluster-bow-header": ("cluster", "--bow", header, "--vocab", inputs["--vocab"],
                               "--num-clusters", 2),
        "preprocess-label-overflow": ("preprocess", "--corpus", inputs["--corpus"],
                                      "--labels", huge),
        "train-assignment-overflow": ("train", *bow, "--clusters", huge, *TINY_TRAIN),
    }[case]
    out = tmp_path / "fresh"
    assert run(*argv, "--out", out / "metrics.json" if argv[0] == "eval" else out) == code
    assert capsys.readouterr().err.startswith("glocom: ")
    assert not out.exists()


# each text input, a command that reads it, and the exit code of its error
NOT_UTF8 = {
    "--corpus": ("preprocess", 4), "--labels": ("preprocess", 4), "--bow": ("cluster", 4),
    "--vocab": ("cluster", 4), "--embeddings": ("cluster", 4), "--reference": ("eval", 4),
    "--topics": ("eval", 7), "--theta": ("eval", 7), "--clusters": ("train", 5),
    "--config": ("train", 3), "--word-embeddings": ("train", 4), "--checkpoint": ("infer", 6),
}


@pytest.mark.parametrize("flag", list(NOT_UTF8))
def test_text_input_not_utf8_exits_with_its_code(tmp_path, staged_inputs, capsys, flag):
    command, code = NOT_UTF8[flag]
    files = {f: staged_inputs[f] for f in INPUT_FLAGS[command]}
    if flag == "--checkpoint":  # the checkpoint's text file is its manifest
        files[flag] = tmp_path / "checkpoint"
        shutil.copytree(staged_inputs[flag], files[flag])
        bad = files[flag] / "manifest.txt"
    else:
        bad = files[flag] = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe")
    given = [a for flag_path in files.items() for a in flag_path]
    out = tmp_path / "fresh"
    assert run(command, *given, *OTHER_FLAGS.get(command, ()),
               "--out", out / "metrics.json" if command == "eval" else out) == code
    assert capsys.readouterr().err.startswith(f"glocom: {bad}: not UTF-8 text")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train"])
def test_unread_missing_input_exits_2(tmp_path, synth_dir, capsys, command):
    # no_clustering never reads --clusters, but a given input is still checked
    missing = str(tmp_path / "nope.txt")
    code = run(command, "--bow", synth_dir / "bow.txt", "--vocab", synth_dir / "vocab.txt",
               *TINY_TRAIN, "--ablation", "no_clustering", "--clusters", missing,
               "--out", tmp_path / "o")
    assert code == 2
    assert f"cluster assignment file missing: {missing}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_directory_as_corpus_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("preprocess", "--corpus", tmp_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"glocom: cannot read input file {tmp_path}: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train"])
def test_directory_as_clusters_exits_2_and_writes_nothing(tmp_path, synth_dir, capsys, command):
    out = tmp_path / "o"
    code = run(command, "--bow", synth_dir / "bow.txt", "--vocab", synth_dir / "vocab.txt",
               *TINY_TRAIN, "--clusters", synth_dir, "--out", out)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"glocom: cannot read input file {synth_dir}: ")
    assert not out.exists()


def test_synth_flag_defaults_are_the_spec_defaults(tmp_path):
    from glocom.cli import run_synth
    from glocom.synthetic import SyntheticSpec

    assert run("synth", "--seed", 3, "--out", tmp_path / "cli") == 0
    run_synth(SyntheticSpec(seed=3), str(tmp_path / "lib"))
    names = sorted(f.name for f in (tmp_path / "lib").iterdir())
    assert sorted(f.name for f in (tmp_path / "cli").iterdir()) == sorted(
        names + ["manifest.json"])
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


@pytest.mark.parametrize("argv", [
    ("synth", "--num-docs", 0),
    ("synth", "--len-min", 1),
    ("synth", "--block-mass", 1.5),
    ("pipeline", "--synth", "--num-topics", 200),
    ("synth", "--seed", -1),
    ("synth", "--epsilon-true", "nan"),
    ("pipeline", "--synth", "--seed", -1),
], ids=["num-docs-0", "len-min-1", "block-mass-1.5", "pipeline-num-topics-200", "seed--1",
        "epsilon-true-nan", "pipeline-seed--1"])
def test_bad_synth_size_exits_3(tmp_path, capsys, argv):
    assert run(*argv, "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err.startswith("glocom: ")
    assert not (tmp_path / "o").exists()


def test_cluster_negative_seed_exits_3(tmp_path, synth_dir, capsys):
    code = run("cluster", "--bow", synth_dir / "bow.txt", "--vocab", synth_dir / "vocab.txt",
               "--num-clusters", 2, "--seed", -1, "--out", tmp_path / "c")
    assert code == 3
    assert capsys.readouterr().err == "glocom: seed must be non-negative, got -1\n"
    assert not (tmp_path / "c").exists()


# a representative command line per subcommand
PARSE_ARGV = {
    "preprocess": ("--corpus", "c.txt", "--labels", "l.txt", "--min-freq", 1, "--out", "o"),
    "cluster": ("--bow", "b", "--vocab", "v", "--num-clusters", 3, "--seed", 2, "--normalize",
                "--out", "o"),
    "train": ("--bow", "b", "--vocab", "v", "--clusters", "a", "--K", 3, "--ecr.nu", 0.1,
              "--ablation", "no_clustering", "--out", "o"),
    "infer": ("--checkpoint", "c", "--bow", "b", "--vocab", "v", "--clusters", "a",
              "--top-n", 4, "--out", "o"),
    "eval": ("--topics", "t", "--theta", "th", "--reference", "b", "--vocab", "v",
             "--out", "m.json"),
    "synth": ("--num-docs", 7, "--epsilon-true", 0.5, "--seed", 3, "--out", "o"),
    "pipeline": ("--synth", "--seed", 3, "--num-topics", 4, "--top-n", 5, "--out", "o"),
}


@pytest.mark.parametrize("command", list(PARSE_ARGV))
def test_one_subcommand_parser_matches_full_parser(command, capsys):
    from glocom.cli import build_parser

    def outcome(parser, argv):
        try:
            result = vars(parser.parse_args([str(a) for a in argv]))
        except SystemExit as exc:
            result = exc.code
        out = capsys.readouterr()
        return result, out.out, out.err

    cases = {
        "parse": (command, *PARSE_ARGV[command]),
        "help": (command, "--help"),
        "missing": (command,),
        "unrecognized": (command, *PARSE_ARGV[command], "extra"),
    }
    got = {}
    for case, argv in cases.items():
        got[case] = outcome(build_parser(command), argv)
        assert got[case] == outcome(build_parser(), argv), case
    assert got["parse"][0]["func"].__name__ == "cmd_" + command
    assert got["help"][0] == 0 and got["help"][1].startswith(f"usage: glocom {command} [-h]")
    assert got["missing"][0] == 2 and "the following arguments are required" in got["missing"][2]
    # the usage line of an error the top-level parser prints names every subcommand
    assert got["unrecognized"][0] == 2
    assert "{preprocess,cluster,train,infer,eval,synth,pipeline}" in got["unrecognized"][2]


def test_module_help_lists_every_subcommand():
    proc = subprocess.run([sys.executable, "-m", "glocom.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for command in PARSE_ARGV:
        assert f"    {command} " in proc.stdout, command


def test_preprocess_and_eval_import_neither_trainer_nor_scipy_special(tmp_path):
    # a stage command builds only its own parser, so the config flags'
    # trainer import stays out of these two stages; no stage at all loads
    # scipy.special, so cluster, train and infer run after them leave it out too
    raw = tmp_path / "raw.txt"
    raw.write_text("".join(f"a{i % 3} b{i % 2} c{i % 4}\n" for i in range(12)))
    (tmp_path / "topics.txt").write_text("0 a0 b0\n1 b1 c0\n")
    (tmp_path / "theta.csv").write_text("0.5,0.5\n" * 12)
    script = f"""
import sys
from glocom.cli import main
d = {str(tmp_path)!r}
bow = ["--bow", d + "/corpus/bow.txt", "--vocab", d + "/corpus/vocab.txt"]
loaded = lambda: sorted(m for m in ("glocom.trainer", "scipy.special") if m in sys.modules)
codes = [main(["preprocess", "--corpus", d + "/raw.txt", "--min-freq", "1", "--min-terms", "1",
               "--out", d + "/corpus"]),
         main(["eval", "--topics", d + "/topics.txt", "--theta", d + "/theta.csv",
               "--reference", d + "/corpus/bow.txt", "--vocab", d + "/corpus/vocab.txt",
               "--out", d + "/metrics.json"])]
print(codes, loaded())
clusters = ["--clusters", d + "/cluster/assignment.txt"]
codes = [main(["cluster", *bow, "--num-clusters", "2", "--out", d + "/cluster"]),
         main(["train", *bow, *clusters, "--K", "2", "--G", "2", "--epochs", "1",
               "--hidden_width", "4", "--embed_dim", "3", "--out", d + "/train"]),
         main(["infer", "--checkpoint", d + "/train/checkpoint", *bow, *clusters,
               "--out", d + "/infer"])]
print(codes, loaded())
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    printed = [line for line in proc.stdout.splitlines() if line.startswith("[")]
    assert printed == ["[0, 0] []", "[0, 0, 0] ['glocom.trainer']"]
