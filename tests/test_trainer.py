import contextlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from glocom.aggregation import build_global_corpus
from glocom.corpus import BowCorpus
from glocom.ecr import DEFAULT_MAX_ITERS, DEFAULT_TOL
from glocom.errors import ConfigError, TrainingError
from glocom.model import GlocomModel, infer, load_checkpoint
from glocom.synthetic import SyntheticSpec, generate
from glocom.trainer import (
    TRAJECTORY_COLUMNS,
    TrainConfig,
    TrainReport,
    TrainSetup,
    apply_ablation,
    build_setup,
    config_to_text,
    grid_search,
    parse_config_file,
    parse_config_text,
    train,
    write_trajectory,
)


def tiny_corpus(seed=5, D=24, G=2):
    spec = SyntheticSpec(V=20, K=3, G=G, D=D, len_min=4, len_max=8, seed=seed)
    corpus, truth = generate(spec)
    return corpus


def tiny_config(**kw):
    base = dict(K=3, G=2, eta=0.1, epochs=2, batch_size=8, hidden_width=10,
                embed_dim=6, lambda_ecr=5.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def run_tiny(corpus=None, cfg=None, **train_kw):
    corpus = tiny_corpus() if corpus is None else corpus
    cfg = tiny_config() if cfg is None else cfg
    setup = build_setup(corpus, cfg, corpus.labels)
    return train(setup, **train_kw), setup


# ------------------------------------------------------------------ config


def test_config_validation_errors():
    for bad in (
        dict(K=0),
        dict(G=0),
        dict(tau=0.0),
        dict(epsilon=-1.0),
        dict(eta=-0.1),
        dict(lambda_ecr=-1.0),
        dict(epochs=-1),
        dict(batch_size=0),
        dict(lr=0.0),
        dict(ablation="nope"),
        dict(ablation="no_augmentation"),
        dict(ecr_tol=0.0),
        dict(ecr_max_iters=0),
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)


def test_config_defaults_match_documented_values():
    cfg = TrainConfig()
    assert (cfg.tau, cfg.epochs, cfg.batch_size, cfg.lr) == (0.2, 200, 200, 0.002)
    assert (cfg.hidden_width, cfg.embed_dim) == (200, 200)
    assert cfg.ablation == "full"
    assert (cfg.ecr_max_iters, cfg.ecr_tol) == (DEFAULT_MAX_ITERS, DEFAULT_TOL)


def test_config_text_round_trip():
    cfg = tiny_config(ecr_nu=0.7, ecr_max_iters=25, kl_warmup_epochs=3,
                      ablation="no_clustering", lr=0.01)
    text = config_to_text(cfg)
    assert "ecr.nu=0.7" in text and "ecr_nu" not in text
    assert "ecr.max_iters=25" in text
    assert parse_config_text(text) == cfg


def test_config_file_parsing(tmp_path):
    path = str(tmp_path / "run.cfg")
    with open(path, "w") as fh:
        fh.write(
            "# a comment line\n"
            "K=4\n"
            "eta = 0.5  # trailing comment\n"
            "\n"
            "ecr.nu=0.25\n"
            "ablation=no_clustering\n"
        )
    cfg = parse_config_file(path)
    assert cfg.K == 4 and cfg.eta == 0.5
    assert cfg.ecr_nu == 0.25 and cfg.ablation == "no_clustering"
    # untouched keys keep their defaults
    assert cfg.lr == TrainConfig().lr


def test_config_parse_rejects_bad_lines():
    for removed in ("bogus=1", "kl_attribution=divide"):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text(removed + "\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("K=3\nK=4\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("K=three\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("just a line\n")
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file("/does/not/exist.cfg")


def test_readme_config_block_matches_defaults():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    pairs = section.split("```\n", 2)[1].split()
    documented = [p.split("=", 1)[0] for p in pairs]
    defaults = [line.split("=", 1)[0] for line in config_to_text(TrainConfig()).splitlines()]
    assert documented == defaults
    assert parse_config_text("\n".join(pairs)) == TrainConfig()


# ------------------------------------------------------- setup / ablations


def test_apply_ablation_rules():
    cfg = tiny_config(ablation="no_clustering")
    assert apply_ablation(cfg, 24).G == 24
    cfg = tiny_config()
    assert apply_ablation(cfg, 24) == cfg


def test_build_setup_no_clustering_identity():
    corpus = tiny_corpus()
    setup = build_setup(corpus, tiny_config(ablation="no_clustering"), None)
    D = corpus.num_docs
    assert np.array_equal(setup.assignment, np.arange(D))
    assert setup.config.G == D
    np.testing.assert_array_equal(setup.global_corpus.global_docs, corpus.dense())


def test_build_setup_errors():
    corpus = tiny_corpus()
    with pytest.raises(TrainingError, match="required"):
        build_setup(corpus, tiny_config(), None)
    with pytest.raises(TrainingError, match="covers"):
        build_setup(corpus, tiny_config(), np.zeros(3, dtype=np.int64))
    bad = np.zeros(corpus.num_docs, dtype=np.int64)
    bad[0] = 7  # config says G=2
    with pytest.raises(TrainingError, match="outside"):
        build_setup(corpus, tiny_config(), bad)


def test_train_rejects_eta_mismatch():
    corpus = tiny_corpus()
    gc = build_global_corpus(corpus, corpus.labels, eta=0.3)
    setup = TrainSetup(corpus, corpus.labels, gc, tiny_config(eta=0.1))
    with pytest.raises(TrainingError, match="eta"):
        train(setup)


# ---------------------------------------------------------------- training


def test_epochs_zero_leaves_parameters_at_init():
    corpus = tiny_corpus()
    cfg = tiny_config(epochs=0, seed=3)
    (model, report), _ = run_tiny(corpus, cfg)
    assert report.trajectory.shape == (0, 5)
    fresh = GlocomModel(corpus.num_words, cfg.K, embed_dim=cfg.embed_dim,
                        hidden=cfg.hidden_width, tau=cfg.tau,
                        epsilon=cfg.epsilon, seed=cfg.seed)
    for p, q in zip(model.params(), fresh.params()):
        assert p.name == q.name
        np.testing.assert_array_equal(p.value, q.value)
    with pytest.raises(TrainingError, match="no epochs"):
        report.final_tm_loss


def test_lambda_zero_means_total_is_tm_loss():
    (model, report), _ = run_tiny(cfg=tiny_config(lambda_ecr=0.0, epochs=3))
    traj = report.trajectory
    assert np.all(traj[:, 4] == 0.0)
    np.testing.assert_allclose(
        traj[:, 0], traj[:, 1] + traj[:, 2] + traj[:, 3], rtol=1e-12
    )
    assert report.nu == 0.0


def test_report_counts_unconverged_transport_solves():
    (_, report), _ = run_tiny(cfg=tiny_config(ecr_max_iters=1))
    assert report.transport_solves == 2 * 3  # epochs x batches of 8 in 24 docs
    assert report.transport_unconverged == report.transport_solves
    assert report.transport_iters_mean == 1.0
    assert report.transport_marginal_err_max > tiny_config().ecr_tol
    (_, report), _ = run_tiny(cfg=tiny_config(lambda_ecr=0.0))
    assert report.transport_solves == report.transport_unconverged == 0


def test_single_step_loss_equals_dense_targets_oracle():
    # one full batch: the trainer's loss must equal forward_backward on the
    # same CSR rows bit for bit, and forward_backward on the dense rows and
    # x + eta * global_docs[assignment] targets to rounding (the sparse
    # products sum in another order than the dense ones)
    from oracles import dense_targets

    from glocom.rng import substream

    corpus = tiny_corpus()
    D = corpus.num_docs
    cfg = tiny_config(epochs=1, batch_size=D, lambda_ecr=0.0, eta=0.3)
    setup = build_setup(corpus, cfg, corpus.labels)
    _, report = train(setup)

    rng = substream(cfg.seed, "training")
    perm = rng.permutation(D)
    cids = setup.assignment[perm]
    noise_g = rng.standard_normal((np.unique(cids).size, cfg.K))
    noise_d = rng.standard_normal((D, cfg.K))
    model = GlocomModel(corpus.num_words, cfg.K, embed_dim=cfg.embed_dim,
                        hidden=cfg.hidden_width, tau=cfg.tau, epsilon=cfg.epsilon,
                        seed=cfg.seed)
    gdocs = setup.global_corpus.global_docs
    keys = ("loss", "recon", "kl_global", "kl_local", "ecr")
    x = corpus.counts.astype(np.float64)[perm]
    _, comps, _ = model.forward_backward(x, cids, gdocs, noise_g, noise_d, eta=cfg.eta)
    np.testing.assert_array_equal(report.trajectory[0], [comps[k] for k in keys])
    with dense_targets():
        _, dense, _ = model.forward_backward(x.toarray(), cids, gdocs, noise_g, noise_d,
                                             eta=cfg.eta)
    np.testing.assert_allclose(report.trajectory[0], [dense[k] for k in keys],
                               rtol=1e-13, atol=0)


def test_same_seed_gives_bit_identical_trajectories():
    (m1, r1), _ = run_tiny()
    (m2, r2), _ = run_tiny()
    assert np.array_equal(r1.trajectory, r2.trajectory)
    for p, q in zip(m1.params(), m2.params()):
        np.testing.assert_array_equal(p.value, q.value)
    (_, r3), _ = run_tiny(cfg=tiny_config(seed=1))
    assert not np.array_equal(r1.trajectory, r3.trajectory)


def test_loss_decreases_over_first_10_epochs_majority():
    spec = SyntheticSpec(V=100, K=5, G=5, D=1000, len_min=4, len_max=12, seed=0)
    corpus, _ = generate(spec)
    wins = 0
    for seed in (0, 1, 2):
        cfg = TrainConfig(K=50, G=5, epochs=10, seed=seed)
        setup = build_setup(corpus, cfg, corpus.labels)
        _, report = train(setup)
        if report.trajectory[9, 0] < report.trajectory[0, 0]:
            wins += 1
    assert wins >= 2, f"loss decreased in only {wins}/3 seeds"


def test_kl_warmup_scales_early_epochs():
    corpus = tiny_corpus()
    (_, plain), _ = run_tiny(corpus, tiny_config(epochs=4))
    (_, warm), _ = run_tiny(corpus, tiny_config(epochs=4, kl_warmup_epochs=4))
    assert warm.trajectory[0, 2] < plain.trajectory[0, 2]
    assert warm.trajectory[0, 3] < plain.trajectory[0, 3]
    assert not np.array_equal(warm.trajectory, plain.trajectory)


def test_checkpoint_round_trip_through_train(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    (model, _), setup = run_tiny(checkpoint_dir=ckpt)
    loaded = load_checkpoint(ckpt)
    x = setup.corpus.dense()
    words = setup.corpus.vocab.words
    before = infer(model, x, setup.assignment, setup.global_corpus.global_docs, words)
    after = infer(loaded, x, setup.assignment, setup.global_corpus.global_docs, words)
    np.testing.assert_array_equal(before.beta, after.beta)
    np.testing.assert_array_equal(before.theta_local, after.theta_local)
    assert before.top_words == after.top_words


STEP_CASES = {
    # x as CSR or dense; ECR on (a plan given) or off; eta; KL warm-up; or
    # every document its own cluster, the global documents the corpus rows
    "csr": dict(),
    "dense": dict(dense=True),
    "ecr_off": dict(lambda_ecr=0.0),
    "no_clustering": dict(no_clustering=True),
    "eta_0": dict(eta=0.0),
    "kl_warmup": dict(warmup=4),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_equals_three_pass_reference(case):
    # the step that applies each gradient in the backward pass against the
    # step that sums the gradients into zeroed buffers with the direct
    # squared distances and beta backward, and then runs Adam over each;
    # phi.l1.W and gamma.l1.W (400 x 100) span two Adam chunks
    from oracles import ReferenceAdam, direct_expressions, squared_distances_direct

    from glocom.ecr import TransportProblem, default_nu, sinkhorn, squared_distances
    from glocom.numerics import Adam

    opts = dict(dense=False, lambda_ecr=20.0, no_clustering=False, eta=0.1, warmup=0)
    opts.update(STEP_CASES[case])
    corpus, _ = generate(SyntheticSpec(V=400, K=3, G=3, D=30, len_min=4, len_max=9, seed=3))
    x = corpus.counts.astype(np.float64)
    if opts["dense"]:
        x = x.toarray()
    if opts["no_clustering"]:
        assignment, gdocs = np.arange(corpus.num_docs), corpus.dense().astype(np.float64)
    else:
        assignment = corpus.labels
        gdocs = build_global_corpus(corpus, assignment, opts["eta"], G=3).global_docs
    models = [GlocomModel(corpus.num_words, 4, embed_dim=12, hidden=100, seed=2)
              for _ in range(2)]
    fused, ref = Adam(models[0].params(), lr=0.01), ReferenceAdam(models[1].params(), lr=0.01)
    nu = default_nu(squared_distances(models[0].space.W.value, models[0].space.T.value))
    rng = np.random.default_rng(4)
    for step in range(6):
        idx = rng.permutation(corpus.num_docs)[:12]
        cids = assignment[idx]
        noise_g = rng.standard_normal((np.unique(cids).size, 4))
        noise_d = rng.standard_normal((idx.size, 4))
        scale = min(1.0, (step + 1) / opts["warmup"]) if opts["warmup"] else 1.0
        costs = []
        for model, opt, distances in ((models[0], fused, squared_distances),
                                      (models[1], ref, squared_distances_direct)):
            cost = psi = None
            if opts["lambda_ecr"]:
                cost = distances(model.space.W.value, model.space.T.value)
                psi = sinkhorn(TransportProblem(cost, nu)).psi
                costs.append(cost)
            with direct_expressions() if opt is ref else contextlib.nullcontext():
                model.forward_backward(x[idx], cids, gdocs, noise_g, noise_d, eta=opts["eta"],
                                       lambda_ecr=opts["lambda_ecr"], psi=psi,
                                       kl_scale=scale, sqd=cost, update=opt.update)
            opt.step()
        if costs:
            np.testing.assert_array_equal(costs[0], costs[1])
        for p, q in zip(*(m.params() for m in models)):
            np.testing.assert_array_equal(p.value, q.value, err_msg=f"{p.name} step {step}")
            np.testing.assert_array_equal(fused.m[p.name], ref.m[q.name], err_msg=p.name)
            np.testing.assert_array_equal(fused.v[p.name], ref.v[q.name], err_msg=p.name)


@pytest.mark.parametrize("overrides", [
    dict(), dict(lambda_ecr=0.0), dict(ablation="no_clustering"), dict(eta=0.0),
    dict(kl_warmup_epochs=2, epochs=3),
], ids=["ecr", "ecr_off", "no_clustering", "eta_0", "kl_warmup"])
def test_train_equals_three_pass_reference(monkeypatch, overrides):
    # train() through the reference step, the trainer's own loop driving it,
    # gives the same trajectory and parameters
    from oracles import ReferenceAdam, direct_expressions

    import glocom.trainer

    cfg = tiny_config(**overrides)
    (model, report), _ = run_tiny(cfg=cfg)
    monkeypatch.setattr(glocom.trainer, "Adam", ReferenceAdam)
    with direct_expressions():
        (ref_model, ref_report), _ = run_tiny(cfg=cfg)
    np.testing.assert_array_equal(report.trajectory, ref_report.trajectory)
    for p, q in zip(model.params(), ref_model.params()):
        np.testing.assert_array_equal(p.value, q.value, err_msg=p.name)


def test_nonfinite_loss_aborts_with_breakdown():
    cfg = tiny_config(lr=1e80, lambda_ecr=0.0, epochs=3)
    with pytest.raises(TrainingError, match="non-finite loss") as exc:
        with np.errstate(all="ignore"):  # the blow-up is the point here
            run_tiny(cfg=cfg)
    msg = str(exc.value)
    assert "recon=" in msg and "kl_global=" in msg and "kl_local=" in msg


def test_report_validation_and_writer(tmp_path):
    with pytest.raises(TrainingError, match="columns"):
        TrainReport(np.zeros((2, 3)), 0.0)
    with pytest.raises(TrainingError, match="non-finite"):
        TrainReport(np.full((2, 5), np.nan), 0.0)
    report = TrainReport(np.arange(10.0).reshape(2, 5), 0.0)
    assert report.final_tm_loss == pytest.approx(5.0 - 9.0)
    path = str(tmp_path / "traj.csv")
    write_trajectory(report, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "epoch," + ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 3 and lines[1].startswith("0,")


# ------------------------------------------------------------- grid search


def test_grid_single_point_returns_it():
    corpus = tiny_corpus()
    result = grid_search(corpus, tiny_config(epochs=1), {"eta": [0.1]},
                         assignment=corpus.labels)
    assert result.objective_name == "nmi"
    assert len(result.entries) == 1
    assert result.best.params == {"eta": 0.1}
    assert 0.0 <= result.best.objective <= 1.0


def test_grid_label_free_ranks_by_final_tm_loss():
    with_labels = tiny_corpus()
    corpus = BowCorpus(with_labels.counts, with_labels.vocab)  # labels dropped
    result = grid_search(corpus, tiny_config(epochs=1),
                         {"lr": [0.002, 0.05]}, assignment=with_labels.labels)
    assert result.objective_name == "neg_tm_loss"
    assert len(result.entries) == 2
    assert result.entries[0].objective >= result.entries[1].objective
    objs = {tuple(e.params.items()): e.objective for e in result.entries}
    assert len(objs) == 2
    for e in result.entries:
        assert e.objective == pytest.approx(-e.report.final_tm_loss)


def test_grid_tie_breaks_by_enumeration_order():
    # epochs=0 means the model never trains, so the objective ignores eta
    # entirely; the winner must be the first combination enumerated.
    corpus = tiny_corpus()
    result = grid_search(corpus, tiny_config(epochs=0), {"eta": [0.5, 0.1]},
                         assignment=corpus.labels)
    objs = [e.objective for e in result.entries]
    assert objs[0] == objs[1]
    assert result.best.params == {"eta": 0.5}


def test_grid_validation_errors():
    corpus = tiny_corpus()
    with pytest.raises(ConfigError, match="empty grid"):
        grid_search(corpus, tiny_config(), {}, assignment=corpus.labels)
    with pytest.raises(ConfigError, match="not a TrainConfig field"):
        grid_search(corpus, tiny_config(), {"nope": [1]}, assignment=corpus.labels)
    with pytest.raises(ConfigError, match="is empty"):
        grid_search(corpus, tiny_config(), {"eta": []}, assignment=corpus.labels)
    unlabeled = BowCorpus(corpus.counts, corpus.vocab)
    with pytest.raises(ConfigError, match="epochs"):
        grid_search(unlabeled, tiny_config(epochs=0), {"eta": [0.1]},
                    assignment=corpus.labels)


def test_topic_init_passes_through_to_model():
    corpus = tiny_corpus()
    cfg = tiny_config(epochs=0)
    setup = build_setup(corpus, cfg, corpus.labels)
    rng = np.random.default_rng(9)
    T0 = rng.normal(size=(cfg.K, cfg.embed_dim))
    model, _ = train(setup, topic_init=T0)
    np.testing.assert_array_equal(model.space.T.value, T0)
