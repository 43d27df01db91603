import math
import struct

import numpy as np
import pytest
import scipy.sparse as sp
from fd import central_diff, rel_err
from oracles import (
    GradientSink,
    compute_beta_backward_direct,
    corpus_loss,
    dense_targets,
    discard,
)
from scipy.special import logsumexp

import glocom.model
from glocom.corpus import _GEMB_MAGIC, read_gemb, write_gemb
from glocom.ecr import sinkhorn
from glocom.errors import ConfigError, TrainingError
from glocom.model import (
    GlocomModel,
    LatentBatch,
    TopicSpace,
    combine,
    compute_beta,
    compute_beta_backward,
    infer,
    load_checkpoint,
    normalize_rows,
    save_checkpoint,
    top_word_ids,
)
from glocom.numerics import kl_diag_gaussian, softmax_forward
from glocom.trainer import TrainConfig


def elbo_per_doc(x_aug, theta_gd, beta, kl_global_share, kl_local):
    """Per-document loss: -(x_aug)^T log softmax(beta @ theta_gd) + KLs,
    the dense-target formula ``GlocomModel.forward_backward`` splits."""
    logits = beta @ theta_gd
    logp = logits - logsumexp(logits)
    return float(-(x_aug @ logp) + kl_global_share + kl_local)


def _instance(seed=7, V=20, K=4, D=6, G=2, embed_dim=8, hidden=10, eta=0.1,
              sparse=False, epsilon=0.01):
    """Small fixed training instance with frozen noise and transport plan.
    Counts are float64 CSR rows; ``sparse`` sets about half the entries to 0."""
    rng = np.random.default_rng(seed)
    x = rng.integers(1, 5, size=(D, V)).astype(np.float64)
    if sparse:
        x = x * (rng.random((D, V)) < 0.5)
        x[:, 0] += 1  # no empty document
    cluster_ids = rng.integers(0, G, size=D)
    cluster_ids[:G] = np.arange(G)  # every cluster non-empty
    global_docs = np.zeros((G, V))
    np.add.at(global_docs, cluster_ids, x)
    model = GlocomModel(V, K, embed_dim=embed_dim, hidden=hidden, tau=0.2,
                        epsilon=epsilon, seed=seed)
    C = np.unique(cluster_ids).size
    noise_g = rng.standard_normal((C, K))
    noise_d = rng.standard_normal((D, K))
    sqd = model.space.squared_dists()
    plan = sinkhorn(sqd, TrainConfig().ecr_nu)
    return model, dict(
        x=sp.csr_matrix(x), cluster_ids=cluster_ids,
        global_docs=sp.csr_matrix(global_docs), noise_g=noise_g, noise_d=noise_d, eta=eta,
        lambda_ecr=20.0, psi=plan.psi,
    )


def _check_grads_fd(model, inputs):
    grads = GradientSink()
    model.forward_backward(**inputs, update=grads)
    for p in model.params():
        fd = central_diff(lambda: corpus_loss(model, **inputs), p.value)
        assert rel_err(grads[p.name], fd) < 1e-3, p.name


def test_full_loss_gradients_match_fd():
    for sparse in (False, True):
        _check_grads_fd(*_instance(sparse=sparse))


def test_gradients_without_ecr():
    for sparse in (False, True):
        model, inputs = _instance(seed=3, sparse=sparse)
        inputs["lambda_ecr"] = 0.0
        inputs["psi"] = None
        _check_grads_fd(model, inputs)


def test_beta_rows_sum_to_one_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        V, K, L = int(rng.integers(2, 30)), int(rng.integers(2, 10)), int(rng.integers(2, 8))
        space = TopicSpace(rng.normal(size=(V, L)), rng.normal(size=(K, L)), tau=0.2)
        beta = compute_beta(space)
        np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-9)
        # entries are strictly inside (0,1) mathematically; in float the
        # dominant entry of a row can round to exactly 1.0
        assert np.all(beta > 0) and np.all(beta <= 1)


def test_beta_equidistant_word_uniform():
    # word at the origin, topics at the same radius in orthogonal directions
    K = 5
    T = 3.0 * np.eye(K)
    W = np.zeros((1, K))
    beta = compute_beta(TopicSpace(W, T, tau=0.2))
    np.testing.assert_allclose(beta[0], 1.0 / K, atol=1e-9)


def test_beta_matches_extended_precision_formula():
    rng = np.random.default_rng(4)
    W = rng.normal(size=(3, 6))
    T = rng.normal(size=(2, 6))
    tau = 0.2
    beta = compute_beta(TopicSpace(W, T, tau))
    Wl, Tl = W.astype(np.longdouble), T.astype(np.longdouble)
    for i in range(3):
        raw = np.array(
            [np.exp(-np.sum((Wl[i] - Tl[j]) ** 2) / np.longdouble(tau)) for j in range(2)]
        )
        expected = (raw / raw.sum()).astype(np.float64)
        np.testing.assert_allclose(beta[i], expected, rtol=1e-12)


def test_combine_identity_and_uniform_cases():
    theta_g = np.array([[0.5, 0.3, 0.2]])
    ones = np.ones((1, 3))
    np.testing.assert_allclose(combine(theta_g, ones), softmax_forward(theta_g))
    uniform = np.full((1, 4), 0.25)
    rho = np.array([[0.4, -1.0, 2.0, 0.1]])
    np.testing.assert_allclose(combine(uniform, rho), softmax_forward(rho / 4.0))


def test_elbo_per_doc_zero_target_is_kl_only():
    beta = softmax_forward(np.random.default_rng(0).normal(size=(4, 2)))
    theta = np.array([0.6, 0.4])
    assert elbo_per_doc(np.zeros(4), theta, beta, 0.3, 0.2) == pytest.approx(0.5)


def test_elbo_per_doc_uniform_reconstruction():
    V, K = 6, 3
    beta = np.full((V, K), 1.0 / K)  # collapsed topics: uniform word dist
    theta = np.array([0.2, 0.5, 0.3])
    x_aug = np.array([1.0, 2.0, 0.0, 0.5, 1.5, 1.0])
    loss = elbo_per_doc(x_aug, theta, beta, 0.0, 0.0)
    assert loss == pytest.approx(x_aug.sum() * math.log(V), rel=1e-12)


def test_elbo_per_doc_scalar_oracle():
    # independent scalar evaluation with math-module arithmetic only
    rng = np.random.default_rng(9)
    beta = softmax_forward(rng.normal(size=(4, 2)))
    theta = softmax_forward(rng.normal(size=2))
    x_aug = rng.uniform(0, 3, size=4)
    kl_g, kl_l = 0.17, 0.05

    logits = [sum(beta[v][k] * theta[k] for k in range(2)) for v in range(4)]
    mx = max(logits)
    Z = sum(math.exp(l - mx) for l in logits)
    recon = -sum(x_aug[v] * (logits[v] - mx - math.log(Z)) for v in range(4))
    expected = recon + kl_g + kl_l
    got = elbo_per_doc(x_aug, theta, beta, kl_g, kl_l)
    assert got == pytest.approx(expected, rel=1e-12)


def test_corpus_loss_disjoint_singletons_average():
    model, _ = _instance(seed=6, V=8, K=3, D=2, G=2)
    rng = np.random.default_rng(2)
    x = rng.integers(1, 4, size=(2, 8)).astype(float)
    gdocs = x.copy()
    noise_g = rng.standard_normal((2, 3))
    noise_d = rng.standard_normal((2, 3))
    both = corpus_loss(model, x, np.array([0, 1]), gdocs, noise_g, noise_d, 0.0)
    parts = []
    for d in range(2):
        parts.append(
            corpus_loss(
                model, x[d : d + 1], np.array([d]), gdocs,
                noise_g[d : d + 1], noise_d[d : d + 1], 0.0,
            )
        )
    assert both == pytest.approx(0.5 * (parts[0] + parts[1]), rel=1e-12)


def test_kl_global_counts_each_batch_cluster_once():
    model, inputs = _instance(seed=10)
    inputs.pop("lambda_ecr"), inputs.pop("psi")
    B = inputs["x"].shape[0]
    uniq = np.unique(inputs["cluster_ids"])
    assert uniq.size < B  # some cluster has several documents in the batch
    _, comps, _ = model.forward_backward(**inputs, update=discard, kl_scale=0.5)
    mu, lv, _ = model.encode_global(inputs["global_docs"][uniq])
    kl = kl_diag_gaussian(mu, lv, 0.0, 1.0)
    assert comps["kl_global"] == pytest.approx(0.5 * kl.sum() / B, rel=1e-14)


def test_encoders_deterministic_and_batch_consistent():
    model, _ = _instance(seed=11, V=10, K=3)
    x = sp.csr_matrix(np.abs(np.random.default_rng(0).normal(size=(4, 10))) + 0.1)
    mu1, lv1, _ = model.encode_local(x)
    mu2, lv2, _ = model.encode_local(x)
    np.testing.assert_array_equal(mu1, mu2)
    np.testing.assert_array_equal(lv1, lv2)
    # batch-of-1 takes a different BLAS path, so equality is to rounding
    mu_row, lv_row, _ = model.encode_local(x[2])
    np.testing.assert_allclose(mu_row[0], mu1[2], rtol=1e-12, atol=1e-15)
    assert mu1.shape == (4, 3) and lv1.shape == (4, 3)


def test_encoder_scale_invariance():
    model, _ = _instance(seed=12, V=10, K=3)
    x = sp.csr_matrix(np.abs(np.random.default_rng(1).normal(size=(1, 10))) + 0.1)
    mu, lv, _ = model.encode_global(x)
    mu2, lv2, _ = model.encode_global(2.0 * x)  # power of two: exact in fp
    np.testing.assert_array_equal(mu, mu2)
    np.testing.assert_array_equal(lv, lv2)
    mu3, _, _ = model.encode_global(3.0 * x)
    np.testing.assert_allclose(mu, mu3, rtol=1e-12)


def test_zero_sum_input_rejected():
    model, _ = _instance(seed=13, V=5, K=2)
    with pytest.raises(TrainingError, match="zero-sum"):
        model.encode_local(sp.csr_matrix((1, 5)))
    with pytest.raises(TrainingError):
        normalize_rows(sp.csr_matrix((2, 3)))
    with pytest.raises(TrainingError, match="zero-sum"):
        model.encode_local(sp.csr_matrix(np.array([[1, 0, 0, 0, 2], [0, 0, 0, 0, 0]])))


def test_latents_are_simplex_points():
    model, inputs = _instance(seed=14)
    _, _, lat = model.forward_backward(**inputs, update=discard)
    np.testing.assert_allclose(lat.theta_g.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(lat.theta_gd.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(lat.theta_g >= 0) and np.all(lat.theta_gd >= 0)
    assert np.all(lat.kl_global >= 0) and np.all(lat.kl_local >= 0)


def test_latent_batch_validation():
    ok = np.array([[0.5, 0.5]])
    with pytest.raises(TrainingError, match="simplex"):
        LatentBatch(np.array([[0.7, 0.6]]), ok, ok, np.zeros(1), np.zeros(1), np.zeros(1, int))
    with pytest.raises(TrainingError, match="KL"):
        LatentBatch(ok, ok, ok, np.array([-1.0]), np.zeros(1), np.zeros(1, int))


def _local_encoder_at_prior(model):
    """Set the local encoder's heads to output the prior N(1, eps) for any
    document: mu = 1 and log-variance = ln eps exactly, so with zero noise
    rho is 1 exactly."""
    g = model.gamma
    g.mu_head.W.value[...] = 0.0
    g.mu_head.b.value[...] = 1.0
    g.lv_head.W.value[...] = 0.0
    g.lv_head.b.value[...] = np.log(model.epsilon)


def test_rho_override_silences_local_terms():
    # a local posterior equal to the prior, and no noise: rho is 1 and the
    # local KL vanishes (eps = 1/16, where e^(ln eps)/eps is exactly 1)
    model, inputs = _instance(seed=15, epsilon=0.0625)
    inputs.pop("lambda_ecr"), inputs.pop("psi")
    _local_encoder_at_prior(model)
    B, K = inputs["x"].shape[0], 4
    inputs["noise_d"] = np.zeros((B, K))
    _, comps, lat = model.forward_backward(**inputs, update=discard)
    assert comps["kl_local"] == 0.0
    np.testing.assert_array_equal(lat.rho, np.ones((B, K)))


def test_reduces_to_plain_vae_with_ablations():
    # eta=0, G=D, rho held at the prior mean by the local encoder: the loss
    # must equal a logistic-normal VAE computed independently here
    V, K, D = 12, 3, 5
    model, _ = _instance(seed=16, V=V, K=K, D=D, G=D, epsilon=0.0625)
    _local_encoder_at_prior(model)
    rng = np.random.default_rng(3)
    x = rng.integers(1, 5, size=(D, V)).astype(float)
    noise = rng.standard_normal((D, K))
    loss, comps, _ = model.forward_backward(
        sp.csr_matrix(x), np.arange(D), sp.csr_matrix(x), noise, np.zeros((D, K)), 0.0, discard)
    assert comps["kl_local"] == 0.0
    # independent computation
    mu, lv, _ = model.phi.forward(x / x.sum(axis=1, keepdims=True))
    alpha = mu + np.exp(0.5 * lv) * noise
    theta = softmax_forward(alpha)
    theta_d = softmax_forward(theta)  # the combine step with rho = 1
    beta = compute_beta(model.space)
    logits = theta_d @ beta.T
    logp = logits - logsumexp(logits, axis=1, keepdims=True)
    recon = -np.sum(x * logp, axis=1)
    kl = kl_diag_gaussian(mu, lv, 0.0, 1.0)
    expected = float((recon + kl).mean())
    assert loss == pytest.approx(expected, rel=1e-12)


def test_loss_equals_independent_elbo_at_local_posterior_mean():
    # eta=0, G=D and noise_d=0, so rho = mu_gamma(x): the loss must equal
    # the ELBO computed here from the encoders, the local KL taken against
    # the prior N(1, eps)
    V, K, D, eps = 12, 3, 5, 0.01
    model, _ = _instance(seed=16, V=V, K=K, D=D, G=D)
    rng = np.random.default_rng(3)
    x = rng.integers(1, 5, size=(D, V)).astype(float)
    noise = rng.standard_normal((D, K))
    loss, comps, lat = model.forward_backward(
        sp.csr_matrix(x), np.arange(D), sp.csr_matrix(x), noise, np.zeros((D, K)), 0.0, discard)

    x_n = sp.csr_matrix(x / x.sum(axis=1, keepdims=True))  # the encoders read CSR
    mu, lv, _ = model.phi.forward(x_n)
    theta = softmax_forward(mu + np.exp(0.5 * lv) * noise)
    mu_d, lv_d, _ = model.gamma.forward(x_n)
    np.testing.assert_array_equal(lat.rho, mu_d)
    theta_d = softmax_forward(theta * mu_d)
    logits = theta_d @ compute_beta(model.space).T
    recon = -np.sum(x * (logits - logsumexp(logits, axis=1, keepdims=True)), axis=1)
    kl_global = 0.5 * np.sum(np.exp(lv) + mu**2 - 1.0 - lv, axis=1)
    kl_local = 0.5 * np.sum(np.exp(lv_d) / eps + (mu_d - 1.0) ** 2 / eps - 1.0
                            + np.log(eps) - lv_d, axis=1)
    assert comps["kl_local"] == pytest.approx(kl_local.mean(), rel=1e-12)
    assert loss == pytest.approx(float((recon + kl_global + kl_local).mean()), rel=1e-12)


def test_infer_determinism_and_top_words():
    model, inputs = _instance(seed=17)
    V = inputs["x"].shape[1]
    words = [f"w{i}" for i in range(V)]
    x = sp.vstack([inputs["x"], inputs["x"][0]], format="csr")  # duplicate first doc
    cids = np.concatenate([inputs["cluster_ids"], inputs["cluster_ids"][:1]])
    out = infer(model, x, cids, inputs["global_docs"], words, top_n=5)
    np.testing.assert_array_equal(out.theta_local[0], out.theta_local[-1])
    for k in range(4):
        assert out.top_words[k][0] == words[int(np.argmax(out.beta[:, k]))]
        assert len(out.top_words[k]) == 5
    np.testing.assert_allclose(out.theta_local.sum(axis=1), 1.0, atol=1e-9)
    # posterior-mean composition spelled out
    mu_g, _, _ = model.encode_global(inputs["global_docs"])
    mu_d, _, _ = model.encode_local(x)
    expected = softmax_forward(softmax_forward(mu_g)[cids] * mu_d)
    np.testing.assert_allclose(out.theta_local, expected, atol=1e-12)


def test_training_forward_at_zero_noise_equals_infer():
    # without sampling noise the training forward is the posterior mean, so
    # its mixtures are infer's: one pair of encoders and one combine rule
    model, inputs = _instance(seed=24, D=9, G=3, sparse=True)
    perm = np.random.default_rng(24).permutation(9)
    x, cids = inputs["x"][perm], inputs["cluster_ids"][perm]
    assert np.any(np.diff(cids) < 0)  # cluster ids out of order
    uniq = np.unique(cids)
    _, _, lat = model.forward_backward(x, cids, inputs["global_docs"],
                                       np.zeros((uniq.size, 4)), np.zeros((9, 4)),
                                       eta=inputs["eta"], update=discard)
    out = infer(model, x, cids, inputs["global_docs"], [f"w{i}" for i in range(20)])
    np.testing.assert_allclose(lat.theta_gd, out.theta_local, rtol=1e-12)
    np.testing.assert_allclose(lat.theta_g, out.theta_global[uniq], rtol=1e-12)


@pytest.mark.parametrize("top_n", [1, 3, 8, 29, 30, 31, 100])
def test_top_word_ids_match_stable_argsort(top_n):
    # weights drawn from four values, so most topics tie at their threshold
    rng = np.random.default_rng(top_n)
    V, K = 30, 6
    beta = rng.choice([0.0, 0.1, 0.25, 0.5], size=(V, K))
    beta[:, 0] = 0.1  # one topic all ties
    beta[:5, 1] = [0.5, 0.5, 0.0, 0.5, 0.5]
    got = top_word_ids(beta, top_n)
    assert got.shape == (K, min(top_n, V))
    for k in range(K):
        np.testing.assert_array_equal(
            got[k], np.argsort(-beta[:, k], kind="stable")[:top_n], err_msg=str(k))


def test_infer_rejects_top_n_below_one():
    model, inputs = _instance(seed=17)
    words = [f"w{i}" for i in range(inputs["x"].shape[1])]
    for top_n in (0, -1):
        with pytest.raises(ConfigError, match=f"top_n must be at least 1, got {top_n}"):
            infer(model, inputs["x"], inputs["cluster_ids"], inputs["global_docs"], words,
                  top_n=top_n)


@pytest.mark.parametrize("with_plan", [False, True])
def test_compute_beta_backward_equals_direct_expressions(with_plan):
    # a word embedding equal to a topic embedding puts a clamped zero in sqd
    model, inputs = _instance(seed=31, V=300, K=20, embed_dim=200)
    space = model.space
    space.W.value[:20] = space.T.value
    sqd = space.squared_dists()
    assert (sqd == 0.0).any()
    beta = compute_beta(space, sqd)
    rng = np.random.default_rng(31)
    dbeta = rng.normal(size=beta.shape)
    extra = 20.0 * inputs["psi"] if with_plan else None
    grads = []
    for backward in (compute_beta_backward, compute_beta_backward_direct):
        grads.append(GradientSink())
        backward(space, beta, dbeta, extra, grads[-1])
    assert grads[0].keys() == {"space.W", "space.T"}
    for name, want in grads[1].items():
        np.testing.assert_array_equal(grads[0][name], want, err_msg=name)


def test_infer_csr_blocks_match_dense(monkeypatch):
    model, inputs = _instance(seed=19, D=30)
    rng = np.random.default_rng(4)
    x = inputs["x"].toarray() * (rng.random(inputs["x"].shape) < 0.5)
    x[:, 0] += 1
    words = [f"w{i}" for i in range(x.shape[1])]
    args = (inputs["cluster_ids"], inputs["global_docs"], words)
    whole = infer(model, x, *args)
    monkeypatch.setattr(glocom.model, "INFER_BLOCK_ROWS", 7)  # 5 blocks
    blocked = infer(model, sp.csr_matrix(x.astype(np.int64)), *args)
    np.testing.assert_allclose(blocked.theta_local, whole.theta_local, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(blocked.theta_global, whole.theta_global)
    assert blocked.top_words == whole.top_words


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model, inputs = _instance(seed=18)
    words = [f"w{i}" for i in range(20)]
    before = infer(model, inputs["x"], inputs["cluster_ids"], inputs["global_docs"], words)
    save_checkpoint(model, str(tmp_path / "ckpt"))
    loaded = load_checkpoint(str(tmp_path / "ckpt"))
    after = infer(loaded, inputs["x"], inputs["cluster_ids"], inputs["global_docs"], words)
    np.testing.assert_array_equal(before.beta, after.beta)
    np.testing.assert_array_equal(before.theta_local, after.theta_local)
    np.testing.assert_array_equal(before.theta_global, after.theta_global)
    assert before.top_words == after.top_words


def test_checkpoint_rejects_missing_tensor(tmp_path):
    model, _ = _instance(seed=19, V=6, K=2)
    save_checkpoint(model, str(tmp_path / "c"))
    import os

    os.remove(str(tmp_path / "c" / "space.T.bin"))
    with pytest.raises(TrainingError):
        load_checkpoint(str(tmp_path / "c"))


@pytest.mark.parametrize("old, new, message", [
    ("meta tau ", None, "no meta tau line"),
    ("meta tau ", "meta tau abc", "bad meta value"),
])
def test_checkpoint_rejects_missing_or_bad_meta(tmp_path, old, new, message):
    model, _ = _instance(seed=19, V=6, K=2)
    save_checkpoint(model, str(tmp_path / "c"))
    manifest = tmp_path / "c" / "manifest.txt"
    lines = [line for line in manifest.read_text().splitlines() if not line.startswith(old)]
    manifest.write_text("\n".join(lines + [new] * (new is not None)) + "\n")
    with pytest.raises(TrainingError, match=f"manifest.txt: {message}"):
        load_checkpoint(str(tmp_path / "c"))


def test_checkpoint_stores_first_layer_hidden_by_words(tmp_path):
    # the model holds every encoder weight (in, out); the checkpoint stores
    # each (out, in), the first layer's (hidden, num_words)
    model, _ = _instance(seed=21)  # V=20, K=4, hidden=10
    save_checkpoint(model, str(tmp_path / "c"))
    manifest = (tmp_path / "c" / "manifest.txt").read_text().splitlines()
    for enc in (model.phi, model.gamma):
        for layer, shape in ((enc.l1, (20, 10)), (enc.l2, (10, 10)),
                             (enc.mu_head, (10, 4)), (enc.lv_head, (10, 4))):
            W = layer.W.value
            assert W.shape == shape and W.flags.c_contiguous, layer.W.name
            data = (tmp_path / "c" / f"{layer.W.name}.bin").read_bytes()
            assert data == _GEMB_MAGIC + struct.pack("<QQ", *shape[::-1]) + W.T.tobytes()
            assert f"tensor {layer.W.name} {shape[1]} {shape[0]} float64" in manifest


def test_checkpoint_written_by_hand_loads_bit_exact_without_draws(tmp_path, monkeypatch):
    # the layout checkpoints have always had: biases one row, encoder
    # weights (out, in), written in params() order
    V, K, L, H = 7, 3, 4, 5
    shapes = {"space.W": (V, L), "space.T": (K, L)}
    for enc in ("phi", "gamma"):
        for layer, rows, cols in (("l1", H, V), ("l2", H, H), ("mu", K, H), ("lv", K, H)):
            shapes[f"{enc}.{layer}.W"] = (rows, cols)
            shapes[f"{enc}.{layer}.b"] = (1, rows)
    rng = np.random.default_rng(8)
    stored = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    ckpt = tmp_path / "c"
    ckpt.mkdir()
    lines = ["glocom-checkpoint 1"] + [
        f"meta {key} {val}" for key, val in (("num_words", V), ("num_topics", K),
                                             ("embed_dim", L), ("hidden", H),
                                             ("tau", 0.25), ("epsilon", 0.02))]
    for name, M in stored.items():
        lines.append(f"tensor {name} {M.shape[0]} {M.shape[1]} float64")
        write_gemb(M, str(ckpt / f"{name}.bin"))
    (ckpt / "manifest.txt").write_text("\n".join(lines) + "\n")

    def no_draws(*args):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(glocom.model, "substream", no_draws)
    model = load_checkpoint(str(ckpt))
    assert [p.name for p in model.params()] == list(stored)
    for p in model.params():
        M = stored[p.name]
        encoder_weight = p.name.endswith(".W") and not p.name.startswith("space.")
        np.testing.assert_array_equal(p.value, M.T if encoder_weight else
                                      M.reshape(p.value.shape))
        assert p.value.flags.c_contiguous and p.value.flags.writeable
    assert (model.space.tau, model.epsilon, model.hidden) == (0.25, 0.02, H)
    save_checkpoint(model, str(tmp_path / "again"))
    for name in ["manifest.txt"] + [f"{name}.bin" for name in stored]:
        assert (tmp_path / "again" / name).read_bytes() == (ckpt / name).read_bytes(), name


@pytest.mark.parametrize("header", ["glocom-checkpoint 2", "glocom-checkpoint",
                                    "glocom-checkpoint 1 extra", "glocom 1", ""])
def test_checkpoint_rejects_any_header_but_version_1(tmp_path, header):
    model, _ = _instance(seed=19, V=6, K=2)
    save_checkpoint(model, str(tmp_path / "c"))
    manifest = tmp_path / "c" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    assert lines[0] == "glocom-checkpoint 1"
    manifest.write_text("\n".join([header] + lines[1:]) + "\n")
    with pytest.raises(TrainingError, match=r"manifest.txt:1: header .* is not "
                                            r"'glocom-checkpoint 1'"):
        load_checkpoint(str(tmp_path / "c"))


@pytest.mark.parametrize("name", ["phi.mu.W", "gamma.l1.W"])
def test_checkpoint_rejects_transposed_tensor(tmp_path, name):
    # file and manifest line agree, but the slot's shape is the transpose
    model, _ = _instance(seed=19, V=6, K=2)
    save_checkpoint(model, str(tmp_path / "c"))
    path = tmp_path / "c" / f"{name}.bin"
    M = read_gemb(str(path), "<f8")
    write_gemb(np.ascontiguousarray(M.T), str(path))
    manifest = tmp_path / "c" / "manifest.txt"
    rows, cols = M.shape
    manifest.write_text(manifest.read_text().replace(
        f"tensor {name} {rows} {cols} ", f"tensor {name} {cols} {rows} "))
    want = rf"tensor {name} has shape \({cols}, {rows}\), model expects \({rows}, {cols}\)"
    with pytest.raises(TrainingError, match=want):
        load_checkpoint(str(tmp_path / "c"))


def test_ecr_term_wiring():
    model, inputs = _instance(seed=20)
    sqd = model.space.squared_dists()
    expected_ecr = 20.0 * float(np.sum(sqd * inputs["psi"]))
    loss_with, comps, _ = model.forward_backward(**inputs, update=discard)
    assert comps["ecr"] == pytest.approx(expected_ecr, rel=1e-12)
    no_ecr = dict(inputs, lambda_ecr=0.0, psi=None)
    loss_without, comps2, _ = model.forward_backward(**no_ecr, update=discard)
    assert loss_with == pytest.approx(loss_without + expected_ecr, rel=1e-12)
    assert comps2["ecr"] == 0.0


def test_kl_scale_scales_kl_components_exactly():
    model, inputs = _instance(seed=21)
    _, full, _ = model.forward_backward(**inputs, update=discard)
    _, half, _ = model.forward_backward(**inputs, update=discard, kl_scale=0.5)
    _, off, _ = model.forward_backward(**inputs, update=discard, kl_scale=0.0)
    assert half["kl_global"] == pytest.approx(0.5 * full["kl_global"], rel=1e-15)
    assert half["kl_local"] == pytest.approx(0.5 * full["kl_local"], rel=1e-15)
    assert half["recon"] == full["recon"] and half["ecr"] == full["ecr"]
    assert off["kl_global"] == 0.0 and off["kl_local"] == 0.0
    with pytest.raises(TrainingError, match="kl_scale"):
        model.forward_backward(**inputs, update=discard, kl_scale=-0.1)


def test_kl_scale_gradients_match_fd():
    for sparse in (False, True):
        model, inputs = _instance(seed=22, sparse=sparse)
        inputs["kl_scale"] = 0.3
        _check_grads_fd(model, inputs)


def _loss_and_grads(model, inputs):
    grads = GradientSink()
    loss, comps, _ = model.forward_backward(**inputs, update=grads)
    return loss, comps, grads


@pytest.mark.parametrize("eta", [0.0, 0.1, 0.37])
def test_forward_backward_csr_matches_dense_target_oracle(eta):
    # 12 documents in 3 clusters: several documents share each cluster
    model, inputs = _instance(seed=23, D=12, G=3, eta=eta, sparse=True)
    assert np.bincount(inputs["cluster_ids"]).min() >= 2
    loss, comps, grads = _loss_and_grads(model, inputs)
    with dense_targets():
        loss_o, comps_o, grads_o = _loss_and_grads(model, inputs)
    assert loss == pytest.approx(loss_o, rel=1e-12)
    for key in comps_o:
        assert comps[key] == pytest.approx(comps_o[key], rel=1e-12), key
    for name, g in grads_o.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-12,
                                   atol=1e-12 * np.abs(g).max(), err_msg=name)


def test_topic_init_is_used_verbatim():
    rng = np.random.default_rng(11)
    T0 = rng.normal(size=(4, 8))
    model = GlocomModel(20, 4, embed_dim=8, hidden=10, seed=7, topic_init=T0)
    np.testing.assert_array_equal(model.space.T.value, T0)
    with pytest.raises(TrainingError, match="topic_init"):
        GlocomModel(20, 4, embed_dim=8, hidden=10, seed=7,
                    topic_init=rng.normal(size=(3, 8)))
    # word_init fixes the embedding width topic_init must match
    W0 = rng.normal(size=(20, 5))
    with pytest.raises(TrainingError, match="topic_init"):
        GlocomModel(20, 4, hidden=10, seed=7, word_init=W0,
                    topic_init=rng.normal(size=(4, 8)))
    ok = GlocomModel(20, 4, hidden=10, seed=7, word_init=W0,
                     topic_init=rng.normal(size=(4, 5)))
    assert ok.space.T.value.shape == (4, 5)
