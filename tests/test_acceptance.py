"""End-to-end acceptance checks.

Every test prints exactly one verdict line (visible under ``pytest -s``)
and then asserts it, so the suite doubles as a human-readable report.
Thresholds are pinned in place next to each check.
"""

import json
import math
import os
import time
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from fd import central_diff, rel_err
from oracles import (
    GradientSink,
    augmented_docs,
    corpus_loss,
    match_topics,
    profile_word_embeddings,
)
from scipy.integrate import quad

from glocom.aggregation import build_global_docs, kmeans
from glocom.cli import main as cli_main
from glocom.corpus import BowCorpus, Vocabulary, preprocess
from glocom.ecr import TransportProblem, default_nu, sinkhorn
from glocom.eval import TopicSet, assign_documents, nmi, purity, topic_diversity
from glocom.model import GlocomModel, infer
from glocom.numerics import kl_diag_gaussian
from glocom.synthetic import SyntheticSpec, generate
from glocom.trainer import TrainConfig, apply_ablation, build_setup, train


def _verdict(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}{tail}"


# ---------------------------------------------------------------------------
# 1. analytic gradients against central finite differences


def _training_instance(seed=7, V=20, K=4, D=6, G=2, embed_dim=8, hidden=10,
                       eta=0.1):
    rng = np.random.default_rng(seed)
    x = rng.integers(1, 5, size=(D, V)).astype(np.float64)
    cluster_ids = rng.integers(0, G, size=D)
    cluster_ids[:G] = np.arange(G)
    global_docs = np.zeros((G, V))
    np.add.at(global_docs, cluster_ids, x)
    model = GlocomModel(V, K, embed_dim=embed_dim, hidden=hidden, tau=0.2,
                        epsilon=0.01, seed=seed)
    C = np.unique(cluster_ids).size
    noise_g = rng.standard_normal((C, K))
    noise_d = rng.standard_normal((D, K))
    sqd = model.space.squared_dists()
    plan = sinkhorn(TransportProblem(sqd, nu=default_nu(sqd)))
    return model, dict(
        x=x, cluster_ids=cluster_ids, global_docs=global_docs,
        noise_g=noise_g, noise_d=noise_d, eta=eta, lambda_ecr=20.0, psi=plan.psi,
    )


def test_gradient_correctness():
    start = time.perf_counter()
    model, inputs = _training_instance(seed=7, V=20, K=4, D=6, G=2)
    grads = GradientSink()
    model.forward_backward(**inputs, update=grads)
    worst = 0.0
    for p in model.params():
        fd = central_diff(lambda: corpus_loss(model, **inputs), p.value, h=1e-4)
        worst = max(worst, rel_err(grads[p.name], fd))
    elapsed = time.perf_counter() - start
    _verdict(
        "gradient correctness",
        worst < 1e-3 and elapsed < 10.0,
        f"max rel err {worst:.2e} over {len(model.params())} tensors, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. topic-word matrix contract


def test_beta_row_contract():
    from glocom.model import TopicSpace, compute_beta

    rng = np.random.default_rng(202)
    worst_sum = 0.0
    worst_uniform = 0.0
    for _ in range(100):
        V = int(rng.integers(2, 40))
        K = int(rng.integers(2, 9))
        L = int(rng.integers(2, 10))
        beta = compute_beta(
            TopicSpace(rng.normal(size=(V, L)), rng.normal(size=(K, L)), tau=0.2)
        )
        worst_sum = max(worst_sum, float(np.abs(beta.sum(axis=1) - 1.0).max()))
        # a word equidistant from every topic: topics on an orthonormal
        # frame at one radius, the word at the origin
        Q, _ = np.linalg.qr(rng.normal(size=(K, K)))
        radius = float(rng.uniform(0.5, 3.0))
        eq = compute_beta(TopicSpace(np.zeros((1, K)), radius * Q, tau=0.2))
        worst_uniform = max(worst_uniform, float(np.abs(eq[0] - 1.0 / K).max()))
    _verdict(
        "beta row contract",
        worst_sum < 1e-9 and worst_uniform < 1e-9,
        f"100 trials: max row-sum error {worst_sum:.1e}, "
        f"max equidistant deviation {worst_uniform:.1e}",
    )


# ---------------------------------------------------------------------------
# 3. entropic transport contract


def _exact_lp_2x2(cost):
    """Exact 2x2 optimum with uniform marginals, by vertex enumeration.

    With both marginals (1/2, 1/2) the feasible set is the segment
    t*[[1,0],[0,1]]/2 + (1-t)*[[0,1],[1,0]]/2 for t in [0,1]; a linear
    objective is minimized at one of the two endpoints.
    """
    vertices = [
        0.5 * np.array([[1.0, 0.0], [0.0, 1.0]]),
        0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]),
    ]
    costs = [float((cost * v).sum()) for v in vertices]
    return vertices[int(np.argmin(costs))]


def test_sinkhorn_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_marginal = 0.0
    for _ in range(10):
        cost = rng.uniform(0.0, 2.0, size=(50, 10))
        plan = sinkhorn(TransportProblem(cost, nu=0.05, max_iters=20000, tol=1e-8))
        row = np.abs(plan.psi.sum(axis=1) - 1.0 / 50).sum()
        col = np.abs(plan.psi.sum(axis=0) - 1.0 / 10).sum()
        worst_marginal = max(worst_marginal, float(row), float(col))

    cost2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    exact = _exact_lp_2x2(cost2)
    tvs = []
    for nu in (1.0, 0.1, 0.01):
        plan = sinkhorn(TransportProblem(cost2, nu=nu, max_iters=20000, tol=1e-12))
        tvs.append(0.5 * float(np.abs(plan.psi - exact).sum()))
    elapsed = time.perf_counter() - start
    decreasing = tvs[0] > tvs[1] > tvs[2]
    _verdict(
        "sinkhorn contract",
        worst_marginal < 1e-6 and decreasing and elapsed < 5.0,
        f"max marginal violation {worst_marginal:.1e}; TV to exact optimum "
        f"{tvs[0]:.1e} > {tvs[1]:.1e} > {tvs[2]:.1e}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. closed-form KL against numerical quadrature


def test_kl_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        mu_q = float(rng.normal())
        lv_q = float(rng.uniform(-2.0, 1.5))
        mu_p = float(rng.normal())
        var_p = float(rng.uniform(0.2, 3.0))
        closed = float(
            kl_diag_gaussian(np.array([mu_q]), np.array([lv_q]), mu_p, var_p)
        )
        sq, vq = math.sqrt(math.exp(lv_q)), math.exp(lv_q)

        def integrand(t):
            q = math.exp(-0.5 * (t - mu_q) ** 2 / vq) / (sq * math.sqrt(2 * math.pi))
            log_q = -0.5 * (t - mu_q) ** 2 / vq - math.log(sq) - 0.5 * math.log(2 * math.pi)
            log_p = (
                -0.5 * (t - mu_p) ** 2 / var_p
                - 0.5 * math.log(var_p)
                - 0.5 * math.log(2 * math.pi)
            )
            return q * (log_q - log_p)

        numeric, _ = quad(integrand, -np.inf, np.inf, epsabs=1e-10, limit=200)
        worst = max(worst, abs(closed - numeric))

    mins = []
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        kl = kl_diag_gaussian(
            rng.normal(size=k), rng.uniform(-3, 2, size=k),
            float(rng.normal()), float(rng.uniform(0.1, 4.0)),
        )
        mins.append(float(kl))
    _verdict(
        "kl oracle",
        worst < 1e-6 and min(mins) >= 0.0,
        f"max |closed - quadrature| {worst:.1e} on 20 cases; "
        f"min KL {min(mins):.3e} over 10000 multi-dim draws",
    )


# ---------------------------------------------------------------------------
# 5./6. synthetic recovery and ablation ordering (shared training runs)

RECOVERY_SEEDS = (0, 1, 2)


def _recovery_run(seed, variant):
    spec = SyntheticSpec(V=100, K=5, G=5, D=1000, len_min=4, len_max=12,
                         epsilon_true=0.01, seed=seed)
    corpus, truth = generate(spec)
    # the run without augmentation is the full model at eta = 0
    ablation = "full" if variant == "no_augmentation" else variant
    eta = 0.0 if variant == "no_augmentation" else 0.1
    embed_dim = 5 if ablation != "no_clustering" else 200
    cfg = TrainConfig(K=5, G=5, eta=eta, lambda_ecr=20.0, ecr_nu=0.05,
                      epochs=200, seed=seed, ablation=ablation,
                      embed_dim=embed_dim)
    cfg = apply_ablation(cfg, corpus.num_docs)
    if ablation == "no_clustering":
        assign, word_init, topic_init = None, None, None
    else:
        # the planted clustering plays the part of the document-embedding
        # clustering stage; word/topic embeddings start from the corpus's
        # own cluster profiles, standing in for pretrained vectors that a
        # synthetic vocabulary cannot have
        assign = corpus.labels
        emb = profile_word_embeddings(corpus, assign, G=cfg.G)
        word_init = emb.rows
        topic_init = kmeans(emb, cfg.K, seed=seed).centroids
    setup = build_setup(corpus, cfg, assign)
    model, _ = train(setup, word_init=word_init,
                                topic_init=topic_init)
    ids = setup.assignment if assign is None else assign
    out = infer(model, corpus.dense(), ids, setup.global_corpus.global_docs,
                corpus.vocab.words)
    _, scores = match_topics(out.beta, truth.beta)
    pred = assign_documents(out.theta_local)
    return dict(
        scores=scores,
        purity=purity(pred, corpus.labels),
        nmi=nmi(pred, corpus.labels),
        td=topic_diversity(TopicSet(out.top_words)),
    )


@pytest.fixture(scope="module")
def recovery_runs():
    runs = {}
    wall = {}
    for variant in ("full", "no_clustering", "no_augmentation"):
        for seed in RECOVERY_SEEDS:
            t0 = time.perf_counter()
            runs[variant, seed] = _recovery_run(seed, variant)
            wall[variant, seed] = time.perf_counter() - t0
    runs["wall"] = wall
    return runs


def test_synthetic_recovery(recovery_runs):
    passes = 0
    details = []
    for seed in RECOVERY_SEEDS:
        r = recovery_runs["full", seed]
        hits = int((r["scores"] >= 0.8).sum())
        ok = hits >= 4 and r["purity"] >= 0.8 and r["td"] == 1.0
        passes += int(ok)
        details.append(
            f"seed {seed}: {hits}/5 cosines >= 0.8, purity {r['purity']:.2f}, "
            f"td {r['td']:.2f}"
        )
    total = sum(recovery_runs["wall"]["full", s] for s in RECOVERY_SEEDS)
    _verdict(
        "synthetic recovery",
        passes >= 2 and total < 600.0,
        f"{passes}/3 seeds pass [{'; '.join(details)}]; {total:.0f}s total",
    )


def test_ablation_ordering(recovery_runs):
    means = {
        ab: float(np.mean([recovery_runs[ab, s]["nmi"] for s in RECOVERY_SEEDS]))
        for ab in ("full", "no_clustering", "no_augmentation")
    }
    ok = (means["full"] >= means["no_clustering"]
          and means["full"] >= means["no_augmentation"])
    _verdict(
        "ablation ordering",
        ok,
        f"mean NMI over 3 seeds: full {means['full']:.3f} >= "
        f"no_clustering {means['no_clustering']:.3f} and >= "
        f"no_augmentation {means['no_augmentation']:.3f}",
    )


# ---------------------------------------------------------------------------
# 7. clustering metrics against brute-force oracles


def _purity_oracle(pred, gold):
    per_cluster = {}
    for p, g in zip(pred, gold):
        per_cluster.setdefault(p, []).append(g)
    hits = sum(Counter(v).most_common(1)[0][1] for v in per_cluster.values())
    return hits / len(gold)


def _nmi_oracle(pred, gold):
    n = len(gold)
    joint = Counter(zip(pred, gold))
    cu, cv = Counter(pred), Counter(gold)
    mi = 0.0
    for (u, v), c in joint.items():
        mi += (c / n) * math.log(n * c / (cu[u] * cv[v]))
    hu = -sum((c / n) * math.log(c / n) for c in cu.values())
    hv = -sum((c / n) * math.log(c / n) for c in cv.values())
    denom = 0.5 * (hu + hv)
    if denom == 0.0:
        return 0.0
    return max(mi, 0.0) / denom


def test_metric_oracles():
    rng = np.random.default_rng(707)
    worst_nmi = 0.0
    purity_exact = True
    for _ in range(50):
        pred = rng.integers(0, int(rng.integers(2, 7)), size=20)
        gold = rng.integers(0, int(rng.integers(2, 6)), size=20)
        purity_exact &= purity(pred, gold) == _purity_oracle(pred, gold)
        worst_nmi = max(worst_nmi, abs(nmi(pred, gold) - _nmi_oracle(pred, gold)))

    td_cases = [
        ([["a", "b", "c"], ["d", "e", "f"]], 1.0),
        ([["a", "b", "c"], ["a", "d", "e"]], 5.0 / 6.0),
        ([["a", "b", "c"]] * 4, 0.25),
    ]
    td_exact = all(topic_diversity(TopicSet(t)) == v for t, v in td_cases)
    _verdict(
        "metric oracles",
        purity_exact and worst_nmi < 1e-9 and td_exact,
        f"50 instances: purity exact, max NMI diff {worst_nmi:.1e}; "
        f"{len(td_cases)} diversity hand cases exact",
    )


# ---------------------------------------------------------------------------
# 8. end-to-end pipeline determinism


def test_pipeline_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main([
            "pipeline", "--synth", "--out", str(out),
            "--K", "5", "--G", "5", "--seed", "11",
        ])
        assert code == 0
        outputs.append(out)
    same = True
    sizes = []
    for rel in ("metrics.json", os.path.join("infer", "topics.txt")):
        a = (outputs[0] / rel).read_bytes()
        b = (outputs[1] / rel).read_bytes()
        same &= a == b
        sizes.append(f"{rel} {len(a)}B")
    _verdict(
        "pipeline determinism",
        same,
        "two seed-11 runs byte-identical: " + ", ".join(sizes),
    )


# ---------------------------------------------------------------------------
# 9. aggregation conservation


def _suite_corpora():
    corpora = []
    for seed in RECOVERY_SEEDS:
        spec = SyntheticSpec(V=100, K=5, G=5, D=1000, len_min=4, len_max=12,
                             epsilon_true=0.01, seed=seed)
        corpus, _ = generate(spec)
        corpora.append(corpus)
    tiny = SyntheticSpec(V=20, K=3, G=2, D=24, len_min=4, len_max=8, seed=5)
    corpora.append(generate(tiny)[0])
    raw = [["aa", "bb", "rare"], ["aa", "bb"], ["aa", "bb"], ["cc", "dd"]]
    corpora.append(preprocess(raw, min_freq=1, min_terms=1)[0])
    rng = np.random.default_rng(909)
    dense = rng.integers(0, 3, size=(12, 9))
    dense[dense.sum(axis=1) < 2] += 1
    corpora.append(BowCorpus(
        sp.csr_matrix(dense), Vocabulary([f"w{i}" for i in range(9)])
    ))
    return corpora


def test_aggregation_conservation():
    checked = 0
    exact = True
    for corpus in _suite_corpora():
        D = corpus.num_docs
        assignments = [np.zeros(D, dtype=np.int64), np.arange(D) % 3, np.arange(D)]
        if corpus.labels is not None:
            assignments.append(np.asarray(corpus.labels))
        column_sums = corpus.dense().sum(axis=0)
        for assign in assignments:
            g = build_global_docs(corpus, assign)
            exact &= np.array_equal(g.sum(axis=0).astype(np.float64), column_sums)
            aug = augmented_docs(corpus, g, assign, eta=0.0)
            exact &= np.array_equal(aug, corpus.dense())
            checked += 1
    _verdict(
        "aggregation conservation",
        exact,
        f"{checked} corpus/assignment pairs: global sums match column sums "
        f"exactly and eta=0 leaves documents untouched",
    )
