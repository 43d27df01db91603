import numpy as np
import pytest
from fd import central_diff, rel_err

from glocom.ecr import TransportPlan, sinkhorn, squared_distances
from glocom.errors import TransportError
from glocom.kernels import sinkhorn_log


def ecr_loss(W, T, plan):
    """Sum of squared word-topic distances weighted by the plan."""
    psi = plan.psi if isinstance(plan, TransportPlan) else np.asarray(plan)
    C = squared_distances(W, T)
    if C.shape != psi.shape:
        raise TransportError(f"plan shape {psi.shape} does not match cost shape {C.shape}")
    return float(np.sum(C * psi))


def ecr_grad(W, T, plan):
    """Gradients of ecr_loss w.r.t. W and T with the plan held fixed."""
    psi = plan.psi if isinstance(plan, TransportPlan) else np.asarray(plan)
    row_mass = psi.sum(axis=1)
    col_mass = psi.sum(axis=0)
    dW = 2.0 * (W * row_mass[:, None] - psi @ T)
    dT = 2.0 * (T * col_mass[:, None] - psi.T @ W)
    return dW, dT


def test_squared_distances_definition():
    W = np.array([[0.0, 0.0], [3.0, 4.0]])
    T = np.array([[0.0, 0.0], [0.0, 1.0]])
    D = squared_distances(W, T)
    np.testing.assert_allclose(D, [[0.0, 1.0], [25.0, 18.0]])
    assert np.all(D >= 0)


def test_squared_distances_equal_direct_expression_bitwise():
    # the first 20 words sit on the 20 topics: there the direct sum rounds to
    # tiny values of either sign, and the clamp sets the negative ones to 0
    from oracles import squared_distances_direct

    rng = np.random.default_rng(0)
    T = rng.normal(size=(20, 200))
    W = rng.normal(size=(300, 200))
    W[:20] = T
    raw = np.sum(W * W, axis=1)[:, None] - 2.0 * (W @ T.T) + np.sum(T * T, axis=1)[None, :]
    assert (raw < 0).any()
    D = squared_distances(W, T)
    np.testing.assert_array_equal(D, squared_distances_direct(W, T))
    assert D.min() == 0.0 and not np.signbit(D).any()


def test_squared_distances_csr_rows_match_kmeans_expression_bitwise():
    # k-means passes CSR TF-IDF rows with their cached squared norms; the
    # distances must keep the bits of |x|^2 - 2 X C^T + |c|^2, which decide
    # its assignments. Rows 0-4 are centroids (clamped to 0) and the last
    # rows share no word with any centroid (|x|^2 + |c|^2 exactly).
    import scipy.sparse as sp

    from glocom.corpus import row_sq_norms

    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, size=(60, 40)) * (rng.random((60, 40)) < 0.15)
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-300)
    X[:5, 30:] = 0.0
    C = X[:5].copy()
    X[-6:, :30] = 0.0
    X = sp.csr_matrix(X)
    xsq = row_sq_norms(X)
    D = squared_distances(X, C, xsq)
    want = xsq[:, None] - 2.0 * np.asarray(X @ C.T) + row_sq_norms(C)[None, :]
    np.maximum(want, 0.0, out=want)
    np.testing.assert_array_equal(D, want)
    np.testing.assert_array_equal(D, squared_distances(X, C))
    assert not np.signbit(D).any() and np.all(np.diag(D[:5]) < 1e-15)
    np.testing.assert_allclose(D, squared_distances(X.toarray(), C), rtol=1e-12, atol=1e-15)


def test_zero_cost_gives_uniform_plan():
    plan = sinkhorn(np.zeros((2, 2)), nu=1.0)
    np.testing.assert_allclose(plan.psi, 0.25, atol=1e-12)


def test_two_by_two_matches_lp_vertex_solution():
    # marginals (1/2,1/2); feasible plans are [[t, .5-t], [.5-t, t]], so the
    # LP vertices are t=0 (cost 1) and t=0.5 (cost 0): optimum is diagonal.
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    lp_opt = np.array([[0.5, 0.0], [0.0, 0.5]])
    tvs = []
    for nu in (1.0, 0.1, 0.01):
        plan = sinkhorn(C, nu, max_iters=2000, tol=1e-12)
        tv = 0.5 * np.abs(plan.psi - lp_opt).sum()
        tvs.append(tv)
        # closed form by symmetry: diagonal entry 0.5/(1+exp(-1/nu))
        x = 0.5 / (1.0 + np.exp(-1.0 / nu))
        np.testing.assert_allclose(plan.psi.diagonal(), x, atol=1e-9)
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs[2] < 1e-6


def test_marginals_satisfied_on_random_costs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        V, K = int(rng.integers(3, 60)), int(rng.integers(2, 12))
        C = rng.uniform(0, 2, size=(V, K))
        plan = sinkhorn(C, 0.3, max_iters=5000, tol=1e-8)
        assert plan.converged
        assert np.abs(plan.psi.sum(1) - 1.0 / V).sum() < 1e-8
        assert np.abs(plan.psi.sum(0) - 1.0 / K).sum() < 1e-8
        assert np.all(plan.psi >= 0)
        assert abs(plan.psi.sum() - 1.0) < 1e-8


def test_large_nu_gives_product_of_marginals():
    rng = np.random.default_rng(2)
    C = rng.uniform(0, 4, size=(7, 3))
    nu = 1e6 * C.max()
    plan = sinkhorn(C, nu, max_iters=100, tol=1e-10)
    np.testing.assert_allclose(plan.psi, 1.0 / 21, atol=1e-6)


def test_tracked_objectives_dual_monotone():
    # The dual of the entropic problem is maximized coordinate-wise by the
    # alternating updates, so it must never decrease. A solve stopped at
    # max_iters=t returns the state after iteration t, so solves stopped at
    # t = 1, 2, ... trace the iterations of the full solve.
    rng = np.random.default_rng(7)
    for nu in (1.0, 0.1, 0.02):
        C = rng.uniform(0, 1, size=(30, 6))
        a, b = np.full(30, 1.0 / 30), np.full(6, 1.0 / 6)
        s = sinkhorn_log(-C / nu, 300, 1e-10)
        assert s.iterations_used == sinkhorn(C, nu, 300, 1e-10).iterations_used
        dual = []
        for t in range(1, s.iterations_used + 1):
            st = sinkhorn_log(-C / nu, t, 1e-10)
            P = st.u[:, None] * st.kernel * st.v[None, :]
            # the plan is exp(-C/nu + F_i + G_j); F.a + G.b does not see a
            # constant moved from F to G, as a and b each sum to one
            L = np.log(P) + C / nu
            F, G = L[:, 0], L[0] - L[0, 0]
            dual.append(float(nu * (F @ a + G @ b - P.sum())))
        d = np.diff(dual)
        assert np.all(d >= -1e-10)


def test_collapse_reports_nu():
    # cost/nu overflows the float range, so the scaled kernel has no finite
    # entries anywhere
    C = np.full((3, 3), 10.0)
    with pytest.raises(TransportError, match="1e-308"):
        sinkhorn(C, nu=1e-308)


def test_problem_validation():
    with pytest.raises(TransportError):
        sinkhorn(np.array([[-1.0]]), nu=1.0)
    with pytest.raises(TransportError):
        sinkhorn(np.array([[1.0]]), nu=0.0)
    with pytest.raises(TransportError):
        sinkhorn(np.array([[np.inf]]), nu=1.0)


def test_ecr_loss_double_loop_oracle():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(6, 4))
    T = rng.normal(size=(3, 4))
    psi = rng.uniform(0, 1, size=(6, 3))
    psi /= psi.sum()
    expected = 0.0
    for i in range(6):
        for j in range(3):
            expected += np.sum((W[i] - T[j]) ** 2) * psi[i, j]
    assert abs(ecr_loss(W, T, psi) - expected) < 1e-12


def test_ecr_loss_zero_when_words_sit_on_topics():
    W = np.array([[1.0, 0.0], [0.0, 2.0]])
    T = W.copy()
    psi = np.diag([0.5, 0.5])  # feasible for V=K=2
    assert ecr_loss(W, T, psi) == 0.0


def test_ecr_loss_uniform_plan_is_mean_cost():
    rng = np.random.default_rng(9)
    W = rng.normal(size=(5, 3))
    T = rng.normal(size=(4, 3))
    psi = np.full((5, 4), 1.0 / 20)
    C = squared_distances(W, T)
    assert abs(ecr_loss(W, T, psi) - C.mean()) < 1e-12


def test_ecr_loss_shape_mismatch():
    with pytest.raises(TransportError):
        ecr_loss(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros((4, 2)))


def test_ecr_grad_matches_fd_with_fixed_plan():
    rng = np.random.default_rng(4)
    W = rng.normal(size=(5, 3))
    T = rng.normal(size=(4, 3))
    psi = rng.uniform(0, 1, size=(5, 4))
    psi /= psi.sum()
    dW, dT = ecr_grad(W, T, psi)
    assert rel_err(dW, central_diff(lambda: ecr_loss(W, T, psi), W)) < 1e-3
    assert rel_err(dT, central_diff(lambda: ecr_loss(W, T, psi), T)) < 1e-3


def test_ecr_accepts_plan_object():
    W = np.zeros((2, 2))
    T = np.zeros((2, 2))
    plan = TransportPlan(np.full((2, 2), 0.25), 1, True, 0.0, 0.0)
    assert ecr_loss(W, T, plan) == 0.0
    dW, dT = ecr_grad(W, T, plan)
    assert dW.shape == W.shape and dT.shape == T.shape
