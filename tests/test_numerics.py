import numpy as np
import pytest
import scipy.sparse as sp
from fd import central_diff, rel_err
from oracles import GradientSink, adam_whole_array, encoder_hidden_in
from scipy.integrate import quad
from scipy.special import expit

from glocom.numerics import (
    ADAM_CHUNK,
    Adam,
    DenseLayer,
    Encoder,
    Param,
    clamp_logvar,
    gaussian_reparameterize,
    gaussian_reparameterize_backward,
    kl_diag_gaussian,
    kl_diag_gaussian_backward,
    softmax_backward,
    softmax_forward,
    softplus_backward,
    softplus_forward,
)
from glocom.errors import TrainingError


def test_softmax_symmetry_and_contract():
    y = softmax_forward(np.array([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(y, [[1 / 3, 1 / 3, 1 / 3]])
    rng = np.random.default_rng(0)
    X = rng.normal(scale=5, size=(50, 8))
    Y = softmax_forward(X)
    assert np.all(Y >= 0)
    np.testing.assert_allclose(Y.sum(axis=1), 1.0, atol=1e-9)
    # shift invariance
    np.testing.assert_allclose(softmax_forward(X + 3.7), Y, atol=1e-12)


def test_softplus_at_zero():
    assert abs(softplus_forward(np.array([0.0]))[0] - np.log(2.0)) < 1e-15


def test_softplus_extremes_finite():
    y = softplus_forward(np.array([-1000.0, 1000.0]))
    assert y[0] == 0.0
    assert y[1] == 1000.0


def test_primitive_backwards_match_fd_100_seeds():
    # randomized shapes up to 16x16
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, din, dout = rng.integers(1, 17, size=3)
        X = rng.normal(size=(n, din))
        layer = DenseLayer(Param("W", rng.normal(size=(din, dout))),
                           Param("b", rng.normal(size=dout)))
        R = rng.normal(size=(n, dout))

        grads = GradientSink()
        dX = layer.backward(R, X, grads)
        f = lambda: np.sum(R * layer.forward(X))
        assert rel_err(dX, central_diff(f, X)) < 1e-4
        assert rel_err(grads["W"], central_diff(f, layer.W.value)) < 1e-4
        assert rel_err(grads["b"], central_diff(f, layer.b.value)) < 1e-4

        Z = rng.normal(size=(n, din))
        Rz = rng.normal(size=(n, din))
        ds = softplus_backward(Rz, Z)
        assert rel_err(ds, central_diff(lambda: np.sum(Rz * softplus_forward(Z)), Z)) < 1e-4

        Y = softmax_forward(Z)
        dsm = softmax_backward(Rz, Y)
        assert rel_err(dsm, central_diff(lambda: np.sum(Rz * softmax_forward(Z)), Z)) < 1e-4


def test_reparameterize_identity_and_shapes():
    mu = np.array([[1.0, -2.0]])
    lv = np.array([[0.3, -0.7]])
    zero = np.zeros_like(mu)
    np.testing.assert_array_equal(gaussian_reparameterize(mu, lv, zero), mu)
    with pytest.raises(TrainingError):
        gaussian_reparameterize(mu, lv, np.zeros((2, 2)))


def test_reparameterize_monte_carlo_mean():
    rng = np.random.default_rng(42)
    mu = np.array([0.7])
    lv = np.array([np.log(0.5**2)])
    N = 100_000
    noise = rng.standard_normal((N, 1))
    draws = gaussian_reparameterize(np.tile(mu, (N, 1)), np.tile(lv, (N, 1)), noise)
    assert abs(draws.mean() - 0.7) < 3 * 0.5 / np.sqrt(N)


def test_logvar_clamp_limits():
    lv, mask = clamp_logvar(np.array([-50.0, 0.0, 50.0]))
    np.testing.assert_array_equal(lv, [-10.0, 0.0, 10.0])
    np.testing.assert_array_equal(mask, [0.0, 1.0, 0.0])
    # clamped-to-floor variance keeps sampling near mu
    out = gaussian_reparameterize(np.array([2.0]), lv[:1], np.array([1.0]))
    assert abs(out[0] - 2.0) < 0.01


def test_reparameterize_backward_fd():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mu = rng.normal(size=(3, 4))
        lv = rng.uniform(-2, 2, size=(3, 4))
        noise = rng.standard_normal((3, 4))
        R = rng.normal(size=(3, 4))
        dmu, dlv = gaussian_reparameterize_backward(R, lv, noise)
        f = lambda: np.sum(R * gaussian_reparameterize(mu, lv, noise))
        assert rel_err(dmu, central_diff(f, mu)) < 1e-4
        assert rel_err(dlv, central_diff(f, lv)) < 1e-4


def test_kl_identity_zero_and_known_value():
    assert kl_diag_gaussian(np.zeros(4), np.zeros(4), 0.0, 1.0) == 0.0
    # q = N(1,1), p = N(0,1), 1-D
    assert abs(kl_diag_gaussian(np.array([1.0]), np.array([0.0]), 0.0, 1.0) - 0.5) < 1e-15


def test_kl_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu_q = float(rng.uniform(-2, 2))
        lv_q = float(rng.uniform(-2, 1))
        mu_p = float(rng.uniform(-2, 2))
        var_p = float(rng.uniform(0.2, 3.0))
        sd_q = np.exp(0.5 * lv_q)

        def integrand(x):
            q = np.exp(-0.5 * ((x - mu_q) / sd_q) ** 2) / (sd_q * np.sqrt(2 * np.pi))
            p = np.exp(-0.5 * (x - mu_p) ** 2 / var_p) / np.sqrt(2 * np.pi * var_p)
            return q * (np.log(q) - np.log(p))

        lo = mu_q - 14 * sd_q
        hi = mu_q + 14 * sd_q
        val, _ = quad(integrand, lo, hi, limit=200)
        closed = kl_diag_gaussian(np.array([mu_q]), np.array([lv_q]), mu_p, var_p)
        assert abs(closed - val) < 1e-6


def test_kl_nonnegative_random():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        k = int(rng.integers(1, 6))
        mu = rng.normal(scale=3, size=k)
        lv = rng.uniform(-6, 4, size=k)
        var_p = float(rng.uniform(0.01, 5))
        mu_p = float(rng.normal())
        assert kl_diag_gaussian(mu, lv, mu_p, var_p) >= -1e-12


def test_kl_rejects_bad_prior_variance():
    with pytest.raises(TrainingError):
        kl_diag_gaussian(np.zeros(2), np.zeros(2), 0.0, 0.0)


def test_kl_backward_fd():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mu = rng.normal(size=(2, 5))
        lv = rng.uniform(-2, 2, size=(2, 5))
        mu_p, var_p = float(rng.normal()), float(rng.uniform(0.3, 2))
        w = rng.normal(size=2)
        dmu, dlv = kl_diag_gaussian_backward(w, mu, lv, mu_p, var_p)
        f = lambda: np.sum(w * kl_diag_gaussian(mu, lv, mu_p, var_p))
        assert rel_err(dmu, central_diff(f, mu)) < 1e-4
        assert rel_err(dlv, central_diff(f, lv)) < 1e-4


def test_encoder_backward_fd():
    rng = np.random.default_rng(1)
    enc = Encoder("phi", in_dim=6, hidden=5, out_dim=3, rng=rng)
    X = rng.normal(size=(4, 6))
    R1 = rng.normal(size=(4, 3))
    R2 = rng.normal(size=(4, 3))

    def loss():
        mu, lv, _ = enc.forward(X)
        return np.sum(R1 * mu) + np.sum(R2 * lv)

    mu, lv, cache = enc.forward(X)
    grads = GradientSink()
    enc.backward(R1, R2, cache, grads)
    for p in enc.params():
        assert rel_err(grads[p.name], central_diff(loss, p.value)) < 1e-4, p.name


def test_encoder_csr_input_matches_dense():
    rng = np.random.default_rng(2)
    enc = Encoder("phi", in_dim=30, hidden=7, out_dim=4, rng=rng)
    X = rng.uniform(0, 1, size=(9, 30)) * (rng.random((9, 30)) < 0.3)
    X[3] = 0.0  # an empty row
    R1, R2 = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
    grads, outs = [], []
    for rows in (X, sp.csr_matrix(X)):
        mu, lv, cache = enc.forward(rows)
        grads.append(GradientSink())
        enc.backward(R1, R2, cache, grads[-1])
        outs.append((mu, lv))
    for a, b in zip(outs[0], outs[1]):
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)
    for p in enc.params():
        np.testing.assert_allclose(grads[1][p.name], grads[0][p.name], rtol=1e-12,
                                   atol=1e-12, err_msg=p.name)


def _encoder_against_hidden_in(rows):
    """The encoder's (a1, mu, lv) and gradients, and the (hidden, in_dim)
    oracle's, on ``rows`` built from one sparse (9, 300) matrix."""
    rng = np.random.default_rng(3)
    enc = Encoder("gamma", in_dim=300, hidden=16, out_dim=5, rng=rng)
    assert enc.l1.W.value.shape == (300, 16) and enc.l1.W.value.flags.c_contiguous
    X = rows(rng.uniform(0, 2, size=(9, 300)) * (rng.random((9, 300)) < 0.05))
    dmu, dlv = rng.normal(size=(9, 5)), rng.normal(size=(9, 5))
    mu, lv, cache = enc.forward(X)
    sink = GradientSink()
    enc.backward(dmu, dlv, cache, sink)
    grads = [sink[p.name] for p in enc.params()]
    grads[0] = grads[0].T
    return ((cache.a1, mu, lv), grads), encoder_hidden_in(enc, X, dmu, dlv)


def test_encoder_csr_matches_hidden_in_layout_bitwise():
    # X @ W.T on CSR copied W.T into the C-ordered (in_dim, hidden) array
    # that the encoder now holds, so both run the same sparse kernel
    (outs, grads), (want_outs, want_grads) = _encoder_against_hidden_in(sp.csr_matrix)
    for got, want in zip(outs, want_outs):
        np.testing.assert_array_equal(got, want)
    for got, want in zip(grads, want_grads):
        np.testing.assert_array_equal(got, want)


def test_encoder_dense_matches_hidden_in_layout():
    # not bitwise: on dense rows X @ W is an NN gemm and X @ W.T an NT gemm,
    # and the two kernels sum the products in different orders
    (outs, grads), (want_outs, want_grads) = _encoder_against_hidden_in(np.asarray)
    for got, want in zip([*outs, *grads], [*want_outs, *want_grads]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_encoder_rejects_wrong_input_width():
    enc = Encoder("phi", in_dim=6, hidden=5, out_dim=3, rng=np.random.default_rng(0))
    with pytest.raises(TrainingError, match="input dim 7 != weight dim 6"):
        enc.forward(np.ones((2, 7)))


def _masked_sigmoid(x):
    # the two-branch formula softplus_backward used before expit
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_softplus_backward_is_expit_of_masked_sigmoid():
    rng = np.random.default_rng(5)
    x = np.concatenate([[-1000.0, -745.0, -40.0, -1e-300, 0.0, 1e-300, 40.0, 745.0, 1000.0],
                        rng.normal(scale=8, size=5000)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = expit(x)
        want = _masked_sigmoid(x)
        np.testing.assert_allclose(got, want, rtol=0, atol=2.3e-16)
        g = rng.normal(size=x.shape)
        np.testing.assert_array_equal(softplus_backward(g, x), g * got)
    assert got[4] == 0.5 and got[0] == 0.0 and got[8] == 1.0


def _adam_reference(values, grads_per_step, lr=0.01):
    # the per-parameter whole-array formula the chunked step reproduces
    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for t, grads in enumerate(grads_per_step, start=1):
        for value, mm, vv, g in zip(values, m, v2, grads):
            adam_whole_array(value, mm, vv, g, t, lr)
    return values, m, v2


def test_adam_chunked_step_bit_identical_to_whole_array_formula():
    rng = np.random.default_rng(6)
    shapes = [(70_000,), (200, 3000), (3,)]
    assert all(np.prod(s) % ADAM_CHUNK for s in shapes)
    start = [rng.normal(size=s) for s in shapes]
    steps = [[rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s) for s in shapes]
             for _ in range(15)]
    params = [Param(f"p{i}", v.copy()) for i, v in enumerate(start)]
    opt = Adam(params, lr=0.01)
    for grads in steps:
        for p, g in zip(params, grads):
            opt.update(p, g)
        opt.step()
    values, m, v = _adam_reference(start, steps)
    for i, p in enumerate(params):
        np.testing.assert_array_equal(p.value, values[i])
        np.testing.assert_array_equal(opt.m[p.name], m[i])
        np.testing.assert_array_equal(opt.v[p.name], v[i])


def test_adam_step_names_every_parameter_not_updated():
    # a parameter the backward pass skipped is an error, not a silent
    # momentum-only move; the step does not end
    params = [Param(name, np.ones(3)) for name in ("a", "b", "c")]
    opt = Adam(params, lr=0.1)
    opt.update(params[1], np.ones(3))
    with pytest.raises(TrainingError, match=r"not updated in step 1: \['a', 'c'\]"):
        opt.step()
    np.testing.assert_array_equal(params[0].value, np.ones(3))
    assert opt.step_count == 0
    opt.update(params[0], np.ones(3))
    opt.update(params[2], np.ones(3))
    opt.step()
    assert opt.step_count == 1


def test_adam_update_refuses_a_second_update_in_one_step():
    p, q = Param("x", np.ones(3)), Param("y", np.ones((2, 3)))
    opt = Adam([p], lr=0.1)
    opt.update(p, np.ones(3))
    before = p.value.copy()
    with pytest.raises(TrainingError, match="'x' updated twice in one step"):
        opt.update(p, np.ones(3))
    np.testing.assert_array_equal(p.value, before)
    with pytest.raises(TrainingError, match=r"gradient shape \(3, 2\) != parameter 'y'"):
        Adam([q]).update(q, np.ones((3, 2)))
    opt.step()  # the next step may update it again
    opt.update(p, np.ones(3))
    assert opt.step_count == 1


def test_param_value_is_contiguous():
    p = Param("w", np.asfortranarray(np.arange(6.0).reshape(2, 3)))
    assert p.value.flags.c_contiguous
    opt = Adam([p], lr=0.1)
    opt.update(p, np.ones((2, 3)))
    opt.step()
    assert np.all(p.value < np.arange(6.0).reshape(2, 3))


def test_adam_zero_gradient_no_move():
    p = Param("x", np.array([[1.0, 2.0]]))
    opt = Adam([p], lr=0.1)
    opt.update(p, np.zeros((1, 2)))
    opt.step()
    np.testing.assert_array_equal(p.value, [[1.0, 2.0]])


def test_adam_minimizes_quadratic():
    p = Param("x", np.array([1.0]))
    opt = Adam([p], lr=0.1)
    for _ in range(200):
        opt.update(p, 2.0 * p.value)
        opt.step()
    assert abs(p.value[0]) < 1e-3


def test_adam_first_step_is_lr_sized():
    p = Param("x", np.array([3.0, -4.0]))
    opt = Adam([p], lr=0.05)
    opt.update(p, np.array([0.2, -7.0]))
    opt.step()
    np.testing.assert_allclose(p.value, [3.0 - 0.05, -4.0 + 0.05], atol=1e-6)


def test_adam_bit_reproducible():
    def run():
        rng = np.random.default_rng(9)
        p = Param("x", rng.normal(size=(4, 4)))
        opt = Adam([p], lr=0.01)
        for _ in range(50):
            opt.update(p, np.sin(p.value))
            opt.step()
        return p.value.copy()

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)


def test_adam_rejects_duplicate_names():
    with pytest.raises(TrainingError):
        Adam([Param("x", np.zeros(1)), Param("x", np.zeros(1))])
