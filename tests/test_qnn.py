import numpy as np
import pytest

from qin.errors import ShapeError
from qin.linalg import make_rng
from qin.qnn import (QnnConfig, assemble_x1, brute_force_expansion, mlp_backward,
                     mlp_forward, qnn_backward, qnn_forward, qnn_layer_backward,
                     qnn_layer_forward)


def cfg_for(dim, m=1, depth=1, residual=True, mid_act=False, dropout_p=0.0):
    return QnnConfig(depth=depth, m=m, dim=dim, dropout_p=dropout_p,
                     residual=residual, mid_act=mid_act)


def test_assemble_layout():
    x1 = assemble_x1(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 4)
    assert np.array_equal(x1, [1.0, 2.0, 3.0, 4.0])


def test_assemble_zero():
    assert np.array_equal(assemble_x1(np.zeros(2), np.zeros(2), 4), np.zeros(4))


def test_assemble_dim_mismatch():
    with pytest.raises(ShapeError):
        assemble_x1(np.zeros(2), np.zeros(2), 5)


def test_layer_hand_case():
    # dim 2, one identity head, slope 1 makes the activation the identity.
    cfg = cfg_for(2)
    w = np.eye(2)[None, :, :]
    x = np.array([[1.0, 2.0]])
    out, trace = qnn_layer_forward(w, 1.0, x, cfg)
    assert np.array_equal(trace.t, [[1.0, 2.0]])  # the one head's transform
    assert np.array_equal(trace.h, [[1.0, 4.0]])
    assert np.array_equal(out, [[2.0, 6.0]])


def test_layer_zero_input():
    cfg = cfg_for(3, m=2)
    w = make_rng(0).standard_normal((2, 3, 3))
    out, _ = qnn_layer_forward(w, 0.25, np.zeros((1, 3)), cfg)
    assert np.array_equal(out, np.zeros((1, 3)))


def test_layer_zero_weights_pure_residual():
    cfg = cfg_for(3, m=2)
    x = make_rng(1).standard_normal((2, 3))
    out, _ = qnn_layer_forward(np.zeros((2, 3, 3)), 0.25, x, cfg)
    assert np.array_equal(out, x)


def test_brute_force_matches_hand_case():
    cfg = cfg_for(2)
    out = brute_force_expansion(np.eye(2)[None, :, :], 1.0, np.array([1.0, 2.0]), cfg)
    assert np.array_equal(out, [2.0, 6.0])


def test_brute_force_zero_weights():
    cfg = cfg_for(4, m=3)
    x = make_rng(2).standard_normal(4)
    assert np.array_equal(brute_force_expansion(np.zeros((3, 4, 4)), 0.3, x, cfg), x)


@pytest.mark.parametrize("mid_act", [False, True])
def test_oracle_equivalence_sweep(mid_act):
    # 100 random instances with dim <= 5, m <= 3 agree within 1e-12
    rng = make_rng(3)
    for trial in range(100):
        dim = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        residual = bool(rng.integers(0, 2))
        cfg = cfg_for(dim, m=m, residual=residual, mid_act=mid_act)
        w = rng.standard_normal((m, dim, dim))
        slope = float(rng.uniform(0.0, 1.0))
        x = rng.standard_normal(dim)
        fast, _ = qnn_layer_forward(w, slope, x[None, :], cfg)
        oracle = brute_force_expansion(w, slope, x, cfg)
        assert np.max(np.abs(fast[0] - oracle)) < 1e-12


def expand_quadratic_int(w, x):
    """Exact integer quadratic form: h[i] = sum_j (sum_m w[m,i,j]) x_i x_j."""
    dim = len(x)
    out = []
    for i in range(dim):
        total = 0
        for j in range(dim):
            coeff = sum(int(w[m, i, j]) for m in range(w.shape[0]))
            total += coeff * int(x[i]) * int(x[j])
        out.append(total)
    return out


def test_integer_symbolic_agreement():
    # sigma = identity (slope 1), residual off: layer output entries are pure
    # quadratic forms; exact integer agreement on the full {-2..2}^3 grid.
    rng = make_rng(4)
    dim, m = 3, 2
    w = rng.integers(-3, 4, (m, dim, dim)).astype(float)
    cfg = cfg_for(dim, m=m, residual=False)
    grid = np.arange(-2, 3)
    for a in grid:
        for b in grid:
            for c in grid:
                x = np.array([a, b, c], dtype=float)
                fast, _ = qnn_layer_forward(w, 1.0, x[None, :], cfg)
                exact = expand_quadratic_int(w, [a, b, c])
                assert [int(v) for v in fast[0]] == exact
                assert np.array_equal(fast[0], np.array(exact, dtype=float))


def test_branch_homogeneity_degree_two():
    # Residual off, identity activation: scaling the input by c scales the
    # output by exactly c^2.
    rng = make_rng(5)
    dim, m = 4, 2
    cfg = cfg_for(dim, m=m, residual=False)
    w = rng.standard_normal((m, dim, dim))
    x = rng.standard_normal(dim)
    base, _ = qnn_layer_forward(w, 1.0, x[None, :], cfg)
    for c in (2.0, 0.5, -3.0):
        scaled, _ = qnn_layer_forward(w, 1.0, (c * x)[None, :], cfg)
        assert np.allclose(scaled, c * c * base, rtol=1e-12, atol=1e-12)


def test_stack_depth_zero_passthrough():
    cfg = cfg_for(3, depth=0)
    x1 = make_rng(6).standard_normal(3)
    out, trace = qnn_forward([], np.zeros(0), x1, cfg)
    assert np.array_equal(out, x1)
    d_ws, d_slopes, d_x1 = qnn_backward([], np.zeros(0), cfg, trace, np.ones(3))
    assert d_ws == []
    assert np.array_equal(d_x1, np.ones(3))


def test_stack_zero_upstream():
    rng = make_rng(7)
    cfg = cfg_for(3, m=2, depth=2)
    ws = [rng.standard_normal((2, 3, 3)) for _ in range(2)]
    slopes = np.array([0.25, 0.25])
    _, trace = qnn_forward(ws, slopes, rng.standard_normal(3), cfg)
    d_ws, d_slopes, d_x1 = qnn_backward(ws, slopes, cfg, trace, np.zeros(3))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in d_ws)
    assert np.array_equal(d_slopes, np.zeros(2))
    assert np.array_equal(d_x1, np.zeros(3))


def qnn_fd_worst(seed, mid_act=False, act="prelu", dropout=False):
    rng = make_rng(seed)
    dim, m, depth = 4, 2, 2
    cfg = QnnConfig(depth=depth, m=m, dim=dim, dropout_p=0.1 if dropout else 0.0,
                    residual=True, mid_act=mid_act, act=act)
    ws = [rng.standard_normal((m, dim, dim)) * 0.5 for _ in range(depth)]
    slopes = np.array([0.25, 0.4]) if act == "prelu" else np.zeros(depth)
    x1 = rng.standard_normal(dim)
    r = rng.standard_normal(dim)
    masks = None
    if dropout:
        masks = [(rng.random((1, dim)) >= 0.1).astype(float) for _ in range(depth)]

    def loss(ws_, slopes_, x1_):
        out, _ = qnn_forward(ws_, slopes_, x1_, cfg, masks)
        return float(r @ out)

    _, trace = qnn_forward(ws, slopes, x1, cfg, masks)
    d_ws, d_slopes, d_x1 = qnn_backward(ws, slopes, cfg, trace, r)
    worst = 0.0
    h = 1e-6

    def fd(setter):
        f_plus = setter(h)
        f_minus = setter(-h)
        return (f_plus - f_minus) / (2 * h)

    for l in range(depth):
        flat = ws[l].ravel()
        gflat = d_ws[l].ravel()
        for i in range(flat.size):
            old = flat[i]

            def move(delta, i=i, l=l, old=old):
                ws[l].ravel()[i] = old + delta
                v = loss(ws, slopes, x1)
                ws[l].ravel()[i] = old
                return v

            numeric = fd(move)
            worst = max(worst, abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-6))
    if act == "prelu":
        for l in range(depth):
            old = slopes[l]

            def move(delta, l=l, old=old):
                slopes[l] = old + delta
                v = loss(ws, slopes, x1)
                slopes[l] = old
                return v

            numeric = fd(move)
            worst = max(worst, abs(d_slopes[l] - numeric) / max(abs(d_slopes[l]), abs(numeric), 1e-6))
    for i in range(dim):
        old = x1[i]

        def move(delta, i=i, old=old):
            x1[i] = old + delta
            v = loss(ws, slopes, x1)
            x1[i] = old
            return v

        numeric = fd(move)
        worst = max(worst, abs(d_x1[i] - numeric) / max(abs(d_x1[i]), abs(numeric), 1e-6))
    return worst


@pytest.mark.parametrize("mid_act", [False, True])
def test_stack_backward_matches_finite_differences(mid_act):
    for seed in range(3):
        assert qnn_fd_worst(40 + seed, mid_act=mid_act) < 1e-4


def test_stack_backward_relu_act_and_dropout():
    assert qnn_fd_worst(50, act="relu") < 1e-4
    assert qnn_fd_worst(51, dropout=True) < 1e-4


def test_relu_act_freezes_slope_gradient():
    rng = make_rng(52)
    cfg = QnnConfig(depth=1, m=1, dim=3, act="relu")
    ws = [rng.standard_normal((1, 3, 3))]
    slopes = np.zeros(1)
    _, trace = qnn_forward(ws, slopes, rng.standard_normal(3), cfg)
    _, d_slopes, _ = qnn_backward(ws, slopes, cfg, trace, np.ones(3))
    assert np.array_equal(d_slopes, np.zeros(1))


def where_prelu(x, slope):
    return np.where(x >= 0.0, x, slope * x)


def where_layer(w, slope, x, cfg, drop_mask, d_out):
    """The layer as written with np.where selects: forward output, d_w, d_slope, d_x."""
    t = x @ w.sum(axis=0).T
    if cfg.mid_act:
        branch = x * where_prelu(t, slope)
    else:
        h = x * t
        branch = where_prelu(h, slope)
    if drop_mask is not None:
        branch = branch * drop_mask / (1.0 - cfg.dropout_p)
    out = x + branch if cfg.residual else branch

    d_branch = d_out
    if drop_mask is not None:
        d_branch = d_branch * drop_mask / (1.0 - cfg.dropout_p)
    if cfg.mid_act:
        d_x = d_branch * where_prelu(t, slope)
        d_act = d_branch * x
        d_t = d_act * np.where(t >= 0.0, 1.0, slope)
        d_slope = float(np.sum(np.where(t < 0, d_act * t, 0.0)))
    else:
        d_h = d_branch * np.where(h >= 0.0, 1.0, slope)
        d_slope = float(np.sum(np.where(h < 0, d_branch * h, 0.0)))
        d_x = d_h * t
        d_t = d_h * x
    d_w = d_t.T @ x
    d_x = d_x + d_t @ w.sum(axis=0)
    if cfg.residual:
        d_x = d_x + d_out
    if cfg.act == "relu":
        d_slope = 0.0
    return out, d_w, d_slope, d_x


@pytest.mark.parametrize("n", [1, 257])
@pytest.mark.parametrize("act", ["prelu", "relu"])
@pytest.mark.parametrize("mid_act", [False, True])
@pytest.mark.parametrize("dropout", [False, True])
@pytest.mark.parametrize("residual", [False, True])
def test_layer_matches_where_reference_bit_for_bit(n, act, mid_act, dropout, residual):
    rng = make_rng(60 + n)
    dim, m = 8, 3
    cfg = QnnConfig(depth=1, m=m, dim=dim, dropout_p=0.3 if dropout else 0.0,
                    residual=residual, mid_act=mid_act, act=act)
    w = rng.standard_normal((m, dim, dim))
    slope = 0.0 if act == "relu" else float(rng.uniform(-1.0, 1.0))
    x = rng.standard_normal((n, dim))
    drop_mask = (rng.uniform(size=(n, dim)) > 0.3).astype(float) if dropout else None
    d_out = rng.standard_normal((n, dim))
    x_before, d_out_before = x.copy(), d_out.copy()

    out, trace = qnn_layer_forward(w, slope, x, cfg, drop_mask)
    d_w, d_slope, d_x = qnn_layer_backward(w, slope, cfg, trace, d_out)
    ref_out, ref_d_w, ref_d_slope, ref_d_x = where_layer(w, slope, x, cfg, drop_mask, d_out)

    assert np.array_equal(out, ref_out)
    assert np.array_equal(d_w, np.broadcast_to(ref_d_w, w.shape))
    assert d_slope == ref_d_slope
    assert np.array_equal(d_x, ref_d_x)
    # Mixed signs, so both sides of the activation are exercised.
    h = trace.t if mid_act else trace.h
    assert np.any(h < 0) and np.any(h > 0)
    # In-place arithmetic never writes into the caller's arrays.
    assert np.array_equal(x, x_before) and np.array_equal(d_out, d_out_before)


def test_mlp_zero_weights():
    ws = [np.zeros((3, 4)), np.zeros((2, 3))]
    bs = [np.zeros(3), np.zeros(2)]
    out, _ = mlp_forward(ws, bs, np.ones(4))
    assert np.array_equal(out, np.zeros(2))


def test_mlp_identity_passthrough_positive():
    ws = [np.eye(3)]
    bs = [np.zeros(3)]
    x = np.array([0.5, 1.0, 2.0])
    out, _ = mlp_forward(ws, bs, x)
    assert np.array_equal(out, x)


def test_mlp_dims_chain_error():
    with pytest.raises(ShapeError):
        mlp_forward([np.zeros((3, 5))], [np.zeros(3)], np.ones(4))


def test_mlp_backward_finite_differences():
    rng = make_rng(60)
    ws = [rng.standard_normal((5, 4)), rng.standard_normal((3, 5))]
    bs = [rng.standard_normal(5), rng.standard_normal(3)]
    x1 = rng.standard_normal(4)
    r = rng.standard_normal(3)

    def loss():
        out, _ = mlp_forward(ws, bs, x1)
        return float(r @ out)

    _, trace = mlp_forward(ws, bs, x1)
    d_ws, d_bs, d_x1 = mlp_backward(ws, bs, trace, r)
    h = 1e-6
    for param, grad in ((ws[0], d_ws[0]), (ws[1], d_ws[1]),
                        (bs[0], d_bs[0]), (bs[1], d_bs[1]), (x1, d_x1)):
        flat = param.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            f_plus = loss()
            flat[i] = old - h
            f_minus = loss()
            flat[i] = old
            numeric = (f_plus - f_minus) / (2 * h)
            assert abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1e-6) < 1e-4
