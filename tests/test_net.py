import json
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from scipy.special import expit

from flowfx import net
from flowfx.errors import DivergenceError, DomainError, FileFormatError
from flowfx.net import (
    BETA1,
    BETA2,
    CLIP_NORM,
    EPS,
    MAX_SKIPS,
    GradTape,
    ModelConfig,
    OptimizerState,
    VelocityModel,
    adam_step,
    forward,
    global_grad_norm,
    init_model,
    init_optimizer,
    load_checkpoint,
    save_checkpoint,
)

import oracles
from oracles import backward, jvp, zero_grads

SMALL = ModelConfig(dim=3, hidden=(8, 6), n_cond=2, cond_dim=4, embed_dim=5, n_freqs=4)


def small_model(seed=0):
    return init_model(SMALL, np.random.default_rng(seed))


def _run(model, x, t, r, cond, **kwargs):
    """One pass of a Field bound to x's rows: (u, du, tape)."""
    return net.Field(model, cond, len(x)).run(x, t, r, **kwargs)


def test_zero_parameters_zero_output():
    model = small_model()
    for k in model.params:
        model.params[k][:] = 0.0
    u = forward(model, np.ones(3), 0.5, 0.25, cond=1)
    assert np.array_equal(u, np.zeros(3))


def test_forward_deterministic_and_seeded():
    a = forward(small_model(7), np.ones(3), 0.3, 0.1, cond=0)
    b = forward(small_model(7), np.ones(3), 0.3, 0.1, cond=0)
    assert np.array_equal(a, b)
    c = forward(small_model(8), np.ones(3), 0.3, 0.1, cond=0)
    assert not np.array_equal(a, c)


def test_forward_batch_matches_single():
    model = small_model(3)
    xs = np.random.default_rng(0).standard_normal((4, 3))
    t = np.array([0.1, 0.4, 0.9, 0.5])
    r = np.array([0.1, 0.2, 0.3, 0.5])
    cond = np.array([0, 1, 2, 2])
    batch = forward(model, xs, t, r, cond)
    for i in range(4):
        one = forward(model, xs[i], t[i], r[i], cond=int(cond[i]))
        assert np.allclose(batch[i], one, rtol=1e-13, atol=1e-15)


def test_forward_shape_validation():
    model = small_model()
    with pytest.raises(DomainError):
        forward(model, np.ones(4), 0.5, 0.5)
    with pytest.raises(DomainError):
        forward(model, np.ones((2, 3)), np.zeros(3), 0.5)
    with pytest.raises(DomainError):
        forward(model, np.ones(3), 0.5, 0.5, cond=5)
    with pytest.raises(DomainError):
        forward(model, np.ones(3), 0.5, 0.5, cond=-1)


def test_null_cond_is_default():
    model = small_model(2)
    x = np.ones(3)
    assert np.array_equal(
        forward(model, x, 0.5, 0.5),
        forward(model, x, 0.5, 0.5, cond=SMALL.null_cond),
    )
    assert not np.array_equal(
        forward(model, x, 0.5, 0.5), forward(model, x, 0.5, 0.5, cond=0)
    )


def _loss(model, x, t, r, cond, upstream):
    return float(np.sum(forward(model, x, t, r, cond) * upstream))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    model = small_model(5)
    x = rng.standard_normal((2, 3))
    t = np.array([0.3, 0.8])
    r = np.array([0.1, 0.8])
    cond = np.array([0, 2])
    upstream = rng.standard_normal((2, 3))
    tape = backward(model, x, t, r, cond, upstream)
    h = 1e-5
    for name, p in model.params.items():
        g = tape.grads[name]
        assert g.shape == p.shape
        flat = p.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            hi = _loss(model, x, t, r, cond, upstream)
            flat[j] = orig - h
            lo = _loss(model, x, t, r, cond, upstream)
            flat[j] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(g.reshape(-1)[j] - fd) <= 1e-4 * max(abs(fd), 1e-2), (name, j)


def test_backward_grad_x_matches_finite_differences():
    rng = np.random.default_rng(6)
    model = small_model(6)
    x = rng.standard_normal(3)
    upstream = rng.standard_normal(3)
    tape = backward(model, x, 0.6, 0.2, 1, upstream)
    h = 1e-5
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (
            _loss(model, x + e, 0.6, 0.2, 1, upstream)
            - _loss(model, x - e, 0.6, 0.2, 1, upstream)
        ) / (2 * h)
        assert abs(tape.grad_x[j] - fd) <= 1e-4 * max(abs(fd), 1e-2)


def test_backward_zero_upstream():
    model = small_model(1)
    tape = backward(model, np.ones(3), 0.5, 0.5, None, np.zeros(3))
    for g in tape.grads.values():
        assert not np.any(g)
    assert not np.any(tape.grad_x)


def test_backward_linear_weight_gradient_closed_form():
    # the readout is linear in its features h: d<W h + b, up>/dW = up h^T
    model = small_model(2)
    x = np.array([1.5, -2.0, 0.5])
    up = np.array([0.5, 3.0, -1.0])
    h, _ = net.hidden_forward(model, x, 0.3, 0.1, 1, want_tape=False)
    tape = backward(model, x, 0.3, 0.1, 1, up)
    assert np.array_equal(tape.grads["w_out"], np.outer(up, h))
    assert np.array_equal(tape.grads["b_out"], up)


def test_jvp_value_bit_identical_to_forward():
    model = small_model(9)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3))
    t = rng.uniform(0, 1, 5)
    r = rng.uniform(0, 1, 5)
    cond = rng.integers(0, 3, 5)
    val, _ = jvp(model, x, t, r, cond, (rng.standard_normal((5, 3)), 1.0, 0.0))
    assert np.array_equal(val, forward(model, x, t, r, cond))


def test_jvp_zero_tangent():
    model = small_model(4)
    _, d = jvp(model, np.ones(3), 0.4, 0.2, 0, (np.zeros(3), 0.0, 0.0))
    assert np.array_equal(d, np.zeros(3))


def test_jvp_matches_finite_differences():
    # modest top frequency keeps the finite-difference truncation error
    # (from third derivatives of the sinusoidal features) below the bound
    cfg = ModelConfig(
        dim=3, hidden=(8, 6), n_cond=2, cond_dim=4, embed_dim=5, n_freqs=4,
        freq_max=20.0,
    )
    rng = np.random.default_rng(12)
    model = init_model(cfg, rng)
    x = rng.standard_normal(3)
    dx = rng.standard_normal(3)
    t, r = 0.5, 0.2
    _, d = jvp(model, x, t, r, 1, (dx, 1.0, 0.0))
    h = 1e-5
    fd = (
        forward(model, x + h * dx, t + h, r, 1) - forward(model, x - h * dx, t - h, r, 1)
    ) / (2 * h)
    assert np.max(np.abs(d - fd)) <= 1e-5


def test_jvp_linearity():
    rng = np.random.default_rng(13)
    model = small_model(13)
    x = rng.standard_normal(3)
    u1 = (rng.standard_normal(3), 0.7, -0.2)
    u2 = (rng.standard_normal(3), -0.3, 0.9)
    a, b = 1.7, -2.5
    _, d1 = jvp(model, x, 0.6, 0.3, 0, u1)
    _, d2 = jvp(model, x, 0.6, 0.3, 0, u2)
    combined = (a * u1[0] + b * u2[0], a * u1[1] + b * u2[1], a * u1[2] + b * u2[2])
    _, d = jvp(model, x, 0.6, 0.3, 0, combined)
    assert np.max(np.abs(d - (a * d1 + b * d2))) <= 1e-10


def test_backward_jvp_adjoint_consistency():
    # <grad_x from upstream e_i, dx> must equal component i of the jvp
    # derivative for tangent (dx, 0, 0)
    rng = np.random.default_rng(14)
    model = small_model(14)
    x = rng.standard_normal(3)
    dx = rng.standard_normal(3)
    _, d = jvp(model, x, 0.3, 0.1, 2, (dx, 0.0, 0.0))
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        tape = backward(model, x, 0.3, 0.1, 2, e)
        assert abs(float(tape.grad_x @ dx) - d[i]) <= 1e-9


def test_logistic_within_4_ulp_of_expit():
    a = np.linspace(-800.0, 800.0, 1_600_001)
    got, want = net._logistic(a), expit(a)
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def test_logistic_limits_exact_and_silent():
    a = np.array([-800.0, -np.inf, 800.0, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = net._logistic(a)
    assert np.array_equal(s[:4], [0.0, 0.0, 1.0, 1.0])
    assert np.isnan(s[4])
    assert np.array_equal(a[:4], [-800.0, -np.inf, 800.0, np.inf])  # input untouched


def _reference_inputs(model, x, t, r, cond, tangent):
    """The time features with the r features computed on their own, and the
    network input's tangent: (e_in, dh) for batched t, r and a (dx, dt, dr)
    tangent."""
    cfg, p = model.config, model.params
    dx, dt, dr = tangent
    freqs = cfg.frequencies()
    ang_t, ang_r = t[:, None] * freqs[None, :], r[:, None] * freqs[None, :]
    sin_t, cos_t, sin_r, cos_r = np.sin(ang_t), np.cos(ang_t), np.sin(ang_r), np.cos(ang_r)
    e_in = np.concatenate([sin_t, cos_t, sin_r, cos_r], axis=1)
    d_ang_t = np.full(len(t), dt)[:, None] * freqs[None, :]
    d_ang_r = np.full(len(t), dr)[:, None] * freqs[None, :]
    de_in = np.concatenate(
        [cos_t * d_ang_t, -sin_t * d_ang_t, cos_r * d_ang_r, -sin_r * d_ang_r], axis=1
    )
    dh = np.concatenate([dx, de_in @ p["embed_w"].T, np.zeros((len(x), cfg.cond_dim))], axis=1)
    return e_in, dh


def _reference_layers(model, a, dh):
    """The rest of the pass from the first pre-activation ``a``, with the
    SiLU slope written out as s * (1 + a * (1 - s)): (u, du, slopes)."""
    p = model.params
    layers = [(p[f"w{i}"], p[f"b{i}"]) for i in range(len(model.config.hidden))]
    layers.append((p["w_out"], p["b_out"]))
    slopes = []
    for i, (w, b) in enumerate(layers[1:]):
        s = net._logistic(a)
        slopes.append(s * (1.0 + a * (1.0 - s)))
        dh = slopes[-1] * (dh @ p[f"w{i}"].T)
        a = (a * s) @ w.T + b
    return a, dh @ p["w_out"].T, slopes


def _core_reference(model, x, t, r, cond, tangent, one_row=False):
    """The primal pass with its first affine map taken block by block over
    [x, e, c], as _core takes it.  Returns (u, du, slopes) for batched x, t,
    r, cond and a (dx, dt, dr) tangent.  ``one_row`` embeds only the first
    time row, as a batch that shares one (t, r) does."""
    cfg, p = model.config, model.params
    dim, ed = cfg.dim, cfg.embed_dim
    e_in, dh = _reference_inputs(model, x, t, r, cond, tangent)
    e = (e_in[:1] if one_row else e_in) @ p["embed_w"].T + p["embed_b"]
    w = p["w0"]
    a = (x @ w[:, :dim].T + (p["cond_table"] @ w[:, dim + ed :].T)[cond]
         + (e @ w[:, dim : dim + ed].T + p["b0"]))
    return _reference_layers(model, a, dh)


def _concatenated_reference(model, x, t, r, cond, tangent):
    """The same pass with the first affine map as one product with the
    concatenated input [x, e, c]: the same terms summed in another order."""
    p = model.params
    e_in, dh = _reference_inputs(model, x, t, r, cond, tangent)
    z = np.concatenate([x, e_in @ p["embed_w"].T + p["embed_b"], p["cond_table"][cond]], axis=1)
    return _reference_layers(model, z @ p["w0"].T + p["b0"], dh)


@pytest.mark.parametrize("r_equals_t", [True, False])
@pytest.mark.parametrize("hidden", [(8, 6), (5,)])
def test_core_matches_separate_r_features(r_equals_t, hidden):
    cfg = ModelConfig(dim=3, hidden=hidden, n_cond=2, cond_dim=4, embed_dim=5, n_freqs=4)
    model = init_model(cfg, np.random.default_rng(21))
    rng = np.random.default_rng(22)
    x, dx = rng.standard_normal((7, 3)), rng.standard_normal((7, 3))
    t = rng.uniform(0.0, 1.0, 7)
    r = t.copy() if r_equals_t else rng.uniform(0.0, 1.0, 7) * t
    cond = rng.integers(0, 3, 7)
    tangent = (dx, 1.0, 0.0)
    want_u, want_du, want_slopes = _core_reference(model, x, t, r, cond, tangent)

    assert np.array_equal(forward(model, x, t, r, cond), want_u)
    u, du = jvp(model, x, t, r, cond, tangent)
    assert np.array_equal(u, want_u) and np.array_equal(du, want_du)
    u, du, tape = _run(model, x, t, r, cond, want_tape=True, tangent=tangent)
    assert np.array_equal(u, want_u) and np.array_equal(du, want_du)
    assert len(tape["slope"]) == len(want_slopes)
    assert all(np.array_equal(a, b) for a, b in zip(tape["slope"], want_slopes))


@pytest.mark.parametrize("cond_kind", ["none", "scalar", "vector"])
@pytest.mark.parametrize("r_equals_t", [True, False])
@pytest.mark.parametrize("hidden", [(8, 6), (5,)])
@pytest.mark.parametrize("n", [1, 7, 1024])
def test_scalar_times_match_full_vectors(n, hidden, r_equals_t, cond_kind):
    # scalar t and r share one feature row across the batch; every array
    # must carry the bits of the same pass with per-sample vectors
    cfg = ModelConfig(dim=3, hidden=hidden, n_cond=2, cond_dim=4, embed_dim=5, n_freqs=4)
    model = init_model(cfg, np.random.default_rng(23))
    rng = np.random.default_rng(24)
    x, dx = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    t = float(rng.uniform(0.0, 1.0))
    r = t if r_equals_t else 0.37 * t
    ids = {"none": np.full(n, cfg.null_cond), "scalar": np.full(n, 1),
           "vector": rng.integers(0, 3, n)}[cond_kind]
    cond = {"none": None, "scalar": 1, "vector": ids}[cond_kind]
    tangent = (dx, 1.0, 0.0)
    t_vec, r_vec = np.full(n, t), np.full(n, r)

    want_u, want_du, _ = _core_reference(model, x, t_vec, r_vec, ids, tangent, one_row=True)
    cat_u, cat_du, _ = _concatenated_reference(model, x, t_vec, r_vec, ids, tangent)
    u, du, tape = _run(model, x, t, r, cond, want_tape=True, tangent=tangent)
    vu, vdu, vtape = _run(model, x, t_vec, r_vec, cond, want_tape=True, tangent=tangent)
    assert np.array_equal(u, want_u) and np.array_equal(du, want_du)
    # the concatenated product sums the same terms in another order
    assert np.allclose(u, cat_u, rtol=1e-12, atol=1e-12)
    assert np.allclose(du, cat_du, rtol=1e-12, atol=1e-12)
    assert np.array_equal(u, vu) and np.array_equal(du, vdu)
    assert np.array_equal(tape["e_in"], vtape["e_in"])
    for key in ("inputs", "slope"):
        assert len(tape[key]) == len(vtape[key])
        assert all(np.array_equal(a, b) for a, b in zip(tape[key], vtape[key])), key
    assert np.array_equal(forward(model, x, t, r, cond), vu)


@pytest.mark.parametrize("n", [1, 7, 1024])
def test_bitwise_equal_time_vectors_take_the_scalar_pass(n):
    model = small_model(27)
    rng = np.random.default_rng(28)
    x, cond = rng.standard_normal((n, 3)), rng.integers(0, 3, n)
    t, r = 0.625, 0.25
    t_vec, r_vec = np.full(n, t), np.full(n, r)
    want = forward(model, x, t, r, cond)
    block, _, _ = _core_reference(model, x, t_vec, r_vec, cond, (x, 0.0, 0.0), one_row=True)
    assert np.array_equal(want, block)
    for tt, rr in [(t_vec, r_vec), (t, r_vec), (t_vec, r)]:
        assert np.array_equal(forward(model, x, tt, rr, cond), want)


def test_time_vector_mixing_signed_zeros_takes_the_per_sample_path():
    # 0.0 and -0.0 compare equal but have other bits, and other sines
    model = small_model(29)
    rng = np.random.default_rng(30)
    n = 1024
    x, cond = rng.standard_normal((n, 3)), rng.integers(0, 3, n)
    t = np.zeros(n)
    t[1::2] = -0.0
    r = np.zeros(n)
    want, _, _ = _core_reference(model, x, t, r, cond, (x, 0.0, 0.0))
    assert np.array_equal(forward(model, x, t, r, cond), want)
    u, _, tape = _run(model, x, t, r, cond, want_tape=True)
    assert np.array_equal(u, want)
    # one embedded row would give equal values; the taped sines' signs show
    # which pass ran
    assert np.array_equal(np.signbit(tape["e_in"][:, 0]), np.signbit(t))


def test_shared_row_forward_peaks_below_the_per_sample_pass():
    # the ring teacher's geometry: in_dim 50, hidden (64, 64)
    cfg = ModelConfig(dim=2, hidden=(64, 64), n_cond=8, cond_dim=16, embed_dim=32,
                      n_freqs=8, freq_max=100.0)
    model = init_model(cfg, np.random.default_rng(33))
    rng = np.random.default_rng(34)
    n = 2048
    x, t = rng.standard_normal((n, 2)), rng.uniform(0.0, 1.0, n)

    def peak(times):
        forward(model, x, times, times)  # caches are warm before tracing
        tracemalloc.start()
        try:
            forward(model, x, times, times)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(t) - peak(t[0]) >= n * cfg.in_dim * 8


def test_model_needs_a_hidden_layer():
    with pytest.raises(DomainError, match="at least one hidden layer"):
        ModelConfig(hidden=())


def test_frequencies_cached_and_read_only():
    freqs = SMALL.frequencies()
    assert freqs is ModelConfig(dim=1, n_freqs=4).frequencies()
    with pytest.raises(ValueError):
        freqs[0] = 0.0
    ladder = 1.0 * (1000.0 / 1.0) ** (np.arange(4) / 3)
    assert np.array_equal(freqs, ladder)
    assert np.array_equal(ModelConfig(n_freqs=1, freq_min=3).frequencies(), [3.0])


def test_untaped_features_match_hidden_forward():
    model = small_model(25)
    rng = np.random.default_rng(26)
    x, r = rng.standard_normal((6, 3)), rng.uniform(0.0, 1.0, 6)
    feats, tape = net.hidden_forward(model, x, r, r, None)
    untaped, _, no_tape = _run(model, x, r, r, None, readout=False)
    assert no_tape is None
    assert np.array_equal(untaped, feats) and feats is tape["inputs"][-1]


@pytest.mark.parametrize("cond", [None, 1, "per-sample"])
@pytest.mark.parametrize("t, r", [(0.75, 0.75), (0.75, 0.5), (0.0, -0.0), (-0.0, 0.0)])
def test_field_matches_forward_bitwise(t, r, cond):
    # the field's single shared condition row and its r-equals-t check give
    # the bits of the reference's per-sample gathered rows and features
    model = small_model(27)
    x = np.random.default_rng(28).standard_normal((5, 3))
    ids = {None: np.full(5, SMALL.null_cond), 1: np.full(5, 1),
           "per-sample": np.array([0, 2, 1, 1, 2])}[cond]
    want, _, _ = _core_reference(model, x, np.full(5, t), np.full(5, r), ids,
                                 (x, 0.0, 0.0), one_row=True)
    field = net.Field(model, ids if cond == "per-sample" else cond, 5, net.Workspace())
    for _ in range(2):  # the second call reuses the field's buffers
        assert field(x, t, r).tobytes() == want.tobytes()
    assert forward(model, x, t, r, ids).tobytes() == want.tobytes()


def test_field_run_refuses_a_tangent_or_x_of_another_shape():
    model = small_model(36)
    rng = np.random.default_rng(37)
    x, dx = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    field = net.Field(model, 1, 4)
    u, du, tape = field.run(x, 0.5, 0.25, want_tape=True, tangent=(dx, 1.0, 0.0))
    assert u.shape == du.shape == (4, 3) and tape is not None
    for bad_dx, why in [(dx[:3], "tangent dx shape"), (dx[0], "tangent dx shape"),
                        (dx[:, :2], "does not match dim")]:
        with pytest.raises(DomainError, match=why):
            field.run(x, 0.5, 0.25, want_tape=True, tangent=(bad_dx, 1.0, 0.0))
    with pytest.raises(DomainError, match="does not match the field's"):
        field.run(x[:3], 0.5, 0.25, want_tape=True, tangent=(dx[:3], 1.0, 0.0))
    with pytest.raises(DomainError, match="dt shape"):
        field.run(x, 0.5, 0.25, tangent=(dx, np.ones(3), 0.0))
    with pytest.raises(DomainError, match="t shape"):
        field.run(x, np.ones(3), 0.25)


def test_forward_only_pass_takes_no_slope_buffer():
    model = small_model(29)
    x, t = np.random.default_rng(30).standard_normal((6, 3)), np.linspace(0.1, 0.9, 6)
    ws = net.Workspace()
    forward(model, x, t, 0.5 * t, None, ws)
    net.hidden_forward(model, x, t, t, 1, want_tape=False, ws=ws)
    net.Field(model, None, 6, ws)(x, 0.5, 0.25)
    names = {name for name, _ in ws.bufs}
    assert ("h", 0) in names and not [name for name in names if name[0] == "slope"]
    net.hidden_forward(model, x, t, t, 1, ws=ws)  # a tape keeps its slopes
    assert ("slope", 0) in {name for name, _ in ws.bufs}


@pytest.mark.parametrize("layers", [2, 3])
def test_pass_without_a_tape_keeps_two_row_buffers(layers):
    # width 7 is no other buffer's width here, so the (n, 7) buffers are
    # exactly the activation, logistic and slope buffers
    cfg = ModelConfig(dim=3, hidden=(7,) * layers, n_cond=2, cond_dim=4, embed_dim=5,
                      n_freqs=4)
    model = init_model(cfg, np.random.default_rng(34))
    n = 9
    x = np.random.default_rng(35).standard_normal((n, 3))

    def row_buffers(ws):
        return {name for name, buf in ws.bufs.items() if buf.shape == (n, 7)}

    ws = net.Workspace()
    net.Field(model, 1, n, ws)(x, 0.5, 0.25)
    assert row_buffers(ws) == {(("h", 0), 7), (("h", 1), 7)}
    ws = net.Workspace()
    net.Field(model, 1, n, ws).run(x, 0.5, 0.25, want_tape=True)
    assert row_buffers(ws) == {(("h", i), 7) for i in range(layers)} | {
        (("slope", i), 7) for i in range(layers)} | {("logistic", 7)}


# hidden widths 8, 8 and 6: two layers share the width-8 logistic buffer
SCRATCH = ModelConfig(dim=3, hidden=(8, 8, 6), n_cond=2, cond_dim=4, embed_dim=5, n_freqs=4)


def _scratch_case(n, seed):
    rng = np.random.default_rng(seed)
    x, dx = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    t = rng.uniform(0.0, 1.0, n)
    return x, t, 0.5 * t, rng.integers(0, 3, n), (dx, 1.0, 0.0)


def _core_outputs(model, n, seed, want_tape, with_tangent):
    """Every array a pass hands back, copied out of its result."""
    x, t, r, cond, tangent = _scratch_case(n, seed)
    u, du, tape = _run(model, x, t, r, cond, want_tape=want_tape,
                       tangent=tangent if with_tangent else None)
    got = [u, du]
    if tape is not None:
        got += [tape["e_in"], *tape["inputs"], *tape["slope"]]
    return got


def test_core_reusing_scratch_matches_fresh_clone():
    model = init_model(SCRATCH, np.random.default_rng(31))
    calls = [
        (n, seed, want_tape, with_tangent)
        for seed, n in enumerate([1, 256, 512, 1024, 256, 1, 1024, 512])
        for want_tape, with_tangent in [(False, False), (True, False), (False, True), (True, True)]
    ]
    warm = [_core_outputs(model, *call) for call in calls]
    # results handed out earlier stay as they were after later calls
    for call, got in zip(calls, warm):
        want = _core_outputs(model.clone(), *call)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b), call


def test_one_workspace_for_every_pass_kind_matches_fresh_ones():
    # passes with and without a tape or tangent, at several row counts, on
    # one workspace: each gives the bits of the same pass on a fresh one,
    # also where the two-buffer pass's widths differ between layers
    model = init_model(SCRATCH, np.random.default_rng(36))
    ws = net.Workspace()
    for seed, n in enumerate([256, 1, 512, 256]):
        x, t, r, cond, tangent = _scratch_case(n, seed)
        for want_tape, tan in [(False, None), (True, None), (False, tangent), (True, tangent)]:
            shared = net.Field(model, cond, n, ws).run(x, t, r, want_tape, tan)
            fresh = _run(model, x, t, r, cond, want_tape=want_tape, tangent=tan)
            for a, b in zip(shared[:2], fresh[:2]):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
            h_shared = net.hidden_forward(model, x, t, r, cond, want_tape, ws)[0]
            h_fresh = net.hidden_forward(model, x, t, r, cond, want_tape)[0]
            assert h_shared.tobytes() == h_fresh.tobytes()


def test_tape_survives_later_calls_on_the_same_model():
    model = init_model(SCRATCH, np.random.default_rng(32))
    x, t, r, cond, tangent = _scratch_case(64, 33)
    up = np.random.default_rng(34).standard_normal((64, 3))
    _, _, tape = _run(model, x, t, r, cond, want_tape=True, tangent=tangent)
    for n in (64, 1024, 16):
        xs, ts, rs, cs, tans = _scratch_case(n, 35 + n)
        _run(model, xs, ts, rs, cs, want_tape=True, tangent=tans)
        forward(model, xs, ts, rs, cs)
    got = net._tape_backward(model, tape, up)
    fresh = model.clone()
    _, _, fresh_tape = _run(fresh, x, t, r, cond, want_tape=True, tangent=tangent)
    want = net._tape_backward(fresh, fresh_tape, up)
    assert np.array_equal(got.grad_x, want.grad_x)
    for k in want.grads:
        assert np.array_equal(got.grads[k], want.grads[k]), k


def test_forward_from_threads_matches_serial():
    model = init_model(SCRATCH, np.random.default_rng(36))
    sizes = [1, 300, 17, 1024, 64, 512] * 6
    cases = [_scratch_case(n, 40 + i) for i, n in enumerate(sizes)]
    # every other round of sizes shares one scalar (t, r), as the solvers do
    cases = [(x, t[0], r[0], cond, tan) if (i // 6) % 2 else (x, t, r, cond, tan)
             for i, (x, t, r, cond, tan) in enumerate(cases)]
    serial = [forward(model.clone(), x, t, r, cond) for x, t, r, cond, _ in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda c: forward(model, *c[:4]), cases, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(threaded, serial))


def _per_key_adam(model, grad_tapes, lr, warmup):
    """Clipped Adam with warmup run one parameter array at a time; returns
    the moments (m, v) as dicts."""
    m = {k: np.zeros_like(p) for k, p in model.params.items()}
    v = {k: np.zeros_like(p) for k, p in model.params.items()}
    for step, tape in enumerate(grad_tapes, start=1):
        norm = global_grad_norm(tape)
        scale = CLIP_NORM / norm if norm > CLIP_NORM else 1.0
        lr_t = lr * min(1.0, step / warmup)
        b1c, b2c = 1.0 - BETA1**step, 1.0 - BETA2**step
        for k, p in model.params.items():
            g = tape.grads[k] * scale
            m[k] = BETA1 * m[k] + (1.0 - BETA1) * g
            v[k] = BETA2 * v[k] + (1.0 - BETA2) * g * g
            p -= lr_t * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + EPS)
    return m, v


def test_flat_adam_matches_per_key_adam():
    model = small_model(23)
    reference = model.clone()
    rng = np.random.default_rng(24)
    tapes = []
    for gain in (3.0, 0.01, 5.0, 0.02, 2.0):  # global norms above and below CLIP_NORM
        # keys in reverse parameter order: the flat layout follows model.params
        grads = {k: gain * rng.standard_normal(p.shape) for k, p in reversed(model.params.items())}
        tapes.append(GradTape(grads, np.zeros(3)))
    assert sum(global_grad_norm(tape) > CLIP_NORM for tape in tapes) == 3

    state = init_optimizer(model, lr=1e-2, warmup=3)
    for tape in tapes:
        assert adam_step(state, model, tape)
    m, v = _per_key_adam(reference, tapes, lr=1e-2, warmup=3)
    for k in model.params:
        assert np.array_equal(model.params[k], reference.params[k]), k
    assert np.array_equal(state.m, np.concatenate([m[k].ravel() for k in model.params]))
    assert np.array_equal(state.v, np.concatenate([v[k].ravel() for k in model.params]))


def _scalar_adam_oracle(grads, lr, warmup, beta1=0.9, beta2=0.999, eps=1e-8):
    p, m, v = 0.0, 0.0, 0.0
    for step, g in enumerate(grads, start=1):
        lr_t = lr * min(1.0, step / warmup)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr_t * (m / (1 - beta1**step)) / (np.sqrt(v / (1 - beta2**step)) + eps)
    return p


def _only_bout_grads(model, g):
    tape = zero_grads(model)
    tape.grads["b_out"][0] = g
    return tape


def test_adam_matches_scalar_oracle():
    # gradients touch only one entry, so that entry follows scalar Adam
    cfg = ModelConfig(dim=1, hidden=(4,), n_cond=0, cond_dim=2, embed_dim=2, n_freqs=2)
    model = init_model(cfg, np.random.default_rng(0))
    model.params["b_out"][0] = 0.0
    state = init_optimizer(model, lr=1e-2, warmup=1)
    gs = [0.5, -0.25, 0.125]  # norms below clip, so clipping is inert
    for g in gs:
        assert adam_step(state, model, _only_bout_grads(model, g))
    assert model.params["b_out"][0] == pytest.approx(
        _scalar_adam_oracle(gs, lr=1e-2, warmup=1), abs=1e-15
    )


def test_adam_linear_warmup():
    cfg = ModelConfig(dim=1, hidden=(1,), n_cond=0, cond_dim=2, embed_dim=2, n_freqs=1)
    model = init_model(cfg, np.random.default_rng(0))
    model.params["b_out"][0] = 0.0
    state = init_optimizer(model, lr=1e-4, warmup=1000)
    adam_step(state, model, _only_bout_grads(model, 0.5))
    assert model.params["b_out"][0] == pytest.approx(
        _scalar_adam_oracle([0.5], lr=1e-4, warmup=1000), abs=1e-18
    )
    # step 1 of 1000: effective lr 1e-7, so the update is about -1e-7
    assert model.params["b_out"][0] == pytest.approx(-1e-7, rel=1e-3)
    # halfway through warmup the rate is half the base rate
    state2 = init_optimizer(model, lr=1e-4, warmup=1000)
    state2.step = 499
    before = model.params["b_out"][0]
    adam_step(state2, model, _only_bout_grads(model, 0.5))
    assert model.params["b_out"][0] - before == pytest.approx(
        -0.5e-4 * (0.1 * 0.5 / (1 - 0.9**500))
        / (np.sqrt(0.001 * 0.25 / (1 - 0.999**500)) + 1e-8),
        rel=1e-12,
    )


def test_adam_global_norm_clip():
    cfg = ModelConfig(dim=1, hidden=(1,), n_cond=0, cond_dim=2, embed_dim=2, n_freqs=1)
    model_a = init_model(cfg, np.random.default_rng(3))
    model_b = model_a.clone()
    sa = init_optimizer(model_a, lr=1e-3, warmup=1)
    sb = init_optimizer(model_b, lr=1e-3, warmup=1)
    assert global_grad_norm(_only_bout_grads(model_a, 10.0)) == 10.0
    # norm-10 gradients must behave exactly like pre-scaled norm-1 gradients
    adam_step(sa, model_a, _only_bout_grads(model_a, 10.0))
    adam_step(sb, model_b, _only_bout_grads(model_b, 1.0))
    assert model_a.params["b_out"][0] == model_b.params["b_out"][0]


def _nan_grads(model):
    tape = zero_grads(model)
    tape.grads["w0"][0, 0] = np.nan
    return tape


def test_adam_skips_non_finite_gradients():
    model = small_model(4)
    snapshot = model.clone()
    state = init_optimizer(model)
    with pytest.warns(UserWarning):
        applied = adam_step(state, model, _nan_grads(model))
    assert not applied
    assert state.step == 0
    assert state.skipped == 1
    for k in model.params:
        assert np.array_equal(model.params[k], snapshot.params[k])


def test_adam_caps_consecutive_skips():
    model = small_model(5)
    state = init_optimizer(model)
    with pytest.warns(UserWarning):
        for _ in range(MAX_SKIPS - 1):
            assert not adam_step(state, model, _nan_grads(model))
        # one applied step resets the count, so the cap needs a full new run
        assert adam_step(state, model, zero_grads(model))
        assert state.skipped == 0
        for _ in range(MAX_SKIPS - 1):
            assert not adam_step(state, model, _nan_grads(model))
    with pytest.raises(DivergenceError, match="in a row at step 2"):
        adam_step(state, model, _nan_grads(model))
    assert state.step == 1 and state.skipped == MAX_SKIPS


# the ring teacher's geometry: parameter arrays of up to 4096 entries
RING = ModelConfig(dim=2, hidden=(64, 64), n_cond=8, cond_dim=16, embed_dim=32,
                   n_freqs=8, freq_max=100.0)


@pytest.mark.parametrize("gain", [0.002, 0.5])  # global norms below and above CLIP_NORM
def test_in_place_adam_matches_the_allocating_formula(gain):
    model = init_model(RING, np.random.default_rng(25))
    reference = model.clone()
    state = init_optimizer(model, lr=1e-2, warmup=3)
    ref_state = init_optimizer(reference, lr=1e-2, warmup=3)
    rng = np.random.default_rng(26)
    for _ in range(5):
        # keys in reverse parameter order, as _tape_backward writes them
        grads = {k: gain * rng.standard_normal(p.shape) for k, p in reversed(model.params.items())}
        tape = GradTape(grads, np.zeros(2))
        assert (global_grad_norm(tape) > CLIP_NORM) == (gain > 0.1)
        assert adam_step(state, model, tape)
        oracles.adam_step(ref_state, reference, tape)
        for k in model.params:
            assert np.array_equal(model.params[k], reference.params[k]), k
        assert np.array_equal(state.m, ref_state.m) and np.array_equal(state.v, ref_state.v)
    assert state.step == ref_state.step == 5


def test_grad_norm_sums_keys_in_tape_order():
    rng = np.random.default_rng(27)
    tape = GradTape({k: rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 9, shape)
                     for k, shape in reversed(net._param_shapes(RING).items())}, np.zeros(2))
    want = float(np.sqrt(sum(np.sum(g * g) for g in tape.grads.values())))
    assert global_grad_norm(tape) == want


def test_adam_skip_warning_names_the_first_non_finite_key_in_tape_order():
    model = small_model(6)
    state = init_optimizer(model)
    grads = {k: g for k, g in reversed(zero_grads(model).grads.items())}
    grads["w0"][0, 0] = np.nan
    grads["w1"][1, 0] = np.inf  # w1 comes first in this tape, w0 in model.params
    with pytest.warns(UserWarning, match="non-finite gradient in 'w1'"):
        assert not adam_step(state, model, GradTape(grads, np.zeros(3)))


def test_row_sums_by_id_match_add_at_bitwise():
    rng = np.random.default_rng(28)
    n, n_ids, width = 256, 9, 16
    ids = rng.integers(0, n_ids - 1, n)  # the last id never occurs
    ids[:40] = 3
    wide = rng.standard_normal((n, 50)) * 10.0 ** rng.integers(-12, 12, (n, 50))
    rows = wide[:, 34:]  # a column block, as the condition gradient is
    rows[rng.random(rows.shape) < 0.2] = -0.0
    rows[ids == 5] = -0.0  # a table row made of -0.0 entries alone
    want = np.zeros((n_ids, width))
    np.add.at(want, ids, rows)
    got = net._sum_rows_by_id(ids, rows, n_ids)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("lr", [0.0, -1e-3, np.nan, np.inf])
def test_optimizer_rejects_bad_lr(lr):
    with pytest.raises(DomainError, match="lr"):
        OptimizerState(lr=lr)


def test_checkpoint_roundtrip_exact(tmp_path):
    model = small_model(21)
    p = tmp_path / "ckpt.json"
    save_checkpoint(p, model, meta={"note": "x"})
    loaded, opt, meta = load_checkpoint(p)
    assert loaded.config == model.config
    for k in model.params:
        assert np.array_equal(loaded.params[k], model.params[k])
    assert opt is None
    assert meta == {"note": "x"}


def test_checkpoint_takes_integers_and_refuses_other_entries(tmp_path):
    p = tmp_path / "ckpt.json"
    save_checkpoint(p, small_model(25))
    obj = json.loads(p.read_text())
    ints = list(range(len(obj["params"]["b_out"])))
    obj["params"]["b_out"] = ints
    p.write_text(json.dumps(obj))
    loaded, _, _ = load_checkpoint(p)
    assert np.array_equal(loaded.params["b_out"], np.array(ints, dtype=np.float64))
    for entry, name in [("8", "str"), (True, "bool")]:
        obj["params"]["w0"][1][0] = entry
        p.write_text(json.dumps(obj))
        with pytest.raises(FileFormatError, match=f"parameter 'w0' holds {name} entries"):
            load_checkpoint(p)


def test_checkpoint_bytes_deterministic(tmp_path):
    model = small_model(22)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(a, model)
    save_checkpoint(b, model)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(FileFormatError):
        load_checkpoint(p)
    p.write_text(json.dumps({"format": "other"}))
    with pytest.raises(FileFormatError):
        load_checkpoint(p)
    p.write_text(json.dumps({"format": "flowfx-checkpoint-v1", "config": {"dim": 2}}))
    with pytest.raises(FileFormatError):
        load_checkpoint(p)
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "missing.json")


@pytest.mark.parametrize("key, value, why", [
    pytest.param("hidden", "64", "hidden must be a list of integers", id="hidden-string"),
    pytest.param("hidden", [8.0], "hidden must be a list of integers", id="hidden-float"),
    pytest.param("hidden", [8, True], "hidden must be a list of integers", id="hidden-bool"),
    pytest.param("hidden", [8, 0], "hidden layer widths must be >= 1", id="hidden-zero"),
    pytest.param("hidden", [], "need at least one hidden layer", id="hidden-empty"),
    pytest.param("dim", 3.0, "dim must be an integer", id="dim-float"),
    pytest.param("n_freqs", "4", "n_freqs must be an integer", id="n-freqs-string"),
])
def test_checkpoint_config_errors_name_the_file(key, value, why, tmp_path):
    p = tmp_path / "ckpt.json"
    save_checkpoint(p, small_model(24))
    obj = json.loads(p.read_text())
    obj["config"][key] = value
    p.write_text(json.dumps(obj))
    with pytest.raises(FileFormatError, match=why) as exc:
        load_checkpoint(p)
    assert exc.value.path == str(p)


def test_checkpoint_refuses_non_finite(tmp_path):
    model = small_model(23)
    model.params["w0"][0, 0] = np.inf
    with pytest.raises(DomainError):
        save_checkpoint(tmp_path / "x.json", model)
