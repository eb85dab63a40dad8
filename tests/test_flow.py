import numpy as np
import pytest

from flowfx import net, toy
from flowfx.errors import DomainError
from flowfx.flow import (
    CfgSpec,
    PathSample,
    apply_cond_dropout,
    fm_loss,
    meanflow_loss,
    sample_path,
    sample_times,
)
from flowfx.losses import cfg_combine
from flowfx.net import ModelConfig, adam_step, forward, init_model, init_optimizer

from oracles import backward, jvp, meanflow_distill_loss, workspace_buffers

SMALL = ModelConfig(dim=2, hidden=(16, 16), n_cond=3, cond_dim=4, embed_dim=8, n_freqs=4)


def small_model(seed=0):
    return init_model(SMALL, np.random.default_rng(seed))


def constant_field_model(c, dim=1):
    # every weight zero, so the one hidden layer reads 0 and u = b_out
    cfg = ModelConfig(dim=dim, hidden=(1,), n_cond=0, cond_dim=2, embed_dim=2, n_freqs=1)
    model = init_model(cfg, np.random.default_rng(0))
    for k in model.params:
        model.params[k][:] = 0.0
    model.params["b_out"][:] = c
    return model


def test_sample_path_invariants():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((32, 5))
    batch = sample_path(x0, rng)
    assert np.all(batch.t >= 0.001) and np.all(batch.t <= 1.0)
    assert np.array_equal(
        batch.xt, (1 - batch.t)[:, None] * batch.x0 + batch.t[:, None] * batch.x1
    )
    assert np.array_equal(batch.v_target, batch.x1 - batch.x0)


def test_sample_path_forced_endpoints():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((8, 3))
    at_data = sample_path(x0, np.random.default_rng(2), t=0.0)
    assert np.array_equal(at_data.xt, at_data.x0)
    at_noise = sample_path(x0, np.random.default_rng(2), t=1.0)
    assert np.array_equal(at_noise.xt, at_noise.x1)


def test_velocity_target_independent_of_t():
    x0 = np.random.default_rng(3).standard_normal((4, 2))
    a = sample_path(x0, np.random.default_rng(7), t=0.2)
    b = sample_path(x0, np.random.default_rng(7), t=0.9)
    assert np.array_equal(a.v_target, b.v_target)  # same x1 draw, same v


def test_scheduler_bounds_and_collapse():
    rng = np.random.default_rng(5)
    t, r = sample_times(rng, 10000)
    assert np.all(t >= 0.001) and np.all(t <= 1.0)
    assert np.all(r >= 0.0) and np.all(r <= t)
    frac_equal = np.mean(r == t)
    assert 0.47 <= frac_equal <= 0.53  # P_EQUAL = 0.5 within 3 sigma


def test_sample_times_draw_order():
    # the t block, then the collapse coins, then the r block
    t, r = sample_times(np.random.default_rng(6), 64)
    rng = np.random.default_rng(6)
    want_t = rng.uniform(0.001, 1.0, 64)
    equal = rng.random(64) < 0.5
    want_r = np.where(equal, want_t, rng.random(64) * want_t)
    assert np.array_equal(t, want_t) and np.array_equal(r, want_r)


def test_cond_dropout_fraction():
    rng = np.random.default_rng(11)
    ids = np.zeros(10000, dtype=np.intp)
    out = apply_cond_dropout(ids, 0.1, rng, null_id=9)
    frac = np.mean(out == 9)
    assert 0.09 <= frac <= 0.11
    assert np.all((out == 0) | (out == 9))
    same = apply_cond_dropout(ids, 0.0, rng, null_id=9)
    assert np.array_equal(same, ids)


def test_fm_loss_zero_model_hand_case():
    model = constant_field_model(0.0, dim=2)
    batch = PathSample(
        x0=np.array([[1.0, 0.0]]),
        x1=np.array([[0.0, 1.0]]),
        t=np.array([0.5]),
        xt=np.array([[0.5, 0.5]]),
        v_target=np.array([[-1.0, 1.0]]),
    )
    loss, grads = fm_loss(model, batch)
    assert loss == 1.0
    assert np.allclose(grads["b_out"], [1.0, -1.0])  # 2*(u-v)/n = (1,-1)


def test_fm_loss_perfect_model_is_zero():
    model = constant_field_model(np.array([1.5, -0.5]), dim=2)
    x0 = np.array([[1.0, 2.0], [-3.0, 0.5]])
    x1 = x0 + np.array([1.5, -0.5])  # exact in float64
    t = np.array([0.25, 0.75])
    batch = PathSample(x0, x1, t, (1 - t)[:, None] * x0 + t[:, None] * x1, x1 - x0)
    loss, grads = fm_loss(model, batch)
    assert loss == 0.0
    for g in grads.values():
        assert not np.any(g)


def test_fm_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    model = small_model(21)
    batch = sample_path(rng.standard_normal((3, 2)), rng)
    cond = np.array([0, 2, 1])
    _, grads = fm_loss(model, batch, cond)
    h = 1e-5
    for name in ("w0", "b1", "w_out", "embed_w", "cond_table"):
        p = model.params[name]
        flat = p.reshape(-1)
        g = grads[name].reshape(-1)
        idx = np.linspace(0, flat.size - 1, min(12, flat.size)).astype(int)
        for j in idx:
            orig = flat[j]
            flat[j] = orig + h
            hi, _ = fm_loss(model, batch, cond)
            flat[j] = orig - h
            lo, _ = fm_loss(model, batch, cond)
            flat[j] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(g[j] - fd) <= 1e-4 * max(abs(fd), 1e-2), (name, j)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("conditioned", [False, True])
def test_fm_loss_bitwise_equals_forward_then_backward(seed, conditioned):
    # fm_loss reuses its one primal pass's tape for the reverse pass; that
    # must reproduce the two-pass composition exactly, not approximately.
    rng = np.random.default_rng(200 + seed)
    model = small_model(200 + seed)
    batch = sample_path(rng.standard_normal((64, 2)), rng)
    cond = rng.integers(0, SMALL.n_cond + 1, 64) if conditioned else None
    loss, grads = fm_loss(model, batch, cond)

    u = forward(model, batch.xt, batch.t, batch.t, cond)
    diff = u - batch.v_target
    ref, _ = backward(model, batch.xt, batch.t, batch.t, cond, (2.0 / diff.size) * diff)
    assert loss == float(np.mean(diff * diff))
    assert list(grads) == list(ref)
    for k in ref:
        assert np.array_equal(grads[k], ref[k]), k


def test_meanflow_collapses_to_fm_at_r_equals_t():
    rng = np.random.default_rng(31)
    model = small_model(31)
    # small outputs and short displacements keep every residual inside the
    # clip region, which makes the collapse exact rather than just close
    model.params["w_out"] *= 0.25
    x0 = 0.1 * rng.standard_normal((16, 2))
    x1 = x0 + 0.15 * rng.standard_normal((16, 2))
    t = rng.uniform(0.001, 1.0, 16)
    batch = PathSample(x0, x1, t, _mix(x0, x1, t), x1 - x0)
    cond = rng.integers(0, 4, 16)
    u = forward(model, batch.xt, batch.t, batch.t, cond)
    assert np.max(np.abs(u - batch.v_target)) < 1.0
    fm_val, fm_grads = fm_loss(model, batch, cond)
    mf_val, mf_grads = meanflow_loss(model, batch, batch.t, cond)
    assert mf_val == fm_val
    for k in fm_grads:
        assert np.array_equal(mf_grads[k], fm_grads[k]), k


def test_meanflow_zero_on_constant_velocity_truth():
    c = np.array([1.5, -0.25])
    model = constant_field_model(c, dim=2)
    x0 = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
    x1 = x0 + c
    t = np.array([0.9, 0.5, 0.3])
    r = np.array([0.1, 0.5, 0.0])
    batch = PathSample(x0, x1, t, (1 - t)[:, None] * x0 + t[:, None] * x1, x1 - x0)
    loss, grads = meanflow_loss(model, batch, r)
    assert loss == 0.0
    for g in grads.values():
        assert not np.any(g)


def test_meanflow_value_is_clipped_residual_norm():
    rng = np.random.default_rng(41)
    model = small_model(41)
    # inflate the target so some residuals clip
    batch = sample_path(5.0 * rng.standard_normal((8, 2)), rng)
    t, r = sample_times(rng, 8)
    batch = PathSample(batch.x0, batch.x1, t, _mix(batch.x0, batch.x1, t), batch.x1 - batch.x0)
    loss, _ = meanflow_loss(model, batch, r)
    u, dudt = jvp(model, batch.xt, t, r, None, (batch.v_target, 1.0, 0.0))
    g = np.clip(u - (batch.v_target - (t - r)[:, None] * dudt), -1.0, 1.0)
    assert loss == pytest.approx(float(np.mean(g * g)), abs=1e-15)
    assert np.any(np.abs(u - (batch.v_target - (t - r)[:, None] * dudt)) > 1.0)
    assert 0.0 <= loss <= 1.0  # every clipped entry squared is at most 1


def _mix(x0, x1, t):
    return (1 - t)[:, None] * x0 + t[:, None] * x1


def test_meanflow_rejects_bad_r():
    rng = np.random.default_rng(4)
    model = small_model(4)
    batch = sample_path(rng.standard_normal((4, 2)), rng)
    with pytest.raises(DomainError):
        meanflow_loss(model, batch, batch.t + 0.5)
    with pytest.raises(DomainError):
        meanflow_loss(model, batch, np.full(4, -0.1))


def test_average_velocity_identity_linear_field():
    # v(x, t) = a x + b with exact flow map; u(x_t, t, r) is the average
    # velocity (x(t) - x(r)) / (t - r).  The displayed identity
    # u = v - (t - r) du/dt must hold with du/dt taken along the trajectory.
    a, b = 0.7, -0.3
    flow_map = lambda x, dt: (x + b / a) * np.exp(a * dt) - b / a

    def u_avg(x_t, t, r):
        x_r = flow_map(x_t, r - t)
        return (x_t - x_r) / (t - r)

    h = 1e-6
    for x_t in (-2.0, 0.1, 1.7):
        for t, r in ((0.9, 0.2), (0.5, 0.1), (0.8, 0.75)):
            v = a * x_t + b
            # move along the trajectory to t +/- h and re-evaluate u
            up = u_avg(flow_map(x_t, h), t + h, r)
            dn = u_avg(flow_map(x_t, -h), t - h, r)
            dudt = (up - dn) / (2 * h)
            assert abs(u_avg(x_t, t, r) - (v - (t - r) * dudt)) <= 1e-8


def test_distill_zero_when_student_is_teacher_at_collapse():
    teacher = small_model(51)
    student = teacher.clone()
    rng = np.random.default_rng(52)
    batch = sample_path(rng.standard_normal((8, 2)), rng)
    cond = rng.integers(0, 4, 8)
    loss, grads = meanflow_distill_loss(student, teacher, batch, batch.t, cond)
    assert loss == 0.0
    for g in grads.values():
        assert not np.any(g)


def test_distill_cfg_neutral_matches_pure_conditional():
    teacher = small_model(53)
    student = small_model(54)
    rng = np.random.default_rng(55)
    batch = sample_path(rng.standard_normal((6, 2)), rng)
    t, r = sample_times(rng, 6)
    batch = PathSample(batch.x0, batch.x1, t, _mix(batch.x0, batch.x1, t), batch.x1 - batch.x0)
    cond = rng.integers(0, 4, 6)
    plain, plain_grads = meanflow_distill_loss(student, teacher, batch, r, cond)
    guided, guided_grads = meanflow_distill_loss(
        student, teacher, batch, r, cond,
        cfg=CfgSpec(scale_range=(1.0, 1.0), drop_prob=0.0),
        rng=np.random.default_rng(0),
    )
    assert guided == plain
    for k in plain_grads:
        assert np.array_equal(guided_grads[k], plain_grads[k])


def test_distill_guided_target_is_cfg_combination():
    # at r = t the target is the guided teacher velocity itself
    teacher = small_model(56)
    student = small_model(57)
    rng = np.random.default_rng(58)
    batch = sample_path(rng.standard_normal((6, 2)), rng)
    cond = rng.integers(0, 3, 6)
    loss, _ = meanflow_distill_loss(
        student, teacher, batch, batch.t, cond,
        cfg=CfgSpec(scale_range=(3.0, 3.0), drop_prob=0.0),
        rng=np.random.default_rng(0),
    )
    v_c = forward(teacher, batch.xt, batch.t, batch.t, cond)
    v_u = forward(teacher, batch.xt, batch.t, batch.t, None)
    u = forward(student, batch.xt, batch.t, batch.t, cond)
    g = np.clip(u - cfg_combine(v_c, v_u, 3.0), -1.0, 1.0)
    assert loss == pytest.approx(float(np.mean(g * g)), abs=1e-15)


def test_distill_constant_teacher_one_step_euler():
    # teacher is the constant field c, so after training the student's
    # average velocity at (t=1, r=0) is c and one Euler step from x1 lands
    # on x1 - c
    c = 0.8
    teacher = constant_field_model(c, dim=1)
    cfg = ModelConfig(dim=1, hidden=(8, 8), n_cond=0, cond_dim=2, embed_dim=8,
                      n_freqs=4, freq_max=10.0)
    student = init_model(cfg, np.random.default_rng(60))
    opt = init_optimizer(student, lr=5e-2, warmup=1)
    rng = np.random.default_rng(61)
    for _ in range(200):
        x0 = rng.standard_normal((64, 1))
        t, r = sample_times(rng, 64)
        batch = PathSample(x0, rng.standard_normal((64, 1)), t, None, None)
        batch = _rebuild(batch)
        _, grads = meanflow_distill_loss(student, teacher, batch, r)
        adam_step(opt, student, grads)
    x1 = np.random.default_rng(62).standard_normal((16, 1))
    u = forward(student, x1, 1.0, 0.0)
    endpoint = x1 - u
    assert np.max(np.abs(endpoint - (x1 - c))) <= 1e-2


def _rebuild(batch):
    xt = _mix(batch.x0, batch.x1, batch.t)
    return PathSample(batch.x0, batch.x1, batch.t, xt, batch.x1 - batch.x0)


# the ring teacher's geometry, as train-fm builds it
RING = ModelConfig(dim=2, hidden=(64, 64), n_cond=8, cond_dim=16, embed_dim=32,
                   n_freqs=8, freq_max=100.0)


def _fm_step(model, opt, rng, ws):
    x0, labels = toy.sample_ring(rng, 256)
    loss, grads = fm_loss(model, sample_path(x0, rng), labels, ws)
    assert adam_step(opt, model, grads)
    return loss, grads


def _copied(loss, grads):
    return loss, {k: g.copy() for k, g in grads.items()}


def _assert_same(got, want):
    assert got[0] == want[0]
    assert got[1].keys() == want[1].keys()
    for k in want[1]:
        assert np.array_equal(got[1][k], want[1][k]), k


def test_workspace_fm_steps_match_fresh_arrays_and_outlive_later_steps():
    model = init_model(RING, np.random.default_rng(70))
    fresh = model.clone()
    opt = init_optimizer(model, lr=1e-3, warmup=2)
    fresh_opt = init_optimizer(fresh, lr=1e-3, warmup=2)
    rng, fresh_rng = np.random.default_rng(71), np.random.default_rng(71)
    ws = net.Workspace()
    kept = []
    for _ in range(4):
        loss, grads = _fm_step(model, opt, rng, ws)
        _assert_same(_copied(loss, grads), _copied(*_fm_step(fresh, fresh_opt, fresh_rng, None)))
        kept.append(((loss, grads), _copied(loss, grads)))
    # what each step returned is unchanged by the later steps on ws
    for returned, snapshot in kept:
        _assert_same(returned, snapshot)
    for k in model.params:
        assert np.array_equal(model.params[k], fresh.params[k]), k


def test_warm_fm_loop_adds_no_workspace_buffer():
    model = init_model(RING, np.random.default_rng(72))
    opt = init_optimizer(model, lr=1e-3, warmup=2)
    rng = np.random.default_rng(73)
    ws = net.Workspace()
    for _ in range(2):
        _fm_step(model, opt, rng, ws)
    warm = {key: id(buf) for key, buf in workspace_buffers(ws).items()}
    assert warm
    for _ in range(3):
        _fm_step(model, opt, rng, ws)
        assert {key: id(buf) for key, buf in workspace_buffers(ws).items()} == warm
