"""Distillation-loop tests.

Gradients through the discriminator heads and into the student are checked
against central finite differences; the warmup gating, gradient isolation,
and the exact reduction to plain distillation at zero adversarial weight are
asserted bitwise; one discriminator step is regression-locked to a frozen
value from the first verified run.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from flowfx import distill, flow, net
from flowfx.distill import (
    DISC_HEADS,
    HEAD_HIDDEN,
    DistillConfig,
    Discriminator,
    disc_input_gradient,
    disc_scores,
    disc_step,
    distill_loop,
    gen_step,
    init_discriminator,
)
from flowfx.errors import DivergenceError, DomainError

from oracles import adversarial_grads, jvp, meanflow_distill_loss, workspace_buffers

TEACHER_CONFIG = net.ModelConfig(
    dim=2, hidden=(16, 16), n_cond=2, cond_dim=4, embed_dim=8,
    n_freqs=4, freq_max=100.0,
)


def _teacher(seed=11):
    return net.init_model(TEACHER_CONFIG, np.random.default_rng(seed))


def _snapshot(params):
    return {k: v.copy() for k, v in params.items()}


def _assert_bitwise_equal(a, b):
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k]), k


def _equal_times(rng, n):
    """flow.sample_times with every pair collapsed to r = t."""
    t = rng.uniform(flow.T_MIN, 1.0, n)
    return t, t.copy()


def _two_mode_batch(rng, n):
    labels = rng.integers(0, 2, n)
    centers = np.where(labels[:, None] == 0, -0.8, 0.8)
    x0 = centers + 0.05 * rng.standard_normal((n, 2))
    return x0, labels


class TestDiscriminator:
    def test_init_shapes_and_frozen_trunk_copy(self):
        teacher = _teacher()
        disc = init_discriminator(teacher, np.random.default_rng(0))
        shapes = {k: v.shape for k, v in disc.params.items()}
        assert shapes == {"w1": (DISC_HEADS * HEAD_HIDDEN, 16), "b1": (DISC_HEADS * HEAD_HIDDEN,),
                          "w2": (DISC_HEADS, HEAD_HIDDEN), "b2": (DISC_HEADS,)}
        _assert_bitwise_equal(disc.trunk.params, teacher.params)
        assert disc.trunk.params["w0"] is not teacher.params["w0"]

    def test_scores_shape(self):
        teacher = _teacher()
        disc = init_discriminator(teacher, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        s, _ = disc_scores(disc, rng.standard_normal((6, 2)), rng.uniform(0.1, 1, 6))
        assert s.shape == (6, DISC_HEADS)

    def test_untaped_scores_match_taped(self):
        disc = init_discriminator(_teacher(), np.random.default_rng(10))
        rng = np.random.default_rng(11)
        x, r = rng.standard_normal((7, 2)), rng.uniform(0.0, 1.0, 7)
        scores, cache = disc_scores(disc, x, r)
        assert cache["handle"] is not None
        untaped, bare = disc_scores(disc, x, r, want_tape=False)
        assert bare["handle"] is None
        assert np.array_equal(untaped, scores)
        assert np.array_equal(bare["feats"], cache["feats"])

    def test_head_gradients_match_finite_differences(self):
        teacher = _teacher()
        disc = init_discriminator(teacher, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 2))
        r = rng.uniform(0.1, 1.0, 5)
        up = rng.standard_normal((5, DISC_HEADS))

        def value():
            s, _ = disc_scores(disc, x, r)
            return float(np.sum(s * up))

        _, cache = disc_scores(disc, x, r)
        grads = distill._head_param_grads(disc, cache, up)
        h = 1e-6
        rng_pick = np.random.default_rng(5)
        for key in grads:
            flat = disc.params[key].reshape(-1)
            for idx in rng_pick.choice(flat.size, size=min(3, flat.size), replace=False):
                keep = flat[idx]
                flat[idx] = keep + h
                f_plus = value()
                flat[idx] = keep - h
                f_minus = value()
                flat[idx] = keep
                fd = (f_plus - f_minus) / (2 * h)
                got = grads[key].reshape(-1)[idx]
                assert got == pytest.approx(fd, rel=1e-5, abs=1e-9), key

    def test_input_gradient_matches_finite_differences(self):
        teacher = _teacher()
        disc = init_discriminator(teacher, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 2))
        r = rng.uniform(0.1, 1.0, 4)
        up = rng.standard_normal((4, DISC_HEADS))
        _, cache = disc_scores(disc, x, r)
        gx = disc_input_gradient(disc, cache, up)
        h = 1e-6
        for i in range(4):
            for j in range(2):
                keep = x[i, j]
                x[i, j] = keep + h
                f_plus = float(np.sum(disc_scores(disc, x, r)[0] * up))
                x[i, j] = keep - h
                f_minus = float(np.sum(disc_scores(disc, x, r)[0] * up))
                x[i, j] = keep
                fd = (f_plus - f_minus) / (2 * h)
                assert gx[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_margin_scores_produce_zero_gradients(self):
        # A perfect discriminator (true -> +2, fake -> -2) sits past both
        # hinge margins, so the upstream signals vanish entirely.
        s_true = np.full((5, 4), 2.0)
        s_fake = np.full((5, 4), -2.0)
        up_true = np.where(1.0 - s_true > 0.0, -1.0, 0.0) / s_true.size
        up_fake = np.where(1.0 + s_fake > 0.0, 1.0, 0.0) / s_fake.size
        assert np.array_equal(up_true, np.zeros((5, 4)))
        assert np.array_equal(up_fake, np.zeros((5, 4)))
        teacher = _teacher()
        disc = init_discriminator(teacher, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        _, cache = disc_scores(disc, rng.standard_normal((5, 2)), rng.uniform(0.1, 1, 5))
        grads = distill._head_param_grads(disc, cache, np.zeros((5, 4)))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())
        gx = disc_input_gradient(disc, cache, np.zeros((5, 4)))
        assert np.array_equal(gx, np.zeros_like(gx))


def _per_head_reference(disc, x, r, up):
    """The heads run one at a time, as separate dense SiLU layers with a
    scalar readout: returns (scores, head parameter grads, input gradient)
    of <scores, up>."""
    p = disc.params
    n_heads, k = p["w2"].shape
    feats, handle = net.hidden_forward(disc.trunk, x, r, r)
    cols = []
    grads = {"w1": [], "b1": [], "w2": [], "b2": []}
    g_feats = np.zeros_like(feats)
    for h in range(n_heads):
        w1, b1 = p["w1"][h * k : (h + 1) * k], p["b1"][h * k : (h + 1) * k]
        w2, b2 = p["w2"][h], p["b2"][h]
        a = feats @ w1.T + b1
        s = net._logistic(a)
        act = a * s
        cols.append(act @ w2 + b2)
        u = up[:, h]
        ga = (u[:, None] * w2[None, :]) * (s * (1.0 + a * (1.0 - s)))
        grads["w1"].append(ga.T @ feats)
        grads["b1"].append(ga.sum(axis=0))
        grads["w2"].append(act.T @ u)
        grads["b2"].append(u.sum())
        g_feats += ga @ w1
    grads = {
        "w1": np.concatenate(grads["w1"]),
        "b1": np.concatenate(grads["b1"]),
        "w2": np.stack(grads["w2"]),
        "b2": np.array(grads["b2"]),
    }
    gx = net.hidden_input_gradient(disc.trunk, handle, g_feats)
    return np.stack(cols, axis=1), grads, gx


class TestStackedHeads:
    """The stacked head layer computes what separate per-head layers do:
    bit for bit for scores and parameter gradients, and up to the order of
    the sum over heads for the input gradient."""

    @pytest.mark.parametrize(
        "hidden, n",
        [
            ((16, 16), 5),
            ((64, 64), 512),  # the distill command's trunk and batch
        ],
    )
    def test_matches_per_head_loop(self, hidden, n):
        teacher = net.init_model(
            net.ModelConfig(dim=2, hidden=hidden, n_cond=2, cond_dim=4,
                            embed_dim=8, n_freqs=4, freq_max=100.0),
            np.random.default_rng(15),
        )
        disc = init_discriminator(teacher, np.random.default_rng(16))
        rng = np.random.default_rng(17)
        x = rng.standard_normal((n, 2))
        r = rng.uniform(0.0, 1.0, n)
        # sparse upstream, like the hinge loss's
        up = rng.standard_normal((n, DISC_HEADS)) * (rng.uniform(size=(n, DISC_HEADS)) < 0.5)
        want_scores, want_grads, want_gx = _per_head_reference(disc, x, r, up)

        scores, cache = disc_scores(disc, x, r)
        assert np.array_equal(scores, want_scores)
        assert scores.flags.c_contiguous
        grads = distill._head_param_grads(disc, cache, up)
        _assert_bitwise_equal(grads, want_grads)
        gx = disc_input_gradient(disc, cache, up)
        assert np.linalg.norm(gx - want_gx) <= 1e-12 * np.linalg.norm(want_gx)


class TestHeadBuffers:
    """The stacked-head buffers change no result: warm objects give what
    fresh copies give, bit for bit, and a warm workspace reuses its head
    block."""

    def _iteration(self, state, teacher):
        disc, student, d_opt, g_opt, rng_d, rng_g = state
        x0, cond = _two_mode_batch(rng_d, 256)
        d_loss = disc_step(disc, student, x0, d_opt, rng_d, cond)
        x0, cond = _two_mode_batch(rng_g, 256)
        return (d_loss, *gen_step(student, teacher, disc, x0, g_opt, rng_g, 0.5, cond))

    def test_iterations_match_fresh_clones(self):
        teacher = _teacher(61)
        student = teacher.clone()
        disc = init_discriminator(teacher, np.random.default_rng(62))
        state = (disc, student, net.init_optimizer(disc, lr=1e-3),
                 net.init_optimizer(student, lr=1e-3),
                 np.random.default_rng(63), np.random.default_rng(64))
        rng = np.random.default_rng(65)
        # score batches of other row counts first, larger and smaller
        disc_scores(disc, rng.standard_normal((700, 2)), rng.uniform(0.0, 1.0, 700))
        disc_scores(disc, rng.standard_normal((3, 2)), rng.uniform(0.0, 1.0, 3))
        for _ in range(2):  # adversarial iterations: a 512-row disc_step, a 256-row gen_step
            fresh = copy.deepcopy(state)  # copies of the models, optimizers and generators
            got = self._iteration(state, teacher)
            want = self._iteration(fresh, teacher)
            assert got == want and got[2] is not None
            _assert_bitwise_equal(state[0].params, fresh[0].params)
            _assert_bitwise_equal(state[1].params, fresh[1].params)

    def test_warm_head_scores_allocate_no_head_block(self):
        disc = init_discriminator(_teacher(66), np.random.default_rng(67))
        rng = np.random.default_rng(68)
        x, r = rng.standard_normal((512, 2)), rng.uniform(0.0, 1.0, 512)
        feats, handle = net.hidden_forward(disc.trunk, x, r, r)
        ws = net.Workspace()
        distill._head_scores(disc, feats, handle, ws)
        feats = feats[:256].copy()
        tracemalloc.start()
        try:
            distill._head_scores(disc, feats, None, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 256 * 8


class TestWorkspace:
    """The workspace distill_loop owns changes no result, and a warm loop
    adds no buffer to it."""

    def _state(self, seed):
        teacher = _teacher(seed)
        disc = init_discriminator(teacher, np.random.default_rng(seed + 1))
        student = teacher.clone()
        return teacher, (disc, student, net.init_optimizer(disc, lr=1e-3),
                         net.init_optimizer(student, lr=1e-3),
                         np.random.default_rng(seed + 2), np.random.default_rng(seed + 3))

    def _iteration(self, state, teacher, ws, cfg=None):
        disc, student, d_opt, g_opt, rng_d, rng_g = state
        x0, cond = _two_mode_batch(rng_d, 256)
        d_loss = disc_step(disc, student, x0, d_opt, rng_d, cond, ws)
        x0, cond = _two_mode_batch(rng_g, 256)
        return (d_loss, *gen_step(student, teacher, disc, x0, g_opt, rng_g, 0.5, cond, cfg, ws))

    @pytest.mark.parametrize("guided", [False, True])
    def test_iterations_match_iterations_without_workspace(self, guided):
        teacher, state = self._state(81)
        fresh = copy.deepcopy(state)
        cfg = flow.CfgSpec() if guided else None
        ws = net.Workspace()
        for _ in range(3):
            got = self._iteration(state, teacher, ws, cfg)
            assert got == self._iteration(fresh, teacher, None, cfg)
            _assert_bitwise_equal(state[0].params, fresh[0].params)
            _assert_bitwise_equal(state[1].params, fresh[1].params)
        assert set(ws.parts) == {"disc"}
        # the heads write into a part of their own, under names of their own
        disc = ws.part("disc")
        assert set(disc.parts) == {"heads"}
        assert not [name for name, _ in disc.bufs if str(name).startswith("head_")]

    def test_warm_loop_adds_no_buffer(self):
        teacher, state = self._state(85)
        ws = net.Workspace()
        for _ in range(2):
            self._iteration(state, teacher, ws)
        warm = {key: id(buf) for key, buf in workspace_buffers(ws).items()}
        for _ in range(3):
            self._iteration(state, teacher, ws)
            assert {key: id(buf) for key, buf in workspace_buffers(ws).items()} == warm


class TestDiscStep:
    def test_loss_regression_locked(self):
        teacher = _teacher(11)
        student = teacher.clone()
        disc = init_discriminator(teacher, np.random.default_rng(12))
        opt = net.init_optimizer(disc, lr=1e-3)
        rng = np.random.default_rng(13)
        x0 = 0.5 * np.random.default_rng(14).standard_normal((8, 2))
        loss = disc_step(disc, student, x0, opt, rng)
        assert loss == 2.0193869637623787

    def test_student_and_trunk_untouched(self):
        teacher = _teacher(11)
        student = teacher.clone()
        disc = init_discriminator(teacher, np.random.default_rng(12))
        opt = net.init_optimizer(disc, lr=1e-3)
        before_student = _snapshot(student.params)
        before_trunk = _snapshot(disc.trunk.params)
        before_heads = _snapshot(disc.params)
        disc_step(
            disc, student, np.random.default_rng(14).standard_normal((8, 2)),
            opt, np.random.default_rng(13),
        )
        _assert_bitwise_equal(student.params, before_student)
        _assert_bitwise_equal(disc.trunk.params, before_trunk)
        assert opt.step == 1
        changed = [k for k in disc.params if not np.array_equal(disc.params[k], before_heads[k])]
        assert changed  # heads actually trained

    def test_equal_times_make_both_branches_share_input(self, monkeypatch):
        # With r = t the fake x_t - 0*u and the true (1-t)x0 + t*x1 coincide,
        # so the hinge loss is at least 2 regardless of the discriminator.
        monkeypatch.setattr(flow, "sample_times", _equal_times)
        teacher = _teacher(21)
        disc = init_discriminator(teacher, np.random.default_rng(22))
        opt = net.init_optimizer(disc, lr=1e-3)
        loss = disc_step(
            disc, teacher.clone(), np.random.default_rng(23).standard_normal((10, 2)),
            opt, np.random.default_rng(24),
        )
        assert loss >= 2.0 - 1e-12


class TestAdversarialGrads:
    def test_student_gradients_match_finite_differences(self):
        teacher = _teacher(31)
        student = teacher.clone()
        disc = init_discriminator(teacher, np.random.default_rng(32))
        rng = np.random.default_rng(33)
        xt = rng.standard_normal((5, 2))
        t = np.full(5, 0.8)
        r = np.full(5, 0.3)
        cond = rng.integers(0, 2, 5)
        _, grads = adversarial_grads(student, disc, xt, t, r, cond)
        h = 1e-6
        rng_pick = np.random.default_rng(34)
        for key in ("w_out", "w0", "embed_w", "cond_table", "b1"):
            flat = student.params[key].reshape(-1)
            for idx in rng_pick.choice(flat.size, size=3, replace=False):
                keep = flat[idx]
                flat[idx] = keep + h
                f_plus = adversarial_grads(student, disc, xt, t, r, cond)[0]
                flat[idx] = keep - h
                f_minus = adversarial_grads(student, disc, xt, t, r, cond)[0]
                flat[idx] = keep
                fd = (f_plus - f_minus) / (2 * h)
                got = grads[key].reshape(-1)[idx]
                assert got == pytest.approx(fd, rel=1e-4, abs=1e-9), key

    def test_zero_span_kills_the_gradient(self):
        # At r = t the state x_r does not depend on u, so nothing flows back.
        teacher = _teacher(41)
        student = teacher.clone()
        disc = init_discriminator(teacher, np.random.default_rng(42))
        rng = np.random.default_rng(43)
        xt = rng.standard_normal((5, 2))
        t = rng.uniform(0.2, 1.0, 5)
        _, grads = adversarial_grads(student, disc, xt, t, t.copy())
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_disc_read_only(self):
        teacher = _teacher(44)
        disc = init_discriminator(teacher, np.random.default_rng(45))
        before = _snapshot(disc.params)
        rng = np.random.default_rng(46)
        adversarial_grads(
            teacher.clone(), disc, rng.standard_normal((4, 2)),
            np.full(4, 0.9), np.full(4, 0.1),
        )
        _assert_bitwise_equal(disc.params, before)


class TestGenStep:
    def test_before_warmup_total_is_mf_only_and_disc_untouched(self):
        # before the warmup ends distill_loop hands gen_step no discriminator
        teacher = _teacher(51)
        student = teacher.clone()
        disc = init_discriminator(teacher, np.random.default_rng(52))
        before_disc = _snapshot(disc.params)
        opt = net.init_optimizer(student, lr=1e-3)
        rng = np.random.default_rng(53)
        x0 = rng.standard_normal((6, 2))
        mf, adv = gen_step(
            student, teacher, None, x0, opt, rng, adv_weight=0.5,
        )
        assert adv is None and np.isfinite(mf)
        _assert_bitwise_equal(disc.params, before_disc)
        assert opt.step == 1

    def test_after_warmup_total_includes_weighted_adv(self):
        teacher = _teacher(54)
        student = teacher.clone()
        disc = init_discriminator(teacher, np.random.default_rng(55))
        before_disc = _snapshot(disc.params)
        before_trunk = _snapshot(disc.trunk.params)
        opt = net.init_optimizer(student, lr=1e-3)
        rng = np.random.default_rng(56)
        before_student = _snapshot(student.params)
        mf, adv = gen_step(
            student, teacher, disc, rng.standard_normal((6, 2)), opt, rng, adv_weight=0.5,
        )
        # TestFusedGenStep checks the weighted sum through the gradients
        assert adv is not None and np.isfinite(mf) and np.isfinite(adv)
        _assert_bitwise_equal(disc.params, before_disc)
        _assert_bitwise_equal(disc.trunk.params, before_trunk)
        assert any(
            not np.array_equal(student.params[k], before_student[k])
            for k in student.params
        )

    def test_reported_loss_matches_stop_gradient_recomputation(self):
        teacher = _teacher(57)
        student = teacher.clone()
        student.params["w_out"] = student.params["w_out"] * 0.5  # imperfect student
        frozen = student.clone()
        opt = net.init_optimizer(student, lr=1e-3)
        x0 = np.random.default_rng(58).standard_normal((6, 2))
        mf, _ = gen_step(
            student, teacher, None, x0, opt, np.random.default_rng(59), adv_weight=0.5,
        )
        # replay the same draws against the pre-step parameters
        rng = np.random.default_rng(59)
        t, r = flow.sample_times(rng, 6)
        batch = flow.sample_path(x0, rng, t=t)
        v_tgt = net.forward(teacher, batch.xt, t, t, None)
        u, dudt = jvp(frozen, batch.xt, t, r, None, (v_tgt, 1.0, 0.0))
        g = np.clip(u - (v_tgt - (t - r)[:, None] * dudt), -1.0, 1.0)
        assert mf == pytest.approx(float(np.mean(g * g)), abs=1e-10)

    def test_constant_field_self_distillation_is_exact_zero(self, monkeypatch):
        monkeypatch.setattr(flow, "sample_times", _equal_times)
        teacher = _teacher(60)
        teacher.params["w_out"] = np.zeros_like(teacher.params["w_out"])
        teacher.params["b_out"] = np.array([0.3, -0.7])
        student = teacher.clone()
        opt = net.init_optimizer(student, lr=1e-3)
        mf, adv = gen_step(
            student, teacher, None, np.random.default_rng(61).standard_normal((5, 2)),
            opt, np.random.default_rng(62), adv_weight=0.5,
        )
        assert mf == 0.0 and adv is None


def _captured_gen_step(monkeypatch, student, teacher, disc, x0, cond, cfg, seed, adv_weight):
    """Run gen_step with net.adam_step replaced by a recorder; returns the
    losses it reported and the gradient it handed to the optimizer."""
    captured = []

    def record(opt, model, grads):
        captured.append(grads)
        return True

    monkeypatch.setattr(net, "adam_step", record)
    result = gen_step(
        student, teacher, disc, x0, net.init_optimizer(student),
        np.random.default_rng(seed), adv_weight, cond=cond, cfg=cfg,
    )
    (grads,) = captured
    return result, grads


def _assert_relative_close(got, want, rel):
    assert set(got) == set(want)
    for k in want:
        err = np.linalg.norm(got[k] - want[k])
        assert err <= rel * max(np.linalg.norm(want[k]), 1e-300), (k, err)


class TestFusedGenStep:
    """gen_step runs the student once and backpropagates the summed
    upstream; the result must match the two separately computed terms."""

    def _setup(self, seed):
        teacher = _teacher(seed)
        student = teacher.clone()
        student.params["w_out"] = student.params["w_out"] * 0.7  # imperfect student
        disc = init_discriminator(teacher, np.random.default_rng(seed + 1))
        rng = np.random.default_rng(seed + 2)
        x0, cond = _two_mode_batch(rng, 16)
        return teacher, student, disc, x0, cond

    def test_unguided_gradient_is_mf_plus_weighted_adversarial(self, monkeypatch):
        teacher, student, disc, x0, cond = self._setup(101)
        (mf, adv), grads = _captured_gen_step(
            monkeypatch, student, teacher, disc, x0, cond, None, 104, 0.5
        )

        rng = np.random.default_rng(104)
        t, r = flow.sample_times(rng, 16)
        batch = flow.sample_path(x0, rng, t=t)
        mf_ref, mf_grads = meanflow_distill_loss(student, teacher, batch, r, cond)
        adv_ref, adv_grads = adversarial_grads(student, disc, batch.xt, t, r, cond)
        assert (mf, adv) == (mf_ref, adv_ref)
        want = {k: mf_grads[k] + 0.5 * adv_grads[k] for k in mf_grads}
        _assert_relative_close(grads, want, 1e-12)

    def test_guided_terms_share_the_dropped_condition_ids(self, monkeypatch):
        teacher, student, disc, x0, cond = self._setup(111)
        guide = flow.CfgSpec(scale_range=(1.0, 3.0), drop_prob=0.5)
        (mf, adv), grads = _captured_gen_step(
            monkeypatch, student, teacher, disc, x0, cond, guide, 114, 0.5
        )

        rng = np.random.default_rng(114)
        t, r = flow.sample_times(rng, 16)
        batch = flow.sample_path(x0, rng, t=t)
        # dropout is the first draw of the guided target: replay it on a copy
        dropped = flow.apply_cond_dropout(
            cond, guide.drop_prob, copy.deepcopy(rng), teacher.config.null_cond
        )
        assert not np.array_equal(dropped, cond)
        mf_ref, mf_grads = meanflow_distill_loss(
            student, teacher, batch, r, cond, guide, rng
        )
        adv_ref, adv_grads = adversarial_grads(student, disc, batch.xt, t, r, dropped)
        assert (mf, adv) == (mf_ref, adv_ref)
        want = {k: mf_grads[k] + 0.5 * adv_grads[k] for k in mf_grads}
        _assert_relative_close(grads, want, 1e-12)


class TestDistillLoop:
    def test_zero_adv_weight_reduces_to_plain_distillation(self):
        teacher = _teacher(71)
        student_a = teacher.clone()
        student_b = teacher.clone()
        config = DistillConfig(warmup_steps=3, adv_weight=0.0, lr=1e-3)
        rows, disc = distill_loop(
            student_a, teacher, _two_mode_batch, n_steps=12, batch_size=6,
            config=config, rng_gen=np.random.default_rng(42),
            rng_disc=np.random.default_rng(43),
        )
        assert disc is None

        rng = np.random.default_rng(42)
        opt = net.init_optimizer(student_b, lr=config.lr)
        manual = []
        for _ in range(12):
            x0, cond = _two_mode_batch(rng, 6)
            t, r = flow.sample_times(rng, 6)
            batch = flow.sample_path(x0, rng, t=t)
            loss, grads = meanflow_distill_loss(
                student_b, teacher, batch, r, cond, None, rng
            )
            net.adam_step(opt, student_b, grads)
            manual.append(loss)
        _assert_bitwise_equal(student_a.params, student_b.params)
        assert [row[1] for row in rows] == manual
        assert all(row[2] is None and row[3] is None for row in rows)

    def test_warmup_gates_disc_and_adv_columns(self):
        teacher = _teacher(72)
        student = teacher.clone()
        config = DistillConfig(warmup_steps=4, adv_weight=0.5, lr=1e-3)
        rows, disc = distill_loop(
            student, teacher, _two_mode_batch, n_steps=8, batch_size=6,
            config=config, rng_gen=np.random.default_rng(80),
            rng_disc=np.random.default_rng(81),
        )
        assert disc is not None
        for step, mf, adv, d_loss, lr in rows:
            assert np.isfinite(mf)
            if step <= 4:
                assert adv is None and d_loss is None
            else:
                assert np.isfinite(adv) and np.isfinite(d_loss)
            assert lr == pytest.approx(1e-3 * min(1.0, step / 1000), abs=0)

    @pytest.mark.parametrize("adv_weight", [0.5, 0.0])
    def test_gen_step_gets_the_disc_only_after_warmup(self, adv_weight, monkeypatch):
        handed = []
        real_gen_step = distill.gen_step

        def record(student, teacher, disc, *args):
            handed.append(disc)
            return real_gen_step(student, teacher, disc, *args)

        monkeypatch.setattr(distill, "gen_step", record)
        teacher = _teacher(76)
        config = DistillConfig(warmup_steps=3, adv_weight=adv_weight, lr=1e-3)
        _, disc = distill_loop(
            teacher.clone(), teacher, _two_mode_batch, n_steps=6, batch_size=4,
            config=config, rng_gen=np.random.default_rng(94),
            rng_disc=np.random.default_rng(95),
        )
        assert handed[:3] == [None] * 3
        if adv_weight:
            assert disc is not None and all(d is disc for d in handed[3:])
        else:
            assert handed[3:] == [None] * 3

    def test_deterministic_given_seeds(self):
        teacher = _teacher(73)
        config = DistillConfig(warmup_steps=2, adv_weight=0.5, lr=1e-3)

        def run():
            student = teacher.clone()
            rows, _ = distill_loop(
                student, teacher, _two_mode_batch, n_steps=6, batch_size=4,
                config=config, rng_gen=np.random.default_rng(90),
                rng_disc=np.random.default_rng(91),
            )
            return rows, student

        rows_a, student_a = run()
        rows_b, student_b = run()
        assert rows_a == rows_b
        _assert_bitwise_equal(student_a.params, student_b.params)

    def test_clip_saturated_run_stops_after_max_skips_steps(self, monkeypatch):
        # mf_loss 1.0 is the squared clip bound: every residual clipped
        losses = iter([1.0] * (net.MAX_SKIPS - 1) + [0.5] + [1.0] * net.MAX_SKIPS)
        monkeypatch.setattr(distill, "gen_step", lambda *args: (next(losses), None))
        teacher = _teacher(75)
        with pytest.raises(DivergenceError, match="clipped") as err:
            distill_loop(
                teacher.clone(), teacher, _two_mode_batch, n_steps=100, batch_size=6,
                config=DistillConfig(warmup_steps=1000), rng_gen=np.random.default_rng(92),
                rng_disc=np.random.default_rng(93),
            )
        # the unclipped step restarts the count
        assert err.value.step == 2 * net.MAX_SKIPS

    def test_bad_loop_arguments_rejected(self):
        teacher = _teacher(74)
        with pytest.raises(DomainError):
            distill_loop(
                teacher.clone(), teacher, _two_mode_batch, n_steps=-1, batch_size=4,
                config=DistillConfig(), rng_gen=np.random.default_rng(0),
                rng_disc=np.random.default_rng(1),
            )


class TestDistillConfig:
    def test_defaults(self):
        # the distill command's defaults
        config = DistillConfig()
        assert config.warmup_steps == 500
        assert config.adv_weight == 0.5
        assert config.lr == 1e-3

    def test_validation(self):
        with pytest.raises(DomainError):
            DistillConfig(adv_weight=-0.1)
        teacher = _teacher(77)
        with pytest.raises(DomainError, match="lr must"):  # the loop's optimizer refuses it
            distill_loop(
                teacher.clone(), teacher, _two_mode_batch, n_steps=1, batch_size=4,
                config=DistillConfig(lr=0.0), rng_gen=np.random.default_rng(0),
                rng_disc=np.random.default_rng(1),
            )
        with pytest.raises(DomainError):
            flow.CfgSpec(scale_range=(9.0, 1.0))
        with pytest.raises(DomainError):
            DistillConfig(warmup_steps=-1)

