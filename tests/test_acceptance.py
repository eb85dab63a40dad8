"""Acceptance gate: one test per shipped guarantee.

Each test states a user-facing contract (tolerance included) and checks it
end to end, so `pytest -v tests/test_acceptance.py` reads as a pass/fail
line per guarantee.  Slow artifacts (the trained toy models) come from
session fixtures in conftest.py and are shared with the CLI tests.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from flowfx import cli, dsp, net, toy
from flowfx.dsp import HeadOutput, StftConfig, head_to_complex, istft, softplus, stft, synth_signal
from flowfx.flow import PathSample, fm_loss, meanflow_loss
from flowfx.losses import ae_total_loss, cfg_combine, contrastive_loss
from flowfx.metrics import (
    EmbeddingSet,
    frechet_from_stats,
    kl_divergence,
    recall_at_k,
    si_sdr,
)
from flowfx.net import ModelConfig, forward, init_model
from flowfx.solvers import SolverConfig, dopri5_sample, euler_sample
from flowfx.transformer import (
    init_multistream,
    ModalitySequence,
    multistream_block,
    positions_from_indices,
    rope_apply,
)

from oracles import backward, jvp


def test_ac01_stft_roundtrip_precision_and_speed():
    """istft(stft(x)) relative L2 error <= 1e-10 on 100 synthetic signals
    (n_fft=960, hop=480), all within a 10 second budget."""
    config = StftConfig(n_fft=960, hop=480)
    start = time.perf_counter()
    for seed in range(100):
        buf = synth_signal(seed, 0.5)
        back = istft(stft(buf, config), length=len(buf.samples))
        err = np.linalg.norm(back - buf.samples)
        assert err <= 1e-10 * np.linalg.norm(buf.samples), seed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"roundtrip took {elapsed:.1f}s"


def test_ac02_softplus_head_magnitude():
    """|head_to_complex| equals softplus(m) within 1e-12 over one million
    randomized (m, x', y') triples, including the x'=y'=0 extension."""
    rng = np.random.default_rng(2)
    n = 1_000_000
    m = rng.normal(0.0, 4.0, n)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 2, n)
    y = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 2, n)
    x[:1000] = 0.0
    y[:1000] = 0.0
    coeffs = head_to_complex(HeadOutput(m, x, y))
    assert np.max(np.abs(np.abs(coeffs) - softplus(m))) <= 1e-12


def test_ac03_gradients_match_finite_differences():
    """Reverse-mode parameter gradients and forward-mode directional
    derivatives match central finite differences with relative error
    < 1e-4 across 50 random model/parameter/input draws."""
    master = np.random.default_rng(3)
    h = 1e-6
    for draw in range(50):
        rng = np.random.default_rng(master.integers(1 << 31))
        dim = int(rng.integers(1, 4))
        width = int(rng.integers(4, 9))
        depth = int(rng.integers(1, 3))
        config = ModelConfig(
            dim=dim, hidden=(width,) * depth, n_cond=int(rng.integers(2, 5)),
            cond_dim=4, embed_dim=8, n_freqs=4, freq_max=100.0,
        )
        model = init_model(config, rng)
        x = rng.standard_normal((4, dim))
        t = rng.uniform(0.05, 0.95, 4)
        r = rng.uniform(0.05, 0.95, 4)
        cond = rng.integers(0, config.n_cond, 4)
        up = rng.standard_normal((4, dim))

        def scalar():
            return float(np.sum(forward(model, x, t, r, cond) * up))

        grads, _ = backward(model, x, t, r, cond, up)
        names = list(model.params)
        for _ in range(6):
            name = names[rng.integers(len(names))]
            flat = model.params[name].reshape(-1)
            j = int(rng.integers(flat.size))
            orig = flat[j]
            flat[j] = orig + h
            hi = scalar()
            flat[j] = orig - h
            lo = scalar()
            flat[j] = orig
            fd = (hi - lo) / (2 * h)
            g = grads[name].reshape(-1)[j]
            assert abs(g - fd) <= 1e-4 * max(abs(fd), 1e-2), (draw, name, j)

        dx = rng.standard_normal((4, dim))
        dt = rng.standard_normal(4)
        dr = rng.standard_normal(4)
        _, du = jvp(model, x, t, r, cond, (dx, dt, dr))
        hi = forward(model, x + h * dx, t + h * dt, r + h * dr, cond)
        lo = forward(model, x - h * dx, t - h * dt, r - h * dr, cond)
        fd = (hi - lo) / (2 * h)
        assert np.linalg.norm(du - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-2), draw


def test_ac04_interval_loss_collapses_at_equal_endpoints():
    """With r=t the interval-averaged objective reduces to the plain
    flow-matching loss: values agree within 1e-12 and gradients match
    bitwise on identical batches."""
    rng = np.random.default_rng(4)
    config = ModelConfig(dim=2, hidden=(8, 8), n_cond=4, cond_dim=4,
                         embed_dim=8, n_freqs=4, freq_max=100.0)
    model = init_model(config, rng)
    model.params["w_out"] *= 0.25  # keep residuals inside the clip region
    x0 = 0.1 * rng.standard_normal((16, 2))
    x1 = x0 + 0.15 * rng.standard_normal((16, 2))
    t = rng.uniform(0.001, 1.0, 16)
    xt = (1 - t)[:, None] * x0 + t[:, None] * x1
    batch = PathSample(x0, x1, t, xt, x1 - x0)
    cond = rng.integers(0, 4, 16)
    fm_val, fm_grads = fm_loss(model, batch, cond)
    mf_val, mf_grads = meanflow_loss(model, batch, batch.t, cond)
    assert abs(mf_val - fm_val) <= 1e-12
    for k in fm_grads:
        assert np.array_equal(mf_grads[k], fm_grads[k]), k


def test_ac05_dopri5_accuracy_and_tolerance_scaling():
    """On the linear decay field u(x,t)=x (so x(0) = x(1)/e), the adaptive
    solver's endpoint error is < 1e-4 at tol 1e-3 and drops at least 10x
    when tol tightens to 1e-6."""
    field = lambda x, t, r, cond: x
    x1 = np.array([[1.0]])
    exact = math.exp(-1.0)
    errs = {}
    for tol in (1e-3, 1e-6):
        config = SolverConfig(kind="dopri5", rtol=tol, atol=tol, cfg_scale=1.0)
        trace = dopri5_sample(field, x1, None, config)
        errs[tol] = abs(float(trace.final[0, 0]) - exact)
    assert errs[1e-3] < 1e-4
    assert errs[1e-6] <= errs[1e-3] / 10.0


def _wasserstein2(a: np.ndarray, b: np.ndarray) -> float:
    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def test_ac06_toy_training_reduces_wasserstein(ring_run):
    """Default CLI training on the eight-Gaussian ring finishes within 5
    minutes on one core and cuts the empirical 2-Wasserstein distance of
    2000 adaptive-solver samples to ground truth by >= 80% vs untrained."""
    out, elapsed = ring_run
    assert elapsed < 300.0, f"training took {elapsed:.0f}s"
    trained, _, _ = net.load_checkpoint(out / "fm_teacher.json")
    untrained = init_model(cli.ring_model_config((64, 64)), np.random.default_rng(0))

    n = 2000
    labels = np.arange(n) % toy.N_MODES
    x1 = np.random.default_rng(606).standard_normal((n, 2))
    truth = toy.ring_centers()[labels] + toy.MODE_SIGMA * np.random.default_rng(
        607
    ).standard_normal((n, 2))
    config = SolverConfig(kind="dopri5", rtol=1e-3, atol=1e-3, cfg_scale=1.0)
    w2 = {
        name: _wasserstein2(dopri5_sample(model, x1, labels, config).final, truth)
        for name, model in (("trained", trained), ("untrained", untrained))
    }
    reduction = 1.0 - w2["trained"] / w2["untrained"]
    assert reduction >= 0.80, w2


def test_ac07_four_step_student_matches_teacher(two_point_models):
    """A 4-NFE Euler student distilled with adversarial weight 0.5 lands
    within mean L2 5e-2 of the teacher's adaptive-solver endpoints on
    paired noise, with NFE accounting reading exactly 4 vs >= 100."""
    teacher, student = two_point_models
    n = 256
    x1 = np.random.default_rng(99).standard_normal((n, 1))
    labels = np.arange(n) % 2
    t_trace = dopri5_sample(
        teacher, x1, labels,
        SolverConfig(kind="dopri5", rtol=1e-6, atol=1e-6, cfg_scale=1.0),
    )
    s_trace = euler_sample(
        student, x1, labels, SolverConfig(kind="euler", steps=4, cfg_scale=1.0)
    )
    assert t_trace.nfe >= 100
    assert s_trace.nfe == 4
    gap = float(np.mean(np.linalg.norm(t_trace.final - s_trace.final, axis=1)))
    assert gap <= 5e-2, gap


def test_ac08_guidance_neutral_points_and_call_count():
    """cfg_combine returns v_cond exactly at the neutral scale of each mode
    (0 for paper_literal, 1 for standard), and sampling at a neutral scale
    spends exactly one model call per step even with conditioning set."""
    rng = np.random.default_rng(8)
    v_c = rng.standard_normal((5, 3))
    v_u = rng.standard_normal((5, 3))
    assert np.array_equal(cfg_combine(v_c, v_u, 0.0, mode="paper_literal"), v_c)
    assert np.array_equal(cfg_combine(v_c, v_u, 1.0, mode="standard"), v_c)

    config = ModelConfig(dim=2, hidden=(8,), n_cond=3, cond_dim=4,
                         embed_dim=8, n_freqs=4, freq_max=100.0)
    model = init_model(config, rng)
    calls = [0]

    def counting(x, t, r, cond):
        calls[0] += 1
        return forward(model, x, t, r, cond)

    x1 = rng.standard_normal((6, 2))
    cond = np.arange(6) % 3
    for mode, scale in (("standard", 1.0), ("paper_literal", 0.0)):
        calls[0] = 0
        trace = euler_sample(
            counting, x1, cond,
            SolverConfig(kind="euler", steps=4, cfg_scale=scale, cfg_mode=mode),
        )
        assert calls[0] == 4 and trace.nfe == 4, mode


def test_ac09_metric_oracles():
    """Frechet distance matches the diagonal-Gaussian closed form within
    1e-6; KL is >= 0 and zero iff the distributions agree; recall@k matches
    a brute-force sort oracle on 100 random 10x10 similarity matrices; the
    0 dB SI-SDR hand case is exact."""
    rng = np.random.default_rng(9)
    for _ in range(20):
        mu1, mu2 = rng.standard_normal((2, 6))
        d1, d2 = rng.uniform(0.2, 3.0, (2, 6))
        closed = float(np.sum((mu1 - mu2) ** 2) + np.sum(d1 + d2 - 2 * np.sqrt(d1 * d2)))
        got = frechet_from_stats(mu1, np.diag(d1), mu2, np.diag(d2))
        assert abs(got - closed) <= 1e-6

    for _ in range(50):
        p, q = rng.standard_normal((2, 4, 7))
        assert kl_divergence(p, q) >= 0.0
        assert kl_divergence(p, q) > 0.0  # distinct random logits
        assert kl_divergence(p, p) == 0.0

    for trial in range(100):
        sim = rng.standard_normal((10, 10))
        for k in (1, 5, 10):
            fwd, bwd = recall_at_k(sim, k)

            def oracle(mat):
                hits = sum(
                    1 for i in range(10) if i in np.argsort(-mat[i])[:k]
                )
                return hits / 10.0

            assert fwd == oracle(sim), (trial, k)
            assert bwd == oracle(sim.T), (trial, k)

    ref = dsp.AudioBuffer(np.array([1.0, 0.0]), 48000)
    est = dsp.AudioBuffer(np.array([1.0, 1.0]), 48000)
    assert si_sdr(ref, est) == 0.0


def test_ac10_autoencoder_loss_weighting():
    """ae_total_loss(1,1,1) = 18 with fixed weights 15/1/2, and the total
    is linear in each argument."""
    assert ae_total_loss(1.0, 1.0, 1.0) == 18.0
    rng = np.random.default_rng(10)
    for _ in range(20):
        a, b, c = rng.standard_normal(3)
        assert abs(ae_total_loss(a, b, c) - (15 * a + b + 2 * c)) <= 1e-12
        base = ae_total_loss(a, b, c)
        assert ae_total_loss(a + 1, b, c) - base == pytest.approx(15.0, abs=1e-12)
        assert ae_total_loss(a, b + 1, c) - base == pytest.approx(1.0, abs=1e-12)
        assert ae_total_loss(a, b, c + 1) - base == pytest.approx(2.0, abs=1e-12)


def test_ac11_contrastive_loss_cases():
    """A single pair scores exactly 0; the 2x2 orthonormal case equals
    log(1+e^-5) ~ 0.006715 within 1e-9; the loss is invariant to batch
    permutations and to joint rotations of the embedding space."""
    one = np.array([[0.6, 0.8]])
    assert contrastive_loss(one, one) == 0.0
    e = np.eye(2)
    assert contrastive_loss(e, e, tau=0.2) == pytest.approx(
        math.log(1 + math.exp(-5.0)), abs=1e-9
    )

    rng = np.random.default_rng(11)
    for _ in range(100):
        a, t = rng.standard_normal((2, 5, 8))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        base = contrastive_loss(a, t)
        perm = rng.permutation(5)
        assert contrastive_loss(a[perm], t[perm]) == pytest.approx(base, abs=1e-9)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        assert contrastive_loss(a @ q, t @ q) == pytest.approx(base, abs=1e-9)


def _attention_oracle(seqs, p):
    """Independent reference: explicit K/V concatenation across modalities,
    per-row masked softmax, manual layer norm and feed-forward."""
    d, n_heads = p.dim, p.n_heads
    d_h = d // n_heads
    proj = []
    for s in seqs:
        q = s.tokens @ p.wq[s.modality]
        k = s.tokens @ p.wk[s.modality]
        v = s.tokens @ p.wv[s.modality]
        heads = []
        for hh in range(n_heads):
            sl = slice(hh * d_h, (hh + 1) * d_h)
            heads.append((
                rope_apply(q[:, sl], s.positions, p.rope_dims),
                rope_apply(k[:, sl], s.positions, p.rope_dims),
                v[:, sl],
            ))
        proj.append(heads)
    valid = np.concatenate([s.validity for s in seqs])
    outs = []
    for mi, s in enumerate(seqs):
        z = np.zeros((s.length, d))
        for hh in range(n_heads):
            keys = np.concatenate([ph[hh][1] for ph in proj], axis=0)
            vals = np.concatenate([ph[hh][2] for ph in proj], axis=0)
            for i in range(s.length):
                logits = proj[mi][hh][0][i] @ keys.T / math.sqrt(d_h)
                peak = np.max(logits[valid])
                w = np.where(valid, np.exp(logits - peak), 0.0)
                z[i, hh * d_h:(hh + 1) * d_h] = (w / w.sum()) @ vals
        res = s.tokens + z @ p.wo
        mean = res.mean(axis=1, keepdims=True)
        var = ((res - mean) ** 2).mean(axis=1, keepdims=True)
        ln = (res - mean) / np.sqrt(var + 1e-5)
        pre = ln @ p.ffn_w1[s.modality] + p.ffn_b1[s.modality]
        y = res + (pre / (1.0 + np.exp(-pre))) @ p.ffn_w2[s.modality] + p.ffn_b2[s.modality]
        outs.append(np.where(s.validity[:, None], y, 0.0))
    return outs


def test_ac12_joint_attention_equivalence():
    """Joint attention over three modalities matches a brute-force
    concatenated-softmax oracle to 1e-10 on 20 random inputs; masked keys
    carry exactly zero weight; rotary attention depends only on relative
    position across a 5-position grid."""
    d = 8
    for trial in range(20):
        rng = np.random.default_rng(1200 + trial)
        validity = None
        if trial % 2:
            validity = rng.uniform(size=4) > 0.4
            if not validity.any():
                validity[0] = True
        seqs = [
            ModalitySequence(rng.standard_normal((4, d)), "text", np.arange(4.0)),
            ModalitySequence(rng.standard_normal((4, d)), "video",
                             positions_from_indices(4, 24.0), validity),
            ModalitySequence(rng.standard_normal((4, d)), "audio",
                             positions_from_indices(4, 100.0)),
        ]
        params = init_multistream(rng, d, 16, n_heads=2, rope_dims=4)
        got = multistream_block(seqs, params)
        want = _attention_oracle(seqs, params)
        for g, w in zip(got, want):
            assert np.max(np.abs(g.tokens - w)) <= 1e-10, trial

    rng = np.random.default_rng(1299)
    validity = np.array([False, True, False, True])
    seqs = [
        ModalitySequence(rng.standard_normal((4, d)), "text", np.arange(4.0)),
        ModalitySequence(rng.standard_normal((4, d)), "video",
                         positions_from_indices(4, 24.0), validity),
        ModalitySequence(rng.standard_normal((4, d)), "audio",
                         positions_from_indices(4, 100.0)),
    ]
    params = init_multistream(rng, d, 16, n_heads=2, rope_dims=4)
    _, weights = multistream_block(seqs, params, return_weights=True)
    valid_all = np.concatenate([s.validity for s in seqs])
    for w in weights:
        assert np.all(w[..., ~valid_all] == 0.0)

    q = rng.standard_normal((1, 8))
    k = rng.standard_normal((1, 8))
    grid = [0.0, 0.3, 0.7, 1.1, 2.5]
    for p1 in grid:
        for p2 in grid:
            lhs = float(rope_apply(q, np.array([p1]))[0]
                        @ rope_apply(k, np.array([p2]))[0])
            rhs = float(rope_apply(q, np.array([p1 - p2]))[0] @ k[0])
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_ac13_cli_determinism(small_teacher, tmp_path):
    """Every CLI command produces byte-identical outputs across two runs at
    a fixed seed."""
    wav = tmp_path / "in.wav"
    dsp.write_wav(wav, synth_signal(13, 0.3))

    def run_twice(args):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        files = {}
        for out in (out_a, out_b):
            assert cli.main(args + ["--out", str(out)]) == 0
            got = {
                p.relative_to(out): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
            assert got, args[0]
            files[out] = got
            for p in sorted(out.rglob("*")):  # reset for the next command
                p.unlink() if p.is_file() else None
        assert files[out_a] == files[out_b], args[0]

    sample_dir = tmp_path / "samples"
    assert cli.main(["sample", str(small_teacher), "--n", "10", "--seed", "3",
                     "--out", str(sample_dir)]) == 0

    run_twice(["codec", str(wav), "--seed", "1"])
    run_twice(["train-fm", "--steps", "25", "--batch-size", "16",
               "--hidden", "8,8", "--seed", "1"])
    run_twice(["distill", str(small_teacher), "--steps", "8",
               "--warmup-steps", "3", "--batch-size", "16", "--seed", "1"])
    run_twice(["sample", str(small_teacher), "--n", "12", "--seed", "1"])
    run_twice(["eval", "--real", str(sample_dir), "--fake", str(sample_dir),
               "--seed", "1"])
