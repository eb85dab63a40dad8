"""Session-scoped trained models shared by the CLI and acceptance tests,
and a recorder of the second-thread pools of ``host.pair``.

The trained models are the expensive pieces (seconds to a minute); they
build lazily on first use and are reused everywhere else.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from flowfx import cli, distill, flow, host, net, toy


@pytest.fixture(scope="session")
def ring_run(tmp_path_factory):
    """Full default `train-fm` run (seed 0); returns (out_dir, seconds)."""
    out = tmp_path_factory.mktemp("ring_run")
    t0 = time.perf_counter()
    rc = cli.main(["train-fm", "--out", str(out), "--seed", "0"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return out, elapsed


@pytest.fixture(scope="session")
def small_teacher(tmp_path_factory):
    """A quickly trained ring checkpoint for command-plumbing tests."""
    out = tmp_path_factory.mktemp("small_teacher")
    rc = cli.main([
        "train-fm", "--out", str(out), "--steps", "60",
        "--batch-size", "64", "--hidden", "16,16",
    ])
    assert rc == 0
    return out / "fm_teacher.json"


@pytest.fixture(scope="session")
def two_point_models():
    """A well-trained 1-D two-point teacher and its distilled student.

    The teacher trains in two learning-rate segments and keeps the EMA
    (decay 0.999) of the second segment's weights; the student runs the
    adversarial distillation loop (warmup 500, adv_weight 0.5) in two
    segments, carrying the discriminator over.
    """
    cfg = net.ModelConfig(
        dim=1, hidden=(96, 96), n_cond=2, cond_dim=8, embed_dim=32,
        n_freqs=8, freq_max=100.0,
    )
    teacher = net.init_model(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(0)
    ws = net.Workspace()
    for lr, steps in ((2e-3, 4000), (4e-4, 2000)):
        opt = net.init_optimizer(teacher, lr=lr, warmup=100)
        ema = {k: p.copy() for k, p in teacher.params.items()}
        for _ in range(steps):
            x0, labels = toy.sample_two_point(rng, 256)
            batch = flow.sample_path(x0, rng)
            _, grads = flow.fm_loss(teacher, batch, labels, ws)
            if net.adam_step(opt, teacher, grads):
                for k, p in teacher.params.items():
                    ema[k] = 0.999 * ema[k] + (1 - 0.999) * p
    teacher = net.VelocityModel(teacher.config, ema)

    student = teacher.clone()
    rg, rd = np.random.default_rng(1), np.random.default_rng(2)
    conf = distill.DistillConfig(warmup_steps=500, adv_weight=0.5, lr=1e-3)
    _, disc = distill.distill_loop(
        student, teacher, toy.sample_two_point, 4000, 256, conf, rg, rd
    )
    cool = distill.DistillConfig(warmup_steps=0, adv_weight=0.5, lr=2e-4)
    distill.distill_loop(
        student, teacher, toy.sample_two_point, 2000, 256, cool, rg, rd, disc=disc
    )
    return teacher, student


@pytest.fixture
def recorded_futures(monkeypatch):
    """Make every ``host.pair`` pool one that keeps the futures it hands
    out, in the returned list."""
    futures = []

    class RecordingPool(ThreadPoolExecutor):
        def submit(self, *args):
            futures.append(super().submit(*args))
            return futures[-1]

    monkeypatch.setattr(host, "ThreadPoolExecutor", RecordingPool)
    return futures
