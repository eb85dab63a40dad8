"""Adversarial distillation of a trained velocity model into a few-step
student.

The loop alternates one discriminator step and one generator step per batch
once a warmup period ends; distill_loop alone decides when, and hands
gen_step the discriminator only then.  The discriminator scores partially
denoised states: a frozen copy of the teacher supplies its last hidden
activations as features, and small trainable heads map them to one scalar
each under a hinge loss.  Both steps draw their own (t, r) pairs with
flow.sample_times and score through disc_scores.  The heads are one
stacked dense SiLU layer with a per-head linear readout, so every head runs
in the same matrix products.  distill_loop owns one net.Workspace for all
its steps.  The discriminator's work buffers live in that workspace's
"disc" part, grown to the largest row count seen, so the 512-row
discriminator step and the 256-row generator step share one set: the trunk
pass and its chain rule write there, and the stacked heads write into its
own "heads" part (activations, their logistic, the SiLU slopes, and the
pre-activation gradient in the dead logistic buffer).  A head cache from
disc_scores therefore lasts only until the next scoring call on the same
workspace.  The generator objective is the mean-velocity distillation loss
plus a weighted -D(x_r) term whose gradient enters the student through
x_r = x_t - (t-r)*u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flow, losses, net
from .errors import DivergenceError, DomainError

DISC_HEADS = 4
HEAD_HIDDEN = 64
# Steps of both optimizers' linear learning-rate warmup up to config.lr (not
# DistillConfig.warmup_steps, which delays the adversarial term).
LR_WARMUP = 1000


@dataclass(frozen=True)
class DistillConfig:
    """The distill command's settings; the loop's net.OptimizerState checks lr."""

    warmup_steps: int = 500
    adv_weight: float = 0.5
    lr: float = 1e-3

    def __post_init__(self):
        if self.warmup_steps < 0:
            raise DomainError("warmup_steps must be >= 0")
        if not (math.isfinite(self.adv_weight) and self.adv_weight >= 0.0):
            raise DomainError(f"adv_weight must be finite and >= 0, got {self.adv_weight}")


@dataclass
class Discriminator:
    """Frozen feature trunk (a copy of the teacher) plus DISC_HEADS
    trainable dense heads, each mapping trunk features to one scalar score
    per sample.

    ``params`` stacks the heads: ``w1`` (DISC_HEADS*HEAD_HIDDEN, F) and
    ``b1`` form one SiLU layer whose rows come in per-head blocks, and
    ``w2`` (DISC_HEADS, HEAD_HIDDEN) and ``b2`` (DISC_HEADS,) are the
    per-head readouts.  Only ``params`` train; the trunk never updates.
    """

    trunk: net.VelocityModel
    params: dict


def init_discriminator(teacher: net.VelocityModel, rng: np.random.Generator) -> Discriminator:
    feat_dim = teacher.config.hidden[-1]
    w1, w2 = [], []
    for _ in range(DISC_HEADS):  # head by head, so a seed gives the same numbers
        w1.append(rng.normal(0.0, (2.0 / feat_dim) ** 0.5, (HEAD_HIDDEN, feat_dim)))
        w2.append(rng.normal(0.0, HEAD_HIDDEN**-0.5, HEAD_HIDDEN))
    p = {"w1": np.concatenate(w1), "b1": np.zeros(DISC_HEADS * HEAD_HIDDEN),
         "w2": np.stack(w2), "b2": np.zeros(DISC_HEADS)}
    return Discriminator(teacher.clone(), p)


def _head_activations(disc: Discriminator, act: np.ndarray):
    """The stacked activations as an (n_heads, n, head_hidden) view: one
    matrix-vector product per head reads them, as with separate heads."""
    return act.reshape(len(act), *disc.params["w2"].shape).transpose(1, 0, 2)


def _head_scores(disc: Discriminator, feats: np.ndarray, handle, ws):
    """Head scores (n, n_heads) of trunk features, and the cache the
    backward helpers read: the features, the trunk's replay handle, the
    heads' net.Workspace ``ws``, and the stacked SiLU activations and
    slopes.

    The activations, their logistic and the slopes are written into ws,
    so the cache is valid only until the next scoring call on it."""
    p = disc.params
    n, width = len(feats), len(p["b1"])
    act = np.matmul(feats, p["w1"].T, out=ws.take("act", n, width))
    act += p["b1"]
    slope = net._silu(act, ws.take("logistic", n, width), slope_out=ws.take("slope", n, width))
    # C-ordered scores keep later sums over them in the same order
    scores = np.matmul(_head_activations(disc, act), p["w2"][:, :, None])[:, :, 0].T
    scores = np.ascontiguousarray(scores) + p["b2"]
    cache = {"feats": feats, "handle": handle, "act": act, "slope": slope, "ws": ws}
    return scores, cache


def disc_scores(disc: Discriminator, x: np.ndarray, r: np.ndarray, want_tape=True, ws=None):
    """Head scores (n, n_heads) for states x at time r.

    The trunk sees (x, t=r, r=r) unconditionally; returns (scores, cache)
    where cache replays the forward pass for the backward helpers; without
    ``want_tape`` its trunk handle is None, so only the head gradients work.
    The trunk pass writes into the "disc" part of the net.Workspace ``ws``,
    apart from the generator's tape, and the heads into that part's
    "heads" part; without ``ws`` a fresh workspace stands in for "disc".
    """
    ws = net.Workspace() if ws is None else ws.part("disc")
    feats, handle = net.hidden_forward(disc.trunk, x, r, r, want_tape, ws)
    return _head_scores(disc, feats, handle, ws.part("heads"))


def _pre_activation_grad(disc: Discriminator, cache: dict, up_scores: np.ndarray):
    """Gradient of <scores, up_scores> on the stacked pre-activations, in
    the workspace buffer of the logistic, which is dead once the scores are
    out."""
    slope = cache["slope"]
    w2 = disc.params["w2"]
    ga = cache["ws"].take("logistic", *slope.shape)
    np.multiply(up_scores[:, :, None], w2, out=ga.reshape(len(ga), *w2.shape))
    ga *= slope
    return ga


def _head_param_grads(disc: Discriminator, cache: dict, up_scores: np.ndarray) -> dict:
    """Gradients of <scores, up_scores> on the head parameters."""
    ga = _pre_activation_grad(disc, cache, up_scores)
    act = _head_activations(disc, cache["act"])
    up = up_scores.T  # strided for w2, copied for b2: sums as separate heads
    return {
        "w1": ga.T @ cache["feats"],
        "b1": ga.sum(axis=0),
        "w2": np.matmul(up[:, None, :], act)[:, 0, :],
        "b2": np.ascontiguousarray(up).sum(axis=1),
    }


def disc_input_gradient(disc: Discriminator, cache: dict, up_scores: np.ndarray):
    """Gradient of <scores, up_scores> with respect to the disc input x."""
    g_feats = _pre_activation_grad(disc, cache, up_scores) @ disc.params["w1"]
    return net.hidden_input_gradient(disc.trunk, cache["handle"], g_feats)


def disc_step(
    disc: Discriminator,
    student: net.VelocityModel,
    x0: np.ndarray,
    opt: net.OptimizerState,
    rng: np.random.Generator,
    cond=None,
    ws=None,
) -> float:
    """One hinge-loss discriminator update on fresh (t, r) draws from
    flow.sample_times.

    Real states are exact path points x_r = (1-r) x0 + r x1; fakes are the
    student's one-jump estimates x_t - (t-r) u, treated as constants so no
    gradient reaches the student.  Both halves are scored in one
    disc_scores call; only the heads train, so the trunk records no tape.
    The passes use the loop's net.Workspace ``ws`` when given.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    n = x0.shape[0]
    t, r = flow.sample_times(rng, n)
    batch = flow.sample_path(x0, rng, t=t)
    u = net.forward(student, batch.xt, t, r, cond, ws)
    x_fake = batch.xt - (t - r)[:, None] * u
    x_true = (1.0 - r)[:, None] * batch.x0 + r[:, None] * batch.x1
    scores, cache = disc_scores(
        disc, np.concatenate([x_true, x_fake]), np.concatenate([r, r]), want_tape=False, ws=ws
    )
    s_true, s_fake = scores[:n], scores[n:]
    loss = losses.hinge_disc_loss(s_true, s_fake)
    up_scores = np.concatenate([
        np.where(1.0 - s_true > 0.0, -1.0, 0.0) / s_true.size,
        np.where(1.0 + s_fake > 0.0, 1.0, 0.0) / s_fake.size,
    ])
    grads = _head_param_grads(disc, cache, up_scores)
    net.adam_step(opt, disc, grads)
    return loss


def _adversarial_upstream(disc: Discriminator, xt, t, r, u, ws=None):
    """The generator's hinge term -mean D(x_r) at x_r = x_t - (t-r) u, and
    its upstream on u, -(t-r) dD/dx_r, with the whole discriminator frozen.
    Returns (adv_loss, upstream)."""
    x_fake = xt - (t - r)[:, None] * u
    scores, cache = disc_scores(disc, x_fake, r, ws=ws)
    adv_loss = losses.hinge_gen_loss(scores)
    up_scores = np.full(scores.shape, -1.0 / scores.size)
    d_dx = disc_input_gradient(disc, cache, up_scores)
    return adv_loss, -(t - r)[:, None] * d_dx


def gen_step(
    student: net.VelocityModel,
    teacher: net.VelocityModel,
    disc: Discriminator | None,
    x0: np.ndarray,
    opt: net.OptimizerState,
    rng: np.random.Generator,
    adv_weight: float,
    cond=None,
    cfg: flow.CfgSpec | None = None,
    ws=None,
):
    """One generator update on fresh (t, r) draws from flow.sample_times:
    mean-velocity distillation loss plus, when ``disc`` is given, adv_weight
    times the adversarial term.  Returns (mf_loss, adv_loss or None); the
    discriminator is read-only here.

    The student runs once, with the jvp tangent and a tape; both terms'
    upstreams on u are summed and backpropagated in one reverse pass.  Both
    terms see the condition ids after guidance dropout: the discriminator
    trunk is unconditional, and it judges the x_r made by that same student
    call.  The teacher, student and discriminator passes use the loop's
    net.Workspace ``ws`` when given.

    The adversarial branch draws nothing from rng, so runs with no
    discriminator consume exactly the same random stream as a loop of plain
    mean-velocity distillation steps and update the student bit for bit as
    it does.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    n = x0.shape[0]
    t, r = flow.sample_times(rng, n)
    batch = flow.sample_path(x0, rng, t=t)
    v_tgt, cond_ids = flow._distill_target(teacher, batch, cond, cfg, rng, ws)
    mf_loss, u, upstream, tape = flow._interval_loss(
        student, batch.xt, t, r, cond_ids, v_tgt, flow.CLIP_BOUNDS, ws
    )
    adv_loss = None
    if disc is not None:
        adv_loss, adv_upstream = _adversarial_upstream(disc, batch.xt, t, r, u, ws)
        upstream = upstream + adv_weight * adv_upstream
    net.adam_step(opt, student, net._tape_backward(student, tape, upstream))
    return mf_loss, adv_loss


def distill_loop(
    student: net.VelocityModel,
    teacher: net.VelocityModel,
    sample_batch,
    n_steps: int,
    batch_size: int,
    config: DistillConfig,
    rng_gen: np.random.Generator,
    rng_disc: np.random.Generator,
    cfg: flow.CfgSpec | None = None,
    disc: Discriminator | None = None,
):
    """Run the alternating distillation schedule for n_steps batches.

    sample_batch(rng, n) -> (x0, cond) supplies data.  Generator and
    discriminator consume independent random streams, so setting
    adv_weight to zero leaves the generator's draws (and therefore its
    parameter trajectory) untouched.  A ``disc`` from an earlier run carries
    on training with a fresh optimizer.  Returns (rows, disc) where each row
    is (step, mf_loss, adv_loss or None, disc_loss or None, lr).  The first
    step with a non-finite loss raises DivergenceError instead, and so does
    the net.MAX_SKIPS-th step in a row whose mf_loss is the square of the
    flow.CLIP_BOUNDS bound: every residual of the batch is clipped, so the
    loss no longer measures how far the student is from its target.  Both
    optimizers warm their learning rate up linearly over LR_WARMUP steps to
    config.lr (the row's lr is the student's); config.warmup_steps, which
    delays the adversarial term, is a separate count.  Every step's passes
    share one net.Workspace that the loop owns.
    """
    if n_steps < 0 or batch_size < 1:
        raise DomainError("need n_steps >= 0 and batch_size >= 1")
    gen_opt = net.init_optimizer(student, lr=config.lr, warmup=LR_WARMUP)
    adversarial = config.adv_weight != 0.0
    if adversarial:
        disc = disc or init_discriminator(teacher, rng_disc)
        disc_opt = net.init_optimizer(disc, lr=config.lr, warmup=LR_WARMUP)

    # mean(g^2) of clipped residuals reaches this only when all are clipped
    saturated = max(b * b for b in flow.CLIP_BOUNDS)
    pinned = 0
    rows = []
    ws = net.Workspace()
    for step in range(1, n_steps + 1):
        active = adversarial and step > config.warmup_steps
        disc_loss = None
        if active:
            x0_d, cond_d = sample_batch(rng_disc, batch_size)
            disc_loss = disc_step(disc, student, x0_d, disc_opt, rng_disc, cond_d, ws)
        x0, cond = sample_batch(rng_gen, batch_size)
        mf_loss, adv_loss = gen_step(
            student, teacher, disc if active else None, x0, gen_opt, rng_gen,
            config.adv_weight, cond, cfg, ws,
        )
        if not all(np.isfinite(x) for x in (mf_loss, adv_loss, disc_loss) if x is not None):
            raise DivergenceError(step)
        pinned = pinned + 1 if mf_loss >= saturated else 0
        if pinned >= net.MAX_SKIPS:
            raise DivergenceError(step, f"every residual clipped {pinned} steps in a row")
        rows.append((step, mf_loss, adv_loss, disc_loss, gen_opt.effective_lr()))
    return rows, disc
