"""Flow-matching paths and training objectives.

The linear path interpolates data x0 toward noise x1 as
xt = (1 - t) * x0 + t * x1 with instantaneous velocity x1 - x0.  Training
objectives come in three forms: plain flow matching (regress the velocity at
r = t), the mean-velocity objective (regress an average velocity over [r, t]
using an exact directional derivative), and its distillation variant where a
frozen teacher supplies the target velocity, optionally with classifier-free
guidance applied (``_distill_target``, run by ``distill.gen_step``).  All
three are one interval loss that differs only in its target and clipping,
and each runs the network's primal pass once.

fm_loss and meanflow_loss return (value, parameter gradients); all three
are deterministic given their inputs.  The callers draw (t, r) pairs with
sample_times and noise with sample_path, which keeps the losses replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import net
from .errors import DomainError
from .losses import cfg_combine

CLIP_BOUNDS = (-1.0, 1.0)
T_MIN = 0.001  # every path position t is drawn from U(T_MIN, 1)
P_EQUAL = 0.5  # share of (t, r) pairs that collapse to r = t


@dataclass(frozen=True)
class PathSample:
    """A batch of points on linear noising paths."""

    x0: np.ndarray
    x1: np.ndarray
    t: np.ndarray
    xt: np.ndarray
    v_target: np.ndarray


def sample_path(x0: np.ndarray, rng: np.random.Generator, t=None) -> PathSample:
    """Draw noise endpoints and path positions for a data batch.

    t ~ U(T_MIN, 1) per sample unless forced via ``t``; x1 is standard
    normal.  xt and v_target follow the PathSample invariants exactly.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    if not np.all(np.isfinite(x0)):
        raise DomainError("x0 must be finite")
    n = x0.shape[0]
    x1 = rng.standard_normal(x0.shape)
    if t is None:
        t = rng.uniform(T_MIN, 1.0, n)
    else:
        t = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,)).copy()
    xt = (1.0 - t)[:, None] * x0 + t[:, None] * x1
    return PathSample(x0=x0, x1=x1, t=t, xt=xt, v_target=x1 - x0)


def sample_times(rng: np.random.Generator, n: int):
    """n pairs (t, r) with 0 <= r <= t.

    t ~ U(T_MIN, 1); with probability P_EQUAL the pair collapses to r = t,
    otherwise r ~ U(0, t).  Draw order per call: t block, then the collapse
    coin block, then the r block, so seeded runs replay exactly.
    """
    t = rng.uniform(T_MIN, 1.0, n)
    equal = rng.random(n) < P_EQUAL
    r = np.where(equal, t, rng.random(n) * t)
    return t, r


def apply_cond_dropout(cond, drop_prob: float, rng: np.random.Generator, null_id: int):
    """Replace each condition id with the null id with probability drop_prob,
    which lies in [0, 1] (CfgSpec checks it)."""
    ids = np.asarray(cond).copy()
    drop = rng.random(ids.shape) < drop_prob
    ids[drop] = null_id
    return ids


def _check_batch(batch: PathSample, r=None):
    if batch.xt.shape != batch.v_target.shape or batch.t.shape != (batch.xt.shape[0],):
        raise DomainError("inconsistent path batch shapes")
    if r is not None:
        r = np.asarray(r, dtype=np.float64)
        if r.shape != batch.t.shape:
            raise DomainError("r shape does not match batch t")
        if np.any(r < 0.0) or np.any(r > batch.t + 1e-12):
            raise DomainError("need 0 <= r <= t per sample")
        return r
    return None


def _interval_loss(model, xt, t, r, cond, v_tgt, clip, ws=None):
    """The one training objective behind fm_loss and both mean-velocity
    losses, on a single primal pass.

    Regresses u(xt, t, r, cond) onto v_tgt - (t - r) * du/dt, where du/dt is
    the exact directional derivative along (v_tgt, 1, 0), treated as a
    constant.  The tangent is propagated only when some r != t, so r = t
    regresses u onto v_tgt itself.  The residual is clipped to ``clip``
    unless it is None, the loss is mean(g^2), and its upstream on u is 2g/n.

    Returns (loss, u, upstream, tape): the pass's tape goes straight to
    net._tape_backward, so a caller can add its own upstream on u and still
    run one reverse pass.  The pass binds a net.Field to the batch, and the
    tape lives in the net.Workspace ``ws`` (see net.Field).
    """
    tangent = (v_tgt, 1.0, 0.0) if np.any(r != t) else None
    field = net.Field(model, cond, len(xt), ws)
    u, dudt, tape = field.run(xt, t, r, want_tape=True, tangent=tangent)
    target = v_tgt if dudt is None else v_tgt - (t - r)[:, None] * dudt
    g = u - target
    if clip is not None:
        g = np.clip(g, clip[0], clip[1])
    loss = float(np.mean(g * g))
    upstream = (2.0 / g.size) * g
    return loss, u, upstream, tape


def fm_loss(model, batch: PathSample, cond=None, ws=None):
    """Flow-matching objective: mean squared error between u(xt, t, t) and
    the path velocity.  Returns (loss, grads), grads as net._tape_backward
    gives them; a training loop passes its net.Workspace as ``ws`` for the
    pass's and the chain rule's arrays; the gradients are new either way."""
    _check_batch(batch)
    loss, _, upstream, tape = _interval_loss(
        model, batch.xt, batch.t, batch.t, cond, batch.v_target, None, ws
    )
    return loss, net._tape_backward(model, tape, upstream)


def meanflow_loss(model, batch: PathSample, r, cond=None):
    """Mean-velocity objective with the stop-gradient construction.

    The directional derivative du/dt along (v_target, 1, 0) comes from the
    exact jvp; the regression target is v_target - (t - r) * du/dt, treated
    as constant.  The residual is clipped to CLIP_BOUNDS, the loss value
    is mean(g^2), and the gradient flows only through u (upstream 2g/n).
    Returns (loss, grads), as fm_loss does.

    With r = t this is exactly fm_loss whenever every residual lies inside
    the clip bounds.
    """
    r = _check_batch(batch, r)
    loss, _, upstream, tape = _interval_loss(
        model, batch.xt, batch.t, r, cond, batch.v_target, CLIP_BOUNDS
    )
    return loss, net._tape_backward(model, tape, upstream)


@dataclass(frozen=True)
class CfgSpec:
    """Classifier-free-guidance settings for distillation targets."""

    scale_range: tuple = (1.0, 9.0)
    drop_prob: float = 0.1

    def __post_init__(self):
        lo, hi = self.scale_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError(f"scale_range bounds must be finite, got {self.scale_range}")
        if hi < lo:
            raise DomainError("scale_range must be ordered")
        if not (0.0 <= self.drop_prob <= 1.0):
            raise DomainError("drop_prob must lie in [0, 1]")


def _distill_target(teacher, batch: PathSample, cond, cfg: CfgSpec | None, rng, ws=None):
    """The frozen teacher's target velocity for the mean-velocity
    distillation loss: its instantaneous prediction u_teacher(xt, t, t),
    or, under guidance, a combination of conditional and unconditional
    teacher calls with a per-sample scale drawn from cfg.scale_range and
    condition dropout at cfg.drop_prob.

    Returns (v_tgt, cond_ids): cond_ids are net._resolve_cond's ids after
    any dropout, the ids the student is evaluated at.  Under guidance, rng
    supplies the dropout coins, then the per-sample scales.  The teacher
    passes use the net.Workspace ``ws`` when given; v_tgt is new.
    """
    cond_ids = net._resolve_cond(cond, batch.xt.shape[0], teacher.config)
    if cfg is None:
        return net.forward(teacher, batch.xt, batch.t, batch.t, cond_ids, ws), cond_ids
    cond_ids = apply_cond_dropout(cond_ids, cfg.drop_prob, rng, teacher.config.null_cond)
    lo, hi = cfg.scale_range
    scale = rng.uniform(lo, hi, batch.xt.shape[0])[:, None] if hi > lo else lo
    v_c = net.forward(teacher, batch.xt, batch.t, batch.t, cond_ids, ws)
    v_u = net.forward(teacher, batch.xt, batch.t, batch.t, None, ws)
    return cfg_combine(v_c, v_u, scale), cond_ids
