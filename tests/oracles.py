"""Reference compositions of the library's private passes, for tests only.

No command runs these.  Each one composes the same private pieces the
training loops run (``net.Field``, ``net._tape_backward``,
``flow._distill_target``, ``flow._interval_loss`` and
``distill._adversarial_upstream``) into one standalone call, so a test can
check those pieces against finite differences, against each other, or
against a fused step, through a small public-looking signature.
``adam_step`` is the allocating formula that ``net.adam_step`` computes in
place, kept as its bitwise reference with the ``global_grad_norm`` it clips
by, and ``workspace_buffers`` lists what a ``net.Workspace`` holds.
``log_mel`` and ``spectral_l1`` are the allocating formula of the log
spectral distance, whole-signal ``dsp.stft`` and all, that
``dsp.spectral_l1`` computes in blocks into buffers it allocates.
``config_file`` is a reference reading of the flat ``key = value`` file
that ``cli.load_config_file`` parses.
"""

import re

import numpy as np

from flowfx import dsp, flow, net
from flowfx.distill import Discriminator, _adversarial_upstream
from flowfx.errors import DomainError
from flowfx.flow import CfgSpec, PathSample
from flowfx.net import VelocityModel


def backward(model: VelocityModel, x, t, r, cond, upstream):
    """Exact gradients of <forward(model, x, t, r, cond), upstream> for an
    (n, dim) x and upstream: returns (grads, grad_x), the parameter
    gradients of ``net._tape_backward`` and the (n, dim) input gradient.
    grad_x is the chain rule the discriminator runs:
    ``net.hidden_input_gradient`` from the readout's upstream on the last
    hidden layer."""
    u, _, tape = net.Field(model, cond, len(x)).run(x, t, r, want_tape=True)
    up = net._as_batch(upstream, model.config.dim)
    if up.shape != u.shape:
        raise DomainError("upstream shape does not match output")
    grads = net._tape_backward(model, tape, up)
    return grads, net.hidden_input_gradient(model, tape, up @ model.params["w_out"])


def jvp(model: VelocityModel, x, t, r, cond, tangent):
    """Forward-mode directional derivative along tangent = (dx, dt, dr).

    Returns (value, derivative); the value is bit-identical to forward
    because both run the same primal expressions.
    """
    u, du, _ = net.Field(model, cond, len(x)).run(x, t, r, tangent=tangent)
    return u, du


def zero_grads(model: VelocityModel) -> dict:
    return {k: np.zeros_like(v) for k, v in model.params.items()}


def meanflow_distill_loss(
    student,
    teacher,
    batch: PathSample,
    r,
    cond=None,
    cfg: CfgSpec | None = None,
    rng: np.random.Generator | None = None,
):
    """Distillation form of the mean-velocity objective.

    The target velocity is the frozen teacher's instantaneous prediction
    u_teacher(xt, t, t), optionally replaced by a guided combination of
    conditional and unconditional teacher calls with a per-sample scale
    drawn from cfg.scale_range and condition dropout at cfg.drop_prob.
    The jvp tangent is (v_tgt, 1, 0); gradients reach only the student.
    """
    r = flow._check_batch(batch, r)
    v_tgt, cond_ids = flow._distill_target(teacher, batch, cond, cfg, rng)
    loss, _, upstream, tape = flow._interval_loss(
        student, batch.xt, batch.t, r, cond_ids, v_tgt, flow.CLIP_BOUNDS
    )
    return loss, net._tape_backward(student, tape, upstream)


def adversarial_grads(
    student: VelocityModel,
    disc: Discriminator,
    xt: np.ndarray,
    t: np.ndarray,
    r: np.ndarray,
    cond=None,
):
    """Generator-side adversarial term -mean D(x_r) and its student grads.

    x_r = x_t - (t-r) u(x_t, t, r); the loss gradient reaches the student
    only through u, as dL/du = -(t-r) dD/dx_r with the trunk frozen.
    """
    u, _, tape = net.Field(student, cond, len(xt)).run(xt, t, r, want_tape=True)
    adv_loss, upstream = _adversarial_upstream(disc, xt, t, r, u)
    return adv_loss, net._tape_backward(student, tape, upstream)


def global_grad_norm(grads: dict) -> float:
    """sqrt of the sum of every gradient's squares, added key by key in
    ``grads`` order."""
    return float(np.sqrt(sum(np.sum(g * g) for g in grads.values())))


def adam_step(state: net.OptimizerState, model: VelocityModel, grads: dict) -> bool:
    """Clipped, warmed-up Adam over the flattened gradients, written as
    expressions that allocate their results: the global norm sums each
    key's squares in ``grads`` order, the rest runs in ``model.params``
    order.  Non-finite gradients are not handled here."""
    norm = global_grad_norm(grads)
    scale = net.CLIP_NORM / norm if norm > net.CLIP_NORM else 1.0
    state.step += 1
    lr_t = state.effective_lr()
    b1c = 1.0 - net.BETA1**state.step
    b2c = 1.0 - net.BETA2**state.step
    g = np.concatenate([grads[k].ravel() for k in model.params]) * scale
    state.m = net.BETA1 * state.m + (1.0 - net.BETA1) * g
    state.v = net.BETA2 * state.v + (1.0 - net.BETA2) * g * g
    d = lr_t * (state.m / b1c) / (np.sqrt(state.v / b2c) + net.EPS)
    start = 0
    for p in model.params.values():
        p -= d[start : start + p.size].reshape(p.shape)
        start += p.size
    return True


def workspace_buffers(ws: net.Workspace, path=()) -> dict:
    """{(part names..., buffer name, width): buffer} over ws and its parts."""
    found = {(*path, *key): buf for key, buf in ws.bufs.items()}
    for name, part in ws.parts.items():
        found.update(workspace_buffers(part, (*path, name)))
    return found


def log_mel(audio: dsp.AudioBuffer, fb: dsp.MelFilterbank,
            config: dsp.StftConfig = dsp.StftConfig()) -> np.ndarray:
    """Log mel spectrogram ``log(max(|stft| . fb.T, MEL_LOG_FLOOR))``,
    frames x n_mels."""
    if fb.sample_rate != audio.sample_rate:
        raise DomainError(
            f"filterbank built for {fb.sample_rate} Hz, audio is "
            f"{audio.sample_rate} Hz"
        )
    mags = np.abs(dsp.stft(audio, config).data)
    return np.log(np.maximum(mags @ fb.weights.T, dsp.MEL_LOG_FLOOR))


def spectral_l1(a: dsp.AudioBuffer, b: dsp.AudioBuffer, config: dsp.StftConfig,
                n_mels: int | None = None) -> float:
    """``mean|L(a) - L(b)|`` with L the ``log_mel`` over ``n_mels`` bands
    when given, else ``log(max(|stft|, MEL_LOG_FLOOR))``."""
    if n_mels is None:
        la, lb = (np.log(np.maximum(np.abs(dsp.stft(x, config).data), dsp.MEL_LOG_FLOOR))
                  for x in (a, b))
    else:
        fb = dsp.mel_filterbank(n_mels, config, a.sample_rate)
        la, lb = (log_mel(x, fb, config) for x in (a, b))
    return float(np.mean(np.abs(la - lb)))


class ConfigRefused(Exception):
    """``config_file`` refused a file at line ``lineno`` for ``reason``."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno, self.reason = lineno, reason


# optional key, optional "= value", optional "# comment", each trimmed
_CONFIG_LINE = re.compile(r"\s*(?P<key>[^#=]*?)\s*(?:=\s*(?P<value>[^#]*?)\s*)?(?:#.*)?", re.S)


def config_file(data: bytes) -> dict:
    """The entries of a config file's bytes, or ConfigRefused at its first
    bad line.  Lines are split on the bytes of ``\\r\\n``, ``\\r`` and
    ``\\n``; every line must be UTF-8 before any is parsed.  A line is a
    blank or a comment, or ``key = value`` with a nonempty key not seen
    before; ``#`` ends the value."""
    lines = re.split(rb"\r\n|\r|\n", data)
    for lineno, raw in enumerate(lines, 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ConfigRefused(lineno, "not UTF-8") from None
    entries = {}
    for lineno, raw in enumerate(lines, 1):
        key, value = _CONFIG_LINE.fullmatch(raw.decode("utf-8")).group("key", "value")
        if value is None and key:
            raise ConfigRefused(lineno, "no =")
        if value is not None and not key:
            raise ConfigRefused(lineno, "empty key")
        if key in entries:
            raise ConfigRefused(lineno, "duplicate key")
        if key:
            entries[key] = value
    return entries
