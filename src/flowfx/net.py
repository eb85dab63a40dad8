"""A small dense velocity network with exact reverse-mode gradients, exact
forward-mode directional derivatives (dual numbers), clipped Adam with
warmup, and a byte-deterministic JSON checkpoint format that holds the
parameters only.

The model computes u(x, t, r, cond): the input is the concatenation of x, a
learned linear map of sinusoidal (t, r) features, and a learned condition
embedding (with a dedicated null row for unconditional passes); one or more
hidden layers use SiLU, a * _logistic(a), where _logistic is 1 / (1 + exp(-a))
on numpy's exp; the output layer is linear.

Every pass is one run of ``_core``, the one copy of the layer math, so all
of them evaluate the same expressions in the same order.  Its inputs are
resolved in one place, a ``Field``: it binds a model to one condition and
row count, checking the ids and taking their first-layer rows once, and
each ``Field.run`` checks x, t, r and the tangent.  A sample request binds
a field per guidance branch for all its solver steps; ``forward``,
``hidden_forward`` and a training loss bind one per pass.  Forward mode
rides along in the pass: a (dx, dt, dr) tangent goes through ``_core`` in
lockstep with the primal ops, whose value stays bit-identical to forward.
Reverse mode replays a tape that a training loss records in its single
primal pass and hands to ``_tape_backward`` (or, for a frozen feature map,
``hidden_input_gradient``), instead of running the pass again.  The tape
keeps each layer's input and its SiLU slope, taken once in the primal pass
and read by the tangent and by the chain rule alike, and the pass's
workspace, which the chain rule writes its gradients into.

The time features and their embedding e have one row per distinct time
row: a single row when the batch shares one (t, r), that is t and r are
each a scalar or a vector of bitwise-equal entries, as in every solver
call, and one row per sample otherwise, as in training.  Every pass takes
the first affine map the same way, block by block over the network input
[x, e, c]: the x block on the batch, one row per condition id and the time
rows.  So a batch gives the same bits whether its times come as scalars or
as vectors, and with or without a tape or tangent.

Every work buffer of a pass lives in a ``Workspace`` that the caller
owns: a training loop keeps one for all its steps, and a sample request
one for each of its fields, whose guidance branches may run on two
threads.  A pass writes its row-sized arrays (the time rows, the first
layer's terms, each layer's activations, SiLU logistic and slope, the
tangent, the tape's z) into the workspace's buffers, and a replay of its
tape writes the chain-rule gradients there too.  The buffers grow to the
largest row count asked for, so a warm loop stops allocating and faulting
in that memory.  A taped pass keeps one activation buffer per layer and
one for the logistic; a pass without a tape needs two row buffers in all,
each layer writing one and taking its logistic in the other.  What a pass
writes there is valid until the next pass on the same workspace; nothing
returned outside the loop lives there.  A call that passes no workspace
gets a fresh one for itself, so its results stay valid across later
calls.  A model holds only its config and parameters, so threads calling
into one model share no buffers.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .errors import DivergenceError, DomainError, FileFormatError
from .fileio import write_atomic

CHECKPOINT_FORMAT = "flowfx-checkpoint-v1"


@dataclass(frozen=True)
class ModelConfig:
    """A model's architecture.  Every size is exactly an int, never coerced
    (a str, float or bool is refused); ``hidden`` is a tuple or list of at
    least one hidden-layer width, kept as a tuple."""

    dim: int = 2
    hidden: tuple = (128, 128, 128)
    n_cond: int = 0
    cond_dim: int = 16
    embed_dim: int = 32
    n_freqs: int = 16
    freq_min: float = 1.0
    freq_max: float = 1000.0

    def __post_init__(self):
        if not (isinstance(self.hidden, (tuple, list))
                and all(type(h) is int for h in self.hidden)):
            raise DomainError("hidden must be a list of integers")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        for f in fields(self):
            if f.type == "int" and type(getattr(self, f.name)) is not int:
                raise DomainError(f"{f.name} must be an integer")
        if self.dim < 1 or self.cond_dim < 1 or self.embed_dim < 1:
            raise DomainError("dimensions must be positive")
        if self.n_cond < 0:
            raise DomainError("n_cond must be >= 0")
        if self.n_freqs < 1 or self.freq_min <= 0 or self.freq_max < self.freq_min:
            raise DomainError("bad frequency ladder")
        if not self.hidden:
            raise DomainError("need at least one hidden layer")
        if any(h < 1 for h in self.hidden):
            raise DomainError("hidden layer widths must be >= 1")

    @property
    def null_cond(self) -> int:
        """Index of the unconditional row in the condition table."""
        return self.n_cond

    @property
    def sin_dim(self) -> int:
        return 2 * self.n_freqs  # sin and cos per frequency, per variable

    @property
    def in_dim(self) -> int:
        return self.dim + self.embed_dim + self.cond_dim

    def frequencies(self) -> np.ndarray:
        """The geometric frequency ladder, cached per (n_freqs, freq_min,
        freq_max) and read-only."""
        return _frequencies(self.n_freqs, float(self.freq_min), float(self.freq_max))


@lru_cache(maxsize=32)
def _frequencies(n_freqs, freq_min, freq_max):
    if n_freqs == 1:
        freqs = np.array([freq_min])
    else:
        expo = np.arange(n_freqs) / (n_freqs - 1)
        freqs = freq_min * (freq_max / freq_min) ** expo
    freqs.flags.writeable = False
    return freqs


class Workspace:
    """Work buffers that one caller owns and reuses on every pass.

    ``take(name, rows, width)`` returns the leading ``rows`` rows of a
    float64 (rows, width) buffer kept under (name, width); the buffer grows
    to the largest row count asked for and is never shrunk.  The view is
    valid until the next ``take`` of the same key, so what a step writes
    there lives for one step.  ``part(name)`` is a child workspace with
    buffers of its own, for passes whose arrays are alive at the same time
    (a student's tape and a discriminator trunk's)."""

    def __init__(self):
        self.bufs = {}
        self.parts = {}

    def take(self, name, rows, width):
        buf = self.bufs.get((name, width))
        if buf is None or buf.shape[0] < rows:
            buf = self.bufs[name, width] = np.empty((rows, width))
        return buf[:rows]

    def part(self, name) -> Workspace:
        ws = self.parts.get(name)
        if ws is None:
            ws = self.parts[name] = Workspace()
        return ws


@dataclass
class VelocityModel:
    config: ModelConfig
    params: dict

    def clone(self) -> "VelocityModel":
        return VelocityModel(self.config, {k: v.copy() for k, v in self.params.items()})


def _param_shapes(config: ModelConfig) -> dict:
    """The shape of every parameter of a model with this config, in
    ``model.params`` order."""
    sizes = [config.in_dim, *config.hidden]
    shapes = {
        "embed_w": (config.embed_dim, 2 * config.sin_dim),
        "embed_b": (config.embed_dim,),
        "cond_table": (config.n_cond + 1, config.cond_dim),
    }
    for i in range(len(config.hidden)):
        shapes[f"w{i}"] = (sizes[i + 1], sizes[i])
        shapes[f"b{i}"] = (sizes[i + 1],)
    shapes["w_out"] = (config.dim, sizes[-1])
    shapes["b_out"] = (config.dim,)
    return shapes


def init_model(config: ModelConfig, rng: np.random.Generator) -> VelocityModel:
    """He-scaled random init; biases zero; condition rows small."""
    shapes = _param_shapes(config)
    p = {k: np.zeros(shape) for k, shape in shapes.items()}
    p["embed_w"] = rng.normal(0.0, (2 * config.sin_dim) ** -0.5, shapes["embed_w"])
    p["cond_table"] = 0.1 * rng.standard_normal(shapes["cond_table"])
    for i in range(len(config.hidden)):
        fan_in = shapes[f"w{i}"][1]
        p[f"w{i}"] = rng.normal(0.0, (2.0 / fan_in) ** 0.5, shapes[f"w{i}"])
    p["w_out"] = rng.normal(0.0, shapes["w_out"][1] ** -0.5, shapes["w_out"])
    return VelocityModel(config, p)


def _as_batch(x, dim):
    """x as a float64 (rows, dim) array; any other shape is refused."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DomainError(f"input shape {arr.shape} does not match (rows, {dim})")
    return arr


def _as_scalar_batch(val, n, name):
    arr = np.asarray(val, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise DomainError(f"{name} shape {arr.shape} does not match batch {n}")
    return arr


def _as_time_rows(val, n, name):
    """A time argument as one row when all n samples share its bits (a 0-d
    value, or a vector whose entries are bitwise equal), else as n rows."""
    arr = np.asarray(val, dtype=np.float64)
    if arr.ndim == 0:
        return arr.reshape(1)
    arr = _as_scalar_batch(arr, n, name)
    bits = arr.view(np.uint64)
    # first against last settles a batch of distinct times in O(1)
    if n and bits[0] == bits[-1] and np.all(bits == bits[0]):
        return arr[:1]
    return arr


def _time_rows(t, r, n):
    """t's and r's time rows, of one length; r's are None if they have t's bits."""
    t_rows, r_rows = _as_time_rows(t, n, "t"), _as_time_rows(r, n, "r")
    if len(t_rows) != len(r_rows):
        return np.broadcast_arrays(t_rows, r_rows)
    return t_rows, None if t_rows.tobytes() == r_rows.tobytes() else r_rows


def _resolve_cond(cond, n, config):
    if cond is None:
        return np.full(n, config.null_cond, dtype=np.intp)
    ids = np.asarray(cond)
    if ids.ndim == 0:
        ids = np.full(n, int(ids))
    if ids.shape != (n,):
        raise DomainError(f"cond shape {ids.shape} does not match batch {n}")
    ids = ids.astype(np.intp)
    if (ids < 0).any() or (ids > config.null_cond).any():
        raise DomainError(
            f"condition ids must lie in [0, {config.null_cond}] "
            f"(the last id is the null condition)"
        )
    return ids


def _logistic(a, out=None):
    """1 / (1 + exp(-a)) with numpy's exp, in ``out`` (a new buffer when
    None).  Where exp(-a) overflows, the result is the exact limit 0,
    without a warning."""
    s = np.negative(a, out=out)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _silu_grad(a, s, out=None):
    """d silu(a)/da = s * (1 + a * (1 - s)), given a and its logistic
    s = _logistic(a), in ``out`` (a new buffer when None)."""
    g = np.subtract(1.0, s, out=out)
    g *= a
    g += 1.0
    g *= s
    return g


def _silu(a, s, want_slope=True, slope_out=None):
    """SiLU in place: ``a`` becomes a * _logistic(a), with the logistic
    written into the work buffer ``s`` (a's shape).  Returns the slope
    _silu_grad, taken before ``a`` is overwritten, in ``slope_out`` (a new
    buffer when None), or None when not wanted."""
    _logistic(a, out=s)
    slope = _silu_grad(a, s, out=slope_out) if want_slope else None
    a *= s
    return slope


def _cond_term(model):
    """cond_table @ Wc.T: the first affine map's term for each condition id."""
    cfg = model.config
    return model.params["cond_table"] @ model.params["w0"][:, cfg.dim + cfg.embed_dim :].T


def _core(model, x2, t_rows, r_rows, ids, cond_rows, out, want_tape=False, tangent=None,
          readout=True):
    """The layer math of every pass, on the inputs a ``Field`` resolved:
    x2 is (n, dim); t_rows holds one time row or n, and r_rows r's, or None
    when r has the bits of t (r then reuses t's features); cond_rows are the
    n condition ids' cond_table @ Wc.T rows, or one shared by the batch;
    ``out(name, rows, width)`` gives the buffer an array is written into;
    the tangent is (dx2, dt, dr) with n-row dt and dr.

    The first affine map w0/b0 is x @ Wx.T, plus the condition rows, plus
    e @ We.T + b0, where the time embedding e has the time rows.  The
    network input z = [x, e, c] is built only for a tape (the w0 gradient);
    a shared time row is broadcast to the batch there and in the tape's
    e_in.  A SiLU slope is taken only for a tape or a tangent.
    Returns (u, du or None, tape or None), batched."""
    cfg = model.config
    p = model.params
    n = len(x2)
    freqs = cfg.frequencies()
    time_rows = len(t_rows)

    ang_t = t_rows[:, None] * freqs[None, :]
    sin_t, cos_t = np.sin(ang_t), np.cos(ang_t)
    if r_rows is None:
        sin_r, cos_r = sin_t, cos_t
    else:
        ang_r = r_rows[:, None] * freqs[None, :]
        sin_r, cos_r = np.sin(ang_r), np.cos(ang_r)
    e_in = np.concatenate([sin_t, cos_t, sin_r, cos_r], axis=1,
                          out=out("e_in", time_rows, 4 * cfg.n_freqs))
    dim, ed = cfg.dim, cfg.embed_dim
    e = np.matmul(e_in, p["embed_w"].T, out=out("e", time_rows, ed))
    e = np.add(e, p["embed_b"], out=out("e", time_rows, ed))

    w, w0_rows = p["w0"], cfg.hidden[0]
    a = np.matmul(x2, w[:, :dim].T, out=out(("h", 0), n, w0_rows))
    a += cond_rows
    first = np.matmul(e, w[:, dim : dim + ed].T, out=out("first", time_rows, w0_rows))
    a += np.add(first, p["b0"], out=out("first", time_rows, w0_rows))

    dh = None
    if tangent is not None:
        dx2, dt, dr = tangent
        d_ang_t = dt[:, None] * freqs[None, :]
        d_ang_r = dr[:, None] * freqs[None, :]
        de_in = np.concatenate(
            [cos_t * d_ang_t, -sin_t * d_ang_t, cos_r * d_ang_r, -sin_r * d_ang_r],
            axis=1, out=out("de_in", n, 4 * cfg.n_freqs),
        )
        de = np.matmul(de_in, p["embed_w"].T, out=out("de", n, ed))
        dh = np.concatenate([dx2, de, np.zeros((n, cfg.cond_dim))], axis=1,
                            out=out("dh_in", n, cfg.in_dim))

    tape = None
    if want_tape:
        e_in = np.broadcast_to(e_in, (n, e_in.shape[1]))
        z = np.concatenate([x2, np.broadcast_to(e, (n, ed)), p["cond_table"][ids]], axis=1,
                           out=out("z", n, cfg.in_dim))
        tape = {"e_in": e_in, "ids": ids, "inputs": [z], "slope": [], "take": out}

    want_slope = want_tape or tangent is not None
    # without a tape, layer i writes ("h", i % 2) and takes its logistic in
    # the other buffer, whose activations its matmul has already read
    h = a
    for i, width in enumerate(cfg.hidden):
        if i:
            key = ("h", i) if want_tape else ("h", i % 2)
            h = np.matmul(h, p[f"w{i}"].T, out=out(key, n, width))
            h += p[f"b{i}"]
        s = out("logistic", n, width) if want_tape else out(("h", (i + 1) % 2), n, width)
        slope_out = out(("slope", i), n, width) if want_slope else None
        slope = _silu(h, s, want_slope, slope_out)
        if want_tape:
            tape["inputs"].append(h)
            tape["slope"].append(slope)
        if tangent is not None:
            dh = np.matmul(dh, p[f"w{i}"].T, out=out(("dh", i), n, width))
            dh *= slope
    if not readout:
        return h, dh, tape
    u = h @ p["w_out"].T + p["b_out"]
    du = dh @ p["w_out"].T if tangent is not None else None
    return u, du, tape


class Field:
    """u(x, t, r) of one model for one condition and row count n.

    ``__init__`` checks the condition ids and takes their cond_table @ Wc.T
    rows once, one row when all n ids are equal (the same bits as n equal
    rows).  ``run`` checks x (n, dim), t and r (scalars or n-vectors) and
    the tangent, then runs ``_core``; u and du come back (n, dim) as new
    arrays.  The pass's other arrays, the tape among them, and the
    chain-rule arrays of a replay of that tape live in the Workspace ``ws``
    (a fresh one when None) until the next pass on it, so fields whose calls
    never interleave, such as a training loss's student and teacher, may
    share one; fields run on different threads may not."""

    def __init__(self, model: VelocityModel, cond, n: int, ws: Workspace | None = None):
        self.model = model
        self.n = n
        self.ids = _resolve_cond(cond, n, model.config)
        term = _cond_term(model)
        shared = n and (self.ids == self.ids[0]).all()
        self.cond_rows = term[self.ids[:1]] if shared else term[self.ids]
        self.take = (Workspace() if ws is None else ws).take

    def run(self, x, t, r, want_tape=False, tangent=None, readout=True):
        """One pass: (u, du or None, tape or None).  ``want_tape`` records a
        tape for _tape_backward, a (dx, dt, dr) tangent goes along with the
        primal ops, and without ``readout`` the last hidden activations
        stand in for u (and du)."""
        dim, n = self.model.config.dim, self.n
        x2 = _as_batch(x, dim)
        if len(x2) != n:
            raise DomainError(f"input shape {x2.shape} does not match the field's {(n, dim)}")
        t_rows, r_rows = _time_rows(t, r, n)
        if tangent is not None:
            dx, dt, dr = tangent
            dx2 = _as_batch(dx, dim)
            if dx2.shape != x2.shape:
                raise DomainError("tangent dx shape does not match x")
            tangent = (dx2, _as_scalar_batch(dt, n, "dt"), _as_scalar_batch(dr, n, "dr"))
        return _core(self.model, x2, t_rows, r_rows, self.ids, self.cond_rows,
                     self.take, want_tape, tangent, readout)

    def __call__(self, x, t, r) -> np.ndarray:
        return self.run(x, t, r)[0]


def forward(model: VelocityModel, x, t, r, cond=None, ws=None) -> np.ndarray:
    """Evaluate u(x, t, r, cond).  x is (batch, dim); t and r are scalars
    or per-sample vectors; cond is None (unconditional), a scalar id, or a
    per-sample id vector.  The pass's arrays go into the Workspace ``ws``, a
    fresh one when None; u is new either way."""
    x = _as_batch(x, model.config.dim)
    return Field(model, cond, len(x), ws)(x, t, r)


def _hidden_chain(model, tape, g, grads):
    """Chain rule from the last hidden activations back to the network input
    [x, e, c], replaying a tape from _core.  When ``grads`` is a dict, the
    hidden layers' parameter gradients are written into it.  The row-sized
    gradients, the returned one among them, go into the workspace of the
    pass that recorded the tape."""
    p = model.params
    take = tape["take"]
    n = len(g)
    for i in reversed(range(len(model.config.hidden))):
        w = p[f"w{i}"]
        ga = np.multiply(g, tape["slope"][i], out=take(("ga", i), n, w.shape[0]))
        if grads is not None:
            grads[f"w{i}"] = ga.T @ tape["inputs"][i]
            grads[f"b{i}"] = ga.sum(axis=0)
        g = np.matmul(ga, w, out=take(("g", i), n, w.shape[1]))
    return g


def _sum_rows_by_id(ids, rows, n_ids):
    """(n_ids, width) sums of ``rows`` grouped by ``ids``: one bincount over
    the flat (id, column) cells.  Each cell adds its rows in batch order
    from 0.0, so the bits equal np.add.at's on a zero table."""
    width = rows.shape[1]
    cells = (ids[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(cells, weights=rows.ravel(), minlength=n_ids * width)
    return sums.reshape(n_ids, width)


def _tape_backward(model, tape, upstream) -> dict:
    """Parameter gradients of <u, upstream> for the pass that recorded
    ``tape``, with ``upstream`` (batch, dim): a dict keyed as
    ``model.params``, from the readout back to the first layer (the order
    adam_step sums the clip norm in).  The gradients are new arrays; the
    row-sized chain-rule arrays in between live in the workspace of the pass
    that recorded the tape."""
    cfg = model.config
    p = model.params
    grads = {}
    grads["w_out"] = upstream.T @ tape["inputs"][-1]
    grads["b_out"] = upstream.sum(axis=0)
    g_out = tape["take"]("g_out", len(upstream), cfg.hidden[-1])
    g = _hidden_chain(model, tape, np.matmul(upstream, p["w_out"], out=g_out), grads)

    dim, ed = cfg.dim, cfg.embed_dim
    ge = g[:, dim : dim + ed]
    gc = g[:, dim + ed :]
    grads["embed_w"] = ge.T @ tape["e_in"]
    grads["embed_b"] = ge.sum(axis=0)
    grads["cond_table"] = _sum_rows_by_id(tape["ids"], gc, len(p["cond_table"]))
    return grads


def hidden_forward(model: VelocityModel, x, t, r, want_tape=True, ws=None):
    """Penultimate hidden activations of the unconditional pass (the features
    feeding the output layer) plus a replay handle for hidden_input_gradient
    (None unless ``want_tape``).  Both live in the Workspace ``ws`` (see Field)."""
    x = _as_batch(x, model.config.dim)
    h, _, tape = Field(model, None, len(x), ws).run(x, t, r, want_tape, readout=False)
    return h, tape


def hidden_input_gradient(model: VelocityModel, tape, upstream) -> np.ndarray:
    """Gradient of <hidden_forward features, upstream> with respect to x,
    for an (n, width) ``upstream``, holding every parameter fixed (the net
    acts as a frozen feature map).  The chain rule's row-sized arrays, the
    result among them, live in the workspace of the pass that recorded the
    tape."""
    return _hidden_chain(model, tape, upstream, None)[:, : model.config.dim]


def _spans(arrays: dict) -> dict:
    """Each array's slice of the flat vector of all of them, in dict order."""
    spans, start = {}, 0
    for k, a in arrays.items():
        spans[k] = slice(start, start + a.size)
        start += a.size
    return spans


def _norm_of_squares(squares, spans, keys) -> float:
    """sqrt of the sums of ``squares[spans[k]]``, added in ``keys`` order."""
    return float(np.sqrt(sum(np.sum(squares[spans[k]]) for k in keys)))


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's published defaults (arXiv:1412.6980)
CLIP_NORM = 1.0  # bound on the global gradient norm
MAX_SKIPS = 20  # consecutive non-finite gradients at which adam_step gives up


@dataclass
class OptimizerState:
    lr: float = 1e-4
    warmup: int = 1000
    step: int = field(default=0, init=False)
    skipped: int = field(default=0, init=False)
    m: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False)
    v: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False)
    # adam_step's flat gradient and its second work vector, m's size each
    _work: np.ndarray = field(
        default_factory=lambda: np.zeros((2, 0)), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise DomainError(f"lr must be finite and > 0, got {self.lr}")
        if self.warmup < 0:
            raise DomainError("warmup must be >= 0")

    def effective_lr(self) -> float:
        """Learning rate of the latest step under the linear warmup; a
        warmup of 0 steps means none."""
        if self.warmup == 0:
            return self.lr
        return self.lr * min(1.0, self.step / self.warmup)


def init_optimizer(model: VelocityModel, **kwargs) -> OptimizerState:
    """Fresh state whose moments ``m`` and ``v`` are one flat vector each,
    laid out as the parameters in ``model.params`` order."""
    state = OptimizerState(**kwargs)
    state.m = np.zeros(sum(p.size for p in model.params.values()))
    state.v = np.zeros_like(state.m)
    state._work = np.empty((2, state.m.size))
    return state


def adam_step(state: OptimizerState, model: VelocityModel, grads: dict) -> bool:
    """One optimizer step, in place, on ``grads`` (a gradient per key of
    ``model.params``, as _tape_backward returns them).  Order: global-norm
    clip at CLIP_NORM, its squares summed key by key in ``grads`` order
    (when they overflow, those of the gradient scaled by a power of two),
    linear learning-rate warmup, then bias-corrected Adam, run once over
    the gradients flattened in ``model.params`` order into the state's work
    vectors, so a step allocates no parameter-sized array.

    Non-finite gradients skip the step entirely (only ``skipped``, the count
    of consecutive skips, advances) with a warning naming the first such key
    in ``grads`` order, and the MAX_SKIPS-th skip in a row raises
    DivergenceError; returns whether the step was applied.
    """
    g, work = state._work
    np.concatenate([grads[k].ravel() for k in model.params], out=g)
    if not np.isfinite(g).all():
        state.skipped += 1
        if state.skipped >= MAX_SKIPS:
            msg = f"non-finite gradients {state.skipped} times in a row"
            raise DivergenceError(state.step + 1, msg)
        bad = next(k for k, v in grads.items() if not np.isfinite(v).all())
        warnings.warn(f"skipping optimizer step: non-finite gradient in {bad!r}")
        return False
    state.skipped = 0
    spans = _spans(model.params)
    with np.errstate(over="ignore"):
        norm = _norm_of_squares(np.multiply(g, g, out=work), spans, grads)
    if math.isfinite(norm):
        scale = CLIP_NORM / norm if norm > CLIP_NORM else 1.0
    else:
        # the squares of this finite g overflow: scaling g by a power of two
        # is exact and bounds them; its true norm is far above CLIP_NORM
        np.ldexp(g, -np.frexp(max(g.max(), -g.min()))[1], out=g)
        norm = _norm_of_squares(np.multiply(g, g, out=work), spans, grads)
        scale = CLIP_NORM / norm
    state.step += 1
    lr_t = state.effective_lr()
    b1c = 1.0 - BETA1**state.step
    b2c = 1.0 - BETA2**state.step
    g *= scale
    state.m *= BETA1  # m = BETA1 m + (1 - BETA1) g
    state.m += np.multiply(g, 1.0 - BETA1, out=work)
    state.v *= BETA2  # v = BETA2 v + ((1 - BETA2) g) g
    work = np.multiply(g, 1.0 - BETA2, out=work)
    work *= g
    state.v += work
    # d = lr_t (m / b1c) / (sqrt(v / b2c) + EPS), into g
    work = np.sqrt(np.divide(state.v, b2c, out=work), out=work)
    work += EPS
    d = np.divide(state.m, b1c, out=g)
    d *= lr_t
    d /= work
    for k, p in model.params.items():
        p -= d[spans[k]].reshape(p.shape)
    return True


def _config_to_dict(config: ModelConfig) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(config)}


def _config_from_dict(d: dict, path) -> ModelConfig:
    """The config a checkpoint at ``path`` stores; ModelConfig refuses
    sizes that are not JSON integers."""
    try:
        return ModelConfig(**d)
    except (TypeError, DomainError) as exc:
        raise FileFormatError(path, f"bad model config: {exc}") from exc


def save_checkpoint(path, model: VelocityModel, meta=None) -> None:
    """Serialize the model as JSON, written atomically.

    Floats go through repr, so loading restores every parameter exactly and
    identical models produce identical bytes.  The ``optimizer`` slot of the
    format is always null: no command resumes a run.
    """
    for k, p in model.params.items():
        if not np.all(np.isfinite(p)):
            raise DomainError(f"refusing to checkpoint non-finite parameter {k!r}")
    obj = {
        "format": CHECKPOINT_FORMAT,
        "config": _config_to_dict(model.config),
        "params": {k: v.tolist() for k, v in model.params.items()},
        "optimizer": None,
        "meta": dict(meta) if meta else {},
    }
    write_atomic(path, json.dumps(obj, sort_keys=True, separators=(",", ":"),
                                  allow_nan=False).encode())


def load_checkpoint(path):
    """Inverse of save_checkpoint: returns (model, None, meta).

    Every parameter must have the shape the stored config gives it and hold
    finite JSON numbers.  A checkpoint carrying optimizer state is rejected:
    the format keeps the slot only as null."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FileFormatError(path, f"not UTF-8 text ({exc.reason})", offset=exc.start) from exc
    except ValueError as exc:  # bad syntax, or an integer past Python's digit limit
        raise FileFormatError(path, f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(path, "invalid JSON: nested too deeply") from exc
    if not isinstance(obj, dict) or obj.get("format") != CHECKPOINT_FORMAT:
        raise FileFormatError(path, f"not a {CHECKPOINT_FORMAT} checkpoint")
    if obj.get("optimizer") is not None:
        raise FileFormatError(path, "optimizer state is not supported; expected null")
    try:
        config = _config_from_dict(obj["config"], path)
        params = {k: np.array(v, dtype=np.float64) for k, v in obj["params"].items()}
        expected = _param_shapes(config)
        if set(params) != set(expected):
            mismatch = sorted(set(params) ^ set(expected))
            raise FileFormatError(path, f"parameter set mismatch: {mismatch}")
        for k, shape in expected.items():
            if params[k].shape != shape:
                raise FileFormatError(
                    path, f"parameter {k!r} has shape {params[k].shape}, expected {shape}"
                )
            # float64 conversion also takes numeric strings and booleans
            leaves = obj["params"][k]
            for _ in range(len(shape) - 1):
                leaves = itertools.chain.from_iterable(leaves)
            wrong = set(map(type, leaves)) - {float, int}
            if wrong:
                names = ", ".join(sorted(t.__name__ for t in wrong))
                raise FileFormatError(path, f"parameter {k!r} holds {names} entries, "
                                      "expected JSON numbers")
            if not np.all(np.isfinite(params[k])):
                raise FileFormatError(path, f"parameter {k!r} is not finite")
        return VelocityModel(config, params), None, obj.get("meta", {})
    except FileFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(path, f"malformed checkpoint: {exc}") from exc
