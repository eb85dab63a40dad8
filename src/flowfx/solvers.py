"""ODE samplers: fixed-step Euler, and adaptive Dormand-Prince 5(4) with a
PI step-size controller and NFE accounting.

Both solvers integrate from t = 1 (noise) down to t = 0 (data).  The vector
field may be a VelocityModel or any callable f(x, t, r, cond) -> velocity,
which keeps analytic test problems cheap.  Both read the field through one
wrapper that applies classifier-free guidance and charges every evaluation
its model calls (1, or 2 under guidance) before it runs; an evaluation whose
charge would pass the NFE budget raises instead of running.  The wrapper
binds a model once per request, as a ``net.Field`` per guidance branch, each
with its own ``net.Workspace``: the condition is resolved then, so each
solver step checks only x, t and r before the layer math (``net._core``)
and gives the bits of ``net.forward``.  A guided batch of at least
PARALLEL_MIN_ROWS rows runs its two branches through ``host.pair``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import host, net
from .errors import DomainError, SolverError
from .losses import cfg_combine, cfg_neutral_scale

# Dormand-Prince 5(4) tableau.  The last row of A equals b (FSAL): the 7th
# stage of an accepted step is the 1st stage of the next.
_DOPRI_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DOPRI_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DOPRI_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DOPRI_B_HAT = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

SAFETY = 0.9
FACTOR_MIN = 0.2
FACTOR_MAX = 5.0
INITIAL_STEP = 0.05
MIN_STEP = 1e-10

# Guided requests of at least this many rows run their two branches on two
# threads.  One guided evaluation of a (64, 64) model on 2 vCPUs with one
# BLAS thread: two threads took 1.45x the serial time at 128 rows, tied at
# 384 and won from 512 rows on (0.90x; 0.61x at 2048).
PARALLEL_MIN_ROWS = 512


@dataclass(frozen=True)
class SolverConfig:
    kind: str = "euler"
    steps: int = 4
    atol: float = 1e-3
    rtol: float = 1e-3
    cfg_scale: float = 1.0
    cfg_mode: str = "standard"
    max_nfe: int = 10000

    def __post_init__(self):
        if self.kind not in ("euler", "dopri5"):
            raise DomainError(f"unknown solver kind {self.kind!r}")
        if self.steps < 1:
            raise DomainError("steps must be >= 1")
        if not all(math.isfinite(v) and v > 0 for v in (self.atol, self.rtol)):
            raise DomainError(
                f"tolerances must be finite and > 0, got atol={self.atol}, rtol={self.rtol}"
            )
        if not math.isfinite(self.cfg_scale):
            raise DomainError(f"cfg_scale must be finite, got {self.cfg_scale}")
        cfg_neutral_scale(self.cfg_mode)  # an unknown mode raises, with or without cond
        if self.max_nfe < 1:
            raise DomainError("max_nfe must be >= 1")


@dataclass
class SampleTrace:
    final: np.ndarray
    nfe: int
    t_grid: list
    accepted: int
    rejected: int


@contextmanager
def _field(model, cond, config: SolverConfig, x1):
    """The sampled field f(x, t, r) and its model-call counter (a 1-list).

    A model is bound once per request and branch, to the rows of the start
    state ``x1``: one ``net.Field`` for the condition and, under guidance,
    one for the unconditional pass, each with a Workspace of its own.  A
    callable field is called as f(x, t, r, cond).  With ``cond`` set and a
    non-neutral scale, each evaluation makes a conditional call and an
    unconditional one and combines them with cfg_combine.  For a model with
    at least PARALLEL_MIN_ROWS rows the two calls run through one
    ``host.pair`` that lasts the request.  Every evaluation is charged its
    model calls before it runs; one whose charge would pass config.max_nfe
    raises, serial or on two threads.
    """
    guided = cond is not None and config.cfg_scale != cfg_neutral_scale(config.cfg_mode)
    n = len(x1)
    if callable(model):
        def bind(c):
            return lambda x, t, r: model(x, t, r, c)
    else:
        def bind(c):
            return net.Field(model, c, n)
    f_c = bind(cond)
    f_u = bind(None) if guided else None
    calls = 2 if guided else 1
    nfe = [0]

    def field(x, t, r):
        if nfe[0] + calls > config.max_nfe:
            raise SolverError(f"nfe budget {config.max_nfe} exhausted",
                              nfe=config.max_nfe + 1)
        nfe[0] += calls
        if not guided:
            return f_c(x, t, r)
        v_c, v_u = both(f_c, f_u, x, t, r)
        return cfg_combine(v_c, v_u, config.cfg_scale, mode=config.cfg_mode)

    wanted = guided and not callable(model) and n >= PARALLEL_MIN_ROWS
    with host.pair("flowfx-uncond", wanted) as both:
        yield field, nfe


def euler_sample(model, x1, cond=None, config: SolverConfig = SolverConfig()) -> SampleTrace:
    """Fixed-step Euler over the uniform grid t = 1 ... 0.

    Each step evaluates the field once at (x, t_k, r = t_{k+1}) and updates
    x <- x - (t_k - t_{k+1}) * u, so a mean-velocity model integrates its
    average velocity exactly over the step and nfe equals steps, or twice
    that under guidance.
    """
    if config.kind != "euler":
        raise DomainError("euler_sample needs config.kind == 'euler'")
    # every step calls the field: refuse a grid longer than the budget before
    # building it, with the error the first call past the budget raises
    if config.steps > config.max_nfe:
        msg = f"nfe budget {config.max_nfe} exhausted"
        raise SolverError(msg, nfe=config.max_nfe + 1)
    x = np.array(x1, dtype=np.float64)
    grid = 1.0 - np.arange(config.steps + 1) / config.steps
    grid[-1] = 0.0
    with _field(model, cond, config, x) as (f, nfe):
        for k in range(config.steps):
            t_k, r_k = grid[k], grid[k + 1]
            x = x - (t_k - r_k) * f(x, t_k, r_k)
            if not np.all(np.isfinite(x)):
                raise SolverError(f"non-finite state after step {k}", step=k, nfe=nfe[0])
    return SampleTrace(final=x, nfe=nfe[0], t_grid=list(grid), accepted=config.steps,
                       rejected=0)


def dopri5_sample(model, x1, cond=None,
                  config: SolverConfig = SolverConfig(kind="dopri5")) -> SampleTrace:
    """Adaptive Dormand-Prince 5(4) from t = 1 to t = 0.

    The error norm is sqrt(mean((err / (atol + rtol * |x|))^2)) and a step
    is accepted when it is <= 1.  Step sizes follow a PI controller with
    safety 0.9 clamped to factors in [0.2, 5].  With guidance active each
    field evaluation makes two model calls (conditional + unconditional).
    """
    if config.kind != "dopri5":
        raise DomainError("dopri5_sample needs config.kind == 'dopri5'")
    x = np.array(x1, dtype=np.float64)
    with _field(model, cond, config, x) as (f, nfe):
        def eval_field(x_at, s):
            # integrate forward in s = 1 - t: dx/ds = -u(x, t, r = t)
            return -np.asarray(f(x_at, 1.0 - s, 1.0 - s), dtype=np.float64)

        s, s_end = 0.0, 1.0
        h = INITIAL_STEP
        k1 = eval_field(x, s)
        t_grid = [1.0]
        accepted = rejected = 0
        err_prev = 1.0
        ks = [None] * 7
        while s < s_end:
            if s_end - s <= MIN_STEP:
                break  # residual span is far below the error-control scale
            h = min(h, s_end - s)
            if h < MIN_STEP:
                raise SolverError(
                    f"step size underflow (h={h:.3e}) at t={1.0 - s:.6f}",
                    step=accepted, nfe=nfe[0],
                )
            ks[0] = k1
            xi = x
            for i in range(1, 7):
                xi = x + h * sum(a * ks[j] for j, a in enumerate(_DOPRI_A[i]))
                ks[i] = eval_field(xi, s + _DOPRI_C[i] * h)
            x_new = xi  # stage 7 sits at c=1 with the b-row, i.e. the 5th-order result
            err_vec = h * sum(
                (b - bh) * ks[i]
                for i, (b, bh) in enumerate(zip(_DOPRI_B, _DOPRI_B_HAT))
                if b != bh
            )
            scale = config.atol + config.rtol * np.maximum(np.abs(x), np.abs(x_new))
            err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
            if not np.isfinite(err):
                raise SolverError("non-finite error estimate", step=accepted, nfe=nfe[0])
            if err <= 1.0:
                s += h
                x = x_new
                k1 = ks[6]  # FSAL: stage 7 was evaluated at (x_new, s + h)
                t_grid.append(1.0 - s)
                accepted += 1
                factor = SAFETY * err ** -0.14 * err_prev ** 0.08 if err > 0 else FACTOR_MAX
                err_prev = max(err, 1e-10)
            else:
                rejected += 1
                factor = max(SAFETY * err ** -0.2, FACTOR_MIN)
                factor = min(factor, 1.0)  # never grow after a rejection
            h *= min(max(factor, FACTOR_MIN), FACTOR_MAX)
    if not np.all(np.isfinite(x)):
        raise SolverError("non-finite final state", step=accepted, nfe=nfe[0])
    t_grid[-1] = 0.0
    return SampleTrace(final=x, nfe=nfe[0], t_grid=t_grid, accepted=accepted,
                       rejected=rejected)
