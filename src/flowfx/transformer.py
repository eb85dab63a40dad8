"""Forward-pass math for multi-stream transformer blocks.

A multi-stream block keeps one text/video/audio token sequence per
modality, with per-modality QKV projections and FFNs around one
self-attention over the tokens of every stream.  Rotary position
embeddings encode wall-clock time in seconds, so that tokens from streams
with different frame rates line up when they co-occur.  Only the forward
pass lives here; nothing in this module is trained, and no command
imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net
from .errors import DomainError

MODALITIES = ("text", "video", "audio")
ROPE_BASE = 10000.0
LN_EPS = 1e-5


@dataclass(frozen=True)
class ModalitySequence:
    """L tokens of one modality with per-token positions (seconds) and a
    validity mask.  Invalid rows always hold the null embedding (zeros);
    the constructor enforces that by zeroing them.
    """

    tokens: np.ndarray
    modality: str
    positions: np.ndarray
    validity: np.ndarray | None = None

    def __post_init__(self):
        tokens = np.asarray(self.tokens, dtype=np.float64)
        if tokens.ndim != 2:
            raise DomainError(f"tokens must be 2-D, got shape {tokens.shape}")
        if not np.all(np.isfinite(tokens)):
            raise DomainError("tokens must be finite")
        if self.modality not in MODALITIES:
            raise DomainError(f"unknown modality {self.modality!r}")
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.shape != (tokens.shape[0],):
            raise DomainError("positions must be one value per token")
        if not np.all(np.isfinite(pos)):
            raise DomainError("positions must be finite")
        if np.any(np.diff(pos) < 0.0):
            raise DomainError("positions must be nondecreasing")
        if self.validity is None:
            valid = np.ones(tokens.shape[0], dtype=bool)
        else:
            valid = np.asarray(self.validity, dtype=bool)
            if valid.shape != (tokens.shape[0],):
                raise DomainError("validity must be one flag per token")
        tokens = np.where(valid[:, None], tokens, 0.0)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "validity", valid)

    @property
    def length(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]


def positions_from_indices(n: int, rate_hz: float) -> np.ndarray:
    """Token positions in seconds for a stream sampled at rate_hz."""
    if rate_hz <= 0.0:
        raise DomainError("rate_hz must be positive")
    return np.arange(n, dtype=np.float64) / rate_hz


def rope_frequencies(rope_dims: int) -> np.ndarray:
    """Geometric angular frequencies, one per rotated coordinate pair."""
    if rope_dims <= 0 or rope_dims % 2 != 0:
        raise DomainError(f"rope_dims must be a positive even number, got {rope_dims}")
    j = np.arange(rope_dims // 2, dtype=np.float64)
    return ROPE_BASE ** (-2.0 * j / rope_dims)


def rope_apply(x: np.ndarray, positions: np.ndarray, rope_dims: int | None = None) -> np.ndarray:
    """Rotate coordinate pairs of the last axis by angle frequency * seconds.

    positions hold the wall-clock time of each token in seconds
    (positions_from_indices converts frame indices), so streams with
    different frame rates share phases whenever they share a time.  When
    rope_dims < the head dimension, trailing coordinates pass through
    unrotated.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = np.asarray(positions, dtype=np.float64)
    d_h = x.shape[-1]
    if rope_dims is None:
        rope_dims = d_h
    if rope_dims > d_h:
        raise DomainError(f"rope_dims {rope_dims} exceeds head dim {d_h}")
    if pos.ndim != 1 or pos.shape[0] != x.shape[-2]:
        raise DomainError("positions must be one value per token")
    ang = pos[:, None] * rope_frequencies(rope_dims)
    cos, sin = np.cos(ang), np.sin(ang)
    out = x.copy()
    a = x[..., 0:rope_dims:2]
    b = x[..., 1:rope_dims:2]
    out[..., 0:rope_dims:2] = a * cos - b * sin
    out[..., 1:rope_dims:2] = a * sin + b * cos
    return out


def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, valid: np.ndarray):
    """Scaled dot-product attention per head with key masking.

    q: (H, Lq, d_h); k, v: (H, Lk, d_h); valid: (Lk,) booleans.  Masked keys
    get exactly zero weight; a query with no valid keys yields a zero row.
    Returns (values (H, Lq, d_h), weights (H, Lq, Lk)).
    """
    d_h = q.shape[-1]
    logits = q @ np.swapaxes(k, -1, -2) / np.sqrt(d_h)
    logits = np.where(valid[None, None, :], logits, -np.inf)
    peak = np.max(logits, axis=-1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)  # all-masked rows
    w = np.exp(logits - peak)
    denom = np.sum(w, axis=-1, keepdims=True)
    w = w / np.where(denom > 0.0, denom, 1.0)
    return w @ v, w


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    length, d = x.shape
    return x.reshape(length, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    n_heads, length, d_h = x.shape
    return x.transpose(1, 0, 2).reshape(length, n_heads * d_h)


def layer_norm(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = np.mean((x - mean) ** 2, axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS)


@dataclass
class MultiStreamParams:
    """Per-modality QKV and FFN weights around one shared output projection."""

    modalities: tuple
    wq: dict
    wk: dict
    wv: dict
    wo: np.ndarray
    ffn_w1: dict
    ffn_b1: dict
    ffn_w2: dict
    ffn_b2: dict
    n_heads: int
    rope_dims: int

    @property
    def dim(self) -> int:
        return self.wo.shape[0]


def init_multistream(
    rng: np.random.Generator,
    d: int,
    d_ffn: int,
    n_heads: int = 2,
    rope_dims: int | None = None,
) -> MultiStreamParams:
    if d % n_heads != 0:
        raise DomainError(f"model dim {d} not divisible by {n_heads} heads")
    d_h = d // n_heads
    if rope_dims is None:
        rope_dims = d_h
    if rope_dims % 2 != 0 or rope_dims > d_h:
        raise DomainError(f"rope_dims {rope_dims} must be even and fit head dim {d_h}")
    wq, wk, wv = {}, {}, {}
    w1, b1, w2, b2 = {}, {}, {}, {}
    for m in MODALITIES:
        wq[m] = rng.standard_normal((d, d)) / np.sqrt(d)
        wk[m] = rng.standard_normal((d, d)) / np.sqrt(d)
        wv[m] = rng.standard_normal((d, d)) / np.sqrt(d)
        w1[m] = rng.standard_normal((d, d_ffn)) / np.sqrt(d)
        b1[m] = np.zeros(d_ffn)
        w2[m] = rng.standard_normal((d_ffn, d)) / np.sqrt(d_ffn)
        b2[m] = np.zeros(d)
    wo = rng.standard_normal((d, d)) / np.sqrt(d)
    return MultiStreamParams(MODALITIES, wq, wk, wv, wo, w1, b1, w2, b2, n_heads, rope_dims)


def _ffn(params: MultiStreamParams, modality: str, x: np.ndarray) -> np.ndarray:
    h = x @ params.ffn_w1[modality] + params.ffn_b1[modality]
    return (h * net._logistic(h)) @ params.ffn_w2[modality] + params.ffn_b2[modality]


def multistream_block(seqs, params: MultiStreamParams, return_weights: bool = False):
    """One multi-stream block: per-modality QKV, one self-attention of every
    query over the concatenated keys of all the streams given, a shared
    output projection, then a per-modality FFN with pre-normalization on the
    residual sum:

        Y_m = (X_m + Z_m) + FFN_m(LN(X_m + Z_m))

    A stream that should attend only to itself runs in a block of its own.
    """
    names = tuple(s.modality for s in seqs)
    if names != params.modalities:
        raise DomainError(f"sequence modalities {names} do not match params {params.modalities}")
    d = params.dim
    for s in seqs:
        if s.dim != d:
            raise DomainError(f"sequence dim {s.dim} does not match params dim {d}")
    heads = params.n_heads

    qs, ks, vs = [], [], []
    for s in seqs:
        q = _split_heads(s.tokens @ params.wq[s.modality], heads)
        k = _split_heads(s.tokens @ params.wk[s.modality], heads)
        qs.append(rope_apply(q, s.positions, params.rope_dims))
        ks.append(rope_apply(k, s.positions, params.rope_dims))
        vs.append(_split_heads(s.tokens @ params.wv[s.modality], heads))
    k_all = np.concatenate(ks, axis=1)
    v_all = np.concatenate(vs, axis=1)
    valid_all = np.concatenate([s.validity for s in seqs])

    outs, weights = [], []
    for q, s in zip(qs, seqs):
        z, w = masked_attention(q, k_all, v_all, valid_all)
        h = s.tokens + _merge_heads(z) @ params.wo
        y = h + _ffn(params, s.modality, layer_norm(h))
        outs.append(ModalitySequence(y, s.modality, s.positions, s.validity))
        weights.append(w)
    if return_weights:
        return outs, weights
    return outs
