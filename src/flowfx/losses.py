"""Training losses: multi-scale spectral distance (``dsp.spectral_l1`` summed
over scales), the hinge GAN objectives, the weighted codec total,
contrastive embedding alignment, and classifier-free guidance combination."""

from __future__ import annotations

import numpy as np

from .dsp import AudioBuffer, StftConfig, spectral_l1
from .errors import DomainError

# (window, n_mels) pairs for the multi-scale spectral loss; hop is window/4.
SPECTRAL_SCALES = (
    (32, 5),
    (64, 10),
    (128, 20),
    (256, 40),
    (512, 80),
    (1024, 160),
    (2048, 320),
)

# reconstruction / adversarial / feature-matching weights in the codec total
AE_SPEC_WEIGHT = 15.0
AE_ADV_WEIGHT = 1.0
AE_FM_WEIGHT = 2.0


def multiscale_spectral_l1(x: AudioBuffer, y: AudioBuffer) -> float:
    """Sum over scales of the mean absolute log-mel difference.

    Each scale pairs an FFT window from 32 to 2048 with 5 to 320 mel bands
    and a hop of a quarter window, so the loss sees both fine temporal and
    fine spectral structure.
    """
    return sum(
        spectral_l1(x, y, StftConfig(n_fft=win, hop=win // 4), n_mels)
        for win, n_mels in SPECTRAL_SCALES
    )


def hinge_disc_loss(d_real: np.ndarray, d_fake: np.ndarray) -> float:
    """Hinge discriminator loss: mean relu(1 - d_real) + mean relu(1 + d_fake)."""
    d_real = np.asarray(d_real, dtype=np.float64)
    d_fake = np.asarray(d_fake, dtype=np.float64)
    return float(
        np.mean(np.maximum(0.0, 1.0 - d_real))
        + np.mean(np.maximum(0.0, 1.0 + d_fake))
    )


def hinge_gen_loss(d_fake: np.ndarray) -> float:
    """Hinge generator loss: -mean(d_fake)."""
    return float(-np.mean(np.asarray(d_fake, dtype=np.float64)))


def ae_total_loss(spec_loss: float, adv_loss: float, fm_loss: float) -> float:
    """Codec training total: 15 * spectral + 1 * adversarial + 2 * feature match."""
    return AE_SPEC_WEIGHT * spec_loss + AE_ADV_WEIGHT * adv_loss + AE_FM_WEIGHT * fm_loss


def contrastive_loss(
    audio_emb: np.ndarray, text_emb: np.ndarray, tau: float = 0.2
) -> float:
    """Symmetric cross-entropy over the cosine-similarity matrix.

    Rows of both inputs are unit vectors; matched pairs share an index.
    Returns the average of the audio-to-text and text-to-audio directions,
    each a mean over rows of -log softmax(sim / tau) at the diagonal.  The
    value is nonnegative and minimized when each row retrieves its partner.
    """
    a = np.atleast_2d(np.asarray(audio_emb, dtype=np.float64))
    t = np.atleast_2d(np.asarray(text_emb, dtype=np.float64))
    if a.shape != t.shape:
        raise DomainError("embedding batches must share a shape")
    if tau <= 0:
        raise DomainError("temperature must be positive")
    sims = a @ t.T / tau
    def direction(s):
        mx = s.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.sum(np.exp(s - mx), axis=1))
        return float(np.mean(lse - np.diag(s)))
    return 0.5 * (direction(sims) + direction(sims.T))


def cfg_combine(
    v_cond: np.ndarray,
    v_uncond: np.ndarray,
    scale: float,
    mode: str = "standard",
) -> np.ndarray:
    """Combine conditional and unconditional velocity estimates.

    ``standard`` computes v_uncond + scale * (v_cond - v_uncond), neutral at
    scale 1.  ``paper_literal`` computes (1 - scale) * v_cond +
    scale * v_uncond, neutral at scale 0; it walks away from the condition
    as the scale grows, and is kept for reproducing runs defined in those
    terms.
    """
    vc = np.asarray(v_cond, dtype=np.float64)
    vu = np.asarray(v_uncond, dtype=np.float64)
    if vc.shape != vu.shape:
        raise DomainError("velocity shapes differ")
    neutral = cfg_neutral_scale(mode)  # an unknown mode raises here
    if np.ndim(scale) == 0 and scale == neutral:
        return vc.copy()  # exact: the neutral scale must not perturb v_cond
    if mode == "standard":
        return vu + scale * (vc - vu)
    return (1.0 - scale) * vc + scale * vu


def cfg_neutral_scale(mode: str = "standard") -> float:
    """The scale at which ``cfg_combine`` returns exactly v_cond."""
    if mode == "standard":
        return 1.0
    if mode == "paper_literal":
        return 0.0
    raise DomainError(f"unknown guidance mode {mode!r}")
