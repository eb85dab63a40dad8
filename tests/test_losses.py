import numpy as np
import pytest

from flowfx.dsp import AudioBuffer, StftConfig, mel_filterbank, synth_signal
from flowfx.errors import DomainError
from flowfx.losses import (
    SPECTRAL_SCALES,
    ae_total_loss,
    cfg_combine,
    cfg_neutral_scale,
    contrastive_loss,
    hinge_disc_loss,
    hinge_gen_loss,
    multiscale_spectral_l1,
)

from oracles import log_mel

SR = 48000


def test_spectral_scales_canonical():
    assert SPECTRAL_SCALES == (
        (32, 5), (64, 10), (128, 20), (256, 40),
        (512, 80), (1024, 160), (2048, 320),
    )


def test_multiscale_identity_zero():
    buf = synth_signal(0, 0.25, SR)
    assert multiscale_spectral_l1(buf, buf) == 0.0


def test_multiscale_symmetry_and_positivity():
    a = synth_signal(1, 0.25, SR)
    b = synth_signal(2, 0.25, SR)
    lab = multiscale_spectral_l1(a, b)
    lba = multiscale_spectral_l1(b, a)
    assert lab > 0
    assert lab == pytest.approx(lba, rel=1e-12)


def test_multiscale_matches_per_scale_recompute():
    # wiring check: the loss is exactly the sum of per-scale mean |log-mel
    # difference| values with hop = window / 4
    a = synth_signal(5, 0.2, SR)
    b = synth_signal(6, 0.2, SR)
    expected = 0.0
    for win, n_mels in [(32, 5), (64, 10), (128, 20), (256, 40),
                        (512, 80), (1024, 160), (2048, 320)]:
        cfg = StftConfig(n_fft=win, hop=win // 4)
        fb = mel_filterbank(n_mels, cfg, SR)
        expected += np.mean(np.abs(log_mel(a, fb, cfg) - log_mel(b, fb, cfg)))
    assert multiscale_spectral_l1(a, b) == pytest.approx(expected, rel=1e-12)


def test_multiscale_rejects_mismatch():
    a = synth_signal(1, 0.25, SR)
    with pytest.raises(DomainError):
        multiscale_spectral_l1(a, AudioBuffer(a.samples[:-1], SR))
    with pytest.raises(DomainError):
        multiscale_spectral_l1(a, AudioBuffer(a.samples, 44100))


def test_hinge_hand_cases():
    assert hinge_disc_loss(np.array([2.0]), np.array([-2.0])) == 0.0
    assert hinge_disc_loss(np.array([0.0]), np.array([0.0])) == 2.0
    assert hinge_disc_loss(np.array([1.0]), np.array([-1.0])) == 0.0
    assert hinge_gen_loss(np.array([3.0, -1.0])) == -1.0


def test_ae_total_weights():
    assert ae_total_loss(1.0, 0.0, 0.0) == 15.0
    assert ae_total_loss(0.0, 1.0, 0.0) == 1.0
    assert ae_total_loss(0.0, 0.0, 1.0) == 2.0
    assert ae_total_loss(0.5, 2.0, 0.25) == pytest.approx(10.0, rel=1e-15)


def test_contrastive_orthonormal_hand_case():
    # identity similarity / 0.2 puts 5 on the diagonal, 0 elsewhere; each
    # row's cross-entropy is log(1 + e^-5)
    e = np.eye(2)
    val = contrastive_loss(e, e, tau=0.2)
    assert val == pytest.approx(0.006715348489118068, abs=1e-12)


def test_contrastive_symmetric_and_positive():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.standard_normal((6, 12))
        t = rng.standard_normal((6, 12))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        v = contrastive_loss(a, t)
        assert v > 0
        assert v == pytest.approx(contrastive_loss(t, a), rel=1e-12)


def test_contrastive_prefers_aligned_pairs():
    rng = np.random.default_rng(9)
    t = rng.standard_normal((8, 16))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    aligned = contrastive_loss(t, t)
    shuffled = contrastive_loss(t[::-1], t)
    assert aligned < shuffled


def test_contrastive_validation():
    with pytest.raises(DomainError):
        contrastive_loss(np.eye(2), np.eye(3))
    with pytest.raises(DomainError):
        contrastive_loss(np.eye(2), np.eye(2), tau=0.0)


def test_cfg_standard_hand_case():
    vc = np.array([2.0])
    vu = np.array([1.0])
    assert cfg_combine(vc, vu, 7.0, mode="standard")[0] == 8.0
    assert cfg_combine(vc, vu, 1.0, mode="standard")[0] == 2.0  # neutral
    assert cfg_combine(vc, vu, 0.0, mode="standard")[0] == 1.0


def test_cfg_paper_literal_hand_case():
    vc = np.array([2.0])
    vu = np.array([1.0])
    assert cfg_combine(vc, vu, 7.0, mode="paper_literal")[0] == -5.0
    assert cfg_combine(vc, vu, 0.0, mode="paper_literal")[0] == 2.0  # neutral


def test_cfg_neutral_scales():
    rng = np.random.default_rng(4)
    vc = rng.standard_normal((3, 5))
    vu = rng.standard_normal((3, 5))
    for mode in ("standard", "paper_literal"):
        s = cfg_neutral_scale(mode)
        assert np.array_equal(cfg_combine(vc, vu, s, mode=mode), vc)


def test_cfg_rejects_unknown_mode():
    with pytest.raises(DomainError):
        cfg_combine(np.ones(2), np.ones(2), 1.0, mode="upside_down")
    with pytest.raises(DomainError):
        cfg_neutral_scale("upside_down")
