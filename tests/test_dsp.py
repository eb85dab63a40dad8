import struct
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from flowfx import dsp, host
from flowfx.dsp import (
    AudioBuffer,
    ComplexSpectrogram,
    HeadOutput,
    StftConfig,
    complex_to_head,
    hann_window,
    head_to_complex,
    hz_to_mel,
    istft,
    mel_filterbank,
    read_wav,
    softplus,
    stft,
    synth_signal,
    write_wav,
)
from flowfx.errors import DomainError, FileFormatError
from flowfx.losses import SPECTRAL_SCALES
from flowfx.metrics import MEL_DIST_BANDS, MEL_DIST_CONFIG, STFT_DIST_CONFIG

import oracles
from oracles import log_mel

SR = 48000
CFG = StftConfig()


def _stft_gather(x, config):
    """Reference STFT: frames gathered by an explicit frames x n_fft index."""
    n_fft, hop = config.n_fft, config.hop
    pad = n_fft // 2
    padded = np.full(2 * pad + 1, x[0]) if len(x) == 1 else np.pad(x, pad, mode="reflect")
    frames = -(-len(x) // hop)
    idx = hop * np.arange(frames)[:, None] + np.arange(n_fft)[None, :]
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    return np.fft.rfft(padded[idx] * w, axis=1)


def _istft_loop(spec, length):
    """Reference inverse STFT: window each frame inside the overlap-add loop."""
    n_fft, hop = spec.config.n_fft, spec.config.hop
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    segments = np.fft.irfft(spec.data, n=n_fft, axis=1)
    total = (spec.frames - 1) * hop + n_fft
    num = np.zeros(total)
    den = np.zeros(total)
    for k in range(spec.frames):
        sl = slice(k * hop, k * hop + n_fft)
        num[sl] += segments[k] * w
        den[sl] += w * w
    y = num / np.maximum(den, 1e-12)
    return y[n_fft // 2 : n_fft // 2 + length]


GEOMETRIES = sorted({(960, 480), (2048, 512), (512, 128), (33, 16), (7, 3)}
                    | {(win, win // 4) for win, _ in SPECTRAL_SCALES})


@pytest.mark.parametrize("n_fft,hop", GEOMETRIES)
def test_stft_and_istft_bit_identical_to_references(n_fft, hop):
    rng = np.random.default_rng(n_fft * 1000 + hop)
    # 1 and 2 samples, fewer than n_fft / 2, lengths hop does not divide, and
    # on, one below and one above the first two block edges of stft's
    # analysis loop (block frames x hop)
    edges = [j * (dsp.SPECTRAL_BLOCK_SAMPLES // n_fft) * hop for j in (1, 2)]
    lengths = {1, 2, max(1, n_fft // 2 - 1), n_fft + 1, 5 * hop + 1, 4801,
               *(edge + d for edge in edges for d in (-1, 0, 1))}
    for n in sorted(lengths):
        x = rng.standard_normal(n)
        spec = stft(AudioBuffer(x, SR), StftConfig(n_fft, hop))
        assert np.array_equal(spec.data, _stft_gather(x, spec.config)), n
        assert np.array_equal(istft(spec, n), _istft_loop(spec, n)), n


# scipy.signal.ShortTimeFFT (scipy >= 1.12) is an independent STFT: its slice
# p is centred on sample p * hop + k_offset, so k_offset = n_fft // 2 lines it
# up with frame p of the reflect-padded signal; phase_shift=None leaves each
# slice's FFT unrotated, as stft's is
@pytest.mark.parametrize("n_fft,hop,n", [(64, 16, 500), (960, 480, 4801), (2048, 512, 6000),
                                         (512, 128, 1000), (33, 16, 301)])
def test_stft_matches_scipy_short_time_fft(n_fft, hop, n):
    from scipy.signal import ShortTimeFFT
    from scipy.signal.windows import hann

    x = np.random.default_rng(n_fft + hop + n).standard_normal(n)
    spec = stft(AudioBuffer(x, SR), StftConfig(n_fft, hop))
    sft = ShortTimeFFT(hann(n_fft, sym=False), hop, SR, phase_shift=None)
    padded = np.pad(x, n_fft // 2, mode="reflect")
    want = sft.stft(padded, p0=0, p1=spec.frames, k_offset=n_fft // 2).T
    assert want.shape == spec.data.shape
    assert np.max(np.abs(spec.data - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n_fft,hop", GEOMETRIES)
def test_codec_roundtrip_bit_identical_to_whole_signal_chain(n_fft, hop):
    config = StftConfig(n_fft, hop)
    rng = np.random.default_rng(n_fft * 1000 + hop + 1)
    # on, one below and one above the first two block edges (block frames x hop)
    edges = [j * (dsp.SPECTRAL_BLOCK_SAMPLES // n_fft) * hop for j in (1, 2)]
    lengths = {1, 2, *(edge + d for edge in edges for d in (-1, 0, 1))}
    for n in sorted(lengths):
        audio = AudioBuffer(rng.standard_normal(n), SR)
        whole = istft(ComplexSpectrogram(head_to_complex(complex_to_head(stft(audio, config))),
                                         config), n)
        assert dsp.codec_roundtrip(audio, config).tobytes() == whole.tobytes(), n


def test_codec_roundtrip_peaks_under_four_signal_lengths():
    audio = AudioBuffer(np.random.default_rng(5).standard_normal(10 * SR), SR)
    dsp.codec_roundtrip(audio, CFG)  # the window cache is warm before tracing
    tracemalloc.start()
    try:
        dsp.codec_roundtrip(audio, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * audio.samples.nbytes, peak / audio.samples.nbytes


def _assert_cached_read_only(cache, get, fresh):
    cache.cache_clear()
    first = get()
    assert get() is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 1.0
    assert np.array_equal(first, fresh())
    # concurrent misses on an empty cache, with frequent thread switches
    cache.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(get) for _ in range(32)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(r, first) and not r.flags.writeable for r in results)


def test_hann_window_cached_read_only_and_thread_safe():
    n = 1234
    _assert_cached_read_only(
        dsp.hann_window,
        lambda: hann_window(n),
        lambda: 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n),
    )


@pytest.mark.parametrize("n_mels,n_fft", [(320, 2048), (10, 960), (400, 960)])
def test_mel_filterbank_cached_read_only_and_thread_safe(n_mels, n_fft):
    _assert_cached_read_only(
        dsp._mel_filterbank,
        lambda: mel_filterbank(n_mels, StftConfig(n_fft, n_fft // 4), SR).weights,
        lambda: dsp._mel_filterbank.__wrapped__(n_mels, n_fft, SR).weights,
    )
    # the hop does not enter the weights, so it shares the cached entry
    other_hop = mel_filterbank(n_mels, StftConfig(n_fft, n_fft // 2), SR)
    assert other_hop.weights is mel_filterbank(n_mels, StftConfig(n_fft, n_fft // 4), SR).weights


def test_stft_shape_and_zero_input():
    buf = AudioBuffer(np.zeros(4800), SR)
    spec = stft(buf, CFG)
    assert spec.data.shape == (10, 481)
    assert np.all(spec.data == 0)


def test_stft_frame_count_rounds_up():
    for n, frames in [(480, 1), (481, 2), (4799, 10), (4800, 10), (4801, 11)]:
        spec = stft(AudioBuffer(np.ones(n), SR), CFG)
        assert spec.frames == frames, n


def test_stft_bin_center_sine_mainlobe():
    # 300 Hz sits exactly on bin 6 (spacing 50 Hz).  A Hann-windowed
    # bin-center sine puts sum(w)/2 = 240 in its bin and 120 in each
    # neighbor, with nothing else beyond roundoff.
    t = np.arange(4800) / SR
    spec = stft(AudioBuffer(np.sin(2 * np.pi * 300 * t), SR), CFG)
    mags = np.abs(spec.data)
    for k in range(2, 8):  # interior frames, away from the reflect padding
        assert mags[k, 6] == pytest.approx(240.0, rel=1e-9)
        assert mags[k, 5] == pytest.approx(120.0, rel=1e-9)
        assert mags[k, 7] == pytest.approx(120.0, rel=1e-9)
        others = np.delete(mags[k], [5, 6, 7])
        assert np.max(others) < 1e-9


def test_stft_impulse_first_frame_flat():
    # With reflect padding of n_fft/2 the first frame is centered on sample
    # 0, so an impulse there is scaled by the window peak w[480] = 1 and
    # shows magnitude 1 in every bin of frame 0 only.
    x = np.zeros(4800)
    x[0] = 1.0
    mags = np.abs(stft(AudioBuffer(x, SR), CFG).data)
    assert np.allclose(mags[0], 1.0, atol=1e-12)
    assert np.max(mags[1:]) == 0.0


def test_stft_parseval_per_frame():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(4800)
    w = hann_window(CFG.n_fft)
    pad = CFG.n_fft // 2
    padded = np.pad(x, pad, mode="reflect")
    spec = stft(AudioBuffer(x, SR), CFG).data
    for k in range(10):
        seg = padded[k * CFG.hop : k * CFG.hop + CFG.n_fft] * w
        lhs = np.sum(seg**2)
        rhs = (
            np.abs(spec[k, 0]) ** 2
            + 2 * np.sum(np.abs(spec[k, 1:-1]) ** 2)
            + np.abs(spec[k, -1]) ** 2
        ) / CFG.n_fft
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1.0)


def test_roundtrip_white_noise_exact():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(48000)
    y = istft(stft(AudioBuffer(x, SR), CFG), length=len(x))
    assert np.max(np.abs(y - x)) <= 1e-10


def test_roundtrip_random_lengths():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(700, 20000))
        x = rng.standard_normal(n)
        y = istft(stft(AudioBuffer(x, SR), CFG), length=n)
        rel = np.linalg.norm(y - x) / np.linalg.norm(x)
        assert rel <= 1e-10, n


def test_roundtrip_synth_signal():
    buf = synth_signal(3, 1.0, SR)
    y = istft(stft(buf, CFG), length=len(buf.samples))
    rel = np.linalg.norm(y - buf.samples) / np.linalg.norm(buf.samples)
    assert rel <= 1e-10


def test_roundtrip_alternate_geometry():
    rng = np.random.default_rng(5)
    cfg = StftConfig(n_fft=512, hop=128)
    x = rng.standard_normal(10000)
    y = istft(stft(AudioBuffer(x, SR), cfg), length=len(x))
    assert np.max(np.abs(y - x)) <= 1e-10


def test_stft_config_rejects_bad_overlap():
    with pytest.raises(DomainError):
        StftConfig(n_fft=960, hop=961)
    with pytest.raises(DomainError):
        StftConfig(n_fft=960, hop=481)  # gaps in coverage break the inverse
    with pytest.raises(DomainError):
        StftConfig(n_fft=0, hop=1)


def test_istft_length_bounds():
    spec = stft(AudioBuffer(np.ones(4800), SR), CFG)
    with pytest.raises(DomainError):
        istft(spec, length=4801)
    with pytest.raises(DomainError):
        istft(spec, length=0)


def test_head_hand_case():
    # softplus(0) = ln 2; direction (3,4)/5 = (0.6, 0.8)
    h = HeadOutput(m=np.array([0.0]), x_raw=np.array([3.0]), y_raw=np.array([4.0]))
    c = head_to_complex(h)
    assert c[0].real == pytest.approx(0.4158883083359672, abs=1e-15)
    assert c[0].imag == pytest.approx(0.5545177444479562, abs=1e-15)


def test_head_magnitude_is_softplus():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.uniform(-6, 6, size=(4, 9))
        x = rng.standard_normal((4, 9))
        y = rng.standard_normal((4, 9))
        c = head_to_complex(HeadOutput(m, x, y))
        assert np.max(np.abs(np.abs(c) - softplus(m))) <= 1e-12


def test_head_saturation_extremes():
    c = head_to_complex(
        HeadOutput(np.array([-50.0, 10.0]), np.ones(2), np.zeros(2))
    )
    assert abs(c[0]) <= 2e-22  # softplus(-50) ~ e^-50, positive
    assert abs(c[0]) > 0
    assert abs(c[1]) == pytest.approx(10.000045398899218, rel=1e-12)


def test_head_degenerate_direction_is_phase_zero():
    c = head_to_complex(
        HeadOutput(np.array([1.0]), np.array([0.0]), np.array([0.0]))
    )
    assert c[0].imag == 0.0
    assert c[0].real == pytest.approx(softplus(np.array([1.0]))[0], abs=1e-15)


def test_head_direction_scale_invariant():
    rng = np.random.default_rng(2)
    m = rng.standard_normal(16)
    x = rng.standard_normal(16)
    y = rng.standard_normal(16)
    a = head_to_complex(HeadOutput(m, x, y))
    b = head_to_complex(HeadOutput(m, 1e3 * x, 1e3 * y))
    assert np.max(np.abs(a - b)) <= 1e-12


def test_complex_head_roundtrip():
    buf = synth_signal(9, 0.25, SR)
    spec = stft(buf, CFG)
    back = head_to_complex(complex_to_head(spec))
    assert np.max(np.abs(back - spec.data)) <= 1e-8 * np.max(np.abs(spec.data))


def test_mel_filterbank_frozen_values():
    # n_mels=10 @ 48 kHz / n_fft=960: first edge at mel(24000)/11 -> 267.807 Hz,
    # so bin 1 (50 Hz) carries weight 50/267.807... = 0.18670...
    fb = mel_filterbank(10, CFG, SR)
    assert fb.weights.shape == (10, 481)
    assert fb.weights[0, 0] == 0.0
    assert fb.weights[0, 1] == pytest.approx(0.1867014753068494, abs=1e-12)
    assert fb.weights[0, 2] == pytest.approx(0.3734029506136988, abs=1e-12)


def test_mel_filterbank_properties():
    fb = mel_filterbank(128, CFG, SR)
    assert np.all(fb.weights >= 0)
    assert np.all(fb.weights.max(axis=1) <= 1.0 + 1e-12)
    assert np.all(np.any(fb.weights > 0, axis=1))  # no dead bands
    centers = fb.weights.argmax(axis=1)
    assert np.all(np.diff(centers) >= 0)  # centers ordered by frequency


def test_mel_filterbank_narrow_filter_fallback():
    # 400 bands over 481 bins leaves the low filters narrower than one bin;
    # those rows must still get a single unit weight at the nearest bin.
    fb = mel_filterbank(400, CFG, SR)
    assert np.all(np.any(fb.weights > 0, axis=1))
    row_sums = fb.weights.sum(axis=1)
    assert np.all(row_sums > 0)


def test_mel_filterbank_too_many_bands():
    with pytest.raises(DomainError):
        mel_filterbank(482, CFG, SR)  # only 481 bins available
    mel_filterbank(481, CFG, SR)  # boundary case allowed


@pytest.mark.parametrize("rate", [0, -1])
def test_mel_filterbank_rejects_non_positive_rate(rate):
    cached = dsp._mel_filterbank.cache_info().currsize
    with pytest.raises(DomainError):
        mel_filterbank(8, StftConfig(64, 16), rate)
    assert dsp._mel_filterbank.cache_info().currsize == cached


def test_hz_mel_scale_anchor():
    assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0), rel=1e-12)
    assert hz_to_mel(0.0) == 0.0


def test_log_mel_floor_on_silence():
    fb = mel_filterbank(128, CFG, SR)
    lm = log_mel(AudioBuffer(np.zeros(4800), SR), fb, CFG)
    assert lm.shape == (10, 128)
    assert np.allclose(lm, np.log(1e-5))
    assert lm.min() == pytest.approx(-11.512925464970229, abs=1e-12)


def test_log_mel_gain_monotone():
    # doubling the signal cannot decrease any log-mel entry
    buf = synth_signal(1, 0.3, SR)
    fb = mel_filterbank(64, CFG, SR)
    a = log_mel(buf, fb, CFG)
    b = log_mel(AudioBuffer(2.0 * buf.samples, SR), fb, CFG)
    assert np.all(b >= a - 1e-12)


def test_log_mel_rejects_rate_mismatch():
    fb = mel_filterbank(32, CFG, 44100)
    with pytest.raises(DomainError):
        log_mel(AudioBuffer(np.zeros(4800), SR), fb, CFG)


# every (geometry, mel bands) a command or loss passes to spectral_l1
SPECTRAL_GEOMETRIES = [
    *((StftConfig(win, win // 4), n_mels) for win, n_mels in SPECTRAL_SCALES),
    (MEL_DIST_CONFIG, MEL_DIST_BANDS),
    (STFT_DIST_CONFIG, None),
]


def _spectral_length(config, where):
    """A signal length whose frames window just under ("below") or exactly
    ("at") SPECTRAL_PARALLEL_MIN_SAMPLES samples, or 2.5 rfft blocks of
    frames plus one ("ragged"), past it."""
    at = dsp.SPECTRAL_PARALLEL_MIN_SAMPLES // config.n_fft
    block = dsp.SPECTRAL_BLOCK_SAMPLES // config.n_fft
    frames = {"below": at - 1, "at": at, "ragged": 2 * block + block // 2 + 1}[where]
    return (frames - 1) * config.hop + 1


def _noisy_pair(seed, n):
    a = AudioBuffer(synth_signal(seed, 1.0, SR).samples[:n], SR)
    noise = np.random.default_rng(seed).standard_normal(n)
    return a, AudioBuffer(0.8 * a.samples + 0.02 * noise, SR)


@pytest.mark.parametrize("where", ["below", "at", "ragged"])
@pytest.mark.parametrize("config, n_mels", SPECTRAL_GEOMETRIES,
                         ids=[f"{c.n_fft}-{c.hop}-{m}" for c, m in SPECTRAL_GEOMETRIES])
def test_spectral_l1_same_bits_on_one_and_two_cpus(config, n_mels, where, monkeypatch,
                                                    recorded_futures):
    # two CPUs compute b's side on a worker from the threshold on; either
    # way the distance is the bits of the allocating whole-signal formula
    a, b = _noisy_pair(11, _spectral_length(config, where))
    futures = recorded_futures
    values = []
    for cpus in (1, 2):
        monkeypatch.setattr(host, "cpus", lambda: cpus)
        values.append(dsp.spectral_l1(a, b, config, n_mels).hex())
    assert len(futures) == (where != "below")
    assert values == [oracles.spectral_l1(a, b, config, n_mels).hex()] * 2


@pytest.mark.parametrize("overflowing", [None, "a", "b"])
def test_spectral_worker_is_joined_before_return_or_raise(overflowing, monkeypatch,
                                                           recorded_futures):
    n = _spectral_length(STFT_DIST_CONFIG, "ragged")
    pair = dict(zip("ab", _noisy_pair(12, n)))
    if overflowing:
        pair[overflowing] = AudioBuffer(1e308 * (-1.0) ** np.arange(n), SR)
    monkeypatch.setattr(host, "cpus", lambda: 2)
    futures = recorded_futures
    # the worker runs under the caller's numpy error state: a RuntimeWarning
    # from its overflowing rfft would be raised here as an error
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        if overflowing:
            with pytest.raises(DomainError, match="^spectrogram entries must be finite$"):
                dsp.spectral_l1(pair["a"], pair["b"], STFT_DIST_CONFIG)
        else:
            dsp.spectral_l1(pair["a"], pair["b"], STFT_DIST_CONFIG)
    assert len(futures) == 1 and futures[0].done()
    assert not any(t.name.startswith("flowfx-spectral") for t in threading.enumerate())


def test_spectral_l1_rejects_empty_audio():
    with pytest.raises(DomainError, match="empty"):
        dsp.spectral_l1(AudioBuffer(np.zeros(0), SR), AudioBuffer(np.zeros(0), SR), CFG)


def test_synth_signal_deterministic():
    a = synth_signal(123, 0.5, SR)
    b = synth_signal(123, 0.5, SR)
    assert np.array_equal(a.samples, b.samples)
    c = synth_signal(124, 0.5, SR)
    assert not np.array_equal(a.samples, c.samples)


def test_synth_signal_peak_and_length():
    for seed in range(8):
        buf = synth_signal(seed, 0.5, SR)
        assert len(buf.samples) == 24000
        assert np.max(np.abs(buf.samples)) == pytest.approx(0.9, abs=1e-12)


def test_synth_signal_is_broadband():
    # seed 0 must light up at least three mel bands well above the floor
    buf = synth_signal(0, 1.0, SR)
    fb = mel_filterbank(128, CFG, SR)
    lm = log_mel(buf, fb, CFG)
    active = np.sum(lm.max(axis=0) > np.log(1e-5) + 1.0)
    assert active >= 3


def test_synth_signal_rejects_bad_duration():
    with pytest.raises(DomainError):
        synth_signal(0, 0.0, SR)


def test_wav_roundtrip_float32(tmp_path):
    buf = synth_signal(4, 0.2, SR)
    p = tmp_path / "a.wav"
    write_wav(p, buf)
    back = read_wav(p)
    assert back.sample_rate == SR
    assert np.max(np.abs(back.samples - buf.samples)) <= 1e-7  # float32 quantization


def test_wav_roundtrip_pcm16(tmp_path):
    from scipy.io import wavfile

    buf = synth_signal(4, 0.2, SR)
    p = tmp_path / "a16.wav"
    clipped = np.clip(buf.samples, -1.0, 32767.0 / 32768.0)
    wavfile.write(p, SR, np.round(clipped * 32768.0).astype(np.int16))
    back = read_wav(p)
    assert back.sample_rate == SR
    assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768.0


def test_wav_stereo_downmix_warns(tmp_path):
    from scipy.io import wavfile

    p = tmp_path / "st.wav"
    left = np.linspace(-0.5, 0.5, 1000).astype(np.float32)
    right = np.zeros(1000, dtype=np.float32)
    wavfile.write(p, SR, np.stack([left, right], axis=1))
    with pytest.warns(UserWarning):
        buf = read_wav(p)
    assert np.allclose(buf.samples, left / 2, atol=1e-7)


def test_wav_rejects_garbage(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"not a riff file at all..........")
    with pytest.raises(FileFormatError):
        read_wav(p)


def test_wav_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_wav(tmp_path / "nope.wav")


# scipy.io.wavfile is the oracle for the hand-written RIFF reader and writer
@pytest.mark.parametrize("n", [1, 3, 48000])
def test_write_wav_bytes_equal_scipy(n, tmp_path):
    from scipy.io import wavfile

    buf = AudioBuffer(np.random.default_rng(n).uniform(-1.0, 1.0, n), SR)
    write_wav(tmp_path / "ours.wav", buf)
    wavfile.write(tmp_path / "scipy.wav", SR, buf.samples.astype(np.float32))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


def test_write_wav_refuses_a_rate_past_the_header_field(tmp_path):
    # the byte rate, 4 * sample_rate, is a 32-bit field
    with pytest.raises(DomainError, match="do not fit a WAV file"):
        write_wav(tmp_path / "a.wav", AudioBuffer(np.zeros(4), 2**30))
    assert list(tmp_path.iterdir()) == []


def _chunk(tag, body, size=None):
    """A RIFF chunk: tag, size (the body's unless given), body, pad byte."""
    size = len(body) if size is None else size
    return tag + struct.pack("<I", size) + body + b"\0" * (len(body) & 1)


def _wave(*chunks, magic=b"RIFF"):
    body = b"WAVE" + b"".join(chunks)
    return magic + struct.pack("<I", len(body)) + body


def _fmt(tag=3, channels=1, bits=32, block_align=None, size=None, rate=SR):
    align = channels * bits // 8 if block_align is None else block_align
    return _chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits),
                  size)


_FLOAT_GUID = struct.pack("<H", 3) + dsp._KSDATAFORMAT_TAIL
_SAMPLES = np.linspace(-0.5, 0.5, 11).astype(np.float32)


def _scipy_mono(path):
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    data = data / 32768.0 if data.dtype == np.int16 else data.astype(np.float64)
    return rate, data.mean(axis=1) if data.ndim == 2 else data


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(np.round(_SAMPLES * 32767).astype(np.int16), id="pcm16"),
        pytest.param(_SAMPLES, id="float32"),
        pytest.param(_SAMPLES.astype(np.float64) / 3, id="float64"),
    ],
)
def test_read_wav_matches_scipy_on_mono(data, tmp_path):
    from scipy.io import wavfile

    p = tmp_path / "a.wav"
    wavfile.write(p, SR, data)
    buf = read_wav(p)
    rate, expected = _scipy_mono(p)
    assert buf.sample_rate == rate == SR
    assert np.array_equal(buf.samples, expected)


def test_read_wav_matches_scipy_on_float32_stereo(tmp_path):
    from scipy.io import wavfile

    p = tmp_path / "st.wav"
    wavfile.write(p, SR, np.stack([_SAMPLES, _SAMPLES[::-1] / 4], axis=1))
    with pytest.warns(UserWarning, match="downmixing 2 channels to mono"):
        buf = read_wav(p)
    assert np.array_equal(buf.samples, _scipy_mono(p)[1])


@pytest.mark.parametrize(
    "chunks",
    [
        pytest.param(
            [_chunk(b"fmt ", struct.pack("<HHIIHHHHI", 0xFFFE, 1, SR, 4 * SR, 4, 32, 22, 32, 4)
                    + _FLOAT_GUID)],
            id="extensible-float32",
        ),
        pytest.param([_fmt(), _chunk(b"LIST", b"INFOodd")], id="odd-list-before-data"),
    ],
)
def test_read_wav_matches_scipy_on_hand_built_files(chunks, tmp_path):
    p = tmp_path / "a.wav"
    p.write_bytes(_wave(*chunks, _chunk(b"data", _SAMPLES.tobytes())))
    buf = read_wav(p)
    assert np.array_equal(buf.samples, _scipy_mono(p)[1])
    assert np.array_equal(buf.samples, _SAMPLES.astype(np.float64))


# (format tag, sample dtype) of every sample format read_wav accepts
_WAV_FORMATS = [(dsp.WAVE_FORMAT_PCM, np.dtype("<i2")),
                (dsp.WAVE_FORMAT_IEEE_FLOAT, np.dtype("<f4")),
                (dsp.WAVE_FORMAT_IEEE_FLOAT, np.dtype("<f8"))]
_EXTRA_TAGS = [b"LIST", b"JUNK", b"fact", b"cue ", b"bext"]


def _random_samples(rng, dtype, frames, channels):
    """Frames x channels samples over the format's range, with -0.0,
    subnormals and large values among the floats.  Floats stay below
    max / 4, so the channel mean of up to 4 channels is finite."""
    if dtype.kind == "i":
        return rng.integers(-32768, 32768, (frames, channels)).astype(dtype)
    data = rng.standard_normal((frames, channels)) * 10.0 ** rng.integers(-3, 4)
    info = np.finfo(dtype)
    special = [-0.0, info.smallest_subnormal, -info.smallest_subnormal, info.max / 4, -1.0]
    cells = rng.random((frames, channels)) < 0.2
    data[cells] = rng.choice(special, int(cells.sum()))
    return data.astype(dtype)


def _random_fmt(rng, tag, dtype, channels, rate):
    """A fmt chunk: plain with 16 bytes, plain with cbSize 0, or
    WAVE_FORMAT_EXTENSIBLE with the format's subformat GUID."""
    bits, align = 8 * dtype.itemsize, channels * dtype.itemsize
    form = rng.integers(3)
    outer = dsp.WAVE_FORMAT_EXTENSIBLE if form == 2 else tag
    body = struct.pack("<HHIIHH", outer, channels, rate, rate * align, align, bits)
    if form == 1:
        body += struct.pack("<H", 0)
    elif form == 2:
        body += struct.pack("<HHIH", 22, bits, (1 << channels) - 1, tag) + dsp._KSDATAFORMAT_TAIL
    return _chunk(b"fmt ", body)


def _extra_chunks(rng):
    """0-2 chunks of 0-9 random bytes (odd sizes get their pad byte)."""
    return [_chunk(_EXTRA_TAGS[rng.integers(len(_EXTRA_TAGS))],
                   rng.integers(0, 256, rng.integers(0, 10)).astype(np.uint8).tobytes())
            for _ in range(rng.integers(3))]


def test_read_wav_matches_scipy_on_seeded_valid_files(tmp_path):
    """Seeded valid files against scipy.io.wavfile.read plus the same
    channel mean, bit for bit: every sample format, plain and
    WAVE_FORMAT_EXTENSIBLE, 1-4 channels, 0-40 frames, and extra chunks
    before fmt, between fmt and data, and after data.

    Intended differences, not generated here: read_wav warns when it
    downmixes (scipy returns the channels), and it refuses non-finite float
    samples, which scipy returns, because an AudioBuffer holds finite
    samples only (checked at the end)."""
    rng = np.random.default_rng(91)
    kinds, shapes = set(), set()
    for i in range(120):
        tag, dtype = _WAV_FORMATS[rng.integers(3)]
        channels = int(rng.integers(1, 5))
        frames = 0 if i % 8 == 0 else int(rng.integers(1, 41))
        rate = int(rng.choice([8000, 22050, 44100, 48000, 96000]))
        data = _random_samples(rng, dtype, frames, channels)
        fmt = _random_fmt(rng, tag, dtype, channels, rate)
        chunks = [*_extra_chunks(rng), fmt, *_extra_chunks(rng),
                  _chunk(b"data", data.tobytes()), *_extra_chunks(rng)]
        p = tmp_path / f"{i}.wav"
        p.write_bytes(_wave(*chunks))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # downmix and unknown-chunk warnings
            buf = read_wav(p)
            rate_want, want = _scipy_mono(p)
        assert buf.sample_rate == rate_want == rate
        assert buf.samples.dtype == want.dtype and buf.samples.tobytes() == want.tobytes(), i
        kinds.add((dtype.str, fmt[8:10] == b"\xfe\xff"))
        shapes.add((channels, frames % 2, frames == 0))
    # every (format, extensible) pair; every channel count at odd, even and 0 frames
    assert len(kinds) == 6 and len(shapes) == 12
    bad = np.array([0.5, np.nan, np.inf, 0.0], dtype="<f4")
    p = tmp_path / "nonfinite.wav"
    p.write_bytes(_wave(_fmt(), _chunk(b"data", bad.tobytes())))
    assert np.isnan(_scipy_mono(p)[1][1])
    with pytest.raises(FileFormatError, match="nonfinite.wav: audio samples must be finite"):
        read_wav(p)


_DATA = _chunk(b"data", _SAMPLES.tobytes())


@pytest.mark.parametrize(
    "raw, why",
    [
        pytest.param(_wave(_fmt(), _chunk(b"data", _SAMPLES.tobytes(), 0xFFFFFFFF)),
                     "runs past the end", id="data-size-4GiB"),
        pytest.param(_wave(_fmt(size=0xFFFFFFFF), _DATA), "runs past the end",
                     id="fmt-size-4GiB"),
        pytest.param(_wave(_DATA, _fmt()), "data chunk before fmt chunk", id="data-before-fmt"),
        pytest.param(_wave(_fmt(channels=0), _DATA), "0 channels", id="zero-channels"),
        pytest.param(_wave(_fmt(block_align=8), _DATA), "block align 8", id="block-align"),
        pytest.param(_wave(_fmt(), _DATA, magic=b"RIFX"), "not a RIFF/WAVE file", id="rifx"),
        pytest.param(_wave(_fmt(bits=24), _DATA), "unsupported WAV sample format",
                     id="float24"),
        pytest.param(_wave(_fmt()), "no data chunk", id="no-data"),
        pytest.param(_wave(_fmt(rate=0), _DATA), "sample_rate must be positive", id="zero-rate"),
    ],
)
def test_read_wav_refuses_malformed_files(raw, why, tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(raw)
    with pytest.raises(FileFormatError, match=why):
        read_wav(p)


def test_audio_buffer_validation():
    with pytest.raises(DomainError):
        AudioBuffer(np.array([np.nan, 0.0]), SR)
    with pytest.raises(DomainError):
        AudioBuffer(np.zeros((2, 3)), SR)
    with pytest.raises(DomainError):
        AudioBuffer(np.zeros(4), 0)


def test_spectrogram_shape_validation():
    with pytest.raises(DomainError):
        ComplexSpectrogram(np.zeros((3, 480), dtype=complex), CFG)
