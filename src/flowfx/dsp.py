"""STFT analysis/synthesis, mel filterbanks, the log-spectral L1 distance, the
complex-coefficient head, a synthetic multi-partial test-signal generator, and
WAV file I/O (a RIFF reader and writer on ``struct`` and numpy).

All operations are pure functions over float64 arrays.  The STFT uses a
periodic Hann window with reflect padding of ``n_fft // 2`` on each side and
window-square-normalized overlap-add on the way back, which makes
``istft(stft(x))`` exact to roundoff on the interior of the signal.

One iterator, ``_spectra``, windows and transforms the analysis frames a
block of ``SPECTRAL_BLOCK_SAMPLES`` windowed samples at a time, into block
buffers it allocates when it is called, on the calling thread.  ``stft``
copies its blocks into the whole spectrogram, ``codec_roundtrip`` maps each
through the head and back into the overlap-add that ``istft`` runs, and
``spectral_l1`` rectifies each into its magnitudes.  Analysis is
frame-local and each block's rfft writes its rows with the bits of one
whole-signal rfft, so every path has the whole-signal bits.  On long inputs
the codec holds under 4x the float64 signal, so ``mel_dist``'s
``spectral_l1`` sets the ``codec`` command's memory peak.

Two per-process caches keep the STFT cheap without changing any bit: the
Hann window per ``n_fft`` (``hann_window``) and the filterbank weights per
``(n_mels, n_fft, sample_rate)`` behind ``mel_filterbank``.  They belong to
the process, not to a caller or a thread: every caller in every thread gets
the same read-only arrays (``flags.writeable`` is False), so no caller can
corrupt a shared entry, and ``functools.lru_cache`` makes the lookups safe
across threads.  An entry lasts until 32 newer keys push it out; an array
already handed out stays valid for as long as its holder keeps it.

``spectral_l1`` may compute the second side of a pair on the worker of a
``host.pair``.  Every array that side writes (padded copy, ``_spectra``'s
block buffers, magnitudes, output) and the cached window and filterbank are
made on the calling thread before the worker starts; the worker only fills
them.  glibc gives each thread its own malloc arena and keeps what is freed
there, so a worker that allocated its own arrays would leave the process
holding that memory after the call.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import host
from .errors import DomainError, FileFormatError
from .fileio import write_atomic

MEL_LOG_FLOOR = 1e-5
HEAD_MAG_FLOOR = 1e-30
OLA_DENOM_FLOOR = 1e-12

# _spectra windows and transforms this many samples per rfft block;
# spectral_l1 runs its two sides on two threads when a side windows at least
# SPECTRAL_PARALLEL_MIN_SAMPLES of them (frames x n_fft).
SPECTRAL_BLOCK_SAMPLES = 1 << 15
SPECTRAL_PARALLEL_MIN_SAMPLES = 1 << 16


def _as_samples(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"expected a mono sample vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("audio samples must be finite")
    return arr


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: a sample vector plus its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_samples(self.samples))
        if int(self.sample_rate) <= 0:
            raise DomainError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))


@dataclass(frozen=True)
class StftConfig:
    """STFT geometry. Defaults follow the 48 kHz codec setting (960/480)."""

    n_fft: int = 960
    hop: int = 480

    def __post_init__(self):
        if self.n_fft <= 0 or self.hop <= 0:
            raise DomainError("n_fft and hop must be positive")
        # hop <= n_fft/2 guarantees full frame coverage of the padded signal,
        # which together with window-square normalization makes the
        # overlap-add inverse exact.
        if 2 * self.hop > self.n_fft:
            raise DomainError(
                f"hop={self.hop} with n_fft={self.n_fft} breaks overlap-add "
                "reconstruction (need hop <= n_fft/2)"
            )

    @property
    def bins(self) -> int:
        return self.n_fft // 2 + 1


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=32)
def hann_window(n_fft: int) -> np.ndarray:
    """Periodic Hann window of length ``n_fft``, cached and read-only."""
    return _read_only(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft))


@dataclass(frozen=True)
class ComplexSpectrogram:
    """frames x (n_fft/2 + 1) complex STFT coefficients plus their geometry."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[1] != self.config.bins:
            raise DomainError(
                f"spectrogram shape {arr.shape} inconsistent with "
                f"n_fft={self.config.n_fft} (expected {self.config.bins} bins)"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("spectrogram entries must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def frames(self) -> int:
        return self.data.shape[0]


def stft(audio: AudioBuffer, config: StftConfig = StftConfig()) -> ComplexSpectrogram:
    """Short-time Fourier transform.

    The signal is reflect-padded by ``n_fft // 2`` on each side and cut into
    ``ceil(len / hop)`` frames of length ``n_fft`` spaced ``hop`` apart; each
    frame is Hann-windowed and transformed with a real FFT, one ``_spectra``
    block at a time.
    """
    frames = _frames(audio.samples, config)
    spec = np.empty((len(frames), config.bins), dtype=np.complex128)
    for start, rows in _spectra(frames, config):
        spec[start : start + len(rows)] = rows
    return ComplexSpectrogram(spec, config)


def _frames(x: np.ndarray, config: StftConfig) -> np.ndarray:
    """The analysis frames of ``x``: a (ceil(len(x) / hop), n_fft) strided
    view of one copy of ``x`` reflect-padded by ``n_fft // 2`` on each side,
    its frames ``hop`` samples apart.  Empty audio has no frames and is
    refused."""
    if len(x) == 0:
        raise DomainError("cannot transform empty audio")
    n_fft = config.n_fft
    # a one-sample signal reflects into the constant vector
    padded = np.pad(x, n_fft // 2, mode="reflect")
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_fft)
    return windows[::config.hop][: -(-len(x) // config.hop)]


def _spectra(frames: np.ndarray, config: StftConfig):
    """An iterator of ``(first frame, rows)`` over ``frames``, where ``rows``
    is the windowed rfft of the next block of frames: as many as window
    SPECTRAL_BLOCK_SAMPLES samples, at least one and at most all of them.
    The one analysis loop of ``stft``, ``codec_roundtrip`` and
    ``spectral_l1``.

    The window and the block buffers are allocated by this call, on the
    calling thread (it returns a ``map``, not a generator whose body would
    first run where it is drawn), and every block is written into the same
    buffers, so a block's rows hold only until the next block is drawn."""
    n_fft, n_frames = config.n_fft, len(frames)
    block = min(n_frames, max(1, SPECTRAL_BLOCK_SAMPLES // n_fft))
    window = hann_window(n_fft)
    segments = np.empty((block, n_fft))
    spec = np.empty((block, config.bins), dtype=np.complex128)

    def analyse(start: int) -> tuple[int, np.ndarray]:
        rows = frames[start : start + block]
        m = len(rows)
        np.multiply(rows, window, out=segments[:m])
        return start, np.fft.rfft(segments[:m], axis=1, out=spec[:m])

    return map(analyse, range(0, n_frames, block))


def _overlap_add(blocks, n_frames: int, config: StftConfig, length: int) -> np.ndarray:
    """Windowed overlap-add with window-square normalization of the
    ``n_frames`` spectrogram rows that ``blocks`` yields in order, a block
    at a time; ``length`` samples after the analysis padding are returned.
    Frames are added in frame order, so the sums do not depend on the block
    size, and the normalization runs in place."""
    n_fft, hop = config.n_fft, config.hop
    w = hann_window(n_fft)
    w2 = w * w
    total = (n_frames - 1) * hop + n_fft
    num = np.zeros(total)
    den = np.zeros(total)
    start = 0
    for coeffs in blocks:
        segments = np.fft.irfft(coeffs, n=n_fft, axis=1)
        segments *= w
        for segment in segments:
            num[start : start + n_fft] += segment
            den[start : start + n_fft] += w2
            start += hop
    np.maximum(den, OLA_DENOM_FLOOR, out=den)
    np.divide(num, den, out=num)
    pad = n_fft // 2
    return num[pad : pad + length]


def istft(spec: ComplexSpectrogram, length: int) -> np.ndarray:
    """Inverse STFT by windowed overlap-add with window-square normalization.

    ``length`` is how many samples to return after trimming the analysis
    padding, at most ``frames * hop``; callers pass the length of the signal
    they analysed.  Returns the raw sample vector (callers attach the sample
    rate).
    """
    frames, hop = spec.frames, spec.config.hop
    if frames == 0:
        raise DomainError("cannot invert an empty spectrogram")
    if length <= 0 or length > frames * hop:
        raise DomainError(
            f"length {length} not representable by {frames} frames of hop {hop}"
        )
    return _overlap_add([spec.data], frames, spec.config, length)


@dataclass(frozen=True)
class HeadOutput:
    """Codec head pre-activations: log-magnitude ``m`` and raw real/imag parts."""

    m: np.ndarray
    x_raw: np.ndarray
    y_raw: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        xr = np.asarray(self.x_raw, dtype=np.float64)
        yr = np.asarray(self.y_raw, dtype=np.float64)
        if not (m.shape == xr.shape == yr.shape):
            raise DomainError("head fields must share one shape")
        for arr in (m, xr, yr):
            if not np.all(np.isfinite(arr)):
                raise DomainError("head fields must be finite")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "x_raw", xr)
        object.__setattr__(self, "y_raw", yr)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def head_to_complex(h: HeadOutput) -> np.ndarray:
    """Turn head pre-activations into an array of complex STFT coefficients
    of h's shape.

    The magnitude is ``softplus(m)``; the phase direction is the unit vector
    of ``(x_raw, y_raw)``, so any positive scaling of the raw pair leaves the
    coefficient unchanged and no phase wrapping can occur.  The degenerate
    all-zero raw pair maps to phase 0.
    """
    mag = softplus(h.m)
    norm = np.hypot(h.x_raw, h.y_raw)
    safe = np.where(norm == 0.0, 1.0, norm)
    cos = np.where(norm == 0.0, 1.0, h.x_raw / safe)
    sin = np.where(norm == 0.0, 0.0, h.y_raw / safe)
    return mag * cos + 1j * (mag * sin)


def complex_to_head(spec: ComplexSpectrogram) -> HeadOutput:
    """Inverse of ``head_to_complex`` up to the softplus floor.

    Magnitudes below ``HEAD_MAG_FLOOR`` are clamped before inverting softplus
    so silent bins stay finite.
    """
    mag = np.maximum(np.abs(spec.data), HEAD_MAG_FLOOR)
    # inverse softplus: m = mag + log(1 - exp(-mag)); the expm1 form stays
    # finite even when mag rounds exp(-mag) to exactly 1
    m = mag + np.log(-np.expm1(-mag))
    return HeadOutput(m=m, x_raw=spec.data.real, y_raw=spec.data.imag)


def codec_roundtrip(audio: AudioBuffer, config: StftConfig = StftConfig()) -> np.ndarray:
    """The bits of ``istft(ComplexSpectrogram(head_to_complex(
    complex_to_head(stft(audio)))), len(audio.samples))``, one ``_spectra``
    block at a time: each block is mapped to the head and back and
    overlap-added before the next is analysed into the same buffers.
    Besides a block's arrays it holds the padded signal and the overlap-add
    sums.  A non-finite spectrum is refused as ``stft`` refuses it."""
    frames = _frames(audio.samples, config)
    coeffs = (head_to_complex(complex_to_head(ComplexSpectrogram(rows, config)))
              for _, rows in _spectra(frames, config))
    return _overlap_add(coeffs, len(frames), config, len(audio.samples))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filters: an ``n_mels x bins`` nonnegative weight matrix."""

    weights: np.ndarray
    n_mels: int
    sample_rate: int


def mel_filterbank(
    n_mels: int, config: StftConfig, sample_rate: int
) -> MelFilterbank:
    """Build triangular filters with centers equally spaced on the mel scale
    from 0 Hz to Nyquist.  Filter heights are un-normalized (peak 1).

    A filter too narrow to touch any FFT bin gets the bin nearest its center
    set to 1 so every row stays nonzero.  The bank is cached per
    ``(n_mels, n_fft, sample_rate)`` (the hop does not enter the weights) and
    its weights are read-only.
    """
    if n_mels < 1:
        raise DomainError("n_mels must be >= 1")
    bins = config.bins
    if n_mels > bins:
        raise DomainError(f"n_mels={n_mels} exceeds {bins} FFT bins")
    if not sample_rate > 0:
        raise DomainError(f"sample_rate must be positive, got {sample_rate}")
    return _mel_filterbank(n_mels, config.n_fft, sample_rate)


@lru_cache(maxsize=32)
def _mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> MelFilterbank:
    bins = n_fft // 2 + 1
    mel_pts = np.linspace(0.0, float(hz_to_mel(sample_rate / 2)), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    freqs = np.arange(bins) * (sample_rate / n_fft)
    lower, center, upper = hz_pts[:-2], hz_pts[1:-1], hz_pts[2:]
    up = (freqs[None, :] - lower[:, None]) / np.maximum(center - lower, 1e-12)[:, None]
    down = (upper[:, None] - freqs[None, :]) / np.maximum(upper - center, 1e-12)[:, None]
    weights = np.maximum(0.0, np.minimum(up, down))
    empty = ~np.any(weights > 0.0, axis=1)
    if np.any(empty):
        nearest = np.argmin(np.abs(freqs[None, :] - center[:, None]), axis=1)
        weights[empty, nearest[empty]] = 1.0
    return MelFilterbank(_read_only(weights), n_mels, int(sample_rate))


def _log_spectrogram(frames: np.ndarray, config: StftConfig, weights):
    """The routine that computes one side of ``spectral_l1`` from its
    ``_frames``: ``log(max(|stft| . weights.T, MEL_LOG_FLOOR))``, or the
    floored log-magnitude when ``weights`` is None.

    Every array the routine writes is allocated on the calling thread
    before it runs: the padded signal (by ``_frames``), ``_spectra``'s block
    buffers (by calling it here), the frames x bins magnitudes and the
    frames x bands output.  The routine rectifies each ``_spectra`` block
    into the magnitudes, runs the filterbank product once over all frames
    (so its bits are those of one gemm), then floors and logs in place.
    """
    mags = np.empty((len(frames), config.bins))
    out = mags if weights is None else np.empty((len(frames), len(weights)))
    blocks = _spectra(frames, config)

    def run() -> np.ndarray:
        for start, rows in blocks:
            np.abs(rows, out=mags[start : start + len(rows)])
        # magnitudes are >= 0, so their max is finite only when every one is
        if not np.isfinite(mags.max()):
            raise DomainError("spectrogram entries must be finite")
        if weights is not None:
            np.matmul(mags, weights.T, out=out)
        np.maximum(out, MEL_LOG_FLOOR, out=out)
        return np.log(out, out=out)

    return run


def check_pair(a: AudioBuffer, b: AudioBuffer) -> None:
    """Refuse a pair recorded at two sample rates, then one of two lengths."""
    if a.sample_rate != b.sample_rate:
        raise DomainError("sample rates differ")
    if len(a.samples) != len(b.samples):
        raise DomainError(f"lengths differ: {len(a.samples)} vs {len(b.samples)} samples")


def spectral_l1(
    a: AudioBuffer, b: AudioBuffer, config: StftConfig, n_mels: int | None = None
) -> float:
    """Mean absolute difference between the log spectrograms of a pair at one
    STFT geometry: ``log(max(fb . |stft|, MEL_LOG_FLOOR))`` over ``n_mels``
    mel bands when given, else the floored log-magnitude.

    When a side windows at least SPECTRAL_PARALLEL_MIN_SAMPLES samples
    (frames x n_fft), the two sides run through ``host.pair``.
    """
    check_pair(a, b)
    frames_a, frames_b = (_frames(x.samples, config) for x in (a, b))
    weights = None if n_mels is None else mel_filterbank(n_mels, config, a.sample_rate).weights
    side_a, side_b = (_log_spectrogram(f, config, weights) for f in (frames_a, frames_b))
    windowed = frames_a.size
    with host.pair("flowfx-spectral", windowed >= SPECTRAL_PARALLEL_MIN_SAMPLES) as both:
        la, lb = both(side_a, side_b)
    np.subtract(la, lb, out=la)
    return float(np.mean(np.abs(la, out=la)))


def synth_signal(seed: int, duration: float, sample_rate: int = 48000) -> AudioBuffer:
    """Deterministic multi-partial test signal.

    Mixes 1-3 components; each component carries up to 20 sinusoidal
    partials with a piecewise-linear interpolated pitch trajectory, a random
    spectral envelope, and per-partial harmonic deviation.  The mix is
    peak-normalized to 0.9.  Useful for exciting the full frequency range in
    codec and loss tests without any audio assets.
    """
    if duration <= 0:
        raise DomainError("duration must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    mix = np.zeros(n)
    n_components = int(rng.integers(1, 4))
    for _ in range(n_components):
        n_partials = int(rng.integers(1, 21))
        n_knots = int(rng.integers(2, 6))
        f0_base = float(np.exp(rng.uniform(np.log(40.0), np.log(1000.0))))
        knots = f0_base * 2.0 ** rng.uniform(-0.5, 0.5, size=n_knots)
        t_knots = np.linspace(0.0, n - 1, n_knots)
        f0 = np.interp(np.arange(n), t_knots, knots)
        base_phase = 2.0 * np.pi * np.cumsum(f0) / sample_rate
        env_slope = rng.uniform(0.5, 2.0)
        deviation = rng.uniform(0.0, 0.03)
        component = np.zeros(n)
        for p in range(1, n_partials + 1):
            ratio = p * (1.0 + deviation * rng.standard_normal())
            gain = rng.uniform(0.2, 1.0) / p**env_slope
            phase0 = rng.uniform(0.0, 2.0 * np.pi)
            if ratio <= 0 or np.max(f0) * ratio > 0.95 * sample_rate / 2:
                continue
            component += gain * np.sin(base_phase * ratio + phase0)
        mix += rng.uniform(0.3, 1.0) * component
    peak = np.max(np.abs(mix))
    if peak > 0:
        mix *= 0.9 / peak
    return AudioBuffer(mix, sample_rate)


# WAV sample formats read_wav accepts: (format tag, bits per sample) -> dtype
WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT, WAVE_FORMAT_EXTENSIBLE = 1, 3, 0xFFFE
_WAV_DTYPES = {(WAVE_FORMAT_PCM, 16): np.dtype("<i2"),
               (WAVE_FORMAT_IEEE_FLOAT, 32): np.dtype("<f4"),
               (WAVE_FORMAT_IEEE_FLOAT, 64): np.dtype("<f8")}
# bytes 2-15 of every WAVE_FORMAT_EXTENSIBLE subformat GUID; 0-1 hold the tag
_KSDATAFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# what write_wav puts before the samples: RIFF header, fmt, fact, data header
_WAV_HEADER = struct.Struct("<4sI4s4sIHHIIHHH4sII4sI")


def _parse_fmt(path, fmt: bytes, offset: int) -> tuple[np.dtype, int, int]:
    """(sample dtype, channels, sample rate) of a ``fmt `` chunk body."""
    if len(fmt) < 16:
        raise FileFormatError(path, f"fmt chunk of {len(fmt)} bytes is too short", offset)
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 40 or fmt[26:40] != _KSDATAFORMAT_TAIL:
            raise FileFormatError(path, "WAVE_FORMAT_EXTENSIBLE without a known subformat",
                                  offset)
        tag = struct.unpack_from("<H", fmt, 24)[0]
    dtype = _WAV_DTYPES.get((tag, bits))
    if dtype is None:
        raise FileFormatError(
            path, f"unsupported WAV sample format (tag {tag}, {bits} bits; "
            "expected 16-bit PCM or 32/64-bit float)", offset)
    if channels == 0 or block_align != channels * dtype.itemsize:
        raise FileFormatError(
            path, f"block align {block_align} does not fit {channels} channels of "
            f"{bits} bits", offset)
    return dtype, channels, rate


def read_wav(path) -> AudioBuffer:
    """Read a 16-bit PCM or 32/64-bit float WAV file (plain or
    WAVE_FORMAT_EXTENSIBLE) as mono float64.

    Chunks other than ``fmt `` and ``data`` are skipped.  A chunk whose size
    runs past the end of the file is refused before anything is allocated.
    Multichannel input is downmixed by channel averaging (with a warning).
    Non-finite samples and a zero sample rate are refused as malformed.
    The sample rate is taken as-is; no resampling happens anywhere in the
    toolkit.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        riff = fh.read(12)
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise FileFormatError(path, "not a RIFF/WAVE file (little-endian RIFF expected)")
        fmt = None
        while True:
            offset = fh.tell()
            head = fh.read(8)
            if len(head) < 8:
                raise FileFormatError(path, "no data chunk", offset)
            tag, n = struct.unpack("<4sI", head)
            if n > size - offset - 8:
                raise FileFormatError(
                    path, f"{tag!r} chunk of {n} bytes runs past the end of the file", offset)
            if tag == b"data":
                break
            if tag == b"fmt ":
                fmt = _parse_fmt(path, fh.read(n), offset)
                fh.seek(n & 1, os.SEEK_CUR)
            else:
                fh.seek(n + (n & 1), os.SEEK_CUR)
        if fmt is None:
            raise FileFormatError(path, "data chunk before fmt chunk", offset)
        dtype, channels, rate = fmt
        frames = n // (channels * dtype.itemsize)
        data = np.fromfile(fh, dtype=dtype, count=frames * channels)
    samples = data.astype(np.float64)
    if dtype.kind == "i":
        samples /= 32768.0
    if channels > 1:
        warnings.warn(f"{path}: downmixing {channels} channels to mono")
        samples = samples.reshape(frames, channels).mean(axis=1)
    try:
        return AudioBuffer(samples, rate)
    except DomainError as exc:  # non-finite samples or a zero rate
        raise FileFormatError(path, str(exc)) from exc


def _wave_bytes(audio: AudioBuffer) -> bytes:
    """``audio`` as a 32-bit float WAV file: an 18-byte ``fmt `` chunk
    (format 3, cbSize 0), a ``fact`` chunk holding the sample count, then
    ``data``."""
    data = audio.samples.astype("<f4")
    rate = audio.sample_rate
    header = _WAV_HEADER.pack(b"RIFF", _WAV_HEADER.size - 8 + data.nbytes, b"WAVE",
                              b"fmt ", 18, WAVE_FORMAT_IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0,
                              b"fact", 4, len(data), b"data", data.nbytes)
    return header + data.tobytes()


def write_wav(path, audio: AudioBuffer) -> None:
    """Write mono audio as a 32-bit float WAV, atomically.  Audio whose size
    or byte rate overflows a 32-bit header field is refused before anything
    is written."""
    n, rate = len(audio.samples), audio.sample_rate
    if _WAV_HEADER.size - 8 + 4 * n > 0xFFFFFFFF or 4 * rate > 0xFFFFFFFF:
        raise DomainError(f"{n} samples at {rate} Hz do not fit a WAV file")
    write_atomic(path, _wave_bytes(audio))
