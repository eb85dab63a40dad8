"""Evaluation metrics: SI-SDR, mel/STFT spectral distances (both
``dsp.spectral_l1`` at a fixed geometry), Gaussian Fréchet distance, softmax
KL divergence, paired cosine score, retrieval recall@k, and the CSV formats
that carry embeddings and metric reports, all written by ``write_csv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import AudioBuffer, StftConfig, check_pair, spectral_l1
from .errors import DomainError, FileFormatError
from .fileio import write_atomic

SDR_CAP_DB = 100.0
KL_EPS = 1e-10
MEL_DIST_CONFIG = StftConfig(n_fft=2048, hop=512)
MEL_DIST_BANDS = 128
STFT_DIST_CONFIG = StftConfig(n_fft=512, hop=128)


@dataclass(frozen=True)
class EmbeddingSet:
    """N x D finite embedding rows."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise DomainError(f"embeddings must be 2-D, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise DomainError("embeddings must be finite")
        object.__setattr__(self, "rows", rows)


def si_sdr(reference: AudioBuffer, estimate: AudioBuffer) -> float:
    """Scale-invariant signal-to-distortion ratio in dB, capped to +/-100.

    The reference is rescaled by alpha = <estimate, reference> / ||reference||^2
    before comparing, so any positive rescaling of a faithful estimate scores
    identically.  A side whose squares sum to 0 (silence, or samples whose
    squares underflow) scores the floor, -SDR_CAP_DB, even on a silent pair.
    """
    check_pair(reference, estimate)
    s = reference.samples
    s_hat = estimate.samples
    # numpy's own reductions, not BLAS dots, whose sums depend on the thread count
    denom = float(np.sum(s * s))
    if denom == 0.0:
        return -SDR_CAP_DB
    alpha = float(np.sum(s_hat * s)) / denom
    target = alpha * s
    signal = float(np.sum(target * target))
    err = target - s_hat
    noise = float(np.sum(err * err))
    if signal == 0.0:
        return -SDR_CAP_DB
    if noise == 0.0:
        return SDR_CAP_DB
    return float(np.clip(10.0 * np.log10(signal / noise), -SDR_CAP_DB, SDR_CAP_DB))


def mel_dist(a: AudioBuffer, b: AudioBuffer) -> float:
    """Mean absolute difference between 128-band log-mel spectrograms
    (FFT 2048, hop 512)."""
    return spectral_l1(a, b, MEL_DIST_CONFIG, MEL_DIST_BANDS)


def stft_dist(a: AudioBuffer, b: AudioBuffer) -> float:
    """Mean absolute difference between log-magnitude spectrograms
    (FFT 512, hop 128)."""
    return spectral_l1(a, b, STFT_DIST_CONFIG)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.maximum(vals, 0.0)  # clamp tiny negative roundoff
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_from_stats(mu1, cov1, mu2, cov2) -> float:
    """Gaussian Frechet distance ||mu1-mu2||^2 + Tr(C1 + C2 - 2 (C1 C2)^1/2).

    The matrix square root uses the symmetric form sqrt(S1 C2 S1) with
    S1 = C1^1/2, which keeps everything in eigh territory; an eigh that does
    not converge is a DomainError naming the metric.
    """
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu2 = np.asarray(mu2, dtype=np.float64)
    cov1 = np.asarray(cov1, dtype=np.float64)
    cov2 = np.asarray(cov2, dtype=np.float64)
    if mu1.shape != mu2.shape or cov1.shape != cov2.shape:
        raise DomainError("statistic shapes differ")
    try:
        s1 = _psd_sqrt(cov1)
        inner = s1 @ cov2 @ s1
        inner = (inner + inner.T) / 2.0
        vals = np.linalg.eigh(inner)[0]
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"frechet: {exc}") from exc
    vals = np.maximum(vals, 0.0)
    diff = mu1 - mu2
    dist = float(diff @ diff + np.trace(cov1) + np.trace(cov2) - 2.0 * np.sum(np.sqrt(vals)))
    # identical statistics can land a hair below zero through cancellation
    return max(dist, 0.0)


def frechet_distance(x: EmbeddingSet, y: EmbeddingSet) -> float:
    """Frechet distance between the Gaussian fits of two embedding sets.

    Sample covariances use ddof=1; when a set has no more rows than
    dimensions, a 1e-6 ridge keeps the covariance well-posed.
    """
    xr, yr = x.rows, y.rows
    if xr.shape[1] != yr.shape[1]:
        raise DomainError("embedding dimensions differ")
    if xr.shape[0] < 2 or yr.shape[0] < 2:
        raise DomainError("need at least 2 rows per set for covariance")
    d = xr.shape[1]
    stats = []
    for rows in (xr, yr):
        mu = rows.mean(axis=0)
        cov = np.atleast_2d(np.cov(rows, rowvar=False, ddof=1))
        if rows.shape[0] <= d:
            cov = cov + 1e-6 * np.eye(d)
        stats.append((mu, cov))
    return frechet_from_stats(stats[0][0], stats[0][1], stats[1][0], stats[1][1])


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    mx = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - mx)
    return e / e.sum(axis=1, keepdims=True)


def kl_divergence(p_logits, q_logits) -> float:
    """KL(softmax(p) || softmax(q)), averaged over rows when batched.

    Both probabilities are floored by 1e-10 inside the logs; entries where
    p is exactly zero contribute nothing.
    """
    p = np.atleast_2d(np.asarray(p_logits, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q_logits, dtype=np.float64))
    if p.shape != q.shape:
        raise DomainError(f"logit shapes differ: {p.shape} vs {q.shape}")
    pp = _softmax_rows(p)
    qq = _softmax_rows(q)
    terms = np.where(
        pp > 0.0,
        pp * (np.log(np.maximum(pp, KL_EPS)) - np.log(np.maximum(qq, KL_EPS))),
        0.0,
    )
    return float(np.mean(terms.sum(axis=1)))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm; a zero row has no direction and is refused."""
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise DomainError("zero-norm embedding row has no direction")
    return norms


def clap_score(text_emb: EmbeddingSet, audio_emb: EmbeddingSet) -> float:
    """Mean cosine similarity between matched (same-index) rows."""
    t, a = text_emb.rows, audio_emb.rows
    if t.shape != a.shape:
        raise DomainError("embedding sets must share a shape")
    return float(np.mean(np.sum(t * a, axis=1) / (_row_norms(t) * _row_norms(a))))


def cosine_similarity_matrix(text_emb: EmbeddingSet, audio_emb: EmbeddingSet) -> np.ndarray:
    t, a = text_emb.rows, audio_emb.rows
    if t.shape[1] != a.shape[1]:
        raise DomainError("embedding dimensions differ")
    return (t / _row_norms(t)[:, None]) @ (a / _row_norms(a)[:, None]).T


def recall_at_k(sim: np.ndarray, k: int):
    """Retrieval recall: fraction of queries whose true match (the diagonal)
    ranks within the top k, ties broken toward the lower index.

    Rows are text queries over audio candidates (t2a); columns give the
    audio-to-text direction.  Returns (t2a, a2t).  A non-finite entry is
    rejected: NaN has no place in the ranking.
    """
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise DomainError(f"similarity matrix must be square, got {sim.shape}")
    n = sim.shape[0]
    if not (1 <= k <= n):
        raise DomainError(f"k={k} out of range for {n} candidates")
    if not np.all(np.isfinite(sim)):
        raise DomainError("similarity matrix must be finite")

    def direction(mat):
        # rank of the diagonal under a stable descending sort: the entries
        # above it plus its lower-index ties, which only a row whose
        # diagonal is tied needs counted; one n x n mask is alive at a time
        diag = np.diagonal(mat)
        rank = np.count_nonzero(mat > diag[:, None], axis=1)
        tied = np.count_nonzero(mat == diag[:, None], axis=1) > 1
        for i in np.flatnonzero(tied):
            rank[i] += np.count_nonzero(mat[i, :i] == diag[i])
        return int(np.count_nonzero(rank < k)) / n

    return direction(sim), direction(sim.T)


def write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV, atomically and in one piece.  Floats
    (np.float64 too) go through ``repr(float(v))`` so the bytes are stable,
    None is an empty cell and anything else is ``str(v)``; cells are joined
    by commas and lines end in CRLF.  No cell a command writes needs
    quoting, so the bytes are ``csv.writer``'s."""
    lines = [
        ",".join(["" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
                  for v in row])
        for row in [header, *rows]
    ]
    lines.append("")
    write_atomic(path, "\r\n".join(lines).encode())


def write_embedding_csv(path, emb: EmbeddingSet) -> None:
    """Write rows as `id,dim0..dimN`; the id column holds the row index."""
    header = ["id", *(f"dim{j}" for j in range(emb.rows.shape[1]))]
    write_csv(path, header, ((i, *row) for i, row in enumerate(emb.rows.tolist())))


def _csv_float(text) -> float:
    """float(text), without the digit-group underscores and the non-ASCII
    digits (such as "１" or "١") that Python's float takes."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _header_fields(fh) -> list:
    """The comma-separated fields of the line ``fh`` (binary) is at."""
    return fh.readline().decode("utf-8", errors="replace").strip().split(",")


def is_embedding_csv(path) -> bool:
    """True when the header starts ``id,dim0``: other CSV artifacts (reports,
    NFE tables) are passed over, and a malformed embedding header is claimed
    for read_embedding_csv to refuse.  A file that cannot be opened raises,
    so it is never dropped unread."""
    with open(path, "rb") as fh:
        return _header_fields(fh)[:2] == ["id", "dim0"]


def read_embedding_csv(path) -> EmbeddingSet:
    """Parse an `id,dim0..dimN` CSV into its rows; the id column is not
    kept.  Malformed content reports the byte offset of the offending line;
    a non-finite cell is refused with the file's path."""
    rows = []
    with open(path, "rb") as fh:
        offset = fh.tell()
        fields = _header_fields(fh)
        if len(fields) < 2 or fields[0] != "id":
            raise FileFormatError(path, "expected header id,dim0..dimN", offset=offset)
        dim = len(fields) - 1
        if fields[1:] != [f"dim{j}" for j in range(dim)]:
            raise FileFormatError(path, "dimension columns must be dim0..dimN", offset=offset)
        while True:
            offset = fh.tell()
            line = fh.readline()
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != dim + 1:
                raise FileFormatError(
                    path, f"expected {dim + 1} fields, got {len(parts)}", offset=offset
                )
            try:
                rows.append([_csv_float(v) for v in parts[1:]])
            except ValueError as exc:
                raise FileFormatError(path, f"bad number: {exc}", offset=offset) from exc
    if not rows:
        raise FileFormatError(path, "no embedding rows")
    try:
        return EmbeddingSet(np.array(rows, dtype=np.float64))
    except DomainError as exc:  # a non-finite cell
        raise FileFormatError(path, str(exc)) from exc


def write_report_csv(path, entries) -> None:
    """Write `metric,value,n_items` rows; a non-finite value is refused."""
    rows = [(metric, float(value), int(n_items)) for metric, value, n_items in entries]
    for metric, value, _ in rows:
        if not np.isfinite(value):
            raise DomainError(f"{metric} is not finite: {value!r}")
    write_csv(path, ["metric", "value", "n_items"], rows)

