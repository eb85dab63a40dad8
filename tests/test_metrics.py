"""Metric-layer tests.

Hand-checkable fixtures are frozen as literals (SI-SDR 0 dB case, softmax KL
of (0, ln 3) against uniform, diagonal-covariance Fréchet distances); the
retrieval metric is cross-checked against a brute-force sort oracle.
"""

import csv
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flowfx.dsp import AudioBuffer, StftConfig, mel_filterbank, stft, synth_signal
from flowfx.errors import DomainError, FileFormatError
from flowfx.metrics import (
    SDR_CAP_DB,
    EmbeddingSet,
    clap_score,
    cosine_similarity_matrix,
    frechet_distance,
    frechet_from_stats,
    kl_divergence,
    mel_dist,
    read_embedding_csv,
    recall_at_k,
    si_sdr,
    stft_dist,
    write_csv,
    write_embedding_csv,
    write_report_csv,
)

from oracles import log_mel

RATE = 48000


def _buf(x):
    return AudioBuffer(np.asarray(x, dtype=np.float64), RATE)


class TestSiSdr:
    def test_zero_db_hand_case(self):
        # alpha = 1, target (1,0), error (0,-1): powers equal -> exactly 0 dB.
        assert si_sdr(_buf([1.0, 0.0]), _buf([1.0, 1.0])) == 0.0

    def test_perfect_and_scaled_estimates_hit_cap(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal(500)
        assert si_sdr(_buf(s), _buf(s)) == 100.0
        assert si_sdr(_buf(s), _buf(2.0 * s)) == 100.0

    def test_orthogonal_estimate_hits_floor(self):
        assert si_sdr(_buf([1.0, 0.0]), _buf([0.0, 1.0])) == -100.0

    def test_same_bits_at_any_blas_thread_count(self):
        # OpenBLAS splits a long dot product across its threads, so BLAS
        # dots would give this 2 s pair other low bits at 2 threads than at 1
        script = (
            "import numpy as np\n"
            "from flowfx.dsp import AudioBuffer, synth_signal\n"
            "from flowfx.metrics import si_sdr\n"
            "ref = synth_signal(0, 2.0)\n"
            "noise = 0.1 * np.random.default_rng(1).standard_normal(len(ref.samples))\n"
            "print(repr(si_sdr(ref, AudioBuffer(ref.samples + noise, ref.sample_rate))))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        values = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            values.append(proc.stdout.strip())
        assert values[0] == values[1]

    def test_scale_invariance_of_estimate(self):
        rng = np.random.default_rng(12)
        s = rng.standard_normal(300)
        est = s + 0.1 * rng.standard_normal(300)
        base = si_sdr(_buf(s), _buf(est))
        for beta in (0.01, 3.0, 250.0):
            assert si_sdr(_buf(s), _buf(beta * est)) == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize(
        "ref_scale, est_scale",
        [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1e-200, 1.0), (1.0, 1e-200)],
        ids=["silent-estimate", "silent-reference", "both-silent", "reference-1e-200",
             "estimate-1e-200"],
    )
    def test_side_without_energy_scores_the_floor(self, ref_scale, est_scale):
        # at 1e-200 the squares underflow to 0: no energy, as in silence
        x = synth_signal(0, 0.5).samples
        assert si_sdr(_buf(ref_scale * x), _buf(est_scale * x)) == -SDR_CAP_DB

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            si_sdr(_buf(np.ones(10)), _buf(np.ones(11)))

    def test_rate_mismatch_rejected(self):
        # equal lengths, so only the rates tell the two recordings apart
        x = synth_signal(1, 0.05).samples
        with pytest.raises(DomainError, match="sample rates differ"):
            si_sdr(AudioBuffer(x, 48000), AudioBuffer(x, 16000))


class TestSpectralDistances:
    def test_identical_signals_give_zero(self):
        rng = np.random.default_rng(21)
        a = _buf(rng.standard_normal(RATE // 4))
        assert mel_dist(a, a) == 0.0
        assert stft_dist(a, a) == 0.0

    def test_mel_dist_of_e_scaling_is_one(self):
        # log(e*x) - log(x) = 1 wherever neither side clamps at the floor;
        # loud white noise keeps every band well above it.
        rng = np.random.default_rng(22)
        x = rng.standard_normal(RATE // 4)
        a = _buf(x)
        b = _buf(np.e * x)
        fb = mel_filterbank(128, StftConfig(2048, 512), RATE)
        assert np.min(log_mel(a, fb, StftConfig(2048, 512))) > np.log(1e-5)
        assert mel_dist(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_stft_dist_matches_recomputation(self):
        rng = np.random.default_rng(23)
        a = _buf(rng.standard_normal(4000))
        b = _buf(rng.standard_normal(4000))
        cfg = StftConfig(512, 128)
        la = np.log(np.maximum(np.abs(stft(a, cfg).data), 1e-5))
        lb = np.log(np.maximum(np.abs(stft(b, cfg).data), 1e-5))
        expected = float(np.mean(np.abs(la - lb)))
        assert stft_dist(a, b) == pytest.approx(expected, abs=1e-9)

    def test_rate_mismatch_rejected(self):
        a = AudioBuffer(np.ones(100), 48000)
        b = AudioBuffer(np.ones(100), 44100)
        with pytest.raises(DomainError):
            mel_dist(a, b)


class TestFrechet:
    def test_diagonal_closed_form(self):
        # ||mu_d||^2 + sum(a + b - 2 sqrt(ab)) = 2 + 4 + 1 = 7.
        got = frechet_from_stats(
            [0.0, 0.0], np.diag([1.0, 4.0]), [1.0, -1.0], np.diag([9.0, 1.0])
        )
        assert got == pytest.approx(7.0, abs=1e-6)

    def test_diagonal_closed_form_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            a = rng.uniform(0.1, 4.0, d)
            b = rng.uniform(0.1, 4.0, d)
            m1 = rng.standard_normal(d)
            m2 = rng.standard_normal(d)
            want = float((m1 - m2) @ (m1 - m2) + np.sum(a + b - 2.0 * np.sqrt(a * b)))
            got = frechet_from_stats(m1, np.diag(a), m2, np.diag(b))
            assert got == pytest.approx(want, abs=1e-9)

    def test_equal_covariance_reduces_to_mean_gap(self):
        rng = np.random.default_rng(32)
        w = rng.standard_normal((4, 4))
        cov = w @ w.T + 0.5 * np.eye(4)
        d = rng.standard_normal(4)
        got = frechet_from_stats(np.zeros(4), cov, d, cov)
        assert got == pytest.approx(float(d @ d), abs=1e-9)

    def test_same_set_is_zero(self):
        rng = np.random.default_rng(33)
        x = EmbeddingSet(rng.standard_normal((64, 4)))
        assert frechet_distance(x, x) == pytest.approx(0.0, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(34)
        x = EmbeddingSet(rng.standard_normal((50, 3)))
        y = EmbeddingSet(1.5 * rng.standard_normal((70, 3)) + 0.3)
        assert frechet_distance(x, y) == pytest.approx(frechet_distance(y, x), abs=1e-9)

    def test_ridge_keeps_small_sets_finite(self):
        rng = np.random.default_rng(35)
        x = EmbeddingSet(rng.standard_normal((3, 8)))  # N <= D: rank-deficient cov
        y = EmbeddingSet(rng.standard_normal((3, 8)))
        assert np.isfinite(frechet_distance(x, y))

    def test_too_few_rows_rejected(self):
        with pytest.raises(DomainError):
            frechet_distance(EmbeddingSet(np.ones((1, 3))), EmbeddingSet(np.ones((5, 3))))

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(36)
        with pytest.raises(DomainError):
            frechet_distance(
                EmbeddingSet(rng.standard_normal((4, 3))),
                EmbeddingSet(rng.standard_normal((4, 2))),
            )

    def test_matches_sqrtm_on_non_commuting_covariances(self):
        # an independent oracle: the general matrix square root of C1 C2
        from scipy.linalg import sqrtm

        rng = np.random.default_rng(37)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            w1, w2 = rng.standard_normal((d, d)), rng.standard_normal((d, d))
            c1, c2 = w1 @ w1.T + 0.1 * np.eye(d), w2 @ w2.T + 0.1 * np.eye(d)
            m1, m2 = rng.standard_normal(d), rng.standard_normal(d)
            want = float((m1 - m2) @ (m1 - m2)
                         + np.trace(c1 + c2 - 2.0 * np.real(sqrtm(c1 @ c2))))
            assert frechet_from_stats(m1, c1, m2, c2) == pytest.approx(want, rel=1e-10)

    def test_covariance_beyond_eigh_is_refused_naming_the_metric(self):
        rows = np.array([[1e300, 0.5, 1.0], [-1e300, 0.25, 2.0], [0.0, 0.125, 3.0]])
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="frechet"):
            frechet_distance(EmbeddingSet(rows), EmbeddingSet(np.eye(3)[:2]))


class TestKl:
    def test_hand_value_against_uniform(self):
        # softmax(0, ln 3) = (1/4, 3/4); KL to uniform = .25 ln .5 + .75 ln 1.5.
        got = kl_divergence([0.0, np.log(3.0)], [0.0, 0.0])
        assert got == pytest.approx(0.13081203594113697, abs=1e-12)

    def test_identical_logits_give_exact_zero(self):
        rng = np.random.default_rng(41)
        logits = rng.standard_normal((5, 7))
        assert kl_divergence(logits, logits) == 0.0

    def test_shift_invariance_per_row(self):
        rng = np.random.default_rng(42)
        p = rng.standard_normal((4, 6))
        q = rng.standard_normal((4, 6))
        shifted = kl_divergence(p + 3.0, q - 2.0)
        assert shifted == pytest.approx(kl_divergence(p, q), abs=1e-12)

    def test_nonnegative_and_positive_when_different(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            p = rng.standard_normal((3, 8)) * rng.uniform(0.5, 4.0)
            q = rng.standard_normal((3, 8)) * rng.uniform(0.5, 4.0)
            val = kl_divergence(p, q)
            assert val > 0.0

    def test_batched_is_mean_of_rows(self):
        rng = np.random.default_rng(44)
        p = rng.standard_normal((6, 5))
        q = rng.standard_normal((6, 5))
        rows = [kl_divergence(p[i], q[i]) for i in range(6)]
        assert kl_divergence(p, q) == pytest.approx(np.mean(rows), abs=1e-12)

    def test_matches_scipy_rel_entr(self):
        # logits of spread 2 over 8 classes keep every probability above the
        # 1e-10 floor, so the floor changes nothing
        from scipy.special import rel_entr, softmax

        rng = np.random.default_rng(38)
        p, q = 2.0 * rng.standard_normal((50, 8)), 2.0 * rng.standard_normal((50, 8))
        pp, qq = softmax(p, axis=1), softmax(q, axis=1)
        assert min(pp.min(), qq.min()) > 1e-10
        want = float(np.mean(rel_entr(pp, qq).sum(axis=1)))
        assert kl_divergence(p, q) == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            kl_divergence(np.zeros(3), np.zeros(4))


class TestClapScore:
    def test_identical_sets_score_one(self):
        rng = np.random.default_rng(51)
        e = EmbeddingSet(rng.standard_normal((10, 6)))
        assert clap_score(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_rows_score_zero(self):
        t = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 2.0]]))
        a = EmbeddingSet(np.array([[0.0, 3.0], [5.0, 0.0]]))
        assert clap_score(t, a) == 0.0

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(52)
        t = rng.standard_normal((8, 5))
        a = rng.standard_normal((8, 5))
        base = clap_score(EmbeddingSet(t), EmbeddingSet(a))
        scaled = clap_score(EmbeddingSet(4.0 * t), EmbeddingSet(0.25 * a))
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_zero_row_rejected(self):
        t = EmbeddingSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        a = EmbeddingSet(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DomainError):
            clap_score(t, a)

    def test_similarity_matrix_matches_scipy_cdist(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(39)
        t, a = rng.standard_normal((40, 16)), 3.0 * rng.standard_normal((30, 16))
        got = cosine_similarity_matrix(EmbeddingSet(t), EmbeddingSet(a))
        assert np.max(np.abs(got - (1.0 - cdist(t, a, "cosine")))) <= 1e-14

    def test_similarity_matrix_agrees_on_diagonal(self):
        rng = np.random.default_rng(53)
        t = EmbeddingSet(rng.standard_normal((7, 4)))
        a = EmbeddingSet(rng.standard_normal((7, 4)))
        sim = cosine_similarity_matrix(t, a)
        assert np.mean(np.diag(sim)) == pytest.approx(clap_score(t, a), abs=1e-12)


def _recall_oracle(sim, k):
    """Brute-force ranking with explicit (value desc, index asc) sort keys."""
    n = sim.shape[0]

    def one_direction(mat):
        hits = 0
        for i in range(n):
            order = sorted(range(n), key=lambda j: (-mat[i, j], j))
            if order.index(i) < k:
                hits += 1
        return hits / n

    return one_direction(sim), one_direction(sim.T)


def _recall_argsort_loop(sim, k):
    """The per-row stable argsort that the rank count replaced."""
    n = sim.shape[0]

    def one_direction(mat):
        hits = 0
        for i in range(n):
            order = np.argsort(-mat[i], kind="stable")  # stable = lower index wins ties
            if i in order[:k]:
                hits += 1
        return hits / n

    return one_direction(sim), one_direction(sim.T)


def _integer_embeddings():
    """Similarities of small integer embeddings, n from 1 to 60: many
    exactly tied dot products.  Yields (sim, every k)."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = 1 + seed * 59 // 39
        t = rng.integers(-2, 3, (n, 3)).astype(np.float64)
        a = rng.integers(-2, 3, (n, 3)).astype(np.float64)
        yield t @ a.T, range(1, n + 1)


def _all_equal(n=300):
    """Every row tied throughout: at k = 1 only query 0 hits."""
    yield np.ones((n, n)), (1, 2, n // 2, n - 1, n)


def _ties_in_a_few_rows(n=300):
    """A diagonal that tops every row and column, tied in 12 rows and 12
    columns: 8 rows (4 columns) with an entry of lower index, the rest with
    one of higher index.  At k = 1 a row or column misses exactly when its
    tie has the lower index, so counting the wrong side changes the
    recall."""
    rng = np.random.default_rng(64)
    sim = rng.standard_normal((n, n))
    np.fill_diagonal(sim, 10.0)
    a, b = rng.choice(n, (2, 12), replace=False)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    sim[hi[:8], lo[:8]] = 10.0
    sim[lo[8:], hi[8:]] = 10.0
    yield sim, (1, 2, n // 2, n - 1, n)


_TIED_MATRICES = {"integer-embeddings": _integer_embeddings, "all-equal": _all_equal,
                  "ties-in-a-few-rows": _ties_in_a_few_rows}


class TestRecallAtK:
    def test_identity_matrix_is_perfect(self):
        assert recall_at_k(np.eye(5), 1) == (1.0, 1.0)

    def test_tie_goes_to_lower_index(self):
        sim = np.array([[1.0, 1.0], [0.0, 1.0]])
        # Row ties pick column 0 first, so t2a row 0 still hits at k=1;
        # column 1 of the transpose loses its tie and misses.
        assert recall_at_k(sim, 1) == (1.0, 0.5)

    def test_matches_sort_oracle_continuous(self):
        rng = np.random.default_rng(61)
        for trial in range(50):
            sim = rng.standard_normal((10, 10))
            for k in (1, 5, 10):
                assert recall_at_k(sim, k) == _recall_oracle(sim, k), (trial, k)

    def test_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(62)
        for trial in range(50):
            sim = rng.integers(0, 3, (10, 10)).astype(np.float64)
            for k in (1, 5, 10):
                assert recall_at_k(sim, k) == _recall_oracle(sim, k), (trial, k)

    @pytest.mark.parametrize("case", ["integer-embeddings", "all-equal", "ties-in-a-few-rows"])
    def test_rank_count_matches_argsort_loop(self, case):
        for sim, ks in _TIED_MATRICES[case]():
            for k in ks:
                assert recall_at_k(sim, k) == _recall_argsort_loop(sim, k), (len(sim), k)

    def test_peak_memory_is_one_mask(self):
        # one n x n boolean mask at a time: an eighth of the float64 matrix
        sim = np.random.default_rng(65).standard_normal((2000, 2000))
        recall_at_k(sim, 1)
        tracemalloc.start()
        try:
            recall_at_k(sim, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.15 * sim.nbytes, peak / sim.nbytes

    def test_nan_entry_rejected(self):
        sim = np.eye(4)
        sim[2, 1] = np.nan
        with pytest.raises(DomainError):
            recall_at_k(sim, 1)

    def test_k_equal_n_is_always_one(self):
        rng = np.random.default_rng(63)
        sim = rng.standard_normal((6, 6))
        assert recall_at_k(sim, 6) == (1.0, 1.0)

    def test_bad_k_rejected(self):
        sim = np.eye(4)
        with pytest.raises(DomainError):
            recall_at_k(sim, 5)
        with pytest.raises(DomainError):
            recall_at_k(sim, 0)

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            recall_at_k(np.ones((3, 4)), 1)


def _random_cell(rng, value):
    """value as text in one of the forms a CSV writer may use."""
    forms = [repr, "%.17g".__mod__, "%.16e".__mod__, "%.20E".__mod__, "%+.17g".__mod__,
             "%e".__mod__]
    return forms[rng.integers(len(forms))](value)


_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
                   1.7976931348623157e308, -1e300]


def _random_embedding_csv(rng):
    """One seeded embedding CSV, (its bytes, dim): 1-11 rows of 1-5 finite
    values from 1e-320 to 1e300, a quarter of them signed zeros, subnormals
    or extremes, each in a random writer's form, with LF or CRLF line ends
    and with or without a final line end."""
    n, dim = int(rng.integers(1, 12)), int(rng.integers(1, 6))
    rows = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-320, 300, (n, dim))
    cells = rng.random((n, dim)) < 0.25
    rows[cells] = rng.choice(_SPECIAL_VALUES, int(cells.sum()))
    eol = "\r\n" if rng.random() < 0.5 else "\n"
    lines = ["id," + ",".join(f"dim{j}" for j in range(dim))]
    lines += [f"row{k}," + ",".join(_random_cell(rng, v) for v in row)
              for k, row in enumerate(rows.tolist())]
    return (eol.join(lines) + eol * int(rng.integers(2))).encode(), dim


class TestCsv:
    def test_embedding_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(71)
        emb = EmbeddingSet(rng.standard_normal((5, 3)))
        path = tmp_path / "emb.csv"
        write_embedding_csv(path, emb)
        back = read_embedding_csv(path)
        assert np.array_equal(back.rows, emb.rows)  # repr roundtrips exactly

    def test_default_ids_are_row_indices(self, tmp_path):
        emb = EmbeddingSet(np.ones((3, 2)))
        path = tmp_path / "emb.csv"
        write_embedding_csv(path, emb)
        lines = path.read_text().splitlines()
        assert lines == ["id,dim0,dim1", "0,1.0,1.0", "1,1.0,1.0", "2,1.0,1.0"]

    def test_embedding_bytes_equal_csv_writer(self, tmp_path):
        rows = np.array([[-0.0, 5e-324], [1e300, -1e-300], [-2.5, 0.1], [-1.0, 3.0]])
        path = tmp_path / "emb.csv"
        write_embedding_csv(path, EmbeddingSet(rows))
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["id", "dim0", "dim1"])
        for i, row in enumerate(rows.tolist()):
            writer.writerow([str(i)] + [repr(v) for v in row])
        assert path.read_bytes() == want.getvalue().encode()
        assert path.read_bytes().startswith(b"id,dim0,dim1\r\n0,-0.0,5e-324\r\n")

        # write_csv's generic cells against the same oracle, on seeded rows
        # of the cell kinds the commands write
        rng = np.random.default_rng(72)
        floats = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
        names = ["mel_dist", "stft_dist", "si_sdr", "frechet", "kl", "clap_score",
                 "recall_at_5_real_to_fake", "recall_at_5_fake_to_real", "mean_nfe",
                 "accepted_steps", "rejected_steps"]
        kinds = [lambda: int(rng.integers(-10**12, 10**12)),
                 lambda: floats[rng.integers(len(floats))],
                 lambda: np.float64(floats[rng.integers(len(floats))]),
                 lambda: float(rng.standard_normal()),
                 lambda: np.float64(rng.standard_normal()),
                 lambda: None,
                 lambda: names[rng.integers(len(names))]]
        header = ["metric", "value", "n_items", "extra"]
        rows = [[kinds[rng.integers(len(kinds))]() for _ in header] for _ in range(200)]
        assert {type(v) for row in rows for v in row} == {int, float, np.float64, type(None), str}
        path = tmp_path / "mixed.csv"
        write_csv(path, header, rows)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
        assert path.read_bytes() == want.getvalue().encode()

    def test_reader_matches_loadtxt_on_seeded_files(self, tmp_path):
        """Seeded files against np.loadtxt, bit for bit: cells written as
        repr, %.17g, exponent forms (some with more digits than a double
        holds, some with fewer), signed zeros and subnormals, with LF or CRLF
        line ends and with or without a final line end.

        Intended differences, not generated here: the reader refuses
        non-finite cells (inf, nan, and overflows such as 1e999), which
        loadtxt returns, because an EmbeddingSet holds finite rows only
        (checked at the end); it refuses digit-group underscores (see
        test_underscore_in_number_reports_offset)."""
        rng = np.random.default_rng(92)
        for i in range(60):
            data, dim = _random_embedding_csv(rng)
            path = tmp_path / f"{i}.csv"
            path.write_bytes(data)
            got = read_embedding_csv(path).rows
            want = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, dim + 1),
                              ndmin=2)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), i
        path = tmp_path / "nonfinite.csv"
        path.write_text("id,dim0\nrow0,inf\n")
        assert np.loadtxt(path, delimiter=",", skiprows=1, usecols=[1]) == np.inf
        with pytest.raises(FileFormatError, match="nonfinite.csv: embeddings must be finite"):
            read_embedding_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,x,y\n1,2,3\n")
        with pytest.raises(FileFormatError):
            read_embedding_csv(path)

    def test_bad_number_reports_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,dim0\nrow0,1.5\nrow1,oops\n")
        with pytest.raises(FileFormatError) as exc:
            read_embedding_csv(path)
        assert exc.value.offset == len("id,dim0\nrow0,1.5\n")

    def test_underscore_in_number_reports_offset(self, tmp_path):
        # Python's float reads "1_0" as 10.0
        path = tmp_path / "bad.csv"
        path.write_text("id,dim0\nrow0,1.5\nrow1,1_0\n")
        with pytest.raises(FileFormatError, match="bad number") as exc:
            read_embedding_csv(path)
        assert exc.value.offset == len("id,dim0\nrow0,1.5\n")

    @pytest.mark.parametrize("cell", ["\uff11", "\u0661.\u0665"])
    def test_non_ascii_digits_report_offset(self, cell, tmp_path):
        # Python's float reads "１" as 1.0 and "١.٥" as 1.5; np.loadtxt refuses both
        path = tmp_path / "bad.csv"
        path.write_text(f"id,dim0\nrow0,1.5\nrow1,{cell}\n", encoding="utf-8")
        with pytest.raises(FileFormatError, match="bad number") as exc:
            read_embedding_csv(path)
        assert exc.value.offset == len("id,dim0\nrow0,1.5\n")

    def test_field_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,dim0,dim1\nrow0,1.0\n")
        with pytest.raises(FileFormatError):
            read_embedding_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,dim0\n")
        with pytest.raises(FileFormatError):
            read_embedding_csv(path)

    def test_report_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, [("si_sdr", 42.5, 10), ("mel_dist", 0.125, 10)])
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,value,n_items"
        assert lines[1] == "si_sdr,42.5,10"
        assert lines[2] == "mel_dist,0.125,10"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_report_refuses_a_non_finite_value_naming_its_metric(self, value, tmp_path):
        path = tmp_path / "report.csv"
        with pytest.raises(DomainError, match="^frechet is not finite"):
            write_report_csv(path, [("kl", 0.5, 2), ("frechet", value, 2)])
        assert not path.exists()


class TestEmbeddingSet:
    def test_one_dimensional_rejected(self):
        with pytest.raises(DomainError):
            EmbeddingSet(np.ones(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            EmbeddingSet(np.array([[1.0, np.nan]]))
