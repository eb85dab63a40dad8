"""The benchmark's workloads: inputs made from a seed, the request mix, and
the checks on every output.

A request is one ``flowfx.cli.main`` call (the codec request adds the
spectral loss between its input and output).  One client sends requests
one at a time (closed loop).  Requests with equal keys must give
byte-identical outputs; the first run of each key gets the full check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flowfx import cli, distill, dsp, flow, losses, metrics, net, solvers, toy

DATA = Path(__file__).resolve().parent / "data"
TEACHER = DATA / "fm_teacher.json"
STUDENT = DATA / "student.json"

# NFE of the stored checkpoints for dopri5 at rtol = atol = 1e-5, n = 256,
# seed 0; a change to these files or to the field they define shows here.
CHECKPOINT_NFE = {TEACHER: 121, STUDENT: 181}

GAP_N = 256  # paired-noise samples of the ac07 recipe
# A 4-step student's gap may be at most this multiple of the gap of the
# undistilled teacher run as the same 4-step sampler on the same noise.
# Stored student: 0.71 at n = 1024, at most 0.88 at n = 32 over 300 noise
# seeds.  Fresh default distill: 0.32-1.29 over seeds 1-40 (the
# adversarial term makes some students worse than the teacher).
SAMPLE_MAX_GAP_RATIO = 0.95
DISTILL_MAX_GAP_RATIO = 2.0
W2_N = 2000  # samples of the ac06 recipe
W2_MIN_REDUCTION = 0.80
CODEC_MIN_SI_SDR = metrics.SDR_CAP_DB - 1.0
EVAL_K = 5
EMBED_DIM = 32


@dataclass
class Request:
    key: str          # request class, such as "e2000" for a 2000-row eval;
                      # equal keys must give identical outputs
    argv: list        # flowfx command line without --out
    fingerprint: object  # fingerprint(out_dir, value) -> bytes compared across repeats
    check: object     # check(out_dir, value) -> list of problems, on the first run of a key
    work: int = 1     # work units: optimizer steps, or 1 for a request
    follow: object = None  # timed step after the command: follow(out_dir) -> value


def _file_digest(*names):
    def fingerprint(out, value):
        h = hashlib.sha256()
        for name in names:
            h.update((out / name).read_bytes())
        h.update(repr(value).encode())
        return h.digest()

    return fingerprint


def _params_digest(name):
    def fingerprint(out, value):
        params = json.loads((out / name).read_text())["params"]
        return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).digest()

    return fingerprint


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _samples(path):
    """(header, rows as floats) of a samples.csv."""
    rows = _read_rows(path)
    return rows[0], np.array([r[1:] for r in rows[1:]], dtype=np.float64).reshape(len(rows) - 1, -1)


def _report(path):
    return {row[0]: (float(row[1]), int(row[2])) for row in _read_rows(path)[1:]}


def _ring_noise(seed, salt, n):
    labels = np.arange(n) % toy.N_MODES
    return np.random.default_rng([seed, salt]).standard_normal((n, 2)), labels


def _wasserstein2(a, b):
    from scipy.optimize import linear_sum_assignment  # not part of set-up time

    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


ISOLATED_TIMEOUT_S = 120
_ISOLATED_MAIN = (
    "import json, sys; sys.path[:0] = json.loads(sys.argv[1]); import workloads; "
    "print(json.dumps(getattr(workloads, sys.argv[2])(*json.loads(sys.argv[3]))))"
)


def isolated(fn, *args):
    """``fn(*args)`` in a fresh interpreter that is waited for (and killed
    on timeout), so that what it allocates does not count towards this
    process's peak resident memory.  ``fn`` must be a module-level function
    of this module; its arguments (paths go as strings) and its result must
    be JSON values.  A plain child process is used, not multiprocessing,
    whose helper process would outlive the benchmark."""
    path = [str(Path(cli.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    argv = [str(a) if isinstance(a, Path) else a for a in args]
    proc = subprocess.run(
        [sys.executable, "-c", _ISOLATED_MAIN, json.dumps(path), fn.__name__, json.dumps(argv)],
        capture_output=True, text=True, timeout=ISOLATED_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{fn.__name__} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _teacher_endpoints(teacher, x1, labels):
    config = solvers.SolverConfig(kind="dopri5", rtol=1e-6, atol=1e-6, cfg_scale=1.0)
    return solvers.dopri5_sample(teacher, x1, labels, config).final


def _four_step_gaps(reference, model, x1, labels):
    """Per-sample L2 between 4-step Euler ``model`` endpoints and ``reference``."""
    config = solvers.SolverConfig(kind="euler", steps=4, cfg_scale=1.0)
    return np.linalg.norm(reference - solvers.euler_sample(model, x1, labels, config).final, axis=1)


def _gap_problems(student_gap, clone_gap, max_ratio):
    if not student_gap <= max_ratio * clone_gap:
        return [f"student gap {student_gap:.4f} > {max_ratio} x undistilled gap {clone_gap:.4f}"]
    return []


class Workload:
    """Base: ``requests`` is one unit of work; ``warm`` runs every distinct
    request once, untimed, before the measured units; ``loop`` names the
    function a training command calls once per iteration, as (module,
    attribute), for gauge samples inside the command (see gauge.py).

    Checks run in this process, except the ac06 W2 check, which holds far
    more memory than the request it checks and runs ``isolated``.
    """

    warm = True
    min_units = 1
    loop = None

    def __init__(self, inputs: Path, seed: int):
        self.inputs = inputs
        self.seed = seed
        self.quality: dict = {}

    @staticmethod
    def prepare(inputs: Path, seed: int) -> None:
        inputs.mkdir(parents=True, exist_ok=True)

    def pinned_requests(self):
        """Untimed requests run once in the warm pass, for their checks."""
        return []


class RingTrain(Workload):
    """``train-fm`` at its defaults; the first run is scored by the ac06 W2."""

    warm = False
    min_units = 2
    loop = (flow, "fm_loss")

    def requests(self):
        return [Request(
            key="train-fm",
            argv=["train-fm", "--seed", str(self.seed)],
            fingerprint=_params_digest("fm_teacher.json"),
            check=self._check,
            work=int(cli.SCHEMAS["train-fm"]["steps"][1]),
        )]

    def _check(self, out, value):
        w2 = isolated(_w2_to_ring, out / "fm_teacher.json", self.seed)
        self.quality["teacher_w2"] = w2["trained"]
        reduction = 1.0 - w2["trained"] / w2["untrained"]
        if not reduction >= W2_MIN_REDUCTION:
            return [f"W2 reduction {reduction:.3f} < {W2_MIN_REDUCTION}"]
        return []


def _w2_to_ring(checkpoint, seed):
    """ac06 recipe: W2 to ring truth of the trained and the untrained model."""
    trained, _, _ = net.load_checkpoint(checkpoint)
    untrained = net.init_model(trained.config, np.random.default_rng(seed))
    x1, labels = _ring_noise(seed, 606, W2_N)
    truth = toy.ring_centers()[labels] + toy.MODE_SIGMA * np.random.default_rng(
        [seed, 607]
    ).standard_normal((W2_N, 2))
    config = solvers.SolverConfig(kind="dopri5", rtol=1e-3, atol=1e-3, cfg_scale=1.0)
    return {
        name: _wasserstein2(solvers.dopri5_sample(model, x1, labels, config).final, truth)
        for name, model in (("trained", trained), ("untrained", untrained))
    }


class RingDistill(Workload):
    """``distill`` at its defaults on the stored teacher; the first run is
    scored by the ac07 gap."""

    warm = False
    min_units = 2
    loop = (distill, "gen_step")

    def requests(self):
        return [Request(
            key="distill",
            argv=["distill", str(TEACHER), "--seed", str(self.seed)],
            fingerprint=_params_digest("student.json"),
            check=self._check,
            work=int(cli.SCHEMAS["distill"]["steps"][1]),
        )]

    def _check(self, out, value):
        teacher, _, _ = net.load_checkpoint(TEACHER)
        student, _, _ = net.load_checkpoint(out / "student.json")
        x1, labels = _ring_noise(self.seed, 99, GAP_N)
        reference = _teacher_endpoints(teacher, x1, labels)
        gap = float(np.mean(_four_step_gaps(reference, student, x1, labels)))
        self.quality["student_gap"] = gap
        clone_gap = float(np.mean(_four_step_gaps(reference, teacher, x1, labels)))
        return _gap_problems(gap, clone_gap, DISTILL_MAX_GAP_RATIO)


def _check_samples(n, expected_nfe=None):
    def check(out, value):
        problems = []
        header, samples = _samples(out / "samples.csv")
        if header != ["id", "dim0", "dim1"] or samples.shape != (n, 2):
            problems.append(f"samples.csv is not ({n}, 2)")
        elif not np.all(np.isfinite(samples)):
            problems.append("non-finite samples")
        report = _report(out / "sample_report.csv")
        nfe, n_items = report["mean_nfe"]
        nfe_rows = _read_rows(out / "nfe.csv")[1:]
        if n_items != n or len(nfe_rows) != n or any(float(r[1]) != nfe for r in nfe_rows):
            problems.append("nfe.csv disagrees with sample_report.csv")
        if expected_nfe is not None and nfe != expected_nfe:
            problems.append(f"NFE {nfe:g}, expected {expected_nfe}")
        return problems

    return check


class RingSample(Workload):
    """``sample`` requests against the stored teacher and student.

    Per block of 20 (latency order): 4 euler n=32, 2 dopri5 n=32, 2 euler
    n=1024, 8 dopri5 n=256 (the median falls in the middle of these), 3
    dopri5 n=1024 (the 90th percentile falls in the middle of these), 1
    guided dopri5 n=2048.  Each class is one request (one noise seed)
    repeated, so that it repeats often enough in a run for its median
    latency to be steady.  Every euler request's samples are scored
    against teacher dopri5 endpoints on the same noise (the ac07 recipe).
    """

    def __init__(self, inputs: Path, seed: int):
        super().__init__(inputs, seed)
        self.teacher, _, _ = net.load_checkpoint(TEACHER)
        self._gaps = []

    def requests(self):
        rng = np.random.default_rng([self.seed, 1])
        euler = ["--solver", "euler", "--steps", "4"]
        dopri5 = ["--solver", "dopri5", "--rtol", "1e-5"]
        classes = [  # name, checkpoint, flags, n, copies per block
            ("euler32", STUDENT, euler, 32, 4),
            ("dopri32", STUDENT, dopri5, 32, 2),
            ("euler1024", STUDENT, euler, 1024, 2),
            ("dopri256", STUDENT, dopri5, 256, 8),
            ("dopri1024", TEACHER, dopri5, 1024, 3),
            ("guided2048", TEACHER, dopri5 + ["--cfg-scale", "2"], 2048, 1),
        ]
        block = []
        for name, ckpt, flags, n, copies in classes:
            seed = int(rng.integers(0, 2**31))
            block += [self._request(name, ckpt, flags, n, seed)] * copies
        rng.shuffle(block)
        return block

    def _request(self, key, ckpt, flags, n, seed, expected_nfe=None):
        check = _check_samples(n, expected_nfe)
        if "euler" in flags:
            check = self._check_student(check, n, seed)
        return Request(
            key=key,
            argv=["sample", str(ckpt), *flags, "--n", str(n), "--seed", str(seed)],
            fingerprint=_file_digest("samples.csv", "nfe.csv", "sample_report.csv"),
            check=check,
        )

    def _check_student(self, check_samples, n, seed):
        """``check_samples`` plus the student gap of the request's samples:
        its noise is remade here as ``sample`` makes it."""

        def check(out, value):
            problems = check_samples(out, value)
            if problems:
                return problems
            x1 = np.random.default_rng(seed).standard_normal((n, 2))
            labels = np.arange(n) % self.teacher.config.n_cond
            reference = _teacher_endpoints(self.teacher, x1, labels)
            _, samples = _samples(out / "samples.csv")
            gaps = np.linalg.norm(reference - samples, axis=1)
            self._gaps.append(gaps)
            self.quality["student_gap"] = float(np.mean(np.concatenate(self._gaps)))
            clone_gap = float(np.mean(_four_step_gaps(reference, self.teacher, x1, labels)))
            return _gap_problems(float(np.mean(gaps)), clone_gap, SAMPLE_MAX_GAP_RATIO)

        return check

    def pinned_requests(self):
        """The stored checkpoints' NFE."""
        flags = ["--solver", "dopri5", "--rtol", "1e-5", "--atol", "1e-5"]
        return [
            self._request(f"nfe-{ckpt.stem}", ckpt, flags, 256, 0, expected_nfe=nfe)
            for ckpt, nfe in CHECKPOINT_NFE.items()
        ]


def _eval_dir(root: Path, rng, rows: int, files: int, wav_pairs: int):
    """A real/fake pair of directories: ``files`` embedding CSVs per side
    (``rows`` in total) and ``wav_pairs`` paired 1 s wavs."""
    for side in ("real", "fake"):
        (root / side).mkdir(parents=True, exist_ok=True)
    real = rng.standard_normal((rows, EMBED_DIM))
    fake = real + 0.3 * rng.standard_normal((rows, EMBED_DIM))
    for i, (r, f) in enumerate(zip(np.array_split(real, files), np.array_split(fake, files))):
        metrics.write_embedding_csv(root / "real" / f"emb{i}.csv", metrics.EmbeddingSet(r))
        metrics.write_embedding_csv(root / "fake" / f"emb{i}.csv", metrics.EmbeddingSet(f))
    for i in range(wav_pairs):
        clean = dsp.synth_signal(int(rng.integers(0, 2**31)), 1.0)
        noisy = 0.8 * clean.samples + 0.02 * rng.standard_normal(len(clean.samples))
        dsp.write_wav(root / "real" / f"pair{i}.wav", clean)
        dsp.write_wav(root / "fake" / f"pair{i}.wav", dsp.AudioBuffer(noisy, clean.sample_rate))


def _check_eval(real_dir: Path, fake_dir: Path):
    """Every eval_report.csv value equals a direct library call."""

    def check(out, value):
        def load(d):
            paths = sorted(d.glob("*.csv"))
            return metrics.EmbeddingSet(
                np.concatenate([metrics.read_embedding_csv(p).rows for p in paths], axis=0)
            )

        real, fake = load(real_dir), load(fake_dir)
        fwd, bwd = metrics.recall_at_k(metrics.cosine_similarity_matrix(real, fake), EVAL_K)
        expected = {
            "frechet": metrics.frechet_distance(real, fake),
            "kl": metrics.kl_divergence(real.rows, fake.rows),
            "clap_score": metrics.clap_score(real, fake),
            f"recall_at_{EVAL_K}_real_to_fake": fwd,
            f"recall_at_{EVAL_K}_fake_to_real": bwd,
        }
        pairs = []
        for wav in sorted(p.name for p in real_dir.glob("*.wav")):
            a, b = dsp.read_wav(real_dir / wav), dsp.read_wav(fake_dir / wav)
            pairs.append((metrics.si_sdr(a, b), metrics.mel_dist(a, b), metrics.stft_dist(a, b)))
        stacked = np.array(pairs, dtype=np.float64)
        for col, name in enumerate(("si_sdr", "mel_dist", "stft_dist")):
            expected[name] = float(stacked[:, col].mean())
        report = _report(out / "eval_report.csv")
        problems = [
            f"{name}: report {report.get(name, (None,))[0]!r} != library {float(v)!r}"
            for name, v in expected.items()
            if report.get(name, (None,))[0] != float(v)
        ]
        if set(report) != set(expected):
            problems.append(f"report metrics {sorted(report)} != {sorted(expected)}")
        return problems

    return check


def _codec_follow(wav: Path):
    def follow(out):
        return losses.multiscale_spectral_l1(dsp.read_wav(wav), dsp.read_wav(out / "reconstructed.wav"))

    return follow


def _check_codec(wav: Path):
    def check(out, value):
        report = _report(out / "codec_report.csv")
        problems = []
        if not report["si_sdr"][0] >= CODEC_MIN_SI_SDR:
            problems.append(f"codec si_sdr {report['si_sdr'][0]} below {CODEC_MIN_SI_SDR}")
        if not all(math.isfinite(report[k][0]) for k in ("mel_dist", "stft_dist")):
            problems.append("non-finite codec distances")
        if len(dsp.read_wav(out / "reconstructed.wav").samples) != len(dsp.read_wav(wav).samples):
            problems.append("reconstruction length differs from input")
        if not math.isfinite(value):
            problems.append(f"spectral loss {value}")
        return problems

    return check


class Audio(Workload):
    """``codec`` on 1-10 s wavs (each followed by the multiscale spectral
    loss) and ``eval`` over paired-wav plus embedding-CSV directories.

    Per block of 40 (latency order): 12 evals of 250 rows, 4 of 600 rows,
    16 codecs of 1 s (the median falls among these), 6 codecs of 2 s (the
    90th percentile falls in the middle of these), 1 eval of 2000 rows and
    1 codec of 10 s.  Each class is one input repeated, as on ring-sample.
    """

    CODEC = (("c1", 1.0, 16), ("c2", 2.0, 6), ("c10", 10.0, 1))  # name, seconds, copies
    EVAL = (("e250", 250, 12), ("e600", 600, 4), ("e2000", 2000, 1))  # name, rows, copies

    @classmethod
    def prepare(cls, inputs: Path, seed: int) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 2])
        for name, seconds, _ in cls.CODEC:
            dsp.write_wav(inputs / f"{name}.wav", dsp.synth_signal(int(rng.integers(0, 2**31)), seconds))
        for name, rows, _ in cls.EVAL:
            _eval_dir(inputs / name, rng, rows, files=2, wav_pairs=2)

    def requests(self):
        workers = str(min(2, os.cpu_count() or 1))
        block = []
        for name, _, copies in self.CODEC:
            wav = self.inputs / f"{name}.wav"
            block += [Request(
                key=name,
                argv=["codec", str(wav)],
                fingerprint=_file_digest("reconstructed.wav", "codec_report.csv"),
                check=_check_codec(wav),
                follow=_codec_follow(wav),
            )] * copies
        for name, _, copies in self.EVAL:
            d = self.inputs / name
            block += [Request(
                key=name,
                argv=["eval", "--real", str(d / "real"), "--fake", str(d / "fake"),
                      "--k", str(EVAL_K), "--workers", workers],
                fingerprint=_file_digest("eval_report.csv"),
                check=_check_eval(d / "real", d / "fake"),
            )] * copies
        np.random.default_rng([self.seed, 3]).shuffle(block)
        return block


WORKLOADS = {
    "ring-train": RingTrain,
    "ring-distill": RingDistill,
    "ring-sample": RingSample,
    "audio": Audio,
}
