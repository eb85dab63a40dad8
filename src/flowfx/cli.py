"""Command-line entry point wiring the library into reproducible runs.

Commands:
  codec     STFT -> head -> iSTFT roundtrip of a WAV file, with a quality report
  train-fm  train the conditional flow model on the Gaussian-ring dataset
  distill   distill a trained teacher checkpoint into a few-step student
  sample    integrate a checkpoint's velocity field from noise to samples
  eval      metric report comparing two directories of embeddings and/or audio

Configuration is a flat ``key = value`` text file; command-line flags override
file values; unknown keys are rejected.  The output directory resolves as
``--out``, then the config, then ``$FLOWFX_OUT``, then ``./flowfx_out``; it is
made by the first artifact write, so a refused run leaves nothing behind.  Every
command is deterministic given (config, seed): outputs are byte-identical
across runs.  Exit codes: 0 success, 1 usage or config error, 2 I/O error,
3 numeric failure (divergence, solver breakdown).
"""

import argparse
import io
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import distill, dsp, flow, metrics, net, solvers, toy
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    FileFormatError,
    SolverError,
)

OUT_ENV_VAR = "FLOWFX_OUT"
DEFAULT_OUT = "flowfx_out"

RING_COND_DIM = 16
RING_EMBED_DIM = 32
RING_N_FREQS = 8
RING_FREQ_MAX = 100.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # instead of argparse's sys.exit(2): a usage error exits 1
        raise ConfigError(f"{self.prog}: {message}")


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int(text):
    """int(text), refused outside the 64-bit range numpy sizes arrays in."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def _parse_hidden(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected comma-separated layer widths")
    return tuple(_parse_int(p) for p in parts)


def _parse_seed(text):
    seed = int(text)
    if seed < 0:
        raise ValueError(f"must be >= 0, got {seed}")
    return seed


# Tunables: key -> (caster, default, help), the same for flag and config file.
# COMMON holds the keys every command takes.  Path arguments are command
# inputs (see COMMANDS) and never come from the config file.  A key that a
# library config holds takes that config's default.
COMMON = {"seed": (_parse_seed, 0, "global seed")}
_STFT, _SOLVER = dsp.StftConfig, solvers.SolverConfig
_DISTILL, _GUIDE = distill.DistillConfig, flow.CfgSpec
SCHEMAS = {
    "codec": {
        "n_fft": (_parse_int, _STFT.n_fft, "STFT frame size"),
        "hop": (_parse_int, _STFT.hop, "STFT hop size"),
    },
    "train-fm": {
        "steps": (_parse_int, 4000, "optimizer steps"),
        "batch_size": (_parse_int, 256, "samples per step"),
        "lr": (float, 2e-3, "Adam learning rate"),
        "lr_warmup": (_parse_int, 100, "linear learning-rate warmup steps"),
        "hidden": (_parse_hidden, (64, 64), "hidden layer widths, comma-separated"),
    },
    "distill": {
        "steps": (_parse_int, 800, "distillation steps"),
        "batch_size": (_parse_int, 256, "samples per step"),
        "lr": (float, _DISTILL.lr, "peak Adam learning rate for student and discriminator, "
               f"reached after a {distill.LR_WARMUP}-step linear warmup"),
        "warmup_steps": (_parse_int, _DISTILL.warmup_steps,
                         "steps before the adversarial term activates"),
        "adv_weight": (float, _DISTILL.adv_weight, "adversarial loss weight"),
        "guidance": (_parse_bool, False, "distill the guided field"),
        "cfg_lo": (float, _GUIDE.scale_range[0], "low end of the guidance scale range"),
        "cfg_hi": (float, _GUIDE.scale_range[1], "high end of the guidance scale range"),
        "drop_prob": (float, _GUIDE.drop_prob, "condition dropout probability under guidance"),
    },
    "sample": {
        "solver": (str, _SOLVER.kind, "euler or dopri5"),
        "steps": (_parse_int, _SOLVER.steps, "step count (euler only)"),
        "n": (_parse_int, 256, "number of samples"),
        "rtol": (float, _SOLVER.rtol, "relative tolerance (dopri5 only)"),
        "atol": (float, _SOLVER.atol, "absolute tolerance (dopri5 only)"),
        "cfg_scale": (float, _SOLVER.cfg_scale, "guidance scale at sampling time (both solvers)"),
        "cfg_mode": (str, _SOLVER.cfg_mode,
                     "guidance mode, standard or paper_literal (both solvers)"),
        "max_nfe": (_parse_int, _SOLVER.max_nfe, "model-evaluation budget (both solvers)"),
        "cond": (_parse_int, -1, "class id, or -1 to cycle over classes"),
    },
    "eval": {
        "k": (_parse_int, 1, "retrieval depth for recall"),
        "workers": (_parse_int, 4, "worker threads that load the files and score the WAV pairs"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """A command's fully-resolved parameters plus seed and output directory."""

    seed: int
    out_dir: Path
    values: dict


def load_config_file(path):
    """Parse a flat UTF-8 ``key = value`` file; ``#`` starts a comment and a
    line ends at ``\\n``, ``\\r\\n`` or ``\\r``.  A refusal names
    ``path:lineno``; a file that is not UTF-8 is refused at its first bad
    byte before any line is parsed."""
    data = Path(path).read_bytes()
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        # the bad byte's line: the lines before it, plus the one it opens
        head = data[: exc.start].decode("utf-8") + "#"
        lineno = len(io.StringIO(head, newline=None).readlines())
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
    entries = {}
    for lineno, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def resolve_config(command: str, args) -> RunConfig:
    """Merge schema defaults, config-file entries, and flag overrides; a flag
    or file value goes through its key's caster.  Creates nothing on disk."""
    schema = {**COMMON, **SCHEMAS[command]}
    file_values = load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(schema) - {"out"}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    values = {}
    for key, (cast, default, _) in schema.items():
        text = getattr(args, key)
        if text is None:
            text = file_values.get(key)
        try:
            values[key] = default if text is None else cast(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc

    out_dir = Path(args.out or file_values.get("out") or os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT)
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():  # the first write would fail; fail before any work
        raise NotADirectoryError(f"not a directory: {nearest}")
    return RunConfig(values.pop("seed"), out_dir, values)


def ring_model_config(hidden) -> net.ModelConfig:
    """The fixed architecture trained on the ring dataset."""
    return net.ModelConfig(
        dim=2,
        hidden=tuple(hidden),
        n_cond=toy.N_MODES,
        cond_dim=RING_COND_DIM,
        embed_dim=RING_EMBED_DIM,
        n_freqs=RING_N_FREQS,
        freq_max=RING_FREQ_MAX,
    )


def cmd_codec(cfg: RunConfig, input_path) -> None:
    """Roundtrip a WAV through stft -> head parameterization -> istft and
    report mel, spectral, and SI-SDR fidelity against the input.

    ``dsp.codec_roundtrip`` runs the round trip one block of frames at a
    time, in under four signal lengths on long inputs, so the command's
    memory peak is set by ``mel_dist``'s two log-mel sides, not the codec."""
    audio = dsp.read_wav(input_path)
    st = dsp.StftConfig(n_fft=cfg.values["n_fft"], hop=cfg.values["hop"])
    recon = dsp.AudioBuffer(dsp.codec_roundtrip(audio, st), audio.sample_rate)
    dsp.write_wav(cfg.out_dir / "reconstructed.wav", recon)
    metrics.write_report_csv(
        cfg.out_dir / "codec_report.csv",
        [
            ("mel_dist", metrics.mel_dist(audio, recon), 1),
            ("stft_dist", metrics.stft_dist(audio, recon), 1),
            ("si_sdr", metrics.si_sdr(audio, recon), 1),
        ],
    )


def cmd_train_fm(cfg: RunConfig) -> None:
    """Train the conditional velocity field on the Gaussian ring.

    Writes fm_teacher.json (exactly reloadable checkpoint) and fm_log.csv
    with (step, loss, lr) rows.  A non-finite loss aborts with the step.
    """
    v = cfg.values
    if v["steps"] < 0:
        raise ConfigError(f"steps must be >= 0, got {v['steps']}")
    if v["batch_size"] < 1:
        raise ConfigError(f"batch_size must be >= 1, got {v['batch_size']}")
    rng = np.random.default_rng(cfg.seed)
    model = net.init_model(ring_model_config(v["hidden"]), rng)
    opt = net.init_optimizer(model, lr=v["lr"], warmup=v["lr_warmup"])
    rows = []
    ws = net.Workspace()
    for step in range(1, v["steps"] + 1):
        x0, labels = toy.sample_ring(rng, v["batch_size"])
        batch = flow.sample_path(x0, rng)
        loss, grads = flow.fm_loss(model, batch, labels, ws)
        if not math.isfinite(loss):
            raise DivergenceError(step)
        net.adam_step(opt, model, grads)
        rows.append((step, loss, opt.effective_lr()))
    meta = {"dataset": "ring", "seed": cfg.seed, "steps": v["steps"]}
    net.save_checkpoint(cfg.out_dir / "fm_teacher.json", model, meta=meta)
    metrics.write_csv(cfg.out_dir / "fm_log.csv", ["step", "loss", "lr"], rows)


def cmd_distill(cfg: RunConfig, teacher_path) -> None:
    """Distill a ring-trained teacher into a few-step student.

    Writes student.json and distill_log.csv with (step, mf_loss, adv_loss,
    disc_loss, lr) rows; the adversarial and discriminator cells stay empty
    until the warmup ends.  A non-finite loss aborts with the first such
    step and writes nothing.
    """
    v = cfg.values
    teacher, _, _ = net.load_checkpoint(teacher_path)
    if teacher.config.dim != 2 or teacher.config.n_cond < toy.N_MODES:
        raise ConfigError(
            f"teacher must model 2-D data with >= {toy.N_MODES} classes, got "
            f"dim={teacher.config.dim} n_cond={teacher.config.n_cond}"
        )
    dconf = distill.DistillConfig(
        warmup_steps=v["warmup_steps"], adv_weight=v["adv_weight"], lr=v["lr"]
    )
    # built unconditionally so a bad range or probability is rejected either way
    guide = flow.CfgSpec(scale_range=(v["cfg_lo"], v["cfg_hi"]), drop_prob=v["drop_prob"])
    student = teacher.clone()
    rows, _ = distill.distill_loop(
        student,
        teacher,
        toy.sample_ring,
        n_steps=v["steps"],
        batch_size=v["batch_size"],
        config=dconf,
        rng_gen=np.random.default_rng([cfg.seed, 0]),
        rng_disc=np.random.default_rng([cfg.seed, 1]),
        cfg=guide if v["guidance"] else None,
    )
    meta = {"dataset": "ring", "seed": cfg.seed, "teacher": str(teacher_path)}
    net.save_checkpoint(cfg.out_dir / "student.json", student, meta=meta)
    metrics.write_csv(
        cfg.out_dir / "distill_log.csv",
        ["step", "mf_loss", "adv_loss", "disc_loss", "lr"],
        rows,
    )


def cmd_sample(cfg: RunConfig, ckpt_path) -> None:
    """Integrate a checkpoint's field from noise; write samples and NFE.

    The batch integrates jointly, so every sample shares the trace NFE;
    nfe.csv carries it per sample and sample_report.csv the aggregates.
    """
    v = cfg.values
    model, _, _ = net.load_checkpoint(ckpt_path)
    n = v["n"]
    if n < 1:
        raise ConfigError("n must be >= 1")
    n_cond = model.config.n_cond
    if v["cond"] != -1 and not 0 <= v["cond"] < n_cond:
        ids = f" or a class id in [0, {n_cond - 1}]" if n_cond else " (no classes in checkpoint)"
        raise ConfigError(f"cond must be -1{ids}, got {v['cond']}")
    rng = np.random.default_rng(cfg.seed)
    x1 = rng.standard_normal((n, model.config.dim))
    if n_cond == 0:
        cond = None
    elif v["cond"] < 0:
        cond = np.arange(n) % n_cond
    else:
        cond = np.full(n, v["cond"])
    solver_cfg = solvers.SolverConfig(
        kind=v["solver"],
        steps=v["steps"],
        rtol=v["rtol"],
        atol=v["atol"],
        cfg_scale=v["cfg_scale"],
        cfg_mode=v["cfg_mode"],
        max_nfe=v["max_nfe"],
    )
    if solver_cfg.kind == "euler":
        trace = solvers.euler_sample(model, x1, cond, solver_cfg)
    else:
        trace = solvers.dopri5_sample(model, x1, cond, solver_cfg)
    metrics.write_embedding_csv(cfg.out_dir / "samples.csv", metrics.EmbeddingSet(trace.final))
    metrics.write_csv(cfg.out_dir / "nfe.csv", ["id", "nfe"], ((i, trace.nfe) for i in range(n)))
    metrics.write_report_csv(
        cfg.out_dir / "sample_report.csv",
        [
            ("mean_nfe", trace.nfe, n),
            ("accepted_steps", trace.accepted, n),
            ("rejected_steps", trace.rejected, n),
        ],
    )


def _merge_embeddings(paths, sets):
    if not sets:
        return None
    dim = sets[0].rows.shape[1]
    for path, emb in zip(paths, sets):
        if emb.rows.shape[1] != dim:
            raise FileFormatError(
                path, f"embedding dimension {emb.rows.shape[1]} differs from {dim}"
            )
    return metrics.EmbeddingSet(np.concatenate([s.rows for s in sets], axis=0))


def cmd_eval(cfg: RunConfig, real_dir, fake_dir) -> None:
    """Compare two directories and write one report row per metric.

    ``*.csv`` files that metrics.is_embedding_csv claims are embedding sets
    (concatenated per side, in sorted path order); ``*.wav`` files pair up
    by matching filename.  Files load on a bounded worker pool; results
    merge deterministically.
    """
    v = cfg.values
    for key in ("k", "workers"):
        if v[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {v[key]}")
    real_dir, fake_dir = Path(real_dir), Path(fake_dir)
    for d in (real_dir, fake_dir):
        if not d.is_dir():
            raise FileNotFoundError(f"not a directory: {d}")
    entries = []
    with ThreadPoolExecutor(max_workers=v["workers"]) as pool:
        real_csvs = [p for p in sorted(real_dir.glob("*.csv")) if metrics.is_embedding_csv(p)]
        fake_csvs = [p for p in sorted(fake_dir.glob("*.csv")) if metrics.is_embedding_csv(p)]
        real_emb = _merge_embeddings(real_csvs, list(pool.map(metrics.read_embedding_csv, real_csvs)))
        fake_emb = _merge_embeddings(fake_csvs, list(pool.map(metrics.read_embedding_csv, fake_csvs)))
        if real_emb is not None and fake_emb is not None:
            n_fake = len(fake_emb.rows)
            entries.append(("frechet", metrics.frechet_distance(real_emb, fake_emb), n_fake))
            if len(real_emb.rows) == n_fake:
                entries.append(("kl", metrics.kl_divergence(real_emb.rows, fake_emb.rows), n_fake))
                entries.append(("clap_score", metrics.clap_score(real_emb, fake_emb), n_fake))
                sim = metrics.cosine_similarity_matrix(real_emb, fake_emb)
                fwd, bwd = metrics.recall_at_k(sim, v["k"])
                entries.append((f"recall_at_{v['k']}_real_to_fake", fwd, n_fake))
                entries.append((f"recall_at_{v['k']}_fake_to_real", bwd, n_fake))

        names = sorted(
            {p.name for p in real_dir.glob("*.wav")} & {p.name for p in fake_dir.glob("*.wav")}
        )

        def audio_pair(name):
            a = dsp.read_wav(real_dir / name)
            b = dsp.read_wav(fake_dir / name)
            try:
                return metrics.si_sdr(a, b), metrics.mel_dist(a, b), metrics.stft_dist(a, b)
            except DomainError as exc:
                raise DomainError(f"WAV pair {name}: {exc}") from exc

        pair_stats = list(pool.map(audio_pair, names))
    if pair_stats:
        stacked = np.array(pair_stats, dtype=np.float64)
        entries.append(("si_sdr", float(stacked[:, 0].mean()), len(names)))
        entries.append(("mel_dist", float(stacked[:, 1].mean()), len(names)))
        entries.append(("stft_dist", float(stacked[:, 2].mean()), len(names)))
    if not entries:
        raise ConfigError("nothing to evaluate: no embedding CSVs and no paired WAVs")
    metrics.write_report_csv(cfg.out_dir / "eval_report.csv", entries)


# Each command once: name -> (handler, help, inputs).  Inputs are (name, help)
# pairs passed to the handler after the config; one spelled as a flag is
# required.  Handlers go by name, so a wrapper on the module attribute sees them.
COMMANDS = {
    "codec": ("cmd_codec", "WAV roundtrip through the spectral codec",
              [("input", "input WAV file")]),
    "train-fm": ("cmd_train_fm", "train the flow model on the ring dataset", []),
    "distill": ("cmd_distill", "distill a teacher checkpoint into a student",
                [("teacher", "teacher checkpoint (fm_teacher.json)")]),
    "sample": ("cmd_sample", "sample from a checkpoint", [("ckpt", "model checkpoint")]),
    "eval": ("cmd_eval", "metric report comparing two directories",
             [("--real", "reference directory"), ("--fake", "candidate directory")]),
}


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command-line parser, built once per process from module constants;
    parsing leaves it unchanged, so every ``main`` call shares it.  Flags
    keep their text; ``resolve_config`` casts it."""
    parser = _Parser(prog="flowfx", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (_, text, inputs) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, help_text in inputs:
            if name.startswith("--"):
                p.add_argument(name, required=True, help=help_text)
            else:
                p.add_argument(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or {DEFAULT_OUT})")
        for key, (_, default, help_text) in {**COMMON, **SCHEMAS[command]}.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           help=f"{help_text} (default {default})")
    return parser


def _dispatch(args) -> None:
    handler, _, inputs = COMMANDS[args.command]
    cfg = resolve_config(args.command, args)
    globals()[handler](cfg, *(getattr(args, name.lstrip("-")) for name, _ in inputs))


# The exit code of each error a command may end in; see the module docstring.
_EXIT_CODES = {ConfigError: 1, DomainError: 1, MemoryError: 1,
               FileFormatError: 2, OSError: 2, SolverError: 3, DivergenceError: 3}
# numpy's ValueError for an array whose byte size overflows: a size flag too
# big to allocate, reported as MemoryError is.  Other ValueErrors are bugs.
_ARRAY_TOO_BIG = "array is too big;"
# every character str.splitlines breaks a line at, to its escape, so a path
# or key holding one still prints on the one error line
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_ESCAPES = str.maketrans({c: c.encode("unicode_escape").decode() for c in _LINE_BREAKS})


def main(argv=None) -> int:
    """Run one command and return its exit code.  A failure prints one
    ``error:`` line, its line breaks written as escapes; warnings raised
    while the command runs are re-issued only when it succeeds, so they
    never bury that line."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            _dispatch(build_parser().parse_args(argv))
    except SystemExit as exc:  # --help prints and exits 0
        return 0 if (exc.code or 0) == 0 else 1
    except Exception as exc:
        codes = [code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)]
        if isinstance(exc, ValueError) and str(exc).startswith(_ARRAY_TOO_BIG):
            codes.append(1)
        if not codes:
            raise
        print(f"error: {str(exc).translate(_ESCAPES)}", file=sys.stderr)
        return codes[0]
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
