"""Command-line interface tests.

Commands run in-process through main(argv); exit codes, file outputs, the
config/flag precedence rules, and byte-level determinism are all asserted
against the documented contracts.
"""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import flowfx
from flowfx import distill, dsp, flow, metrics, net
from flowfx.cli import SCHEMAS, build_parser, load_config_file, main, ring_model_config
from flowfx.errors import ConfigError


def read_report(path):
    rows = {}
    with open(path) as fh:
        header = fh.readline().strip()
        assert header == "metric,value,n_items"
        for line in fh:
            name, value, n_items = line.strip().split(",")
            rows[name] = (float(value), int(n_items))
    return rows


def read_log(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


class TestConfigPlumbing:
    def test_config_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nsteps = 7\nlr=0.5   # trailing comment\n")
        assert load_config_file(cfg) == {"steps": "7", "lr": "0.5"}

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 1\nsteps = 2\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg)

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 1\n")
        rc = main(["train-fm", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 5\nbatch_size = 16\nhidden = 8\n")
        out = tmp_path / "o"
        rc = main(["train-fm", "--config", str(cfg), "--steps", "3", "--out", str(out)])
        assert rc == 0
        _, rows = read_log(out / "fm_log.csv")
        assert len(rows) == 3  # flag wins over the file's 5

    def test_seed_defaults_to_zero(self, tmp_path):
        args = ["train-fm", "--steps", "3", "--batch-size", "8", "--hidden", "8"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--seed", "0", "--out", str(out_b)]) == 0
        assert (out_a / "fm_log.csv").read_bytes() == (out_b / "fm_log.csv").read_bytes()

    def test_out_env_var_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("FLOWFX_OUT", str(target))
        rc = main(["train-fm", "--steps", "1", "--batch-size", "8", "--hidden", "8"])
        assert rc == 0
        assert (target / "fm_log.csv").exists()

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLOWFX_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        rc = main(["train-fm", "--steps", "1", "--batch-size", "8", "--hidden", "8",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "fm_log.csv").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize("command", ["codec", "train-fm", "distill", "sample", "eval"])
    def test_help_exits_zero(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        assert {"--seed", *(f"--{key.replace('_', '-')}" for key in SCHEMAS[command])} <= listed

    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value_is_usage_error(self, capsys):
        assert main(["train-fm", "--steps", "many"]) == 1

    def test_parser_is_built_once_and_parsing_leaves_it_unchanged(self, capsys):
        parser = build_parser()
        assert main(["train-fm", "--steps", "many"]) == 1
        assert parser.parse_args(["train-fm", "--steps", "3"]).steps == "3"
        assert build_parser() is parser
        assert parser.parse_args(["train-fm"]).steps is None

    # eval's --real/--fake and the checkpoint paths need not exist: values
    # are cast before any input is read
    @pytest.mark.parametrize(
        "command, key, text",
        [
            ("train-fm", "steps", "many"),
            ("train-fm", "seed", "-1"),
            ("train-fm", "hidden", "8,x"),
            ("train-fm", "lr", "fast"),
            ("distill", "guidance", "maybe"),
            ("sample", "n", "1.5"),
            ("codec", "hop", "half"),
            ("eval", "k", "two"),
        ],
    )
    def test_flag_and_config_file_cast_alike(self, command, key, text, tmp_path, capsys):
        inputs = {"codec": ["in.wav"], "distill": ["t.json"], "sample": ["c.json"],
                  "eval": ["--real", "r", "--fake", "f"]}.get(command, [])
        out = ["--out", str(tmp_path / "o")]
        assert main([command, *inputs, f"--{key.replace('_', '-')}", text, *out]) == 1
        from_flag = capsys.readouterr().err
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {text}\n")
        assert main([command, *inputs, "--config", str(conf), *out]) == 1
        assert capsys.readouterr().err == from_flag
        assert from_flag.startswith(f"error: bad value for '{key}': ")
        assert len(from_flag.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_hidden_flag_and_config_file_give_the_same_checkpoint(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("hidden = 8,8\n")
        base = ["train-fm", "--steps", "2", "--batch-size", "8"]
        assert main(base + ["--hidden", "8,8", "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--config", str(conf), "--out", str(tmp_path / "b")]) == 0
        ckpt = "fm_teacher.json"
        assert (tmp_path / "a" / ckpt).read_bytes() == (tmp_path / "b" / ckpt).read_bytes()


def _edited_checkpoint(path, edit):
    """Save a small ring-architecture checkpoint, then apply ``edit`` to the
    parsed JSON and write it back."""
    model = net.init_model(ring_model_config((8,)), np.random.default_rng(0))
    net.save_checkpoint(path, model)
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))  # allow_nan: NaN is written as a bare NaN
    return path


def _drop_w0_row(obj):
    obj["params"]["w0"].pop()


def _nan_param(obj):
    obj["params"]["b_out"][0] = float("nan")


def _optimizer_state(obj):
    obj["optimizer"] = {"step": 1, "m": {k: 0.0 for k in obj["params"]}}


def _params_as_list(obj):
    obj["params"] = list(obj["params"].values())


def _hidden_as_string(obj):
    obj["config"]["hidden"] = "8"


def _no_hidden_layers(obj):
    """A model whose readout takes the network input [x, e, c] directly."""
    width = len(obj["params"].pop("w0")[0])
    del obj["params"]["b0"]
    obj["config"]["hidden"] = []
    obj["params"]["w_out"] = [[0.0] * width for _ in obj["params"]["w_out"]]


def _huge_w_out(obj):
    obj["params"]["w_out"] = [[1e300 * v for v in row] for row in obj["params"]["w_out"]]


def _unedited(obj):
    pass


def _unconditional(obj):
    """An n_cond = 0 checkpoint: only the null condition row is left."""
    obj["config"]["n_cond"] = 0
    obj["params"]["cond_table"] = obj["params"]["cond_table"][-1:]


def _ckpt_case(command, edit, *flags):
    def argv(tmp_path):
        ckpt = _edited_checkpoint(tmp_path / "ckpt.json", edit)
        return [command, str(ckpt), "--steps", "2", *flags, "--out", str(tmp_path / "o")]
    return argv


def _train_case(*flags):
    def argv(tmp_path):
        return ["train-fm", "--steps", "2", "--batch-size", "8", *flags,
                "--out", str(tmp_path / "o")]
    return argv


def _config_case(command, data):
    def argv(tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_bytes(data)
        return [command, "--config", str(conf), "--out", str(tmp_path / "o")]
    return argv


def _raw_ckpt_case(command, edit):
    """A valid checkpoint whose bytes ``edit`` then rewrites."""
    def argv(tmp_path):
        ckpt = _edited_checkpoint(tmp_path / "ckpt.json", _unedited)
        ckpt.write_bytes(edit(ckpt.read_bytes()))
        return [command, str(ckpt), "--out", str(tmp_path / "o")]
    return argv


def _write_pcm24(path):
    """A mono 24-bit PCM WAV of four samples, a format read_wav rejects."""
    data = bytes(12)
    fmt = struct.pack("<HHIIHH", 1, 1, 48000, 48000 * 3, 3, 24)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _write_empty_wav(path):
    dsp.write_wav(path, dsp.AudioBuffer(np.zeros(0), 48000))


def _write_rate_2_30(path):
    """A float32 WAV at 2**30 Hz, whose byte rate the reconstruction's
    32-bit header field cannot hold."""
    rate, data = 2**30, np.zeros(64, dtype=np.float32).tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, rate, (4 * rate) % 2**32, 4, 32)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _write_nan_float32(path):
    """A float32 WAV whose last sample is NaN."""
    dsp.write_wav(path, dsp.AudioBuffer(np.zeros(64), 48000))
    path.write_bytes(path.read_bytes()[:-4] + np.array([np.nan], dtype="<f4").tobytes())


def _codec_case(write):
    def argv(tmp_path):
        wav = tmp_path / "in.wav"
        write(wav)
        return ["codec", str(wav), "--out", str(tmp_path / "o")]
    return argv


def _eval_case(real_csv, *flags):
    def argv(tmp_path):
        real, fake = tmp_path / "real", tmp_path / "fake"
        real.mkdir(), fake.mkdir()
        (real / "a.csv").write_text(real_csv)
        metrics.write_embedding_csv(fake / "a.csv", metrics.EmbeddingSet(np.eye(2)))
        return ["eval", "--real", str(real), "--fake", str(fake), *flags,
                "--out", str(tmp_path / "o")]
    return argv


def _run_python(*args, timeout=120, **env):
    """Run a fresh interpreter that imports this checkout's flowfx, with
    ``env`` added to the environment."""
    src = str(Path(flowfx.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, **env, "PYTHONPATH": path},
    )


class TestMalformedInputs:
    """Every bad input ends in its documented exit code and one ``error:``
    line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            pytest.param(_ckpt_case("sample", _drop_w0_row), 2, id="sample-w0-row-short"),
            pytest.param(_ckpt_case("distill", _drop_w0_row), 2, id="distill-w0-row-short"),
            pytest.param(_ckpt_case("sample", _nan_param), 2, id="sample-nan-param"),
            pytest.param(_ckpt_case("distill", _nan_param), 2, id="distill-nan-param"),
            pytest.param(_ckpt_case("sample", _optimizer_state), 2,
                         id="sample-optimizer-state-present"),
            pytest.param(_ckpt_case("distill", _optimizer_state), 2,
                         id="distill-optimizer-state-present"),
            pytest.param(_ckpt_case("sample", _params_as_list), 2, id="sample-params-not-object"),
            pytest.param(_ckpt_case("sample", _unedited, "--solver", "euler", "--steps", "20",
                                    "--max-nfe", "10"), 3, id="sample-euler-over-nfe-budget"),
            pytest.param(_ckpt_case("sample", _unedited, "--solver", "dopri5", "--rtol", "nan"), 1,
                         id="sample-rtol-nan"),
            pytest.param(_ckpt_case("sample", _unedited, "--solver", "dopri5", "--atol", "nan"), 1,
                         id="sample-atol-nan"),
            pytest.param(_ckpt_case("sample", _unedited, "--solver", "dopri5", "--rtol", "inf"), 1,
                         id="sample-rtol-inf"),
            pytest.param(_ckpt_case("sample", _unedited, "--cfg-scale", "nan"), 1,
                         id="sample-cfg-scale-nan"),
            pytest.param(_ckpt_case("sample", _unedited, "--cfg-scale", "inf"), 1,
                         id="sample-cfg-scale-inf"),
            pytest.param(_ckpt_case("sample", _unconditional, "--cfg-mode", "bogus"), 1,
                         id="sample-unconditional-cfg-mode-unknown"),
            pytest.param(_ckpt_case("distill", _unedited, "--cfg-lo", "9", "--cfg-hi", "1"), 1,
                         id="distill-cfg-range-reversed-unguided"),
            pytest.param(_ckpt_case("distill", _huge_w_out), 3, id="distill-non-finite-loss"),
            # from step 2 on every residual is clipped, so mf_loss stays at 1.0
            pytest.param(_ckpt_case("distill", _unedited, "--lr", "1e6", "--steps", "30"), 3,
                         id="distill-huge-lr-clip-saturated"),
            pytest.param(_ckpt_case("distill", _unedited, "--warmup-steps", "0",
                                    "--adv-weight", "nan"), 1, id="distill-adv-weight-nan"),
            pytest.param(_ckpt_case("distill", _unedited, "--warmup-steps", "0",
                                    "--adv-weight", "inf"), 1, id="distill-adv-weight-inf"),
            pytest.param(_ckpt_case("distill", _unedited, "--guidance", "true", "--cfg-lo", "nan"),
                         1, id="distill-cfg-lo-nan"),
            pytest.param(_ckpt_case("distill", _unedited, "--guidance", "true", "--cfg-hi", "inf"),
                         1, id="distill-cfg-hi-inf"),
            pytest.param(_config_case("train-fm", b"steps = 2\nstep_count = 2\n"), 1,
                         id="unknown-config-key"),
            pytest.param(_config_case("train-fm", b"steps = 5\n\xff\xfe = 1\n"), 1,
                         id="config-not-utf8"),
            pytest.param(_config_case("train-fm", b"steps = 2\nseed = -1\n"), 1,
                         id="config-seed-negative"),
            pytest.param(_train_case("--seed", "-1"), 1, id="train-fm-seed-negative"),
            pytest.param(_ckpt_case("sample", _unedited, "--seed", "-3"), 1,
                         id="sample-seed-negative"),
            pytest.param(_ckpt_case("distill", _unedited, "--seed", "-2"), 1,
                         id="distill-seed-negative"),
            pytest.param(_train_case("--hidden", "0"), 1, id="hidden-zero"),
            pytest.param(_train_case("--hidden", "-3"), 1, id="hidden-negative"),
            pytest.param(_train_case("--hidden", "8,0"), 1, id="hidden-second-zero"),
            pytest.param(_train_case("--lr-warmup", "-1"), 1, id="lr-warmup-negative"),
            pytest.param(_train_case("--lr", "-1"), 1, id="lr-negative"),
            pytest.param(_train_case("--lr", "nan"), 1, id="lr-nan"),
            pytest.param(_train_case("--lr", "inf"), 1, id="lr-inf"),
            pytest.param(_train_case("--steps", "-1"), 1, id="steps-negative"),
            pytest.param(_codec_case(lambda p: p.write_bytes(b"not a RIFF file")), 2,
                         id="codec-non-riff"),
            pytest.param(_codec_case(_write_pcm24), 2, id="codec-pcm24"),
            pytest.param(_codec_case(_write_empty_wav), 1, id="codec-empty-wav"),
            pytest.param(_codec_case(_write_rate_2_30), 1, id="codec-rate-past-wav-header"),
            pytest.param(_codec_case(_write_nan_float32), 2, id="codec-nan-sample"),
            pytest.param(_raw_ckpt_case("sample", lambda b: b[: len(b) // 2]), 2,
                         id="sample-truncated-checkpoint"),
            pytest.param(_raw_ckpt_case("sample", lambda b: b.replace(b"{", b"{\xff", 1)), 2,
                         id="sample-checkpoint-not-utf8"),
            pytest.param(_raw_ckpt_case("sample", lambda b: b"[" * 100_000), 2,
                         id="sample-checkpoint-nested-100k"),
            pytest.param(_ckpt_case("sample", _hidden_as_string), 2,
                         id="sample-hidden-not-a-list"),
            pytest.param(_ckpt_case("sample", _no_hidden_layers), 2,
                         id="sample-no-hidden-layers"),
            pytest.param(_ckpt_case("sample", _unedited, "--cond", "-7"), 1,
                         id="sample-cond-below-minus-one"),
            pytest.param(_ckpt_case("sample", _unedited, "--cond", "8"), 1,
                         id="sample-cond-null-id"),
            pytest.param(_ckpt_case("sample", _unconditional, "--cond", "0"), 1,
                         id="sample-unconditional-cond-given"),
            # numpy refuses these TiB-scale arrays at once, without touching memory
            pytest.param(_ckpt_case("sample", _unedited, "--n", "1000000000000"), 1,
                         id="sample-n-unallocatable"),
            pytest.param(_train_case("--steps", "1", "--batch-size", "1000000000000"), 1,
                         id="train-fm-batch-size-unallocatable"),
            pytest.param(_ckpt_case("sample", _unedited, "--steps", "1000000000000",
                                    "--max-nfe", "3"), 3, id="sample-euler-grid-over-nfe-budget"),
            pytest.param(_eval_case("id,dim0,dim1\n0,1.0,2.0\n1,3.0\n"), 2,
                         id="eval-ragged-csv"),
            pytest.param(_eval_case("id,dim0,dim1\n0,1.0,abc\n"), 2, id="eval-non-numeric-csv"),
            pytest.param(_eval_case("id,dim0,dim1\n0,1.0,2.0\n1,1_0,4.0\n"), 2,
                         id="eval-underscore-in-number"),
            pytest.param(_eval_case("id,dim0,dim1\n0,1.0,inf\n"), 2, id="eval-inf-cell"),
            pytest.param(_eval_case("id,dim0,dim1\n0,1.0,2.0\n1,3.0,4.0\n", "--workers", "0"), 1,
                         id="eval-workers-zero"),
        ],
    )
    def test_exit_code_and_one_error_line(self, argv, code, tmp_path, capsys):
        assert main(argv(tmp_path)) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not (tmp_path / "o").exists()  # a refused run writes nothing

    @pytest.mark.parametrize("command", ["sample", "distill"])
    @pytest.mark.parametrize(
        "key, index, entry",
        [("embed_b", (0,), "8"), ("embed_b", (0,), True), ("cond_table", (8, 0), "8"),
         ("cond_table", (8, 0), False)],
    )
    def test_non_numeric_parameter_exits_2_naming_checkpoint(
        self, command, key, index, entry, tmp_path, capsys
    ):
        def edit(obj):
            row = obj["params"][key]
            for i in index[:-1]:
                row = row[i]
            row[index[-1]] = entry

        assert main(_ckpt_case(command, edit)(tmp_path)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"error: {tmp_path / 'ckpt.json'}: parameter {key!r} holds "
                                   f"{type(entry).__name__} entries"), lines
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_on_a_file_exits_2_before_training(self, below, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(flow, "fm_loss", lambda *args: pytest.fail("a step ran"))
        blocker = tmp_path / "o"
        blocker.write_bytes(b"keep")
        assert main(["train-fm", "--out", str(blocker / below)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: not a directory: {blocker}"]
        assert blocker.read_bytes() == b"keep"

    # both runs overflow, so numpy warns before the error is raised
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(_train_case("--hidden", "8", "--lr", "1e200", "--lr-warmup", "1"),
                         id="train-fm-huge-lr"),
            pytest.param(_ckpt_case("distill", _huge_w_out), id="distill-huge-w-out"),
        ],
    )
    def test_subprocess_failure_prints_one_line(self, argv, tmp_path):
        proc = _run_python("-m", "flowfx.cli", *argv(tmp_path), timeout=300)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_zero_lr_warmup_means_no_warmup(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(_train_case("--lr-warmup", "0", "--lr", "0.01")(tmp_path)) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_log(out / "fm_log.csv")
        assert [row[2] for row in rows] == ["0.01", "0.01"]

    def test_module_entry_point_prints_no_warning(self):
        proc = _run_python("-W", "default::RuntimeWarning", "-m", "flowfx.cli", "--help")
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_cli_import_loads_neither_transformer_nor_scipy_special(self):
        # no command needs them, so importing the command line must not pay for
        # them; flowfx reads and writes WAV files without scipy, and secrets
        # would pull in hmac and hashlib
        proc = _run_python("-c", "import sys, flowfx.cli; print(sorted(m for m in sys.modules "
                           "if m in ('flowfx.transformer', 'secrets') "
                           "or m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestCodec:
    def test_roundtrip_report(self, tmp_path):
        wav = tmp_path / "tone.wav"
        dsp.write_wav(wav, dsp.synth_signal(3, 0.5))
        out = tmp_path / "o"
        assert main(["codec", str(wav), "--out", str(out)]) == 0
        report = read_report(out / "codec_report.csv")
        assert report["si_sdr"][0] >= 90.0
        assert report["mel_dist"][0] < 1e-8
        assert report["stft_dist"][0] < 1e-8
        recon = dsp.read_wav(out / "reconstructed.wav")
        assert len(recon.samples) == len(dsp.read_wav(wav).samples)

    def test_zero_audio_has_zero_mel_dist(self, tmp_path):
        wav = tmp_path / "silence.wav"
        dsp.write_wav(wav, dsp.AudioBuffer(np.zeros(24000), 48000))
        out = tmp_path / "o"
        assert main(["codec", str(wav), "--out", str(out)]) == 0
        report = read_report(out / "codec_report.csv")
        assert report["mel_dist"][0] == 0.0
        assert report["si_sdr"][0] == -100.0

    def test_stereo_input_downmixes_with_warning(self, tmp_path):
        from scipy.io import wavfile

        stereo = np.stack([np.sin(np.linspace(0, 80, 24000))] * 2, axis=1)
        wav = tmp_path / "stereo.wav"
        wavfile.write(wav, 48000, stereo.astype(np.float32))
        with pytest.warns(UserWarning, match="downmix"):
            rc = main(["codec", str(wav), "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.wav"
        assert main(["codec", str(missing), "--out", str(tmp_path / "o")]) == 2
        assert "nope.wav" in capsys.readouterr().err

    def test_unreadable_wav_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_text("this is not audio")
        assert main(["codec", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "bad.wav" in capsys.readouterr().err


class TestTrainFm:
    def test_small_run_outputs(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["train-fm", "--steps", "40", "--batch-size", "32",
                   "--hidden", "16,16", "--out", str(out)])
        assert rc == 0
        header, rows = read_log(out / "fm_log.csv")
        assert header == ["step", "loss", "lr"]
        assert len(rows) == 40
        assert [r[0] for r in rows] == [str(i) for i in range(1, 41)]
        model, _, meta = net.load_checkpoint(out / "fm_teacher.json")
        assert model.config.hidden == (16, 16)
        assert model.config.n_cond == 8
        assert meta["dataset"] == "ring"

    def test_zero_steps_checkpoint_equals_init(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["train-fm", "--steps", "0", "--hidden", "8,8",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        model, _, _ = net.load_checkpoint(out / "fm_teacher.json")
        fresh = net.init_model(ring_model_config((8, 8)), np.random.default_rng(5))
        for k in fresh.params:
            assert np.array_equal(model.params[k], fresh.params[k]), k

    def test_checkpoint_reloads_bit_exactly(self, tmp_path):
        out = tmp_path / "o"
        assert main(["train-fm", "--steps", "15", "--batch-size", "16",
                     "--hidden", "8", "--out", str(out)]) == 0
        model, _, _ = net.load_checkpoint(out / "fm_teacher.json")
        resaved = tmp_path / "again.json"
        net.save_checkpoint(resaved, model, meta={"dataset": "ring", "seed": 0, "steps": 15})
        assert resaved.read_bytes() == (out / "fm_teacher.json").read_bytes()

    def test_fixed_seed_runs_are_byte_identical(self, tmp_path):
        args = ["train-fm", "--steps", "20", "--batch-size", "16",
                "--hidden", "8,8", "--seed", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("fm_log.csv", "fm_teacher.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_divergence_aborts_with_step_and_exit_3(self, tmp_path, capsys):
        # one adam step of size 1e200 drives the next forward pass to overflow
        with np.errstate(all="ignore"):
            rc = main(["train-fm", "--steps", "5", "--batch-size", "8",
                       "--hidden", "8", "--lr", "1e200", "--lr-warmup", "1",
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "step" in err

    def test_default_run_final_loss_under_tenth_of_initial(self, ring_run):
        out, _ = ring_run
        _, rows = read_log(out / "fm_log.csv")
        losses = [float(r[1]) for r in rows]
        # single minibatches fluctuate around the irreducible conditional
        # variance of the noised path, so "final loss" is a trailing mean
        final = sum(losses[-100:]) / 100
        assert final < 0.1 * losses[0]


class TestDistillCommand:
    def test_log_columns_and_warmup_gating(self, small_teacher, tmp_path):
        out = tmp_path / "o"
        rc = main(["distill", str(small_teacher), "--steps", "12",
                   "--warmup-steps", "5", "--batch-size", "16", "--out", str(out)])
        assert rc == 0
        header, rows = read_log(out / "distill_log.csv")
        assert header == ["step", "mf_loss", "adv_loss", "disc_loss", "lr"]
        assert len(rows) == 12
        for row in rows:
            step = int(row[0])
            if step <= 5:
                assert row[2] == "" and row[3] == ""
            else:
                float(row[2]), float(row[3])  # parse as numbers
        student, _, meta = net.load_checkpoint(out / "student.json")
        teacher, _, _ = net.load_checkpoint(small_teacher)
        assert student.config == teacher.config
        assert meta["dataset"] == "ring"

    def test_zero_adv_weight_leaves_columns_empty(self, small_teacher, tmp_path):
        out = tmp_path / "o"
        rc = main(["distill", str(small_teacher), "--steps", "8",
                   "--warmup-steps", "2", "--adv-weight", "0",
                   "--batch-size", "16", "--out", str(out)])
        assert rc == 0
        _, rows = read_log(out / "distill_log.csv")
        assert all(r[2] == "" and r[3] == "" for r in rows)

    def test_incompatible_teacher_exits_1(self, tmp_path, capsys):
        narrow = net.init_model(
            net.ModelConfig(dim=1, hidden=(8,), n_cond=2), np.random.default_rng(0)
        )
        ckpt = tmp_path / "narrow.json"
        net.save_checkpoint(ckpt, narrow)
        rc = main(["distill", str(ckpt), "--steps", "2", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "dim" in capsys.readouterr().err

    def test_teacher_without_hidden_layers(self, tmp_path, capsys):
        assert main(_ckpt_case("distill", _no_hidden_layers)(tmp_path)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert "bad model config: need at least one hidden layer" in lines[0]
        assert not (tmp_path / "o").exists()

    def test_divergence_stops_at_first_non_finite_step(self, tmp_path, monkeypatch, capsys):
        calls = []
        gen_step = distill.gen_step

        def counted(*args, **kwargs):
            calls.append(1)
            return gen_step(*args, **kwargs)

        monkeypatch.setattr(distill, "gen_step", counted)
        argv = _ckpt_case("distill", _huge_w_out, "--steps", "5")(tmp_path)
        assert main(argv) == 3
        assert len(calls) == 1
        assert "step 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "student.json").exists()

    def test_corrupt_checkpoint_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["distill", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_fixed_seed_runs_are_byte_identical(self, small_teacher, tmp_path):
        args = ["distill", str(small_teacher), "--steps", "10",
                "--warmup-steps", "4", "--batch-size", "16", "--seed", "9"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("distill_log.csv", "student.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _count_calls(monkeypatch, *targets):
    """A Counter of calls to each (module, name) in ``targets``, counted by
    wrappers installed as the module attributes."""
    counts = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in targets:
        count(module, name)
    return counts


class TestPrimalPasses:
    # Every primal pass runs net._core, looked up as a module global, so a
    # counting wrapper installed there sees every call.

    def test_one_primal_pass_per_training_step(self, tmp_path, monkeypatch):
        # the loops call flow.fm_loss and distill.gen_step as module
        # attributes, so their wrappers see every step
        counts = _count_calls(monkeypatch, (net, "_core"), (flow, "fm_loss"),
                              (distill, "gen_step"))
        fm_out = tmp_path / "fm"
        assert main(["train-fm", "--steps", "5", "--batch-size", "16",
                     "--hidden", "8,8", "--out", str(fm_out)]) == 0
        assert counts == {"fm_loss": 5, "_core": 5}

        counts.clear()
        assert main(["distill", str(fm_out / "fm_teacher.json"), "--steps", "4",
                     "--warmup-steps", "2", "--batch-size", "16",
                     "--out", str(tmp_path / "d")]) == 0
        # warm-up: teacher target + student jvp; adversarial adds the
        # discriminator trunk on x_r plus the disc step's student pass and
        # its one stacked [real; fake] trunk pass
        assert counts == {"gen_step": 4, "_core": 2 * 2 + 2 * 5}

    @pytest.mark.parametrize("flags, passes", [
        (["--solver", "euler", "--steps", "4"], 4),
        (["--solver", "euler", "--steps", "4", "--cfg-scale", "2"], 8),
        (["--solver", "dopri5"], None),  # the report's mean_nfe
    ])
    def test_one_primal_pass_per_model_call_when_sampling(
        self, flags, passes, small_teacher, tmp_path, monkeypatch
    ):
        counts = _count_calls(monkeypatch, (net, "_core"))
        out = tmp_path / "o"
        assert main(["sample", str(small_teacher), "--n", "8", *flags, "--out", str(out)]) == 0
        nfe = read_report(out / "sample_report.csv")["mean_nfe"][0]
        assert passes is None or nfe == passes
        assert counts == {"_core": nfe}


class TestSampleCommand:
    def test_euler_four_steps_reports_nfe_4(self, small_teacher, tmp_path):
        out = tmp_path / "o"
        rc = main(["sample", str(small_teacher), "--n", "8", "--out", str(out)])
        assert rc == 0
        emb = metrics.read_embedding_csv(out / "samples.csv")
        assert emb.rows.shape == (8, 2)
        report = read_report(out / "sample_report.csv")
        assert report["mean_nfe"] == (4.0, 8)
        with open(out / "nfe.csv") as fh:
            assert fh.readline().strip() == "id,nfe"
            assert [line.strip().split(",")[1] for line in fh] == ["4"] * 8

    def test_euler_guidance_is_applied(self, small_teacher, tmp_path):
        args = ["sample", str(small_teacher), "--solver", "euler", "--steps", "4", "--n", "8"]
        plain, guided = tmp_path / "plain", tmp_path / "guided"
        assert main(args + ["--cfg-scale", "1", "--out", str(plain)]) == 0
        assert main(args + ["--cfg-scale", "3", "--out", str(guided)]) == 0
        assert (plain / "samples.csv").read_bytes() != (guided / "samples.csv").read_bytes()
        assert read_report(plain / "sample_report.csv")["mean_nfe"] == (4.0, 8)
        assert read_report(guided / "sample_report.csv")["mean_nfe"] == (8.0, 8)

    def test_dopri5_reports_adaptive_nfe(self, small_teacher, tmp_path):
        out = tmp_path / "o"
        rc = main(["sample", str(small_teacher), "--solver", "dopri5",
                   "--n", "8", "--out", str(out)])
        assert rc == 0
        report = read_report(out / "sample_report.csv")
        assert report["mean_nfe"][0] >= 7  # at least one accepted dopri5 step

    def test_same_seed_twice_is_byte_identical(self, small_teacher, tmp_path):
        args = ["sample", str(small_teacher), "--n", "16", "--seed", "4"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("samples.csv", "nfe.csv", "sample_report.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_different_seed_changes_samples(self, small_teacher, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sample", str(small_teacher), "--n", "8", "--seed", "1",
                     "--out", str(out_a)]) == 0
        assert main(["sample", str(small_teacher), "--n", "8", "--seed", "2",
                     "--out", str(out_b)]) == 0
        assert (out_a / "samples.csv").read_bytes() != (out_b / "samples.csv").read_bytes()

    def test_fixed_condition_id(self, small_teacher, tmp_path):
        rc = main(["sample", str(small_teacher), "--n", "4", "--cond", "3",
                   "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_condition_out_of_range_exits_1(self, small_teacher, tmp_path):
        rc = main(["sample", str(small_teacher), "--n", "4", "--cond", "99",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_nfe_budget_exceeded_exits_3(self, small_teacher, tmp_path, capsys):
        rc = main(["sample", str(small_teacher), "--solver", "dopri5",
                   "--max-nfe", "3", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "budget" in capsys.readouterr().err.lower()

    def test_unknown_solver_exits_1(self, small_teacher, tmp_path):
        rc = main(["sample", str(small_teacher), "--solver", "rk4",
                   "--out", str(tmp_path / "o")])
        assert rc == 1


class TestEvalCommand:
    def _sample_dir(self, small_teacher, tmp_path, name, seed):
        out = tmp_path / name
        assert main(["sample", str(small_teacher), "--n", "12", "--seed", str(seed),
                     "--out", str(out)]) == 0
        return out

    def test_identical_directories(self, small_teacher, tmp_path):
        d = self._sample_dir(small_teacher, tmp_path, "same", 0)
        out = tmp_path / "report"
        assert main(["eval", "--real", str(d), "--fake", str(d), "--out", str(out)]) == 0
        report = read_report(out / "eval_report.csv")
        assert 0.0 <= report["frechet"][0] <= 1e-6
        assert report["kl"][0] == 0.0
        assert report["clap_score"][0] == 1.0
        assert report["recall_at_1_real_to_fake"][0] == 1.0
        assert report["recall_at_1_fake_to_real"][0] == 1.0

    def test_different_sets_have_positive_distance(self, small_teacher, tmp_path):
        a = self._sample_dir(small_teacher, tmp_path, "a", 1)
        b = self._sample_dir(small_teacher, tmp_path, "b", 2)
        out = tmp_path / "report"
        assert main(["eval", "--real", str(a), "--fake", str(b), "--out", str(out)]) == 0
        assert read_report(out / "eval_report.csv")["frechet"][0] > 0.0

    def test_audio_pairs_report_mean_metrics(self, tmp_path):
        real, fake = tmp_path / "real", tmp_path / "fake"
        real.mkdir(), fake.mkdir()
        clip = dsp.synth_signal(1, 0.3)
        dsp.write_wav(real / "a.wav", clip)
        dsp.write_wav(fake / "a.wav", clip)
        dsp.write_wav(real / "unpaired.wav", dsp.synth_signal(2, 0.3))
        out = tmp_path / "report"
        assert main(["eval", "--real", str(real), "--fake", str(fake),
                     "--out", str(out)]) == 0
        report = read_report(out / "eval_report.csv")
        assert report["si_sdr"] == (100.0, 1)  # one identical pair
        assert report["mel_dist"][0] == 0.0

    def test_mixed_dimension_embeddings_exit_2(self, tmp_path, capsys):
        real, fake = tmp_path / "real", tmp_path / "fake"
        real.mkdir(), fake.mkdir()
        metrics.write_embedding_csv(real / "a.csv", metrics.EmbeddingSet(np.eye(3)))
        metrics.write_embedding_csv(real / "b.csv", metrics.EmbeddingSet(np.eye(4)))
        metrics.write_embedding_csv(fake / "a.csv", metrics.EmbeddingSet(np.eye(3)))
        rc = main(["eval", "--real", str(real), "--fake", str(fake),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "differs" in capsys.readouterr().err

    def test_malformed_embedding_reports_offset(self, tmp_path, capsys):
        real, fake = tmp_path / "real", tmp_path / "fake"
        real.mkdir(), fake.mkdir()
        (real / "bad.csv").write_text("id,dim0\nrow0,not_a_number\n")
        metrics.write_embedding_csv(fake / "a.csv", metrics.EmbeddingSet(np.eye(2)))
        rc = main(["eval", "--real", str(real), "--fake", str(fake),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "byte offset" in capsys.readouterr().err

    def test_k_out_of_range_exits_1(self, small_teacher, tmp_path):
        d = self._sample_dir(small_teacher, tmp_path, "same", 0)
        rc = main(["eval", "--real", str(d), "--fake", str(d), "--k", "99",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_empty_directories_exit_1(self, tmp_path, capsys):
        real, fake = tmp_path / "real", tmp_path / "fake"
        real.mkdir(), fake.mkdir()
        rc = main(["eval", "--real", str(real), "--fake", str(fake),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "nothing to evaluate" in capsys.readouterr().err

    def test_pair_of_different_lengths_names_file_and_lengths(self, tmp_path, capsys):
        real, fake = tmp_path / "real", tmp_path / "fake"
        real.mkdir(), fake.mkdir()
        clip = dsp.synth_signal(1, 1.0)
        dsp.write_wav(real / "a.wav", clip)
        dsp.write_wav(fake / "a.wav", dsp.AudioBuffer(clip.samples[:47990], clip.sample_rate))
        rc = main(["eval", "--real", str(real), "--fake", str(fake),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: WAV pair a.wav: lengths differ: 48000 vs 47990 samples"]
        assert not (tmp_path / "o").exists()

    def test_missing_directory_exits_2(self, tmp_path):
        rc = main(["eval", "--real", str(tmp_path / "ghost"), "--fake", str(tmp_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_worker_count_does_not_change_report(self, small_teacher, tmp_path):
        d = self._sample_dir(small_teacher, tmp_path, "same", 0)
        out_a, out_b = tmp_path / "w1", tmp_path / "w4"
        base = ["eval", "--real", str(d), "--fake", str(d)]
        assert main(base + ["--workers", "1", "--out", str(out_a)]) == 0
        assert main(base + ["--workers", "4", "--out", str(out_b)]) == 0
        assert (out_a / "eval_report.csv").read_bytes() == (out_b / "eval_report.csv").read_bytes()


# Runs each argv list through main in one interpreter; exits with the worst code.
_RUN_ALL = "import json, sys\nfrom flowfx.cli import main\n" \
           "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))"

# OpenBLAS splits dsp.log_mel's filterbank gemm (frames x bins times bins x
# mels) across its threads, so mel_dist's low bits follow the thread count.
# Not strict: a one-core machine may not split it.
_MEL_GEMM = pytest.mark.xfail(
    strict=False, reason="dsp.log_mel's filterbank gemm sums in thread-count order"
)


def _training_and_sampling(inputs, run):
    teacher = str(run / "train" / "fm_teacher.json")
    return [
        ["train-fm", "--steps", "100", "--out", str(run / "train")],
        ["distill", teacher, "--steps", "20", "--warmup-steps", "10",
         "--out", str(run / "distill")],
        ["sample", teacher, "--n", "2048", "--out", str(run / "euler")],
        ["sample", teacher, "--solver", "dopri5", "--n", "2048", "--cfg-scale", "2",
         "--out", str(run / "dopri5")],
    ]


def _codec_2s(inputs, run):
    dsp.write_wav(inputs / "in.wav", dsp.synth_signal(0, 2.0))
    return [["codec", str(inputs / "in.wav"), "--out", str(run)]]


def _eval_2s(inputs, run):
    # every 4800th sample one float32 step apart: mel_dist reads about 3e-6,
    # small enough that the gemm's rounding shows in its low bits
    real, fake = inputs / "real", inputs / "fake"
    audio = dsp.synth_signal(0, 2.0)
    clip = audio.samples.astype(np.float32)
    nudged = clip.copy()
    nudged[::4800] = np.nextafter(nudged[::4800], np.float32(np.inf))
    for seed, (side, samples) in enumerate(((real, clip), (fake, nudged))):
        side.mkdir()
        dsp.write_wav(side / "a.wav", dsp.AudioBuffer(samples, audio.sample_rate))
        rows = np.random.default_rng(seed).standard_normal((500, 16))
        metrics.write_embedding_csv(side / "e.csv", metrics.EmbeddingSet(rows))
    return [["eval", "--real", str(real), "--fake", str(fake), "--out", str(run)]]


class TestBlasThreadCount:
    @pytest.mark.parametrize(
        "commands",
        [
            pytest.param(_training_and_sampling, id="train-fm-distill-sample"),
            pytest.param(_codec_2s, id="codec", marks=_MEL_GEMM),
            pytest.param(_eval_2s, id="eval", marks=_MEL_GEMM),
        ],
    )
    def test_same_bytes_at_one_and_two_threads(self, commands, tmp_path):
        inputs, run = tmp_path / "in", tmp_path / "run"
        inputs.mkdir()
        argvs = json.dumps([[str(a) for a in argv] for argv in commands(inputs, run)])
        artifacts = []
        for threads in ("1", "2"):  # the same --out paths, so metadata matches
            proc = _run_python("-c", _RUN_ALL, argvs, OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            artifacts.append({str(p.relative_to(run)): p.read_bytes()
                              for p in sorted(run.rglob("*")) if p.is_file()})
            shutil.rmtree(run)
        one, two = artifacts
        assert sorted(one) == sorted(two)
        assert [name for name in one if one[name] != two[name]] == []


# Pins the child to the CPUs in argv[1] before flowfx is imported, runs the
# command in argv[2:] and prints whether the guidance pool was made.
_PINNED_MAIN = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(c) for c in sys.argv[1].split(',')})\n"
    "from flowfx import cli, solvers\n"
    "code = cli.main(sys.argv[2:])\n"
    "print(solvers._POOL is not None)\n"
    "sys.exit(code)"
)


def _cpus():
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


class TestSampleCpuCount:
    @pytest.mark.skipif(len(_cpus()) < 2, reason="needs a process that may use two CPUs")
    def test_guided_sample_same_bytes_on_one_and_two_cpus(self, small_teacher, tmp_path):
        # n = 2048 is above PARALLEL_MIN_ROWS: two CPUs run the guidance
        # branches on two threads, one CPU runs them serially
        out = tmp_path / "o"
        argv = ["sample", str(small_teacher), "--solver", "dopri5", "--n", "2048",
                "--cfg-scale", "2", "--out", str(out)]
        runs = []
        for cpus in (_cpus()[:1], _cpus()[:2]):
            proc = _run_python("-c", _PINNED_MAIN, ",".join(map(str, cpus)), *argv)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout.split(), {name: (out / name).read_bytes() for name in
                                               ("samples.csv", "nfe.csv", "sample_report.csv")}))
            shutil.rmtree(out)
        (one_pool, one), (two_pool, two) = runs
        assert (one_pool, two_pool) == (["False"], ["True"])
        assert one == two
